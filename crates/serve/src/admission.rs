//! Per-stream admission control: decide at arrival time whether a frame
//! may enter its queue at all.
//!
//! Backpressure ([`DropPolicy`](crate::DropPolicy)) sheds load *after* a
//! queue fills; admission control sheds it *at the door*, with policy —
//! rate limits per camera, or priority classes where low-priority streams
//! are shed first under fleet-wide overload. Every decision is a pure
//! function of virtual time and queue state, so admission outcomes are
//! bit-reproducible; rejections are stamped into an [`AdmissionEvent`]
//! timeline and counted per stream (a rejected frame also counts as
//! dropped, keeping `arrived == processed + dropped` exact).

use crate::config::{AdmissionConfig, AdmissionKind};

/// Everything an admission policy may look at for one arriving frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionContext {
    /// Arrival time of the frame (virtual seconds).
    pub now_s: f64,
    /// Stream the frame belongs to.
    pub stream: usize,
    /// The stream's priority class (0 is highest).
    pub priority: u8,
    /// Frames queued across all streams at this instant.
    pub total_backlog: usize,
}

/// Why a frame was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionReason {
    /// The stream exhausted its token bucket.
    RateLimited,
    /// The fleet was overloaded and the stream's priority class was shed.
    Shed,
}

impl AdmissionReason {
    /// Short label used in timeline printouts.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionReason::RateLimited => "rate-limited",
            AdmissionReason::Shed => "shed",
        }
    }

    /// Stable integer code used in flight-recorder admission events.
    pub fn code(&self) -> u64 {
        match self {
            AdmissionReason::RateLimited => 0,
            AdmissionReason::Shed => 1,
        }
    }

    /// Parses a flight-recorder reason code.
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(AdmissionReason::RateLimited),
            1 => Some(AdmissionReason::Shed),
            _ => None,
        }
    }
}

/// One admission rejection, stamped in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionEvent {
    /// Arrival time of the refused frame.
    pub t_s: f64,
    /// Stream the frame belonged to (fleet-wide id, matching
    /// [`StreamReport::stream_id`](crate::StreamReport::stream_id)).
    pub stream: usize,
    /// Why it was refused.
    pub reason: AdmissionReason,
}

/// One downgrade-before-drop transition, stamped in virtual time.
///
/// With [`AdmissionConfig::downgrade`](crate::AdmissionConfig::downgrade)
/// enabled, the first shed verdict against a stream downgrades its frame
/// policy one rung instead of dropping the frame (`on = true`); the next
/// clean admit restores it (`on = false`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DowngradeEvent {
    /// Arrival time of the frame that tripped (or cleared) the downgrade.
    pub t_s: f64,
    /// Stream whose policy class changed (fleet-wide id).
    pub stream: usize,
    /// `true` when entering the degraded rung, `false` on restore.
    pub on: bool,
}

/// A per-arrival admission decision.
///
/// Implementations must be deterministic functions of the context and
/// their own state; `Err` carries the rejection reason.
pub trait AdmissionPolicy: Send {
    /// Stable policy name (reports, CLI).
    fn name(&self) -> &'static str;

    /// Admits (`Ok`) or refuses (`Err`) one arriving frame.
    fn admit(&mut self, ctx: &AdmissionContext) -> Result<(), AdmissionReason>;

    /// Notifies the policy that a stream slot was appended to the fleet it
    /// gates (a live migration admitting a stream onto this shard). Stateful
    /// policies grow their per-stream state; the default is a no-op.
    fn on_stream_added(&mut self, _priority: u8) {}

    /// Notifies the policy that stream slot `local` left the fleet it gates
    /// (a live migration lifting a stream off this shard): every later
    /// slot moves down one. Stateful policies drop the slot's per-stream
    /// state; the default is a no-op.
    fn on_stream_removed(&mut self, _local: usize) {}

    /// Whether the policy's rejections may be converted into policy
    /// downgrades (the downgrade-before-drop rung). Only load-shedding
    /// rejections qualify — a rate-limit refusal reflects a per-camera
    /// contract, not fleet overload, so [`TokenBucket`] keeps the default.
    fn supports_downgrade(&self) -> bool {
        false
    }
}

/// Admits every frame (the no-admission-control baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmitAll;

impl AdmissionPolicy for AdmitAll {
    fn name(&self) -> &'static str {
        "admit-all"
    }

    fn admit(&mut self, _ctx: &AdmissionContext) -> Result<(), AdmissionReason> {
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last_s: f64,
}

/// Per-stream token-bucket rate limiting.
///
/// Each stream owns a bucket holding up to `burst` tokens, refilled at
/// `rate_fps` tokens per virtual second; a frame is admitted iff a whole
/// token is available. Buckets start full, so a camera may burst up to
/// `burst` frames before settling at its sustained rate.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_fps: f64,
    burst: f64,
    buckets: Vec<Bucket>,
}

impl TokenBucket {
    /// One bucket per stream, all starting full.
    pub fn new(rate_fps: f64, burst: f64, streams: usize) -> Self {
        Self {
            rate_fps,
            burst,
            buckets: vec![
                Bucket {
                    tokens: burst,
                    last_s: 0.0,
                };
                streams
            ],
        }
    }
}

impl AdmissionPolicy for TokenBucket {
    fn name(&self) -> &'static str {
        "token-bucket"
    }

    fn admit(&mut self, ctx: &AdmissionContext) -> Result<(), AdmissionReason> {
        let b = &mut self.buckets[ctx.stream];
        b.tokens = (b.tokens + (ctx.now_s - b.last_s) * self.rate_fps).min(self.burst);
        b.last_s = ctx.now_s;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            Ok(())
        } else {
            Err(AdmissionReason::RateLimited)
        }
    }

    /// A migrated stream starts with a full bucket on its new shard (the
    /// conservative direction: it can burst at most `burst` extra frames
    /// once per migration; sustained rates are unaffected).
    fn on_stream_added(&mut self, _priority: u8) {
        self.buckets.push(Bucket {
            tokens: self.burst,
            last_s: 0.0,
        });
    }

    /// The departed stream's bucket goes with it; later streams keep
    /// theirs.
    fn on_stream_removed(&mut self, local: usize) {
        self.buckets.remove(local);
    }
}

/// Priority classes shed lowest-first under fleet-wide overload.
///
/// The overload level is `total_backlog / backlog_watermark` (integer
/// division): at level 0 everyone is admitted; each further level sheds
/// one more priority class from the bottom, so at level 1 the lowest
/// class is refused, at level 2 the two lowest, and so on. Priority 0 is
/// shed last.
#[derive(Debug, Clone, Copy)]
pub struct PriorityShed {
    backlog_watermark: usize,
    classes: usize,
}

impl PriorityShed {
    /// Builds the policy for a fleet whose streams carry the given
    /// priorities (`classes` is inferred as `max priority + 1`).
    pub fn new(backlog_watermark: usize, priorities: &[u8]) -> Self {
        assert!(backlog_watermark >= 1, "watermark must be at least 1");
        let classes = priorities.iter().copied().max().unwrap_or(0) as usize + 1;
        Self {
            backlog_watermark,
            classes,
        }
    }
}

impl AdmissionPolicy for PriorityShed {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn admit(&mut self, ctx: &AdmissionContext) -> Result<(), AdmissionReason> {
        let level = ctx.total_backlog / self.backlog_watermark;
        if (ctx.priority as usize) < self.classes.saturating_sub(level) {
            Ok(())
        } else {
            Err(AdmissionReason::Shed)
        }
    }

    /// A migrating stream may carry a lower priority class than any the
    /// shard has seen; widen the class count so it sheds before them.
    fn on_stream_added(&mut self, priority: u8) {
        self.classes = self.classes.max(priority as usize + 1);
    }

    fn supports_downgrade(&self) -> bool {
        true
    }
}

/// Instantiates the configured admission policy for a fleet with the
/// given per-stream priorities.
pub fn build_admission(cfg: &AdmissionConfig, priorities: &[u8]) -> Box<dyn AdmissionPolicy> {
    match cfg.kind {
        AdmissionKind::AdmitAll => Box::new(AdmitAll),
        AdmissionKind::TokenBucket => {
            Box::new(TokenBucket::new(cfg.rate_fps, cfg.burst, priorities.len()))
        }
        AdmissionKind::Priority => Box::new(PriorityShed::new(cfg.backlog_watermark, priorities)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(now_s: f64, stream: usize, priority: u8, backlog: usize) -> AdmissionContext {
        AdmissionContext {
            now_s,
            stream,
            priority,
            total_backlog: backlog,
        }
    }

    #[test]
    fn admit_all_admits() {
        let mut p = AdmitAll;
        assert!(p.admit(&ctx(0.0, 0, 3, 1_000)).is_ok());
    }

    #[test]
    fn token_bucket_caps_bursts_then_refills() {
        let mut p = TokenBucket::new(10.0, 2.0, 1);
        // Burst of three at t=0: two tokens, third refused.
        assert!(p.admit(&ctx(0.0, 0, 0, 0)).is_ok());
        assert!(p.admit(&ctx(0.0, 0, 0, 0)).is_ok());
        assert_eq!(
            p.admit(&ctx(0.0, 0, 0, 0)),
            Err(AdmissionReason::RateLimited)
        );
        // 0.1 s later one token has refilled.
        assert!(p.admit(&ctx(0.1, 0, 0, 0)).is_ok());
        assert_eq!(
            p.admit(&ctx(0.1, 0, 0, 0)),
            Err(AdmissionReason::RateLimited)
        );
    }

    #[test]
    fn token_buckets_are_per_stream() {
        let mut p = TokenBucket::new(1.0, 1.0, 2);
        assert!(p.admit(&ctx(0.0, 0, 0, 0)).is_ok());
        // Stream 0 is empty, stream 1 still has its token.
        assert!(p.admit(&ctx(0.0, 0, 0, 0)).is_err());
        assert!(p.admit(&ctx(0.0, 1, 0, 0)).is_ok());
    }

    #[test]
    fn priority_sheds_lowest_class_first() {
        let mut p = PriorityShed::new(10, &[0, 1, 2]);
        // Calm: everyone admitted.
        assert!(p.admit(&ctx(0.0, 2, 2, 9)).is_ok());
        // Level 1: class 2 shed, classes 0 and 1 admitted.
        assert_eq!(p.admit(&ctx(0.0, 2, 2, 10)), Err(AdmissionReason::Shed));
        assert!(p.admit(&ctx(0.0, 1, 1, 10)).is_ok());
        assert!(p.admit(&ctx(0.0, 0, 0, 10)).is_ok());
        // Level 2: only class 0 admitted.
        assert_eq!(p.admit(&ctx(0.0, 1, 1, 20)), Err(AdmissionReason::Shed));
        assert!(p.admit(&ctx(0.0, 0, 0, 20)).is_ok());
    }

    #[test]
    fn only_priority_shedding_supports_downgrade() {
        assert!(PriorityShed::new(10, &[0, 1]).supports_downgrade());
        assert!(!AdmitAll.supports_downgrade());
        assert!(!TokenBucket::new(10.0, 2.0, 1).supports_downgrade());
    }

    #[test]
    fn build_admission_selects_the_kind() {
        let priorities = [0u8, 1];
        let cfg = AdmissionConfig::token_bucket(5.0, 3.0);
        assert_eq!(build_admission(&cfg, &priorities).name(), "token-bucket");
        assert_eq!(
            build_admission(&AdmissionConfig::admit_all(), &priorities).name(),
            "admit-all"
        );
        assert_eq!(
            build_admission(&AdmissionConfig::priority(8), &priorities).name(),
            "priority"
        );
    }
}
