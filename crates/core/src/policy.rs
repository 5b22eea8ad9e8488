//! Adaptive detect-or-track frame policy (the per-frame scheduling layer
//! ahead of the staged protocol).
//!
//! CaTDet's cascade runs the full propose→refine pipeline on every frame.
//! The related work goes further: *Detect or Track* (Luo et al.) schedules
//! detection vs. cheap tracker propagation per frame, and *Confidence
//! Trigger Detection* (Ding & Wong) fires the detector only when tracker
//! confidence decays. [`PolicedPipeline`] implements that layer over any
//! [`StagedDetector`]: each frame is classified as
//!
//! * **full-detect** — the existing staged path, unchanged;
//! * **track-only (coast)** — the tracker's Kalman predictions become the
//!   frame output, validated by a cheap pass priced at validate-model MACs
//!   ([`StagedDetector::coast_frame`]); the tracker ages one frame;
//! * **skipped-by-stride** — no compute at all, empty output.
//!
//! Every branch flows through the same MACs pricing and (downstream) the
//! delay metric, so the accuracy/compute frontier stays measurable.
//! Track-only and skipped frames complete without ever suspending at the
//! refinement boundary, so they never enter a scheduler's refinement fuse
//! pool — the fleet's per-dispatch cost drops mechanically.
//!
//! With [`PolicyKind::AlwaysDetect`] the wrapper is the identity: every
//! call forwards to the inner pipeline and the outputs are bit-identical
//! to an unwrapped one (the golden suite pins this).

use crate::ops::OpsBreakdown;
use crate::stage::{PipelineState, ProposalWork, RefinementWork, StageStep, StagedDetector};
use crate::system::FrameOutput;
use catdet_data::Frame;

/// Which per-frame policy a stream runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Full detection on every frame — bit-identical to the unpoliced
    /// pipeline, the golden baseline.
    AlwaysDetect,
    /// Detect every `stride`-th frame; the rest are skipped outright
    /// (empty output, zero MACs, tracker untouched).
    FixedStride,
    /// Coast on tracker predictions while the mean track confidence stays
    /// at or above the threshold; detect on confidence decay, on a
    /// coverage gap (a track died while coasting), when no tracks are
    /// live, or after `max_coast` consecutive coasted frames.
    ConfidenceTrigger,
}

impl PolicyKind {
    /// All kinds, for CLI help and sweeps.
    pub const ALL: [PolicyKind; 3] = [
        PolicyKind::AlwaysDetect,
        PolicyKind::FixedStride,
        PolicyKind::ConfidenceTrigger,
    ];

    /// Stable CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::AlwaysDetect => "always-detect",
            PolicyKind::FixedStride => "fixed-stride",
            PolicyKind::ConfidenceTrigger => "confidence-trigger",
        }
    }

    /// Parses a CLI name (the inverse of [`PolicyKind::name`]),
    /// case-insensitively.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }
}

/// Frame-policy knobs (see [`PolicyKind`] for which knob which policy
/// reads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// The policy.
    pub kind: PolicyKind,
    /// [`PolicyKind::FixedStride`]: detect every `stride`-th frame
    /// (`1` detects everything).
    pub stride: usize,
    /// [`PolicyKind::ConfidenceTrigger`]: coast while the mean track
    /// confidence is at or above this (the tracker's adaptive confidence
    /// counter — matches minus misses, capped).
    pub confidence: f64,
    /// [`PolicyKind::ConfidenceTrigger`]: hard bound on consecutive
    /// coasted frames — the guard against new objects the tracker cannot
    /// see (it only ever coasts what it already tracks).
    pub max_coast: usize,
}

impl PolicyConfig {
    /// The golden baseline: full detection every frame.
    pub fn always_detect() -> Self {
        Self {
            kind: PolicyKind::AlwaysDetect,
            stride: 3,
            confidence: 1.0,
            max_coast: 4,
        }
    }

    /// Detect every `stride`-th frame, skip the rest.
    pub fn fixed_stride(stride: usize) -> Self {
        Self {
            kind: PolicyKind::FixedStride,
            stride,
            ..Self::always_detect()
        }
    }

    /// Coast while mean track confidence ≥ `confidence`.
    pub fn confidence_trigger(confidence: f64) -> Self {
        Self {
            kind: PolicyKind::ConfidenceTrigger,
            confidence,
            ..Self::always_detect()
        }
    }

    /// Returns a copy with a different stride.
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Returns a copy with a different confidence threshold.
    pub fn with_confidence(mut self, confidence: f64) -> Self {
        self.confidence = confidence;
        self
    }

    /// Returns a copy with a different coast bound.
    pub fn with_max_coast(mut self, max_coast: usize) -> Self {
        self.max_coast = max_coast;
        self
    }

    /// Checks the knobs' ranges.
    ///
    /// # Errors
    ///
    /// The first out-of-range knob, as `(field, rule)`: the field's name
    /// and the rule its value broke.
    pub fn validate(&self) -> Result<(), (&'static str, &'static str)> {
        if self.stride < 1 {
            return Err(("stride", "policy stride must be at least 1"));
        }
        if !(self.confidence.is_finite() && self.confidence >= 0.0) {
            return Err((
                "confidence",
                "policy confidence threshold must be finite and non-negative",
            ));
        }
        if self.max_coast < 1 {
            return Err(("max_coast", "policy max-coast must be at least 1"));
        }
        Ok(())
    }
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self::always_detect()
    }
}

/// What the policy decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyDecision {
    /// Full detection through the staged path.
    Detect,
    /// Track-only: Kalman coast + cheap validate pass.
    Coast,
    /// Skipped by stride: no compute, empty output.
    Skip,
}

impl PolicyDecision {
    /// Short label used in timelines and query output.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyDecision::Detect => "detect",
            PolicyDecision::Coast => "coast",
            PolicyDecision::Skip => "skip",
        }
    }

    /// Stable integer code used in flight-recorder policy events.
    pub fn code(&self) -> u64 {
        match self {
            PolicyDecision::Detect => 0,
            PolicyDecision::Coast => 1,
            PolicyDecision::Skip => 2,
        }
    }

    /// Parses a flight-recorder decision code.
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(PolicyDecision::Detect),
            1 => Some(PolicyDecision::Coast),
            2 => Some(PolicyDecision::Skip),
            _ => None,
        }
    }
}

/// The confidence-trigger decision rule, as a pure function (the proptest
/// surface): given the policy knobs and the observable tracker state at a
/// frame boundary, coast or detect.
///
/// Detection triggers, in order:
/// 1. no live tracks (nothing to coast on);
/// 2. the coast streak reached `max_coast` (new-object guard);
/// 3. mean track confidence decayed below the threshold;
/// 4. coverage gap: a track died since the last full detection
///    (`live_tracks < tracks_at_last_detect`).
pub fn confidence_trigger_decision(
    cfg: &PolicyConfig,
    coast_streak: usize,
    live_tracks: usize,
    tracks_at_last_detect: usize,
    mean_confidence: Option<f64>,
) -> PolicyDecision {
    if live_tracks == 0 || coast_streak >= cfg.max_coast {
        return PolicyDecision::Detect;
    }
    match mean_confidence {
        Some(c) if c >= cfg.confidence && live_tracks >= tracks_at_last_detect => {
            PolicyDecision::Coast
        }
        _ => PolicyDecision::Detect,
    }
}

/// A [`StagedDetector`] behind a per-frame detect-or-track policy.
///
/// Full-detect frames delegate every protocol call to the inner pipeline
/// unchanged. Coast and skip frames are resolved inside `begin_frame`
/// (their whole cost is known there) and complete on the first `step` —
/// they never suspend at a proposal or refinement boundary, so a
/// scheduler's fuse pools never see them. Decisions are made exclusively
/// at frame boundaries, which keeps migration and replay working: the
/// policy's cross-frame state rides in
/// [`PipelineState::Policied`] next to the inner pipeline's.
pub struct PolicedPipeline {
    inner: Box<dyn StagedDetector>,
    cfg: PolicyConfig,
    frame_count: u64,
    coast_streak: usize,
    tracks_at_last_detect: usize,
    degraded: bool,
    pending: Option<FrameOutput>,
    last_decision: Option<PolicyDecision>,
}

impl PolicedPipeline {
    /// Wraps a staged pipeline with a frame policy.
    ///
    /// # Panics
    ///
    /// Panics with the broken rule if `cfg` is out of range (see
    /// [`PolicyConfig::validate`]).
    pub fn new(inner: Box<dyn StagedDetector>, cfg: PolicyConfig) -> Self {
        if let Err((_, rule)) = cfg.validate() {
            panic!("{rule}");
        }
        Self {
            inner,
            cfg,
            frame_count: 0,
            coast_streak: 0,
            tracks_at_last_detect: 0,
            degraded: false,
            pending: None,
            last_decision: None,
        }
    }

    /// The configured policy.
    pub fn config(&self) -> &PolicyConfig {
        &self.cfg
    }

    /// The policy actually in effect, accounting for overload degradation:
    /// each degradation step moves one rung down the cost ladder
    /// always-detect → confidence-trigger → fixed-stride.
    pub fn effective_kind(&self) -> PolicyKind {
        if !self.degraded {
            return self.cfg.kind;
        }
        match self.cfg.kind {
            PolicyKind::AlwaysDetect => PolicyKind::ConfidenceTrigger,
            PolicyKind::FixedStride | PolicyKind::ConfidenceTrigger => PolicyKind::FixedStride,
        }
    }

    fn decide(&mut self) -> PolicyDecision {
        // A completed full detection re-baselines the coverage reference.
        if matches!(self.last_decision, None | Some(PolicyDecision::Detect)) {
            self.tracks_at_last_detect = self.inner.live_tracks();
        }
        match self.effective_kind() {
            PolicyKind::AlwaysDetect => PolicyDecision::Detect,
            PolicyKind::FixedStride => {
                if self.frame_count.is_multiple_of(self.cfg.stride as u64) {
                    PolicyDecision::Detect
                } else {
                    PolicyDecision::Skip
                }
            }
            PolicyKind::ConfidenceTrigger => confidence_trigger_decision(
                &self.cfg,
                self.coast_streak,
                self.inner.live_tracks(),
                self.tracks_at_last_detect,
                self.inner.mean_track_confidence(),
            ),
        }
    }
}

impl StagedDetector for PolicedPipeline {
    /// The inner system's name, unchanged: an always-detect policy must be
    /// invisible everywhere, reports included.
    fn name(&self) -> String {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.frame_count = 0;
        self.coast_streak = 0;
        self.tracks_at_last_detect = 0;
        self.pending = None;
        self.last_decision = None;
    }

    fn begin_frame(&mut self, frame: &Frame) {
        assert!(
            self.pending.is_none(),
            "begin_frame while a frame is in flight"
        );
        let mut decision = self.decide();
        match decision {
            PolicyDecision::Detect => {}
            PolicyDecision::Coast => match self.inner.coast_frame(frame) {
                Some(output) => {
                    self.pending = Some(output);
                    self.coast_streak += 1;
                }
                // Untracked pipelines cannot coast; fall back to a full
                // detection rather than silently dropping the frame.
                None => decision = PolicyDecision::Detect,
            },
            PolicyDecision::Skip => {
                self.pending = Some(FrameOutput {
                    detections: Vec::new(),
                    ops: OpsBreakdown::default(),
                    num_refinement_regions: 0,
                    refinement_coverage: 0.0,
                });
                self.coast_streak = 0;
            }
        }
        if decision == PolicyDecision::Detect {
            self.inner.begin_frame(frame);
            self.coast_streak = 0;
        }
        self.frame_count += 1;
        self.last_decision = Some(decision);
    }

    fn step(&mut self) -> StageStep {
        match self.pending.take() {
            Some(output) => StageStep::Done(output),
            None => self.inner.step(),
        }
    }

    fn complete_proposal(&mut self, work: ProposalWork) -> ProposalWork {
        self.inner.complete_proposal(work)
    }

    fn complete_refinement(&mut self, work: RefinementWork) -> RefinementWork {
        self.inner.complete_refinement(work)
    }

    fn export_state(&self) -> Option<PipelineState> {
        assert!(
            self.pending.is_none(),
            "export_state with a frame in flight: snapshots are only valid at frame boundaries"
        );
        Some(PipelineState::Policied {
            frame_count: self.frame_count,
            coast_streak: self.coast_streak,
            tracks_at_last_detect: self.tracks_at_last_detect,
            degraded: self.degraded,
            inner: Box::new(self.inner.export_state()?),
        })
    }

    fn import_state(&mut self, state: PipelineState) {
        let PipelineState::Policied {
            frame_count,
            coast_streak,
            tracks_at_last_detect,
            degraded,
            inner,
        } = state
        else {
            panic!("policed pipeline expects Policied state, got another system's snapshot");
        };
        assert!(
            self.pending.is_none(),
            "import_state with a frame in flight: snapshots are only valid at frame boundaries"
        );
        self.frame_count = frame_count;
        self.coast_streak = coast_streak;
        self.tracks_at_last_detect = tracks_at_last_detect;
        self.degraded = degraded;
        self.last_decision = None;
        // `None` would have aborted the export; the variant always carries
        // a real inner state.
        self.inner.import_state(*inner);
    }

    fn live_tracks(&self) -> usize {
        self.inner.live_tracks()
    }

    fn mean_track_confidence(&self) -> Option<f64> {
        self.inner.mean_track_confidence()
    }

    fn policy_decision(&self) -> Option<PolicyDecision> {
        self.last_decision
    }

    fn policy_coast_streak(&self) -> usize {
        self.coast_streak
    }

    fn set_degraded(&mut self, on: bool) -> bool {
        self.degraded = on;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catdet::CaTDetSystem;
    use crate::stage::drive_frame;
    use crate::system::DetectionSystem;
    use catdet_data::kitti_like;

    fn boxed_catdet() -> Box<dyn StagedDetector> {
        Box::new(CaTDetSystem::catdet_a())
    }

    #[test]
    fn policy_names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(
            PolicyKind::from_name("Always-Detect"),
            Some(PolicyKind::AlwaysDetect)
        );
        assert_eq!(PolicyKind::from_name("nope"), None);
    }

    #[test]
    fn decision_codes_round_trip() {
        for d in [
            PolicyDecision::Detect,
            PolicyDecision::Coast,
            PolicyDecision::Skip,
        ] {
            assert_eq!(PolicyDecision::from_code(d.code()), Some(d));
        }
        assert_eq!(PolicyDecision::from_code(99), None);
    }

    #[test]
    fn always_detect_is_bit_identical_to_unwrapped() {
        let ds = kitti_like().sequences(1).frames_per_sequence(20).build();
        let mut bare = CaTDetSystem::catdet_a();
        let mut policed = PolicedPipeline::new(boxed_catdet(), PolicyConfig::always_detect());
        assert_eq!(
            StagedDetector::name(&policed),
            StagedDetector::name(&bare),
            "an always-detect policy must be invisible in reports"
        );
        for frame in ds.sequences()[0].frames() {
            assert_eq!(
                drive_frame(&mut policed, frame),
                drive_frame(&mut bare, frame)
            );
            assert_eq!(policed.policy_decision(), Some(PolicyDecision::Detect));
            assert_eq!(policed.live_tracks(), bare.live_tracks());
        }
    }

    #[test]
    fn fixed_stride_skips_between_detections() {
        let ds = kitti_like().sequences(1).frames_per_sequence(12).build();
        let mut policed = PolicedPipeline::new(boxed_catdet(), PolicyConfig::fixed_stride(3));
        for (i, frame) in ds.sequences()[0].frames().iter().enumerate() {
            let out = drive_frame(&mut policed, frame);
            if i % 3 == 0 {
                assert_eq!(policed.policy_decision(), Some(PolicyDecision::Detect));
            } else {
                assert_eq!(policed.policy_decision(), Some(PolicyDecision::Skip));
                assert!(out.detections.is_empty(), "skipped frames have no output");
                assert_eq!(out.ops.total(), 0.0, "skipped frames are free");
            }
        }
    }

    #[test]
    fn confidence_trigger_coasts_and_prices_the_validate_pass() {
        let ds = kitti_like().sequences(1).frames_per_sequence(40).build();
        let mut policed =
            PolicedPipeline::new(boxed_catdet(), PolicyConfig::confidence_trigger(1.0));
        let mut reference = CaTDetSystem::catdet_a();
        let (mut coasted, mut coast_macs, mut detect_macs) = (0usize, 0.0f64, 0.0f64);
        for frame in ds.sequences()[0].frames() {
            let ref_out = reference.process_frame(frame);
            let out = drive_frame(&mut policed, frame);
            match policed.policy_decision() {
                Some(PolicyDecision::Coast) => {
                    coasted += 1;
                    coast_macs += out.ops.total();
                    assert_eq!(
                        out.ops.proposal, 0.0,
                        "coasting never runs the proposal net"
                    );
                    assert!(out.ops.refinement > 0.0, "the validate pass is priced");
                    assert_eq!(out.ops.refinement, out.ops.refinement_from_tracker);
                }
                Some(PolicyDecision::Detect) => detect_macs += ref_out.ops.total().max(1.0),
                other => panic!("confidence trigger never skips, got {other:?}"),
            }
        }
        assert!(coasted >= 5, "trigger never coasted ({coasted})");
        let mean_coast = coast_macs / coasted as f64;
        let mean_detect = detect_macs / (40 - coasted) as f64;
        assert!(
            mean_coast < 0.5 * mean_detect,
            "coasting must be much cheaper: {mean_coast:.3e} vs {mean_detect:.3e}"
        );
    }

    #[test]
    fn confidence_trigger_never_exceeds_max_coast() {
        let ds = kitti_like().sequences(2).frames_per_sequence(40).build();
        let cfg = PolicyConfig::confidence_trigger(0.0).with_max_coast(3);
        let mut policed = PolicedPipeline::new(boxed_catdet(), cfg);
        let mut streak = 0usize;
        for seq in ds.sequences() {
            for frame in seq.frames() {
                drive_frame(&mut policed, frame);
                match policed.policy_decision() {
                    Some(PolicyDecision::Coast) => {
                        streak += 1;
                        assert!(streak <= 3, "coast streak exceeded max_coast");
                    }
                    _ => streak = 0,
                }
            }
        }
    }

    #[test]
    fn degradation_moves_one_rung_down_and_restores() {
        let mut policed = PolicedPipeline::new(boxed_catdet(), PolicyConfig::always_detect());
        assert_eq!(policed.effective_kind(), PolicyKind::AlwaysDetect);
        assert!(policed.set_degraded(true));
        assert_eq!(policed.effective_kind(), PolicyKind::ConfidenceTrigger);
        assert!(policed.set_degraded(false));
        assert_eq!(policed.effective_kind(), PolicyKind::AlwaysDetect);

        let mut stride = PolicedPipeline::new(boxed_catdet(), PolicyConfig::fixed_stride(2));
        stride.set_degraded(true);
        assert_eq!(stride.effective_kind(), PolicyKind::FixedStride);

        let mut trigger =
            PolicedPipeline::new(boxed_catdet(), PolicyConfig::confidence_trigger(1.0));
        trigger.set_degraded(true);
        assert_eq!(trigger.effective_kind(), PolicyKind::FixedStride);
    }

    #[test]
    fn policy_state_survives_export_import() {
        let ds = kitti_like().sequences(1).frames_per_sequence(30).build();
        let frames = ds.sequences()[0].frames();
        let mut live = PolicedPipeline::new(boxed_catdet(), PolicyConfig::confidence_trigger(1.0));
        for frame in &frames[..15] {
            drive_frame(&mut live, frame);
        }
        let state = live.export_state().expect("policied pipelines snapshot");
        assert!(matches!(state, PipelineState::Policied { .. }));
        let mut resumed =
            PolicedPipeline::new(boxed_catdet(), PolicyConfig::confidence_trigger(1.0));
        resumed.import_state(state);
        for frame in &frames[15..] {
            assert_eq!(
                drive_frame(&mut resumed, frame),
                drive_frame(&mut live, frame)
            );
            assert_eq!(resumed.policy_decision(), live.policy_decision());
        }
    }

    #[test]
    #[should_panic(expected = "stride must be at least 1")]
    fn zero_stride_is_rejected() {
        PolicedPipeline::new(boxed_catdet(), PolicyConfig::fixed_stride(0));
    }
}
