//! Outside-in stage tracing: a transparent [`StagedDetector`] wrapper that
//! times every call into the stage protocol, handed to the engine by a
//! bench-owned [`SystemFactory`].
//!
//! Spans are kept in memory per stream (inside the wrapper, which travels
//! with its stream through migrations) and moved into the shared
//! [`SpanSink`] when the engine drops the pipeline at the end of the run.

use crate::alloc::{self, Layer};
use catdet_core::{
    DetectionSystem, FrameOutput, PipelineState, PolicyDecision, ProposalWork, RefinementWork,
    StageStep, StagedDetector, SystemFactory,
};
use catdet_data::Frame;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: one clock for spans
/// and for the serving call around them.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A small per-process id for the calling thread.
fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ID: u32 = NEXT.fetch_add(1, Relaxed);
    }
    ID.with(|id| *id)
}

/// One timed call into the stage protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which protocol call.
    pub layer: Layer,
    /// Fleet-wide stream id.
    pub stream: usize,
    /// Thread that ran the call.
    pub thread: u32,
    /// Start, [`now_ns`] clock.
    pub start_ns: u64,
    /// End, [`now_ns`] clock.
    pub end_ns: u64,
}

/// What the wrappers of one serving call hand back.
#[derive(Debug, Default)]
pub struct Collected {
    /// Every span, grouped by stream.
    pub spans: Vec<Span>,
    /// Regions handed to the refinement network, summed over calls.
    pub refinement_regions: u64,
    /// Refinement coverage, summed over calls.
    pub refinement_coverage: f64,
}

/// Where wrappers deposit their spans when the engine drops them.
#[derive(Debug, Default)]
pub struct SpanSink(Mutex<Collected>);

impl SpanSink {
    /// Takes everything deposited so far.
    pub fn take(&self) -> Collected {
        std::mem::take(&mut *self.0.lock().expect("span sink poisoned"))
    }
}

/// A factory that wraps another factory's pipelines in [`StagedTracer`]s
/// for one stream.
pub struct TracingFactory {
    inner: Arc<dyn SystemFactory>,
    stream: usize,
    sink: Arc<SpanSink>,
}

impl TracingFactory {
    /// Wraps `inner` for stream `stream`, depositing into `sink`.
    pub fn new(inner: Arc<dyn SystemFactory>, stream: usize, sink: Arc<SpanSink>) -> Self {
        Self {
            inner,
            stream,
            sink,
        }
    }
}

impl SystemFactory for TracingFactory {
    fn build(&self) -> Box<dyn DetectionSystem> {
        self.inner.build()
    }

    fn build_staged(&self) -> Box<dyn StagedDetector> {
        Box::new(StagedTracer {
            inner: self.inner.build_staged(),
            stream: self.stream,
            spans: Vec::new(),
            regions: 0,
            coverage: 0.0,
            sink: Arc::clone(&self.sink),
        })
    }

    fn system_name(&self) -> String {
        self.inner.system_name()
    }
}

/// The transparent wrapper: forwards every protocol method unchanged and
/// records a span around each call that does work.
pub struct StagedTracer {
    inner: Box<dyn StagedDetector>,
    stream: usize,
    spans: Vec<Span>,
    regions: u64,
    coverage: f64,
    sink: Arc<SpanSink>,
}

impl StagedTracer {
    fn timed<R>(&mut self, layer: Layer, call: impl FnOnce(&mut dyn StagedDetector) -> R) -> R {
        let prev = alloc::set_layer(layer);
        let start_ns = now_ns();
        let out = call(&mut *self.inner);
        let end_ns = now_ns();
        alloc::set_layer(Layer::Trace);
        self.spans.push(Span {
            layer,
            stream: self.stream,
            thread: thread_id(),
            start_ns,
            end_ns,
        });
        alloc::set_layer(prev);
        out
    }
}

impl Drop for StagedTracer {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned sink only loses this stream's
        // spans, and the run's span count check reports it.
        if let Ok(mut sink) = self.sink.0.lock() {
            sink.spans.append(&mut self.spans);
            sink.refinement_regions += self.regions;
            sink.refinement_coverage += self.coverage;
        }
    }
}

impl StagedDetector for StagedTracer {
    fn name(&self) -> String {
        StagedDetector::name(&*self.inner)
    }

    fn reset(&mut self) {
        StagedDetector::reset(&mut *self.inner)
    }

    fn begin_frame(&mut self, frame: &Frame) {
        self.timed(Layer::Begin, |s| s.begin_frame(frame))
    }

    fn step(&mut self) -> StageStep {
        self.timed(Layer::Step, |s| s.step())
    }

    fn complete_proposal(&mut self, work: ProposalWork) -> ProposalWork {
        self.timed(Layer::Proposal, |s| s.complete_proposal(work))
    }

    fn complete_refinement(&mut self, work: RefinementWork) -> RefinementWork {
        let done = self.timed(Layer::Refinement, |s| s.complete_refinement(work));
        self.regions += done.num_regions as u64;
        self.coverage += done.coverage;
        done
    }

    fn export_state(&self) -> Option<PipelineState> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: PipelineState) {
        self.inner.import_state(state)
    }

    fn live_tracks(&self) -> usize {
        self.inner.live_tracks()
    }

    fn coast_frame(&mut self, frame: &Frame) -> Option<FrameOutput> {
        self.timed(Layer::Coast, |s| s.coast_frame(frame))
    }

    fn mean_track_confidence(&self) -> Option<f64> {
        self.inner.mean_track_confidence()
    }

    fn policy_decision(&self) -> Option<PolicyDecision> {
        self.inner.policy_decision()
    }

    fn policy_coast_streak(&self) -> usize {
        self.inner.policy_coast_streak()
    }

    fn set_degraded(&mut self, on: bool) -> bool {
        self.inner.set_degraded(on)
    }
}

/// Total wall time covered by at least one span, clipped to
/// `[from_ns, to_ns]` — the union across threads.
pub fn union_ns(spans: &[Span], from_ns: u64, to_ns: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_ns.max(from_ns), s.end_ns.min(to_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdet_core::{drive_frame, PolicedPipeline, PolicyConfig, PresetFactory, SystemKind};
    use catdet_data::kitti_like;

    #[test]
    fn wrapper_forwards_state_and_policy_hooks() {
        let preset: Arc<dyn SystemFactory> = Arc::new(PresetFactory::kitti(SystemKind::CatdetA));
        let sink = Arc::new(SpanSink::default());
        let traced = TracingFactory::new(Arc::clone(&preset), 4, Arc::clone(&sink));
        let policy = PolicyConfig::confidence_trigger(1.0);
        let ds = kitti_like()
            .sequences(1)
            .frames_per_sequence(30)
            .seed(9)
            .build();
        let frames = ds.sequences()[0].frames();
        let mut plain = PolicedPipeline::new(preset.build_staged(), policy);
        let mut wrapped = PolicedPipeline::new(traced.build_staged(), policy);
        for frame in &frames[..15] {
            assert_eq!(
                drive_frame(&mut plain, frame),
                drive_frame(&mut wrapped, frame)
            );
            assert_eq!(plain.policy_decision(), wrapped.policy_decision());
            assert_eq!(plain.policy_coast_streak(), wrapped.policy_coast_streak());
            assert_eq!(plain.live_tracks(), wrapped.live_tracks());
            assert_eq!(
                plain.mean_track_confidence(),
                wrapped.mean_track_confidence()
            );
        }
        // A snapshot taken through the wrapper resumes bit-identically in
        // a fresh wrapped pipeline, as migration and replay need.
        let state = wrapped.export_state().expect("preset pipelines snapshot");
        let mut resumed = PolicedPipeline::new(traced.build_staged(), policy);
        resumed.import_state(state);
        assert_eq!(plain.set_degraded(true), resumed.set_degraded(true));
        for frame in &frames[15..] {
            assert_eq!(
                drive_frame(&mut plain, frame),
                drive_frame(&mut resumed, frame)
            );
            assert_eq!(plain.policy_decision(), resumed.policy_decision());
        }
        drop((wrapped, resumed));
        let spans = sink.take().spans;
        let count = |layer| spans.iter().filter(|s| s.layer == layer).count();
        assert!(count(Layer::Proposal) > 0 && count(Layer::Coast) > 0);
        assert_eq!(count(Layer::Proposal), count(Layer::Refinement));
        assert!(spans
            .iter()
            .all(|s| s.stream == 4 && s.start_ns <= s.end_ns));
    }

    fn span(start_ns: u64, end_ns: u64, thread: u32) -> Span {
        Span {
            layer: Layer::Proposal,
            stream: 0,
            thread,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_merges_overlaps_across_threads_and_clips() {
        let spans = [
            span(10, 20, 0),
            span(15, 30, 1),
            span(40, 50, 0),
            span(5, 8, 1),
        ];
        assert_eq!(union_ns(&spans, 0, 100), 20 + 10 + 3);
        assert_eq!(union_ns(&spans, 12, 45), 18 + 5);
        assert_eq!(union_ns(&[], 0, 100), 0);
    }
}
