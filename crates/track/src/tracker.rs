//! The tracker: per-class association, state update, prediction output.
//!
//! Association runs per class on a flat [`CostMatrix`] through a reusable
//! [`AssignmentSolver`]; candidate (track, detection) pairs are gated
//! through a [`GridIndex`] so IoU work scales with true overlaps, not
//! tracks × detections. The buffers live only within one update, so they
//! belong to the calling thread, not to a tracker: every tracker a thread
//! updates reuses one set, and steady-state association allocates
//! nothing. The historical dense path is kept behind
//! [`AssocBackend::Naive`](crate::config::AssocBackend) and a property
//! test pins the two bit-for-bit.

use crate::config::{AssocBackend, TrackerConfig};
use crate::motion::MotionState;
use catdet_geom::{hungarian_with_threshold, AssignmentSolver, Box2, CostMatrix, GridIndex};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hash::Hash;

/// A detection handed to the tracker (already thresholded by the system's
/// T-thresh, or filtered here via
/// [`TrackerConfig::input_score_threshold`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackDetection<C> {
    /// Bounding box in image coordinates.
    pub bbox: Box2,
    /// Detector confidence.
    pub score: f32,
    /// Object class.
    pub class: C,
}

/// A predicted next-frame region of interest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackPrediction<C> {
    /// Track identity.
    pub track_id: u64,
    /// Predicted bounding box.
    pub bbox: Box2,
    /// Object class.
    pub class: C,
    /// Current track confidence (matches minus misses, capped).
    pub confidence: i32,
}

/// One tracked object.
#[derive(Debug, Clone, PartialEq)]
pub struct Track<C> {
    /// Stable track identity.
    pub id: u64,
    /// Object class.
    pub class: C,
    /// Adaptive confidence counter.
    pub confidence: i32,
    /// Frames since creation.
    pub age: usize,
    /// Total matched detections.
    pub hits: usize,
    /// Consecutive frames without a match.
    pub time_since_update: usize,
    pub(crate) motion: MotionState,
}

impl<C: Copy> Track<C> {
    /// The track's prediction for the next frame.
    pub fn predicted_box(&self) -> Box2 {
        self.motion.predicted_box()
    }

    /// The track's current box estimate.
    pub fn current_box(&self) -> Box2 {
        self.motion.current_box()
    }
}

/// Cost of a (track, detection) pair with no overlap: `-f64::from(0.0f32)`
/// exactly, so grid-gated matrices are bit-identical to dense ones.
const NO_OVERLAP_COST: f64 = -0.0;

/// Below this many pairwise entries a dense fill beats building a grid
/// (both fills produce identical matrices).
const GRID_GATE_MIN_PAIRS: usize = 64;

/// Association buffers of one update; see the module docs.
#[derive(Debug, Default)]
struct AssocScratch {
    /// Indices into the frame's detections passing the admission filters.
    admitted: Vec<usize>,
    /// Positions into `admitted`, sorted by (class, position): the same
    /// per-class grouping the historical `BTreeMap` produced.
    by_class: Vec<usize>,
    /// Tracks of the class under association, in track order.
    track_idx: Vec<usize>,
    /// `admitted` positions of the class under association, ascending.
    det_idx: Vec<usize>,
    /// Predicted box per entry of `track_idx`.
    pred: Vec<Box2>,
    cost: CostMatrix,
    solver: AssignmentSolver,
    grid: GridIndex,
    /// `(track index, admitted position)` matches across all classes.
    assignments: Vec<(usize, usize)>,
    matched_track: Vec<bool>,
    matched_det: Vec<bool>,
    // Component-decomposition buffers (dense-scene association): the
    // positive-IoU bipartite graph, its connected components, and the
    // per-component sub-problems.
    /// Per-row overlap edges `(col, cost)`, grouped by row via `edge_start`.
    edges: Vec<(u32, f64)>,
    edge_start: Vec<u32>,
    /// Per-col last-seen row marker for edge dedup.
    stamp: Vec<usize>,
    /// Union-find parents over `rows + cols` nodes.
    uf: Vec<u32>,
    /// Root → dense component id (sentinel `usize::MAX`).
    root_comp: Vec<usize>,
    /// Component id per row / per col.
    row_comp: Vec<usize>,
    col_comp: Vec<usize>,
    /// Counting-sorted member lists per component.
    comp_row_start: Vec<u32>,
    comp_rows: Vec<u32>,
    comp_col_start: Vec<u32>,
    comp_cols: Vec<u32>,
    /// Fill cursors for the counting sorts.
    cursor: Vec<u32>,
    /// Global col → local col index within the current component.
    col_local: Vec<usize>,
    /// Sub-problem cost matrix.
    sub: CostMatrix,
}

thread_local! {
    /// The calling thread's [`AssocScratch`], which an update takes and
    /// puts back. An update clears or rebuilds each buffer before reading
    /// it, so no result depends on an earlier update.
    static ASSOC_SCRATCH: Cell<AssocScratch> = Cell::new(AssocScratch::default());
}

fn uf_find(uf: &mut [u32], mut x: u32) -> u32 {
    while uf[x as usize] != x {
        let parent = uf[x as usize];
        uf[x as usize] = uf[parent as usize]; // path halving
        x = uf[x as usize];
    }
    x
}

/// Solves one class's association on the scratch's `track_idx`/`det_idx`/
/// `pred` state, pushing surviving `(track, admitted-position)` matches
/// into `s.assignments` and the matched flags.
///
/// With `decompose` unset this is the historical semantics verbatim: one
/// dense negative-IoU matrix, one Hungarian solve, pairs at or below the
/// IoU gate severed. With `decompose` set, the solve runs per connected
/// component of the *positive-IoU* bipartite graph instead: pairs across
/// components cost exactly zero, zero-cost pairs never survive a
/// non-negative gate, and the optimal matching restricted to the positive
/// edges decomposes over components — so the surviving set is identical
/// whenever that minimum-cost matching is unique. Exact floating-point
/// ties between alternative optima are the only divergence point: there
/// the two paths may legitimately pick different equal-cost pairings
/// (including surviving ones), just as any reordering of the dense solve
/// would. Cost drops from one O(n·m²) solve to tiny per-cluster solves.
fn associate_class<C: Copy>(
    s: &mut AssocScratch,
    detections: &[TrackDetection<C>],
    gate: f64,
    decompose: bool,
) {
    let rows = s.track_idx.len();
    let cols = s.det_idx.len();
    let admitted = &s.admitted;
    let det_idx = &s.det_idx;
    let det_box = |k: usize| detections[admitted[det_idx[k]]].bbox;

    if !decompose {
        // Dense cost matrix of negative IoUs between predictions and
        // boxes; sever pairs with IoU <= gate (cost strictly below -gate).
        s.cost.reset(rows, cols, NO_OVERLAP_COST);
        for (r, pred) in s.pred.iter().enumerate() {
            for c in 0..cols {
                s.cost.set(r, c, -f64::from(pred.iou(&det_box(c))));
            }
        }
        s.solver.solve_with_threshold(&s.cost, gate);
        for (r, c) in s.solver.pairs() {
            let ti = s.track_idx[r];
            let di = s.det_idx[c];
            s.assignments.push((ti, di));
            s.matched_track[ti] = true;
            s.matched_det[di] = true;
        }
        return;
    }

    // 1. Edge discovery through the grid: per row, the strictly
    //    overlapping detections (IoU > 0), deduplicated via a stamp.
    s.grid.build(cols, det_box);
    s.edges.clear();
    s.edge_start.clear();
    s.edge_start.push(0);
    s.stamp.clear();
    s.stamp.resize(cols, usize::MAX);
    for (r, pred) in s.pred.iter().enumerate() {
        let (stamp, edges) = (&mut s.stamp, &mut s.edges);
        s.grid.for_each_candidate(pred, |c| {
            if stamp[c] != r {
                stamp[c] = r;
                let iou = pred.iou(&det_box(c));
                if iou > 0.0 {
                    edges.push((c as u32, -f64::from(iou)));
                }
            }
        });
        s.edge_start.push(s.edges.len() as u32);
    }

    // 2. Connected components over rows + cols.
    s.uf.clear();
    s.uf.extend(0..(rows + cols) as u32);
    for r in 0..rows {
        let (lo, hi) = (s.edge_start[r] as usize, s.edge_start[r + 1] as usize);
        for i in lo..hi {
            let c = s.edges[i].0;
            let a = uf_find(&mut s.uf, r as u32);
            let b = uf_find(&mut s.uf, rows as u32 + c);
            if a != b {
                s.uf[a as usize] = b;
            }
        }
    }
    s.root_comp.clear();
    s.root_comp.resize(rows + cols, usize::MAX);
    s.row_comp.clear();
    s.col_comp.clear();
    let mut n_comp = 0usize;
    for r in 0..rows {
        let root = uf_find(&mut s.uf, r as u32) as usize;
        if s.root_comp[root] == usize::MAX {
            s.root_comp[root] = n_comp;
            n_comp += 1;
        }
        s.row_comp.push(s.root_comp[root]);
    }
    for c in 0..cols {
        let root = uf_find(&mut s.uf, (rows + c) as u32) as usize;
        if s.root_comp[root] == usize::MAX {
            s.root_comp[root] = n_comp;
            n_comp += 1;
        }
        s.col_comp.push(s.root_comp[root]);
    }

    // 3. Counting-sort rows and cols into per-component member lists.
    s.comp_row_start.clear();
    s.comp_row_start.resize(n_comp + 1, 0);
    for &id in &s.row_comp {
        s.comp_row_start[id + 1] += 1;
    }
    for i in 0..n_comp {
        s.comp_row_start[i + 1] += s.comp_row_start[i];
    }
    s.comp_rows.clear();
    s.comp_rows.resize(rows, 0);
    s.cursor.clear();
    s.cursor.extend_from_slice(&s.comp_row_start[..n_comp]);
    for (r, &id) in s.row_comp.iter().enumerate() {
        s.comp_rows[s.cursor[id] as usize] = r as u32;
        s.cursor[id] += 1;
    }
    s.comp_col_start.clear();
    s.comp_col_start.resize(n_comp + 1, 0);
    for &id in &s.col_comp {
        s.comp_col_start[id + 1] += 1;
    }
    for i in 0..n_comp {
        s.comp_col_start[i + 1] += s.comp_col_start[i];
    }
    s.comp_cols.clear();
    s.comp_cols.resize(cols, 0);
    s.cursor.clear();
    s.cursor.extend_from_slice(&s.comp_col_start[..n_comp]);
    for (c, &id) in s.col_comp.iter().enumerate() {
        s.comp_cols[s.cursor[id] as usize] = c as u32;
        s.cursor[id] += 1;
    }

    // 4. Solve each component's (tiny) dense sub-problem with the exact
    //    severing semantics.
    s.col_local.clear();
    s.col_local.resize(cols, 0);
    for comp in 0..n_comp {
        let (r_lo, r_hi) = (
            s.comp_row_start[comp] as usize,
            s.comp_row_start[comp + 1] as usize,
        );
        let (c_lo, c_hi) = (
            s.comp_col_start[comp] as usize,
            s.comp_col_start[comp + 1] as usize,
        );
        let (n_r, n_c) = (r_hi - r_lo, c_hi - c_lo);
        if n_r == 0 || n_c == 0 {
            continue; // isolated track or detection: nothing can survive
        }
        for (local, &c) in s.comp_cols[c_lo..c_hi].iter().enumerate() {
            s.col_local[c as usize] = local;
        }
        s.sub.reset(n_r, n_c, NO_OVERLAP_COST);
        for (local_r, &gr) in s.comp_rows[r_lo..r_hi].iter().enumerate() {
            let (lo, hi) = (
                s.edge_start[gr as usize] as usize,
                s.edge_start[gr as usize + 1] as usize,
            );
            for i in lo..hi {
                let (c, cost) = s.edges[i];
                s.sub.set(local_r, s.col_local[c as usize], cost);
            }
        }
        s.solver.solve_with_threshold(&s.sub, gate);
        for (lr, lc) in s.solver.pairs() {
            let gr = s.comp_rows[r_lo + lr] as usize;
            let gc = s.comp_cols[c_lo + lc] as usize;
            let ti = s.track_idx[gr];
            let di = s.det_idx[gc];
            s.assignments.push((ti, di));
            s.matched_track[ti] = true;
            s.matched_det[di] = true;
        }
    }
}

/// The complete portable state of a [`Tracker`], as produced by
/// [`Tracker::export_state`] and consumed by [`Tracker::import_state`].
///
/// This is everything a tracker carries between frames — the live tracks
/// (identity, confidence counters, full motion state) and the id
/// allocator. A tracker holds no scratch: its association buffers belong
/// to the calling thread and carry nothing from one update to the next,
/// so a migrated tracker continues **bit-identically** to one that never
/// moved.
///
/// The in-process sharded fleet migrates a stream by relocating its whole
/// boxed pipeline (this state travels inside it untouched); this explicit
/// export/import form exists for the cross-process/cross-host sharding
/// step, where tracker state must leave the address space — the
/// bit-exact-continuation tests pin exactly the property that wire
/// transfer will rely on. All fields are plain data, generic over the
/// class label.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerState<C> {
    /// Live tracks, in the tracker's iteration order (order matters:
    /// association and output filters walk tracks in this order).
    pub tracks: Vec<Track<C>>,
    /// Next track id to allocate; preserved so ids stay unique across a
    /// migration exactly as they do across [`Tracker::reset`].
    pub next_id: u64,
}

/// Multi-object tracker generic over the class label type.
#[derive(Debug, Clone)]
pub struct Tracker<C> {
    cfg: TrackerConfig,
    tracks: Vec<Track<C>>,
    next_id: u64,
}

impl<C: Copy + Eq + Ord + Hash + Debug> Tracker<C> {
    /// Creates an empty tracker.
    pub fn new(cfg: TrackerConfig) -> Self {
        Self {
            cfg,
            tracks: Vec::new(),
            next_id: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrackerConfig {
        &self.cfg
    }

    /// Live tracks (including coasting ones).
    pub fn tracks(&self) -> &[Track<C>] {
        &self.tracks
    }

    /// Discards all state (sequence boundary).
    pub fn reset(&mut self) {
        self.tracks.clear();
        // Track ids keep increasing across sequences so they stay unique.
    }

    /// Exports the tracker's complete cross-frame state for migration.
    ///
    /// The returned [`TrackerState`] round-trips bit-exactly: importing it
    /// into any tracker with the same configuration (fresh or previously
    /// used) yields identical behaviour on every subsequent frame — the
    /// property the serving fleet's live stream migration relies on.
    pub fn export_state(&self) -> TrackerState<C>
    where
        C: Clone,
    {
        TrackerState {
            tracks: self.tracks.clone(),
            next_id: self.next_id,
        }
    }

    /// Replaces the tracker's cross-frame state with an exported snapshot
    /// (the receiving half of a migration). The configuration is **not**
    /// part of the state — caller must ensure both sides run the same
    /// [`TrackerConfig`], as a sharded fleet building every pipeline from
    /// one factory does by construction.
    pub fn import_state(&mut self, state: TrackerState<C>) {
        self.tracks = state.tracks;
        self.next_id = state.next_id;
    }

    /// Processes one frame of detections: associates per class, updates
    /// matched tracks, coasts or discards missed ones, and creates tracks
    /// for emerging objects.
    ///
    /// Detections below the configured input score threshold are ignored.
    pub fn update(&mut self, detections: &[TrackDetection<C>]) {
        match self.cfg.assoc {
            AssocBackend::GridGated => self.update_gated(detections),
            AssocBackend::Naive => self.update_naive(detections),
        }
    }

    /// Grid-gated association on the thread's reusable buffers:
    /// bit-for-bit the behaviour of [`update_naive`](Self::update_naive),
    /// allocation-free in steady state.
    fn update_gated(&mut self, detections: &[TrackDetection<C>]) {
        let mut s = ASSOC_SCRATCH.take();

        s.admitted.clear();
        s.admitted
            .extend(detections.iter().enumerate().filter_map(|(i, d)| {
                (d.score >= self.cfg.input_score_threshold && d.bbox.is_valid()).then_some(i)
            }));

        // Group admitted positions per class; sorting by (class, position)
        // reproduces the historical BTreeMap order exactly: classes
        // ascending, positions ascending within a class.
        s.by_class.clear();
        s.by_class.extend(0..s.admitted.len());
        let admitted = &s.admitted;
        s.by_class.sort_unstable_by(|&a, &b| {
            detections[admitted[a]]
                .class
                .cmp(&detections[admitted[b]].class)
                .then(a.cmp(&b))
        });

        s.matched_track.clear();
        s.matched_track.resize(self.tracks.len(), false);
        s.matched_det.clear();
        s.matched_det.resize(s.admitted.len(), false);
        s.assignments.clear();

        let gate = -f64::from(self.cfg.iou_gate) - 1e-9;
        let mut run = 0;
        while run < s.by_class.len() {
            let class = detections[s.admitted[s.by_class[run]]].class;
            let mut end = run + 1;
            while end < s.by_class.len() && detections[s.admitted[s.by_class[end]]].class == class {
                end += 1;
            }
            s.det_idx.clear();
            s.det_idx.extend_from_slice(&s.by_class[run..end]);
            run = end;

            s.track_idx.clear();
            s.track_idx.extend(
                self.tracks
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.class == class)
                    .map(|(i, _)| i),
            );
            if s.track_idx.is_empty() || s.det_idx.is_empty() {
                continue;
            }

            s.pred.clear();
            s.pred.extend(
                s.track_idx
                    .iter()
                    .map(|&ti| self.tracks[ti].predicted_box()),
            );

            // Cost matrix of negative IoUs between predictions and boxes.
            // Pairs that do not strictly overlap cost exactly
            // `NO_OVERLAP_COST` either way, so filling only grid
            // candidates yields the dense matrix bit for bit.
            // Zero-cost pairs can only survive severing under a negative
            // gate; component decomposition relies on them never surviving.
            let decompose = s.track_idx.len() * s.det_idx.len() >= GRID_GATE_MIN_PAIRS
                && self.cfg.iou_gate >= 0.0;
            associate_class(&mut s, detections, gate, decompose);
        }

        // Matched tracks: observe the new box, bump confidence.
        for &(ti, di) in &s.assignments {
            let t = &mut self.tracks[ti];
            t.motion.observe(&detections[s.admitted[di]].bbox);
            t.confidence = (t.confidence + 1).min(self.cfg.max_confidence);
            t.hits += 1;
            t.time_since_update = 0;
        }

        // Missed tracks: coast with constant motion, decay confidence.
        for (ti, t) in self.tracks.iter_mut().enumerate() {
            t.age += 1;
            if !s.matched_track[ti] {
                t.motion.coast();
                t.confidence -= 1;
                t.time_since_update += 1;
            }
        }
        // "Once the confidence value goes below zero, the object is
        // discarded."
        self.tracks.retain(|t| t.confidence >= 0);

        // Emerging objects: new tracks with zero initial motion.
        for (pos, &det_i) in s.admitted.iter().enumerate() {
            if !s.matched_det[pos] {
                let d = &detections[det_i];
                self.tracks.push(Track {
                    id: self.next_id,
                    class: d.class,
                    confidence: self.cfg.initial_confidence,
                    age: 1,
                    hits: 1,
                    time_since_update: 0,
                    motion: MotionState::new(self.cfg.motion, &d.bbox),
                });
                self.next_id += 1;
            }
        }

        ASSOC_SCRATCH.set(s);
    }

    /// The historical dense association sweep, verbatim: the reference
    /// semantics for [`update_gated`](Self::update_gated) and the
    /// perf-snapshot baseline.
    fn update_naive(&mut self, detections: &[TrackDetection<C>]) {
        let admitted: Vec<&TrackDetection<C>> = detections
            .iter()
            .filter(|d| d.score >= self.cfg.input_score_threshold && d.bbox.is_valid())
            .collect();

        // Group detection indices per class ("this process is performed one
        // time per class", §4.1). BTreeMap keeps iteration deterministic.
        let mut per_class: BTreeMap<C, Vec<usize>> = BTreeMap::new();
        for (i, d) in admitted.iter().enumerate() {
            per_class.entry(d.class).or_default().push(i);
        }

        let mut matched_track = vec![false; self.tracks.len()];
        let mut matched_det = vec![false; admitted.len()];
        let mut assignments: Vec<(usize, usize)> = Vec::new(); // (track_idx, det_idx)

        for (class, det_indices) in &per_class {
            let track_indices: Vec<usize> = self
                .tracks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.class == *class)
                .map(|(i, _)| i)
                .collect();
            if track_indices.is_empty() || det_indices.is_empty() {
                continue;
            }
            // Cost matrix of negative IoUs between predictions and boxes.
            let costs: Vec<Vec<f64>> = track_indices
                .iter()
                .map(|&ti| {
                    let pred = self.tracks[ti].predicted_box();
                    det_indices
                        .iter()
                        .map(|&di| -f64::from(pred.iou(&admitted[di].bbox)))
                        .collect()
                })
                .collect();
            // Sever pairs with IoU <= gate: cost must be strictly below -gate.
            let gate = -f64::from(self.cfg.iou_gate) - 1e-9;
            let assignment = hungarian_with_threshold(&costs, gate);
            for (r, c) in assignment.pairs() {
                let ti = track_indices[r];
                let di = det_indices[c];
                assignments.push((ti, di));
                matched_track[ti] = true;
                matched_det[di] = true;
            }
        }

        // Matched tracks: observe the new box, bump confidence.
        for (ti, di) in assignments {
            let t = &mut self.tracks[ti];
            t.motion.observe(&admitted[di].bbox);
            t.confidence = (t.confidence + 1).min(self.cfg.max_confidence);
            t.hits += 1;
            t.time_since_update = 0;
        }

        // Missed tracks: coast with constant motion, decay confidence.
        for (ti, t) in self.tracks.iter_mut().enumerate() {
            t.age += 1;
            if !matched_track[ti] {
                t.motion.coast();
                t.confidence -= 1;
                t.time_since_update += 1;
            }
        }
        // "Once the confidence value goes below zero, the object is
        // discarded."
        self.tracks.retain(|t| t.confidence >= 0);

        // Emerging objects: new tracks with zero initial motion.
        for (di, d) in admitted.iter().enumerate() {
            if !matched_det[di] {
                self.tracks.push(Track {
                    id: self.next_id,
                    class: d.class,
                    confidence: self.cfg.initial_confidence,
                    age: 1,
                    hits: 1,
                    time_since_update: 0,
                    motion: MotionState::new(self.cfg.motion, &d.bbox),
                });
                self.next_id += 1;
            }
        }
    }

    /// Applies the paper's output filters (minimum width, boundary-chop
    /// suppression) and calls `f` for every surviving track with its
    /// predicted box.
    fn for_each_prediction<F: FnMut(&Track<C>, Box2)>(
        &self,
        frame_width: f32,
        frame_height: f32,
        mut f: F,
    ) {
        for t in &self.tracks {
            let bbox = t.predicted_box();
            if bbox.width() < self.cfg.min_width {
                continue;
            }
            let visible = bbox.clip(frame_width, frame_height);
            if !visible.is_valid() || visible.area() / bbox.area() < self.cfg.min_visible_fraction {
                continue;
            }
            f(t, bbox);
        }
    }

    /// Predicted next-frame regions of interest, with the paper's output
    /// filters applied: minimum width and boundary-chop suppression.
    pub fn predictions(&self, frame_width: f32, frame_height: f32) -> Vec<TrackPrediction<C>> {
        let mut out = Vec::new();
        self.predictions_into(frame_width, frame_height, &mut out);
        out
    }

    /// Appends the [`predictions`](Self::predictions) to `out` — the
    /// allocation-free path a coasted frame feeds from.
    pub fn predictions_into(
        &self,
        frame_width: f32,
        frame_height: f32,
        out: &mut Vec<TrackPrediction<C>>,
    ) {
        self.for_each_prediction(frame_width, frame_height, |t, bbox| {
            out.push(TrackPrediction {
                track_id: t.id,
                bbox,
                class: t.class,
                confidence: t.confidence,
            })
        });
    }

    /// Appends the predicted regions (the boxes of [`predictions`](Self::predictions), same
    /// order and filters) to `out` — the allocation-free path the CaTDet
    /// proposal stage feeds from.
    pub fn predicted_regions_into(&self, frame_width: f32, frame_height: f32, out: &mut Vec<Box2>) {
        self.for_each_prediction(frame_width, frame_height, |_, bbox| out.push(bbox));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MotionModelKind;
    use proptest::prelude::*;

    const W: f32 = 1242.0;
    const H: f32 = 375.0;

    fn det(x: f32, y: f32, w: f32, h: f32, class: u32) -> TrackDetection<u32> {
        TrackDetection {
            bbox: Box2::from_xywh(x, y, w, h),
            score: 0.9,
            class,
        }
    }

    fn tracker() -> Tracker<u32> {
        Tracker::new(TrackerConfig::paper())
    }

    #[test]
    fn empty_tracker_predicts_nothing() {
        let t = tracker();
        assert!(t.predictions(W, H).is_empty());
        assert!(t.tracks().is_empty());
    }

    #[test]
    fn detection_creates_track_with_identity() {
        let mut t = tracker();
        t.update(&[det(100.0, 100.0, 40.0, 30.0, 0)]);
        assert_eq!(t.tracks().len(), 1);
        assert_eq!(t.tracks()[0].id, 0);
        assert_eq!(t.predictions(W, H).len(), 1);
    }

    #[test]
    fn moving_object_keeps_its_id() {
        let mut t = tracker();
        for i in 0..10 {
            t.update(&[det(100.0 + 6.0 * i as f32, 100.0, 40.0, 30.0, 0)]);
        }
        assert_eq!(t.tracks().len(), 1);
        assert_eq!(t.tracks()[0].id, 0);
        assert_eq!(t.tracks()[0].hits, 10);
    }

    #[test]
    fn prediction_leads_the_motion() {
        let mut t = tracker();
        for i in 0..10 {
            t.update(&[det(100.0 + 8.0 * i as f32, 100.0, 40.0, 30.0, 0)]);
        }
        let pred = &t.predictions(W, H)[0];
        let current = t.tracks()[0].current_box();
        assert!(pred.bbox.center().0 > current.center().0 + 4.0);
    }

    #[test]
    fn low_scoring_detections_are_ignored() {
        let mut t = tracker();
        t.update(&[TrackDetection {
            bbox: Box2::from_xywh(10.0, 10.0, 30.0, 30.0),
            score: 0.1,
            class: 0u32,
        }]);
        assert!(t.tracks().is_empty());
    }

    #[test]
    fn classes_never_mix() {
        let mut t = tracker();
        t.update(&[det(100.0, 100.0, 40.0, 30.0, 0)]);
        // Same place, different class: must open a second track, not match.
        t.update(&[det(100.0, 100.0, 40.0, 30.0, 1)]);
        assert_eq!(t.tracks().len(), 2);
        let classes: Vec<u32> = t.tracks().iter().map(|tr| tr.class).collect();
        assert!(classes.contains(&0) && classes.contains(&1));
    }

    #[test]
    fn occlusion_gap_is_bridged_by_coasting() {
        let mut t = tracker();
        // Build confidence over several frames.
        for i in 0..5 {
            t.update(&[det(100.0 + 5.0 * i as f32, 100.0, 40.0, 30.0, 0)]);
        }
        let id = t.tracks()[0].id;
        // Two missed frames (occlusion): track must survive and keep
        // predicting.
        t.update(&[]);
        t.update(&[]);
        assert_eq!(t.tracks().len(), 1);
        assert!(!t.predictions(W, H).is_empty());
        // Reappears where the constant-motion extrapolation expects it.
        t.update(&[det(135.0, 100.0, 40.0, 30.0, 0)]);
        assert_eq!(t.tracks()[0].id, id, "track identity must survive the gap");
    }

    #[test]
    fn track_dies_after_enough_misses() {
        let mut t = tracker();
        t.update(&[det(100.0, 100.0, 40.0, 30.0, 0)]);
        // initial confidence 1: survives misses until below zero.
        t.update(&[]);
        t.update(&[]);
        assert!(t.tracks().is_empty());
    }

    #[test]
    fn confidence_is_capped() {
        let mut t = tracker();
        for i in 0..20 {
            t.update(&[det(100.0 + 2.0 * i as f32, 100.0, 40.0, 30.0, 0)]);
        }
        let cfg = TrackerConfig::paper();
        assert_eq!(t.tracks()[0].confidence, cfg.max_confidence);
        // Cap bounds survival: max_confidence+1 misses kill the track.
        for _ in 0..(cfg.max_confidence + 1) {
            t.update(&[]);
        }
        assert!(t.tracks().is_empty());
    }

    #[test]
    fn narrow_predictions_are_suppressed() {
        let mut t = tracker();
        t.update(&[det(100.0, 100.0, 6.0, 20.0, 0)]); // width < 10
        assert_eq!(t.tracks().len(), 1);
        assert!(t.predictions(W, H).is_empty());
    }

    #[test]
    fn boundary_chopped_predictions_are_suppressed() {
        let mut t = tracker();
        // Mostly outside the left edge.
        t.update(&[TrackDetection {
            bbox: Box2::new(-80.0, 100.0, 20.0, 160.0),
            score: 0.9,
            class: 0u32,
        }]);
        assert!(t.predictions(W, H).is_empty());
    }

    #[test]
    fn two_crossing_objects_swap_free() {
        let mut t = tracker();
        // Two objects approaching each other horizontally.
        for i in 0..8 {
            let x1 = 100.0 + 10.0 * i as f32;
            let x2 = 300.0 - 10.0 * i as f32;
            t.update(&[det(x1, 100.0, 40.0, 30.0, 0), det(x2, 100.0, 40.0, 30.0, 0)]);
        }
        assert_eq!(t.tracks().len(), 2);
        let ids: Vec<u64> = t.tracks().iter().map(|tr| tr.id).collect();
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn iou_gate_blocks_distant_matches() {
        let mut t = tracker();
        t.update(&[det(100.0, 100.0, 40.0, 30.0, 0)]);
        // Far away: IoU = 0, gate β=0 requires IoU > 0 → new track.
        t.update(&[det(600.0, 100.0, 40.0, 30.0, 0)]);
        assert_eq!(t.tracks().len(), 2);
    }

    proptest! {
        /// Random clutter, random classes, many frames: the grid-gated
        /// backend is bit-for-bit the historical dense sweep — track ids,
        /// confidences, motion state, everything.
        #[test]
        fn prop_gated_tracker_equals_naive_tracker(
            frames in proptest::collection::vec(
                proptest::collection::vec(
                    (0.0f32..1200.0, 0.0f32..350.0, 5.0f32..80.0, 5.0f32..60.0,
                     0.3f32..1.0, 0u32..3),
                    0..30),
                1..12),
        ) {
            let mut gated = tracker();
            let mut naive: Tracker<u32> =
                Tracker::new(TrackerConfig::paper().with_naive_association());
            for dets in &frames {
                let dets: Vec<TrackDetection<u32>> = dets
                    .iter()
                    .map(|&(x, y, w, h, score, class)| TrackDetection {
                        bbox: Box2::from_xywh(x, y, w, h),
                        score,
                        class,
                    })
                    .collect();
                gated.update(&dets);
                naive.update(&dets);
                prop_assert_eq!(gated.tracks(), naive.tracks());
            }
        }
    }

    #[test]
    fn reset_clears_tracks_but_keeps_ids_unique() {
        let mut t = tracker();
        t.update(&[det(100.0, 100.0, 40.0, 30.0, 0)]);
        let first_id = t.tracks()[0].id;
        t.reset();
        assert!(t.tracks().is_empty());
        t.update(&[det(100.0, 100.0, 40.0, 30.0, 0)]);
        assert_ne!(t.tracks()[0].id, first_id);
    }

    #[test]
    fn static_motion_model_predicts_in_place() {
        let mut t: Tracker<u32> =
            Tracker::new(TrackerConfig::paper().with_motion(MotionModelKind::Static));
        for i in 0..5 {
            t.update(&[det(100.0 + 10.0 * i as f32, 100.0, 40.0, 30.0, 0)]);
        }
        let pred = &t.predictions(W, H)[0];
        let current = t.tracks()[0].current_box();
        assert_eq!(pred.bbox, current);
    }

    #[test]
    fn dense_crowd_association_matches_naive_reference() {
        // Enough objects per frame to push association onto the grid path
        // (rows × cols ≥ 64): the two backends must stay bit-identical
        // across a whole drifting-crowd sequence.
        let mut gated = tracker();
        let mut naive: Tracker<u32> = Tracker::new(TrackerConfig::paper().with_naive_association());
        for f in 0..20 {
            let dets: Vec<TrackDetection<u32>> = (0..25)
                .map(|i| {
                    let x = 40.0 * (i % 12) as f32 + 3.0 * f as f32;
                    let y = 60.0 * (i / 12) as f32 + 1.5 * (f % 5) as f32;
                    det(x, y.max(1.0), 42.0, 34.0, (i % 2) as u32)
                })
                .collect();
            gated.update(&dets);
            naive.update(&dets);
            assert_eq!(gated.tracks(), naive.tracks(), "diverged at frame {f}");
        }
        assert!(gated.tracks().len() > 10);
    }

    #[test]
    fn predicted_regions_into_matches_predictions() {
        let mut t = tracker();
        for i in 0..6 {
            t.update(&[
                det(100.0 + 5.0 * i as f32, 100.0, 40.0, 30.0, 0),
                det(300.0, 200.0, 6.0, 20.0, 1), // narrow: filtered
            ]);
        }
        let preds = t.predictions(W, H);
        let mut regions = Vec::new();
        t.predicted_regions_into(W, H, &mut regions);
        assert_eq!(regions, preds.iter().map(|p| p.bbox).collect::<Vec<_>>());
    }

    #[test]
    fn exported_state_round_trips_bit_exactly() {
        let mut original = tracker();
        for i in 0..8 {
            original.update(&[
                det(100.0 + 5.0 * i as f32, 100.0, 40.0, 30.0, 0),
                det(400.0 - 3.0 * i as f32, 150.0, 50.0, 35.0, 1),
            ]);
        }
        // Import into a dirty tracker (stale tracks, diverged id counter):
        // import must fully replace its cross-frame state.
        let mut migrated = tracker();
        for _ in 0..4 {
            migrated.update(&[det(700.0, 200.0, 30.0, 30.0, 0)]);
        }
        migrated.import_state(original.export_state());
        assert_eq!(migrated.tracks(), original.tracks());
        for i in 8..20 {
            let dets = [
                det(100.0 + 5.0 * i as f32, 100.0, 40.0, 30.0, 0),
                det(400.0 - 3.0 * i as f32, 150.0, 50.0, 35.0, 1),
                det(50.0 * (i % 5) as f32 + 10.0, 250.0, 40.0, 30.0, 0),
            ];
            original.update(&dets);
            migrated.update(&dets);
            assert_eq!(
                migrated.tracks(),
                original.tracks(),
                "diverged at frame {i} after state migration"
            );
        }
        // New tracks on the migrated side keep allocating unique ids.
        assert_eq!(
            migrated.export_state().next_id,
            original.export_state().next_id
        );
    }

    proptest! {
        /// Random clutter, random migration point: exporting mid-sequence
        /// and importing into a fresh tracker continues bit-identically.
        #[test]
        fn prop_state_round_trip_continues_bit_identically(
            frames in proptest::collection::vec(
                proptest::collection::vec(
                    (0.0f32..1200.0, 0.0f32..350.0, 5.0f32..80.0, 5.0f32..60.0,
                     0.3f32..1.0, 0u32..3),
                    0..20),
                2..10),
            cut_at in 0usize..9,
        ) {
            let to_dets = |raw: &Vec<(f32, f32, f32, f32, f32, u32)>| {
                raw.iter()
                    .map(|&(x, y, w, h, score, class)| TrackDetection {
                        bbox: Box2::from_xywh(x, y, w, h),
                        score,
                        class,
                    })
                    .collect::<Vec<_>>()
            };
            let cut = cut_at.min(frames.len() - 1);
            let mut reference = tracker();
            let mut source = tracker();
            for raw in &frames[..cut] {
                let dets = to_dets(raw);
                reference.update(&dets);
                source.update(&dets);
            }
            let mut migrated = tracker();
            migrated.import_state(source.export_state());
            prop_assert_eq!(migrated.tracks(), reference.tracks());
            for raw in &frames[cut..] {
                let dets = to_dets(raw);
                reference.update(&dets);
                migrated.update(&dets);
                prop_assert_eq!(migrated.tracks(), reference.tracks());
            }
        }
    }

    #[test]
    fn greedy_ambiguity_resolved_optimally() {
        // One track between two detections: Hungarian picks the higher-IoU
        // one and the other spawns a new track.
        let mut t = tracker();
        t.update(&[det(100.0, 100.0, 40.0, 30.0, 0)]);
        t.update(&[
            det(104.0, 100.0, 40.0, 30.0, 0), // IoU ~0.82
            det(130.0, 100.0, 40.0, 30.0, 0), // IoU ~0.1
        ]);
        assert_eq!(t.tracks().len(), 2);
        let old = t.tracks().iter().find(|tr| tr.id == 0).unwrap();
        assert!((old.current_box().center().0 - 124.0).abs() < 1.0);
    }
}
