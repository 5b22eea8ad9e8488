//! Uniform spatial binning for candidate-pair queries.
//!
//! Every quadratic loop in the per-frame hot path — greedy NMS, tracker
//! association, region/ground-truth gating — asks the same question: *which
//! boxes can overlap this one?* A [`GridIndex`] answers it in time
//! proportional to the true overlaps instead of all pairs: boxes are binned
//! into uniform cells sized to the mean box, and a query visits only the
//! cells its extent touches.
//!
//! The index is a **candidate generator, not a filter of record**: a query
//! yields a *superset* of the boxes intersecting the query extent (cell
//! granularity admits near-misses, and a box spanning several cells may be
//! yielded more than once). Callers must re-test the exact predicate (IoU,
//! containment, …) on every candidate — which is what makes grid-routed
//! algorithms bit-for-bit identical to their naive counterparts: any pair
//! the exact predicate accepts strictly overlaps, and strictly overlapping
//! pairs always share a cell.
//!
//! All storage is reused across [`build`](GridIndex::build) calls, so a
//! long-lived index allocates only while growing to its steady-state
//! capacity.

use crate::Box2;

/// Hard cap on cells per axis: bounds clear/build cost for pathological
/// extents (a handful of tiny boxes scattered across a huge range).
const MAX_AXIS_CELLS: usize = 256;

/// A uniform spatial bin index over a set of boxes.
///
/// # Example
///
/// ```
/// use catdet_geom::{Box2, GridIndex};
///
/// let boxes = vec![
///     Box2::new(0.0, 0.0, 10.0, 10.0),
///     Box2::new(5.0, 5.0, 15.0, 15.0),
///     Box2::new(500.0, 500.0, 510.0, 510.0),
/// ];
/// let mut grid = GridIndex::new();
/// grid.build(boxes.len(), |i| boxes[i]);
/// // Box 1 overlaps box 0 but not the far-away box 2.
/// assert!(grid.any_candidate(&boxes[1], |j| j == 0));
/// assert!(!grid.any_candidate(&boxes[1], |j| j == 2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GridIndex {
    x0: f32,
    y0: f32,
    inv_cw: f32,
    inv_ch: f32,
    nx: usize,
    ny: usize,
    /// CSR cell starts (`nx * ny + 1` entries).
    starts: Vec<u32>,
    /// Box indices grouped by cell.
    entries: Vec<u32>,
    /// Per-cell fill cursors during construction.
    cursor: Vec<u32>,
    n: usize,
}

impl GridIndex {
    /// Creates an empty index (no allocation until the first build).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of boxes currently indexed.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the index holds no boxes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// (Re)builds the index over boxes `0..n`, reusing all buffers.
    ///
    /// `box_of(i)` must be pure for the duration of the build. Degenerate
    /// or non-finite boxes are tolerated and keep the superset contract:
    /// a NaN/infinite edge intersects like an open edge under the exact
    /// predicates (`f32::min`/`max` ignore NaN), so such boxes are binned
    /// across every cell they could possibly intersect.
    pub fn build<F: Fn(usize) -> Box2>(&mut self, n: usize, box_of: F) {
        self.n = n;
        if n == 0 {
            self.nx = 0;
            self.ny = 0;
            self.starts.clear();
            self.entries.clear();
            return;
        }

        // Extent and mean box size over finite coordinates.
        let (mut min_x, mut min_y) = (f32::INFINITY, f32::INFINITY);
        let (mut max_x, mut max_y) = (f32::NEG_INFINITY, f32::NEG_INFINITY);
        let (mut sum_w, mut sum_h) = (0.0f64, 0.0f64);
        for i in 0..n {
            let b = box_of(i);
            if b.x1 < min_x {
                min_x = b.x1;
            }
            if b.y1 < min_y {
                min_y = b.y1;
            }
            if b.x2 > max_x {
                max_x = b.x2;
            }
            if b.y2 > max_y {
                max_y = b.y2;
            }
            sum_w += f64::from(b.width());
            sum_h += f64::from(b.height());
        }
        if !(min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite()) {
            // Degenerate input (all boxes non-finite): one catch-all cell.
            min_x = 0.0;
            min_y = 0.0;
            max_x = 1.0;
            max_y = 1.0;
        }
        let ext_w = (max_x - min_x).max(1e-3);
        let ext_h = (max_y - min_y).max(1e-3);
        // Cells sized to the mean box so a typical box spans O(1) cells;
        // the per-axis cap additionally bounds total cells by O(n).
        let mean_w = (sum_w / n as f64) as f32;
        let mean_h = (sum_h / n as f64) as f32;
        let axis_cap = MAX_AXIS_CELLS.min(((4 * n) as f32).sqrt().ceil() as usize + 1);
        let nx = ((ext_w / mean_w.max(1e-3)).ceil() as usize).clamp(1, axis_cap);
        let ny = ((ext_h / mean_h.max(1e-3)).ceil() as usize).clamp(1, axis_cap);
        self.x0 = min_x;
        self.y0 = min_y;
        self.nx = nx;
        self.ny = ny;
        self.inv_cw = nx as f32 / ext_w;
        self.inv_ch = ny as f32 / ext_h;

        // Counting sort into CSR: count per cell, prefix-sum, fill.
        let cells = nx * ny;
        self.starts.clear();
        self.starts.resize(cells + 1, 0);
        for i in 0..n {
            let (cx0, cy0, cx1, cy1) = self.cell_range(&box_of(i));
            for cy in cy0..=cy1 {
                for cx in cx0..=cx1 {
                    self.starts[cy * nx + cx + 1] += 1;
                }
            }
        }
        for c in 0..cells {
            self.starts[c + 1] += self.starts[c];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..cells]);
        self.entries.clear();
        self.entries.resize(self.starts[cells] as usize, 0);
        for i in 0..n {
            let (cx0, cy0, cx1, cy1) = self.cell_range(&box_of(i));
            for cy in cy0..=cy1 {
                for cx in cx0..=cx1 {
                    let cell = cy * nx + cx;
                    self.entries[self.cursor[cell] as usize] = i as u32;
                    self.cursor[cell] += 1;
                }
            }
        }
    }

    /// Inclusive cell range covered by a box extent, clamped to the grid.
    #[inline]
    fn cell_range(&self, b: &Box2) -> (usize, usize, usize, usize) {
        let cx0 = (b.x1 - self.x0) * self.inv_cw;
        let cy0 = (b.y1 - self.y0) * self.inv_ch;
        let cx1 = (b.x2 - self.x0) * self.inv_cw;
        let cy1 = (b.y2 - self.y0) * self.inv_ch;
        let hi_x = (self.nx - 1) as f32;
        let hi_y = (self.ny - 1) as f32;
        // Each ordinate is clamped to `[0, hi]` and then truncated. That
        // equals flooring it and then clamping, because `hi` is integral,
        // and spares a libm `floorf` call per ordinate on targets without
        // SSE4.1 rounding.
        //
        // A NaN coordinate gives a NaN cell ordinate. The exact predicates
        // resolve NaN edges through `f32::min`/`f32::max` (which ignore
        // NaN), so in `Box2::intersection` a NaN lower edge behaves like
        // -inf and a NaN upper edge like +inf — the cell range must cover
        // the whole axis on that side, or a finite box that strictly
        // intersects the NaN box would never share a cell with it and the
        // superset contract would break. Infinite coordinates are handled
        // by the clamp.
        let cx0 = if cx0.is_nan() {
            0.0
        } else {
            cx0.clamp(0.0, hi_x)
        } as usize;
        let cy0 = if cy0.is_nan() {
            0.0
        } else {
            cy0.clamp(0.0, hi_y)
        } as usize;
        let cx1 = if cx1.is_nan() {
            hi_x
        } else {
            cx1.clamp(0.0, hi_x)
        } as usize;
        let cy1 = if cy1.is_nan() {
            hi_y
        } else {
            cy1.clamp(0.0, hi_y)
        } as usize;
        (cx0.min(cx1), cy0.min(cy1), cx0.max(cx1), cy0.max(cy1))
    }

    /// Calls `f` for every indexed box whose cells intersect `query`'s
    /// extent. Candidates are a superset of the boxes intersecting
    /// `query`; a box spanning several cells may be yielded repeatedly.
    #[inline]
    pub fn for_each_candidate<F: FnMut(usize)>(&self, query: &Box2, mut f: F) {
        if self.n == 0 {
            return;
        }
        let (cx0, cy0, cx1, cy1) = self.cell_range(query);
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                let cell = cy * self.nx + cx;
                let lo = self.starts[cell] as usize;
                let hi = self.starts[cell + 1] as usize;
                for &e in &self.entries[lo..hi] {
                    f(e as usize);
                }
            }
        }
    }

    /// Short-circuiting candidate scan: returns `true` as soon as `pred`
    /// accepts a candidate of `query`'s extent.
    #[inline]
    pub fn any_candidate<F: FnMut(usize) -> bool>(&self, query: &Box2, mut pred: F) -> bool {
        if self.n == 0 {
            return false;
        }
        let (cx0, cy0, cx1, cy1) = self.cell_range(query);
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                let cell = cy * self.nx + cx;
                let lo = self.starts[cell] as usize;
                let hi = self.starts[cell + 1] as usize;
                for &e in &self.entries[lo..hi] {
                    if pred(e as usize) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn collect_unique(grid: &GridIndex, q: &Box2) -> Vec<usize> {
        let mut seen = vec![false; grid.len()];
        grid.for_each_candidate(q, |i| seen[i] = true);
        (0..grid.len()).filter(|&i| seen[i]).collect()
    }

    /// `cell_range` as written with libm rounding: floor each ordinate,
    /// then clamp it to the grid, sending a NaN lower edge to the first
    /// cell and a NaN upper edge to the last.
    fn cell_range_floor(g: &GridIndex, b: &Box2) -> (usize, usize, usize, usize) {
        let ordinate = |v: f32, hi: usize, nan: usize| {
            let v = v.floor();
            if v.is_nan() {
                nan
            } else {
                v.clamp(0.0, hi as f32) as usize
            }
        };
        let (hi_x, hi_y) = (g.nx - 1, g.ny - 1);
        let cx0 = ordinate((b.x1 - g.x0) * g.inv_cw, hi_x, 0);
        let cy0 = ordinate((b.y1 - g.y0) * g.inv_ch, hi_y, 0);
        let cx1 = ordinate((b.x2 - g.x0) * g.inv_cw, hi_x, hi_x);
        let cy1 = ordinate((b.y2 - g.y0) * g.inv_ch, hi_y, hi_y);
        (cx0.min(cx1), cy0.min(cy1), cx0.max(cx1), cy0.max(cy1))
    }

    /// A 4 × 4 grid of 16-pixel cells whose origin is (-8, -8), so every
    /// cell edge `-8 + 16k` is an exact ordinate.
    fn four_by_four() -> GridIndex {
        let boxes: Vec<Box2> = (0..16)
            .map(|i| {
                Box2::from_xywh(
                    -8.0 + 16.0 * (i % 4) as f32,
                    -8.0 + 16.0 * (i / 4) as f32,
                    16.0,
                    16.0,
                )
            })
            .collect();
        let mut grid = GridIndex::new();
        grid.build(boxes.len(), |i| boxes[i]);
        assert_eq!(
            (grid.nx, grid.ny, grid.x0, grid.inv_cw),
            (4, 4, -8.0, 1.0 / 16.0)
        );
        grid
    }

    #[test]
    fn cell_range_matches_floor_on_adversarial_coordinates() {
        let grid = four_by_four();
        let mut coords = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            -1e-30,
            -1.0,
            -9.0,
            -1e30,
            1e9,
            16_777_217.0,
        ];
        // Every cell edge, past the last one too, and its neighbours.
        for k in -1..=6 {
            let edge = -8.0 + 16.0 * k as f32;
            coords.extend([edge, edge.next_down(), edge.next_up(), edge + 0.5]);
        }
        for &a in &coords {
            for &b in &coords {
                for q in [
                    Box2::new(a, b, b, a),
                    Box2::new(b, a, a, b),
                    Box2::new(a, a, b, b),
                ] {
                    assert_eq!(
                        grid.cell_range(&q),
                        cell_range_floor(&grid, &q),
                        "{a:?} / {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_index_yields_nothing() {
        let grid = GridIndex::new();
        assert!(grid.is_empty());
        assert!(!grid.any_candidate(&Box2::new(0.0, 0.0, 10.0, 10.0), |_| true));
    }

    #[test]
    fn single_box_is_its_own_candidate() {
        let b = Box2::new(5.0, 5.0, 15.0, 15.0);
        let mut grid = GridIndex::new();
        grid.build(1, |_| b);
        assert_eq!(collect_unique(&grid, &b), vec![0]);
    }

    #[test]
    fn distant_boxes_are_not_candidates_of_each_other() {
        let boxes = [
            Box2::new(0.0, 0.0, 10.0, 10.0),
            Box2::new(1000.0, 1000.0, 1010.0, 1010.0),
        ];
        let mut grid = GridIndex::new();
        grid.build(2, |i| boxes[i]);
        assert!(!grid.any_candidate(&boxes[0], |j| j == 1));
        assert!(!grid.any_candidate(&boxes[1], |j| j == 0));
    }

    #[test]
    fn rebuild_reuses_and_replaces() {
        let mut grid = GridIndex::new();
        let a = [Box2::new(0.0, 0.0, 10.0, 10.0)];
        grid.build(1, |_| a[0]);
        assert_eq!(grid.len(), 1);
        let b = [
            Box2::new(50.0, 50.0, 60.0, 60.0),
            Box2::new(55.0, 55.0, 65.0, 65.0),
        ];
        grid.build(2, |i| b[i]);
        assert_eq!(grid.len(), 2);
        assert!(grid.any_candidate(&b[0], |j| j == 1));
    }

    #[test]
    fn non_finite_boxes_do_not_break_queries() {
        let boxes = [
            Box2::new(f32::NAN, 0.0, f32::NAN, 10.0),
            Box2::new(0.0, 0.0, 10.0, 10.0),
            Box2::new(5.0, 5.0, 15.0, 15.0),
        ];
        let mut grid = GridIndex::new();
        grid.build(3, |i| boxes[i]);
        // The two valid overlapping boxes still find each other.
        assert!(grid.any_candidate(&boxes[1], |j| j == 2));
    }

    #[test]
    fn nan_edge_box_stays_candidate_of_distant_intersections() {
        // A NaN upper edge intersects like +inf (`f32::min` ignores NaN
        // inside `Box2::intersection`), so box 0 strictly intersects the
        // far box — they must stay mutual candidates even when the grid
        // has many cells between them. Before the NaN-aware cell range,
        // the NaN ordinate collapsed to cell 0 and the pair was missed.
        let mut boxes = vec![
            Box2::new(5.0, 0.0, f32::NAN, 10.0),
            Box2::new(80.0, 2.0, 95.0, 9.0),
        ];
        // Filler boxes force a multi-cell x axis.
        for k in 0..10 {
            boxes.push(Box2::from_xywh(k as f32 * 10.0, 20.0, 8.0, 8.0));
        }
        let mut grid = GridIndex::new();
        grid.build(boxes.len(), |i| boxes[i]);
        assert!(boxes[0].intersection(&boxes[1]).is_some());
        assert!(grid.any_candidate(&boxes[1], |j| j == 0));
        assert!(grid.any_candidate(&boxes[0], |j| j == 1));
    }

    proptest! {
        /// The defining property: every pair of strictly intersecting
        /// boxes must be mutual candidates.
        #[test]
        fn prop_intersecting_pairs_are_candidates(
            boxes in proptest::collection::vec(
                (-100.0f32..2000.0, -100.0f32..1000.0, 0.0f32..300.0, 0.0f32..300.0), 1..80),
        ) {
            let bs: Vec<Box2> = boxes
                .iter()
                .map(|&(x, y, w, h)| Box2::from_xywh(x, y, w, h))
                .collect();
            let mut grid = GridIndex::new();
            grid.build(bs.len(), |i| bs[i]);
            for i in 0..bs.len() {
                let candidates = collect_unique(&grid, &bs[i]);
                for j in 0..bs.len() {
                    if bs[i].intersection(&bs[j]).is_some() {
                        prop_assert!(
                            candidates.contains(&j),
                            "boxes {i} and {j} intersect but {j} was not a candidate"
                        );
                    }
                }
            }
        }

        /// The superset contract must survive non-finite inputs: NaN and
        /// infinite edges intersect like open edges under the exact
        /// predicates, and every strictly intersecting pair — finite or
        /// not — must remain mutual candidates.
        #[test]
        fn prop_intersecting_pairs_are_candidates_with_non_finite(
            raw in proptest::collection::vec(
                ((0u8..10, -100.0f32..1000.0),
                 (0u8..10, -100.0f32..1000.0),
                 (0u8..10, -100.0f32..1000.0),
                 (0u8..10, -100.0f32..1000.0)), 1..40),
        ) {
            let lift = |(sel, v): (u8, f32)| match sel {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                _ => v,
            };
            let bs: Vec<Box2> = raw
                .iter()
                .map(|&(a, b, c, d)| Box2::new(lift(a), lift(b), lift(c), lift(d)))
                .collect();
            let mut grid = GridIndex::new();
            grid.build(bs.len(), |i| bs[i]);
            for i in 0..bs.len() {
                let candidates = collect_unique(&grid, &bs[i]);
                for j in 0..bs.len() {
                    if bs[i].intersection(&bs[j]).is_some() {
                        prop_assert!(
                            candidates.contains(&j),
                            "boxes {i} and {j} intersect but {j} was not a candidate"
                        );
                    }
                }
            }
        }

        /// A query box never yields an index out of range, and total
        /// entries stay bounded.
        #[test]
        fn prop_candidates_in_range(
            boxes in proptest::collection::vec(
                (0.0f32..500.0, 0.0f32..500.0, 1.0f32..80.0, 1.0f32..80.0), 0..40),
            q in (-100.0f32..700.0, -100.0f32..700.0, 1.0f32..200.0, 1.0f32..200.0),
        ) {
            let bs: Vec<Box2> = boxes
                .iter()
                .map(|&(x, y, w, h)| Box2::from_xywh(x, y, w, h))
                .collect();
            let mut grid = GridIndex::new();
            grid.build(bs.len(), |i| bs[i]);
            let query = Box2::from_xywh(q.0, q.1, q.2, q.3);
            grid.for_each_candidate(&query, |i| assert!(i < bs.len()));
        }
    }
}
