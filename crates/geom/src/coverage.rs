//! Stride-aligned coverage rasterisation.
//!
//! The refinement network in CaTDet only computes the parts of its feature
//! maps that correspond to the selected regions (paper §4.3, Fig. 4b). On a
//! convolutional trunk with stride `s`, the unit of work is one feature-map
//! cell covering an `s × s` pixel tile; the trunk's operation count scales
//! with the number of *distinct* cells touched by the union of all dilated
//! proposals — overlapping proposals are not paid for twice.
//!
//! [`CoverageGrid`] rasterises boxes onto that cell grid and reports the
//! covered fraction, which `catdet-nn`'s masked-ops accounting multiplies
//! into the full-frame trunk cost.

use crate::Box2;

/// A boolean occupancy grid over a frame, aligned to a convolutional stride.
///
/// Each grid row is stored as bits in `u64` words: cell `x` of a row is bit
/// `x % 64` of the row's word `x / 64`, and the bits past the last cell of a
/// row stay clear. Marking a box ORs one span mask into each word it
/// covers: a row of a 2048-pixel frame at stride 16 is two words.
///
/// # Example
///
/// ```
/// use catdet_geom::{Box2, CoverageGrid};
///
/// let mut g = CoverageGrid::new(160.0, 160.0, 16);
/// assert_eq!(g.total_cells(), 100);
/// g.add_box(&Box2::new(0.0, 0.0, 32.0, 32.0));
/// assert_eq!(g.covered_cells(), 4);
/// assert!((g.coverage_fraction() - 0.04).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct CoverageGrid {
    stride: u32,
    grid_w: usize,
    grid_h: usize,
    width: f32,
    height: f32,
    /// `u64` words per grid row.
    row_words: usize,
    /// Row-major cell bits, `row_words` words per row.
    bits: Vec<u64>,
}

impl CoverageGrid {
    /// Creates an empty grid for a `width × height` frame at the given
    /// feature stride.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0` or the frame has non-positive dimensions.
    pub fn new(width: f32, height: f32, stride: u32) -> Self {
        let mut g = Self {
            stride: 1,
            grid_w: 0,
            grid_h: 0,
            width: 1.0,
            height: 1.0,
            row_words: 0,
            bits: Vec::new(),
        };
        g.reset(width, height, stride);
        g
    }

    /// Re-targets the grid to a new geometry and clears it, reusing the
    /// cell buffer — the allocation-free way to rasterise per frame.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0` or the frame has non-positive dimensions.
    pub fn reset(&mut self, width: f32, height: f32, stride: u32) {
        assert!(stride > 0, "stride must be positive");
        assert!(
            width > 0.0 && height > 0.0,
            "frame dimensions must be positive"
        );
        self.stride = stride;
        self.width = width;
        self.height = height;
        self.grid_w = (width / stride as f32).ceil() as usize;
        self.grid_h = (height / stride as f32).ceil() as usize;
        self.row_words = self.grid_w.div_ceil(64);
        self.bits.clear();
        self.bits.resize(self.row_words * self.grid_h, 0);
    }

    /// The feature stride the grid is aligned to.
    pub fn stride(&self) -> u32 {
        self.stride
    }

    /// Grid dimensions `(cells_x, cells_y)`.
    pub fn grid_dims(&self) -> (usize, usize) {
        (self.grid_w, self.grid_h)
    }

    /// Total number of cells (the cost of a full-frame pass).
    pub fn total_cells(&self) -> usize {
        self.grid_w * self.grid_h
    }

    /// Marks every cell that intersects `b` (after clipping to the frame).
    ///
    /// Boxes fully outside the frame or degenerate boxes mark nothing.
    pub fn add_box(&mut self, b: &Box2) {
        let c = b.clip(self.width, self.height);
        if !c.is_valid() {
            return;
        }
        // A valid clipped box is finite and non-negative, so truncation is
        // floor here, and a ceiling is the truncation plus one when it
        // falls short: no libm call on a target without SSE4.1 rounding.
        let s = self.stride as f32;
        let x0 = (c.x1 / s) as usize;
        let y0 = (c.y1 / s) as usize;
        // A cell [k*s, (k+1)*s) intersects iff k*s < c.x2, i.e. k <= ceil(x2/s)-1.
        let x1 = ceil_non_negative(c.x2 / s).min(self.grid_w);
        let y1 = ceil_non_negative(c.y2 / s).min(self.grid_h);
        if x0 >= x1 || y0 >= y1 {
            return;
        }
        let (w0, w1) = (x0 / 64, (x1 - 1) / 64);
        let first = !0u64 << (x0 % 64);
        let last = !0u64 >> (63 - (x1 - 1) % 64);
        let rows = &mut self.bits[y0 * self.row_words..y1 * self.row_words];
        for row in rows.chunks_exact_mut(self.row_words) {
            if w0 == w1 {
                row[w0] |= first & last;
            } else {
                row[w0] |= first;
                row[w0 + 1..w1].fill(!0);
                row[w1] |= last;
            }
        }
    }

    /// Marks the cells of every box in `boxes`.
    pub fn add_boxes<'a, I: IntoIterator<Item = &'a Box2>>(&mut self, boxes: I) {
        for b in boxes {
            self.add_box(b);
        }
    }

    /// Number of covered cells: one population count over the bit rows.
    pub fn covered_cells(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of cells covered in `self` or in `other`: one population
    /// count over the OR of the two grids' bit rows, so two region sets
    /// rasterised apart also give their union's cell count.
    ///
    /// # Panics
    ///
    /// Panics if the grids differ in stride or dimensions.
    pub fn union_covered_cells(&self, other: &CoverageGrid) -> usize {
        assert!(
            self.stride == other.stride && self.grid_dims() == other.grid_dims(),
            "union of coverage grids of different geometry"
        );
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a | b).count_ones() as usize)
            .sum()
    }

    /// Fraction of the grid that is covered, in `[0, 1]`.
    pub fn coverage_fraction(&self) -> f64 {
        if self.bits.is_empty() {
            0.0
        } else {
            self.covered_cells() as f64 / self.total_cells() as f64
        }
    }

    /// Covered area in pixels (covered cells × stride²), an upper bound on
    /// the pixel area of the rasterised union.
    pub fn covered_area_px(&self) -> f64 {
        self.covered_cells() as f64 * (self.stride as f64).powi(2)
    }

    /// Returns `true` if the cell containing pixel `(x, y)` is covered.
    pub fn is_covered(&self, x: f32, y: f32) -> bool {
        if x < 0.0 || y < 0.0 || x >= self.width || y >= self.height {
            return false;
        }
        // In-frame coordinates are non-negative, so truncation is floor; a
        // NaN coordinate truncates to cell 0, as its floor did.
        let s = self.stride as f32;
        let cx = (x / s) as usize;
        let cy = (y / s) as usize;
        self.bits[cy * self.row_words + cx / 64] >> (cx % 64) & 1 == 1
    }

    /// Clears all cells, keeping the geometry.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }
}

/// `v.ceil() as usize` for a finite `v >= 0`, without a libm call.
#[inline]
fn ceil_non_negative(v: f32) -> usize {
    let t = v as usize;
    if (t as f32) < v {
        t + 1
    } else {
        t
    }
}

/// Convenience: the covered feature fraction for a set of proposals dilated
/// by `margin` pixels, on a `width × height` frame with feature stride
/// `stride`.
///
/// This is the quantity that scales the refinement trunk's operation count
/// (paper §4.3: a 30-pixel margin is appended around each proposal).
pub fn masked_fraction(boxes: &[Box2], width: f32, height: f32, stride: u32, margin: f32) -> f64 {
    let mut g = CoverageGrid::new(width, height, stride);
    masked_fraction_with(&mut g, boxes, width, height, stride, margin)
}

/// Allocation-free [`masked_fraction`]: rasterises into `grid` (re-targeted
/// and cleared first), reusing its cell buffer across frames.
pub fn masked_fraction_with(
    grid: &mut CoverageGrid,
    boxes: &[Box2],
    width: f32,
    height: f32,
    stride: u32,
    margin: f32,
) -> f64 {
    grid.reset(width, height, stride);
    for b in boxes {
        grid.add_box(&b.dilate(margin));
    }
    grid.coverage_fraction()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The raster the bit rows replaced: one `bool` per cell, marked
    /// through `floor`/`ceil`. The bit rows must match it cell for cell.
    struct PerCellReference {
        stride: u32,
        grid_w: usize,
        grid_h: usize,
        width: f32,
        height: f32,
        cells: Vec<bool>,
    }

    impl PerCellReference {
        fn new(width: f32, height: f32, stride: u32) -> Self {
            let grid_w = (width / stride as f32).ceil() as usize;
            let grid_h = (height / stride as f32).ceil() as usize;
            Self {
                stride,
                grid_w,
                grid_h,
                width,
                height,
                cells: vec![false; grid_w * grid_h],
            }
        }

        fn add_box(&mut self, b: &Box2) {
            let c = b.clip(self.width, self.height);
            if !c.is_valid() {
                return;
            }
            let s = self.stride as f32;
            let x0 = (c.x1 / s).floor() as usize;
            let y0 = (c.y1 / s).floor() as usize;
            let x1 = ((c.x2 / s).ceil() as usize).min(self.grid_w);
            let y1 = ((c.y2 / s).ceil() as usize).min(self.grid_h);
            for y in y0..y1 {
                for x in x0..x1 {
                    self.cells[y * self.grid_w + x] = true;
                }
            }
        }

        fn covered_cells(&self) -> usize {
            self.cells.iter().filter(|&&c| c).count()
        }

        fn coverage_fraction(&self) -> f64 {
            if self.cells.is_empty() {
                0.0
            } else {
                self.covered_cells() as f64 / self.cells.len() as f64
            }
        }

        fn is_covered(&self, x: f32, y: f32) -> bool {
            if x < 0.0 || y < 0.0 || x >= self.width || y >= self.height {
                return false;
            }
            let cx = (x / self.stride as f32).floor() as usize;
            let cy = (y / self.stride as f32).floor() as usize;
            self.cells[cy * self.grid_w + cx]
        }
    }

    #[test]
    fn empty_grid_is_uncovered() {
        let g = CoverageGrid::new(100.0, 100.0, 10);
        assert_eq!(g.covered_cells(), 0);
        assert_eq!(g.coverage_fraction(), 0.0);
    }

    #[test]
    fn grid_dims_round_up() {
        let g = CoverageGrid::new(105.0, 95.0, 10);
        assert_eq!(g.grid_dims(), (11, 10));
    }

    #[test]
    fn aligned_box_covers_exact_cells() {
        let mut g = CoverageGrid::new(160.0, 160.0, 16);
        g.add_box(&Box2::new(16.0, 16.0, 48.0, 48.0));
        assert_eq!(g.covered_cells(), 4);
    }

    #[test]
    fn unaligned_box_covers_all_touched_cells() {
        let mut g = CoverageGrid::new(160.0, 160.0, 16);
        // Straddles cell boundaries: touches cells 0..=2 in both axes.
        g.add_box(&Box2::new(10.0, 10.0, 40.0, 40.0));
        assert_eq!(g.covered_cells(), 9);
    }

    #[test]
    fn box_outside_frame_marks_nothing() {
        let mut g = CoverageGrid::new(100.0, 100.0, 10);
        g.add_box(&Box2::new(200.0, 200.0, 300.0, 300.0));
        assert_eq!(g.covered_cells(), 0);
        g.add_box(&Box2::new(-50.0, -50.0, -10.0, -10.0));
        assert_eq!(g.covered_cells(), 0);
    }

    #[test]
    fn box_partially_outside_is_clipped() {
        let mut g = CoverageGrid::new(100.0, 100.0, 10);
        g.add_box(&Box2::new(-50.0, -50.0, 15.0, 15.0));
        assert_eq!(g.covered_cells(), 4); // cells (0,0),(1,0),(0,1),(1,1)
    }

    #[test]
    fn full_frame_box_covers_everything() {
        let mut g = CoverageGrid::new(100.0, 80.0, 16);
        g.add_box(&Box2::new(0.0, 0.0, 100.0, 80.0));
        assert_eq!(g.covered_cells(), g.total_cells());
        assert_eq!(g.coverage_fraction(), 1.0);
    }

    #[test]
    fn overlapping_boxes_counted_once() {
        let mut g = CoverageGrid::new(160.0, 160.0, 16);
        let b = Box2::new(0.0, 0.0, 32.0, 32.0);
        g.add_box(&b);
        let once = g.covered_cells();
        g.add_box(&b);
        assert_eq!(g.covered_cells(), once);
    }

    #[test]
    fn is_covered_point_queries() {
        let mut g = CoverageGrid::new(100.0, 100.0, 10);
        g.add_box(&Box2::new(20.0, 20.0, 30.0, 30.0));
        assert!(g.is_covered(25.0, 25.0));
        assert!(!g.is_covered(5.0, 5.0));
        assert!(!g.is_covered(-1.0, 25.0));
        assert!(!g.is_covered(25.0, 1000.0));
    }

    #[test]
    fn clear_resets() {
        let mut g = CoverageGrid::new(100.0, 100.0, 10);
        g.add_box(&Box2::new(0.0, 0.0, 100.0, 100.0));
        g.clear();
        assert_eq!(g.covered_cells(), 0);
    }

    #[test]
    fn masked_fraction_with_margin() {
        // A tiny box with a large margin covers a lot more.
        let b = [Box2::new(50.0, 50.0, 52.0, 52.0)];
        let no_margin = masked_fraction(&b, 100.0, 100.0, 10, 0.0);
        let with_margin = masked_fraction(&b, 100.0, 100.0, 10, 30.0);
        assert!(with_margin > no_margin * 4.0);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let _ = CoverageGrid::new(10.0, 10.0, 0);
    }

    proptest! {
        #[test]
        fn prop_fraction_in_unit_interval(
            boxes in proptest::collection::vec(
                (-50.0f32..150.0, -50.0f32..150.0, 0.0f32..80.0, 0.0f32..80.0), 0..20),
        ) {
            let mut g = CoverageGrid::new(124.0, 37.0, 16);
            for (x, y, w, h) in boxes {
                g.add_box(&Box2::from_xywh(x, y, w, h));
            }
            let f = g.coverage_fraction();
            prop_assert!((0.0..=1.0).contains(&f));
        }

        /// The bit rows equal the per-cell reference on rows of 1, 63, 64,
        /// 65, 128 and 129 cells, at any stride, with boxes that hang off
        /// the frame, are degenerate or carry NaN and infinite edges.
        #[test]
        fn prop_bit_rows_match_per_cell_reference(
            stride in 1u32..=128,
            rows in 1usize..5,
            // Where the frame edge falls inside the last column and row.
            edge in 0.05f32..=1.0,
            margin in -8.0f32..40.0,
            raw in proptest::collection::vec(
                ((0u8..24, -0.3f32..1.3),
                 (0u8..24, -0.3f32..1.3),
                 (0u8..24, -0.1f32..0.6),
                 (0u8..24, -0.1f32..0.6)), 0..10),
        ) {
            let lift = |(sel, v): (u8, f32)| match sel {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                _ => v,
            };
            let s = stride as f32;
            let mut grid = CoverageGrid::new(1.0, 1.0, 1);
            for cells in [1usize, 63, 64, 65, 128, 129] {
                let width = (cells as f32 - 1.0 + edge) * s;
                let height = (rows as f32 - 1.0 + edge) * s;
                grid.reset(width, height, stride);
                let mut reference = PerCellReference::new(width, height, stride);
                prop_assert_eq!(grid.grid_dims(), (reference.grid_w, reference.grid_h));
                for &(a, b, c, d) in &raw {
                    let (x, y) = (lift(a) * width, lift(b) * height);
                    let bx = Box2::new(x, y, x + lift(c) * width, y + lift(d) * height);
                    grid.add_box(&bx.dilate(margin));
                    reference.add_box(&bx.dilate(margin));
                }
                prop_assert_eq!(grid.covered_cells(), reference.covered_cells(), "{} cells", cells);
                prop_assert_eq!(grid.coverage_fraction(), reference.coverage_fraction());
                for cy in 0..reference.grid_h {
                    for cx in 0..reference.grid_w {
                        let (x, y) = (cx as f32 * s, cy as f32 * s);
                        let probes = [(x, y), (x + 0.5 * s, y + 0.5 * s), (f32::NAN, y), (x, -0.0)];
                        for (px, py) in probes {
                            prop_assert_eq!(
                                grid.is_covered(px, py),
                                reference.is_covered(px, py),
                                "cell ({}, {}) of {} at ({}, {})", cx, cy, cells, px, py
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn prop_coverage_monotone_in_boxes(
            boxes in proptest::collection::vec(
                (0.0f32..100.0, 0.0f32..100.0, 1.0f32..40.0, 1.0f32..40.0), 1..15),
        ) {
            let mut g = CoverageGrid::new(100.0, 100.0, 8);
            let mut last = 0usize;
            for (x, y, w, h) in boxes {
                g.add_box(&Box2::from_xywh(x, y, w, h));
                let now = g.covered_cells();
                prop_assert!(now >= last);
                last = now;
            }
        }

        #[test]
        fn prop_union_le_sum_of_individual(
            boxes in proptest::collection::vec(
                (0.0f32..100.0, 0.0f32..100.0, 1.0f32..40.0, 1.0f32..40.0), 1..10),
        ) {
            let bs: Vec<Box2> = boxes
                .iter()
                .map(|&(x, y, w, h)| Box2::from_xywh(x, y, w, h))
                .collect();
            let mut union = CoverageGrid::new(100.0, 100.0, 8);
            union.add_boxes(&bs);
            let mut sum = 0usize;
            for b in &bs {
                let mut g = CoverageGrid::new(100.0, 100.0, 8);
                g.add_box(b);
                sum += g.covered_cells();
            }
            prop_assert!(union.covered_cells() <= sum);
        }

        /// Two region sets rasterised apart count their union's cells
        /// exactly as one raster of both does, on rows of one and of
        /// several words.
        #[test]
        fn prop_union_of_two_grids_matches_one_raster(
            width in 0usize..3,
            a in proptest::collection::vec(
                (-50.0f32..2100.0, -50.0f32..400.0, 0.0f32..300.0, 0.0f32..200.0), 0..12),
            b in proptest::collection::vec(
                (-50.0f32..2100.0, -50.0f32..400.0, 0.0f32..300.0, 0.0f32..200.0), 0..12),
        ) {
            let boxes = |v: &[(f32, f32, f32, f32)]| -> Vec<Box2> {
                v.iter().map(|&(x, y, w, h)| Box2::from_xywh(x, y, w, h)).collect()
            };
            let (a, b) = (boxes(&a), boxes(&b));
            let width = [100.0, 1242.0, 2048.0][width];
            let mut ga = CoverageGrid::new(width, 375.0, 16);
            let mut gb = CoverageGrid::new(width, 375.0, 16);
            let mut both = CoverageGrid::new(width, 375.0, 16);
            ga.add_boxes(&a);
            gb.add_boxes(&b);
            both.add_boxes(a.iter().chain(&b));
            prop_assert_eq!(ga.union_covered_cells(&gb), both.covered_cells());
            prop_assert_eq!(gb.union_covered_cells(&ga), both.covered_cells());
            prop_assert_eq!(ga.union_covered_cells(&ga), ga.covered_cells());
        }

        #[test]
        fn prop_cell_area_bounds_box_area(
            x in 0.0f32..90.0, y in 0.0f32..90.0,
            w in 1.0f32..10.0, h in 1.0f32..10.0,
        ) {
            // The rasterised area always upper-bounds the true box area.
            let b = Box2::from_xywh(x, y, w, h).clip(100.0, 100.0);
            let mut g = CoverageGrid::new(100.0, 100.0, 4);
            g.add_box(&b);
            prop_assert!(g.covered_area_px() + 1e-3 >= b.area() as f64);
        }
    }
}
