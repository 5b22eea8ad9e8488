//! Depth-ordered occlusion estimation.
//!
//! KITTI annotates each object with an occlusion level; our difficulty
//! filters and detector accuracy models need the same signal. For every
//! object we estimate the fraction of its (in-image) bounding box covered
//! by the boxes of nearer objects, by sampling a regular grid of points
//! inside the box. A fixed 12×12 grid gives ≈0.7% resolution, far finer
//! than the 3-level quantisation KITTI itself uses.
//!
//! # The bit lattice
//!
//! A box's 144 sample points are the cross product of 12 x ordinates and
//! 12 y ordinates, so the estimate never tests a point against a box. It
//! computes the ordinates once per box, then keeps one 12-bit mask per
//! lattice row. Each occluder turns its x test into a column mask (bit
//! `ix` set when `x[ix]` lies in `[x1, x2)`) and ORs that mask into every
//! row whose `y[iy]` lies in `[y1, y2)`. Point `(ix, iy)` is then covered
//! exactly when some occluder contains it, and the fraction is the rows'
//! popcount over 144.
//!
//! The estimate is exact, not an approximation of the per-point sweep
//! (kept in the tests as the reference): the ordinates are the same f32
//! expressions, the column and row tests are
//! [`Box2::contains_point`](catdet_geom::Box2::contains_point)'s two
//! halves, and OR does not depend on the order of the occluders. So every
//! fraction is bit-identical to the sweep's, NaN and infinite edges
//! included (a NaN ordinate or edge fails every test on both paths).
//! A nearer box costs two comparisons per ordinate, 48 at most, instead
//! of up to 144 point tests, and nothing is allocated but the result.

use catdet_geom::Box2;

/// Samples per axis when estimating coverage.
const GRID: usize = 12;
/// Depth margin (m): an occluder must be more than this much nearer.
const DEPTH_MARGIN: f32 = 0.5;

/// Computes the occlusion fraction of every box given its depth.
///
/// `items` is a list of `(bounding box, depth)` pairs; for each entry the
/// returned value is the fraction (in `[0, 1]`) of its box area covered by
/// the union of the boxes more than half a metre (`DEPTH_MARGIN`) nearer:
/// an item at depth `d` occludes one at `depth` when
/// `d + DEPTH_MARGIN < depth`. Degenerate boxes report zero occlusion.
///
/// # Example
///
/// ```
/// use catdet_geom::Box2;
/// use catdet_sim::occlusion_fractions;
///
/// let far = (Box2::new(0.0, 0.0, 10.0, 10.0), 30.0);
/// let near = (Box2::new(0.0, 0.0, 5.0, 10.0), 10.0); // covers far's left half
/// let occ = occlusion_fractions(&[far, near]);
/// assert!((occ[0] - 0.5).abs() < 0.1);
/// assert_eq!(occ[1], 0.0);
/// ```
pub fn occlusion_fractions(items: &[(Box2, f32)]) -> Vec<f32> {
    items
        .iter()
        .map(|&(b, depth)| {
            if !b.is_valid() {
                return 0.0;
            }
            let dx = b.width() / GRID as f32;
            let dy = b.height() / GRID as f32;
            let xs: [f32; GRID] = std::array::from_fn(|ix| b.x1 + (ix as f32 + 0.5) * dx);
            let ys: [f32; GRID] = std::array::from_fn(|iy| b.y1 + (iy as f32 + 0.5) * dy);
            // Bit `ix` of `rows[iy]`: sample `(xs[ix], ys[iy])` is covered.
            let mut rows = [0u16; GRID];
            for (o, _) in items.iter().filter(|&&(_, d)| d + DEPTH_MARGIN < depth) {
                let cols = xs.iter().enumerate().fold(0u16, |m, (ix, &x)| {
                    m | (u16::from(x >= o.x1 && x < o.x2) << ix)
                });
                if cols == 0 {
                    continue;
                }
                for (row, &y) in rows.iter_mut().zip(&ys) {
                    if y >= o.y1 && y < o.y2 {
                        *row |= cols;
                    }
                }
            }
            let covered: u32 = rows.iter().map(|r| r.count_ones()).sum();
            covered as f32 / (GRID * GRID) as f32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-point sweep the lattice replaced: every sample point of
    /// every box is tested against each nearer box. Kept as the semantic
    /// definition of [`occlusion_fractions`], which must match it bit for
    /// bit.
    fn occlusion_fractions_reference(items: &[(Box2, f32)]) -> Vec<f32> {
        items
            .iter()
            .map(|&(b, depth)| {
                if !b.is_valid() {
                    return 0.0;
                }
                let occluders: Vec<&Box2> = items
                    .iter()
                    .filter(|&&(_, d)| d + DEPTH_MARGIN < depth)
                    .map(|(ob, _)| ob)
                    .collect();
                if occluders.is_empty() {
                    return 0.0;
                }
                let mut covered = 0usize;
                let dx = b.width() / GRID as f32;
                let dy = b.height() / GRID as f32;
                for iy in 0..GRID {
                    let y = b.y1 + (iy as f32 + 0.5) * dy;
                    for ix in 0..GRID {
                        let x = b.x1 + (ix as f32 + 0.5) * dx;
                        if occluders.iter().any(|o| o.contains_point(x, y)) {
                            covered += 1;
                        }
                    }
                }
                covered as f32 / (GRID * GRID) as f32
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// Sample ordinate `i` of the span `[lo, hi)`, as both paths compute
    /// it.
    fn ordinate(lo: f32, hi: f32, i: usize) -> f32 {
        lo + (i as f32 + 0.5) * ((hi - lo).max(0.0) / GRID as f32)
    }

    /// Side `side` (x1, y1, x2, y2) of drawn box `i`, as kind `kind`: a
    /// few kinds are NaN or an infinity, a few put the edge exactly on a
    /// sample ordinate of a box on the same axis, and the rest keep the
    /// drawn half-pixel value, so edges and ordinates of different boxes
    /// coincide often.
    fn edge(kind: usize, side: usize, base: &[[f32; 4]], i: usize, pick: usize) -> f32 {
        match kind {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3..=7 => {
                let o = base[(pick + kind) % base.len()];
                let axis = side % 2;
                ordinate(o[axis], o[axis + 2], (pick / base.len() + kind) % GRID)
            }
            _ => base[i][side],
        }
    }

    /// Depths on a half-metre ladder, so pairs exactly `DEPTH_MARGIN`
    /// apart are common, plus NaN and both infinities.
    fn depth(kind: usize) -> f32 {
        match kind {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            k => k as f32 * DEPTH_MARGIN,
        }
    }

    /// Edges exactly on a sample ordinate, the first and last included:
    /// `[x1, x2)` admits an ordinate equal to `x1` and rejects one equal
    /// to `x2`, on both axes.
    #[test]
    fn edges_on_sample_ordinates_follow_the_half_open_test() {
        // Ordinates 0.5, 1.5, …, 11.5 on both axes.
        let far = (Box2::new(0.0, 0.0, 12.0, 12.0), 30.0);
        for (near, samples) in [
            // Columns 0..=10, rows 1..=11.
            (Box2::new(0.5, 1.5, 11.5, 12.0), 11 * 11),
            // The last column and the last row.
            (Box2::new(11.5, 0.0, 12.0, 12.0), 12),
            (Box2::new(0.0, 11.5, 12.0, 12.0), 12),
            (Box2::new(11.5, 11.5, 20.0, 20.0), 1),
            // Ending on the first ordinate covers nothing.
            (Box2::new(-5.0, 0.0, 0.5, 12.0), 0),
            (Box2::new(0.0, -5.0, 12.0, 0.5), 0),
            // Just past the first ordinate covers the first column.
            (Box2::new(-5.0, 0.0, 0.75, 12.0), 12),
        ] {
            let items = [far, (near, 10.0)];
            let occ = occlusion_fractions(&items);
            assert_eq!(occ[0], samples as f32 / 144.0, "{near:?}");
            assert_eq!(bits(&occ), bits(&occlusion_fractions_reference(&items)));
        }
    }

    /// A NaN occluder edge fails both halves of the test, so the occluder
    /// covers nothing; infinite edges bound nothing.
    #[test]
    fn nan_and_infinite_occluder_edges_follow_the_point_sweep() {
        let far = (Box2::new(0.0, 0.0, 12.0, 12.0), 30.0);
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        for (near, samples) in [
            (Box2::new(nan, 0.0, 12.0, 12.0), 0),
            (Box2::new(0.0, nan, 12.0, 12.0), 0),
            (Box2::new(0.0, 0.0, nan, 12.0), 0),
            (Box2::new(0.0, 0.0, 12.0, nan), 0),
            (Box2::new(-inf, -inf, inf, inf), 144),
            (Box2::new(-inf, 6.0, 6.0, inf), 36),
            (Box2::new(inf, 0.0, inf, 12.0), 0),
        ] {
            let items = [far, (near, 10.0)];
            let occ = occlusion_fractions(&items);
            assert_eq!(occ[0], samples as f32 / 144.0, "{near:?}");
            assert_eq!(bits(&occ), bits(&occlusion_fractions_reference(&items)));
        }
    }

    #[test]
    fn depths_exactly_the_margin_apart_do_not_occlude() {
        let a = (Box2::new(0.0, 0.0, 10.0, 10.0), 20.0);
        let b = (Box2::new(0.0, 0.0, 10.0, 10.0), 20.0 + DEPTH_MARGIN);
        assert_eq!(occlusion_fractions(&[a, b]), vec![0.0, 0.0]);
        let c = (Box2::new(0.0, 0.0, 10.0, 10.0), 20.0 + 2.0 * DEPTH_MARGIN);
        assert_eq!(occlusion_fractions(&[a, c]), vec![0.0, 1.0]);
    }

    #[test]
    fn empty_input() {
        assert!(occlusion_fractions(&[]).is_empty());
    }

    #[test]
    fn single_object_unoccluded() {
        let occ = occlusion_fractions(&[(Box2::new(0.0, 0.0, 10.0, 10.0), 20.0)]);
        assert_eq!(occ, vec![0.0]);
    }

    #[test]
    fn nearer_object_occludes_farther_not_vice_versa() {
        let far = (Box2::new(0.0, 0.0, 10.0, 10.0), 30.0);
        let near = (Box2::new(0.0, 0.0, 10.0, 10.0), 10.0);
        let occ = occlusion_fractions(&[far, near]);
        assert!(occ[0] > 0.95);
        assert_eq!(occ[1], 0.0);
    }

    #[test]
    fn half_cover_is_about_half() {
        let far = (Box2::new(0.0, 0.0, 10.0, 10.0), 30.0);
        let near = (Box2::new(5.0, 0.0, 15.0, 10.0), 10.0);
        let occ = occlusion_fractions(&[far, near]);
        assert!((occ[0] - 0.5).abs() < 0.1, "{}", occ[0]);
    }

    #[test]
    fn similar_depth_does_not_occlude() {
        // Within the depth margin: treated as side-by-side, not occluding.
        let a = (Box2::new(0.0, 0.0, 10.0, 10.0), 20.0);
        let b = (Box2::new(0.0, 0.0, 10.0, 10.0), 20.2);
        let occ = occlusion_fractions(&[a, b]);
        assert_eq!(occ, vec![0.0, 0.0]);
    }

    #[test]
    fn union_of_two_occluders() {
        let far = (Box2::new(0.0, 0.0, 10.0, 10.0), 40.0);
        let left = (Box2::new(0.0, 0.0, 5.0, 10.0), 10.0);
        let right = (Box2::new(5.0, 0.0, 10.0, 10.0), 12.0);
        let occ = occlusion_fractions(&[far, left, right]);
        assert!(occ[0] > 0.95);
    }

    #[test]
    fn overlapping_occluders_not_double_counted() {
        let far = (Box2::new(0.0, 0.0, 10.0, 10.0), 40.0);
        let a = (Box2::new(0.0, 0.0, 6.0, 10.0), 10.0);
        let b = (Box2::new(0.0, 0.0, 6.0, 10.0), 11.0);
        let occ = occlusion_fractions(&[far, a, b]);
        assert!((occ[0] - 0.6).abs() < 0.1);
    }

    #[test]
    fn degenerate_box_reports_zero() {
        let bad = (Box2::new(5.0, 5.0, 5.0, 5.0), 30.0);
        let near = (Box2::new(0.0, 0.0, 10.0, 10.0), 10.0);
        let occ = occlusion_fractions(&[bad, near]);
        assert_eq!(occ[0], 0.0);
    }

    proptest! {
        #[test]
        fn prop_fractions_in_unit_interval(
            items in proptest::collection::vec(
                (0.0f32..100.0, 0.0f32..100.0, 1.0f32..40.0, 1.0f32..40.0, 1.0f32..80.0),
                0..12),
        ) {
            let boxes: Vec<(Box2, f32)> = items
                .iter()
                .map(|&(x, y, w, h, d)| (Box2::from_xywh(x, y, w, h), d))
                .collect();
            for f in occlusion_fractions(&boxes) {
                prop_assert!((0.0..=1.0).contains(&f));
            }
        }

        #[test]
        fn prop_nearest_object_is_never_occluded(
            items in proptest::collection::vec(
                (0.0f32..100.0, 0.0f32..100.0, 1.0f32..40.0, 1.0f32..40.0, 1.0f32..80.0),
                1..12),
        ) {
            let boxes: Vec<(Box2, f32)> = items
                .iter()
                .map(|&(x, y, w, h, d)| (Box2::from_xywh(x, y, w, h), d))
                .collect();
            let occ = occlusion_fractions(&boxes);
            let nearest = boxes
                .iter()
                .enumerate()
                .min_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            prop_assert_eq!(occ[nearest], 0.0);
        }

        #[test]
        fn prop_lattice_matches_the_point_sweep_bit_for_bit(
            drawn in proptest::collection::vec(
                (
                    (0usize..24, 0usize..24, 0usize..24, 0usize..24),
                    (0.0f32..64.0, 0.0f32..64.0, 0.0f32..40.0, 0.0f32..40.0),
                    (0usize..4, 0usize..4),
                    0usize..24,
                    0usize..1000,
                ),
                0..14),
        ) {
            // Every box's finite half-pixel edges first (a zero-size kind
            // collapses a side), then the special edges, which may snap
            // onto any box's ordinates.
            let half = |v: f32| (v * 2.0).round() / 2.0;
            let base: Vec<[f32; 4]> = drawn
                .iter()
                .map(|&(_, (x, y, w, h), (zw, zh), _, _)| {
                    let w = if zw == 0 { 0.0 } else { half(w) };
                    let h = if zh == 0 { 0.0 } else { half(h) };
                    [half(x), half(y), half(x) + w, half(y) + h]
                })
                .collect();
            let items: Vec<(Box2, f32)> = drawn
                .iter()
                .enumerate()
                .map(|(i, &((k0, k1, k2, k3), _, _, kd, pick))| {
                    let side = |side, k| edge(k, side, &base, i, pick);
                    let b = Box2::new(side(0, k0), side(1, k1), side(2, k2), side(3, k3));
                    (b, depth(kd))
                })
                .collect();
            prop_assert_eq!(
                bits(&occlusion_fractions(&items)),
                bits(&occlusion_fractions_reference(&items))
            );
        }

        #[test]
        fn prop_edges_on_the_target_ordinates_match_the_point_sweep(
            target in (0.0f32..64.0, 0.0f32..64.0, 0.0f32..40.0, 0.0f32..40.0),
            occluders in proptest::collection::vec(
                ((0usize..16, 0usize..16, 0usize..16, 0usize..16), 0usize..4),
                1..4),
        ) {
            // Every occluder edge sits on one of the target's ordinates
            // on its axis (first and last included), or just outside the
            // target; depths are 0 to 3 margins nearer.
            let half = |v: f32| (v * 2.0).round() / 2.0;
            let (x, y) = (half(target.0), half(target.1));
            let t = [x, y, x + half(target.2), y + half(target.3)];
            let at = |side: usize, k: usize| match k {
                12 => t[side % 2] - 1.0,
                13.. => t[side % 2 + 2] + 1.0,
                k => ordinate(t[side % 2], t[side % 2 + 2], k),
            };
            let mut items = vec![(Box2::new(t[0], t[1], t[2], t[3]), 40.0)];
            for &((k0, k1, k2, k3), margins) in &occluders {
                let b = Box2::new(at(0, k0), at(1, k1), at(2, k2), at(3, k3));
                items.push((b, 40.0 - margins as f32 * DEPTH_MARGIN));
            }
            prop_assert_eq!(
                bits(&occlusion_fractions(&items)),
                bits(&occlusion_fractions_reference(&items))
            );
        }

        #[test]
        fn prop_adding_occluder_monotone(
            x in 0.0f32..50.0, y in 0.0f32..50.0,
            ox in 0.0f32..50.0, oy in 0.0f32..50.0,
        ) {
            let target = (Box2::from_xywh(x, y, 20.0, 20.0), 50.0);
            let occluder = (Box2::from_xywh(ox, oy, 15.0, 15.0), 10.0);
            let without = occlusion_fractions(&[target])[0];
            let with = occlusion_fractions(&[target, occluder])[0];
            prop_assert!(with >= without);
        }
    }
}
