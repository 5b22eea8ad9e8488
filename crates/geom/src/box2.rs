//! Axis-aligned 2-D bounding boxes.
//!
//! Boxes use image conventions: `x` grows rightwards, `y` grows downwards,
//! and a box is the half-open region `[x1, x2) × [y1, y2)` in continuous
//! coordinates. Degenerate boxes (`x2 <= x1` or `y2 <= y1`) are permitted
//! and have zero area; every operation treats them consistently.

/// An axis-aligned bounding box in image coordinates.
///
/// # Example
///
/// ```
/// use catdet_geom::Box2;
///
/// let b = Box2::from_cxcywh(50.0, 50.0, 20.0, 10.0);
/// assert_eq!(b.width(), 20.0);
/// assert_eq!(b.height(), 10.0);
/// assert_eq!(b.center(), (50.0, 50.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Box2 {
    /// Left edge.
    pub x1: f32,
    /// Top edge.
    pub y1: f32,
    /// Right edge.
    pub x2: f32,
    /// Bottom edge.
    pub y2: f32,
}

impl Box2 {
    /// Creates a box from its corner coordinates.
    ///
    /// The coordinates are stored as given; a box with `x2 < x1` or
    /// `y2 < y1` is degenerate and has zero [`area`](Self::area).
    #[inline]
    pub fn new(x1: f32, y1: f32, x2: f32, y2: f32) -> Self {
        Self { x1, y1, x2, y2 }
    }

    /// Creates a box from a center point, width and height.
    #[inline]
    pub fn from_cxcywh(cx: f32, cy: f32, w: f32, h: f32) -> Self {
        Self::new(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
    }

    /// Creates a box from its top-left corner, width and height.
    #[inline]
    pub fn from_xywh(x: f32, y: f32, w: f32, h: f32) -> Self {
        Self::new(x, y, x + w, y + h)
    }

    /// Width of the box (zero if degenerate).
    #[inline]
    pub fn width(&self) -> f32 {
        (self.x2 - self.x1).max(0.0)
    }

    /// Height of the box (zero if degenerate).
    #[inline]
    pub fn height(&self) -> f32 {
        (self.y2 - self.y1).max(0.0)
    }

    /// Area of the box (zero if degenerate).
    #[inline]
    pub fn area(&self) -> f32 {
        self.width() * self.height()
    }

    /// Center point `(cx, cy)`.
    #[inline]
    pub fn center(&self) -> (f32, f32) {
        ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)
    }

    /// Height-to-width aspect ratio, as used by the tracker state.
    ///
    /// Returns `0.0` for boxes with zero width.
    #[inline]
    pub fn aspect(&self) -> f32 {
        let w = self.width();
        if w > 0.0 {
            self.height() / w
        } else {
            0.0
        }
    }

    /// Returns `true` if the box has positive area.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.x2 > self.x1 && self.y2 > self.y1
    }

    /// Intersection of two boxes, or `None` if they do not overlap.
    #[inline]
    pub fn intersection(&self, other: &Box2) -> Option<Box2> {
        let b = Box2::new(
            self.x1.max(other.x1),
            self.y1.max(other.y1),
            self.x2.min(other.x2),
            self.y2.min(other.y2),
        );
        if b.is_valid() {
            Some(b)
        } else {
            None
        }
    }

    /// Area of the intersection of two boxes.
    #[inline]
    pub fn intersection_area(&self, other: &Box2) -> f32 {
        let w = (self.x2.min(other.x2) - self.x1.max(other.x1)).max(0.0);
        let h = (self.y2.min(other.y2) - self.y1.max(other.y1)).max(0.0);
        w * h
    }

    /// Intersection-over-union of two boxes.
    ///
    /// Returns `0.0` when the union has zero area.
    #[inline]
    pub fn iou(&self, other: &Box2) -> f32 {
        let inter = self.intersection_area(other);
        let union = self.area() + other.area() - inter;
        if union > 0.0 {
            inter / union
        } else {
            0.0
        }
    }

    /// Fraction of `self`'s area covered by `other`.
    ///
    /// Used for occlusion and region-coverage computations; returns `0.0`
    /// when `self` has zero area.
    #[inline]
    pub fn overlap_fraction(&self, other: &Box2) -> f32 {
        let a = self.area();
        if a > 0.0 {
            self.intersection_area(other) / a
        } else {
            0.0
        }
    }

    /// Smallest box enclosing both `self` and `other`.
    #[inline]
    pub fn union_bounds(&self, other: &Box2) -> Box2 {
        Box2::new(
            self.x1.min(other.x1),
            self.y1.min(other.y1),
            self.x2.max(other.x2),
            self.y2.max(other.y2),
        )
    }

    /// Clips the box to the frame `[0, w] × [0, h]`.
    #[inline]
    pub fn clip(&self, w: f32, h: f32) -> Box2 {
        Box2::new(
            self.x1.clamp(0.0, w),
            self.y1.clamp(0.0, h),
            self.x2.clamp(0.0, w),
            self.y2.clamp(0.0, h),
        )
    }

    /// Expands the box by `margin` pixels on every side.
    ///
    /// The refinement network appends a fixed margin around each proposal so
    /// the convolutional receptive field sees enough context (the paper uses
    /// 30 px). A negative margin shrinks the box.
    #[inline]
    pub fn dilate(&self, margin: f32) -> Box2 {
        Box2::new(
            self.x1 - margin,
            self.y1 - margin,
            self.x2 + margin,
            self.y2 + margin,
        )
    }

    /// Returns `true` if the point lies inside the box.
    #[inline]
    pub fn contains_point(&self, x: f32, y: f32) -> bool {
        x >= self.x1 && x < self.x2 && y >= self.y1 && y < self.y2
    }

    /// Returns `true` if `other` lies entirely within `self`.
    #[inline]
    pub fn contains_box(&self, other: &Box2) -> bool {
        other.x1 >= self.x1 && other.y1 >= self.y1 && other.x2 <= self.x2 && other.y2 <= self.y2
    }

    /// Fraction of the box area that falls outside the frame `[0,w]×[0,h]`.
    ///
    /// This is the *truncation* value used by KITTI-style difficulty
    /// filters. Returns `0.0` for degenerate boxes.
    #[inline]
    pub fn truncation(&self, w: f32, h: f32) -> f32 {
        let a = self.area();
        if a <= 0.0 {
            return 0.0;
        }
        let vis = self.clip(w, h).area();
        (1.0 - vis / a).clamp(0.0, 1.0)
    }

    /// Translates the box by `(dx, dy)`.
    #[inline]
    pub fn translate(&self, dx: f32, dy: f32) -> Box2 {
        Box2::new(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)
    }

    /// Scales the box around its center by `factor`.
    #[inline]
    pub fn scale_around_center(&self, factor: f32) -> Box2 {
        let (cx, cy) = self.center();
        Box2::from_cxcywh(cx, cy, self.width() * factor, self.height() * factor)
    }
}

impl Default for Box2 {
    fn default() -> Self {
        Box2::new(0.0, 0.0, 0.0, 0.0)
    }
}

impl std::fmt::Display for Box2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:.1}, {:.1}, {:.1}, {:.1}]",
            self.x1, self.y1, self.x2, self.y2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn area_and_dims() {
        let b = Box2::new(1.0, 2.0, 4.0, 8.0);
        assert_eq!(b.width(), 3.0);
        assert_eq!(b.height(), 6.0);
        assert_eq!(b.area(), 18.0);
        assert!(close(b.aspect(), 2.0));
    }

    #[test]
    fn degenerate_box_has_zero_area() {
        let b = Box2::new(5.0, 5.0, 3.0, 9.0);
        assert_eq!(b.width(), 0.0);
        assert_eq!(b.area(), 0.0);
        assert!(!b.is_valid());
        assert_eq!(b.aspect(), 0.0);
    }

    #[test]
    fn iou_identical_is_one() {
        let b = Box2::new(0.0, 0.0, 10.0, 10.0);
        assert!(close(b.iou(&b), 1.0));
    }

    #[test]
    fn iou_disjoint_is_zero() {
        let a = Box2::new(0.0, 0.0, 10.0, 10.0);
        let b = Box2::new(20.0, 20.0, 30.0, 30.0);
        assert_eq!(a.iou(&b), 0.0);
        assert!(a.intersection(&b).is_none());
    }

    #[test]
    fn iou_partial_overlap() {
        let a = Box2::new(0.0, 0.0, 10.0, 10.0);
        let b = Box2::new(5.0, 0.0, 15.0, 10.0);
        // intersection 50, union 150
        assert!(close(a.iou(&b), 1.0 / 3.0));
    }

    #[test]
    fn intersection_bounds() {
        let a = Box2::new(0.0, 0.0, 10.0, 10.0);
        let b = Box2::new(5.0, 5.0, 15.0, 15.0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Box2::new(5.0, 5.0, 10.0, 10.0));
    }

    #[test]
    fn union_bounds_encloses_both() {
        let a = Box2::new(0.0, 0.0, 4.0, 4.0);
        let b = Box2::new(10.0, -2.0, 12.0, 3.0);
        let u = a.union_bounds(&b);
        assert!(u.contains_box(&a));
        assert!(u.contains_box(&b));
        assert_eq!(u, Box2::new(0.0, -2.0, 12.0, 4.0));
    }

    #[test]
    fn clip_to_frame() {
        let b = Box2::new(-5.0, -5.0, 20.0, 8.0);
        let c = b.clip(10.0, 10.0);
        assert_eq!(c, Box2::new(0.0, 0.0, 10.0, 8.0));
    }

    #[test]
    fn dilate_grows_every_side() {
        let b = Box2::new(10.0, 10.0, 20.0, 20.0);
        let d = b.dilate(30.0);
        assert_eq!(d, Box2::new(-20.0, -20.0, 50.0, 50.0));
        assert_eq!(d.dilate(-30.0), b);
    }

    #[test]
    fn truncation_fraction() {
        // Half of the box hangs off the left edge of a 100x100 frame.
        let b = Box2::new(-10.0, 0.0, 10.0, 10.0);
        assert!(close(b.truncation(100.0, 100.0), 0.5));
        let inside = Box2::new(5.0, 5.0, 20.0, 20.0);
        assert_eq!(inside.truncation(100.0, 100.0), 0.0);
    }

    #[test]
    fn overlap_fraction_asymmetric() {
        let small = Box2::new(0.0, 0.0, 10.0, 10.0);
        let big = Box2::new(0.0, 0.0, 100.0, 100.0);
        assert!(close(small.overlap_fraction(&big), 1.0));
        assert!(close(big.overlap_fraction(&small), 0.01));
    }

    #[test]
    fn from_cxcywh_roundtrip() {
        let b = Box2::from_cxcywh(50.0, 40.0, 20.0, 10.0);
        assert_eq!(b.center(), (50.0, 40.0));
        assert_eq!(b.width(), 20.0);
        assert_eq!(b.height(), 10.0);
    }

    #[test]
    fn display_is_nonempty() {
        let s = format!("{}", Box2::new(0.0, 1.0, 2.0, 3.0));
        assert!(s.contains("0.0"));
    }

    proptest! {
        #[test]
        fn prop_iou_symmetric(
            ax in -100.0f32..100.0, ay in -100.0f32..100.0,
            aw in 0.1f32..50.0, ah in 0.1f32..50.0,
            bx in -100.0f32..100.0, by in -100.0f32..100.0,
            bw in 0.1f32..50.0, bh in 0.1f32..50.0,
        ) {
            let a = Box2::from_xywh(ax, ay, aw, ah);
            let b = Box2::from_xywh(bx, by, bw, bh);
            prop_assert!((a.iou(&b) - b.iou(&a)).abs() < 1e-5);
        }

        #[test]
        fn prop_iou_bounded(
            ax in -100.0f32..100.0, ay in -100.0f32..100.0,
            aw in 0.1f32..50.0, ah in 0.1f32..50.0,
            bx in -100.0f32..100.0, by in -100.0f32..100.0,
            bw in 0.1f32..50.0, bh in 0.1f32..50.0,
        ) {
            let a = Box2::from_xywh(ax, ay, aw, ah);
            let b = Box2::from_xywh(bx, by, bw, bh);
            let iou = a.iou(&b);
            prop_assert!((0.0..=1.0 + 1e-6).contains(&iou));
        }

        #[test]
        fn prop_intersection_area_le_min_area(
            ax in -100.0f32..100.0, ay in -100.0f32..100.0,
            aw in 0.1f32..50.0, ah in 0.1f32..50.0,
            bx in -100.0f32..100.0, by in -100.0f32..100.0,
            bw in 0.1f32..50.0, bh in 0.1f32..50.0,
        ) {
            let a = Box2::from_xywh(ax, ay, aw, ah);
            let b = Box2::from_xywh(bx, by, bw, bh);
            let inter = a.intersection_area(&b);
            prop_assert!(inter <= a.area().min(b.area()) + 1e-3);
        }

        #[test]
        fn prop_union_contains_parts(
            ax in -100.0f32..100.0, ay in -100.0f32..100.0,
            aw in 0.1f32..50.0, ah in 0.1f32..50.0,
            bx in -100.0f32..100.0, by in -100.0f32..100.0,
            bw in 0.1f32..50.0, bh in 0.1f32..50.0,
        ) {
            let a = Box2::from_xywh(ax, ay, aw, ah);
            let b = Box2::from_xywh(bx, by, bw, bh);
            let u = a.union_bounds(&b);
            prop_assert!(u.contains_box(&a) && u.contains_box(&b));
            prop_assert!(u.area() + 1e-3 >= a.area().max(b.area()));
        }

        #[test]
        fn prop_clip_never_grows(
            ax in -200.0f32..200.0, ay in -200.0f32..200.0,
            aw in 0.1f32..100.0, ah in 0.1f32..100.0,
        ) {
            let a = Box2::from_xywh(ax, ay, aw, ah);
            let c = a.clip(100.0, 80.0);
            prop_assert!(c.area() <= a.area() + 1e-3);
            prop_assert!(c.x1 >= 0.0 && c.y1 >= 0.0 && c.x2 <= 100.0 && c.y2 <= 80.0);
        }

        #[test]
        fn prop_truncation_in_unit_range(
            ax in -500.0f32..500.0, ay in -500.0f32..500.0,
            aw in 0.1f32..100.0, ah in 0.1f32..100.0,
        ) {
            let a = Box2::from_xywh(ax, ay, aw, ah);
            let t = a.truncation(100.0, 80.0);
            prop_assert!((0.0..=1.0).contains(&t));
        }
    }
}
