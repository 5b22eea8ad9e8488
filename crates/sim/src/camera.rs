//! Pinhole camera model and cuboid projection.
//!
//! Coordinates follow the usual camera convention: `x` right, `y` down,
//! `z` forward (depth), all in metres. The ground plane sits at
//! `y = height_above_ground` (positive, because y points down). Actors are
//! modelled as upright cuboids standing on the ground; projecting the eight
//! cuboid corners and taking their 2-D bounds produces bounding boxes with
//! realistic perspective behaviour (aspect change while turning, width
//! inflation for close oncoming cars, and so on).

use catdet_geom::Box2;

/// A pinhole camera with KITTI-style intrinsics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraModel {
    /// Horizontal focal length in pixels.
    pub fx: f32,
    /// Vertical focal length in pixels.
    pub fy: f32,
    /// Principal point x.
    pub cx: f32,
    /// Principal point y.
    pub cy: f32,
    /// Image width in pixels.
    pub width: f32,
    /// Image height in pixels.
    pub height: f32,
    /// Camera height above the ground plane in metres.
    pub height_above_ground: f32,
}

impl CameraModel {
    /// The KITTI colour-camera setup: 1242×375 at f ≈ 721 px, mounted
    /// 1.65 m above the road.
    pub fn kitti() -> Self {
        Self {
            fx: 721.5,
            fy: 721.5,
            cx: 609.6,
            cy: 172.9,
            width: 1242.0,
            height: 375.0,
            height_above_ground: 1.65,
        }
    }

    /// The CityScapes/CityPersons setup: 2048×1024 at f ≈ 2262 px,
    /// mounted 1.22 m above the street.
    pub fn cityscapes() -> Self {
        Self {
            fx: 2262.5,
            fy: 2262.5,
            cx: 1096.9,
            cy: 513.1,
            width: 2048.0,
            height: 1024.0,
            height_above_ground: 1.22,
        }
    }

    /// Projects a camera-space point; returns `None` when at or behind the
    /// image plane (z below 0.1 m).
    pub fn project_point(&self, x: f32, y: f32, z: f32) -> Option<(f32, f32)> {
        if z < 0.1 {
            return None;
        }
        Some((self.cx + self.fx * x / z, self.cy + self.fy * y / z))
    }

    /// Projects an upright cuboid standing on the ground.
    ///
    /// The cuboid has its footprint centre at camera-space `(x, z)`, yaw
    /// `yaw` (radians, 0 = facing away along +z), and metric dimensions
    /// `(w, h, l)` = (lateral width, height, length). Returns the 2-D
    /// bounds of the eight projected corners, **unclipped** — callers clip
    /// to the frame and derive truncation from the difference. Returns
    /// `None` if any corner is behind the near plane (the object is partly
    /// behind the camera; KITTI would not annotate it either).
    pub fn project_cuboid(&self, x: f32, z: f32, yaw: f32, w: f32, h: f32, l: f32) -> Option<Box2> {
        let (hw, hl) = (w / 2.0, l / 2.0);
        let (s, c) = yaw.sin_cos();
        let y_bottom = self.height_above_ground;
        let y_top = self.height_above_ground - h;
        let mut min_u = f32::INFINITY;
        let mut max_u = f32::NEG_INFINITY;
        let mut min_v = f32::INFINITY;
        let mut max_v = f32::NEG_INFINITY;
        for &ox in &[-hw, hw] {
            for &oz in &[-hl, hl] {
                let dx = ox * c - oz * s;
                let dz = ox * s + oz * c;
                for &y in &[y_top, y_bottom] {
                    let (u, v) = self.project_point(x + dx, y, z + dz)?;
                    min_u = min_u.min(u);
                    max_u = max_u.max(u);
                    min_v = min_v.min(v);
                    max_v = max_v.max(v);
                }
            }
        }
        Some(Box2::new(min_u, min_v, max_u, max_v))
    }

    /// Returns `true` if the (unclipped) box overlaps the frame at all.
    pub fn in_frame(&self, b: &Box2) -> bool {
        b.clip(self.width, self.height).is_valid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn point_on_axis_projects_to_principal_point() {
        let cam = CameraModel::kitti();
        let (u, v) = cam.project_point(0.0, 0.0, 10.0).unwrap();
        assert!((u - cam.cx).abs() < 1e-4);
        assert!((v - cam.cy).abs() < 1e-4);
    }

    #[test]
    fn behind_camera_is_none() {
        let cam = CameraModel::kitti();
        assert!(cam.project_point(0.0, 0.0, -5.0).is_none());
        assert!(cam.project_point(0.0, 0.0, 0.0).is_none());
    }

    #[test]
    fn projected_height_follows_pinhole_law() {
        let cam = CameraModel::kitti();
        // A 1.8m-tall pedestrian at 20m: expected pixel height fy*h/z.
        let b = cam.project_cuboid(0.0, 20.0, 0.0, 0.6, 1.8, 0.5).unwrap();
        let expected = cam.fy * 1.8 / 20.0;
        // Corners at z = 20 +- 0.25 give slightly different heights.
        assert!((b.height() - expected).abs() / expected < 0.05);
    }

    #[test]
    fn size_shrinks_with_distance() {
        let cam = CameraModel::kitti();
        let near = cam.project_cuboid(0.0, 10.0, 0.0, 1.8, 1.5, 4.2).unwrap();
        let far = cam.project_cuboid(0.0, 60.0, 0.0, 1.8, 1.5, 4.2).unwrap();
        assert!(near.area() > 20.0 * far.area());
    }

    #[test]
    fn lateral_offset_moves_box_horizontally() {
        let cam = CameraModel::kitti();
        let left = cam.project_cuboid(-4.0, 20.0, 0.0, 1.8, 1.5, 4.2).unwrap();
        let right = cam.project_cuboid(4.0, 20.0, 0.0, 1.8, 1.5, 4.2).unwrap();
        assert!(left.center().0 < cam.cx);
        assert!(right.center().0 > cam.cx);
    }

    #[test]
    fn yawed_car_is_wider_than_head_on() {
        let cam = CameraModel::kitti();
        let head_on = cam.project_cuboid(0.0, 25.0, 0.0, 1.8, 1.5, 4.2).unwrap();
        let sideways = cam
            .project_cuboid(0.0, 25.0, std::f32::consts::FRAC_PI_2, 1.8, 1.5, 4.2)
            .unwrap();
        assert!(sideways.width() > 1.5 * head_on.width());
    }

    #[test]
    fn object_straddling_near_plane_is_rejected() {
        let cam = CameraModel::kitti();
        // Footprint centre at 2m but 4.2m long: rear corner behind camera.
        assert!(cam.project_cuboid(0.0, 2.0, 0.0, 1.8, 1.5, 4.2).is_none());
    }

    #[test]
    fn ground_objects_sit_below_horizon() {
        let cam = CameraModel::kitti();
        // The horizon line is at v = cy; grounded objects are below it.
        let b = cam.project_cuboid(0.0, 30.0, 0.0, 1.8, 1.5, 4.2).unwrap();
        assert!(b.y2 > cam.cy);
    }

    #[test]
    fn cityscapes_camera_has_higher_resolution() {
        let c = CameraModel::cityscapes();
        assert_eq!((c.width, c.height), (2048.0, 1024.0));
        // Same pedestrian at the same distance looks ~3x taller than KITTI.
        let k = CameraModel::kitti();
        let bc = c.project_cuboid(0.0, 20.0, 0.0, 0.6, 1.8, 0.5).unwrap();
        let bk = k.project_cuboid(0.0, 20.0, 0.0, 0.6, 1.8, 0.5).unwrap();
        assert!(bc.height() > 2.5 * bk.height());
    }

    proptest! {
        #[test]
        fn prop_projection_monotone_in_depth(
            x in -10.0f32..10.0,
            z1 in 5.0f32..50.0,
            dz in 1.0f32..50.0,
        ) {
            let cam = CameraModel::kitti();
            let near = cam.project_cuboid(x, z1, 0.0, 1.8, 1.5, 4.2);
            let far = cam.project_cuboid(x, z1 + dz, 0.0, 1.8, 1.5, 4.2);
            if let (Some(n), Some(f)) = (near, far) {
                prop_assert!(n.height() > f.height());
            }
        }

        #[test]
        fn prop_boxes_have_positive_extent(
            x in -20.0f32..20.0,
            z in 5.0f32..120.0,
            yaw in -3.2f32..3.2,
            w in 0.3f32..2.5,
            h in 0.5f32..2.5,
            l in 0.3f32..5.0,
        ) {
            let cam = CameraModel::kitti();
            if let Some(b) = cam.project_cuboid(x, z, yaw, w, h, l) {
                prop_assert!(b.is_valid());
            }
        }

        #[test]
        fn prop_bottom_edge_on_ground_row(
            x in -5.0f32..5.0,
            z in 8.0f32..100.0,
        ) {
            // For an object facing the camera dead-on, the bottom edge is
            // the projection of the nearest ground corner.
            let cam = CameraModel::kitti();
            if let Some(b) = cam.project_cuboid(x, z, 0.0, 1.8, 1.5, 4.2) {
                let (_, v) = cam
                    .project_point(x, cam.height_above_ground, z - 2.1)
                    .unwrap();
                prop_assert!((b.y2 - v).abs() < 1.0);
            }
        }
    }
}
