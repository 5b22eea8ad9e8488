//! System factories: build fresh, independent detection pipelines.
//!
//! A serving layer (see the `catdet-serve` crate) runs many concurrent
//! streams, each needing its *own* [`DetectionSystem`] — tracker state and
//! detector noise state must never be shared between cameras. A
//! [`SystemFactory`] is the recipe that stamps those instances out.
//!
//! Any `Fn() -> Box<dyn DetectionSystem> + Send + Sync` closure is a
//! factory; [`PresetFactory`] covers the paper's systems at arbitrary
//! camera geometries.

use crate::cascade::CascadedSystem;
use crate::catdet::CaTDetSystem;
use crate::single::SingleModelSystem;
use crate::stage::{MonolithicStages, StagedDetector};
use crate::system::{DetectionSystem, SystemConfig};
use catdet_detector::zoo;

/// A recipe for building fresh, state-isolated detection pipelines.
///
/// Factories are shared across serving threads, hence the `Send + Sync`
/// bound; the systems they build are `Send` (but not shared) so each can
/// move with its stream to whichever thread runs it.
pub trait SystemFactory: Send + Sync {
    /// Builds a new pipeline with no temporal state.
    fn build(&self) -> Box<dyn DetectionSystem>;

    /// Builds a new pipeline exposing the resumable stage protocol.
    ///
    /// The default wraps [`build`](Self::build) in [`MonolithicStages`],
    /// so every factory yields a staged pipeline; factories whose systems
    /// are natively staged (like [`PresetFactory`]) override this to hand
    /// the scheduler real suspend points with up-front pricing.
    fn build_staged(&self) -> Box<dyn StagedDetector> {
        Box::new(MonolithicStages::new(self.build()))
    }

    /// Human-readable name of the systems this factory builds.
    fn system_name(&self) -> String {
        self.build().name()
    }
}

impl<F> SystemFactory for F
where
    F: Fn() -> Box<dyn DetectionSystem> + Send + Sync,
{
    fn build(&self) -> Box<dyn DetectionSystem> {
        self()
    }
}

/// The paper's named system configurations (Fig. 1 / Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// ResNet-10a proposal + ResNet-50 refinement + tracker.
    CatdetA,
    /// ResNet-10b proposal + ResNet-50 refinement + tracker.
    CatdetB,
    /// ResNet-10a proposal + ResNet-50 refinement, no tracker.
    CascadeA,
    /// ResNet-10b proposal + ResNet-50 refinement, no tracker.
    CascadeB,
    /// Full-frame ResNet-50 Faster R-CNN on every frame.
    SingleResnet50,
}

impl SystemKind {
    /// All kinds, for CLI help and sweeps.
    pub const ALL: [SystemKind; 5] = [
        SystemKind::CatdetA,
        SystemKind::CatdetB,
        SystemKind::CascadeA,
        SystemKind::CascadeB,
        SystemKind::SingleResnet50,
    ];

    /// Stable CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::CatdetA => "catdet-a",
            SystemKind::CatdetB => "catdet-b",
            SystemKind::CascadeA => "cascade-a",
            SystemKind::CascadeB => "cascade-b",
            SystemKind::SingleResnet50 => "single-resnet50",
        }
    }

    /// Parses a CLI name (the inverse of [`SystemKind::name`]),
    /// case-insensitively: `CatDet-A` and `CATDET-A` both parse.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }
}

/// Factory for a [`SystemKind`] at a given camera geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PresetFactory {
    /// Which system to build.
    pub kind: SystemKind,
    /// Frame width in pixels.
    pub width: f32,
    /// Frame height in pixels.
    pub height: f32,
    /// Cascade thresholds (ignored by the single-model system).
    pub config: SystemConfig,
}

impl PresetFactory {
    /// Factory at an explicit geometry with the paper's thresholds.
    pub fn new(kind: SystemKind, width: f32, height: f32) -> Self {
        Self {
            kind,
            width,
            height,
            config: SystemConfig::paper(),
        }
    }

    /// Factory at the KITTI camera geometry (1242×375).
    pub fn kitti(kind: SystemKind) -> Self {
        Self::new(kind, 1242.0, 375.0)
    }

    /// Factory at the CityPersons camera geometry (2048×1024).
    pub fn citypersons(kind: SystemKind) -> Self {
        Self::new(kind, 2048.0, 1024.0)
    }

    /// Returns a copy with different cascade thresholds.
    pub fn with_config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }
}

/// Expands to the `PresetFactory` kind match, boxing each concrete system
/// as the requested trait object — the single source of truth behind both
/// `build` (monolithic view, via the blanket impl) and `build_staged`.
macro_rules! build_preset {
    ($self:ident, $trait:ty) => {{
        let (w, h, cfg) = ($self.width, $self.height, $self.config);
        match $self.kind {
            SystemKind::CatdetA => Box::new(CaTDetSystem::new(
                zoo::resnet10a(2),
                zoo::resnet50(2),
                w,
                h,
                cfg,
            )) as Box<$trait>,
            SystemKind::CatdetB => Box::new(CaTDetSystem::new(
                zoo::resnet10b(2),
                zoo::resnet50(2),
                w,
                h,
                cfg,
            )),
            SystemKind::CascadeA => Box::new(CascadedSystem::new(
                zoo::resnet10a(2),
                zoo::resnet50(2),
                w,
                h,
                cfg,
            )),
            SystemKind::CascadeB => Box::new(CascadedSystem::new(
                zoo::resnet10b(2),
                zoo::resnet50(2),
                w,
                h,
                cfg,
            )),
            SystemKind::SingleResnet50 => Box::new(SingleModelSystem::new(zoo::resnet50(2), w, h)),
        }
    }};
}

impl SystemFactory for PresetFactory {
    fn build(&self) -> Box<dyn DetectionSystem> {
        build_preset!(self, dyn DetectionSystem)
    }

    fn build_staged(&self) -> Box<dyn StagedDetector> {
        build_preset!(self, dyn StagedDetector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdet_data::kitti_like;

    #[test]
    fn closures_are_factories() {
        let f = || Box::new(CaTDetSystem::catdet_a()) as Box<dyn DetectionSystem>;
        let sys = SystemFactory::build(&f);
        assert!(sys.name().contains("CaTDet"));
        assert_eq!(f.system_name(), sys.name());
    }

    #[test]
    fn preset_instances_are_state_isolated() {
        let factory = PresetFactory::kitti(SystemKind::CatdetA);
        let ds = kitti_like().sequences(1).frames_per_sequence(15).build();
        let frames = ds.sequences()[0].frames();
        // Run one instance to build up tracker state…
        let mut warm = factory.build();
        for f in frames {
            warm.process_frame(f);
        }
        // …then a fresh build must behave exactly like an untouched system.
        let mut fresh = factory.build();
        let mut reference = factory.build();
        for f in frames {
            assert_eq!(
                fresh.process_frame(f).detections,
                reference.process_frame(f).detections
            );
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in SystemKind::ALL {
            assert_eq!(SystemKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SystemKind::from_name("nope"), None);
    }

    #[test]
    fn kind_names_parse_case_insensitively() {
        for kind in SystemKind::ALL {
            assert_eq!(
                SystemKind::from_name(&kind.name().to_ascii_uppercase()),
                Some(kind)
            );
        }
        assert_eq!(SystemKind::from_name("CatDet-A"), Some(SystemKind::CatdetA));
        assert_eq!(SystemKind::from_name("catdet a"), None);
    }

    #[test]
    fn staged_and_monolithic_builds_agree() {
        use crate::stage::drive_frame;
        let ds = kitti_like().sequences(1).frames_per_sequence(10).build();
        for kind in SystemKind::ALL {
            let factory = PresetFactory::kitti(kind);
            let mut mono = factory.build();
            let mut staged = factory.build_staged();
            for f in ds.sequences()[0].frames() {
                assert_eq!(
                    mono.process_frame(f),
                    drive_frame(&mut staged, f),
                    "{} diverged between build() and build_staged()",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn closure_factories_get_staged_builds_by_adaptation() {
        use crate::stage::drive_frame;
        let f = || Box::new(CaTDetSystem::catdet_a()) as Box<dyn DetectionSystem>;
        let ds = kitti_like().sequences(1).frames_per_sequence(8).build();
        let mut mono = SystemFactory::build(&f);
        let mut staged = SystemFactory::build_staged(&f);
        for frame in ds.sequences()[0].frames() {
            assert_eq!(mono.process_frame(frame), drive_frame(&mut staged, frame));
        }
    }

    #[test]
    fn presets_build_every_kind() {
        for kind in SystemKind::ALL {
            let sys = PresetFactory::kitti(kind).build();
            assert!(!sys.name().is_empty());
        }
    }

    #[test]
    fn citypersons_geometry_is_applied() {
        let factory = PresetFactory::citypersons(SystemKind::SingleResnet50);
        let mut sys = factory.build();
        // A 2048×1024 single-model frame costs measurably more than a KITTI
        // frame (the trunk scales with pixels; the per-RoI head does not).
        let frame = catdet_data::Frame {
            sequence_id: 0,
            index: 0,
            ground_truth: vec![],
            labeled: true,
        };
        let big = sys.process_frame(&frame).ops.total();
        let mut kitti = PresetFactory::kitti(SystemKind::SingleResnet50).build();
        let small = kitti.process_frame(&frame).ops.total();
        assert!(big > small * 1.2, "big {big} vs small {small}");
    }
}
