//! The buffers of a stage call belong to the calling thread, and no
//! result depends on them.
//!
//! A pipeline keeps only what lives between its frames; everything a
//! single stage call uses — detections, NMS buffers, coverage rasters,
//! the region sweep's grids, the tracker's association buffers — is the
//! calling thread's, shared by every pipeline the thread drives. So a
//! pipeline must produce the same outputs whichever pipelines ran on its
//! thread before each of its calls, and wherever its calls run. Here six
//! pipelines of four kinds and two frame sizes share one thread frame by
//! frame, and one of them moves to a second thread between the proposal
//! and the refinement of a frame and finishes its sequence there. Each
//! must give, frame for frame, what it gives run alone on a fresh thread.

use catdet_core::{
    drive_frame, CaTDetSystem, CascadedSystem, FrameOutput, PolicedPipeline, PolicyConfig,
    PolicyDecision, SingleModelSystem, StageStep, StagedDetector, SystemConfig,
};
use catdet_data::{citypersons_like, kitti_like, Frame};
use catdet_detector::zoo;

/// A pipeline kind and the frames it runs.
struct Lane {
    build: fn() -> Box<dyn StagedDetector>,
    frames: Vec<Frame>,
}

fn catdet_kitti() -> Box<dyn StagedDetector> {
    Box::new(CaTDetSystem::catdet_a())
}

fn catdet_wide() -> Box<dyn StagedDetector> {
    Box::new(CaTDetSystem::new(
        zoo::resnet10a(2),
        zoo::resnet50(2),
        2048.0,
        1024.0,
        SystemConfig::paper(),
    ))
}

fn cascade() -> Box<dyn StagedDetector> {
    Box::new(CascadedSystem::cascade_a())
}

fn single() -> Box<dyn StagedDetector> {
    Box::new(SingleModelSystem::resnet50_kitti())
}

fn coasting_catdet() -> Box<dyn StagedDetector> {
    Box::new(PolicedPipeline::new(
        catdet_kitti(),
        PolicyConfig::confidence_trigger(1.0),
    ))
}

/// The handed-off lane is the last one.
fn lanes() -> Vec<Lane> {
    let kitti = kitti_like().sequences(3).frames_per_sequence(40).build();
    let city = citypersons_like().sequences(1).build();
    let seq = |i: usize| kitti.sequences()[i].frames().to_vec();
    vec![
        Lane {
            build: catdet_kitti,
            frames: seq(0),
        },
        Lane {
            build: catdet_wide,
            frames: city.sequences()[0].frames().to_vec(),
        },
        Lane {
            build: cascade,
            frames: seq(1),
        },
        Lane {
            build: single,
            frames: seq(2),
        },
        Lane {
            build: coasting_catdet,
            frames: seq(1),
        },
        Lane {
            build: catdet_kitti,
            frames: seq(2),
        },
    ]
}

/// Frame at which the last lane's pipeline changes threads.
const HANDOFF: usize = 17;

/// Each frame's output and the policy decision behind it.
type Run = Vec<(FrameOutput, Option<PolicyDecision>)>;

fn drive(
    pipeline: &mut dyn StagedDetector,
    frame: &Frame,
) -> (FrameOutput, Option<PolicyDecision>) {
    let output = drive_frame(pipeline, frame);
    (output, pipeline.policy_decision())
}

/// `lane` run alone on a thread of its own.
fn alone(lane: &Lane) -> Run {
    let (build, frames) = (lane.build, lane.frames.clone());
    std::thread::spawn(move || {
        let mut pipeline = build();
        frames.iter().map(|f| drive(&mut *pipeline, f)).collect()
    })
    .join()
    .expect("the lone run panicked")
}

/// Every lane on this thread, one frame of each in turn, except that the
/// last lane's pipeline completes frame `HANDOFF`'s proposal here and
/// runs everything after it on a second thread, alongside this one.
fn interleaved(lanes: &[Lane]) -> Vec<Run> {
    let (shared, handed) = lanes.split_at(lanes.len() - 1);
    let handed = &handed[0];
    let mut pipelines: Vec<Box<dyn StagedDetector>> = shared.iter().map(|l| (l.build)()).collect();
    let mut runs: Vec<Run> = vec![Vec::new(); lanes.len()];
    let mut moving = (handed.build)();
    let longest = shared.iter().map(|l| l.frames.len()).max().unwrap_or(0);
    let mut round = |f: usize, runs: &mut [Run]| {
        for (i, lane) in shared.iter().enumerate() {
            if let Some(frame) = lane.frames.get(f) {
                runs[i].push(drive(&mut *pipelines[i], frame));
            }
        }
    };
    for f in 0..HANDOFF {
        round(f, &mut runs);
        runs[lanes.len() - 1].push(drive(&mut *moving, &handed.frames[f]));
    }
    moving.begin_frame(&handed.frames[HANDOFF]);
    let StageStep::NeedsProposal(work) = moving.step() else {
        panic!("a CaTDet frame starts at its proposal");
    };
    moving.complete_proposal(work);
    let (mine, theirs) = runs.split_at_mut(lanes.len() - 1);
    std::thread::scope(|scope| {
        let rest = scope.spawn(move || {
            let StageStep::NeedsRefinement(work) = moving.step() else {
                panic!("a proposal leads to a refinement");
            };
            moving.complete_refinement(work);
            let StageStep::Done(output) = moving.step() else {
                panic!("a refinement completes the frame");
            };
            let mut run = vec![(output, moving.policy_decision())];
            for frame in &handed.frames[HANDOFF + 1..] {
                run.push(drive(&mut *moving, frame));
            }
            run
        });
        for f in HANDOFF..longest {
            round(f, mine);
        }
        theirs[0].extend(rest.join().expect("the handed-off run panicked"));
    });
    runs
}

#[test]
fn interleaved_and_handed_off_pipelines_match_their_lone_runs() {
    let lanes = lanes();
    let runs = interleaved(&lanes);
    for (i, (lane, run)) in lanes.iter().zip(&runs).enumerate() {
        let reference = alone(lane);
        assert_eq!(run.len(), lane.frames.len(), "lane {i} lost frames");
        for (f, (got, want)) in run.iter().zip(&reference).enumerate() {
            assert_eq!(got, want, "lane {i} diverged at frame {f}");
        }
        assert!(
            run.iter().any(|(out, _)| !out.detections.is_empty()),
            "lane {i} never detected anything"
        );
    }
    let coasted = runs[4]
        .iter()
        .filter(|(_, d)| *d == Some(PolicyDecision::Coast))
        .count();
    assert!(coasted >= 5, "the policied lane coasted {coasted} frames");
}
