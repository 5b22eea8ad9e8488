//! Splitting the ingest pass changes nothing: `run_ingest` over every
//! client equals `run_ingest` over contiguous runs of them, merged in
//! slot order with `IngestOutcome::append` — whatever the client count,
//! the link faults, the door and the seed.

use catdet_data::{kitti_like, Frame, StreamFrame, StreamSource};
use catdet_net::{run_ingest, IngestOutcome, LinkParams, NetParams};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A few KITTI-like frames, built once and cycled through by every camera.
fn frame_pool() -> &'static [Frame] {
    static POOL: OnceLock<Vec<Frame>> = OnceLock::new();
    POOL.get_or_init(|| {
        kitti_like()
            .sequences(1)
            .frames_per_sequence(8)
            .seed(3)
            .build()
            .sequences()[0]
            .frames()
            .to_vec()
    })
}

/// One camera per id, in slot order, each capturing `frames` frames at
/// `fps`; slot `i` starts `i * stagger` seconds late (a zero stagger makes
/// every camera's events tie across clients).
fn cameras(ids: &[usize], frames: usize, fps: f32, stagger: f64) -> Vec<StreamSource> {
    let pool = frame_pool();
    ids.iter()
        .enumerate()
        .map(|(slot, &id)| {
            let stream_frames = (0..frames)
                .map(|j| StreamFrame {
                    arrival_s: j as f64 / fps as f64 + slot as f64 * stagger,
                    frame: pool[j % pool.len()].clone(),
                })
                .collect();
            StreamSource::from_frames(id, fps, 1242.0, 375.0, stream_frames)
        })
        .collect()
}

/// The permutation that sorts `keys`: stream ids `0..keys.len()` in a
/// random order, so slot order and id order differ.
fn shuffled_ids(keys: &[u64]) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..keys.len()).collect();
    ids.sort_by_key(|&i| keys[i]);
    ids
}

fn net_params() -> impl Strategy<Value = NetParams> {
    (
        (
            0u64..=u64::MAX,
            0.0f64..0.008,
            4usize..400,
            0.0f64..0.05,
            0.0f64..0.1,
        ),
        (1usize..8, 5.0f64..200.0, 2.0f64..200.0, 1.0f64..12.0),
    )
        .prop_map(
            |(
                (seed, jitter_s, chunk_bytes, reorder_rate, disconnect_rate),
                (recv_window, drain_fps, door_rate_fps, door_burst),
            )| NetParams {
                seed,
                link: LinkParams {
                    jitter_s,
                    chunk_bytes,
                    reorder_rate,
                    disconnect_rate,
                    ..LinkParams::clean()
                },
                recv_window,
                drain_fps,
                door_rate_fps,
                door_burst,
            },
        )
}

proptest! {
    #[test]
    fn a_split_pass_merges_to_the_whole_pass(
        keys in proptest::collection::vec(0u64..1 << 32, 1..10),
        frames in 1usize..20,
        fps in (0usize..4).prop_map(|i| [5.0f32, 10.0, 30.0, 120.0][i]),
        staggered in ANY_BOOL,
        params in net_params(),
        cuts in proptest::collection::vec(0usize..64, 0..4),
    ) {
        let stagger = if staggered { 0.007 } else { 0.0 };
        let sources = cameras(&shuffled_ids(&keys), frames, fps, stagger);
        let whole = run_ingest(&sources, &params);
        // Contiguous runs between sorted cut points; empty runs allowed.
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (sources.len() + 1)).collect();
        bounds.push(0);
        bounds.push(sources.len());
        bounds.sort_unstable();
        let mut runs = bounds.windows(2).map(|w| run_ingest(&sources[w[0]..w[1]], &params));
        let mut merged: IngestOutcome = runs.next().expect("at least one run");
        for later in runs {
            merged.append(later);
        }
        prop_assert_eq!(&merged.delivered, &whole.delivered);
        prop_assert_eq!(&merged.events, &whole.events);
        prop_assert_eq!(&merged.report, &whole.report);
    }
}
