//! The simulated detector: full-frame and region-conditioned inference.
//!
//! # Random-stream caching
//!
//! Every per-object draw comes from a ChaCha stream derived from
//! structured keys. Deriving a fresh stream per object **per frame** — the
//! historical scheme — costs a full key expansion and ChaCha block per
//! draw site and dominates the sparse presets (<40 objects per frame, see
//! `BENCH_PR4.json`). The per-object streams are therefore derived **once
//! per `(sequence, track)`** and consumed incrementally as frames advance:
//! the temporal-noise innovations and the detect / region-validate draws
//! for a track all come from three persistent streams, held in one record
//! per track next to the track's persistent difficulty and noise state.
//! Each draw site reads that record through one table lookup, and the
//! temporal-noise step and the site's draw run on the same record.
//!
//! Only **live** tracks keep a full record (three generators, 456 bytes):
//! those the detector's latest call drew from. At the end of every call a
//! record the call did not draw from is **parked** as its 48-byte
//! position — difficulty, noise state and the word count of each stream —
//! and the track's next draw re-derives the record from it. So a
//! detector's memory follows the objects in view, plus 48 bytes (56 with
//! the table key) for every track its sequence has shown and lost.
//!
//! Caching and parking are pure memoization of a well-defined reference:
//! a stream is its key plus the number of words drawn from it, and one
//! helper rebuilds it from those with an O(1) seek
//! ([`ChaCha8Rng::set_word_pos`]). The uncached mode
//! ([`with_stream_cache(false)`](SimulatedDetector::with_stream_cache))
//! draws through that helper on every draw, and un-parking and
//! [`import_state`](SimulatedDetector::import_state) rebuild through it
//! too, so all three produce bit-identical output (determinism tests pin
//! the uncached mode and a mid-sequence import to the cached run). Like
//! the temporal-noise state before it, the stream position is sequential
//! state: a sequence's frames must be processed once each, in order —
//! exactly what every runner, evaluator and the serving scheduler already
//! guarantee.
//!
//! The same reference makes state capture cheap: a [`DetectorState`] is
//! the sorted list of every track's position, live or parked, and import
//! parks each one.

use crate::accuracy::{object_quality, sigmoid, AccuracyProfile};
use crate::latent::{derive_rng, name_key, sample_normal, TemporalNoise};
use crate::zoo::DetectorModel;
use catdet_geom::{Box2, CoverageGrid, GridIndex};
use catdet_metrics::Detection;
use catdet_sim::{ActorClass, GroundTruthObject};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Salt constants separating the random streams.
const SALT_LATENT_SHARED: u64 = 0x01;
const SALT_LATENT_OWN: u64 = 0x02;
const SALT_TEMPORAL_INIT: u64 = 0x03;
const SALT_TEMPORAL_STEP: u64 = 0x04;
const SALT_DETECT: u64 = 0x05;
const SALT_FALSE_POS: u64 = 0x06;
const SALT_DETECT_REGION: u64 = 0x07;

/// Minimum IoU between some proposal and a ground truth for the
/// refinement network to be able to detect it.
const REGION_IOU_THRESHOLD: f32 = 0.25;
/// Maximum area ratio between a region and an object for the
/// centre-containment fallback (a region several times larger than an
/// object does not yield an RoI that classifies it).
const REGION_AREA_RATIO: f32 = 4.0;

/// Above this many (object × region) pairs, [`detect_regions`] gates its
/// two sweep predicates through grid indices. Both paths evaluate the
/// same exact predicates, so outputs are identical either way.
///
/// [`detect_regions`]: SimulatedDetector::detect_regions
const REGION_GATE_MIN_PAIRS: usize = 256;

/// One persistent derived stream: the live generator plus the number of
/// 32-bit words drawn so far. The word count alone, with the stream's
/// key, defines the next draw ([`stream_at`]), which is what makes the
/// cache a pure memoization and a snapshot a list of counts.
#[derive(Debug, Clone)]
struct StreamState {
    rng: ChaCha8Rng,
    consumed: u64,
}

impl StreamState {
    /// The stream of `key` after `consumed` drawn words.
    fn at(key: &[u64], consumed: u64) -> Self {
        Self {
            rng: stream_at(key, consumed),
            consumed,
        }
    }
}

/// The stream derived from `key`, positioned after `consumed` drawn words
/// by an O(1) seek: what the uncached mode draws from and what
/// [`SimulatedDetector::import_state`] restores. A stream nothing has
/// drawn from yet stays unseeked, so its first block is only computed if
/// a draw needs it.
fn stream_at(key: &[u64], consumed: u64) -> ChaCha8Rng {
    let mut rng = derive_rng(key);
    if consumed > 0 {
        rng.set_word_pos(u128::from(consumed));
    }
    rng
}

/// Word-counting adapter around a ChaCha stream: every draw is tallied so
/// the uncached mode can seek to the same position.
struct CountedRng<'a> {
    rng: &'a mut ChaCha8Rng,
    consumed: &'a mut u64,
}

impl rand::RngCore for CountedRng<'_> {
    fn next_u32(&mut self) -> u32 {
        *self.consumed += 1;
        self.rng.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        *self.consumed += 2;
        self.rng.next_u64()
    }
}

/// Draws from a persistent stream (cached mode) or from a fresh copy at
/// the same position (uncached reference mode).
fn draw_from<T>(
    cached: bool,
    state: &mut StreamState,
    key: &[u64],
    f: impl FnOnce(&mut CountedRng) -> T,
) -> T {
    if cached {
        f(&mut CountedRng {
            rng: &mut state.rng,
            consumed: &mut state.consumed,
        })
    } else {
        f(&mut CountedRng {
            rng: &mut stream_at(key, state.consumed),
            consumed: &mut state.consumed,
        })
    }
}

/// The live per-`(sequence, track)` record: the object's persistent
/// difficulty, the AR(1) temporal noise process, and the three persistent
/// draw streams it and the detection sites consume.
#[derive(Debug, Clone)]
struct TrackStreams {
    latent: f32,
    noise: TemporalNoise,
    /// Whether the detector's current call has drawn from the record; one
    /// that ends a call undrawn is parked.
    drawn: bool,
    temporal: StreamState,
    detect: StreamState,
    region: StreamState,
}

impl TrackStreams {
    /// A track's record with its temporal, detect and region streams
    /// (keyed by `key(salt)`) after `consumed` drawn words each.
    fn at(
        key: impl Fn(u64) -> [u64; 5],
        latent: f32,
        noise: TemporalNoise,
        consumed: [u64; 3],
    ) -> Self {
        let [temporal, detect, region] = consumed;
        TrackStreams {
            latent,
            noise,
            drawn: false,
            temporal: StreamState::at(&key(SALT_TEMPORAL_STEP), temporal),
            detect: StreamState::at(&key(SALT_DETECT), detect),
            region: StreamState::at(&key(SALT_DETECT_REGION), region),
        }
    }

    /// Everything of the record but its generators.
    fn position(&self, track: u64) -> TrackPosition {
        TrackPosition {
            track,
            consumed: [
                self.temporal.consumed,
                self.detect.consumed,
                self.region.consumed,
            ],
            latent: self.latent,
            noise: self.noise,
        }
    }
}

/// A track without its generators, which the stream keys and word counts
/// re-derive: how a detector parks a track it is not drawing from, and
/// what a [`DetectorState`] holds per track.
#[derive(Debug, Clone, Copy)]
struct TrackPosition {
    track: u64,
    /// Words drawn from the temporal, detect and region streams.
    consumed: [u64; 3],
    latent: f32,
    noise: TemporalNoise,
}

/// Multiply-shift hashing of a `u64` track id (Fibonacci hashing). The
/// product is rotated rather than shifted, so the table's bucket index
/// (its low bits) comes from the product's well-mixed high half. Track ids
/// come from the simulator's ground truth, never from outside the
/// program, so the table needs no protection against crafted collisions.
#[derive(Debug, Clone, Copy, Default)]
struct TrackIdHasher(u64);

impl Hasher for TrackIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id;
    }

    fn finish(&self) -> u64 {
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(32)
    }
}

type TrackMap<V> = HashMap<u64, V, BuildHasherDefault<TrackIdHasher>>;

/// A detector's tracks in its current sequence: a full record for every
/// track its latest call drew from, and a position for every other track
/// it has drawn from (see the module docs). Each track is in exactly one
/// of the two tables.
#[derive(Debug, Clone, Default)]
struct TrackTable {
    live: TrackMap<TrackStreams>,
    parked: TrackMap<TrackPosition>,
}

impl TrackTable {
    fn clear(&mut self) {
        self.live.clear();
        self.parked.clear();
    }

    /// `track`'s live record, marked drawn: found in one lookup, or
    /// re-derived from its parked position, or derived on first touch.
    fn record(
        &mut self,
        keys: &StreamKeys,
        profile: &AccuracyProfile,
        track: u64,
    ) -> &mut TrackStreams {
        let parked = &mut self.parked;
        let ts = self.live.entry(track).or_insert_with(|| {
            let key = |salt| keys.key(salt, track);
            match parked.remove(&track) {
                Some(p) => TrackStreams::at(key, p.latent, p.noise, p.consumed),
                None => {
                    // Persistent per-object difficulty: a component
                    // shared by all models plus a model-specific one.
                    let shared = profile.shared_heterogeneity
                        * sample_normal(&mut derive_rng(&[
                            keys.seed,
                            SALT_LATENT_SHARED,
                            keys.seq as u64,
                            track,
                        ]));
                    let own = profile.own_heterogeneity
                        * sample_normal(&mut derive_rng(&key(SALT_LATENT_OWN)));
                    let noise = TemporalNoise::new(
                        profile.temporal_corr,
                        profile.temporal_sigma,
                        &mut derive_rng(&key(SALT_TEMPORAL_INIT)),
                    );
                    TrackStreams::at(key, shared + own, noise, [0; 3])
                }
            }
        });
        ts.drawn = true;
        ts
    }

    /// Ends a call: parks every live record the call did not draw from.
    fn park_undrawn(&mut self) {
        let parked = &mut self.parked;
        self.live.retain(|&track, ts| {
            if std::mem::take(&mut ts.drawn) {
                return true;
            }
            parked.insert(track, ts.position(track));
            false
        });
    }

    /// Every track's position, sorted by track id.
    fn positions(&self) -> Vec<TrackPosition> {
        let mut tracks = Vec::with_capacity(self.live.len() + self.parked.len());
        tracks.extend(self.live.iter().map(|(&track, ts)| ts.position(track)));
        tracks.extend(self.parked.values().copied());
        tracks.sort_unstable_by_key(|t| t.track);
        tracks
    }
}

/// What keys a track's streams within one call: the detector's seed and
/// model, and the sequence.
struct StreamKeys {
    seed: u64,
    model_key: u64,
    seq: usize,
}

impl StreamKeys {
    /// The base key of `track`'s stream `salt`.
    fn key(&self, salt: u64, track: u64) -> [u64; 5] {
        [self.seed, salt, self.model_key, self.seq as u64, track]
    }
}

/// The draw site an object's detection comes from: each consumes its own
/// stream of the track's record and its own probability of the margin.
#[derive(Debug, Clone, Copy)]
enum Site {
    /// Full-frame detection.
    Detect,
    /// Region-conditioned validation.
    Region,
}

/// Reusable per-detector buffers for the region-conditioned hot path.
#[derive(Debug, Clone)]
struct RegionScratch {
    /// Proposals dilated by the margin (order-aligned with the input).
    dilated: Vec<Box2>,
    /// Bin index over the proposals (gates `region_matches`).
    proposal_grid: GridIndex,
    /// Bin index over the ground truth (gates the empty-region FP sweep).
    gt_grid: GridIndex,
    /// Coverage raster for the ambient-clutter term when the caller
    /// passes none, built on first use.
    coverage: Option<CoverageGrid>,
}

/// The complete portable cross-frame state of a [`SimulatedDetector`], as
/// produced by [`SimulatedDetector::export_state`] and consumed by
/// [`SimulatedDetector::import_state`].
///
/// It holds the current sequence and, for every track the detector has
/// drawn from in it — live or parked alike, sorted by track id — the
/// track's persistent difficulty, its AR(1) noise state, and how many
/// words each of its three random streams has drawn: 48 bytes per track,
/// the same position a detector parks a track it is not drawing from as.
/// The generators themselves are not kept: a stream is defined by its key
/// and its word count, so the importer re-derives each one when the track
/// is next drawn. Opaque by design; holders just carry it between a
/// matching export/import pair.
#[derive(Debug, Clone)]
pub struct DetectorState {
    current_seq: Option<usize>,
    tracks: Vec<TrackPosition>,
}

/// A stochastic stand-in for a trained CNN detector.
///
/// Construct one per model per system from a [`DetectorModel`]; call
/// [`reset`](Self::reset) at sequence boundaries.
#[derive(Debug, Clone)]
pub struct SimulatedDetector {
    model: DetectorModel,
    model_key: u64,
    seed: u64,
    frame_w: f32,
    frame_h: f32,
    current_seq: Option<usize>,
    /// Per-track records (difficulty, temporal noise, draw streams), live
    /// or parked; see the module docs on random-stream caching.
    tracks: TrackTable,
    /// Whether per-track streams are served from the cache (`true`, the
    /// default) or re-derived at their position on every draw (the
    /// bit-identical reference mode).
    stream_cache: bool,
    scratch: RegionScratch,
}

impl SimulatedDetector {
    /// Creates a detector for frames of the given size with the default
    /// experiment seed.
    pub fn new(model: DetectorModel, frame_w: f32, frame_h: f32) -> Self {
        Self::with_seed(model, frame_w, frame_h, 0x00CA_7DE7)
    }

    /// Creates a detector with an explicit experiment seed.
    pub fn with_seed(model: DetectorModel, frame_w: f32, frame_h: f32, seed: u64) -> Self {
        let model_key = name_key(&model.name);
        Self {
            model,
            model_key,
            seed,
            frame_w,
            frame_h,
            current_seq: None,
            tracks: TrackTable::default(),
            stream_cache: true,
            scratch: RegionScratch {
                dilated: Vec::new(),
                proposal_grid: GridIndex::new(),
                gt_grid: GridIndex::new(),
                coverage: None,
            },
        }
    }

    /// The underlying model description (profile + ops spec).
    pub fn model(&self) -> &DetectorModel {
        &self.model
    }

    /// Switches the per-track stream cache on (the default) or off.
    ///
    /// Both modes produce **bit-identical** output; the uncached mode
    /// re-derives every stream from its base key on each draw and seeks it
    /// to the drawn word count. It exists as the reference the cache is
    /// tested against, and is slower: a key expansion and a ChaCha block
    /// per draw.
    pub fn with_stream_cache(mut self, enabled: bool) -> Self {
        self.stream_cache = enabled;
        self
    }

    /// Clears per-sequence state (call between sequences; also done
    /// automatically when a new sequence id is seen).
    pub fn reset(&mut self) {
        self.current_seq = None;
        self.tracks.clear();
    }

    /// Exports the detector's complete cross-frame state: the current
    /// sequence and, per track drawn in it, its difficulty, its noise
    /// state and its three stream positions (see [`DetectorState`]). Live
    /// and parked tracks export alike, so the state does not depend on
    /// which tracks the last call drew.
    ///
    /// The random-stream caching scheme (see module docs) makes detector
    /// output *sequential*: each draw advances a persistent per-track
    /// stream, so a fresh detector asked for frame `k` does not reproduce
    /// a live detector that already processed frames `0..k`. Capturing
    /// this state is what lets a flight-recorder snapshot resume a stream
    /// mid-sequence bit-identically. It costs 48 heap bytes per track and
    /// holds no generator.
    pub fn export_state(&self) -> DetectorState {
        DetectorState {
            current_seq: self.current_seq,
            tracks: self.tracks.positions(),
        }
    }

    /// Restores state captured by [`export_state`](Self::export_state).
    ///
    /// The importing detector must have the exporter's model, seed and
    /// frame size: streams are keyed by those. Import parks every track at
    /// its exported position and derives no generator; a track's next
    /// draw re-derives its streams and seeks them there, so the next draw
    /// on every stream is exactly the exporter's. The cache-mode flag is
    /// *not* part of the state — both modes draw from the same positions.
    /// O(tracks), one table insert per track.
    pub fn import_state(&mut self, state: DetectorState) {
        self.current_seq = state.current_seq;
        self.tracks.clear();
        // Tracks exist only inside a sequence.
        if state.current_seq.is_none() {
            return;
        }
        self.tracks
            .parked
            .extend(state.tracks.into_iter().map(|t| (t.track, t)));
    }

    fn enter_frame(&mut self, seq: usize) {
        if self.current_seq != Some(seq) {
            self.current_seq = Some(seq);
            self.tracks.clear();
        }
    }

    /// Draws `gt`'s detection at `site` for this frame, or `None` if the
    /// site misses it. One lookup finds the track's record; on it the
    /// track's temporal noise advances one step (its persistent stream
    /// makes this sequential state — once per frame per site, in frame
    /// order), which sets the object's margin, and the site's own stream
    /// decides and emits the detection.
    fn draw_object(&mut self, seq: usize, gt: &GroundTruthObject, site: Site) -> Option<Detection> {
        let cached = self.stream_cache;
        let (frame_w, frame_h) = (self.frame_w, self.frame_h);
        let p = &self.model.profile;
        let keys = StreamKeys {
            seed: self.seed,
            model_key: self.model_key,
            seq,
        };
        let track = gt.track_id;
        let TrackStreams {
            latent,
            noise,
            temporal,
            detect,
            region,
            ..
        } = self.tracks.record(&keys, p, track);
        let q = object_quality(gt);
        let eps = draw_from(
            cached,
            temporal,
            &keys.key(SALT_TEMPORAL_STEP, track),
            |rng| noise.step(rng),
        );
        let m = p.offset + p.discrimination * q - p.occlusion_sensitivity * gt.occlusion
            + *latent
            + eps;
        let (hit_p, stream, salt) = match site {
            Site::Detect => (p.detection_probability(m), detect, SALT_DETECT),
            Site::Region => (p.validation_probability(m), region, SALT_DETECT_REGION),
        };
        draw_from(cached, stream, &keys.key(salt, track), |rng| {
            (rng.gen::<f32>() < hit_p).then(|| emit_detection(p, frame_w, frame_h, gt, m, rng))
        })
    }

    fn poisson<R: Rng>(rng: &mut R, lambda: f32) -> usize {
        if lambda <= 0.0 {
            return 0;
        }
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0f32;
        loop {
            p *= rng.gen::<f32>();
            if p <= l || k > 1000 {
                return k;
            }
            k += 1;
        }
    }

    fn sample_fp_box<R: Rng>(&self, rng: &mut R) -> (Box2, ActorClass) {
        let class = if rng.gen::<f32>() < 0.6 {
            ActorClass::Car
        } else {
            ActorClass::Pedestrian
        };
        let h = (16.0 * (0.5 + 0.8 * sample_normal(rng)).exp()).clamp(10.0, 250.0);
        let w = match class {
            ActorClass::Car => h * (1.2 + 0.8 * rng.gen::<f32>()),
            ActorClass::Pedestrian => h * (0.3 + 0.3 * rng.gen::<f32>()),
        };
        let x = rng.gen::<f32>() * (self.frame_w - w).max(1.0);
        let y = rng.gen::<f32>() * (self.frame_h - h).max(1.0);
        (
            Box2::from_xywh(x, y, w, h).clip(self.frame_w, self.frame_h),
            class,
        )
    }

    fn fp_score<R: Rng>(&self, rng: &mut R) -> f32 {
        let p = &self.model.profile;
        sigmoid(p.fp_score_mean + p.fp_score_sigma * sample_normal(rng)).clamp(1e-4, 1.0 - 1e-4)
    }

    /// Full-frame inference (single-model detector or proposal network).
    ///
    /// Returns detections for the ground truth the model "sees", plus
    /// Poisson-distributed false positives anywhere in the frame. The
    /// caller applies its own output threshold (C-thresh).
    pub fn detect_full_frame(
        &mut self,
        seq: usize,
        frame: usize,
        gts: &[GroundTruthObject],
    ) -> Vec<Detection> {
        self.enter_frame(seq);
        let mut out = Vec::with_capacity(gts.len());
        for gt in gts {
            out.extend(self.draw_object(seq, gt, Site::Detect));
        }
        self.tracks.park_undrawn();
        let mut fp_rng = derive_rng(&[
            self.seed,
            SALT_FALSE_POS,
            self.model_key,
            seq as u64,
            frame as u64,
        ]);
        let n_fp = Self::poisson(&mut fp_rng, self.model.profile.fp_rate);
        for _ in 0..n_fp {
            let (bbox, class) = self.sample_fp_box(&mut fp_rng);
            let score = self.fp_score(&mut fp_rng);
            out.push(Detection { bbox, score, class });
        }
        out
    }

    /// Region-conditioned inference (the refinement network, Fig. 4b).
    ///
    /// Only objects covered by the union of the dilated proposals can be
    /// detected, with the profile's validation boost; false positives are
    /// confined to the proposed regions and scale with their area.
    ///
    /// Dense frames gate the two coverage sweeps (object↔proposal
    /// matching, empty-region detection) through spatial bin indices; the
    /// output is bit-for-bit identical to the quadratic reference
    /// ([`detect_regions_reference`](Self::detect_regions_reference)) —
    /// the exact predicates run on grid candidates, and the RNG streams
    /// never depend on how candidates were found.
    pub fn detect_regions(
        &mut self,
        seq: usize,
        frame: usize,
        gts: &[GroundTruthObject],
        proposals: &[Box2],
        margin_px: f32,
    ) -> Vec<Detection> {
        let coverage = self.raster_coverage(proposals, margin_px);
        self.detect_regions_with_coverage(seq, frame, gts, proposals, margin_px, coverage)
    }

    /// [`detect_regions`](Self::detect_regions) for a caller that has
    /// already rasterised the proposals. `coverage` must be the fraction
    /// of the frame's stride-16 grid covered by `proposals` dilated by
    /// `margin_px`, as [`catdet_geom::coverage::masked_fraction`] computes
    /// it: the ambient-clutter term scales with it. A staged pipeline
    /// prices its refinement dispatch from that raster, so passing it on
    /// spares the detector a second one. Debug builds check it against a
    /// fresh raster, bit for bit.
    pub fn detect_regions_with_coverage(
        &mut self,
        seq: usize,
        frame: usize,
        gts: &[GroundTruthObject],
        proposals: &[Box2],
        margin_px: f32,
        coverage: f64,
    ) -> Vec<Detection> {
        debug_assert_eq!(
            coverage.to_bits(),
            self.raster_coverage(proposals, margin_px).to_bits(),
            "the passed coverage is not the proposals' raster"
        );
        let gated = gts.len() * proposals.len() >= REGION_GATE_MIN_PAIRS;
        self.detect_regions_impl(seq, frame, gts, proposals, margin_px, coverage, gated)
    }

    /// The historical quadratic sweep; identical results to
    /// [`detect_regions`](Self::detect_regions), kept as the reference
    /// semantics and the perf-snapshot baseline.
    pub fn detect_regions_reference(
        &mut self,
        seq: usize,
        frame: usize,
        gts: &[GroundTruthObject],
        proposals: &[Box2],
        margin_px: f32,
    ) -> Vec<Detection> {
        let coverage = self.raster_coverage(proposals, margin_px);
        self.detect_regions_impl(seq, frame, gts, proposals, margin_px, coverage, false)
    }

    /// The stride-16 coverage of `proposals` dilated by `margin_px`.
    fn raster_coverage(&mut self, proposals: &[Box2], margin_px: f32) -> f64 {
        if proposals.is_empty() {
            return 0.0;
        }
        let (width, height) = (self.frame_w, self.frame_h);
        let grid = self
            .scratch
            .coverage
            .get_or_insert_with(|| CoverageGrid::new(width.max(1.0), height.max(1.0), 16));
        catdet_geom::coverage::masked_fraction_with(grid, proposals, width, height, 16, margin_px)
    }

    #[allow(clippy::too_many_arguments)]
    fn detect_regions_impl(
        &mut self,
        seq: usize,
        frame: usize,
        gts: &[GroundTruthObject],
        proposals: &[Box2],
        margin_px: f32,
        coverage: f64,
        gated: bool,
    ) -> Vec<Detection> {
        self.enter_frame(seq);
        if proposals.is_empty() {
            self.tracks.park_undrawn();
            return Vec::new();
        }
        self.scratch.dilated.clear();
        self.scratch
            .dilated
            .extend(proposals.iter().map(|b| b.dilate(margin_px)));
        if gated {
            self.scratch
                .proposal_grid
                .build(proposals.len(), |i| proposals[i]);
            self.scratch.gt_grid.build(gts.len(), |i| gts[i].bbox);
        }
        let mut out = Vec::with_capacity(gts.len());
        for gt in gts {
            // A proposal that can match `gt` strictly overlaps it (an IoU
            // above threshold, or containment of its interior centre), so
            // the grid's candidates are exhaustive for the exact test.
            let matched = if gated {
                gt.bbox.is_valid()
                    && self
                        .scratch
                        .proposal_grid
                        .any_candidate(&gt.bbox, |i| region_matches_one(&gt.bbox, &proposals[i]))
            } else {
                region_matches(&gt.bbox, proposals)
            };
            if matched {
                out.extend(self.draw_object(seq, gt, Site::Region));
            }
        }
        self.tracks.park_undrawn();
        // False positives: confirming false proposals. A region that holds
        // no actual object (typically a proposal-network false positive or
        // a stale tracker prediction) is itself "validated" into a false
        // positive with probability `fp_confirm_rate` — this couples the
        // system's precision to its proposal source, plus a small ambient
        // clutter term over the covered area.
        let mut fp_rng = derive_rng(&[
            self.seed,
            SALT_FALSE_POS,
            self.model_key,
            seq as u64,
            frame as u64,
        ]);
        for (region, dilated_region) in proposals.iter().zip(&self.scratch.dilated) {
            // An object that stops the FP either has its centre inside the
            // dilated region or overlaps the region itself — both imply a
            // strict overlap with the dilated extent, so grid candidates
            // are exhaustive here too.
            let occupied = |gt: &GroundTruthObject| {
                let (cx, cy) = gt.bbox.center();
                dilated_region.contains_point(cx, cy) || region.iou(&gt.bbox) > 0.2
            };
            let contains_object = if gated {
                self.scratch
                    .gt_grid
                    .any_candidate(dilated_region, |gi| occupied(&gts[gi]))
            } else {
                gts.iter().any(occupied)
            };
            if contains_object {
                continue;
            }
            if fp_rng.gen::<f32>() < self.model.profile.fp_confirm_rate {
                // The confirmed false positive is the (slightly re-jittered)
                // false region itself.
                let p = &self.model.profile;
                let (w, h) = (region.width(), region.height());
                let bbox = Box2::new(
                    region.x1 + p.loc_sigma * w * sample_normal(&mut fp_rng),
                    region.y1 + p.loc_sigma * h * sample_normal(&mut fp_rng),
                    region.x2 + p.loc_sigma * w * sample_normal(&mut fp_rng),
                    region.y2 + p.loc_sigma * h * sample_normal(&mut fp_rng),
                )
                .clip(self.frame_w, self.frame_h);
                if bbox.is_valid() {
                    let class = if fp_rng.gen::<f32>() < 0.6 {
                        ActorClass::Car
                    } else {
                        ActorClass::Pedestrian
                    };
                    let score = self.fp_score(&mut fp_rng);
                    out.push(Detection { bbox, score, class });
                }
            }
        }
        // Ambient clutter proportional to the covered area.
        let n_fp = Self::poisson(
            &mut fp_rng,
            0.5 * self.model.profile.fp_rate * coverage as f32,
        );
        for _ in 0..n_fp {
            let host = self.scratch.dilated[fp_rng.gen_range(0..self.scratch.dilated.len())];
            let h = (host.height() * (0.3 + 0.6 * fp_rng.gen::<f32>())).max(10.0);
            let class = if fp_rng.gen::<f32>() < 0.6 {
                ActorClass::Car
            } else {
                ActorClass::Pedestrian
            };
            let w = match class {
                ActorClass::Car => h * (1.2 + 0.8 * fp_rng.gen::<f32>()),
                ActorClass::Pedestrian => h * (0.3 + 0.3 * fp_rng.gen::<f32>()),
            };
            let cx = host.x1 + fp_rng.gen::<f32>() * host.width();
            let cy = host.y1 + fp_rng.gen::<f32>() * host.height();
            let bbox = Box2::from_cxcywh(cx, cy, w, h).clip(self.frame_w, self.frame_h);
            if bbox.is_valid() {
                let score = self.fp_score(&mut fp_rng);
                out.push(Detection { bbox, score, class });
            }
        }
        out
    }
}

/// Materialises one detection for a ground-truth object: calibrated score
/// from the margin, jittered box. A free function so draw sites can hold
/// the detector's per-track stream mutably while emitting.
fn emit_detection<R: Rng>(
    profile: &AccuracyProfile,
    frame_w: f32,
    frame_h: f32,
    gt: &GroundTruthObject,
    margin: f32,
    rng: &mut R,
) -> Detection {
    let p = profile;
    let score_logit = p.score_offset + p.score_gain * margin + p.score_noise * sample_normal(rng);
    let score = sigmoid(score_logit).clamp(1e-4, 1.0 - 1e-4);
    let b = &gt.bbox;
    let (w, h) = (b.width(), b.height());
    let jitter = |rng: &mut R, d: f32| p.loc_sigma * d * sample_normal(rng);
    let bbox = Box2::new(
        b.x1 + jitter(rng, w),
        b.y1 + jitter(rng, h),
        b.x2 + jitter(rng, w),
        b.y2 + jitter(rng, h),
    )
    .clip(frame_w, frame_h);
    Detection {
        bbox,
        score,
        class: gt.class,
    }
}

/// Whether some proposal is *specific* to the target object: IoU above
/// [`REGION_IOU_THRESHOLD`], or containing the object's centre at a
/// comparable scale. Blanket coverage by a large region proposed for a
/// different object does not count — RoI-pooled classification needs a
/// box that frames the object, which is why crowded scenes defeat plain
/// cascades (paper §7.2) until the tracker supplies per-object regions.
fn region_matches(target: &Box2, regions: &[Box2]) -> bool {
    if !target.is_valid() {
        return false;
    }
    regions.iter().any(|r| region_matches_one(target, r))
}

/// The single-region specificity test behind [`region_matches`]; `target`
/// must be valid.
fn region_matches_one(target: &Box2, r: &Box2) -> bool {
    if r.iou(target) >= REGION_IOU_THRESHOLD {
        return true;
    }
    let (cx, cy) = target.center();
    let ta = target.area();
    let ra = r.area();
    r.contains_point(cx, cy)
        && ra > 0.0
        && ta / ra <= REGION_AREA_RATIO
        && ra / ta <= REGION_AREA_RATIO
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    fn gt(track: u64, x: f32, h: f32) -> GroundTruthObject {
        GroundTruthObject {
            track_id: track,
            class: ActorClass::Car,
            bbox: Box2::from_xywh(x, 150.0, h * 1.6, h),
            full_bbox: Box2::from_xywh(x, 150.0, h * 1.6, h),
            occlusion: 0.0,
            truncation: 0.0,
            depth: 20.0,
        }
    }

    fn strong() -> SimulatedDetector {
        SimulatedDetector::new(zoo::resnet50(2), 1242.0, 375.0)
    }

    fn weak() -> SimulatedDetector {
        SimulatedDetector::new(zoo::resnet10c(2), 1242.0, 375.0)
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = strong();
        let mut b = strong();
        let gts = [gt(1, 100.0, 60.0), gt(2, 500.0, 30.0)];
        for f in 0..10 {
            assert_eq!(
                a.detect_full_frame(0, f, &gts),
                b.detect_full_frame(0, f, &gts)
            );
        }
    }

    #[test]
    fn strong_model_detects_large_objects_reliably() {
        let mut d = strong();
        let mut hits = 0;
        for f in 0..200 {
            let gts = [gt(f as u64, 400.0, 90.0)]; // fresh object each frame
            if !d.detect_full_frame(0, f as usize, &gts).is_empty() {
                hits += 1;
            }
            d.reset();
        }
        assert!(hits > 180, "hits {hits}/200");
    }

    #[test]
    fn weak_model_localises_small_objects_worse() {
        // Weak compact models keep high raw recall (so they can serve as
        // proposal networks) but their boxes are too sloppy to pass the
        // KITTI 70%-IoU car threshold — that is where their single-model
        // mAP goes. Count *precisely localised* hits.
        let mut s = strong();
        let mut w = weak();
        let mut s_hits = 0;
        let mut w_hits = 0;
        for f in 0..300 {
            let gts = [gt(f as u64, 400.0, 26.0)];
            s_hits += s
                .detect_full_frame(0, f as usize, &gts)
                .iter()
                .filter(|d| d.bbox.iou(&gts[0].bbox) > 0.7)
                .count();
            w_hits += w
                .detect_full_frame(0, f as usize, &gts)
                .iter()
                .filter(|d| d.bbox.iou(&gts[0].bbox) > 0.7)
                .count();
            s.reset();
            w.reset();
        }
        assert!(
            s_hits > w_hits + 30,
            "strong {s_hits} vs weak {w_hits} precisely-localised hits"
        );
    }

    #[test]
    fn misses_are_temporally_correlated() {
        // Conditional miss probability after a miss must exceed the
        // marginal miss probability: that is the property that makes the
        // tracker necessary.
        let mut d = weak();
        let mut misses = 0usize;
        let mut frames = 0usize;
        let mut miss_after_miss = 0usize;
        let mut after_miss = 0usize;
        for track in 0..150u64 {
            d.reset();
            let gts = [gt(track, 400.0, 28.0)];
            let mut prev_miss = false;
            for f in 0..12 {
                let hit = !d
                    .detect_full_frame(track as usize, f, &gts)
                    .iter()
                    .any(|x| x.bbox.iou(&gts[0].bbox) > 0.3);
                let miss = hit;
                frames += 1;
                if miss {
                    misses += 1;
                }
                if prev_miss {
                    after_miss += 1;
                    if miss {
                        miss_after_miss += 1;
                    }
                }
                prev_miss = miss;
            }
        }
        let marginal = misses as f64 / frames as f64;
        let conditional = miss_after_miss as f64 / after_miss.max(1) as f64;
        assert!(
            conditional > marginal + 0.10,
            "conditional {conditional:.2} vs marginal {marginal:.2}"
        );
    }

    #[test]
    fn scores_correlate_with_quality() {
        let mut d = strong();
        let mut big_scores = Vec::new();
        let mut small_scores = Vec::new();
        for f in 0..200 {
            let gts = [
                gt(2 * f as u64, 200.0, 100.0),
                gt(2 * f as u64 + 1, 700.0, 26.0),
            ];
            for det in d.detect_full_frame(0, f as usize, &gts) {
                if det.bbox.height() > 60.0 {
                    big_scores.push(det.score);
                } else if det.bbox.height() < 40.0 {
                    small_scores.push(det.score);
                }
            }
            d.reset();
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
        assert!(
            mean(&big_scores) > mean(&small_scores) + 0.1,
            "big {} small {}",
            mean(&big_scores),
            mean(&small_scores)
        );
    }

    #[test]
    fn false_positives_occur_at_calibrated_rate() {
        let mut d = weak();
        let mut fp = 0usize;
        let frames = 300usize;
        for f in 0..frames {
            // No ground truth: everything emitted is a false positive.
            fp += d.detect_full_frame(0, f, &[]).len();
        }
        let rate = fp as f32 / frames as f32;
        let expect = d.model().profile.fp_rate;
        assert!(
            (rate - expect).abs() < expect * 0.3 + 0.1,
            "rate {rate} expect {expect}"
        );
    }

    #[test]
    fn regions_gate_refinement_detections() {
        let mut d = strong();
        let gts = [gt(1, 100.0, 60.0), gt(2, 800.0, 60.0)];
        // Only the first object is proposed.
        let proposals = [gts[0].bbox];
        let dets = d.detect_regions(0, 0, &gts, &proposals, 30.0);
        assert!(dets
            .iter()
            .all(|det| det.bbox.iou(&gts[0].bbox) > 0.2 || det.bbox.iou(&gts[1].bbox) < 0.2));
        // The uncovered object is never detected over many frames.
        let mut far_hits = 0;
        for f in 1..100 {
            let dets = d.detect_regions(0, f, &gts, &proposals, 30.0);
            far_hits += dets
                .iter()
                .filter(|x| x.bbox.iou(&gts[1].bbox) > 0.3)
                .count();
        }
        assert_eq!(far_hits, 0);
    }

    #[test]
    fn empty_proposals_detect_nothing() {
        let mut d = strong();
        let gts = [gt(1, 100.0, 60.0)];
        assert!(d.detect_regions(0, 0, &gts, &[], 30.0).is_empty());
    }

    #[test]
    fn validation_beats_detection_probability() {
        // The same borderline object is found more often in refinement
        // mode than in full-frame mode.
        let mut full = weak();
        let mut refine = weak();
        let mut full_hits = 0;
        let mut refine_hits = 0;
        for track in 0..200u64 {
            let gts = [gt(track, 400.0, 26.0)];
            let proposals = [gts[0].bbox];
            full_hits += full
                .detect_full_frame(track as usize, 0, &gts)
                .iter()
                .filter(|x| x.bbox.iou(&gts[0].bbox) > 0.3)
                .count();
            refine_hits += refine
                .detect_regions(track as usize, 0, &gts, &proposals, 30.0)
                .iter()
                .filter(|x| x.bbox.iou(&gts[0].bbox) > 0.3)
                .count();
        }
        assert!(
            refine_hits > full_hits,
            "refine {refine_hits} vs full {full_hits}"
        );
    }

    #[test]
    fn refinement_fps_stay_inside_regions() {
        let mut d = weak();
        let region = Box2::from_xywh(200.0, 100.0, 150.0, 120.0);
        for f in 0..200 {
            for det in d.detect_regions(0, f, &[], &[region], 30.0) {
                let dilated = region.dilate(30.0 + 1.0);
                let inter = det.bbox.intersection_area(&dilated);
                assert!(
                    inter > 0.0,
                    "refinement FP {:?} outside proposed region",
                    det.bbox
                );
            }
        }
    }

    #[test]
    fn gated_detect_regions_matches_reference_on_dense_frames() {
        // Enough object × proposal pairs to force the grid path; the
        // gated and reference sweeps must agree detection for detection
        // (same RNG streams, same predicates, different candidate order).
        let mut gated = strong();
        let mut reference = strong();
        let gts: Vec<GroundTruthObject> = (0..40)
            .map(|i| {
                gt(
                    i as u64,
                    20.0 + 28.0 * (i % 40) as f32,
                    30.0 + (i % 7) as f32 * 8.0,
                )
            })
            .collect();
        let proposals: Vec<Box2> = gts
            .iter()
            .step_by(2)
            .map(|g| g.bbox.dilate(4.0))
            .chain((0..10).map(|i| Box2::from_xywh(100.0 * i as f32, 10.0, 60.0, 40.0)))
            .collect();
        assert!(gts.len() * proposals.len() >= super::REGION_GATE_MIN_PAIRS);
        for f in 0..15 {
            let a = gated.detect_regions(0, f, &gts, &proposals, 30.0);
            let b = reference.detect_regions_reference(0, f, &gts, &proposals, 30.0);
            assert_eq!(a, b, "diverged at frame {f}");
            assert!(f > 0 || !a.is_empty());
        }
    }

    #[test]
    fn cached_streams_match_uncached_reference_bit_for_bit() {
        // The per-(sequence, track) stream cache is pure memoization: a
        // detector with the cache disabled (re-derive + seek on
        // every draw) must produce identical detections on an interleaved
        // full-frame / region workload with persisting, appearing and
        // disappearing tracks — across sequence boundaries too.
        let mut cached = strong();
        let mut uncached = strong().with_stream_cache(false);
        for seq in 0..2 {
            for f in 0..25usize {
                // Persistent tracks 1..=3, plus one churning track per
                // frame; track 2 vanishes for frames 10..15.
                let mut gts = vec![gt(1, 100.0, 60.0), gt(3, 900.0, 45.0)];
                if !(10..15).contains(&f) {
                    gts.push(gt(2, 500.0, 30.0));
                }
                gts.push(gt(100 + f as u64, 40.0 + 10.0 * f as f32, 35.0));
                let a = cached.detect_full_frame(seq, f, &gts);
                let b = uncached.detect_full_frame(seq, f, &gts);
                assert_eq!(a, b, "full-frame diverged at seq {seq} frame {f}");
                let proposals: Vec<Box2> = gts.iter().map(|g| g.bbox.dilate(6.0)).collect();
                let a = cached.detect_regions(seq, f, &gts, &proposals, 30.0);
                let b = uncached.detect_regions(seq, f, &gts, &proposals, 30.0);
                assert_eq!(a, b, "regions diverged at seq {seq} frame {f}");
            }
        }
    }

    #[test]
    fn region_specificity() {
        let t = Box2::from_xywh(100.0, 100.0, 40.0, 40.0);
        // The object's own (slightly jittered) box matches.
        assert!(region_matches(
            &t,
            &[Box2::from_xywh(95.0, 97.0, 42.0, 40.0)]
        ));
        // No regions: no match.
        assert!(!region_matches(&t, &[]));
        // A huge blanket region covering the centre does NOT match.
        let blanket = Box2::from_xywh(0.0, 0.0, 600.0, 400.0);
        assert!(!region_matches(&t, &[blanket]));
        // A same-scale region containing the centre matches.
        let nearby = Box2::from_xywh(85.0, 85.0, 60.0, 60.0);
        assert!(region_matches(&t, &[nearby]));
    }
}
