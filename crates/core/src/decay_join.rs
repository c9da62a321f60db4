//! STR-L2 generalised to arbitrary decay models (§8 future work).
//!
//! The L2 index is the one variant whose pruning bounds depend only on the
//! query and the candidate — never on stream statistics — so it carries
//! over to *any* decay function `f(Δt)` that is ≤ 1, non-increasing and
//! has a finite horizon (see [`sssj_types::DecayModel`]):
//!
//! * **index construction** — the `b2 = ‖x′‖` bound is decay-free
//!   (index-time decay pruning is never applied, §6.2) and unchanged;
//! * **candidate generation** — `rs2` and `l2bound` multiply by an upper
//!   bound on `f(Δt) ≤ 1` read from the model's [`DecayTable`], exactly
//!   as the exponential does with its own table, so the join runs STR-L2's
//!   list pass ([`ScoreAccumulator::accumulate_l2_list_rev`]); time
//!   filtering truncates at the model's horizon `τ(θ)`;
//! * **candidate verification** — `ps1` and the final exact check use
//!   the exact `f(Δt)`, once per surviving candidate.
//!
//! The only exponential-specific machinery is the lazily-decayed maximum
//! `m̂λ` (semigroup property); the generic join optionally replaces it with
//! an *undecayed* windowed maximum ([`sssj_collections::WindowedMaxVec`]):
//! `dot(x, y) ≤ Σ_j x_j·max_window(j)` holds for any in-horizon `y`, so
//! `remscore = min(rs1w, rs2·f(Δt))` stays a safe upper bound.

use sssj_collections::{LinkedHashMap, PostingBlock, ScoreAccumulator, WindowedMaxVec};
use sssj_kernels::L2BatchParams;
use sssj_metrics::JoinStats;
use sssj_types::{dot, DecayModel, DecayTable, SimilarPair, SparseVector, StreamRecord, VectorId};

use crate::algorithm::{ShardableJoin, StreamJoin};
use crate::streaming::horizon_cutoff;

/// Same safe-side slack as the exponential STR implementation.
const PRUNE_EPS: f64 = 1e-12;

/// Residual state per in-horizon vector.
#[derive(Clone, Debug, Default)]
struct Meta {
    residual: SparseVector,
    q: f64,
    t: f64,
}

/// The streaming similarity self-join under an arbitrary [`DecayModel`]
/// — STR-L2 with the exponential specialised out.
///
/// ```
/// use sssj_core::{DecayStreaming, StreamJoin};
/// use sssj_types::{vector::unit_vector, DecayModel, StreamRecord, Timestamp};
///
/// // Hard 10-second sliding window, θ = 0.7.
/// let mut join = DecayStreaming::new(0.7, DecayModel::sliding_window(10.0));
/// let mut out = Vec::new();
/// for (id, t) in [(0, 0.0), (1, 9.0), (2, 25.0)] {
///     let r = StreamRecord::new(id, Timestamp::new(t), unit_vector(&[(1, 1.0)]));
///     join.process(&r, &mut out);
/// }
/// // 0–1 are 9 s apart (inside the window, undecayed similarity 1.0);
/// // 2 is 16 s after 1, outside.
/// assert_eq!(out.len(), 1);
/// assert_eq!((out[0].left, out[0].right), (0, 1));
/// ```
pub struct DecayStreaming {
    theta: f64,
    model: DecayModel,
    tau: f64,
    /// Quantized upper bounds on the model's factor (pruning only).
    table: DecayTable,
    /// Optional window-max candidate bound (`rs1w`), ablatable.
    window_max: Option<WindowedMaxVec>,
    /// Flat, time-ordered posting lists — the same single-allocation
    /// blocks the exponential hot path scans (generic decay models never
    /// re-index, so lists stay time-ordered and expiry is a binary
    /// search + O(1) front cut).
    lists: Vec<PostingBlock>,
    residual: LinkedHashMap<VectorId, Meta>,
    acc: ScoreAccumulator,
    live_postings: u64,
    stats: JoinStats,
    scratch_hits: Vec<(VectorId, f64)>,
}

impl DecayStreaming {
    /// Creates a join with the window-max bound enabled (the default).
    ///
    /// Panics when the model has an infinite horizon at this `θ`
    /// (exponential with `λ = 0`): the streaming join needs a finite
    /// forgetting horizon to bound memory.
    pub fn new(theta: f64, model: DecayModel) -> Self {
        Self::with_options(theta, model, true)
    }

    /// Creates a join, choosing whether candidate generation uses the
    /// window-max `rs1w` bound (`false` leaves only the `rs2`/`l2bound`
    /// pruning — the ablation the `ablation_decay_bounds` bench measures).
    pub fn with_options(theta: f64, model: DecayModel, use_window_max: bool) -> Self {
        assert!(
            theta > 0.0 && theta <= 1.0,
            "theta must be in (0, 1]: {theta}"
        );
        let tau = model.horizon(theta);
        assert!(
            tau.is_finite(),
            "decay model {model} has an infinite horizon at θ={theta}; \
             streaming requires a finite forgetting horizon"
        );
        DecayStreaming {
            theta,
            model,
            tau,
            table: DecayTable::new(model, tau),
            window_max: use_window_max.then(|| WindowedMaxVec::new(tau.max(f64::MIN_POSITIVE))),
            lists: Vec::new(),
            residual: LinkedHashMap::new(),
            acc: ScoreAccumulator::new(),
            live_postings: 0,
            stats: JoinStats::new(),
            scratch_hits: Vec::new(),
        }
    }

    /// The decay model.
    pub fn model(&self) -> DecayModel {
        self.model
    }

    /// The similarity threshold.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The model's horizon at this threshold.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    fn prune_residuals(&mut self, now: f64) {
        while let Some((_, meta)) = self.residual.front() {
            if now - meta.t > self.tau {
                self.residual.pop_front();
            } else {
                break;
            }
        }
    }

    /// Candidate generation: reverse-order dimension scan over the flat,
    /// time-ordered posting blocks (no re-indexing exists without AP
    /// bounds), exactly the exponential hot path with the model's decay
    /// table in place of the exponential's.
    fn candidate_generation(&mut self, x: &SparseVector, now: f64) {
        // The accumulator was cleared by `process` (before the dense
        // window slid); no further reset is needed here.
        let theta_slack = self.theta - PRUNE_EPS;
        let cutoff = horizon_cutoff(now, self.tau);

        // rs1w = Σ_j x_j · max over the window of coordinate j, shrunk as
        // the scan passes each dimension (mirrors rs1 of Algorithm 7).
        let mut rs1w = match &mut self.window_max {
            Some(wm) => x.iter().map(|(d, w)| w * wm.max(d, now)).sum::<f64>(),
            None => f64::INFINITY,
        };
        let mut rst: f64 = 1.0;
        let mut rs2: f64 = 1.0;

        let lists = &mut self.lists;
        let acc = &mut self.acc;
        let stats = &mut self.stats;
        let live = &mut self.live_postings;
        let (factors, inv_step) = self.table.lookup();

        for (dim, xj) in x.iter().rev() {
            if let Some(list) = lists.get_mut(dim as usize) {
                // ‖x′_j‖ recovered from the running suffix mass: during
                // this iteration rst = Σ_{i ≤ pos} w_i², so the prefix
                // before this coordinate has mass rst − x_j².
                let xnorm_before = (rst - xj * xj).max(0.0).sqrt();
                // Time-ordered list: the expired prefix is exactly the
                // entries with now − t > τ, i.e. t < cutoff; drop it in
                // O(log n) + O(1).
                let pruned = list.expire_before(cutoff);
                if pruned > 0 {
                    stats.entries_pruned += pruned as u64;
                    *live -= pruned as u64;
                }
                let postings = list.postings();
                stats.entries_traversed += postings.len() as u64;
                // STR-L2's list pass, newest posting first, with the
                // model's decay table for the bound. The window-max
                // conjunct `min(rs1w, rs2·df) ≥ θₛ ⟺ rs1w ≥ θₛ ∧ rs2·df ≥
                // θₛ` folds into the pass by vetoing with `rs2 = −∞`.
                let rs2_eff = if rs1w >= theta_slack {
                    rs2
                } else {
                    f64::NEG_INFINITY
                };
                let params = L2BatchParams {
                    xj,
                    now,
                    xnorm_before,
                    rs2: rs2_eff,
                    theta_slack,
                    inv_step,
                };
                stats.candidates += acc.accumulate_l2_list_rev(postings, &params, factors) as u64;
            }
            if let Some(wm) = &mut self.window_max {
                if rs1w.is_finite() {
                    rs1w -= xj * wm.max(dim, now);
                }
            }
            rst -= xj * xj;
            rs2 = rst.max(0.0).sqrt();
        }
    }

    /// Candidate verification: `ps1` bound then exact decayed similarity.
    fn candidate_verification(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
        let theta_slack = self.theta - PRUNE_EPS;
        let x = &record.vector;
        let now = record.t.seconds();
        self.scratch_hits.clear();
        for (id, c) in self.acc.iter() {
            if c <= 0.0 {
                continue;
            }
            let Some(meta) = self.residual.get(&id) else {
                continue;
            };
            let dt = (now - meta.t).max(0.0);
            let df = self.model.factor(dt);
            if (c + meta.q) * df < theta_slack {
                continue;
            }
            self.stats.full_sims += 1;
            let sim = (c + dot(x, &meta.residual)) * df;
            if sim >= self.theta {
                self.scratch_hits.push((id, sim));
            }
        }
        for &(id, sim) in &self.scratch_hits {
            self.stats.pairs_output += 1;
            out.push(SimilarPair::new(id, record.id, sim));
        }
    }

    /// Index construction: pure `b2 = ‖x′‖` boundary (Algorithm 2, green
    /// lines only), replayed in squared space so only the indexed suffix
    /// pays square roots — mirroring the exponential path.
    fn insert(&mut self, record: &StreamRecord) {
        let x = &record.vector;
        if x.is_empty() {
            return;
        }
        let t = record.t.seconds();
        let theta_slack = self.theta - PRUNE_EPS;
        let theta_sq = theta_slack * theta_slack;
        let mut bt: f64 = 0.0;
        let mut boundary = None;
        let mut q = 0.0;
        for (pos, (_, w)) in x.iter().enumerate() {
            let bt_prev = bt;
            bt += w * w;
            if bt >= theta_sq {
                boundary = Some((pos, bt_prev));
                q = bt_prev.sqrt().min(1.0);
                break;
            }
        }
        if let Some(wm) = &mut self.window_max {
            for (dim, w) in x.iter() {
                wm.update(dim, t, w);
            }
        }
        let Some((p, prefix_mass)) = boundary else {
            // ‖x‖ < θ can only happen for non-unit vectors; unit vectors
            // always cross the boundary. Nothing can pair with x.
            return;
        };
        // The stored ‖x′_j‖ prefix norms continue the squared-space
        // recurrence from the boundary.
        let mut mass = prefix_mass;
        for (dim, w) in x.iter().skip(p) {
            let d = dim as usize;
            if d >= self.lists.len() {
                self.lists.resize_with(d + 1, PostingBlock::new);
            }
            self.lists[d].push(record.id, w, mass.sqrt(), t);
            mass += w * w;
            self.live_postings += 1;
            self.stats.postings_added += 1;
        }
        let residual = x.prefix(p);
        self.stats.residual_coords += residual.nnz() as u64;
        self.residual.insert(record.id, Meta { residual, q, t });
        self.stats.observe_postings(self.live_postings);
    }
}

impl DecayStreaming {
    /// The query half of [`StreamJoin::process`]: reports pairs between
    /// `record` and the vectors currently indexed, *without* inserting
    /// `record` — the decomposition sharded execution partitions (see
    /// [`crate::Streaming::query`]). The window-max bound is updated only
    /// on insert: it bounds dot products against *indexed* candidates, so
    /// query-only records never need to raise it.
    pub fn query(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
        let now = record.t.seconds();
        self.prune_residuals(now);
        // Slide the accumulator's dense window to the oldest live id (the
        // floor only moves while the accumulator is empty, so clear the
        // previous record's touched set first).
        self.acc.clear();
        if let Some((&oldest, _)) = self.residual.front() {
            self.acc.advance_floor(oldest);
        }
        self.candidate_generation(&record.vector, now);
        self.candidate_verification(record, out);
    }

    /// The insert half of [`StreamJoin::process`].
    pub fn insert_record(&mut self, record: &StreamRecord) {
        self.insert(record);
    }
}

impl ShardableJoin for DecayStreaming {
    fn process_routed(&mut self, record: &StreamRecord, insert: bool, out: &mut Vec<SimilarPair>) {
        self.query(record, out);
        if insert {
            self.insert(record);
        }
    }

    /// Generic decay models never re-index, so every stored coordinate
    /// expires exactly at the model's horizon `τ(θ)`.
    fn occupancy_horizon(&self) -> Option<f64> {
        Some(self.tau)
    }
}

impl crate::algorithm::Checkpointable for DecayStreaming {
    /// Pure-ℓ2 bounds depend on nothing but the vectors themselves, and
    /// the windowed max covers only in-horizon records: there is no
    /// state to carry beyond what WAL replay rebuilds.
    fn write_aux(&mut self, _out: &mut Vec<u8>) {}

    fn read_aux(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "DecayStreaming carries no aux state, got {} bytes",
                bytes.len()
            ))
        }
    }

    /// The model's horizon `τ(θ)` — finite by construction (asserted at
    /// build time).
    fn replay_horizon(&self) -> f64 {
        self.tau
    }
}

impl StreamJoin for DecayStreaming {
    fn process(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
        self.query(record, out);
        self.insert(record);
    }

    fn finish(&mut self, _out: &mut Vec<SimilarPair>) {}

    fn stats(&self) -> JoinStats {
        self.stats
    }

    fn live_postings(&self) -> u64 {
        self.live_postings
    }

    fn name(&self) -> String {
        format!("STR-L2[{}]", self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SssjConfig, Streaming};
    use sssj_baseline::brute_force_stream_model;
    use sssj_index::IndexKind;
    use sssj_types::{vector::unit_vector, Timestamp};

    fn rec(id: u64, t: f64, entries: &[(u32, f64)]) -> StreamRecord {
        StreamRecord::new(id, Timestamp::new(t), unit_vector(entries))
    }

    fn random_stream(seed: u64, n: usize) -> Vec<StreamRecord> {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        (0..n as u64)
            .map(|i| {
                t += rng.random_range(0.0..1.0);
                let entries: Vec<(u32, f64)> = (0..rng.random_range(1..6))
                    .map(|_| (rng.random_range(0..12u32), rng.random_range(0.1..1.0)))
                    .collect();
                rec(i, t, &entries)
            })
            .collect()
    }

    fn run(join: &mut dyn StreamJoin, stream: &[StreamRecord]) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for r in stream {
            join.process(r, &mut out);
        }
        join.finish(&mut out);
        let mut keys: Vec<_> = out.iter().map(|p| p.key()).collect();
        keys.sort_unstable();
        keys
    }

    const MODELS: [DecayModel; 4] = [
        DecayModel::Exponential { lambda: 0.2 },
        DecayModel::SlidingWindow { window: 4.0 },
        DecayModel::Linear { window: 8.0 },
        DecayModel::Polynomial {
            alpha: 1.5,
            scale: 2.0,
        },
    ];

    #[test]
    fn matches_oracle_for_every_model() {
        for seed in [3, 17] {
            let stream = random_stream(seed, 250);
            for model in MODELS {
                for theta in [0.5, 0.8] {
                    let mut oracle: Vec<_> = brute_force_stream_model(&stream, theta, model)
                        .iter()
                        .map(|p| p.key())
                        .collect();
                    oracle.sort_unstable();
                    let mut join = DecayStreaming::new(theta, model);
                    assert_eq!(
                        run(&mut join, &stream),
                        oracle,
                        "{model} θ={theta} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn exponential_model_matches_str_l2() {
        let stream = random_stream(42, 300);
        let theta = 0.6;
        let lambda = 0.15;
        let mut reference = Streaming::new(SssjConfig::new(theta, lambda), IndexKind::L2);
        let mut generic = DecayStreaming::new(theta, DecayModel::exponential(lambda));
        assert_eq!(run(&mut generic, &stream), run(&mut reference, &stream));
    }

    #[test]
    fn window_max_ablation_preserves_output() {
        let stream = random_stream(9, 250);
        for model in MODELS {
            let mut with = DecayStreaming::with_options(0.55, model, true);
            let mut without = DecayStreaming::with_options(0.55, model, false);
            let a = run(&mut with, &stream);
            let b = run(&mut without, &stream);
            assert_eq!(a, b, "{model}");
            // The extra bound can only reduce admitted candidates.
            assert!(
                with.stats().candidates <= without.stats().candidates,
                "{model}: {} > {}",
                with.stats().candidates,
                without.stats().candidates
            );
        }
    }

    #[test]
    fn sliding_window_reports_undecayed_similarity() {
        let mut join = DecayStreaming::new(0.9, DecayModel::sliding_window(10.0));
        let stream = vec![rec(0, 0.0, &[(1, 1.0)]), rec(1, 9.5, &[(1, 1.0)])];
        let mut out = Vec::new();
        for r in &stream {
            join.process(r, &mut out);
        }
        assert_eq!(out.len(), 1);
        assert!((out[0].similarity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn postings_are_truncated_at_model_horizon() {
        let mut join = DecayStreaming::new(0.5, DecayModel::linear(2.0));
        assert!((join.tau() - 1.0).abs() < 1e-12); // 2·(1−0.5)
        let mut out = Vec::new();
        for i in 0..40 {
            join.process(&rec(i, i as f64 * 3.0, &[(1, 1.0)]), &mut out);
        }
        assert!(out.is_empty());
        assert!(join.live_postings() <= 2);
    }

    #[test]
    #[should_panic(expected = "infinite horizon")]
    fn infinite_horizon_rejected() {
        DecayStreaming::new(0.5, DecayModel::exponential(0.0));
    }

    #[test]
    fn name_mentions_model() {
        let j = DecayStreaming::new(0.5, DecayModel::polynomial(2.0, 3.0));
        assert_eq!(j.name(), "STR-L2[poly:2:3]");
    }
}
