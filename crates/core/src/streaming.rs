//! The STR framework (Algorithms 5–8): a single streaming index with time
//! filtering built into every phase.
//!
//! # Hot-path layout
//!
//! The per-record loop — candidate generation over posting lists, then
//! verification — is the paper's headline cost (Figs. 3–5), so this
//! implementation keeps it flat and allocation-free at steady state:
//!
//! * posting lists are flat single-allocation [`PostingBlock`]s of
//!   packed 32-byte entries, kept in arrival order for every index kind
//!   (a re-indexed posting is inserted at its row's ordinal): candidate
//!   generation is one contiguous slice walk (no ring-buffer masking),
//!   and time truncation is a binary search on the packed time field
//!   plus an O(1) front cut instead of an entry-by-entry backward scan
//!   (the layout was chosen over fully-columnar splits by measurement —
//!   see `sssj_collections::posting`);
//! * per-vector state — id, arrival time, the `Q` bound, the residual
//!   `R[ι(y)]` — is one [`ArrivalStore`] row, keyed by the row's
//!   arrival *ordinal*: columns for the scalars and one FIFO arena for
//!   the residual coordinates, popped from the front as rows pass the
//!   horizon and compacted in place, so the store is sized by the live
//!   horizon. Postings carry the ordinal, not the vector id, so a list's
//!   keys always rise, and a vector id that arrives twice is two rows;
//!   the id is looked up only when a pair is emitted;
//! * the candidate score array is a dense, epoch-stamped
//!   [`ScoreAccumulator`] keyed by ordinal and floored at the oldest
//!   live row — O(1) reset, no hashing — so a slot's offset is its row
//!   in the store's columns. Every index kind walks each posting list
//!   once, newest first, through
//!   [`ScoreAccumulator::accumulate_l2_list_rev`], and the kinds differ
//!   only in the bounds they pass it (AP has no ℓ2 prune; INV has every
//!   bound off, so it admits every posting and prunes none): eight
//!   postings at a time on AVX-512 (four on AVX2) it computes the decay
//!   bounds, deltas, admission flags and prune thresholds and applies
//!   them to the score slots in the same registers, with no arrays in
//!   between; on AVX-512 masked scatters and a compress-store write only
//!   the slots that change, and the oldest group is masked to the
//!   postings left. A list's ordinals rise, so each group lands in
//!   distinct slots, which is what the vector step checks; the AVX2
//!   pass's oldest `n % 4` postings, lists shorter than four and the
//!   scalar lanes take one fused probe per entry
//!   ([`ScoreAccumulator::accumulate`]);
//! * the decay factor `e^{-λΔt}` is read from a quantized upper-bound
//!   [`DecayTable`] inside all *pruning* tests (safe: a larger factor
//!   prunes less) and computed exactly only for the final similarity of
//!   surviving candidates;
//! * any other [`DecayModel`] (§8: `f(0) = 1`, non-increasing, a finite
//!   horizon `τ(θ)`) runs the same STR-L2 path
//!   ([`Streaming::with_decay`]): the table, the horizon and the exact
//!   factor come from the model. Its `m̂λ` has no generic counterpart (it
//!   needs the exponential's semigroup property), so an optional
//!   *undecayed* windowed maximum ([`WindowedMaxVec`]) bounds
//!   `dot(x, y) ≤ rs1w = Σ_j x_j·max_window(j)` instead, and vetoes a
//!   list's new candidates by passing `rs2 = −∞` once `rs1w < θ`;
//! * the static index of Algorithms 2–4 is this engine with time
//!   filtering off (`Streaming::untimed`): `τ = ∞`, so nothing expires
//!   and the one-bin table prunes with factor 1, `m̂` is the plain
//!   maximum over indexed vectors and the caller seeds `m`. Verification
//!   still scores with the exact factor, which is MB's `ApplyDecay`.
//!   MB runs every window on one such index, emptied between windows
//!   by `Streaming::restart` through the two windows' dimensions alone,
//!   and [`crate::batch::all_pairs`] is static APSS on it;
//! * the index-construction bounds are replayed in squared space (no
//!   per-coordinate square root), and the stored `‖y′_j‖` prefix norms
//!   continue that recurrence so only indexed suffixes pay a `sqrt`;
//! * verification takes two passes. The survivor filter
//!   ([`ScoreAccumulator::survivors`]) runs over the touched slots and
//!   the store's `Q` and time columns alone — gathers and a
//!   compress-store on AVX-512, a branch-free loop elsewhere — and
//!   keeps `c > 0 ∧ (c + Q)·df ≥ θ`. Only survivors read their
//!   contiguous residual: AP's size, `ds1` and `sz2` tests, then the
//!   residual dot as `sssj_kernels::dot_dense` against the query
//!   scattered into a dimension-indexed scratch (scattered at the first
//!   survivor and cleared after the last, so a record with none pays
//!   nothing), times the exact decay factor once the undecayed score
//!   reaches `θ` (no factor exceeds 1, so a score below `θ` skips it);
//! * the store, the filter's output, the scatter scratch and the
//!   accumulator reach their size and stay there — steady-state
//!   processing performs **zero** heap allocations per record on the
//!   STR-L2, STR-INV, STR-AP and STR-L2AP paths (asserted by
//!   `tests/zero_alloc.rs`).

use sssj_collections::{
    ArrivalStore, DecayedMaxVec, MaxVector, PostingBlock, ScoreAccumulator, SurvivorFilter,
    Survivors, WindowedMaxVec,
};
use sssj_kernels::L2BatchParams;
use sssj_metrics::JoinStats;
use sssj_types::{DecayModel, DecayTable, SimilarPair, SparseVector, StreamRecord, VectorSummary};

use sssj_index::{BoundPolicy, IndexKind};

use crate::algorithm::{ShardableJoin, StreamJoin};
use crate::config::SssjConfig;
use crate::spec::DecaySpec;

/// Float guard for threshold comparisons: pruning tests are slackened by
/// this amount (prune *less*), so accumulated rounding can never cause a
/// false negative; the final exact check still uses the true `θ`.
const PRUNE_EPS: f64 = 1e-12;

/// The oldest time still inside the horizon at `now`: the least `c` with
/// `now − c ≤ τ`. Cutting a time-ordered list at `t < c` then drops
/// exactly the entries with `now − t > τ`, the test the residual
/// metadata (and the brute-force oracle) expire by. The naive `now − τ`
/// can land an ulp either side of that edge, and a posting would then
/// die while its vector still pairs (`tests/horizon_boundary.rs`).
fn horizon_cutoff(now: f64, tau: f64) -> f64 {
    let inside = |c: f64| now - c <= tau;
    let c = now - tau;
    if !c.is_finite() || (inside(c) && !inside(c.next_down())) {
        return c;
    }
    // Rare: bracket the edge by a few ulps of the larger operand and
    // bisect over the total order of doubles (`f64::total_cmp`'s key,
    // an involution on the bit pattern).
    let flip = |b: i64| b ^ (((b >> 63) as u64) >> 1) as i64;
    let key = |x: f64| flip(x.to_bits() as i64);
    let at = |k: i64| f64::from_bits(flip(k) as u64);
    let step = now.abs().max(tau) * (4.0 * f64::EPSILON);
    let (mut lo, mut hi) = (key(c - step), key(c + step));
    debug_assert!(!inside(at(lo)) && inside(at(hi)));
    while lo + 1 < hi {
        let mid = lo.midpoint(hi);
        if inside(at(mid)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    at(hi)
}

/// STR-IDX: the streaming similarity self-join with index `IDX`
/// (Algorithm 5).
///
/// For each arriving vector the index is queried (candidate generation +
/// verification, with every bound decayed by `e^{-λΔt}`) and the vector is
/// then inserted. Posting lists stay time-ordered for every variant, so
/// candidate generation first drops the expired prefix (binary search on
/// the time field + O(1) truncation, §6.2) and then scans only live
/// entries in one list pass, [`ScoreAccumulator::accumulate_l2_list_rev`];
/// the variants differ in the bounds they pass it:
///
/// * **STR-INV** — its bounds at −∞ (`θₛ = −∞`): it admits every posting
///   and prunes none.
/// * **STR-L2** — `rs2·df ≥ θₛ` admits, the ℓ2 bound prunes.
/// * **STR-AP / STR-L2AP** — the `b1` bound consults the running max
///   vector `m`; when a new arrival raises `m`, the prefix-filtering
///   invariant breaks and affected residuals are *re-indexed* (§5.3).
///   The paper appends those postings out of time order and must then
///   scan its lists whole; here each goes in at its row's ordinal, so
///   lists keep their order. The `rs1` bound vetoes a list's new
///   candidates (`rs2 = −∞`); AP has no ℓ2 prune (`‖x′‖ = ∞`), and its
///   size filter runs in verification.
pub struct Streaming {
    theta: f64,
    kind: IndexKind,
    policy: BoundPolicy,
    /// The decay model; its exact factor scores verified candidates.
    model: DecayModel,
    /// Quantized upper bounds on the decay factor (pruning only).
    table: DecayTable,
    tau: f64,
    /// The window-max bound `rs1w` (`with_decay` with `bounds=wmax`).
    window_max: Option<WindowedMaxVec>,
    /// Built by [`Streaming::with_decay`]: the name shows the model.
    generic: bool,
    /// Posting lists by dimension; a posting's id word is its row's
    /// ordinal in `store`.
    lists: Vec<PostingBlock>,
    /// Residual direct index `R` + `Q`: one row per indexed vector, in
    /// arrival order for O(1) pruning. The row payload is `|y|·vm_y`,
    /// the whole vector's side of the AP size filter (0 without AP).
    store: ArrivalStore<f64>,
    /// Running max `m` over the stream so far (AP bounds only).
    m: MaxVector,
    /// Decayed max `m̂λ` over indexed vectors (AP bounds only).
    mhat_lambda: DecayedMaxVec,
    /// Dim → ordinals of the rows whose residual has support on it, for
    /// targeted re-indexing.
    residual_inverted: Vec<Vec<u64>>,
    /// Candidate scores, keyed by row ordinal.
    acc: ScoreAccumulator,
    /// Scratch: the survivor filter's output.
    survivors: Survivors,
    /// Scratch: the query's weights by dimension for the residual dot;
    /// all zero between queries.
    dense_x: Vec<f64>,
    live_postings: u64,
    stats: JoinStats,
}

impl Streaming {
    /// Creates an STR join with the given index variant.
    pub fn new(config: SssjConfig, kind: IndexKind) -> Self {
        Self::build(config.theta, kind, config.decay().into(), false)
    }

    /// STR-L2 under any [`DecayModel`] (§8 future work): the `decay`
    /// engine. The L2 index's pruning bounds depend only on the query and
    /// the candidate, so they carry over to any `f(Δt) ≤ 1` that is
    /// non-increasing with a finite horizon; `decay.window_max` turns on
    /// the window-max bound `rs1w` (`bounds=wmax`), which changes the
    /// pruning work, never the output.
    ///
    /// Panics when the model has an infinite horizon at this `θ`
    /// (exponential with `λ = 0`): the streaming join needs a finite
    /// forgetting horizon to bound memory.
    ///
    /// ```
    /// use sssj_core::{DecaySpec, StreamJoin, Streaming};
    /// use sssj_types::{vector::unit_vector, DecayModel, StreamRecord, Timestamp};
    ///
    /// // Hard 10-second sliding window, θ = 0.7.
    /// let window = DecaySpec::new(DecayModel::sliding_window(10.0));
    /// let mut join = Streaming::with_decay(0.7, window);
    /// let mut out = Vec::new();
    /// for (id, t) in [(0, 0.0), (1, 9.0), (2, 25.0)] {
    ///     let r = StreamRecord::new(id, Timestamp::new(t), unit_vector(&[(1, 1.0)]));
    ///     join.process(&r, &mut out);
    /// }
    /// // 0–1 are 9 s apart (inside the window, undecayed similarity 1.0);
    /// // 2 is 16 s after 1, outside.
    /// assert_eq!(out.len(), 1);
    /// assert_eq!((out[0].left, out[0].right), (0, 1));
    /// assert_eq!(join.name(), "STR-L2[window:10]");
    /// ```
    pub fn with_decay(theta: f64, decay: DecaySpec) -> Self {
        let model = decay.model;
        assert!(
            model.horizon(theta).is_finite(),
            "decay model {model} has an infinite horizon at θ={theta}; \
             streaming requires a finite forgetting horizon"
        );
        let mut join = Self::build(theta, IndexKind::L2, model, decay.window_max);
        join.generic = true;
        join
    }

    /// The static index of Algorithms 2–4 (see the module docs): STR
    /// with `τ = ∞`, the exact one-bin table and an undecayed `m̂`.
    /// Before the first query, [`Streaming::seed_max`] must cover `m`
    /// with every vector that will query or be indexed, so that nothing
    /// is re-indexed. `model` only scores verified pairs.
    pub(crate) fn untimed(theta: f64, kind: IndexKind, model: DecayModel) -> Self {
        let mut join = Self::build(theta, kind, model, false);
        join.tau = f64::INFINITY;
        join.table = DecayTable::new(model, f64::INFINITY);
        join.mhat_lambda = DecayedMaxVec::new(0.0);
        join
    }

    /// Empties an [`untimed`](Self::untimed) index for the next batch and
    /// zeroes its stats, keeping every allocation. `batch` must hold
    /// every vector indexed or queried since the index was built or last
    /// restarted: only their dimensions are cleared, so a restart costs
    /// what the batch touched, not the dimensionality. The next batch's
    /// `m` is then seeded with [`Streaming::seed_max`].
    pub(crate) fn restart<'a>(&mut self, batch: impl IntoIterator<Item = &'a SparseVector>) {
        debug_assert!(self.tau.is_infinite(), "restart is for untimed indexes");
        for (d, _) in batch.into_iter().flat_map(SparseVector::iter) {
            if let Some(list) = self.lists.get_mut(d as usize) {
                list.clear();
            }
            if let Some(ords) = self.residual_inverted.get_mut(d as usize) {
                ords.clear();
            }
            self.m.reset(d);
            self.mhat_lambda.reset(d);
        }
        debug_assert!(self.lists.iter().all(PostingBlock::is_empty));
        self.store.clear();
        self.live_postings = 0;
        self.stats = JoinStats::new();
    }

    fn build(theta: f64, kind: IndexKind, model: DecayModel, window_max: bool) -> Self {
        let policy = kind.policy();
        let tau = model.horizon(theta);
        // AP bounds run only under the exponential (`with_decay` fixes
        // the index to L2): `m̂λ` rests on its semigroup property.
        let lambda = match model {
            DecayModel::Exponential { lambda } => lambda,
            _ => 0.0,
        };
        Streaming {
            theta,
            kind,
            policy,
            model,
            table: DecayTable::new(model, tau),
            tau,
            window_max: window_max.then(|| WindowedMaxVec::new(tau.max(f64::MIN_POSITIVE))),
            generic: false,
            lists: Vec::new(),
            store: ArrivalStore::new(),
            m: MaxVector::new(),
            mhat_lambda: DecayedMaxVec::new(lambda),
            residual_inverted: Vec::new(),
            acc: ScoreAccumulator::new(),
            survivors: Survivors::new(),
            dense_x: Vec::new(),
            live_postings: 0,
            stats: JoinStats::new(),
        }
    }

    /// The index variant.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// The decay model's horizon `τ(θ)`.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Estimated heap footprint of the live join state, in bytes.
    ///
    /// Counts *capacities* (what is actually allocated, not just
    /// occupied): the posting lists, the row store with its residual
    /// arena (dead rows not yet compacted away included), the `m`/`m̂λ`
    /// max vectors, the re-indexing inverted index, the decay table and
    /// the scratch structures. Allocator rounding and headers are not
    /// counted.
    ///
    /// Cost is O(live state) — sample it periodically (the `harness
    /// memory` experiment samples every 64 records), not per record.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut bytes = 0u64;
        bytes += self.lists.iter().map(PostingBlock::heap_bytes).sum::<u64>();
        bytes += self.lists.capacity() as u64 * size_of::<PostingBlock>() as u64;
        bytes += self.store.heap_bytes();
        bytes += self.m.dims() as u64 * 8;
        bytes += self.mhat_lambda.dims() as u64 * 16;
        bytes += self
            .residual_inverted
            .iter()
            .map(|v| v.capacity() as u64 * 8 + size_of::<Vec<u64>>() as u64)
            .sum::<u64>();
        bytes += self.acc.heap_bytes();
        bytes += self.table.heap_bytes();
        bytes += self.survivors.heap_bytes();
        bytes += self.dense_x.capacity() as u64 * 8;
        bytes
    }

    /// Candidate generation (Algorithm 7).
    ///
    /// The accumulator was cleared by [`Streaming::query`] (the clear
    /// must precede the dense-window slide there); this function assumes
    /// an empty accumulator.
    fn candidate_generation(&mut self, x: &SparseVector, now: f64) {
        debug_assert!(self.acc.is_empty(), "query() clears before generating");
        let cand0 = self.stats.candidates;
        let ent0 = self.stats.entries_traversed;
        let mut trace_span = sssj_metrics::trace::span(sssj_metrics::trace::Stage::Candidates);
        let theta_slack = self.theta - PRUNE_EPS;
        let policy = self.policy;
        let cutoff = horizon_cutoff(now, self.tau);
        // rs1 = dot(x, m̂λ(now)): already time-aware per coordinate.
        let mut rs1 = if policy.ap {
            x.iter()
                .map(|(d, w)| w * self.mhat_lambda.get(d, now))
                .sum::<f64>()
        } else {
            f64::INFINITY
        };
        // rs1w = Σ_j x_j · max over the window of coordinate j (the
        // window-max bound, ∞ when off), shrunk as the scan passes each
        // dimension like rs1.
        let mut rs1w = match &mut self.window_max {
            Some(wm) => x.iter().map(|(d, w)| w * wm.max(d, now)).sum::<f64>(),
            None => f64::INFINITY,
        };
        let mut rst: f64 = 1.0;
        let mut rs2 = if policy.l2 { 1.0 } else { f64::INFINITY };

        let window_max = &mut self.window_max;
        let lists = &mut self.lists;
        let acc = &mut self.acc;
        let stats = &mut self.stats;
        let live = &mut self.live_postings;
        let mhat_lambda = &self.mhat_lambda;
        let (factors, inv_step) = self.table.lookup();

        for (dim, xj) in x.iter().rev() {
            if let Some(list) = lists.get_mut(dim as usize).filter(|l| !l.is_empty()) {
                // Every list is time-ordered: the expired prefix is
                // exactly the entries with now − t > τ, i.e. t < cutoff.
                // Drop it in O(log n) + O(1) and scan only live entries.
                let pruned = list.expire_before(cutoff);
                if pruned > 0 {
                    stats.entries_pruned += pruned as u64;
                    *live -= pruned as u64;
                }
                let postings = list.postings();
                stats.entries_traversed += postings.len() as u64;
                // ‖x′_j‖ for the l2bound, recovered from the running
                // suffix mass instead of a materialised prefix-norm
                // array: x is unit-normalised, so during this iteration
                // rst = Σ_{i ≤ pos} w_i² and the prefix before this
                // coordinate has mass rst − x_j². An index without the
                // ℓ2 bound passes ∞, which prunes nothing (see
                // `L2BatchParams`).
                let xnorm_before = if policy.l2 {
                    (rst - xj * xj).max(0.0).sqrt()
                } else {
                    f64::INFINITY
                };
                // One pass over the list, newest posting first (which sets
                // first-touch, and so output, order) computes each
                // posting's decay bound, score delta, admission flag and
                // prune threshold and applies them to the accumulator.
                // The early ℓ2 prune (Cauchy–Schwarz on the unscanned
                // prefixes, decayed) is folded into the per-entry
                // threshold `θₛ − ‖x′‖·pn·df`. Admission is
                // `min(rs1, rs1w, rs2·df) ≥ θₛ`; the per-list conjuncts
                // `rs1 ≥ θₛ ∧ rs1w ≥ θₛ` veto with `rs2 = −∞`, and AP's
                // `rs2 = ∞` admits on them alone. INV has no bounds:
                // `θₛ = −∞` with `rs2 = 1` admits every posting and
                // prunes none.
                let (list_rs2, list_theta) = if !policy.prunes() {
                    (1.0, f64::NEG_INFINITY)
                } else if rs1 >= theta_slack && rs1w >= theta_slack {
                    (rs2, theta_slack)
                } else {
                    (f64::NEG_INFINITY, theta_slack)
                };
                let params = L2BatchParams {
                    xj,
                    now,
                    xnorm_before,
                    rs2: list_rs2,
                    theta_slack: list_theta,
                    inv_step,
                };
                stats.candidates += acc.accumulate_l2_list_rev(postings, &params, factors) as u64;
            }
            if policy.ap {
                rs1 -= xj * mhat_lambda.get(dim, now);
            }
            if let Some(wm) = window_max.as_mut() {
                if rs1w.is_finite() {
                    rs1w -= xj * wm.max(dim, now);
                }
            }
            if policy.l2 {
                rst -= xj * xj;
                rs2 = rst.max(0.0).sqrt();
            }
        }
        trace_span.set_args(
            self.stats.candidates - cand0,
            self.stats.entries_traversed - ent0,
        );
    }

    /// Candidate verification (Algorithm 8), in two passes: the survivor
    /// filter over the accumulator and the store's columns, then the
    /// residual work for survivors only.
    ///
    /// Pruning tests use the table's decay *upper bound* (cannot lose a
    /// pair); only candidates whose full undecayed similarity reaches `θ`
    /// pay the model's exact factor.
    fn candidate_verification(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
        let theta = self.theta;
        let theta_slack = theta - PRUNE_EPS;
        let policy = self.policy;
        let x = &record.vector;
        let now = record.t.seconds();
        let (factors, inv_step) = self.table.lookup();
        let front = self.store.front();
        let filter = SurvivorFilter {
            first: front,
            q: self.store.q_column(),
            t: self.store.t_column(),
            now,
            theta_slack,
            factors,
            inv_step,
            prunes: policy.prunes(),
        };
        self.acc.survivors(&filter, &mut self.survivors);
        if self.survivors.is_empty() {
            return;
        }
        let sx = if policy.ap {
            VectorSummary::of(x)
        } else {
            VectorSummary::default()
        };
        // AP's size filter: a row whose `|y|·vm_y` is below
        // `θ / vm_x` cannot reach θ with x.
        let sz1 = if sx.max_weight > 0.0 {
            theta / sx.max_weight
        } else {
            0.0
        };
        let mut scattered = false;
        for (off, c) in self.survivors.iter() {
            let row = self
                .store
                .row(front + off as u64)
                .expect("a survivor's offset is a live row");
            let dt = (now - row.t).max(0.0);
            if policy.ap {
                if row.aux < sz1 {
                    continue;
                }
                let df_up = self.table.upper(dt);
                let r = VectorSummary::of_weights(row.weights);
                let ds1 = (c + (sx.max_weight * r.sum).min(r.max_weight * sx.sum)) * df_up;
                let sz2 = (c + (sx.nnz.min(r.nnz) as f64) * sx.max_weight * r.max_weight) * df_up;
                if ds1 < theta_slack || sz2 < theta_slack {
                    continue;
                }
            }
            self.stats.full_sims += 1;
            if !scattered {
                scattered = true;
                let span = x.dims().last().map_or(0, |&d| d as usize + 1);
                if self.dense_x.len() < span {
                    // Grown in place: swapping in a fresh zeroed buffer
                    // instead measured +15 MiB peak RSS on a sparse,
                    // 30 000-dimension stream (allocator placement).
                    self.dense_x.resize(span.next_power_of_two(), 0.0);
                }
                for (d, w) in x.iter() {
                    self.dense_x[d as usize] = w;
                }
            }
            let dot_res = sssj_kernels::dot_dense(row.dims, row.weights, &self.dense_x);
            // Every model's factor is at most 1 (and θ > 0), and rounding
            // is monotone, so an undecayed score below θ cannot decay to
            // θ: skip the exact factor (an `exp` under the exponential).
            let undecayed = c + dot_res;
            if undecayed < theta {
                continue;
            }
            let sim = undecayed * self.model.factor(dt);
            if sim >= theta {
                self.stats.pairs_output += 1;
                out.push(SimilarPair::new(row.id, record.id, sim));
            }
        }
        if scattered {
            for &d in x.dims() {
                self.dense_x[d as usize] = 0.0;
            }
        }
    }

    /// Replays the index-construction bounds over a residual prefix with
    /// the current `m`. Returns `(boundary, q, prefix_mass)`: the
    /// position where indexing must (re)start — or `None` when the whole
    /// prefix stays below θ — the updated `Q` bound, and the squared
    /// norm `‖x′_boundary‖²` accumulated up to (excluding) the boundary,
    /// which seeds the suffix prefix-norm recurrence of
    /// [`Streaming::index_suffix`].
    ///
    /// The ℓ2 bound is compared in *squared* space (`bt ≥ θ²` instead of
    /// `√bt ≥ θ`), so the per-coordinate square root disappears; the one
    /// `sqrt` for the `Q` bound is paid only at the crossing.
    fn replay_boundary(&self, dims: &[u32], weights: &[f64]) -> (Option<usize>, f64, f64) {
        let theta_slack = self.theta - PRUNE_EPS;
        let theta_sq = theta_slack * theta_slack;
        let policy = self.policy;
        let mut b1: f64 = 0.0;
        let mut bt: f64 = 0.0;
        for (pos, (&dim, &w)) in dims.iter().zip(weights).enumerate() {
            let (b1_prev, bt_prev) = (b1, bt);
            if policy.ap {
                b1 += w * self.m.get(dim);
            }
            if policy.l2 {
                bt += w * w;
            }
            let crossed = match (policy.ap, policy.l2) {
                (false, false) => true,
                (true, false) => b1 >= theta_slack,
                (false, true) => bt >= theta_sq,
                (true, true) => b1 >= theta_slack && bt >= theta_sq,
            };
            if crossed {
                let pscore = policy.combine(b1_prev, bt_prev.sqrt()).min(1.0);
                return (Some(pos), pscore, bt_prev);
            }
        }
        (None, policy.combine(b1, bt.sqrt()).min(1.0), bt)
    }

    /// Writes posting entries for coordinates `boundary..` of the row
    /// with ordinal `ord` and time `t` into `lists` through `place`
    /// ([`PostingBlock::push`] for an arrival, [`PostingBlock::insert`]
    /// for a re-indexed row, which goes in behind the newer rows), and
    /// returns how many entries were written.
    ///
    /// `prefix_mass` is `‖x′_boundary‖²` from [`Streaming::replay_boundary`];
    /// the stored `‖x′_j‖` values continue that recurrence, so only the
    /// indexed suffix pays square roots. (The recurrence tracks the true
    /// prefix norm only while the ℓ2 bound accumulates it — exactly the
    /// policies whose prune reads `prefix_norm`; AP postings carry a
    /// partial value, which the list pass multiplies by `‖x′‖ = ∞`.)
    fn index_suffix(
        lists: &mut Vec<PostingBlock>,
        place: impl Fn(&mut PostingBlock, u64, f64, f64, f64),
        (ord, t): (u64, f64),
        dims: &[u32],
        weights: &[f64],
        boundary: usize,
        prefix_mass: f64,
    ) -> u64 {
        let mut mass = prefix_mass;
        for pos in boundary..dims.len() {
            let d = dims[pos] as usize;
            if d >= lists.len() {
                lists.resize_with(d + 1, PostingBlock::new);
            }
            let w = weights[pos];
            place(&mut lists[d], ord, w, mass.sqrt(), t);
            mass += w * w;
        }
        (dims.len() - boundary) as u64
    }

    /// Counts `added` new postings.
    fn count_postings(&mut self, added: u64) {
        self.live_postings += added;
        self.stats.postings_added += added;
    }

    /// Re-indexes residuals with support on `dim` after `m[dim]` grew
    /// (§5.3); updates `R` and `Q`. A row's residual and its postings
    /// cover disjoint dimensions, so a re-indexed posting is the row's
    /// only one in its list, and inserting it at its ordinal keeps every
    /// list time-ordered.
    fn reindex_dim(&mut self, dim: u32) {
        let d = dim as usize;
        if d >= self.residual_inverted.len() {
            return;
        }
        let mut ords = std::mem::take(&mut self.residual_inverted[d]);
        let mut kept = 0;
        for i in 0..ords.len() {
            if self.reindex_row(ords[i], dim) {
                ords[kept] = ords[i];
                kept += 1;
            }
        }
        ords.truncate(kept);
        self.residual_inverted[d] = ords;
    }

    /// [`Streaming::reindex_dim`] for the row with ordinal `ord`. Returns
    /// whether its residual still has support on `dim`.
    fn reindex_row(&mut self, ord: u64, dim: u32) -> bool {
        let has_dim = |dims: &[u32], weights: &[f64]| match dims.binary_search(&dim) {
            Ok(i) => weights[i] != 0.0,
            Err(_) => false,
        };
        let Some(row) = self.store.row(ord) else {
            return false; // expired
        };
        if !has_dim(row.dims, row.weights) {
            return false; // already re-indexed past this dimension
        }
        let (boundary, q, mass) = self.replay_boundary(row.dims, row.weights);
        let Some(p) = boundary else {
            // Bound still below θ: residual unchanged, but Q must be
            // refreshed for the grown m.
            self.store.set_q(ord, q);
            return true;
        };
        let added = Self::index_suffix(
            &mut self.lists,
            PostingBlock::insert,
            (ord, row.t),
            row.dims,
            row.weights,
            p,
            mass,
        );
        let still = has_dim(&row.dims[..p], &row.weights[..p]);
        self.count_postings(added);
        self.stats.reindexed_vectors += 1;
        self.stats.reindexed_postings += added;
        self.store.truncate_residual(ord, p);
        self.store.set_q(ord, q);
        still
    }

    /// Index construction for the arriving vector (Algorithm 6; `m` was
    /// already updated before candidate generation).
    fn insert(&mut self, record: &StreamRecord) {
        let x = &record.vector;
        if x.is_empty() {
            return;
        }
        let t = record.t.seconds();
        if let Some(wm) = &mut self.window_max {
            // Updated on insert only: it bounds dot products against
            // *indexed* candidates, so query-only records never raise it.
            for (dim, w) in x.iter() {
                wm.update(dim, t, w);
            }
        }
        let (boundary, q, mass) = self.replay_boundary(x.dims(), x.weights());
        let ord = self.store.end();
        if let Some(p) = boundary {
            let added = Self::index_suffix(
                &mut self.lists,
                PostingBlock::push,
                (ord, t),
                x.dims(),
                x.weights(),
                p,
                mass,
            );
            self.count_postings(added);
        }
        if self.policy.ap {
            // m̂λ covers the full vector (residual included), as rs1 bounds
            // the dot against whole indexed vectors.
            for (dim, w) in x.iter() {
                self.mhat_lambda.update(dim, t, w);
            }
        }
        // A fully-unindexed vector must still be tracked when AP bounds
        // are active: a later growth of m can make it indexable.
        if boundary.is_none() && !self.policy.ap {
            return;
        }
        let blen = boundary.unwrap_or(x.nnz());
        let (dims, weights) = (&x.dims()[..blen], &x.weights()[..blen]);
        self.stats.residual_coords += blen as u64;
        let mut size = 0.0;
        if self.policy.ap {
            let front = self.store.front();
            for &dim in dims {
                let d = dim as usize;
                if d >= self.residual_inverted.len() {
                    self.residual_inverted.resize_with(d + 1, Vec::new);
                }
                // Ordinals rise, so the rows that expired are a prefix.
                // Drop it when the list is full and it is at least half
                // the list (amortised O(1)), or the list grows with the
                // stream instead of the horizon.
                let ords = &mut self.residual_inverted[d];
                if ords.len() == ords.capacity() {
                    let expired = ords.partition_point(|&o| o < front);
                    if expired >= ords.len() / 2 {
                        ords.drain(..expired);
                    }
                }
                ords.push(ord);
            }
            let s = VectorSummary::of(x);
            size = s.nnz as f64 * s.max_weight;
        }
        let pushed = self.store.push(record.id, t, q, size, dims, weights);
        debug_assert_eq!(pushed, ord);
        self.stats.observe_postings(self.live_postings);
    }
}

impl Streaming {
    /// The query half of [`StreamJoin::process`]: reports pairs between
    /// `record` and the vectors currently indexed, *without* inserting
    /// `record`.
    ///
    /// Together with [`Streaming::insert_record`] this decomposes the
    /// join for sharded execution (`sssj-parallel`): every shard queries
    /// with every record, but each record is inserted at exactly one
    /// shard, so each pair is found exactly once — at the shard owning
    /// its earlier member.
    pub fn query(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
        let now = record.t.seconds();
        // Posting entries are pruned lazily during scans instead.
        self.store.pop_expired(now, self.tau);
        // Every candidate row is alive (within the horizon), so the score
        // window can slide up to the oldest live row, which makes a
        // slot's offset its row in the store's columns. The accumulator
        // still holds the previous query's touched set — drop it first,
        // the floor only moves when empty.
        self.acc.clear();
        self.acc.advance_floor(self.store.front());
        if self.policy.ap {
            // Update m first and restore the prefix-filter invariant, so
            // that this very query cannot miss an under-indexed vector.
            // m must cover *query* vectors too (it bounds the similarity
            // of indexed prefixes to anything that arrives), so this runs
            // even for records this shard does not own.
            let mut grown: Vec<u32> = Vec::new();
            for (dim, w) in record.vector.iter() {
                if self.m.update(dim, w) {
                    grown.push(dim);
                }
            }
            for dim in grown {
                self.reindex_dim(dim);
            }
        }
        self.candidate_generation(&record.vector, now);
        self.candidate_verification(record, out);
    }

    /// The insert half of [`StreamJoin::process`]: adds `record` to the
    /// index so later arrivals can pair with it. See [`Streaming::query`].
    pub fn insert_record(&mut self, record: &StreamRecord) {
        self.insert(record);
    }

    /// Pre-seeds the AP running-max vector `m` (checkpoint restore, and
    /// the whole batch before an untimed index runs; see the module docs).
    ///
    /// `m` accumulates over the *whole* stream, not just the horizon; a
    /// restored join that rebuilt `m` from buffered records alone would
    /// still be output-correct (a smaller `m` only indexes more), but its
    /// indexing decisions — and so its performance profile — would drift
    /// from the uninterrupted run. Ignored by non-AP indexes.
    pub fn seed_max(&mut self, maxima: impl IntoIterator<Item = (u32, f64)>) {
        for (dim, v) in maxima {
            self.m.update(dim, v);
        }
    }

    /// The AP running-max vector `m` as (dim, value) pairs (checkpoint
    /// aux). Empty for non-AP indexes.
    pub fn max_entries(&self) -> Vec<(u32, f64)> {
        self.m
            .as_slice()
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0.0)
            .map(|(d, &v)| (d as u32, v))
            .collect()
    }
}

impl ShardableJoin for Streaming {
    fn process_routed(&mut self, record: &StreamRecord, insert: bool, out: &mut Vec<SimilarPair>) {
        self.query(record, out);
        if insert {
            self.insert(record);
        }
    }

    /// Postings (and residual coordinates) expire at the horizon `τ(θ)`, and
    /// candidate generation only matches on shared dimensions, so a shard
    /// whose in-horizon inserts share no dimension with the query cannot
    /// produce a pair.
    fn occupancy_horizon(&self) -> Option<f64> {
        Some(self.tau)
    }

    fn checkpoint_aux(&self, out: &mut Vec<u8>) {
        crate::algorithm::write_max_aux(&self.max_entries(), out);
    }

    fn seed_checkpoint_aux(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.seed_max(crate::algorithm::read_max_aux(bytes)?);
        Ok(())
    }
}

impl crate::algorithm::Checkpointable for Streaming {
    /// Aux = the AP running-max vector `m`, the one structure that
    /// accumulates beyond the horizon (empty for non-AP indexes, where
    /// [`Streaming::max_entries`] returns nothing). The window-max bound
    /// covers only in-horizon records, which WAL replay rebuilds.
    fn write_aux(&mut self, out: &mut Vec<u8>) {
        ShardableJoin::checkpoint_aux(self, out);
    }

    /// An empty blob reads as "no maxima": `decay` stores written while
    /// that engine was a type of its own carry one.
    fn read_aux(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            return Ok(());
        }
        ShardableJoin::seed_checkpoint_aux(self, bytes)
    }

    /// Everything output-relevant lives inside the horizon `τ`.
    fn replay_horizon(&self) -> f64 {
        self.tau
    }
}

impl StreamJoin for Streaming {
    fn process(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
        self.query(record, out);
        self.insert(record);
    }

    fn finish(&mut self, _out: &mut Vec<SimilarPair>) {
        // STR reports pairs immediately; nothing is buffered.
    }

    fn stats(&self) -> JoinStats {
        self.stats
    }

    fn live_postings(&self) -> u64 {
        self.live_postings
    }

    fn name(&self) -> String {
        if self.generic {
            format!("STR-L2[{}]", self.model)
        } else {
            format!("STR-{}", self.kind)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssj_types::{vector::unit_vector, Timestamp};

    fn rec(id: u64, t: f64, entries: &[(u32, f64)]) -> StreamRecord {
        StreamRecord::new(id, Timestamp::new(t), unit_vector(entries))
    }

    fn run(kind: IndexKind, config: SssjConfig, stream: &[StreamRecord]) -> Vec<(u64, u64)> {
        let mut join = Streaming::new(config, kind);
        let mut out = Vec::new();
        for r in stream {
            join.process(r, &mut out);
        }
        join.finish(&mut out);
        let mut keys: Vec<_> = out.iter().map(|p| p.key()).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn identical_within_horizon_pair() {
        let stream = vec![
            rec(0, 0.0, &[(1, 1.0)]),
            rec(1, 1.0, &[(1, 1.0)]),
            rec(2, 1000.0, &[(1, 1.0)]),
        ];
        let config = SssjConfig::new(0.5, 0.1); // τ ≈ 6.93
        for kind in IndexKind::ALL {
            assert_eq!(run(kind, config, &stream), vec![(0, 1)], "{kind}");
        }
    }

    #[test]
    fn decay_is_applied_to_similarity() {
        let stream = vec![rec(0, 0.0, &[(1, 1.0)]), rec(1, 2.0, &[(1, 1.0)])];
        let config = SssjConfig::new(0.1, 0.5);
        let mut join = Streaming::new(config, IndexKind::L2);
        let mut out = Vec::new();
        for r in &stream {
            join.process(r, &mut out);
        }
        assert_eq!(out.len(), 1);
        assert!((out[0].similarity - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn expired_postings_are_truncated() {
        let config = SssjConfig::new(0.5, 0.1);
        let mut join = Streaming::new(config, IndexKind::L2);
        let mut out = Vec::new();
        for i in 0..50 {
            join.process(&rec(i, i as f64 * 100.0, &[(1, 1.0)]), &mut out);
        }
        assert!(out.is_empty());
        // Each arrival scans dim 1, finds the single previous entry
        // expired and truncates it.
        assert!(join.live_postings() <= 2, "live={}", join.live_postings());
        assert!(join.stats().entries_pruned >= 48);
    }

    #[test]
    fn horizon_cutoff_is_the_exact_edge() {
        // The least c with now − c ≤ τ, including where `now − τ` is far
        // smaller than `now` (its ulp is tiny, so the naive cutoff can be
        // billions of ulps off the edge) and at τ = 0 and τ = ∞.
        let mut probes = vec![(1000.0, 999.9999999), (1e6, 1e6 - 1e-3), (5.0, 0.0)];
        for i in 1..2000u32 {
            let tau = 0.37 * i as f64;
            probes.push((tau * (1.0 + 1.0 / i as f64), tau));
            probes.push((tau + 1e-9 * i as f64, tau));
        }
        for (now, tau) in probes {
            let c = horizon_cutoff(now, tau);
            assert!(now - c <= tau, "now={now} tau={tau}: {c} is outside");
            assert!(
                now - c.next_down() > tau,
                "now={now} tau={tau}: {c} is late"
            );
        }
        assert_eq!(horizon_cutoff(3.0, f64::INFINITY), f64::NEG_INFINITY);
    }

    #[test]
    fn reindexing_preserves_completeness() {
        // Vector 0's coordinate on dim 2 initially stays in the residual
        // (low m), but vector 1 raises m and a later near-duplicate of 0
        // must still be found.
        let config = SssjConfig::new(0.9, 0.001);
        let stream = vec![
            rec(0, 0.0, &[(1, 1.0), (2, 3.0)]),
            rec(1, 1.0, &[(1, 5.0), (3, 1.0)]),
            rec(2, 2.0, &[(1, 1.0), (2, 3.0)]),
        ];
        let l2ap = run(IndexKind::L2ap, config, &stream);
        let inv = run(IndexKind::Inv, config, &stream);
        assert_eq!(l2ap, inv);
        assert!(inv.contains(&(0, 2)));
    }

    #[test]
    fn str_inv_matches_str_l2_on_random_stream() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let stream: Vec<StreamRecord> = (0..300)
            .map(|i| {
                let entries: Vec<(u32, f64)> = (0..rng.random_range(1..6))
                    .map(|_| (rng.random_range(0..15u32), rng.random_range(0.1..1.0)))
                    .collect();
                rec(i, i as f64 * 0.3, &entries)
            })
            .collect();
        for (theta, lambda) in [(0.5, 0.01), (0.7, 0.1), (0.9, 0.001)] {
            let config = SssjConfig::new(theta, lambda);
            let reference = run(IndexKind::Inv, config, &stream);
            for kind in [IndexKind::L2, IndexKind::L2ap, IndexKind::Ap] {
                assert_eq!(
                    run(kind, config, &stream),
                    reference,
                    "{kind} θ={theta} λ={lambda}"
                );
            }
        }
    }

    #[test]
    fn residual_metadata_is_pruned() {
        let config = SssjConfig::new(0.5, 1.0); // τ ≈ 0.69
        let mut join = Streaming::new(config, IndexKind::L2);
        let mut out = Vec::new();
        for i in 0..100 {
            join.process(&rec(i, i as f64, &[(i as u32 % 7, 1.0)]), &mut out);
        }
        assert!(join.store.len() <= 2, "rows={}", join.store.len());
        // Expired rows and their residual coordinates are reclaimed in
        // place: with ≤ 2 live rows the store never holds more than a
        // few.
        assert!(
            join.store.capacity() <= 8,
            "row capacity={}",
            join.store.capacity()
        );
    }

    #[test]
    fn long_stream_with_sliding_id_window_stays_correct() {
        // The accumulator's dense window must slide with the horizon: a
        // long stream of monotonically growing ids keeps working and keeps
        // finding pairs at the far end.
        let config = SssjConfig::new(0.5, 0.5); // τ ≈ 1.39
        let mut join = Streaming::new(config, IndexKind::L2);
        let mut out = Vec::new();
        for i in 0..20_000u64 {
            join.process(&rec(i, i as f64 * 0.9, &[(1, 1.0)]), &mut out);
        }
        // Consecutive identical vectors are 0.9 apart: e^{-0.45} ≈ 0.64 ≥
        // 0.5; the next-nearest gap 1.8 decays below θ. Every adjacent
        // pair joins, nothing else.
        assert_eq!(out.len(), 19_999);
        assert!(out.iter().all(|p| p.right == p.left + 1));
    }

    #[test]
    fn name_includes_kind() {
        let join = Streaming::new(SssjConfig::new(0.5, 0.1), IndexKind::L2);
        assert_eq!(join.name(), "STR-L2");
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

    fn run_join(join: &mut Streaming, stream: &[StreamRecord]) -> Vec<(u64, u64)> {
        let mut keys: Vec<_> = crate::run_stream(join, stream)
            .iter()
            .map(|p| p.key())
            .collect();
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
                    let mut oracle: Vec<_> =
                        sssj_baseline::brute_force_stream_model(&stream, theta, model)
                            .iter()
                            .map(|p| p.key())
                            .collect();
                    oracle.sort_unstable();
                    let mut join = Streaming::with_decay(theta, DecaySpec::new(model));
                    assert_eq!(
                        run_join(&mut join, &stream),
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
        let (theta, lambda) = (0.6, 0.15);
        let exp = DecaySpec::new(DecayModel::exponential(lambda));
        assert_eq!(
            run_join(&mut Streaming::with_decay(theta, exp), &stream),
            run(IndexKind::L2, SssjConfig::new(theta, lambda), &stream)
        );
    }

    #[test]
    fn window_max_ablation_preserves_output() {
        let stream = random_stream(9, 250);
        for model in MODELS {
            let mut with = Streaming::with_decay(0.55, DecaySpec::new(model));
            let mut without = Streaming::with_decay(
                0.55,
                DecaySpec {
                    model,
                    window_max: false,
                },
            );
            assert_eq!(
                run_join(&mut with, &stream),
                run_join(&mut without, &stream),
                "{model}"
            );
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
        let window = DecaySpec::new(DecayModel::sliding_window(10.0));
        let mut join = Streaming::with_decay(0.9, window);
        let stream = vec![rec(0, 0.0, &[(1, 1.0)]), rec(1, 9.5, &[(1, 1.0)])];
        let out = crate::run_stream(&mut join, &stream);
        assert_eq!(out.len(), 1);
        assert!((out[0].similarity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn postings_are_truncated_at_model_horizon() {
        let mut join = Streaming::with_decay(0.5, DecaySpec::new(DecayModel::linear(2.0)));
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
        Streaming::with_decay(0.5, DecaySpec::new(DecayModel::exponential(0.0)));
    }

    #[test]
    fn name_mentions_model() {
        let poly = DecaySpec::new(DecayModel::polynomial(2.0, 3.0));
        assert_eq!(Streaming::with_decay(0.5, poly).name(), "STR-L2[poly:2:3]");
    }
}
