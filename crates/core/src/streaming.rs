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
//!   packed 32-byte entries: candidate generation is one contiguous
//!   slice walk (no ring-buffer masking), and time truncation on
//!   time-ordered lists is a binary search on the packed time field plus
//!   an O(1) front cut instead of an entry-by-entry backward scan (the
//!   layout was chosen over fully-columnar splits by measurement — see
//!   `sssj_collections::posting`);
//! * the candidate score array is a dense, epoch-stamped
//!   [`ScoreAccumulator`] sliding over the live id window — O(1) reset,
//!   no hashing. STR-L2 walks each posting list once, newest first,
//!   through [`ScoreAccumulator::accumulate_l2_list_rev`]: eight postings
//!   at a time on AVX-512 (four on AVX2) it computes the decay bounds,
//!   deltas, admission flags and prune thresholds and applies them to
//!   the score slots in the same registers, with no arrays in between;
//!   on AVX-512 masked scatters and a compress-store write only the
//!   slots that change, and the oldest group is masked to the postings
//!   left. A time-ordered list's ids rise, so each group lands in
//!   distinct slots, which is what the vector step checks; a group that
//!   fails the check, the AVX2 pass's oldest `n % 4` postings, lists
//!   shorter than four and the scalar lanes take one fused probe per
//!   entry ([`ScoreAccumulator::accumulate`]);
//! * the decay factor `e^{-λΔt}` is read from a quantized upper-bound
//!   [`DecayTable`] inside all *pruning* tests (safe: a larger factor
//!   prunes less) and computed exactly only for the final similarity of
//!   surviving candidates;
//! * the index-construction bounds are replayed in squared space (no
//!   per-coordinate square root), and the stored `‖y′_j‖` prefix norms
//!   continue that recurrence so only indexed suffixes pay a `sqrt`;
//! * residual vectors live in pooled `Residual` buffers recycled as
//!   vectors expire, the residual map hashes with the fx construction,
//!   and the hit buffer is owned by the join — steady-state processing
//!   performs **zero** heap allocations per record on the STR-L2 path
//!   (asserted by `tests/zero_alloc.rs`).

use sssj_collections::{
    DecayedMaxVec, LinkedHashMap, MaxVector, PackedPosting, PostingBlock, ScoreAccumulator,
};
use sssj_kernels::L2BatchParams;
use sssj_metrics::JoinStats;
use sssj_types::{
    dot_sorted, Decay, DecayTable, SimilarPair, SparseVector, StreamRecord, VectorId, VectorSummary,
};

use sssj_index::{BoundPolicy, IndexKind};

use crate::algorithm::{ShardableJoin, StreamJoin};
use crate::config::SssjConfig;

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
pub(crate) fn horizon_cutoff(now: f64, tau: f64) -> f64 {
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

/// A pooled residual vector: the un-indexed prefix `R[ι(y)]`, stored as
/// raw dimension/weight columns so expired vectors hand their buffers
/// back for reuse instead of freeing them.
#[derive(Clone, Debug, Default)]
struct Residual {
    dims: Vec<u32>,
    weights: Vec<f64>,
}

impl Residual {
    #[inline]
    fn nnz(&self) -> usize {
        self.dims.len()
    }

    #[inline]
    fn dims(&self) -> &[u32] {
        &self.dims
    }

    #[inline]
    fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Refills this buffer with the first `len` coordinates of `x`.
    fn assign_prefix(&mut self, x: &SparseVector, len: usize) {
        self.dims.clear();
        self.weights.clear();
        self.dims.extend_from_slice(&x.dims()[..len]);
        self.weights.extend_from_slice(&x.weights()[..len]);
    }

    /// The weight at `dim`, or 0.0 when absent.
    fn get(&self, dim: u32) -> f64 {
        match self.dims.binary_search(&dim) {
            Ok(i) => self.weights[i],
            Err(_) => 0.0,
        }
    }

    /// Keeps only the first `len` coordinates.
    fn truncate(&mut self, len: usize) {
        self.dims.truncate(len);
        self.weights.truncate(len);
    }

    fn heap_bytes(&self) -> u64 {
        (self.dims.capacity() * 4 + self.weights.capacity() * 8) as u64
    }
}

/// Per-vector state kept while the vector is inside the horizon: the
/// residual `R[ι(y)]`, the `Q[ι(y)]` bound, summaries and the timestamp.
#[derive(Clone, Debug, Default)]
struct StreamMeta {
    residual: Residual,
    residual_summary: VectorSummary,
    summary: VectorSummary,
    q: f64,
    t: f64,
}

/// STR-IDX: the streaming similarity self-join with index `IDX`
/// (Algorithm 5).
///
/// For each arriving vector the index is queried (candidate generation +
/// verification, with every bound decayed by `e^{-λΔt}`) and the vector is
/// then inserted. Time filtering works differently per variant:
///
/// * **STR-INV / STR-L2** — posting lists stay time-ordered, so candidate
///   generation first drops the expired prefix (binary search on the time
///   field + O(1) truncation, §6.2) and then scans only live entries —
///   a flat walk over packed entries.
/// * **STR-L2AP** — the `b1` bound consults the running max vector `m`;
///   when a new arrival raises `m`, the prefix-filtering invariant breaks
///   and affected residuals are *re-indexed* (§5.3), which appends
///   out-of-order entries. Lists are therefore scanned *forwards* with an
///   in-place compaction, dropping expired entries as they are met.
pub struct Streaming {
    config: SssjConfig,
    kind: IndexKind,
    policy: BoundPolicy,
    decay: Decay,
    /// Quantized upper bounds on the decay factor (pruning only).
    table: DecayTable,
    tau: f64,
    /// Whether posting lists are guaranteed time-ordered (no re-indexing).
    time_ordered: bool,
    lists: Vec<PostingBlock>,
    /// Residual direct index `R` + `Q`, in arrival order for O(1) pruning.
    residual: LinkedHashMap<VectorId, StreamMeta>,
    /// Recycled residual buffers from expired vectors.
    pool: Vec<Residual>,
    /// Running max `m` over the stream so far (AP bounds only).
    m: MaxVector,
    /// Decayed max `m̂λ` over indexed vectors (AP bounds only).
    mhat_lambda: DecayedMaxVec,
    /// Dim → candidate residual owners, for targeted re-indexing.
    residual_inverted: Vec<Vec<VectorId>>,
    acc: ScoreAccumulator,
    live_postings: u64,
    stats: JoinStats,
    /// Scratch: verified hits awaiting output.
    scratch_hits: Vec<(VectorId, f64, f64)>,
}

impl Streaming {
    /// Creates an STR join with the given index variant.
    pub fn new(config: SssjConfig, kind: IndexKind) -> Self {
        let policy = kind.policy();
        let decay = config.decay();
        let tau = config.tau();
        Streaming {
            config,
            kind,
            policy,
            decay,
            table: DecayTable::new(decay.into(), tau),
            tau,
            time_ordered: !policy.ap,
            lists: Vec::new(),
            residual: LinkedHashMap::new(),
            pool: Vec::new(),
            m: MaxVector::new(),
            mhat_lambda: DecayedMaxVec::new(config.lambda),
            residual_inverted: Vec::new(),
            acc: ScoreAccumulator::new(),
            live_postings: 0,
            stats: JoinStats::new(),
            scratch_hits: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> SssjConfig {
        self.config
    }

    /// The index variant.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Estimated heap footprint of the live join state, in bytes.
    ///
    /// Counts posting-list *capacities* (what is actually allocated, not
    /// just occupied), the residual direct index `R` with its pooled
    /// residual buffers (free-pool included — expired buffers are
    /// retained for reuse, not released), the `m`/`m̂λ` max vectors, the
    /// re-indexing inverted index, the decay table and the scratch
    /// structures. The per-entry overheads of the hash map are
    /// approximated by a constant, so treat the result as an estimate
    /// good to ~10 %, not an allocator-exact figure.
    ///
    /// Cost is O(live state) — sample it periodically (the `harness
    /// memory` experiment samples every 64 records), not per record.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        // Hash-map node + slot overhead per residual entry (two u64
        // links, one hash slot, allocator rounding).
        const MAP_OVERHEAD: u64 = 48;
        let mut bytes = 0u64;
        bytes += self.lists.iter().map(PostingBlock::heap_bytes).sum::<u64>();
        bytes += self.lists.capacity() as u64 * size_of::<PostingBlock>() as u64;
        for (_, meta) in self.residual.iter() {
            bytes += size_of::<StreamMeta>() as u64 + MAP_OVERHEAD;
            bytes += meta.residual.heap_bytes();
        }
        bytes += self.pool.iter().map(Residual::heap_bytes).sum::<u64>();
        bytes += self.m.dims() as u64 * 8;
        bytes += self.mhat_lambda.dims() as u64 * 16;
        bytes += self
            .residual_inverted
            .iter()
            .map(|v| v.capacity() as u64 * 8 + size_of::<Vec<VectorId>>() as u64)
            .sum::<u64>();
        bytes += self.acc.heap_bytes();
        bytes += self.table.heap_bytes();
        bytes += self.scratch_hits.capacity() as u64 * size_of::<(VectorId, f64, f64)>() as u64;
        bytes
    }

    /// Drops residual state for vectors beyond the horizon relative to
    /// `now`, recycling their buffers. Posting entries are pruned lazily
    /// during scans instead.
    fn prune_residuals(&mut self, now: f64) {
        while let Some((_, meta)) = self.residual.front() {
            if now - meta.t > self.tau {
                let (_, meta) = self.residual.pop_front().expect("front exists");
                self.pool.push(meta.residual);
            } else {
                break;
            }
        }
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
        let theta = self.config.theta;
        let theta_slack = theta - PRUNE_EPS;
        let policy = self.policy;
        let tau = self.tau;
        let cutoff = horizon_cutoff(now, tau);
        let sz1 = if policy.ap {
            let summary = VectorSummary::of(x);
            if summary.max_weight > 0.0 {
                theta / summary.max_weight
            } else {
                0.0
            }
        } else {
            0.0
        };
        // rs1 = dot(x, m̂λ(now)): already time-aware per coordinate.
        let mut rs1 = if policy.ap {
            x.iter()
                .map(|(d, w)| w * self.mhat_lambda.get(d, now))
                .sum::<f64>()
        } else {
            f64::INFINITY
        };
        let mut rst: f64 = 1.0;
        let mut rs2 = if policy.l2 { 1.0 } else { f64::INFINITY };

        let time_ordered = self.time_ordered;
        let lists = &mut self.lists;
        let residual = &self.residual;
        let acc = &mut self.acc;
        let stats = &mut self.stats;
        let live = &mut self.live_postings;
        let mhat_lambda = &self.mhat_lambda;
        let table = &self.table;

        // Fixed-size scratch for STR-INV's id/delta kernel: stack arrays,
        // so the zero-allocation steady-state contract
        // (`tests/zero_alloc.rs`) holds with batching too.
        const BATCH: usize = 64;
        let mut b_ids = [0u64; BATCH];
        let mut b_deltas = [0.0f64; BATCH];

        for (dim, xj) in x.iter().rev() {
            if let Some(list) = lists.get_mut(dim as usize) {
                // ‖x′_j‖ for the l2bound, recovered from the running
                // suffix mass instead of a materialised prefix-norm
                // array: x is unit-normalised, so during this iteration
                // rst = Σ_{i ≤ pos} w_i² and the prefix before this
                // coordinate has mass rst − x_j².
                let xnorm_before = if policy.l2 {
                    (rst - xj * xj).max(0.0).sqrt()
                } else {
                    0.0
                };
                if time_ordered {
                    // Time-ordered list: the expired prefix is exactly the
                    // entries with now − t > τ, i.e. t < cutoff. Drop it in
                    // O(log n) + O(1) and scan only live entries.
                    let pruned = list.expire_before(cutoff);
                    if pruned > 0 {
                        stats.entries_pruned += pruned as u64;
                        *live -= pruned as u64;
                    }
                    let postings = list.postings();
                    stats.entries_traversed += postings.len() as u64;
                    if policy.l2 {
                        // STR-L2, the paper's headline path: one
                        // newest-first pass over the list (≡ the old
                        // `.iter().rev()` walk, so first-touch — and
                        // thus output — order is preserved) computes
                        // each posting's decay bound, score delta,
                        // admission flag and prune threshold and applies
                        // them to the accumulator. The early ℓ2 prune
                        // (Cauchy–Schwarz on the unscanned prefixes,
                        // decayed) is folded into the per-entry
                        // threshold `θₛ − ‖x′‖·pn·df`.
                        let (factors, inv_step) = table.lookup();
                        let params = L2BatchParams {
                            xj,
                            now,
                            xnorm_before,
                            rs2,
                            theta_slack,
                            inv_step,
                        };
                        stats.candidates +=
                            acc.accumulate_l2_list_rev(postings, &params, factors) as u64;
                    } else {
                        // STR-INV: no pruning bounds — accumulate all,
                        // batched through the id/delta kernel.
                        for chunk in postings.rchunks(BATCH) {
                            let n = chunk.len();
                            sssj_kernels::posting_products(
                                PackedPosting::as_words(chunk),
                                xj,
                                &mut b_ids[..n],
                                &mut b_deltas[..n],
                            );
                            stats.candidates +=
                                acc.accumulate_all_rev(&b_ids[..n], &b_deltas[..n]) as u64;
                        }
                    }
                } else {
                    // Forward scan with in-place compaction (out-of-order
                    // lists cannot early-stop).
                    let removed = list.retain(|id, weight, pnorm, t| {
                        // Expired entries still cost a traversal here —
                        // the price of losing time order to re-indexing,
                        // which is why L2AP's traversal count can exceed
                        // INV's at short horizons (Figure 6).
                        stats.entries_traversed += 1;
                        let dt = now - t;
                        if dt > tau {
                            return false;
                        }
                        if policy.ap {
                            match residual.get(&id) {
                                Some(meta) => {
                                    let s = &meta.summary;
                                    if (s.nnz as f64) * s.max_weight < sz1 {
                                        return true;
                                    }
                                }
                                // Residual metadata is pruned at the same
                                // horizon as entries; a missing entry
                                // means the vector just expired.
                                None => return true,
                            }
                        }
                        let df = table.upper(dt);
                        let remscore = rs1.min(rs2 * df);
                        let current = acc.get(id);
                        if current > 0.0 || remscore >= theta_slack {
                            if current == 0.0 {
                                stats.candidates += 1;
                            }
                            let new = acc.add(id, xj * weight);
                            if policy.l2 && new + xnorm_before * pnorm * df < theta_slack {
                                acc.zero(id);
                            }
                        }
                        true
                    });
                    stats.entries_pruned += removed as u64;
                    *live -= removed as u64;
                }
            }
            if policy.ap {
                rs1 -= xj * mhat_lambda.get(dim, now);
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

    /// Candidate verification (Algorithm 8).
    ///
    /// Pruning tests use the table's decay *upper bound* (cannot lose a
    /// pair); only candidates that reach the full similarity pay the
    /// exact `exp`.
    fn candidate_verification(&mut self, record: &StreamRecord, out: &mut Vec<SimilarPair>) {
        let theta = self.config.theta;
        let theta_slack = theta - PRUNE_EPS;
        let policy = self.policy;
        let x = &record.vector;
        let now = record.t.seconds();
        let sx = VectorSummary::of(x);
        self.scratch_hits.clear();

        for (id, c) in self.acc.iter() {
            if c <= 0.0 {
                continue;
            }
            let Some(meta) = self.residual.get(&id) else {
                continue;
            };
            let dt = (now - meta.t).max(0.0);
            let df_up = self.table.upper(dt);
            if policy.prunes() && (c + meta.q) * df_up < theta_slack {
                continue;
            }
            if policy.ap {
                let r = &meta.residual_summary;
                let ds1 = (c + (sx.max_weight * r.sum).min(r.max_weight * sx.sum)) * df_up;
                let sz2 = (c + (sx.nnz.min(r.nnz) as f64) * sx.max_weight * r.max_weight) * df_up;
                if ds1 < theta_slack || sz2 < theta_slack {
                    continue;
                }
            }
            self.stats.full_sims += 1;
            let dot_res = dot_sorted(
                x.dims(),
                x.weights(),
                meta.residual.dims(),
                meta.residual.weights(),
            );
            let sim = (c + dot_res) * self.decay.factor(dt);
            if sim >= theta {
                self.scratch_hits.push((id, sim, dt));
            }
        }
        for &(id, sim, _) in &self.scratch_hits {
            self.stats.pairs_output += 1;
            out.push(SimilarPair::new(id, record.id, sim));
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
        let theta_slack = self.config.theta - PRUNE_EPS;
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

    /// Appends posting entries for coordinates `boundary..` of vector
    /// `id` at time `t`, returning how many entries were written.
    ///
    /// `prefix_mass` is `‖x′_boundary‖²` from [`Streaming::replay_boundary`];
    /// the stored `‖x′_j‖` values continue that recurrence, so only the
    /// indexed suffix pays square roots. (The recurrence tracks the true
    /// prefix norm only while the ℓ2 bound accumulates it — exactly the
    /// policies that later read `prefix_norm`; AP-family postings carry a
    /// partial value that their scans never consult.)
    fn index_suffix(
        &mut self,
        id: VectorId,
        dims: &[u32],
        weights: &[f64],
        boundary: usize,
        prefix_mass: f64,
        t: f64,
    ) -> u64 {
        let mut mass = prefix_mass;
        let mut added = 0;
        for pos in boundary..dims.len() {
            let d = dims[pos] as usize;
            if d >= self.lists.len() {
                self.lists.resize_with(d + 1, PostingBlock::new);
            }
            let w = weights[pos];
            self.lists[d].push(id, w, mass.sqrt(), t);
            mass += w * w;
            added += 1;
        }
        self.live_postings += added;
        self.stats.postings_added += added;
        added
    }

    /// Re-indexes residuals with support on `dim` after `m[dim]` grew
    /// (§5.3). Out-of-order appends; updates `R` and `Q`.
    fn reindex_dim(&mut self, dim: u32) {
        let d = dim as usize;
        if d >= self.residual_inverted.len() {
            return;
        }
        let ids = std::mem::take(&mut self.residual_inverted[d]);
        let mut keep = Vec::new();
        for id in ids {
            let Some(meta) = self.residual.get(&id) else {
                continue; // expired
            };
            if meta.residual.get(dim) == 0.0 {
                continue; // already re-indexed past this dimension
            }
            // Copy out so the index can be mutated while replaying (an
            // AP-only path; the allocation is off the L2 hot loop).
            let residual = meta.residual.clone();
            let t = meta.t;
            let (boundary, q, mass) = self.replay_boundary(residual.dims(), residual.weights());
            match boundary {
                Some(p) => {
                    let added =
                        self.index_suffix(id, residual.dims(), residual.weights(), p, mass, t);
                    self.stats.reindexed_vectors += 1;
                    self.stats.reindexed_postings += added;
                    let meta = self.residual.get_mut(&id).expect("checked above");
                    meta.residual.truncate(p);
                    meta.residual_summary = VectorSummary::of_weights(meta.residual.weights());
                    meta.q = q;
                    if meta.residual.get(dim) != 0.0 {
                        keep.push(id);
                    }
                }
                None => {
                    // Bound still below θ: residual unchanged, but Q must
                    // be refreshed for the grown m.
                    let meta = self.residual.get_mut(&id).expect("checked above");
                    meta.q = q;
                    keep.push(id);
                }
            }
        }
        self.residual_inverted[d] = keep;
    }

    /// Index construction for the arriving vector (Algorithm 6; `m` was
    /// already updated before candidate generation).
    fn insert(&mut self, record: &StreamRecord) {
        let x = &record.vector;
        if x.is_empty() {
            return;
        }
        let t = record.t.seconds();
        let (boundary, q, mass) = self.replay_boundary(x.dims(), x.weights());
        let indexed_any = boundary.is_some();
        if let Some(p) = boundary {
            self.index_suffix(record.id, x.dims(), x.weights(), p, mass, t);
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
        if !indexed_any && !self.policy.ap {
            return;
        }
        let blen = boundary.unwrap_or(x.nnz());
        let mut residual = self.pool.pop().unwrap_or_default();
        residual.assign_prefix(x, blen);
        self.stats.residual_coords += residual.nnz() as u64;
        if self.policy.ap {
            for &dim in residual.dims() {
                let d = dim as usize;
                if d >= self.residual_inverted.len() {
                    self.residual_inverted.resize_with(d + 1, Vec::new);
                }
                self.residual_inverted[d].push(record.id);
            }
        }
        let meta = StreamMeta {
            residual_summary: VectorSummary::of_weights(residual.weights()),
            summary: VectorSummary::of(x),
            q,
            t,
            residual,
        };
        if let Some(old) = self.residual.insert(record.id, meta) {
            self.pool.push(old.residual);
        }
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
        self.prune_residuals(now);
        // Every candidate id is alive (within the horizon), so the score
        // window can slide up to the oldest live id. The accumulator
        // still holds the previous query's touched set — drop it first,
        // the floor only moves when empty.
        self.acc.clear();
        if let Some((&oldest, _)) = self.residual.front() {
            self.acc.advance_floor(oldest);
        }
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

    /// Pre-seeds the AP running-max vector `m` (checkpoint restore).
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

    /// Postings (and residual coordinates) expire at `τ = ln(1/θ)/λ`, and
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
    /// [`Streaming::max_entries`] returns nothing).
    fn write_aux(&mut self, out: &mut Vec<u8>) {
        ShardableJoin::checkpoint_aux(self, out);
    }

    fn read_aux(&mut self, bytes: &[u8]) -> Result<(), String> {
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
        format!("STR-{}", self.kind)
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
        assert!(
            join.residual.len() <= 2,
            "residuals={}",
            join.residual.len()
        );
        // Buffers cycle between live metas and the free pool; with ≤ 2
        // live residuals the pool can never accumulate more than that.
        assert!(join.pool.len() <= 2, "pool={}", join.pool.len());
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
}
