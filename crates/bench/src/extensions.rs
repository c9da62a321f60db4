//! Extension experiments: everything the workspace builds beyond the
//! paper's own tables and figures. Each method mirrors the style of
//! `experiments.rs` — a text table on stdout plus an optional CSV.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sssj_baseline::{brute_force_stream, count_window_recall};
use sssj_core::{
    run_stream, DecaySpec, Framework, JoinSpec, MiniBatch, SssjConfig, StreamJoin, Streaming,
};
use sssj_data::{DimOrdering, Preset};
use sssj_index::IndexKind;
use sssj_lsh::{measure_accuracy, LshParams};
use sssj_metrics::{Csv, LatencyHistogram, Stopwatch, TextTable, WorkBudget};
use sssj_parallel::{run_sharded, sharded_run, RoutingMode};
use sssj_textsim::{batch_jaccard_join, brute_force_jaccard, StreamingJaccard, TimedSet, TokenSet};
use sssj_types::{DecayModel, SimilarPair, StreamRecord, VectorId};

use crate::experiments::Experiments;
use crate::runner::run_algorithm;

impl Experiments {
    /// Per-record latency quantiles of STR per index — the operational
    /// view the paper's totals hide (L2AP's re-indexing shows up as a
    /// tail, not a mean shift).
    pub fn latency(&mut self) -> String {
        let mut table = TextTable::new([
            "Dataset", "Index", "p50 (us)", "p95 (us)", "p99 (us)", "max (us)",
        ]);
        let mut csv = Csv::new(["dataset", "index", "p50_us", "p95_us", "p99_us", "max_us"]);
        let (theta, lambda) = (0.7, 0.01);
        for p in [Preset::Rcv1, Preset::Tweets] {
            let records = self.dataset_records(p);
            for kind in [IndexKind::Inv, IndexKind::L2ap, IndexKind::L2] {
                let mut join = Streaming::new(SssjConfig::new(theta, lambda), kind);
                let mut hist = LatencyHistogram::new();
                let mut out = Vec::new();
                for r in &records {
                    let watch = Stopwatch::start();
                    join.process(r, &mut out);
                    hist.record(watch.seconds());
                    out.clear();
                }
                self.note_run();
                let quantiles = [
                    hist.quantile(0.5),
                    hist.quantile(0.95),
                    hist.quantile(0.99),
                    hist.max(),
                ]
                .map(|s| s * 1e6);
                add_row(
                    (&mut table, &mut csv),
                    &[p.to_string(), kind.to_string()],
                    &quantiles,
                    (1, 3),
                );
            }
        }
        self.write_csv("ext_latency", &csv);
        format!(
            "Per-record latency quantiles, STR, θ=0.7 λ=0.01 (extension)\n{}",
            table.render()
        )
    }

    /// The generalised-decay join across the four models at a matched
    /// horizon (§8 future work made concrete), each run twice: with the
    /// window-max candidate bound (`bounds=wmax`, the default) and with
    /// the ℓ2 bounds only (`bounds=l2`, the ablation). The bound changes
    /// the work, never the output: both arms' pair sets are asserted
    /// equal.
    pub fn decay(&mut self) -> String {
        let theta: f64 = 0.6;
        let tau = 60.0;
        // Each model solved for horizon(θ) = τ.
        let models = [
            DecayModel::exponential((1.0 / theta).ln() / tau),
            DecayModel::sliding_window(tau),
            DecayModel::linear(tau / (1.0 - theta)),
            DecayModel::polynomial(2.0, tau / (theta.powf(-0.5) - 1.0)),
        ];
        let mut table = TextTable::new([
            "Dataset",
            "Model",
            "bounds",
            "pairs",
            "entries",
            "candidates",
            "full sims",
            "time (s)",
        ]);
        let mut csv = Csv::new([
            "dataset",
            "model",
            "bounds",
            "pairs",
            "entries",
            "candidates",
            "full_sims",
            "time_s",
        ]);
        for p in [Preset::Rcv1, Preset::Blogs] {
            let records = self.dataset_records(p);
            for model in models {
                assert!((model.horizon(theta) - tau).abs() < 1e-6, "{model}");
                let mut expected = None;
                for (bounds, window_max) in [("wmax", true), ("l2", false)] {
                    let mut join = Streaming::with_decay(theta, DecaySpec { model, window_max });
                    let watch = Stopwatch::start();
                    let out = run_stream(&mut join, &records);
                    let secs = watch.seconds();
                    self.note_run();
                    let keys = pair_keys(&out);
                    match &expected {
                        None => expected = Some(keys),
                        Some(e) => assert_eq!(*e, keys, "{p} {model}: bounds={bounds}"),
                    }
                    let stats = join.stats();
                    let labels = [
                        p.to_string(),
                        model.kind_name().to_string(),
                        bounds.to_string(),
                        out.len().to_string(),
                        stats.entries_traversed.to_string(),
                        stats.candidates.to_string(),
                        stats.full_sims.to_string(),
                    ];
                    add_row((&mut table, &mut csv), &labels, &[secs], (4, 6));
                }
            }
        }
        self.write_csv("ext_decay", &csv);
        format!(
            "Decay models at matched horizon τ(0.6)=60, window-max vs ℓ2-only \
             bounds (extension; window keeps the most pairs, exponential and \
             poly the fewest; both bounds give the same pairs, asserted)\n{}",
            table.render()
        )
    }

    /// LSH recall/work trade-off against the exact join.
    pub fn lsh(&mut self) -> String {
        let (theta, lambda) = (0.7, 0.01);
        let mut table = TextTable::new([
            "Dataset",
            "Shape",
            "recall",
            "precision",
            "checks",
            "exact pairs",
        ]);
        let mut csv = Csv::new(["dataset", "bands", "rows", "recall", "precision", "checks"]);
        for p in [Preset::Rcv1, Preset::Blogs] {
            let records = self.dataset_records(p);
            let reference = brute_force_stream(&records, theta, lambda);
            for bands in [8u32, 16, 32, 64] {
                let params = LshParams {
                    bits: 256,
                    bands,
                    ..LshParams::default()
                };
                let report = measure_accuracy(&records, theta, lambda, params, &reference);
                self.note_run();
                table.row([
                    p.to_string(),
                    format!("{}x{}", bands, 256 / bands),
                    format!("{:.3}", report.recall),
                    format!("{:.3}", report.precision),
                    report.candidate_checks.to_string(),
                    report.exact_pairs.to_string(),
                ]);
                csv.row([
                    p.to_string(),
                    bands.to_string(),
                    (256 / bands).to_string(),
                    format!("{:.4}", report.recall),
                    format!("{:.4}", report.precision),
                    report.candidate_checks.to_string(),
                ]);
            }
        }
        self.write_csv("ext_lsh", &csv);
        format!(
            "LSH banding sweep vs exact output, θ=0.7 λ=0.01 (extension; \
             recall climbs the S-curve with the band count)\n{}",
            table.render()
        )
    }

    /// Sharded-STR scaling: wall-clock and critical-path work vs shard
    /// count, then broadcast vs candidate-aware routing on the Tweets
    /// stream, whose Zipfian topic vocabulary leaves the router shards to
    /// skip. Every sharded run's pair set is asserted equal to sequential
    /// STR-L2's, and routing is asserted to skip some sends.
    pub fn scaling(&mut self) -> String {
        let config = SssjConfig::new(0.6, 0.01);
        let mut table = TextTable::new([
            "Dataset",
            "shards",
            "max-shard entries",
            "pairs",
            "time (s)",
        ]);
        let mut csv = Csv::new(["dataset", "shards", "max_entries", "pairs", "time_s"]);
        for p in [Preset::Rcv1, Preset::WebSpam] {
            let records = self.dataset_records(p);
            let expected = pair_keys(&run_stream(
                &mut Streaming::new(config, IndexKind::L2),
                &records,
            ));
            self.note_run();
            for shards in [1usize, 2, 4, 8] {
                let watch = Stopwatch::start();
                let out = sharded_run(&records, config, IndexKind::L2, shards);
                let secs = watch.seconds();
                self.note_run();
                assert_eq!(pair_keys(&out.pairs), expected, "{p} shards={shards}");
                let max_entries = out
                    .per_shard
                    .iter()
                    .map(|s| s.entries_traversed)
                    .max()
                    .unwrap_or(0);
                let labels = [
                    p.to_string(),
                    shards.to_string(),
                    max_entries.to_string(),
                    out.pairs.len().to_string(),
                ];
                add_row((&mut table, &mut csv), &labels, &[secs], (4, 6));
            }
        }
        self.write_csv("ext_scaling", &csv);

        let mut routing = TextTable::new([
            "theta",
            "mode",
            "pairs",
            "skip rate",
            "critical-path records",
            "time (s)",
        ]);
        let mut routing_csv = Csv::new([
            "theta",
            "mode",
            "pairs",
            "skip_rate",
            "critical_path_records",
            "time_s",
        ]);
        let records = self.dataset_records(Preset::Tweets);
        for theta in [0.5, 0.7] {
            // `tau=` sets λ = ln(1/θ)/τ, so both θ rows see the same
            // live window.
            let spec: JoinSpec = format!("sharded?theta={theta}&tau=10&shards=4&inner=str-l2")
                .parse()
                .expect("valid sharded spec");
            let watch = Stopwatch::start();
            let expected = pair_keys(&run_stream(
                &mut Streaming::new(spec.config(), IndexKind::L2),
                &records,
            ));
            let secs = watch.seconds();
            self.note_run();
            let labels = [
                theta.to_string(),
                "sequential".into(),
                expected.len().to_string(),
                "-".into(),
                records.len().to_string(),
            ];
            add_row((&mut routing, &mut routing_csv), &labels, &[secs], (4, 6));
            for (label, mode) in [
                ("broadcast", RoutingMode::Broadcast),
                ("routed", RoutingMode::CandidateAware),
            ] {
                let watch = Stopwatch::start();
                let out = run_sharded(&records, &spec, mode).expect("sharded spec builds");
                let secs = watch.seconds();
                self.note_run();
                assert_eq!(pair_keys(&out.pairs), expected, "Tweets θ={theta} {label}");
                let skip = out.report.skip_rate();
                if mode == RoutingMode::CandidateAware {
                    assert!(skip > 0.0, "Tweets θ={theta}: routing skipped no send");
                }
                let critical = out.report.per_shard.iter().map(|l| l.routed).max();
                let labels = [
                    theta.to_string(),
                    label.into(),
                    out.pairs.len().to_string(),
                    format!("{skip:.3}"),
                    critical.unwrap_or(0).to_string(),
                ];
                add_row((&mut routing, &mut routing_csv), &labels, &[secs], (4, 6));
            }
        }
        self.write_csv("ext_routing", &routing_csv);
        format!(
            "Sharded STR-L2 scaling, θ=0.6 λ=0.01 (extension; output equal \
             to sequential at every width, asserted)\n{}\n\
             Broadcast vs routed sharding, Tweets, τ=10 s, 4 shards (extension; \
             output equal to sequential and a positive routed skip rate, \
             asserted)\n{}",
            table.render(),
            routing.render()
        )
    }

    /// Count-window fidelity: the best recall/precision a count-based
    /// window achieves against the time-dependent semantics.
    pub fn window(&mut self) -> String {
        let (theta, lambda) = (0.6, 0.01);
        let mut table = TextTable::new(["Dataset", "w", "recall", "precision"]);
        let mut csv = Csv::new(["dataset", "w", "recall", "precision"]);
        for p in [Preset::Rcv1, Preset::Tweets] {
            let records = self.dataset_records(p);
            for w in [8usize, 32, 128, 512] {
                let f = count_window_recall(&records, theta, lambda, w);
                self.note_run();
                add_row(
                    (&mut table, &mut csv),
                    &[p.to_string(), w.to_string()],
                    &[f.recall, f.precision],
                    (3, 4),
                );
            }
        }
        self.write_csv("ext_window", &csv);
        format!(
            "Count-based windows vs time-dependent semantics, θ=0.6 λ=0.01 \
             (extension; the related-work argument, quantified)\n{}",
            table.render()
        )
    }

    /// Peak estimated index memory per algorithm — the quantified version
    /// of Table 2's failure modes ("in all cases of failure … MB fails
    /// due to timeout, while STR because of memory requirements").
    ///
    /// Samples [`Streaming::memory_bytes`] / [`MiniBatch::memory_bytes`]
    /// every 64 records and reports the peak, alongside peak postings.
    pub fn memory(&mut self) -> String {
        let mut table = TextTable::new([
            "Dataset",
            "Algorithm",
            "lambda",
            "peak KiB",
            "peak postings",
        ]);
        let mut csv = Csv::new([
            "dataset",
            "algorithm",
            "lambda",
            "peak_bytes",
            "peak_postings",
        ]);
        let theta = 0.5;
        for p in [Preset::Rcv1, Preset::Tweets] {
            let records = self.dataset_records(p);
            for &lambda in &[1e-3, 1e-1] {
                let config = SssjConfig::new(theta, lambda);
                let mut rows: Vec<(String, u64, u64)> = Vec::new();
                for kind in [IndexKind::Inv, IndexKind::L2ap, IndexKind::L2] {
                    let mut join = Streaming::new(config, kind);
                    let (peak, postings) = peak_state(&mut join, &records, Streaming::memory_bytes);
                    self.note_run();
                    rows.push((format!("STR-{kind}"), peak, postings));
                }
                let mut join = MiniBatch::new(config, IndexKind::L2);
                let (peak, postings) = peak_state(&mut join, &records, MiniBatch::memory_bytes);
                self.note_run();
                rows.push(("MB-L2".into(), peak, postings));
                for (name, peak, postings) in rows {
                    table.row([
                        p.to_string(),
                        name.clone(),
                        format!("{lambda}"),
                        format!("{:.1}", peak as f64 / 1024.0),
                        postings.to_string(),
                    ]);
                    csv.row([
                        p.to_string(),
                        name,
                        format!("{lambda}"),
                        peak.to_string(),
                        postings.to_string(),
                    ]);
                }
            }
        }
        self.write_csv("ext_memory", &csv);
        format!(
            "Peak estimated state, θ=0.5 (extension; Table 2's STR memory \
             failures quantified — state grows with the horizon 1/λ)\n{}",
            table.render()
        )
    }

    /// The AP scheme the paper implements but drops from §7 ("we found
    /// it much slower than L2AP, therefore we omit it from the set of
    /// indexing strategies under study") — measured rather than asserted.
    pub fn ap(&mut self) -> String {
        let mut table = TextTable::new([
            "Framework",
            "theta",
            "AP (s)",
            "L2AP (s)",
            "L2 (s)",
            "AP/L2AP",
        ]);
        let mut csv = Csv::new([
            "framework",
            "theta",
            "ap_s",
            "l2ap_s",
            "l2_s",
            "ap_entries",
            "l2ap_entries",
        ]);
        let lambda = 1e-3;
        for framework in sssj_core::Framework::ALL {
            for &theta in &[0.5, 0.7, 0.9] {
                let ap = self.run(Preset::Rcv1, framework, IndexKind::Ap, theta, lambda);
                let l2ap = self.run(Preset::Rcv1, framework, IndexKind::L2ap, theta, lambda);
                let l2 = self.run(Preset::Rcv1, framework, IndexKind::L2, theta, lambda);
                assert_eq!(ap.pairs, l2ap.pairs, "AP and L2AP must agree on output");
                table.row([
                    framework.to_string(),
                    format!("{theta}"),
                    format!("{:.4}", ap.seconds),
                    format!("{:.4}", l2ap.seconds),
                    format!("{:.4}", l2.seconds),
                    format!("{:.2}x", ap.seconds / l2ap.seconds.max(1e-9)),
                ]);
                csv.row([
                    framework.to_string(),
                    format!("{theta}"),
                    format!("{:.6}", ap.seconds),
                    format!("{:.6}", l2ap.seconds),
                    format!("{:.6}", l2.seconds),
                    ap.stats.entries_traversed.to_string(),
                    l2ap.stats.entries_traversed.to_string(),
                ]);
            }
        }
        self.write_csv("ext_ap", &csv);
        format!(
            "AP vs L2AP vs L2, RCV1, lambda=1e-3 (the preliminary experiment \
             the paper mentions but does not show)\n{}",
            table.render()
        )
    }

    /// Dimension-ordering strategies (the paper's §8 future work): STR-L2
    /// on RCV1 under frequency-descending (the all-pairs heuristic),
    /// frequency-ascending (adversarial) and shuffled dimension orders.
    /// The order decides which coordinates stay in the un-indexed prefix,
    /// so it changes the work; the join depends only on dot products, so
    /// the pair counts are asserted equal.
    pub fn dimorder(&mut self) -> String {
        let spec = JoinSpec::classic(
            Framework::Streaming,
            IndexKind::L2,
            SssjConfig::new(0.7, 0.01),
        );
        let base = self.dataset_records(Preset::Rcv1);
        let orders = [
            ("freq-desc", DimOrdering::frequency_descending(&base)),
            ("freq-asc", DimOrdering::frequency_ascending(&base)),
            ("shuffled", DimOrdering::shuffled(&base, 7)),
        ];
        let mut table = TextTable::new(["Order", "entries", "postings", "pairs", "time (s)"]);
        let mut csv = Csv::new(["order", "entries", "postings", "pairs", "time_s"]);
        let mut expected = None;
        for (label, order) in orders {
            let r = run_algorithm(&order.apply(&base), &spec, WorkBudget::unlimited());
            self.note_run();
            assert_eq!(*expected.get_or_insert(r.pairs), r.pairs, "{label}");
            let labels = [
                label.to_string(),
                r.stats.entries_traversed.to_string(),
                r.stats.postings_added.to_string(),
                r.pairs.to_string(),
            ];
            add_row((&mut table, &mut csv), &labels, &[r.seconds], (4, 6));
        }
        self.write_csv("ext_dimorder", &csv);
        format!(
            "Dimension orders, STR-L2 on RCV1, θ=0.7 λ=0.01 (extension; the \
             order moves the work, not the pairs, asserted)\n{}",
            table.render()
        )
    }

    /// Prefix-filtered Jaccard joins vs brute force on a Zipf-skewed set
    /// stream with near-duplicates. The filtered batch join verifies fewer
    /// than the n(n−1)/2 pairs brute force does, and its pair set is
    /// asserted equal to brute force's; the streaming join's work shrinks
    /// with the horizon (time filtering compounds with prefix filtering).
    pub fn jaccard(&mut self) -> String {
        let theta = 0.6;
        let stream = synth_sets(((1_200.0 * self.scale()) as usize).max(10), 3_000, 12, 5);
        let sets: Vec<TokenSet> = stream.iter().map(|r| r.set.clone()).collect();
        let mut table = TextTable::new(["Join", "lambda", "pairs", "verifications", "time (s)"]);
        let mut csv = Csv::new(["join", "lambda", "pairs", "verifications", "time_s"]);
        let mut row = |join: &str, lambda: &str, pairs: usize, sims: u64, secs: f64| {
            let labels = [
                join.into(),
                lambda.into(),
                pairs.to_string(),
                sims.to_string(),
            ];
            add_row((&mut table, &mut csv), &labels, &[secs], (4, 6));
        };

        let watch = Stopwatch::start();
        let brute = brute_force_jaccard(&sets, theta);
        self.note_run();
        let all_pairs = (sets.len() * (sets.len() - 1) / 2) as u64;
        row("brute force", "-", brute.len(), all_pairs, watch.seconds());
        let watch = Stopwatch::start();
        let (filtered, stats) = batch_jaccard_join(&sets, theta);
        self.note_run();
        row(
            "prefix filter",
            "-",
            filtered.len(),
            stats.full_sims,
            watch.seconds(),
        );
        let keys = |pairs: &[(usize, usize, f64)]| -> Vec<(usize, usize)> {
            pairs.iter().map(|&(i, j, _)| (i, j)).collect()
        };
        assert_eq!(
            keys(&filtered),
            keys(&brute),
            "prefix filter vs brute force"
        );
        for lambda in [0.01f64, 0.1] {
            let watch = Stopwatch::start();
            let mut join = StreamingJaccard::new(theta, lambda);
            let mut out = Vec::new();
            for r in &stream {
                join.process(r, &mut out);
            }
            let secs = watch.seconds();
            self.note_run();
            row(
                "streaming",
                &lambda.to_string(),
                out.len(),
                join.stats().full_sims,
                secs,
            );
        }
        self.write_csv("ext_jaccard", &csv);
        format!(
            "Jaccard joins, θ=0.6, {} Zipf-skewed sets with near-duplicates \
             (extension; the prefix \
             filter's pairs equal brute force's, asserted)\n{}",
            sets.len(),
            table.render()
        )
    }

    /// All extension experiments.
    pub fn ext(&mut self) -> String {
        let parts = [
            self.latency(),
            self.decay(),
            self.lsh(),
            self.scaling(),
            self.window(),
            self.dimorder(),
            self.jaccard(),
            self.memory(),
            self.ap(),
        ];
        parts.join("\n")
    }
}

/// Adds one row to a table and to its CSV: the `labels`, then `values`
/// at the table's and the CSV's number of decimals.
fn add_row(
    (table, csv): (&mut TextTable, &mut Csv),
    labels: &[String],
    values: &[f64],
    (table_decimals, csv_decimals): (usize, usize),
) {
    let cells = |d: usize| {
        labels
            .iter()
            .cloned()
            .chain(values.iter().map(move |v| format!("{v:.d$}")))
    };
    table.row(cells(table_decimals));
    csv.row(cells(csv_decimals));
}

/// The peak of `bytes(join)`, sampled every 64 records and after
/// `finish`, and the peak live postings of `join` over `records`.
fn peak_state<J: StreamJoin>(
    join: &mut J,
    records: &[StreamRecord],
    bytes: impl Fn(&J) -> u64,
) -> (u64, u64) {
    const SAMPLE_EVERY: usize = 64;
    let mut out = Vec::new();
    let (mut peak, mut peak_postings) = (0u64, 0u64);
    for (i, r) in records.iter().enumerate() {
        join.process(r, &mut out);
        out.clear();
        if i % SAMPLE_EVERY == 0 {
            peak = peak.max(bytes(join));
        }
        peak_postings = peak_postings.max(join.live_postings());
    }
    join.finish(&mut out);
    (peak.max(bytes(join)), peak_postings)
}

/// The sorted `(earlier, later)` id pairs of `pairs`: the order-free
/// output a sharded run or a second bound must reproduce.
fn pair_keys(pairs: &[SimilarPair]) -> Vec<(VectorId, VectorId)> {
    let mut keys: Vec<_> = pairs.iter().map(SimilarPair::key).collect();
    keys.sort_unstable();
    keys
}

/// `n` timed token sets, with uniform inter-arrival gaps in [0, 1) s.
/// About one set in four re-posts one of the eight sets before it with
/// one token redrawn (a near-duplicate for the joins to find); the rest
/// are `len` draws from a Zipf-skewed vocabulary of `vocab` tokens, where
/// low ids are much more frequent.
fn synth_sets(n: usize, vocab: u32, len: usize, seed: u64) -> Vec<TimedSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let draw = |rng: &mut StdRng| ((vocab as f64).powf(rng.random_range(0.0..1.0)) - 1.0) as u32;
    let mut t = 0.0;
    let mut out: Vec<TimedSet> = Vec::with_capacity(n);
    for i in 0..n as u64 {
        t += rng.random_range(0.0..1.0);
        let tokens = if !out.is_empty() && rng.random_range(0.0..1.0) < 0.25 {
            let back = rng.random_range(1..=out.len().min(8));
            let mut tokens = out[out.len() - back].set.tokens().to_vec();
            let k = rng.random_range(0..tokens.len());
            tokens[k] = draw(&mut rng);
            tokens
        } else {
            (0..len).map(|_| draw(&mut rng)).collect()
        };
        out.push(TimedSet::new(i, t, TokenSet::new(tokens)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_runs_all_models() {
        let mut e = Experiments::new(0.02, None);
        let out = e.decay();
        for kind in ["exp", "window", "linear", "poly", "wmax", "l2"] {
            assert!(out.contains(kind), "{out}");
        }
    }

    #[test]
    fn dimorder_prints_all_orders() {
        let mut e = Experiments::new(0.02, None);
        let out = e.dimorder();
        for order in ["freq-desc", "freq-asc", "shuffled"] {
            assert!(out.contains(order), "{out}");
        }
    }

    #[test]
    fn jaccard_prints_streaming_rows() {
        let mut e = Experiments::new(0.02, None);
        let out = e.jaccard();
        for row in ["brute force", "prefix filter", "streaming"] {
            assert!(out.contains(row), "{out}");
        }
    }

    #[test]
    fn lsh_reports_recall_column() {
        let mut e = Experiments::new(0.02, None);
        let out = e.lsh();
        assert!(out.contains("recall"), "{out}");
        assert!(out.contains("8x32"), "{out}");
    }

    #[test]
    fn window_reports_both_presets() {
        let mut e = Experiments::new(0.02, None);
        let out = e.window();
        assert!(out.contains("RCV1"));
        assert!(out.contains("Tweets"));
    }

    #[test]
    fn scaling_is_consistent_at_tiny_scale() {
        let mut e = Experiments::new(0.01, None);
        let out = e.scaling();
        assert!(out.contains("shards"), "{out}");
        assert!(out.contains("routed"), "{out}");
    }
}
