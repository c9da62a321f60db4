//! Extension experiments: everything the workspace builds beyond the
//! paper's own tables and figures. Each method mirrors the style of
//! `experiments.rs` — a text table on stdout plus an optional CSV.

use sssj_baseline::{brute_force_stream, count_window_recall};
use sssj_core::{DecaySpec, MiniBatch, SssjConfig, StreamJoin, Streaming};
use sssj_data::Preset;
use sssj_index::IndexKind;
use sssj_lsh::{measure_accuracy, LshParams};
use sssj_metrics::{Csv, LatencyHistogram, Stopwatch, TextTable};
use sssj_parallel::sharded_run;
use sssj_types::DecayModel;

use crate::experiments::Experiments;

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
                let row = [
                    hist.quantile(0.5) * 1e6,
                    hist.quantile(0.95) * 1e6,
                    hist.quantile(0.99) * 1e6,
                    hist.max() * 1e6,
                ];
                table.row([
                    p.to_string(),
                    kind.to_string(),
                    format!("{:.1}", row[0]),
                    format!("{:.1}", row[1]),
                    format!("{:.1}", row[2]),
                    format!("{:.1}", row[3]),
                ]);
                csv.row([
                    p.to_string(),
                    kind.to_string(),
                    format!("{:.3}", row[0]),
                    format!("{:.3}", row[1]),
                    format!("{:.3}", row[2]),
                    format!("{:.3}", row[3]),
                ]);
            }
        }
        self.emit_csv("ext_latency", &csv);
        format!(
            "Per-record latency quantiles, STR, θ=0.7 λ=0.01 (extension)\n{}",
            table.render()
        )
    }

    /// The generalised-decay join across the four models at a matched
    /// horizon (§8 future work made concrete).
    pub fn decay(&mut self) -> String {
        let theta: f64 = 0.6;
        let tau = 60.0;
        let models = [
            DecayModel::exponential((1.0 / theta).ln() / tau),
            DecayModel::sliding_window(tau),
            DecayModel::linear(tau / (1.0 - theta)),
            DecayModel::polynomial(2.0, tau / (theta.powf(-0.5) - 1.0)),
        ];
        let mut table = TextTable::new(["Dataset", "Model", "pairs", "entries", "time (s)"]);
        let mut csv = Csv::new(["dataset", "model", "pairs", "entries", "time_s"]);
        for p in [Preset::Rcv1, Preset::Blogs] {
            let records = self.dataset_records(p);
            for model in models {
                let mut join = Streaming::with_decay(theta, DecaySpec::new(model));
                let watch = Stopwatch::start();
                let mut out = Vec::new();
                for r in &records {
                    join.process(r, &mut out);
                }
                let secs = watch.seconds();
                self.note_run();
                table.row([
                    p.to_string(),
                    model.kind_name().to_string(),
                    out.len().to_string(),
                    join.stats().entries_traversed.to_string(),
                    format!("{secs:.4}"),
                ]);
                csv.row([
                    p.to_string(),
                    model.to_string(),
                    out.len().to_string(),
                    join.stats().entries_traversed.to_string(),
                    format!("{secs:.6}"),
                ]);
            }
        }
        self.emit_csv("ext_decay", &csv);
        format!(
            "Decay models at matched horizon τ(0.6)=60 (extension; window \
             keeps the most pairs, exponential and poly the fewest)\n{}",
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
        self.emit_csv("ext_lsh", &csv);
        format!(
            "LSH banding sweep vs exact output, θ=0.7 λ=0.01 (extension; \
             recall climbs the S-curve with the band count)\n{}",
            table.render()
        )
    }

    /// Sharded-STR scaling: wall-clock and critical-path work vs shard
    /// count, with output equality asserted.
    pub fn scaling(&mut self) -> String {
        let config = SssjConfig::new(0.6, 0.01);
        let mut table = TextTable::new([
            "Dataset",
            "shards",
            "time (s)",
            "max-shard entries",
            "pairs",
        ]);
        let mut csv = Csv::new(["dataset", "shards", "time_s", "max_entries", "pairs"]);
        for p in [Preset::Rcv1, Preset::WebSpam] {
            let records = self.dataset_records(p);
            let mut expected: Option<usize> = None;
            for shards in [1usize, 2, 4, 8] {
                let watch = Stopwatch::start();
                let out = sharded_run(&records, config, IndexKind::L2, shards);
                let secs = watch.seconds();
                self.note_run();
                match expected {
                    None => expected = Some(out.pairs.len()),
                    Some(n) => assert_eq!(n, out.pairs.len(), "{p} shards={shards}"),
                }
                let max_entries = out
                    .per_shard
                    .iter()
                    .map(|s| s.entries_traversed)
                    .max()
                    .unwrap_or(0);
                table.row([
                    p.to_string(),
                    shards.to_string(),
                    format!("{secs:.4}"),
                    max_entries.to_string(),
                    out.pairs.len().to_string(),
                ]);
                csv.row([
                    p.to_string(),
                    shards.to_string(),
                    format!("{secs:.6}"),
                    max_entries.to_string(),
                    out.pairs.len().to_string(),
                ]);
            }
        }
        self.emit_csv("ext_scaling", &csv);
        format!(
            "Sharded STR-L2 scaling, θ=0.6 λ=0.01 (extension; output equal \
             at every width, asserted)\n{}",
            table.render()
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
                table.row([
                    p.to_string(),
                    w.to_string(),
                    format!("{:.3}", f.recall),
                    format!("{:.3}", f.precision),
                ]);
                csv.row([
                    p.to_string(),
                    w.to_string(),
                    format!("{:.4}", f.recall),
                    format!("{:.4}", f.precision),
                ]);
            }
        }
        self.emit_csv("ext_window", &csv);
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
        const SAMPLE_EVERY: usize = 64;
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
                    let mut out = Vec::new();
                    let (mut peak, mut peak_postings) = (0u64, 0u64);
                    for (i, r) in records.iter().enumerate() {
                        join.process(r, &mut out);
                        out.clear();
                        if i % SAMPLE_EVERY == 0 {
                            peak = peak.max(join.memory_bytes());
                        }
                        peak_postings = peak_postings.max(join.live_postings());
                    }
                    peak = peak.max(join.memory_bytes());
                    self.note_run();
                    rows.push((format!("STR-{kind}"), peak, peak_postings));
                }
                {
                    let mut join = MiniBatch::new(config, IndexKind::L2);
                    let mut out = Vec::new();
                    let (mut peak, mut peak_postings) = (0u64, 0u64);
                    for (i, r) in records.iter().enumerate() {
                        join.process(r, &mut out);
                        out.clear();
                        if i % SAMPLE_EVERY == 0 {
                            peak = peak.max(join.memory_bytes());
                        }
                        peak_postings = peak_postings.max(join.live_postings());
                    }
                    join.finish(&mut out);
                    peak = peak.max(join.memory_bytes());
                    self.note_run();
                    rows.push(("MB-L2".into(), peak, peak_postings));
                }
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
        self.emit_csv("ext_memory", &csv);
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
        self.emit_csv("ext_ap", &csv);
        format!(
            "AP vs L2AP vs L2, RCV1, lambda=1e-3 (the preliminary experiment \
             the paper mentions but does not show)\n{}",
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
            self.memory(),
            self.ap(),
        ];
        parts.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_runs_all_models() {
        let mut e = Experiments::new(0.02, None);
        let out = e.decay();
        for kind in ["exp", "window", "linear", "poly"] {
            assert!(out.contains(kind), "{out}");
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
    }
}
