//! Budgeted single-run execution, driven by [`JoinSpec`]s.
//!
//! The harness runs whatever pipeline a spec describes — the classic
//! framework × index grid of the paper and every extended variant alike
//! — through the one [`JoinSpec::build`] factory, enforcing a
//! [`WorkBudget`] as it goes.

use sssj_core::JoinSpec;
use sssj_metrics::{BudgetOutcome, JoinStats, Stopwatch, WorkBudget};
use sssj_types::StreamRecord;

/// How a run ended.
pub type RunOutcome = BudgetOutcome;

/// The result of one algorithm run over one stream.
#[derive(Clone, Copy, Debug)]
pub struct RunResult {
    /// Wall-clock seconds (up to the abort point if over budget).
    pub seconds: f64,
    /// Work counters at the end of the run.
    pub stats: JoinStats,
    /// Pairs reported.
    pub pairs: u64,
    /// Whether the run finished within budget.
    pub outcome: RunOutcome,
}

impl RunResult {
    /// Whether the run completed within budget.
    pub fn ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// Runs the pipeline `spec` describes over `records`, enforcing `budget`
/// (checked every 64 records).
///
/// Panics on an unbuildable spec: harness inputs are authored, not
/// user-supplied, and a typo should fail the experiment loudly.
pub fn run_algorithm(records: &[StreamRecord], spec: &JoinSpec, budget: WorkBudget) -> RunResult {
    // Extended engines (lsh, sharded) and the durable store live
    // downstream of sssj-core; make them buildable before the factory
    // call.
    sssj_lsh::register_spec_builder();
    sssj_parallel::register_spec_builder();
    sssj_store::register_spec_builder();
    let mut join = spec
        .build()
        .unwrap_or_else(|e| panic!("harness spec {spec}: {e}"));
    let watch = Stopwatch::start();
    let mut out = Vec::new();
    let mut outcome = BudgetOutcome::Ok;
    for (i, r) in records.iter().enumerate() {
        join.process(r, &mut out);
        if i % 64 == 0 {
            let check = budget.check(
                watch.elapsed(),
                join.stats().entries_traversed,
                join.live_postings(),
            );
            if !check.is_ok() {
                outcome = check;
                break;
            }
        }
    }
    if outcome.is_ok() {
        join.finish(&mut out);
        let check = budget.check(
            watch.elapsed(),
            join.stats().entries_traversed,
            join.live_postings(),
        );
        if !check.is_ok() {
            outcome = check;
        }
    }
    RunResult {
        seconds: watch.seconds(),
        stats: join.stats(),
        pairs: out.len() as u64,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssj_core::{Framework, SssjConfig};
    use sssj_data::{generate, preset, Preset};
    use sssj_index::IndexKind;
    use std::time::Duration;

    #[test]
    fn unbudgeted_run_completes() {
        let records = generate(&preset(Preset::Rcv1, 200));
        let r = run_algorithm(
            &records,
            &JoinSpec::classic(
                Framework::Streaming,
                IndexKind::L2,
                SssjConfig::new(0.7, 0.01),
            ),
            WorkBudget::unlimited(),
        );
        assert!(r.ok());
        assert!(r.seconds >= 0.0);
        assert!(r.stats.postings_added > 0);
    }

    #[test]
    fn tight_work_budget_aborts() {
        let records = generate(&preset(Preset::Rcv1, 500));
        let budget = WorkBudget {
            max_wall: Duration::from_secs(60),
            max_entries: 10,
            max_live_postings: u64::MAX,
        };
        let r = run_algorithm(
            &records,
            &JoinSpec::classic(
                Framework::Streaming,
                IndexKind::Inv,
                SssjConfig::new(0.5, 0.0001),
            ),
            budget,
        );
        assert_eq!(r.outcome, BudgetOutcome::WorkExceeded);
    }

    #[test]
    fn frameworks_agree_on_pair_count() {
        let records = generate(&preset(Preset::Tweets, 400));
        let config = SssjConfig::new(0.6, 0.01);
        let a = run_algorithm(
            &records,
            &JoinSpec::classic(Framework::Streaming, IndexKind::L2, config),
            WorkBudget::unlimited(),
        );
        let b = run_algorithm(
            &records,
            &JoinSpec::classic(Framework::MiniBatch, IndexKind::L2, config),
            WorkBudget::unlimited(),
        );
        assert_eq!(a.pairs, b.pairs);
    }

    #[test]
    fn extended_variants_run_from_spec_strings() {
        let records = generate(&preset(Preset::Tweets, 150));
        for s in [
            "topk-l2?theta=0.6&lambda=0.01&k=2",
            "lsh?theta=0.6&lambda=0.01",
            "sharded-l2?theta=0.6&lambda=0.01&shards=2",
            "decay?theta=0.6&model=window:50",
        ] {
            let spec: JoinSpec = s.parse().unwrap();
            let r = run_algorithm(&records, &spec, WorkBudget::unlimited());
            assert!(r.ok(), "{s}");
        }
    }
}
