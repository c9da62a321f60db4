#![forbid(unsafe_code)]
//! Budget calibration helper for Table 2.
//!
//! Prints, for every framework × index at three grid corners, the peak
//! live postings relative to (a) the densest τ-window of the stream and
//! (b) the total coordinate count, plus entries-traversed ratios. The
//! Table 2 budget constants in `experiments.rs` (`TABLE2_WORK_FACTOR`,
//! `TABLE2_MEMORY_HALVES`) were chosen from this output.
//!
//! ```sh
//! cargo run --release -p sssj-bench --bin calibrate
//! ```

use sssj_bench::{default_n, run_algorithm};
use sssj_core::{Framework, JoinSpec, SssjConfig};
use sssj_data::{generate, preset, Preset};
use sssj_index::IndexKind;
use sssj_metrics::WorkBudget;

/// Maximum number of coordinates inside any sliding window of length
/// `tau` — the ideal memory footprint of a streaming index.
fn window_coords(records: &[sssj_types::StreamRecord], tau: f64) -> u64 {
    let mut best = 0u64;
    let mut acc = 0u64;
    let mut lo = 0usize;
    for hi in 0..records.len() {
        acc += records[hi].vector.nnz() as u64;
        while records[hi].t.seconds() - records[lo].t.seconds() > tau {
            acc -= records[lo].vector.nnz() as u64;
            lo += 1;
        }
        best = best.max(acc);
    }
    best
}

fn main() {
    for p in [Preset::Tweets, Preset::Blogs, Preset::Rcv1, Preset::WebSpam] {
        let records = generate(&preset(p, default_n(p, 1.0)));
        let coords: u64 = records.iter().map(|r| r.vector.nnz() as u64).sum();
        for (theta, lambda) in [(0.5, 1e-4), (0.5, 1e-2), (0.99, 1e-1)] {
            let cfg = SssjConfig::new(theta, lambda);
            let wc = window_coords(&records, cfg.tau()).max(1);
            for fw in Framework::ALL {
                for k in [IndexKind::Inv, IndexKind::L2ap, IndexKind::L2] {
                    let r = run_algorithm(
                        &records,
                        &JoinSpec::classic(fw, k, cfg),
                        WorkBudget::unlimited(),
                    );
                    println!("{p} θ={theta} λ={lambda}: {fw}-{k} peak/wc={:.2} peak/coords={:.2} entries/coords={:.1}",
                        r.stats.peak_postings as f64 / wc as f64,
                        r.stats.peak_postings as f64 / coords as f64,
                        r.stats.entries_traversed as f64 / coords as f64);
                }
            }
        }
    }
}
