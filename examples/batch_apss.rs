//! Static all-pairs similarity search — the batch building block.
//!
//! Static APSS runs on the streaming engine with time filtering off (the
//! index MiniBatch builds per window), so the classic APSS indexes are
//! useful on their own for static datasets. This example runs all four
//! index variants over the same corpus and compares their work counters:
//! identical output, very different amounts of work.
//!
//! ```sh
//! cargo run --release --example batch_apss
//! ```

use sssj::core::batch::all_pairs;
use sssj::data::{generate, preset, Preset};
use sssj::metrics::TextTable;
use sssj::prelude::IndexKind;

fn main() {
    let records = generate(&preset(Preset::Rcv1, 2_000));
    let theta = 0.7;
    println!(
        "static APSS over {} documents, θ = {theta}\n",
        records.len()
    );

    let mut table = TextTable::new([
        "index",
        "pairs",
        "postings",
        "entries traversed",
        "candidates",
        "exact dots",
    ]);
    let mut reference: Option<usize> = None;
    for kind in IndexKind::ALL {
        let (pairs, stats) = all_pairs(&records, theta, kind);
        match reference {
            None => reference = Some(pairs.len()),
            Some(n) => assert_eq!(n, pairs.len(), "all indexes must agree"),
        }
        table.row([
            kind.to_string(),
            pairs.len().to_string(),
            stats.postings_added.to_string(),
            stats.entries_traversed.to_string(),
            stats.candidates.to_string(),
            stats.full_sims.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("Same pairs from every variant; the filtering bounds only");
    println!("change how much of the index is built and scanned.");
}
