//! Stop/resume: checkpoint a live durable join, stop it, reopen its
//! directory, and keep joining with identical output.
//!
//! ```sh
//! cargo run --release --example stop_resume
//! ```

use sssj::data::{generate, preset, Preset};
use sssj::prelude::*;

fn main() {
    let mut config = preset(Preset::Rcv1, 3_000);
    config = config.with_seed(19);
    let stream = generate(&config);
    let join_config = SssjConfig::new(0.6, 0.01);
    let cut = stream.len() / 2;

    // Uninterrupted reference run.
    let mut reference = Streaming::new(join_config, IndexKind::L2);
    let mut pre = Vec::new();
    for r in &stream[..cut] {
        reference.process(r, &mut pre);
    }
    let mut expected_tail = Vec::new();
    for r in &stream[cut..] {
        reference.process(r, &mut expected_tail);
    }

    // Durable run: process half, checkpoint, "crash", reopen, resume.
    let dir = std::env::temp_dir().join(format!("sssj-stop-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = JoinSpec::classic(Framework::Streaming, IndexKind::L2, join_config);
    let mut join = DurableJoin::open(&spec, &dir, DurableOptions::default()).expect("open store");
    let mut sink = Vec::new();
    for r in &stream[..cut] {
        join.process(r, &mut sink);
    }
    join.checkpoint(&mut sink).expect("checkpoint");
    println!(
        "checkpoint after {cut} records: {} WAL segment(s) under {}",
        join.wal_segments(),
        dir.display()
    );
    drop(join); // the "crash"

    let mut restored =
        DurableJoin::open(&spec, &dir, DurableOptions::default()).expect("reopen store");
    let (ingested, _) = restored.resume_point().expect("a reopened store resumes");
    assert_eq!(ingested as usize, cut);
    let mut tail = Vec::new();
    for r in &stream[cut..] {
        restored.process(r, &mut tail);
    }
    drop(restored);
    let _ = std::fs::remove_dir_all(&dir);

    let keys = |pairs: &[SimilarPair]| {
        let mut k: Vec<_> = pairs.iter().map(|p| p.key()).collect();
        k.sort_unstable();
        k
    };
    assert_eq!(
        keys(&tail),
        keys(&expected_tail),
        "resumed join must continue identically"
    );
    println!(
        "resumed join reported {} pairs over the second half — identical \
         to the uninterrupted run",
        tail.len()
    );
}
