//! The engine table in `sssj_core::spec` and the builders agree: for every
//! engine (str and mb over each index, decay, topk, lsh, and sharded over
//! each shardable inner), the spec grammar admits `checked`, `durable=`
//! and `inner=` exactly when the builders can honour them.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sssj::core::CheckedJoin;
use sssj::prelude::*;

/// The bare engines a sharded spec can run per shard, as `(inner token,
/// extra keys)`: the same engine is `<token>?<params><keys>` bare and
/// `sharded?<params>&shards=2&inner=<token><keys>` sharded.
fn shardable() -> Vec<(String, &'static str)> {
    let mut v = Vec::new();
    for framework in ["str", "mb"] {
        for index in ["inv", "ap", "l2ap", "l2"] {
            v.push((format!("{framework}-{index}"), ""));
        }
    }
    v.push(("decay".into(), "&model=window:10"));
    // One 64-row band: pairs below cosine 1 almost never collide, so
    // the approximate join provably drops pairs on the stream below.
    v.push(("lsh".into(), "&bits=64&bands=1"));
    v
}

/// Problem parameters for an engine token (the decay engine's model
/// carries its own decay, so it takes no λ).
fn params(token: &str) -> &'static str {
    if token == "decay" {
        "theta=0.6"
    } else {
        "theta=0.6&lambda=0.1"
    }
}

/// Every engine as a bare spec string.
fn engines() -> Vec<String> {
    let mut v: Vec<String> = shardable()
        .iter()
        .map(|(token, keys)| format!("{token}?{}{keys}", params(token)))
        .collect();
    v.push("topk-l2?theta=0.6&lambda=0.1&k=1".into());
    for (token, keys) in shardable() {
        v.push(format!(
            "sharded?{}&shards=2&inner={token}{keys}",
            params(&token)
        ));
    }
    v
}

/// A stream in which every record has several similar predecessors
/// (so top-1 selection drops pairs), some of them further apart in time
/// than the decay engine's 10 s window.
fn stream() -> Vec<StreamRecord> {
    (0..120u64)
        .map(|i| {
            let d = (i % 2) as u32;
            let entries = [
                (d, 1.0),
                (1 - d, 0.3 + 0.1 * (i % 3) as f64),
                (5 + (i % 3) as u32, 0.2),
            ];
            StreamRecord::new(i, Timestamp::new(i as f64 * 0.25), unit_vector(&entries))
        })
        .collect()
}

fn pair_keys(mut join: Box<dyn StreamJoin>, records: &[StreamRecord]) -> Vec<(u64, u64)> {
    let mut keys: Vec<_> = run_stream(join.as_mut(), records)
        .iter()
        .map(|p| p.key())
        .collect();
    keys.sort_unstable();
    keys
}

fn parse(s: &str) -> JoinSpec {
    s.parse().unwrap_or_else(|e| panic!("{s}: {e}"))
}

#[test]
fn checked_is_admitted_exactly_when_the_oracle_agrees() {
    sssj::register_all_engines();
    let records = stream();
    for s in engines() {
        let bare = parse(&s);
        let join = bare.build().unwrap_or_else(|e| panic!("{s}: {e}"));
        let config = bare.config();
        let agrees = catch_unwind(AssertUnwindSafe(|| {
            let mut checked = CheckedJoin::new(join, config);
            run_stream(&mut checked, &records);
        }))
        .is_ok();
        let admitted = format!("{s}&checked").parse::<JoinSpec>();
        assert_eq!(admitted.is_ok(), agrees, "{s}&checked: {admitted:?}");
        if let Ok(spec) = admitted {
            pair_keys(spec.build().unwrap(), &records);
        }
    }
}

#[test]
fn durable_is_admitted_exactly_when_the_engine_checkpoints() {
    sssj::register_all_engines();
    let root = std::env::temp_dir().join(format!("sssj-engine-table-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let records = stream();
    for (i, s) in engines().into_iter().enumerate() {
        let bare = parse(&s);
        let buildable = bare.build().is_ok() && bare.build_checkpointable().is_ok();
        let dir = root.join(i.to_string());
        let admitted = format!("{s}&durable={}", dir.display()).parse::<JoinSpec>();
        assert_eq!(admitted.is_ok(), buildable, "{s}&durable: {admitted:?}");
        if let Ok(spec) = admitted {
            let durable = pair_keys(spec.build().unwrap(), &records);
            assert_eq!(durable, pair_keys(bare.build().unwrap(), &records), "{s}");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sharding_is_admitted_exactly_when_a_sharded_build_succeeds() {
    sssj::register_all_engines();
    let records = stream();
    for (token, keys) in shardable() {
        let bare = parse(&format!("{token}?{}{keys}", params(&token)));
        let sharded = parse(&format!(
            "sharded?{}&shards=2&inner={token}{keys}",
            params(&token)
        ));
        let join = sharded.build().unwrap_or_else(|e| panic!("{sharded}: {e}"));
        assert_eq!(
            pair_keys(join, &records),
            pair_keys(bare.build().unwrap(), &records),
            "{sharded}"
        );
    }
    // The engines that cannot run per shard are refused by the table,
    // not by some unrelated parameter rule.
    for token in ["topk-l2", "sharded"] {
        let s = format!("sharded?theta=0.6&lambda=0.1&shards=2&inner={token}");
        match s.parse::<JoinSpec>() {
            Err(SpecError::Parse(msg)) => {
                assert!(msg.contains("cannot run per shard"), "{s}: {msg}")
            }
            other => panic!("{s}: expected a parse error, got {other:?}"),
        }
    }
}
