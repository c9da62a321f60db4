#![warn(missing_docs)]
//! Sharded multi-threaded execution of the streaming similarity self-join,
//! with dimension-partitioned, candidate-aware routing.
//!
//! The paper evaluates sequential algorithms (its related work cites
//! MapReduce-based parallel APSS as a separate line); this crate is the
//! workspace's parallel extension. Processing decomposes per record into
//! a *query* half and an *insert* half ([`sssj_core::ShardableJoin`]):
//!
//! * the record is **inserted** at exactly one shard — the shard owning
//!   the dimension slice of its last (rarest) coordinate, so records
//!   sharing their rarest term cluster together;
//! * the record **queries** only the shards that could hold a candidate:
//!   the driver keeps a per-`(dimension, shard)` table of newest insert
//!   timestamps ([`Router`]) and skips every shard with no live stamp on
//!   any of the record's dimensions — those shards never see the record
//!   at all (*candidate-aware routing*). Inner engines that expose no
//!   dimension information (LSH banding) fall back to broadcast.
//!
//! Channel traffic is batched: records accumulate into
//! `Arc<Batch>`-shared groups with per-record routing bitmaps, one clone
//! + send per shard per batch, and workers return pairs in batches too.
//!
//! # Why every pair is still found exactly once
//!
//! Take a pair `(x, y)` with `t(x) < t(y)` and decayed similarity `≥ θ`,
//! and let shard `w` own `x`.
//!
//! * **At most once:** `x` is inserted only at `w`, so only `w` can
//!   report the pair; within `w`, the pair is reported exactly when `y`
//!   queries (STR/decay) or at the window join covering it (MB) — the
//!   same single site as the sequential algorithm.
//! * **At least once:** similarity `≥ θ` needs `dot(x, y) > 0`, i.e. a
//!   shared dimension `d`, and decay above `θ` needs
//!   `t(y) − t(x) ≤ τ`. The router stamped *every* dimension of `x` —
//!   indexed suffix and residual prefix alike — at shard `w` with
//!   `t(x)` when it routed the insert, so at `t(y)` the stamp on `d` is
//!   within the horizon and `w` is in `y`'s query mask. Skipped shards
//!   hold only records that share no dimension with `y` or are beyond
//!   `τ` — zero dot product or decay below `θ` either way, so nothing a
//!   skipped shard could have produced survives the threshold.
//!
//! One subtlety is AP-family bounds: the running maximum `m` at a shard
//! is raised only by records actually routed there, so shards see
//! *smaller* `m` vectors than a sequential run. That is safe — each
//! query updates `m` with itself and re-indexes affected residuals
//! *before* candidate generation, so the prefix-filter invariant holds
//! for exactly the pairs that query can complete; a smaller `m` only
//! indexes less eagerly, never drops a reachable pair (the same argument
//! that makes recovered durable joins correct, see
//! [`sssj_core::Streaming::seed_max`]).
//!
//! Three entry points:
//!
//! * [`sharded_run`] — one-call execution of a whole stream over STR
//!   workers;
//! * [`run_sharded`] — one-call execution of any `sharded?…` spec under
//!   an explicit [`RoutingMode`] (broadcast kept for A/B measurement),
//!   returning the routing [`ShardReport`];
//! * [`ShardedJoin`] — an incremental [`sssj_core::StreamJoin`] that
//!   feeds worker threads through bounded channels (backpressure) and
//!   reports pairs as workers hand them back.

pub mod router;
pub mod shard;

pub use router::Router;
pub use shard::{
    run_sharded, sharded_run, RoutingMode, ShardLoad, ShardReport, ShardedJoin, ShardedOutput,
};

/// Registers the sharded constructor with the [`sssj_core::spec`]
/// factory ([`sssj_core::spec::register`]), so `sharded?…`
/// [`sssj_core::JoinSpec`] strings build a [`ShardedJoin`] — bare, and as
/// the checkpointable base `durable=` wraps (per-shard aux capture
/// happens at a batch boundary via the worker control channel).
/// Idempotent; every workspace binary calls it at startup. (LSH inner
/// engines additionally need `sssj_lsh::register_spec_builder`, which
/// registers the LSH constructor the workers are built with.)
pub fn register_spec_builder() {
    use sssj_core::spec::{register, Extensions};
    register(Extensions {
        sharded: Some(|spec| {
            ShardedJoin::from_spec(spec).map(|j| Box::new(j) as Box<dyn sssj_core::Checkpointable>)
        }),
        ..Extensions::NONE
    });
}

#[cfg(test)]
mod spec_tests {
    use sssj_core::{SpecError, StreamJoin};

    #[test]
    fn sharded_spec_builds_through_the_factory() {
        super::register_spec_builder();
        let spec: sssj_core::JoinSpec = "sharded-l2?theta=0.6&lambda=0.1&shards=3".parse().unwrap();
        let mut join = spec.build().unwrap();
        assert_eq!(join.name(), "STR-L2x3");
        let mut out = Vec::new();
        join.finish(&mut out);
    }

    #[test]
    fn inner_engines_build_through_the_factory() {
        super::register_spec_builder();
        for (s, name) in [
            (
                "sharded?theta=0.6&lambda=0.1&shards=2&inner=mb-inv",
                "MB-INVx2",
            ),
            (
                "sharded?theta=0.6&shards=2&inner=decay&model=window:10",
                "STR-L2[window:10]x2",
            ),
        ] {
            let spec: sssj_core::JoinSpec = s.parse().unwrap();
            let mut join = spec.build().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(join.name(), name, "{s}");
            join.finish(&mut Vec::new());
        }
    }

    #[test]
    fn lsh_inner_requires_the_lsh_crate() {
        // sssj-parallel does not link sssj-lsh; the worker constructor is
        // absent here and the factory must say so instead of panicking a
        // worker thread.
        super::register_spec_builder();
        let spec: sssj_core::JoinSpec = "sharded?theta=0.6&lambda=0.1&shards=2&inner=lsh"
            .parse()
            .unwrap();
        assert!(matches!(
            spec.build(),
            Err(SpecError::EngineUnavailable("lsh"))
        ));
    }
}
