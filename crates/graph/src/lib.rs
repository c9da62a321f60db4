#![warn(missing_docs)]
//! `sssj-graph` — a live similarity-graph query subsystem over the
//! join's pair stream.
//!
//! Every engine in the workspace ends at the same place: a flat stream
//! of similar pairs the caller drains and drops. A production
//! deployment (the ROADMAP's heavy-traffic north star) needs that
//! output as **queryable live state** — *who is similar to item X right
//! now*, *X's top-k neighbours*, *which cluster is X in* — not a
//! firehose. This crate maintains exactly that: an incrementally
//! updated, horizon-aware similarity graph consumed from any engine's
//! pair output, opening a read-heavy query-serving workload on top of
//! the write-heavy join path.
//!
//! * [`SimilarityGraph`] — the store: per-node adjacency in the flat
//!   single-allocation block idiom of the posting lists
//!   ([`sssj_collections::TimedBlock`]), edges stamped with delivery
//!   time and expired at `now − τ` by binary search; top-k neighbour
//!   queries served from a k-sized heap; connected components via
//!   union-find that grows incrementally on additions and is rebuilt
//!   per epoch when expiry invalidates it.
//! * [`GraphJoin`] / [`GraphHandle`] — the ingest tap
//!   ([`sssj_core::PairSink`] behind [`sssj_core::SinkedJoin`]) and the
//!   cloneable query handle. For sharded engines the tap hangs off the
//!   *driver*, which already funnels every worker's batched pair
//!   returns.
//! * [`GraphSnapshot`] — the read-scaling half: the handle batches
//!   ingest into a write-side graph behind one mutex and publishes
//!   immutable snapshots (RCU-style `Arc` swap) at a bounded cadence,
//!   so concurrent readers ([`GraphHandle::snapshot`]) are wait-free at
//!   steady state and never contend with ingest. Staleness is explicit
//!   — [`GraphSnapshot::watermark`] — and bounded by the cadence. The
//!   tests' reference is `GraphHandle::new_oracle`, whose reads take
//!   the write lock.
//! * [`GraphedEngine`] — the [`sssj_core::Checkpointable`] variant: in
//!   `…&durable=<dir>&graph` pipelines the graph lives inside the
//!   durability boundary and its live edge set rides the checkpoint aux
//!   blob, so recovery restores edges whose member records are already
//!   behind the WAL horizon.
//!
//! # Spec integration
//!
//! The `graph` wrapper key stands a graph up declaratively through the
//! one spec factory — [`register_spec_builder`] registers the graph taps
//! ([`sssj_core::spec::register`]) that [`sssj_core::JoinSpec::build`]
//! applies:
//!
//! ```
//! sssj_graph::register_spec_builder();
//! let spec: sssj_core::JoinSpec = "str-l2?theta=0.6&tau=10&graph".parse().unwrap();
//! let (mut join, graph) = sssj_graph::build_with_handle(&spec).unwrap();
//! # use sssj_core::StreamJoin;
//! # use sssj_types::{vector::unit_vector, StreamRecord, Timestamp};
//! let mut out = Vec::new();
//! for (i, t) in [0.0, 1.0, 2.0].into_iter().enumerate() {
//!     let r = StreamRecord::new(i as u64, Timestamp::new(t), unit_vector(&[(7, 1.0)]));
//!     join.process(&r, &mut out);
//! }
//! // Three near-duplicates: record 1 is similar to both 0 and 2.
//! assert_eq!(graph.neighbors(1, 2.0).len(), 2);
//! assert_eq!(graph.component(0, 2.0), Some((0, 3)));
//! let top = graph.topk(1, 1, 2.0);
//! assert_eq!(top[0].neighbor, 0, "equal scores tie-break to the smaller id");
//! ```
//!
//! The query surface is wired through every serving layer: the net
//! protocol's `QUERY neighbors|topk|component|stats` and
//! `SUBSCRIBE <node>` verbs (see `sssj_net::protocol`), the CLI's
//! `sssj graph` command, and `serve`/`net-serve` sessions configured
//! with a `…&graph` spec.

pub mod graph;
pub mod join;
pub mod snapshot;

use std::cell::RefCell;

use sssj_core::{JoinSpec, SpecError, StreamJoin, WrapperSpec};

pub use graph::{Edge, ExpiredEdge, GraphStats, SimilarityGraph};
pub use join::{GraphDelta, GraphHandle, GraphJoin, GraphedEngine};
pub use snapshot::GraphSnapshot;

thread_local! {
    /// The handle of the most recent graph built on this thread through
    /// the spec hooks. `JoinSpec::build` type-erases its product, so the
    /// hooks park each fresh handle here for [`build_with_handle`] to
    /// collect — build is synchronous, making the slot race-free.
    static LAST_HANDLE: RefCell<Option<GraphHandle>> = const { RefCell::new(None) };
    /// One-shot arming for expired-edge capture, consumed by the next
    /// [`GraphHandle::new`] on this thread (see
    /// [`collect_expired_edges_on_next_build`]).
    static COLLECT_NEXT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn stash(handle: GraphHandle) {
    LAST_HANDLE.with(|slot| *slot.borrow_mut() = Some(handle));
}

/// Arms expired-edge capture for the next graph built on this thread
/// (one-shot). The historical tier calls this before building a
/// `…&durable&graph&history` pipeline: the graph is constructed deep
/// inside the type-erased spec factory, and capture must be on *before*
/// recovery restores checkpointed edges — otherwise edges expiring
/// during replay would vanish instead of reaching the compactor.
pub fn collect_expired_edges_on_next_build() {
    COLLECT_NEXT.with(|c| c.set(true));
}

/// Consumes the one-shot arming (internal; `GraphHandle::new` calls it).
pub(crate) fn take_collect_expired_arming() -> bool {
    COLLECT_NEXT.with(|c| c.replace(false))
}

/// Takes the handle stashed by the most recent graph build on this
/// thread, if any. Builders that *compose* the graph hooks (the
/// historical tier drives [`sssj_store::DurableJoin`]: the graph is
/// built inside `DurableJoin::open`, several layers below the caller)
/// use this to recover the handle `build_with_handle` cannot reach.
///
/// [`sssj_store::DurableJoin`]: https://docs.rs/sssj-store
pub fn take_stashed_handle() -> Option<GraphHandle> {
    LAST_HANDLE.with(|slot| slot.borrow_mut().take())
}

/// Registers the graph taps with the [`sssj_core::spec`] factory
/// ([`sssj_core::spec::register`]), so `…&graph` [`JoinSpec`]s build a
/// [`GraphJoin`] (or, under `durable=`, a [`GraphedEngine`] around the
/// base the factory built). Idempotent; every workspace binary calls it
/// at startup (via `sssj_net::register_spec_builders`).
pub fn register_spec_builder() {
    use sssj_core::spec::{register, Extensions};
    register(Extensions {
        graph: Some(|inner, spec| {
            let join = GraphJoin::new(inner, spec.horizon());
            stash(join.handle());
            Box::new(join)
        }),
        graph_base: Some(|base, spec| {
            let engine = GraphedEngine::new(base, spec.horizon());
            stash(engine.handle());
            Box::new(engine)
        }),
        ..Extensions::NONE
    });
}

/// Builds a `graph`-wrapped spec through the one factory **and** hands
/// back the graph's query handle — what the net session and the CLI use
/// so queries can be served against the running join. Fails with
/// [`SpecError::Invalid`] when the spec has no `graph` wrapper, or has a
/// `history=` wrapper (whose pipeline takes the graph handle itself;
/// build those with `sssj_segments::build_with_handles`).
pub fn build_with_handle(spec: &JoinSpec) -> Result<(Box<dyn StreamJoin>, GraphHandle), SpecError> {
    register_spec_builder();
    if !spec.wrappers.contains(&WrapperSpec::Graph) {
        return Err(SpecError::Invalid(
            "build_with_handle requires a graph-wrapped spec (append &graph)".into(),
        ));
    }
    if spec
        .wrappers
        .iter()
        .any(|w| matches!(w, WrapperSpec::History(_)))
    {
        return Err(SpecError::Invalid(
            "build_with_handle cannot build a history= spec: use \
             sssj_segments::build_with_handles, which returns the graph handle too"
                .into(),
        ));
    }
    LAST_HANDLE.with(|slot| slot.borrow_mut().take());
    let join = spec.build()?;
    let handle = LAST_HANDLE
        .with(|slot| slot.borrow_mut().take())
        .expect("the graph hook stashes a handle for every graph build");
    Ok((join, handle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sssj_core::{run_stream, StreamJoin};
    use sssj_types::{vector::unit_vector, StreamRecord, Timestamp};

    fn rec(id: u64, t: f64, entries: &[(u32, f64)]) -> StreamRecord {
        StreamRecord::new(id, Timestamp::new(t), unit_vector(entries))
    }

    #[test]
    fn spec_factory_builds_a_graph_join() {
        register_spec_builder();
        let spec: JoinSpec = "str-l2?theta=0.6&tau=10&graph".parse().unwrap();
        let mut join = spec.build().unwrap();
        assert_eq!(join.name(), "graph(STR-L2)");
        join.finish(&mut Vec::new());
    }

    #[test]
    fn build_with_handle_requires_the_wrapper() {
        let spec: JoinSpec = "str-l2?theta=0.6&tau=10".parse().unwrap();
        assert!(matches!(
            build_with_handle(&spec),
            Err(SpecError::Invalid(_))
        ));
    }

    #[test]
    fn graph_tracks_the_pair_stream_with_expiry() {
        let spec: JoinSpec = "str-l2?theta=0.5&tau=5&graph".parse().unwrap();
        let (mut join, graph) = build_with_handle(&spec).unwrap();
        let stream: Vec<StreamRecord> = [
            (0u64, 0.0),
            (1, 1.0),
            (2, 8.0), // 0-1 edge (t=1) expires at 8-5=3 cutoff? 1 < 3: yes
            (3, 8.5),
        ]
        .into_iter()
        .map(|(i, t)| rec(i, t, &[(7, 1.0)]))
        .collect();
        let pairs = run_stream(join.as_mut(), &stream);
        // Graph edges mirror the emitted pairs, minus expiry.
        assert!(!pairs.is_empty());
        let now = 8.5;
        // The (0,1) edge (delivered at t=1) is long expired.
        assert!(graph.neighbors(0, now).is_empty());
        // 2 and 3 pair with each other (Δt=0.5).
        assert_eq!(graph.neighbors(2, now).len(), 1);
        assert_eq!(graph.component(3, now), Some((2, 2)));
        let s = graph.stats(now);
        assert_eq!(s.components, 1);
    }

    #[test]
    fn double_build_on_one_thread_keeps_handles_and_arming_distinct() {
        // Two graph builds back to back on one thread: each
        // `build_with_handle` must hand back its *own* graph's handle,
        // and the one-shot expired-edge arming must apply to exactly
        // the next build — the regression the thread-local stash
        // invited (a stale stash or a stolen arming would corrupt the
        // second pipeline silently).
        let spec: JoinSpec = "str-l2?theta=0.6&tau=1&graph".parse().unwrap();
        collect_expired_edges_on_next_build();
        let (mut j1, g1) = build_with_handle(&spec).unwrap();
        let (mut j2, g2) = build_with_handle(&spec).unwrap();
        let stream: Vec<StreamRecord> = [(0u64, 0.0), (1, 0.5), (2, 10.0), (3, 10.2)]
            .into_iter()
            .map(|(i, t)| rec(i, t, &[(7, 1.0)]))
            .collect();
        let p1 = run_stream(j1.as_mut(), &stream);
        let p2 = run_stream(j2.as_mut(), &stream);
        assert!(!p1.is_empty() && p1.len() == p2.len());
        // The graphs are distinct instances fed by their own joins;
        // the stats query sweeps, which is what captures expiry.
        assert_eq!(g1.stats(10.2), g2.stats(10.2));
        // g1 consumed the arming: it captured the expired (0,1) edge;
        // g2 (built second, unarmed) captured nothing.
        assert!(!g1.take_expired().is_empty(), "first build was armed");
        assert!(g2.take_expired().is_empty(), "arming is one-shot");
    }

    #[test]
    fn explicit_constructor_never_consumes_the_arming() {
        // A handle built directly (the net event loop's path) must not
        // steal an arming intended for the next spec build.
        collect_expired_edges_on_next_build();
        let _side = GraphHandle::with_options(1.0, false);
        let spec: JoinSpec = "str-l2?theta=0.6&tau=1&graph".parse().unwrap();
        let (mut j, g) = build_with_handle(&spec).unwrap();
        let stream: Vec<StreamRecord> = [(0u64, 0.0), (1, 0.5), (2, 10.0), (3, 10.2)]
            .into_iter()
            .map(|(i, t)| rec(i, t, &[(7, 1.0)]))
            .collect();
        run_stream(j.as_mut(), &stream);
        g.stats(10.2); // sweep, capturing the expired (0,1) edge
        assert!(
            !g.take_expired().is_empty(),
            "the spec build still got the arming"
        );
    }

    #[test]
    fn sharded_driver_feeds_the_sink() {
        sssj_parallel::register_spec_builder();
        let spec: JoinSpec = "sharded?theta=0.5&tau=10&shards=2&inner=str-l2&graph"
            .parse()
            .unwrap();
        let (mut join, graph) = build_with_handle(&spec).unwrap();
        assert_eq!(join.name(), "graph(STR-L2x2)");
        let stream: Vec<StreamRecord> = (0..20)
            .map(|i| rec(i, i as f64 * 0.1, &[(7, 1.0)]))
            .collect();
        let pairs = run_stream(join.as_mut(), &stream);
        assert_eq!(graph.live_edges() as usize, pairs.len());
        assert_eq!(graph.stats(1.9).components, 1);
        assert_eq!(graph.neighbors(0, 1.9).len(), 19);
    }
}
