//! Immutable, shareable snapshots of the live similarity graph — the
//! read side of the RCU-style split in [`crate::GraphHandle`].
//!
//! A [`GraphSnapshot`] is a consistent copy of the live edge set taken
//! at one instant of the write side's clock (the snapshot
//! **watermark**). Every query method takes `&self`, so any number of
//! threads can serve `neighbors`/`topk`/`component`/`stats` from one
//! snapshot concurrently, with zero coordination and zero effect on
//! ingest. The handle publishes fresh snapshots at a bounded cadence
//! (see the staleness discussion on [`crate::GraphHandle`]).
//!
//! # Time semantics
//!
//! A snapshot answers queries for any `now` with the same horizon rule
//! as the live graph: evaluation time is `t_eval = max(now, watermark)`
//! (the clock never runs backwards) and an edge delivered at `t` is
//! live while `t ≥ t_eval − τ`. At `now ≤ watermark` — the steady
//! state, since the watermark trails the newest delivery by a bounded
//! amount — every stored edge is live (publication sweeps to the
//! watermark's cutoff) and component/stats answers come from a map
//! memoized once per snapshot. At `now > watermark` the snapshot
//! re-filters against the later cutoff, so answers stay exact for
//! callers racing ahead of the publish cadence (edges *delivered* after
//! the watermark are invisible by construction — that is the documented
//! staleness bound, not an error).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use sssj_collections::FxBuildHasher;

use crate::graph::{Edge, GraphStats, RankedEdge, UnionFind};

/// Memoized component view at the snapshot watermark.
struct ComponentMap {
    /// node → (canonical minimum member id, component size).
    by_node: HashMap<u64, (u64, u64), FxBuildHasher>,
    count: u64,
}

/// One immutable published state of the graph. See the [module
/// docs](self) for the time semantics.
pub struct GraphSnapshot {
    /// Publication counter of the owning handle (monotone).
    generation: u64,
    /// The write side's clock at publication: queries at `now ≤
    /// watermark` are exact; later deliveries are not visible.
    watermark: f64,
    /// Edge horizon τ (same rule as [`crate::SimilarityGraph`]).
    horizon: f64,
    /// Per-node adjacency, stamp-ordered. Blocks are `Arc`-shared with
    /// earlier snapshots: incremental publication reuses every block
    /// the write side did not touch, so a reused block may still carry
    /// entries that expired after it was captured. Every stored *node*
    /// has at least one live edge at the watermark (dead blocks are
    /// pruned at capture — stamp order makes that an O(1) newest-entry
    /// check), but per-edge liveness is always re-established through
    /// [`GraphSnapshot::live_slice`]'s cutoff filter.
    adj: HashMap<u64, Arc<[Edge]>, FxBuildHasher>,
    /// Live (undirected) edge count at the watermark.
    live_edges: u64,
    /// Components at the watermark, built on first use.
    components: OnceLock<ComponentMap>,
}

impl GraphSnapshot {
    /// The empty snapshot a fresh handle publishes as generation 0.
    pub(crate) fn empty(horizon: f64) -> Self {
        GraphSnapshot {
            generation: 0,
            watermark: f64::NEG_INFINITY,
            horizon,
            adj: HashMap::default(),
            live_edges: 0,
            components: OnceLock::new(),
        }
    }

    /// Captures `graph` as snapshot `generation`, reusing `prev`'s
    /// blocks for every node the write side did not touch since the
    /// last capture. Only the touched nodes' live edges are copied, but
    /// the cost is O(touched edges + stored nodes): cloning the map
    /// visits every stored node (a refcount bump each), pruning checks
    /// one newest-entry stamp per node, and the previous map is dropped
    /// with the last reader of `prev`, however few nodes were touched.
    /// That is too much to pay per read, which is why a dirty handle
    /// answers `neighbors`/`topk` from the write side instead of
    /// publishing (see [`crate::GraphHandle`]).
    /// Returns the snapshot plus the touched-node count (the delta's
    /// size — what the incremental capture actually copied), which the
    /// publisher reports to telemetry.
    pub(crate) fn capture_from(
        graph: &mut crate::SimilarityGraph,
        prev: &GraphSnapshot,
        generation: u64,
    ) -> (Self, usize) {
        let horizon = graph.horizon();
        let (watermark, live_edges, delta) = graph.snapshot_delta();
        let touched = delta.len();
        let cutoff = watermark - horizon;
        let mut adj = prev.adj.clone();
        for (node, block) in delta {
            if block.is_empty() {
                adj.remove(&node);
            } else {
                adj.insert(node, block);
            }
        }
        // Blocks are stamp-ordered, so the newest entry alone tells
        // whether any edge is still live; prune dead blocks so nodes
        // the delta never mentions again cannot accumulate.
        adj.retain(|_, block| block.last().is_some_and(|e| e.t >= cutoff));
        let snap = GraphSnapshot {
            generation,
            watermark,
            horizon,
            adj,
            live_edges,
            components: OnceLock::new(),
        };
        (snap, touched)
    }

    /// Publication counter of the owning handle (monotone across
    /// publishes; 0 is the empty pre-ingest snapshot).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The write side's clock at publication — the staleness bound:
    /// edges delivered after this stream time are not in this snapshot.
    pub fn watermark(&self) -> f64 {
        self.watermark
    }

    /// The edge horizon τ.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Live edge count at the watermark.
    pub fn live_edges(&self) -> u64 {
        self.live_edges
    }

    /// The expiry cutoff for a query at `now`: `max(now, watermark) − τ`.
    #[inline]
    fn cutoff(&self, now: f64) -> f64 {
        let t_eval = if now > self.watermark {
            now
        } else {
            self.watermark
        };
        t_eval - self.horizon
    }

    /// The live suffix of `node`'s stamp-ordered block at `cutoff`
    /// (expiry keeps `t ≥ cutoff`, exactly like the live graph).
    fn live_slice(&self, node: u64, cutoff: f64) -> &[Edge] {
        let Some(block) = self.adj.get(&node) else {
            return &[];
        };
        let start = block.partition_point(|e| e.t < cutoff);
        &block[start..]
    }

    /// The live neighbours of `node` at `now`, sorted by neighbour id.
    pub fn neighbors(&self, node: u64, now: f64) -> Vec<Edge> {
        let mut out: Vec<Edge> = self.live_slice(node, self.cutoff(now)).to_vec();
        out.sort_by_key(|e| e.neighbor);
        out
    }

    /// The `k` highest-scoring live neighbours of `node` at `now`, best
    /// first (ties towards the smaller neighbour id) — the same
    /// k-heap-with-SIMD-prefilter selection as the live graph, over
    /// the snapshot's flat block.
    pub fn topk(&self, node: u64, k: usize, now: f64) -> Vec<Edge> {
        if k == 0 {
            return Vec::new();
        }
        let entries = self.live_slice(node, self.cutoff(now));
        let seed = entries.len().min(k);
        let mut heap = std::collections::BinaryHeap::with_capacity(k + 1);
        for e in &entries[..seed] {
            heap.push(RankedEdge(*e));
        }
        let mut idx = [0u32; 64];
        for chunk in entries[seed..].chunks(idx.len()) {
            let root_sim = heap.peek().map_or(f64::NEG_INFINITY, |r| r.0.similarity);
            let kept = sssj_kernels::select_ge_strided(
                Edge::as_words(chunk),
                Edge::WORDS,
                Edge::SIMILARITY_WORD,
                root_sim,
                &mut idx[..chunk.len()],
            );
            for &i in &idx[..kept] {
                heap.push(RankedEdge(chunk[i as usize]));
                if heap.len() > k {
                    heap.pop();
                }
            }
        }
        heap.into_sorted_vec().into_iter().map(|r| r.0).collect()
    }

    /// The connected component of `node` at `now`: `(canonical minimum
    /// member id, size)`, or `None` when the node has no live edge. At
    /// `now ≤ watermark` this is one lookup in the memoized map; past
    /// the watermark it walks the filtered component.
    pub fn component(&self, node: u64, now: f64) -> Option<(u64, u64)> {
        if now <= self.watermark {
            return self.component_map().by_node.get(&node).copied();
        }
        let cutoff = self.cutoff(now);
        if self.live_slice(node, cutoff).is_empty() {
            return None;
        }
        // BFS over the cutoff-filtered adjacency: O(component).
        let mut seen: HashMap<u64, (), FxBuildHasher> = HashMap::default();
        let mut stack = vec![node];
        let (mut min_id, mut size) = (node, 0u64);
        while let Some(x) = stack.pop() {
            if seen.insert(x, ()).is_some() {
                continue;
            }
            size += 1;
            min_id = min_id.min(x);
            for e in self.live_slice(x, cutoff) {
                if !seen.contains_key(&e.neighbor) {
                    stack.push(e.neighbor);
                }
            }
        }
        Some((min_id, size))
    }

    /// Aggregate counters at `now`. Memoized at the watermark; a query
    /// past the watermark re-filters the whole snapshot (O(edges)).
    pub fn stats(&self, now: f64) -> GraphStats {
        if now <= self.watermark {
            return GraphStats {
                nodes: self.adj.len() as u64,
                edges: self.live_edges,
                components: self.component_map().count,
            };
        }
        let cutoff = self.cutoff(now);
        let mut uf = UnionFind::default();
        let (mut nodes, mut edges) = (0u64, 0u64);
        for &node in self.adj.keys() {
            let live = self.live_slice(node, cutoff);
            if live.is_empty() {
                continue;
            }
            nodes += 1;
            uf.add(node);
            for e in live {
                if node < e.neighbor {
                    edges += 1;
                    uf.union(node, e.neighbor);
                }
            }
        }
        GraphStats {
            nodes,
            edges,
            components: uf.components(),
        }
    }

    /// The component map at the watermark, built once per snapshot.
    /// Reused blocks can hold entries that expired after their capture,
    /// so the build filters every block at the watermark's cutoff;
    /// pruning at capture guarantees each stored node keeps at least
    /// one live edge.
    fn component_map(&self) -> &ComponentMap {
        self.components.get_or_init(|| {
            let cutoff = self.cutoff(self.watermark);
            let mut uf = UnionFind::default();
            for &node in self.adj.keys() {
                let live = self.live_slice(node, cutoff);
                if live.is_empty() {
                    continue;
                }
                uf.add(node);
                for e in live {
                    if node < e.neighbor {
                        uf.union(node, e.neighbor);
                    }
                }
            }
            let mut by_node: HashMap<u64, (u64, u64), FxBuildHasher> = HashMap::default();
            for &node in self.adj.keys() {
                let Some(root) = uf.find(node) else { continue };
                let info = uf.info_of(root).expect("every root has aggregates");
                by_node.insert(node, info);
            }
            ComponentMap {
                by_node,
                count: uf.components(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::SimilarityGraph;

    fn ids(edges: &[crate::Edge]) -> Vec<u64> {
        edges.iter().map(|e| e.neighbor).collect()
    }

    /// A from-scratch capture: every node in a fresh graph is in the
    /// touched set, so an incremental capture over the empty snapshot
    /// is a full one.
    fn capture(g: &mut SimilarityGraph) -> super::GraphSnapshot {
        let empty = super::GraphSnapshot::empty(g.horizon());
        super::GraphSnapshot::capture_from(g, &empty, 1).0
    }

    #[test]
    fn snapshot_answers_match_the_live_graph_at_the_watermark() {
        let mut g = SimilarityGraph::new(10.0);
        g.add_edge(0, 1, 0.9, 0.0);
        g.add_edge(0, 2, 0.8, 5.0);
        g.add_edge(3, 4, 0.7, 6.0);
        let snap = capture(&mut g);
        assert_eq!(snap.watermark(), 6.0);
        assert_eq!(snap.live_edges(), 3);
        assert_eq!(ids(&snap.neighbors(0, 6.0)), vec![1, 2]);
        assert_eq!(ids(&snap.topk(0, 1, 6.0)), vec![1]);
        assert_eq!(snap.component(0, 6.0), Some((0, 3)));
        assert_eq!(snap.component(4, 6.0), Some((3, 2)));
        assert_eq!(snap.component(99, 6.0), None);
        let s = snap.stats(6.0);
        assert_eq!((s.nodes, s.edges, s.components), (5, 3, 2));
    }

    #[test]
    fn snapshot_refilters_past_the_watermark() {
        let mut g = SimilarityGraph::new(10.0);
        g.add_edge(0, 1, 0.9, 0.0);
        g.add_edge(0, 2, 0.8, 5.0);
        let snap = capture(&mut g);
        // t=0 edge is live at the watermark (and at t=τ exactly) …
        assert_eq!(ids(&snap.neighbors(0, 10.0)), vec![1, 2], "t=τ still live");
        // … and expires when a caller races past the publish cadence.
        assert_eq!(ids(&snap.neighbors(0, 10.1)), vec![2]);
        assert_eq!(ids(&snap.topk(0, 5, 10.1)), vec![2]);
        assert_eq!(snap.component(1, 10.1), None);
        assert_eq!(snap.component(0, 10.1), Some((0, 2)));
        let s = snap.stats(10.1);
        assert_eq!((s.nodes, s.edges, s.components), (2, 1, 1));
        // A query *before* the watermark evaluates at the watermark —
        // the clock never runs backwards.
        assert_eq!(ids(&snap.neighbors(0, -5.0)), vec![1, 2]);
    }

    #[test]
    fn snapshot_is_immutable_under_later_ingest() {
        let mut g = SimilarityGraph::new(5.0);
        g.add_edge(0, 1, 0.9, 0.0);
        let snap = capture(&mut g);
        g.add_edge(0, 2, 0.8, 1.0);
        g.add_edge(5, 6, 0.7, 100.0); // expires everything older
        assert_eq!(ids(&snap.neighbors(0, 0.0)), vec![1]);
        assert_eq!(snap.stats(0.0).edges, 1);
    }
}
