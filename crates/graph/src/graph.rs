//! The horizon-aware similarity graph: adjacency storage, top-k
//! selection, and epoch-rebuilt connected components.
//!
//! # Storage
//!
//! Per-node adjacency reuses the flat single-allocation block idiom of
//! the posting lists ([`sssj_collections::TimedBlock`]): edges are
//! appended in delivery-time order — the join delivers pairs at
//! non-decreasing stream time — so horizon expiry at `now − τ` is a
//! binary search plus an O(1) front cut, and a neighbour scan is a flat
//! slice walk. Every edge is stored twice (once per endpoint), stamped
//! with its delivery time and carrying the similarity score for
//! ranking.
//!
//! # Connected components
//!
//! Edge *additions* are incremental unions on a union-find; edge
//! *expiry* cannot be (union-find does not support deletions), so the
//! structure is rebuilt per **epoch**: the graph tracks live-edge
//! stamps in a monotone queue, and the first component query after any
//! stamp falls off the horizon rebuilds the union-find from the live
//! edge set (sweeping expired adjacency and empty nodes in the same
//! pass). Between rebuilds, additions keep the structure exact, so
//! query results always equal a from-scratch recomputation — the
//! property `tests/differential.rs` asserts.
//!
//! # Recovery dedup
//!
//! When the graph is restored from checkpoint aux state
//! ([`SimilarityGraph::load_aux`]), WAL replay re-delivers some of the
//! restored pairs. Each unordered id pair is emitted at most once per
//! engine history (ids are arrival ordinals), so restored pairs go into
//! a suppression set mirroring the durable layer's own: a re-delivered
//! restored pair is dropped and removed from the set, and the set is
//! cleared wholesale once the stream passes the restored watermark plus
//! twice the horizon (no engine re-delivers later than that — MiniBatch,
//! the laggiest, probes pairs at most `2τ` apart). Fresh graphs carry an
//! empty set: the hot-path branch is one `is_empty` check.

use std::collections::{HashMap, HashSet, VecDeque};

use sssj_collections::{FxBuildHasher, TimedBlock, TimedEntry};

/// One directed half of a stored edge: the far endpoint, the similarity
/// score, and the delivery stamp.
///
/// `repr(C)` so adjacency runs expose a flat word view
/// ([`Edge::as_words`]) to the strided SIMD scan kernels.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C)]
pub struct Edge {
    /// The far endpoint's record id.
    pub neighbor: u64,
    /// The (time-decayed) similarity the pair was emitted with.
    pub similarity: f64,
    /// Delivery stamp: the stream time at which the join handed the
    /// pair back.
    pub t: f64,
}

impl Edge {
    /// 64-bit words per edge in the flat view.
    pub const WORDS: usize = 3;
    /// Word offset of `similarity` within the flat view.
    pub const SIMILARITY_WORD: usize = 1;
    /// Word offset of the delivery stamp `t` within the flat view.
    pub const TIME_WORD: usize = 2;

    /// Reinterprets a run of edges as the raw 64-bit words the strided
    /// scan kernels consume (`stride = WORDS`, similarity at offset
    /// [`Self::SIMILARITY_WORD`]).
    pub fn as_words(edges: &[Edge]) -> &[u64] {
        const _: () = assert!(
            std::mem::size_of::<Edge>() == Edge::WORDS * 8 && std::mem::align_of::<Edge>() == 8
        );
        // SAFETY: repr(C) with the layout asserted above; u64 has no
        // validity requirements beyond initialised bytes.
        unsafe { std::slice::from_raw_parts(edges.as_ptr().cast(), edges.len() * Edge::WORDS) }
    }
}

impl TimedEntry for Edge {
    #[inline]
    fn time(&self) -> f64 {
        self.t
    }
}

/// Ranking order for top-k selection: `RankedEdge`s compare
/// *worse-is-greater* under (similarity desc, neighbour id asc), so a
/// max-heap of them keeps the worst retained edge at the root and an
/// ascending sort is best-first. Similarities are finite (`total_cmp`
/// is their numeric order). Shared with the snapshot read path so both
/// sides rank identically.
pub(crate) struct RankedEdge(pub(crate) Edge);

impl PartialEq for RankedEdge {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for RankedEdge {}

impl PartialOrd for RankedEdge {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankedEdge {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .0
            .similarity
            .total_cmp(&self.0.similarity)
            .then(self.0.neighbor.cmp(&other.0.neighbor))
    }
}

/// Aggregate counters reported by [`SimilarityGraph::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Nodes with at least one live edge.
    pub nodes: u64,
    /// Live (in-horizon) edges.
    pub edges: u64,
    /// Connected components over the live edges.
    pub components: u64,
}

/// Union-find with union-by-size and per-root aggregates, keyed by
/// sparse node ids. The canonical representative reported for a
/// component is its **minimum member id**, which is stable across
/// rebuilds (actual tree roots are not). Shared with the snapshot read
/// path, whose memoized component map is built with the same structure.
#[derive(Default)]
pub(crate) struct UnionFind {
    parent: HashMap<u64, u64, FxBuildHasher>,
    /// root → (minimum member id, member count).
    info: HashMap<u64, (u64, u64), FxBuildHasher>,
}

impl UnionFind {
    fn clear(&mut self) {
        self.parent.clear();
        self.info.clear();
    }

    /// Ensures `x` exists as a singleton set.
    pub(crate) fn add(&mut self, x: u64) {
        if let std::collections::hash_map::Entry::Vacant(slot) = self.parent.entry(x) {
            slot.insert(x);
            self.info.insert(x, (x, 1));
        }
    }

    /// The root of `x`'s set, with path compression; `None` when `x` is
    /// not in the structure.
    pub(crate) fn find(&mut self, x: u64) -> Option<u64> {
        let mut root = *self.parent.get(&x)?;
        while root != self.parent[&root] {
            root = self.parent[&root];
        }
        // Compress the walked path.
        let mut cur = x;
        while cur != root {
            let next = self.parent[&cur];
            self.parent.insert(cur, root);
            cur = next;
        }
        Some(root)
    }

    pub(crate) fn union(&mut self, a: u64, b: u64) {
        self.add(a);
        self.add(b);
        let ra = self.find(a).expect("just added");
        let rb = self.find(b).expect("just added");
        if ra == rb {
            return;
        }
        let (ma, sa) = self.info[&ra];
        let (mb, sb) = self.info[&rb];
        let (big, small) = if sa >= sb { (ra, rb) } else { (rb, ra) };
        self.parent.insert(small, big);
        self.info.remove(&small);
        self.info.insert(big, (ma.min(mb), sa + sb));
    }

    pub(crate) fn components(&self) -> u64 {
        self.info.len() as u64
    }

    /// The `(minimum member id, size)` aggregate of `root`'s set.
    pub(crate) fn info_of(&self, root: u64) -> Option<(u64, u64)> {
        self.info.get(&root).copied()
    }
}

/// One touched node's freshly captured live adjacency block, as
/// returned by [`SimilarityGraph::snapshot_delta`] — an empty block
/// means the node no longer has live edges.
pub(crate) type NodeBlock = (u64, std::sync::Arc<[Edge]>);

/// The incrementally maintained, horizon-aware similarity graph. See
/// the [module docs](self) for the design.
pub struct SimilarityGraph {
    /// Edge horizon τ: an edge delivered at `t` is live while
    /// `now − t ≤ τ`. Infinite disables expiry.
    horizon: f64,
    adj: HashMap<u64, TimedBlock<Edge>, FxBuildHasher>,
    /// Live-edge delivery stamps, oldest first (delivery time is
    /// non-decreasing, so this is a monotone queue); its length is the
    /// live edge count.
    stamps: VecDeque<f64>,
    /// Newest stream time observed.
    now: f64,
    /// Stamps expired since the last sweep — triggers adjacency GC.
    expired_since_sweep: usize,
    uf: UnionFind,
    /// Whether `uf` reflects exactly the live edge set.
    uf_valid: bool,
    /// Recovery suppression set (see the module docs).
    restored: HashSet<(u64, u64), FxBuildHasher>,
    /// Stream time after which `restored` can be cleared wholesale.
    restored_deadline: f64,
    /// Edges ever accepted (monotone; diagnostics).
    edges_added: u64,
    /// Nodes whose adjacency gained an entry since the last
    /// [`SimilarityGraph::snapshot_delta`] drain — the incremental
    /// capture's work list. Over-approximating is safe (a refresh of an
    /// unchanged node is wasted work, not a wrong answer); only missing
    /// a changed node would be a bug, so every insert funnels through
    /// [`SimilarityGraph::insert_edge`], which records both endpoints.
    touched: HashSet<u64, FxBuildHasher>,
    /// When set, expired edges are captured into `retired` instead of
    /// vanishing — the historical tier's feed.
    collect_expired: bool,
    /// Edges that fell off the horizon since the last
    /// [`SimilarityGraph::take_expired`], canonical orientation
    /// (`left < right`), in no particular stamp order (expiry is lazy
    /// and per-block).
    retired: Vec<ExpiredEdge>,
}

/// One edge that fell off the live horizon, captured for the
/// historical tier. Canonical orientation: `left < right`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExpiredEdge {
    /// Smaller endpoint id.
    pub left: u64,
    /// Larger endpoint id.
    pub right: u64,
    /// The pair's similarity score.
    pub similarity: f64,
    /// Delivery stamp (stream time the edge was added).
    pub t: f64,
}

/// Captures the about-to-expire prefix of one adjacency block into
/// `retired`. Blocks are stamp-ordered, so the expiring entries are a
/// prefix; only the `node < neighbor` orientation is recorded — the
/// mirror entry under the other endpoint captures (or already captured)
/// the same edge, and the reader dedups anyway.
fn capture_expired(retired: &mut Vec<ExpiredEdge>, node: u64, entries: &[Edge], cutoff: f64) {
    for e in entries {
        if e.t >= cutoff {
            break;
        }
        if node < e.neighbor {
            retired.push(ExpiredEdge {
                left: node,
                right: e.neighbor,
                similarity: e.similarity,
                t: e.t,
            });
        }
    }
}

impl SimilarityGraph {
    /// An empty graph whose edges expire `horizon` seconds after
    /// delivery (`f64::INFINITY` keeps everything).
    pub fn new(horizon: f64) -> Self {
        assert!(horizon >= 0.0, "graph horizon must be >= 0, got {horizon}");
        SimilarityGraph {
            horizon,
            adj: HashMap::default(),
            stamps: VecDeque::new(),
            now: f64::NEG_INFINITY,
            expired_since_sweep: 0,
            uf: UnionFind::default(),
            uf_valid: true,
            restored: HashSet::default(),
            restored_deadline: f64::NEG_INFINITY,
            edges_added: 0,
            touched: HashSet::default(),
            collect_expired: false,
            retired: Vec::new(),
        }
    }

    /// Turns expired-edge capture on or off (off by default: without a
    /// consumer the buffer would grow unboundedly).
    pub fn set_collect_expired(&mut self, on: bool) {
        self.collect_expired = on;
        if !on {
            self.retired = Vec::new();
        }
    }

    /// Drains the edges that expired since the last call (empty unless
    /// [`SimilarityGraph::set_collect_expired`] is on). Within one
    /// graph's lifetime each edge is captured exactly once (from its
    /// smaller endpoint's block), but a crash/restore cycle re-expires
    /// edges restored from the checkpoint aux, so consumers spanning
    /// restarts dedup on `(left, right, similarity, t)`.
    pub fn take_expired(&mut self) -> Vec<ExpiredEdge> {
        std::mem::take(&mut self.retired)
    }

    /// The edge horizon.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// The expiry cutoff at `self.now`.
    #[inline]
    fn cutoff(&self) -> f64 {
        self.now - self.horizon
    }

    /// Advances the graph clock and expires stamps that fell off the
    /// horizon. Cheap when nothing expired (one front peek).
    pub fn advance(&mut self, now: f64) {
        if now > self.now {
            self.now = now;
        }
        let cutoff = self.cutoff();
        let mut popped = 0usize;
        while self.stamps.front().is_some_and(|&t| t < cutoff) {
            self.stamps.pop_front();
            popped += 1;
        }
        if popped > 0 {
            // Expiry may disconnect components: rebuild lazily.
            self.uf_valid = false;
            self.expired_since_sweep += popped;
            // Adjacency blocks expire lazily on access; once the dead
            // volume rivals the live volume, sweep so untouched nodes
            // release memory too.
            if self.expired_since_sweep > self.stamps.len().max(1024) {
                self.sweep();
            }
        }
    }

    /// Accepts one delivered pair as an edge. `t` must be
    /// non-decreasing across calls (stream delivery order).
    pub fn add_edge(&mut self, left: u64, right: u64, similarity: f64, t: f64) {
        self.advance(t);
        if !self.restored.is_empty() {
            if self.now > self.restored_deadline {
                self.restored = HashSet::default();
            } else if self.restored.remove(&(left, right)) {
                return; // replay re-delivered a restored edge
            }
        }
        self.insert_edge(left, right, similarity, t);
        if self.uf_valid {
            self.uf.union(left, right);
        }
    }

    /// The raw insert: adjacency + stamp queue, no suppression, no
    /// union (used by [`SimilarityGraph::load_aux`] before the
    /// union-find exists).
    fn insert_edge(&mut self, left: u64, right: u64, similarity: f64, t: f64) {
        self.touched.insert(left);
        self.touched.insert(right);
        self.stamps.push_back(t);
        self.adj.entry(left).or_default().push(Edge {
            neighbor: right,
            similarity,
            t,
        });
        self.adj.entry(right).or_default().push(Edge {
            neighbor: left,
            similarity,
            t,
        });
        self.edges_added += 1;
    }

    /// Expires every adjacency block and drops empty nodes.
    fn sweep(&mut self) {
        let cutoff = self.cutoff();
        // Moved out so the retain closure (borrowing `adj`) can push.
        let mut retired = std::mem::take(&mut self.retired);
        let collect = self.collect_expired;
        self.adj.retain(|&node, block| {
            if collect {
                capture_expired(&mut retired, node, block.entries(), cutoff);
            }
            block.expire_before_strided(cutoff, Edge::WORDS, Edge::TIME_WORD, Edge::as_words);
            !block.is_empty()
        });
        self.retired = retired;
        self.expired_since_sweep = 0;
    }

    /// Rebuilds the union-find from the live edge set (sweeping in the
    /// same pass) if it is stale.
    fn ensure_components(&mut self) {
        if self.uf_valid {
            return;
        }
        self.sweep();
        self.uf.clear();
        for (&node, block) in &self.adj {
            self.uf.add(node);
            for e in block.entries() {
                if node < e.neighbor {
                    self.uf.union(node, e.neighbor);
                }
            }
        }
        self.uf_valid = true;
    }

    /// The live neighbours of `node` at `now`, sorted by neighbour id.
    pub fn neighbors(&mut self, node: u64, now: f64) -> Vec<Edge> {
        self.advance(now);
        let cutoff = self.cutoff();
        let Some(block) = self.adj.get_mut(&node) else {
            return Vec::new();
        };
        if self.collect_expired {
            capture_expired(&mut self.retired, node, block.entries(), cutoff);
        }
        block.expire_before_strided(cutoff, Edge::WORDS, Edge::TIME_WORD, Edge::as_words);
        let mut out: Vec<Edge> = block.entries().to_vec();
        out.sort_by_key(|e| e.neighbor);
        out
    }

    /// The edges of `node` whose stamp lies in `[lo, hi]`, sorted by
    /// neighbour id — a read-only window scan for time-travel overlays.
    /// Unlike [`SimilarityGraph::neighbors`] this neither advances the
    /// clock nor expires anything, so it is safe to call with a `hi` in
    /// the past.
    pub fn neighbors_in_window(&self, node: u64, lo: f64, hi: f64) -> Vec<Edge> {
        let Some(block) = self.adj.get(&node) else {
            return Vec::new();
        };
        let mut out: Vec<Edge> = block
            .entries()
            .iter()
            .filter(|e| e.t >= lo && e.t <= hi)
            .copied()
            .collect();
        out.sort_by_key(|e| e.neighbor);
        out
    }

    /// The `k` highest-scoring live neighbours of `node` at `now`,
    /// best first (ties broken towards the smaller neighbour id),
    /// served from a k-sized heap over the flat adjacency scan.
    pub fn topk(&mut self, node: u64, k: usize, now: f64) -> Vec<Edge> {
        self.advance(now);
        if k == 0 {
            return Vec::new();
        }
        let cutoff = self.cutoff();
        let Some(block) = self.adj.get_mut(&node) else {
            return Vec::new();
        };
        if self.collect_expired {
            capture_expired(&mut self.retired, node, block.entries(), cutoff);
        }
        block.expire_before_strided(cutoff, Edge::WORDS, Edge::TIME_WORD, Edge::as_words);
        // A k-sized heap of the best edges seen so far, rooted at the
        // current worst (RankedEdge orders worse-is-greater). O(d log k)
        // over the degree, O(k) memory — `k` is a query parameter
        // (small). Seed it with the first k edges, then let the SIMD
        // similarity filter skip chunks of edges that cannot displace
        // the root: once the heap holds k, push+pop of an edge scoring
        // strictly below the root is an identity. The filter keeps ties
        // (`≥`, they may still win on neighbour id) and the root's score
        // only rises, so over-selection is harmless and under-selection
        // impossible — output is exactly the full-heap scan's.
        let entries = block.entries();
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
        // Ascending RankedEdge order is best-first.
        heap.into_sorted_vec().into_iter().map(|r| r.0).collect()
    }

    /// The connected component of `node` at `now`: its canonical
    /// representative (minimum member id) and size, or `None` when the
    /// node has no live edge.
    pub fn component(&mut self, node: u64, now: f64) -> Option<(u64, u64)> {
        self.advance(now);
        self.ensure_components();
        // A node may linger in the union-find only via live edges (the
        // rebuild sweeps); between rebuilds every union came from a
        // live addition, but the *endpoint* may have expired since —
        // check liveness through the adjacency, not the union-find.
        let cutoff = self.cutoff();
        let collect = self.collect_expired;
        let retired = &mut self.retired;
        let block = self.adj.get_mut(&node)?;
        if collect {
            capture_expired(retired, node, block.entries(), cutoff);
        }
        block.expire_before_strided(cutoff, Edge::WORDS, Edge::TIME_WORD, Edge::as_words);
        if block.is_empty() {
            return None;
        }
        let root = self.uf.find(node)?;
        let (min_id, size) = *self.uf.info.get(&root)?;
        Some((min_id, size))
    }

    /// Aggregate counters at `now`.
    pub fn stats(&mut self, now: f64) -> GraphStats {
        self.advance(now);
        // When the union-find is valid, nothing has expired since its
        // last rebuild (which swept) or since the graph was born: every
        // adjacency entry is live and the component count is exact, so
        // a steady-state stats poll is O(1). Otherwise the component
        // query path rebuilds (and sweeps) once.
        self.ensure_components();
        GraphStats {
            nodes: self.adj.len() as u64,
            edges: self.stamps.len() as u64,
            components: self.uf.components(),
        }
    }

    /// Live edge count (cheap; does not sweep).
    pub fn live_edges(&self) -> u64 {
        self.stamps.len() as u64
    }

    /// Edges ever accepted.
    pub fn edges_added(&self) -> u64 {
        self.edges_added
    }

    /// Newest stream time observed.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Estimated heap footprint of the adjacency storage, bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.adj.values().map(|b| b.heap_bytes()).sum()
    }

    /// Sweeps every block when the historical tier is listening and
    /// anything expired since the last sweep, so each edge past the
    /// cutoff reaches [`SimilarityGraph::take_expired`] now rather than
    /// whenever its block is next touched.
    fn sweep_for_collector(&mut self) {
        if self.collect_expired && self.expired_since_sweep > 0 {
            self.sweep();
        }
    }

    /// Advances the clock to `now` and runs the collector's sweep — the
    /// step a capture ([`SimilarityGraph::snapshot_delta`]) takes first.
    /// A read served from the write side calls this before answering,
    /// so it retires the same edges at the same points as a read that
    /// publishes first.
    pub(crate) fn settle(&mut self, now: f64) {
        self.advance(now);
        self.sweep_for_collector();
    }

    /// The capture feed for incremental snapshot publication: drains
    /// the touched-node set and returns `(now, live edge count,
    /// fresh live blocks for exactly those nodes)` — an empty block
    /// means the node is gone. Untouched nodes are the publisher's
    /// problem (it reuses their previous blocks). No global sweep
    /// unless the historical tier is listening: expired-edge capture
    /// promises each edge retires exactly once and publication used to
    /// be what forced timely sweeps, so a collecting graph still sweeps
    /// here; without a collector, touched blocks are expired in place
    /// and the rest keep expiring lazily at the [`advance`] cadence.
    ///
    /// [`advance`]: SimilarityGraph::advance
    pub(crate) fn snapshot_delta(&mut self) -> (f64, u64, Vec<NodeBlock>) {
        self.sweep_for_collector();
        let cutoff = self.cutoff();
        let touched = std::mem::take(&mut self.touched);
        let mut delta = Vec::with_capacity(touched.len());
        for node in touched {
            let mut gone = true;
            let block: std::sync::Arc<[Edge]> = match self.adj.get_mut(&node) {
                Some(block) => {
                    block.expire_before_strided(
                        cutoff,
                        Edge::WORDS,
                        Edge::TIME_WORD,
                        Edge::as_words,
                    );
                    gone = block.is_empty();
                    std::sync::Arc::from(block.entries())
                }
                None => std::sync::Arc::from(&[][..]),
            };
            if gone {
                self.adj.remove(&node);
            }
            delta.push((node, block));
        }
        (self.now, self.stamps.len() as u64, delta)
    }

    // -----------------------------------------------------------------
    // Checkpoint aux (the durable integration).
    // -----------------------------------------------------------------

    /// Serialises the live edge set at `now` (sweeping first):
    /// `u64 n`, then per edge `u64 left, u64 right, f64 sim, f64 t`,
    /// all little-endian. Each edge is written once (`left < right`).
    pub fn write_aux(&mut self, now: f64, out: &mut Vec<u8>) {
        self.advance(now);
        self.sweep();
        let count_at = out.len();
        out.extend_from_slice(&0u64.to_le_bytes());
        let mut n = 0u64;
        for (&node, block) in &self.adj {
            for e in block.entries() {
                if node < e.neighbor {
                    out.extend_from_slice(&node.to_le_bytes());
                    out.extend_from_slice(&e.neighbor.to_le_bytes());
                    out.extend_from_slice(&e.similarity.to_le_bytes());
                    out.extend_from_slice(&e.t.to_le_bytes());
                    n += 1;
                }
            }
        }
        out[count_at..count_at + 8].copy_from_slice(&n.to_le_bytes());
    }

    /// Restores the edge set written by [`SimilarityGraph::write_aux`]
    /// into an empty graph and arms the replay suppression set.
    pub fn load_aux(&mut self, bytes: &[u8]) -> Result<(), String> {
        if self.edges_added != 0 {
            return Err("graph aux must load into an empty graph".into());
        }
        let mut r = Reader(bytes);
        let n = r.u64()?;
        let mut edges = Vec::with_capacity(n.min(1 << 24) as usize);
        for _ in 0..n {
            let l = r.u64()?;
            let rgt = r.u64()?;
            let sim = f64::from_bits(r.u64()?);
            let t = f64::from_bits(r.u64()?);
            if !(sim.is_finite() && t.is_finite()) {
                return Err("graph aux: non-finite edge field".into());
            }
            edges.push((l, rgt, sim, t));
        }
        if !r.0.is_empty() {
            return Err(format!("graph aux: {} trailing bytes", r.0.len()));
        }
        // Stamps must enter the monotone queue in order.
        edges.sort_by(|a, b| a.3.partial_cmp(&b.3).expect("finite stamps"));
        for &(l, rgt, sim, t) in &edges {
            self.insert_edge(l, rgt, sim, t);
            self.restored.insert((l, rgt));
            if t > self.now {
                self.now = t;
            }
        }
        // No engine re-delivers a pair later than the restored
        // watermark plus 2× the horizon (MiniBatch probes at most 2τ
        // apart); past that the set is dead weight and is cleared.
        self.restored_deadline = self.now + 2.0 * self.horizon;
        self.uf_valid = false;
        Ok(())
    }
}

/// A bounds-checked little-endian byte reader.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn u64(&mut self) -> Result<u64, String> {
        if self.0.len() < 8 {
            return Err("graph aux: truncated".into());
        }
        let (head, rest) = self.0.split_at(8);
        self.0 = rest;
        Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(edges: &[Edge]) -> Vec<u64> {
        edges.iter().map(|e| e.neighbor).collect()
    }

    #[test]
    fn edges_expire_at_the_horizon() {
        let mut g = SimilarityGraph::new(10.0);
        g.add_edge(0, 1, 0.9, 0.0);
        g.add_edge(0, 2, 0.8, 5.0);
        assert_eq!(ids(&g.neighbors(0, 5.0)), vec![1, 2]);
        // t=0 edge dies once now − t > τ.
        assert_eq!(ids(&g.neighbors(0, 10.0)), vec![1, 2], "t=τ still live");
        assert_eq!(ids(&g.neighbors(0, 10.1)), vec![2]);
        assert_eq!(g.neighbors(1, 10.1).len(), 0);
        assert_eq!(g.stats(10.1).edges, 1);
    }

    #[test]
    fn topk_ranks_by_similarity_with_id_tiebreak() {
        let mut g = SimilarityGraph::new(f64::INFINITY);
        g.add_edge(0, 1, 0.7, 0.0);
        g.add_edge(0, 2, 0.9, 1.0);
        g.add_edge(0, 3, 0.8, 2.0);
        g.add_edge(0, 4, 0.8, 3.0);
        let top = g.topk(0, 3, 3.0);
        assert_eq!(ids(&top), vec![2, 3, 4], "0.9, then 0.8 ties by id");
        assert_eq!(ids(&g.topk(0, 10, 3.0)), vec![2, 3, 4, 1]);
        assert!(g.topk(0, 0, 3.0).is_empty());
        assert!(g.topk(99, 3, 3.0).is_empty());
    }

    #[test]
    fn topk_simd_prefilter_matches_full_heap_scan() {
        // High-degree node (several SIMD chunks) with heavy similarity
        // ties so the `≥` filter's tie-keeping and the heap's id
        // tiebreak both get exercised; oracle is the plain all-push
        // k-heap the prefilter claims to reproduce exactly.
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut g = SimilarityGraph::new(f64::INFINITY);
        let mut edges = Vec::new();
        for i in 0..500u64 {
            let sim = (rng.random_range(0..20u32) as f64) / 20.0;
            g.add_edge(0, i + 1, sim, i as f64 * 0.01);
            edges.push(Edge {
                neighbor: i + 1,
                similarity: sim,
                t: i as f64 * 0.01,
            });
        }
        for k in [1, 3, 17, 64, 200, 600] {
            let mut heap = std::collections::BinaryHeap::new();
            for e in &edges {
                heap.push(RankedEdge(*e));
                if heap.len() > k {
                    heap.pop();
                }
            }
            let want: Vec<u64> = heap
                .into_sorted_vec()
                .into_iter()
                .map(|r| r.0.neighbor)
                .collect();
            assert_eq!(ids(&g.topk(0, k, 5.0)), want, "k={k}");
        }
    }

    #[test]
    fn strided_expiry_matches_binary_search() {
        // Degree past the SIMD threshold (> 128) so the strided kernel
        // path actually runs; the horizon semantics must be identical
        // to the generic binary-search expiry.
        let mut g = SimilarityGraph::new(2.0);
        for i in 0..300u64 {
            g.add_edge(0, i + 1, 0.9, i as f64 * 0.01);
        }
        // now = 4.0 ⇒ cutoff 2.0 ⇒ edges with t < 2.0 (i < 200) die.
        let live = g.neighbors(0, 4.0);
        assert_eq!(live.len(), 100);
        assert!(live.iter().all(|e| e.t >= 2.0));
    }

    #[test]
    fn components_merge_and_split_with_expiry() {
        let mut g = SimilarityGraph::new(10.0);
        g.add_edge(0, 1, 0.9, 0.0); // bridge, expires first
        g.add_edge(1, 2, 0.9, 6.0);
        g.add_edge(3, 4, 0.9, 6.0);
        // One component {0,1,2}, one {3,4}.
        assert_eq!(g.component(2, 6.0), Some((0, 3)));
        assert_eq!(g.component(3, 6.0), Some((3, 2)));
        assert_eq!(g.stats(6.0).components, 2);
        // The bridge expires: 0 drops out, {1,2} remains.
        assert_eq!(g.component(1, 11.0), Some((1, 2)));
        assert_eq!(g.component(0, 11.0), None);
        let s = g.stats(11.0);
        assert_eq!((s.nodes, s.edges, s.components), (4, 2, 2));
    }

    #[test]
    fn incremental_unions_between_rebuilds_stay_exact() {
        let mut g = SimilarityGraph::new(100.0);
        g.add_edge(0, 1, 0.9, 0.0);
        assert_eq!(g.component(0, 0.0), Some((0, 2))); // builds the UF
        g.add_edge(2, 3, 0.9, 1.0); // incremental singleton pair
        g.add_edge(1, 2, 0.9, 2.0); // incremental merge
        assert_eq!(g.component(3, 2.0), Some((0, 4)));
    }

    #[test]
    fn aux_roundtrip_restores_edges_and_suppresses_replay() {
        let mut g = SimilarityGraph::new(10.0);
        g.add_edge(0, 1, 0.9, 1.0);
        g.add_edge(1, 2, 0.8, 2.0);
        let mut aux = Vec::new();
        g.write_aux(2.0, &mut aux);

        let mut r = SimilarityGraph::new(10.0);
        r.load_aux(&aux).unwrap();
        assert_eq!(ids(&r.neighbors(1, 2.0)), vec![0, 2]);
        assert_eq!(r.live_edges(), 2);
        // Replay re-delivers (0,1): suppressed, not duplicated.
        r.add_edge(0, 1, 0.9, 1.0);
        assert_eq!(r.live_edges(), 2);
        assert_eq!(ids(&r.neighbors(0, 2.0)), vec![1]);
        // A genuinely new pair still lands.
        r.add_edge(2, 3, 0.7, 3.0);
        assert_eq!(r.live_edges(), 3);
        assert_eq!(r.component(3, 3.0), Some((0, 4)));
    }

    #[test]
    fn aux_rejects_garbage() {
        let mut g = SimilarityGraph::new(10.0);
        assert!(g.load_aux(&[1, 2, 3]).is_err());
        let mut ok = Vec::new();
        SimilarityGraph::new(10.0).write_aux(0.0, &mut ok);
        ok.push(0);
        let mut g = SimilarityGraph::new(10.0);
        assert!(g.load_aux(&ok).is_err(), "trailing bytes");
    }

    #[test]
    fn sweep_releases_expired_nodes() {
        let mut g = SimilarityGraph::new(1.0);
        for i in 0..3000u64 {
            g.add_edge(2 * i, 2 * i + 1, 0.9, i as f64);
        }
        // Every edge but the last few expired; the add-path sweep must
        // keep the node table bounded (≤ ~2 nodes per expired edge in
        // the 1024-expiry amortisation window) without any query.
        assert!(
            g.adj.len() < 2100,
            "sweep must GC dead nodes: {}",
            g.adj.len()
        );
        assert_eq!(g.stats(2999.0).edges, 2);
    }
}
