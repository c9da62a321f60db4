//! `JoinSpec` — the declarative description of a complete join pipeline,
//! and the **single factory** every entry surface (library, CLI, network
//! protocol, benchmark harness) builds joins through.
//!
//! The paper's message is that one streaming index subsumes a family of
//! variants; this module gives that family one configuration surface. A
//! spec names a base engine, an index kind, the problem parameters, and
//! an ordered list of wrappers, and [`JoinSpec::build`] turns it into a
//! running [`StreamJoin`].
//!
//! # The compact text form
//!
//! ```text
//! spec    := engine [ "-" index ] [ "?" param ( "&" param )* ]
//! engine  := "str" | "mb" | "decay" | "topk" | "lsh" | "sharded"
//! index   := "l2" | "l2ap" | "ap" | "inv"          (str/mb/topk)
//! param   := key "=" value | "checked" | "graph"
//! ```
//!
//! Engine parameters (`&`-separated, order-insensitive):
//!
//! | key      | engines   | meaning                                        |
//! |----------|-----------|------------------------------------------------|
//! | `theta`  | all       | similarity threshold θ ∈ (0, 1] (default 0.7)  |
//! | `lambda` | all but `decay` | decay rate λ ≥ 0 (default 0.01)          |
//! | `tau`    | all but `decay` | horizon; sets λ = ln(1/θ)/τ (§3 recipe)  |
//! | `model`  | `decay`   | decay model, e.g. `window:10`, `poly:2:5`      |
//! | `bounds` | `decay`   | `wmax` (window-max bound, default) or `l2`     |
//! | `k`      | `topk`    | per-record output cap (k ≥ 1)                  |
//! | `shards` | `sharded` | worker threads (1 ≤ shards ≤ 64)               |
//! | `inner`  | `sharded` | per-shard engine: `str`/`mb` (with `-index`),  |
//! |          |           | `decay` or `lsh` (default `str-l2`)            |
//! | `bits`   | `lsh`     | signature width, positive multiple of 64       |
//! | `bands`  | `lsh`     | band count (divides bits, rows ≤ 64)           |
//! | `seed`   | `lsh`     | hyperplane seed                                |
//! | `verify` | `lsh`     | `exact` or `est`                               |
//!
//! A `sharded` spec carries its inner engine in `inner=` — the index goes
//! on the inner token (`inner=mb-l2ap`), and the inner engine's own keys
//! (`model=`/`bounds=` for `decay`, `bits=`/`bands=`/`seed=`/`verify=`
//! for `lsh`) stay top-level. `sharded-l2?shards=4` remains accepted as
//! shorthand for `inner=str-l2`. `topk` cannot shard (its per-arrival
//! selection is global), and `sharded` cannot nest.
//!
//! Wrapper parameters are order-*sensitive*: each wraps everything listed
//! before it, so `str-l2?checked&reorder=5` is `Reorder(Checked(STR-L2))`.
//!
//! | key       | meaning                                                  |
//! |-----------|----------------------------------------------------------|
//! | `reorder` | tolerate records up to `slack` time units out of order   |
//! | `checked` | shadow the join with the exact oracle (debugging aid)    |
//! | `durable` | WAL + checkpoints under the given directory (innermost;  |
//! |           | str/mb/decay and sharded over those; resumes from an     |
//! |           | existing manifest — see `sssj-store`)                    |
//! | `graph`   | live similarity graph over the pair stream (`sssj-graph`)|
//! |           | — every emitted pair becomes a horizon-expiring edge,    |
//! |           | queryable for neighbours / top-k / components. At most   |
//! |           | one per spec; with `durable=` it sits directly above the |
//! |           | durable wrapper and its edges ride the checkpoint aux,   |
//! |           | so recovery restores the graph without replaying beyond  |
//! |           | the WAL horizon                                          |
//!
//! Examples:
//!
//! ```text
//! str-l2?theta=0.7&lambda=0.01&reorder=5
//! mb-inv?theta=0.5&lambda=0.1
//! decay?theta=0.7&model=window:10&bounds=l2
//! topk-l2?theta=0.5&lambda=0.01&k=3
//! lsh?theta=0.7&lambda=0.01&bits=256&bands=32&verify=est
//! sharded?theta=0.6&lambda=0.1&shards=4&inner=str-l2
//! sharded?theta=0.6&shards=4&inner=decay&model=window:10
//! sharded?theta=0.6&lambda=0.1&shards=4&inner=lsh&bits=256&bands=32&verify=exact
//! str-l2?theta=0.7&tau=10&durable=/var/sssj
//! str-l2?theta=0.7&tau=10&graph
//! sharded?theta=0.6&tau=10&shards=4&inner=str-l2&durable=/var/sssj&graph
//! ```
//!
//! # Building
//!
//! ```
//! use sssj_core::spec::JoinSpec;
//!
//! let spec: JoinSpec = "str-l2?theta=0.7&lambda=0.1".parse().unwrap();
//! let join = spec.build().unwrap();
//! assert_eq!(join.name(), "STR-L2");
//! ```
//!
//! One engine table says, per engine, whether it takes an index, which
//! wrappers it admits (`checked`, `durable=`, `inner=`) and who builds
//! it; validation, parsing and the three construction entry points
//! ([`JoinSpec::build`], [`JoinSpec::build_checkpointable`],
//! [`JoinSpec::build_shard_worker`]) all read it, and one match builds
//! the base engine for all three.
//!
//! The LSH and sharded engines and the durable, graph and history
//! wrappers live in crates *downstream* of `sssj-core` (`sssj-lsh`,
//! `sssj-parallel`, `sssj-store`, `sssj-graph`, `sssj-segments`), so
//! their constructors are injected through one entry point, [`register`],
//! which each crate's `register_spec_builder()` calls once — the bolt-on,
//! single-entry-point pattern of ProvSQL. Every binary that links those
//! crates registers them at startup (the CLI, the net server and the
//! bench harness all do); building such a spec without the registration
//! yields [`SpecError::EngineUnavailable`], never a silent fallback.

use std::fmt;
use std::str::FromStr;
use std::sync::{PoisonError, RwLock};

use sssj_index::IndexKind;
use sssj_types::{Decay, DecayModel};

use crate::algorithm::{Checkpointable, Framework, ShardableJoin, StreamJoin};
use crate::config::SssjConfig;
use crate::decay_join::DecayStreaming;
use crate::minibatch::MiniBatch;
use crate::reorder::ReorderBuffer;
use crate::streaming::Streaming;
use crate::topk::TopKJoin;
use crate::verify::CheckedJoin;

/// Default similarity threshold when a spec string omits `theta`.
pub const DEFAULT_THETA: f64 = 0.7;
/// Default decay rate when a spec string omits `lambda`/`tau`.
pub const DEFAULT_LAMBDA: f64 = 0.01;
/// Default LSH signature width in bits.
pub const DEFAULT_LSH_BITS: u32 = 256;
/// Default LSH band count.
pub const DEFAULT_LSH_BANDS: u32 = 32;
/// Default LSH hyperplane seed ("SSSJ").
pub const DEFAULT_LSH_SEED: u64 = 0x5353_534A;

/// LSH tuning carried by a spec — plain data mirrored here so the spec
/// layer does not depend on `sssj-lsh` (which depends on this crate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LshSpec {
    /// Signature width in bits (positive multiple of 64).
    pub bits: u32,
    /// Number of bands (must divide `bits` into rows of ≤ 64).
    pub bands: u32,
    /// Hyperplane seed.
    pub seed: u64,
    /// Score candidates from signatures only (`verify=est`) instead of
    /// the exact stored vectors (`verify=exact`, the default).
    pub estimate: bool,
}

impl Default for LshSpec {
    fn default() -> Self {
        LshSpec {
            bits: DEFAULT_LSH_BITS,
            bands: DEFAULT_LSH_BANDS,
            seed: DEFAULT_LSH_SEED,
            estimate: false,
        }
    }
}

/// Decay-engine tuning carried by a spec: the model plus whether
/// candidate generation uses the windowed-max `rs1w` bound (`bounds=wmax`,
/// the default) or only the ℓ2 bounds (`bounds=l2`, the ablation the
/// `ablation_decay_bounds` bench measures). Output is identical either
/// way; only the pruning work changes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecaySpec {
    /// The decay model.
    pub model: DecayModel,
    /// Whether the window-max candidate bound is enabled.
    pub window_max: bool,
}

impl DecaySpec {
    /// A decay spec with the window-max bound enabled (the default).
    pub fn new(model: DecayModel) -> Self {
        DecaySpec {
            model,
            window_max: true,
        }
    }
}

/// The engine each shard of a sharded join runs — the shardable subset
/// of [`EngineSpec`]: engines whose processing decomposes into a query
/// half and an insert half (see [`crate::ShardableJoin`]). `topk` is
/// excluded (its per-arrival selection is global) and `sharded` cannot
/// nest.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ShardedInner {
    /// STR workers (the default). Dimension-indexed: queries are routed
    /// only to shards with live postings on a shared dimension.
    Streaming,
    /// MB workers. Dimension-indexed, routed like STR.
    MiniBatch,
    /// Generalised-decay STR-L2 workers. Dimension-indexed.
    GenericDecay(DecaySpec),
    /// LSH workers. Signature-driven — exposes no dimension information,
    /// so the driver falls back to broadcasting queries.
    Lsh(LshSpec),
}

impl ShardedInner {
    /// The grammar name used in the `inner=` key.
    pub fn keyword(&self) -> &'static str {
        self.engine().keyword()
    }

    /// Whether the inner engine is parameterised by an [`IndexKind`]
    /// (spelled on the inner token, e.g. `inner=mb-l2ap`).
    pub fn takes_index(&self) -> bool {
        self.engine().takes_index()
    }

    /// The base engine each shard runs.
    fn engine(&self) -> EngineSpec {
        match *self {
            ShardedInner::Streaming => EngineSpec::Streaming,
            ShardedInner::MiniBatch => EngineSpec::MiniBatch,
            ShardedInner::GenericDecay(d) => EngineSpec::GenericDecay(d),
            ShardedInner::Lsh(p) => EngineSpec::Lsh(p),
        }
    }
}

/// The base engine of a join pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EngineSpec {
    /// STR: one incrementally maintained, time-filtered index.
    Streaming,
    /// MB: batch indexes over τ-sized windows.
    MiniBatch,
    /// STR-L2 generalised to an arbitrary decay model.
    GenericDecay(DecaySpec),
    /// Per-arrival top-k selection over the STR threshold join.
    TopK(u32),
    /// Approximate SimHash/banding join (built by `sssj-lsh`).
    Lsh(LshSpec),
    /// Dimension-partitioned, candidate-aware sharding over per-shard
    /// worker engines (built by `sssj-parallel`).
    Sharded {
        /// Number of worker threads (1 ≤ shards ≤ 64).
        shards: u32,
        /// The engine each shard runs.
        inner: ShardedInner,
    },
}

impl EngineSpec {
    /// The engine's row of the engine table.
    fn row(&self) -> &'static EngineRow {
        &ENGINES[match self {
            EngineSpec::Streaming => 0,
            EngineSpec::MiniBatch => 1,
            EngineSpec::GenericDecay(_) => 2,
            EngineSpec::TopK(_) => 3,
            EngineSpec::Lsh(_) => 4,
            EngineSpec::Sharded { .. } => 5,
        }]
    }

    /// The grammar name of the engine.
    pub fn keyword(&self) -> &'static str {
        self.row().keyword
    }

    /// Whether the compact form spells an [`IndexKind`] on the *head*
    /// token (`str-l2`). Sharded specs carry the index on the inner token
    /// instead (`inner=mb-l2ap`).
    pub fn takes_index(&self) -> bool {
        self.row().takes_index
    }

    /// Whether the spec's `index` field is meaningful for this engine at
    /// all (drives the JSON mapping; a superset of [`takes_index`], since
    /// sharded str/mb inners use the index without a head token).
    ///
    /// [`takes_index`]: EngineSpec::takes_index
    pub fn uses_index(&self) -> bool {
        match self {
            EngineSpec::Sharded { inner, .. } => inner.takes_index(),
            engine => engine.takes_index(),
        }
    }
}

/// One wrapper layer around the base engine. Wrappers apply in list
/// order: the first wraps the engine, the last is outermost.
#[derive(Clone, Debug, PartialEq)]
pub enum WrapperSpec {
    /// [`ReorderBuffer`]: tolerate records up to `slack` time units late.
    Reorder(f64),
    /// [`CheckedJoin`]: shadow the join with the exact oracle.
    Checked,
    /// Durable join (`sssj-store`): the engine is wrapped in a segmented
    /// write-ahead log plus checkpoint manager rooted at the given
    /// directory, and *resumes* from that directory when it already
    /// holds a manifest. Innermost; engines with a replay path only
    /// (str/mb/decay and sharded over those).
    Durable(String),
    /// Live similarity graph (`sssj-graph`): every emitted pair becomes
    /// an edge stamped with its delivery time and expiring at the
    /// spec's horizon ([`JoinSpec::horizon`]); the graph serves
    /// neighbour / top-k / component queries. At most one per spec.
    /// Combined with [`WrapperSpec::Durable`] it must sit directly
    /// above the durable wrapper (position 1): the graph is then built
    /// *inside* the durability boundary and its live edges ride the
    /// checkpoint aux blob, so recovery restores edges whose members
    /// are already behind the WAL horizon.
    Graph,
    /// Historical tier (`sssj-segments`): horizon GC feeds a compactor
    /// that persists retired WAL segments and expired graph edges as
    /// immutable sorted segment files under the given directory, and
    /// queries gain a time-travel form (`… at=<t>`). Requires
    /// [`WrapperSpec::Durable`] (the compactor attaches to the WAL's GC
    /// sink) and sits directly above it — or above the graph wrapper
    /// when one is present. At most one per spec.
    History(String),
}

/// A declarative, serializable description of a complete join pipeline.
///
/// Construct one with [`JoinSpec::new`] and the `with_*` methods, parse
/// the compact text form with [`FromStr`], or decode the JSON mapping
/// with [`JoinSpec::from_json`]; then call [`JoinSpec::build`].
#[derive(Clone, Debug, PartialEq)]
pub struct JoinSpec {
    /// The base engine.
    pub engine: EngineSpec,
    /// Index variant (ignored by `decay` — always L2 — and `lsh`).
    pub index: IndexKind,
    /// Similarity threshold θ ∈ (0, 1].
    pub theta: f64,
    /// Exponential decay rate λ ≥ 0 (unused by `decay`, whose model
    /// carries its own parameters).
    pub lambda: f64,
    /// Wrapper layers, innermost first.
    pub wrappers: Vec<WrapperSpec>,
}

/// Why a spec failed to parse, validate or build.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// The compact text or JSON form is malformed.
    Parse(String),
    /// The spec is structurally well-formed but invalid (out-of-range
    /// parameter, unsupported wrapper/engine combination, …).
    Invalid(String),
    /// The engine's constructor is not registered in this binary (the
    /// crate providing it was not linked or never registered).
    EngineUnavailable(&'static str),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(m) => write!(f, "cannot parse spec: {m}"),
            SpecError::Invalid(m) => write!(f, "invalid spec: {m}"),
            SpecError::EngineUnavailable(e) => write!(
                f,
                "engine {e:?} is not registered in this binary \
                 (link the providing crate and call its register function)"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

fn invalid(msg: impl Into<String>) -> SpecError {
    SpecError::Invalid(msg.into())
}

fn parse_err(msg: impl Into<String>) -> SpecError {
    SpecError::Parse(msg.into())
}

/// A `durable=`/`history=` directory is part of the spec grammar, so it
/// must be non-empty and free of the grammar's delimiters.
fn check_dir(wrapper: &str, dir: &str) -> Result<(), SpecError> {
    if dir.is_empty()
        || dir
            .chars()
            .any(|c| matches!(c, '&' | '=' | '?' | '#' | '"' | '\\') || c.is_whitespace())
    {
        return Err(invalid(format!(
            "{wrapper} directory {dir:?} must be non-empty and free of \
             '&', '=', '?', '#', quotes, backslashes and whitespace \
             (it is part of the spec grammar)"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The engine table.
// ---------------------------------------------------------------------

/// What the grammar and the builders know about one base engine. A
/// capability is `Ok(())`, or `Err(why)` saying why the engine lacks it.
struct EngineRow {
    /// The grammar name.
    keyword: &'static str,
    /// Whether the head token spells an [`IndexKind`] (`str-l2`).
    takes_index: bool,
    /// `checked`: the exact oracle can shadow it.
    checked: Result<(), &'static str>,
    /// `durable=`: it has a replay path (it is [`Checkpointable`]).
    durable: Result<(), &'static str>,
    /// `inner=`: it can run per shard (it is a [`ShardableJoin`]).
    shardable: Result<(), &'static str>,
    /// `"core"`, or the downstream layer whose [`register`] call builds
    /// it — the name [`SpecError::EngineUnavailable`] reports.
    built_by: &'static str,
}

const fn row(
    keyword: &'static str,
    takes_index: bool,
    checked: Result<(), &'static str>,
    durable: Result<(), &'static str>,
    shardable: Result<(), &'static str>,
    built_by: &'static str,
) -> EngineRow {
    EngineRow {
        keyword,
        takes_index,
        checked,
        durable,
        shardable,
        built_by,
    }
}

const LOSSY: &str = "it drops pairs by design, which the oracle would flag";
const NOT_EXP: &str = "the oracle assumes exponential decay";
const HISTORY: &str =
    "its per-arrival selection depends on emission history, which replay suppression would skew";
const NO_REPLAY: &str = "it has no replay path";
const GLOBAL: &str = "its per-arrival selection is global";
const NESTED: &str = "sharded joins cannot nest";

/// The engine table, one row per [`EngineSpec`] variant in declaration
/// order. A sharded spec has a capability only when its inner engine's
/// row grants it too.
#[rustfmt::skip]
static ENGINES: [EngineRow; 6] = [
    //   keyword    index  checked       durable         inner=        built by
    row("str",     true,  Ok(()),       Ok(()),         Ok(()),       "core"),
    row("mb",      true,  Ok(()),       Ok(()),         Ok(()),       "core"),
    row("decay",   false, Err(NOT_EXP), Ok(()),         Ok(()),       "core"),
    row("topk",    true,  Err(LOSSY),   Err(HISTORY),   Err(GLOBAL),  "core"),
    row("lsh",     false, Err(LOSSY),   Err(NO_REPLAY), Ok(()),       "lsh"),
    row("sharded", false, Ok(()),       Ok(()),         Err(NESTED),  "sharded"),
];

// ---------------------------------------------------------------------
// Extension registry: constructors for layers living downstream.
// ---------------------------------------------------------------------

/// Builds an `lsh` engine from θ, λ and its tuning.
pub type LshBuilder = fn(theta: f64, lambda: f64, params: LshSpec) -> Box<dyn ShardableJoin + Send>;
/// Builds a `sharded` engine from its validated spec.
pub type ShardedBuilder = fn(spec: &JoinSpec) -> Result<Box<dyn Checkpointable>, SpecError>;
/// Builds a pipeline rooted in a storage directory (`durable=`, `history=`).
pub type LayerBuilder = fn(spec: &JoinSpec, dir: &str) -> Result<Box<dyn StreamJoin>, SpecError>;
/// Taps a join with the live graph; the spec gives the edge horizon.
pub type GraphBuilder = fn(inner: Box<dyn StreamJoin>, spec: &JoinSpec) -> Box<dyn StreamJoin>;
/// Taps a durable pipeline's base with the live graph.
pub type GraphBaseBuilder =
    fn(base: Box<dyn Checkpointable>, spec: &JoinSpec) -> Box<dyn Checkpointable>;

/// The constructors downstream crates contribute through [`register`],
/// one slot per layer. A crate fills the slots of its own layer and
/// leaves the rest `None` (`..Extensions::NONE`).
#[derive(Clone, Copy)]
pub struct Extensions {
    /// The `lsh` engine (`sssj-lsh`): the bare engine and the per-shard
    /// worker of `sharded?inner=lsh` alike.
    pub lsh: Option<LshBuilder>,
    /// The `sharded` engine (`sssj-parallel`): bare, and as the base
    /// `durable=` wraps.
    pub sharded: Option<ShardedBuilder>,
    /// The `durable=` wrapper (`sssj-store`), from the spec with every
    /// wrapper but `graph` stripped: creates the store or resumes it.
    pub durable: Option<LayerBuilder>,
    /// The `graph` wrapper (`sssj-graph`) around an ephemeral join.
    pub graph: Option<GraphBuilder>,
    /// The `graph` wrapper around a durable pipeline's base: its live
    /// edges ride the checkpoint aux blob.
    pub graph_base: Option<GraphBaseBuilder>,
    /// The `history=` wrapper (`sssj-segments`), from the full spec: it
    /// composes the durable and graph layers itself.
    pub history: Option<LayerBuilder>,
}

impl Extensions {
    /// No constructor at all.
    pub const NONE: Extensions = Extensions {
        lsh: None,
        sharded: None,
        durable: None,
        graph: None,
        graph_base: None,
        history: None,
    };
}

static REGISTRY: RwLock<Extensions> = RwLock::new(Extensions::NONE);

/// Registers downstream constructors with the factory — the one entry
/// point behind every crate's `register_spec_builder()`. Idempotent: the
/// first registration of each slot wins.
pub fn register(extensions: Extensions) {
    let mut r = REGISTRY.write().unwrap_or_else(PoisonError::into_inner);
    r.lsh = r.lsh.or(extensions.lsh);
    r.sharded = r.sharded.or(extensions.sharded);
    r.durable = r.durable.or(extensions.durable);
    r.graph = r.graph.or(extensions.graph);
    r.graph_base = r.graph_base.or(extensions.graph_base);
    r.history = r.history.or(extensions.history);
}

/// A copy of the registry: no lock is held while a constructor runs
/// (constructors build nested specs).
fn registry() -> Extensions {
    *REGISTRY.read().unwrap_or_else(PoisonError::into_inner)
}

/// The core engines, which both checkpoint and shard.
trait CoreEngine: Checkpointable + ShardableJoin {}

impl<T: Checkpointable + ShardableJoin> CoreEngine for T {}

/// A freshly built base engine, typed by what it can do besides
/// [`StreamJoin`].
enum Engine {
    /// `str`, `mb`, `decay`: checkpointable and shardable.
    Core(Box<dyn CoreEngine>),
    /// `sharded`: checkpointable.
    Checkpointable(Box<dyn Checkpointable>),
    /// `lsh`: shardable.
    Shardable(Box<dyn ShardableJoin + Send>),
    /// `topk`: neither.
    Plain(Box<dyn StreamJoin>),
}

impl Engine {
    fn join(self) -> Box<dyn StreamJoin> {
        match self {
            Engine::Core(e) => e,
            Engine::Checkpointable(e) => e,
            Engine::Shardable(e) => e,
            Engine::Plain(e) => e,
        }
    }

    fn checkpointable(self) -> Option<Box<dyn Checkpointable>> {
        match self {
            Engine::Core(e) => Some(e),
            Engine::Checkpointable(e) => Some(e),
            Engine::Shardable(_) | Engine::Plain(_) => None,
        }
    }

    fn worker(self) -> Option<Box<dyn ShardableJoin + Send>> {
        match self {
            Engine::Core(e) => Some(e),
            Engine::Shardable(e) => Some(e),
            Engine::Checkpointable(_) | Engine::Plain(_) => None,
        }
    }
}

impl JoinSpec {
    /// An STR-L2 spec with the given problem parameters — the paper's
    /// recommended configuration and the starting point for `with_*`
    /// customisation.
    pub fn new(theta: f64, lambda: f64) -> Self {
        JoinSpec {
            engine: EngineSpec::Streaming,
            index: IndexKind::L2,
            theta,
            lambda,
            wrappers: Vec::new(),
        }
    }

    /// The §3 recipe: θ from the content threshold, λ = ln(1/θ)/τ from
    /// the largest acceptable gap between identical items.
    pub fn from_horizon(theta: f64, tau: f64) -> Self {
        let decay = Decay::from_horizon(theta, tau);
        JoinSpec::new(theta, decay.lambda())
    }

    /// A classic framework × index combination (the paper's original
    /// eight algorithms).
    pub fn classic(framework: Framework, index: IndexKind, config: SssjConfig) -> Self {
        JoinSpec {
            engine: match framework {
                Framework::Streaming => EngineSpec::Streaming,
                Framework::MiniBatch => EngineSpec::MiniBatch,
            },
            index,
            theta: config.theta,
            lambda: config.lambda,
            wrappers: Vec::new(),
        }
    }

    /// Replaces the base engine.
    pub fn with_engine(mut self, engine: EngineSpec) -> Self {
        self.engine = engine;
        self
    }

    /// Replaces the index kind.
    pub fn with_index(mut self, index: IndexKind) -> Self {
        self.index = index;
        self
    }

    /// The `(θ, λ)` pair as an [`SssjConfig`].
    pub fn config(&self) -> SssjConfig {
        SssjConfig::new(self.theta, self.lambda)
    }

    /// The pipeline's *forgetting horizon* in stream-time seconds: how
    /// long a record (or an emitted edge, for `graph`-wrapped specs)
    /// stays output-relevant. `τ = ln(1/θ)/λ` for exponential decay, the
    /// model's own horizon for the `decay` engine, and `∞` when λ = 0
    /// (nothing ever expires).
    pub fn horizon(&self) -> f64 {
        match &self.engine {
            EngineSpec::GenericDecay(d)
            | EngineSpec::Sharded {
                inner: ShardedInner::GenericDecay(d),
                ..
            } => d.model.horizon(self.theta),
            _ => self.config().tau(),
        }
    }

    /// Splits off an *outermost* reorder wrapper, if present: returns the
    /// spec without it and the slack. Lets callers that must observe late
    /// records (the net session reports them as protocol errors) keep the
    /// [`ReorderBuffer`] un-type-erased while still building everything
    /// else through the factory.
    pub fn split_outer_reorder(&self) -> (JoinSpec, Option<f64>) {
        let mut inner = self.clone();
        match inner.wrappers.last() {
            Some(WrapperSpec::Reorder(slack)) => {
                let slack = *slack;
                inner.wrappers.pop();
                (inner, Some(slack))
            }
            _ => (inner, None),
        }
    }

    /// Fails unless every engine the spec runs — the base engine and, for
    /// a sharded spec, its per-shard inner — has the capability `cap`
    /// reads off its engine-table row.
    fn require(
        &self,
        wrapper: &str,
        cap: fn(&EngineRow) -> Result<(), &'static str>,
    ) -> Result<(), SpecError> {
        let inner = match &self.engine {
            EngineSpec::Sharded { inner, .. } => Some(inner.engine().row()),
            _ => None,
        };
        for row in std::iter::once(self.engine.row()).chain(inner) {
            if let Err(why) = cap(row) {
                return Err(invalid(format!(
                    "{wrapper} cannot wrap {}: {why}",
                    row.keyword
                )));
            }
        }
        Ok(())
    }

    /// Checks every cross-parameter rule the grammar cannot express.
    /// [`JoinSpec::build`] calls this first; [`FromStr`] validates too,
    /// so a parsed spec is always buildable (up to engine registration).
    pub fn validate(&self) -> Result<(), SpecError> {
        if !(self.theta > 0.0 && self.theta <= 1.0) {
            return Err(invalid(format!("theta out of (0, 1]: {}", self.theta)));
        }
        if !(self.lambda.is_finite() && self.lambda >= 0.0) {
            return Err(invalid(format!(
                "lambda must be finite and >= 0: {}",
                self.lambda
            )));
        }
        // A sharded spec's inner engine obeys exactly the rules of the
        // same engine unsharded.
        let engine = match self.engine {
            EngineSpec::Sharded { shards, inner } => {
                if shards == 0 {
                    return Err(invalid("sharded requires shards >= 1"));
                }
                if shards > 64 {
                    return Err(invalid(format!(
                        "sharded supports at most 64 shards (routing masks \
                         are 64-bit): {shards}"
                    )));
                }
                inner.engine()
            }
            engine => engine,
        };
        match engine {
            EngineSpec::GenericDecay(d) => {
                if self.index != IndexKind::L2 {
                    return Err(invalid(format!(
                        "the decay engine is L2-only (its pruning bounds are \
                         index-independent); got index {}",
                        self.index
                    )));
                }
                if !d.model.horizon(self.theta).is_finite() {
                    return Err(invalid(format!(
                        "decay model {} has an infinite horizon at theta={}",
                        d.model, self.theta
                    )));
                }
            }
            EngineSpec::TopK(0) => return Err(invalid("topk requires k >= 1")),
            EngineSpec::Lsh(p) => {
                if p.bits == 0 || !p.bits.is_multiple_of(64) {
                    return Err(invalid(format!(
                        "lsh bits must be a positive multiple of 64: {}",
                        p.bits
                    )));
                }
                if p.bands == 0 || !p.bits.is_multiple_of(p.bands) || p.bits / p.bands > 64 {
                    return Err(invalid(format!(
                        "lsh bands must divide bits into rows of <= 64: bits={} bands={}",
                        p.bits, p.bands
                    )));
                }
                if self.lambda <= 0.0 {
                    return Err(invalid(
                        "lsh requires lambda > 0 (a finite forgetting horizon)",
                    ));
                }
            }
            _ => {}
        }
        for (pos, w) in self.wrappers.iter().enumerate() {
            match w {
                WrapperSpec::Reorder(slack) => {
                    if !(slack.is_finite() && *slack >= 0.0) {
                        return Err(invalid(format!(
                            "reorder slack must be finite and >= 0: {slack}"
                        )));
                    }
                }
                WrapperSpec::Checked => self.require("checked", |row| row.checked)?,
                WrapperSpec::Durable(dir) => {
                    if pos != 0 {
                        return Err(invalid(
                            "durable must be the innermost wrapper (listed first): \
                             the WAL records exactly what the engine sees",
                        ));
                    }
                    check_dir("durable", dir)?;
                    self.require("durable", |row| row.durable)?;
                    if self.wrappers.contains(&WrapperSpec::Checked) {
                        return Err(invalid(
                            "checked cannot combine with durable: recovery re-emits \
                             pairs the oracle has not seen",
                        ));
                    }
                }
                WrapperSpec::Graph => {
                    if self.wrappers[..pos].contains(&WrapperSpec::Graph) {
                        return Err(invalid("graph may appear at most once"));
                    }
                    let durable = matches!(self.wrappers.first(), Some(WrapperSpec::Durable(_)));
                    if durable && pos != 1 {
                        return Err(invalid(
                            "with durable=, graph must sit directly above the durable \
                             wrapper (listed second): its edges ride the checkpoint",
                        ));
                    }
                }
                WrapperSpec::History(dir) => {
                    check_dir("history", dir)?;
                    if self.wrappers[..pos]
                        .iter()
                        .any(|w| matches!(w, WrapperSpec::History(_)))
                    {
                        return Err(invalid("history may appear at most once"));
                    }
                    if !matches!(self.wrappers.first(), Some(WrapperSpec::Durable(_))) {
                        return Err(invalid(
                            "history= requires a durable= base: the compactor feeds \
                             on the WAL's horizon GC",
                        ));
                    }
                    let want = if self.wrappers.contains(&WrapperSpec::Graph) {
                        2
                    } else {
                        1
                    };
                    if pos != want {
                        return Err(invalid(
                            "history must sit directly above the durable wrapper \
                             (and above graph, when present)",
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// **The** factory: builds the complete pipeline this spec describes.
    ///
    /// Every entry surface — the fluent [`crate::JoinBuilder`], the CLI,
    /// the net server and the benchmark harness — builds through it. The
    /// durable layer and the sharded driver re-enter through
    /// [`JoinSpec::build_checkpointable`] and
    /// [`JoinSpec::build_shard_worker`]; all three construct the base
    /// engine in one place.
    pub fn build(&self) -> Result<Box<dyn StreamJoin>, SpecError> {
        self.validate()?;
        let reg = registry();
        let history_dir = self.wrappers.iter().find_map(|w| match w {
            WrapperSpec::History(dir) => Some(dir),
            _ => None,
        });
        let mut join: Box<dyn StreamJoin> = if let Some(dir) = history_dir {
            // The historical tier composes the whole durable(+graph)
            // base itself: it must hold the concrete store handle to
            // install its compactor as the GC sink, which the
            // type-erased durable constructor below cannot hand back.
            let f = reg.history.ok_or(SpecError::EngineUnavailable("history"))?;
            f(self, dir)?
        } else if let Some(WrapperSpec::Durable(dir)) = self.wrappers.first() {
            // The durable base wraps the *bare* engine (validate pinned
            // the wrapper to position 0); remaining wrappers stack on
            // top below. The constructor lives downstream in
            // `sssj-store` and either creates the store or resumes from
            // its manifest.
            let f = reg.durable.ok_or(SpecError::EngineUnavailable("durable"))?;
            let mut bare = self.clone();
            // A graph wrapper stays on the bare spec: it is built
            // *inside* the durability boundary (via
            // [`JoinSpec::build_checkpointable`]) so its edges ride
            // the checkpoint aux blob.
            bare.wrappers.retain(|w| matches!(w, WrapperSpec::Graph));
            f(&bare, dir)?
        } else {
            self.base()?.join()
        };
        let graph_in_base = matches!(self.wrappers.first(), Some(WrapperSpec::Durable(_)));
        for w in &self.wrappers {
            join = match w {
                // Consumed as the base above.
                WrapperSpec::Durable(_) | WrapperSpec::History(_) => join,
                WrapperSpec::Graph => {
                    if graph_in_base {
                        // Already built inside the durable base.
                        join
                    } else {
                        let tap = reg.graph.ok_or(SpecError::EngineUnavailable("graph"))?;
                        tap(join, self)
                    }
                }
                WrapperSpec::Reorder(slack) => Box::new(ReorderBuffer::new(join, *slack)),
                WrapperSpec::Checked => Box::new(CheckedJoin::new(join, self.config())),
            };
        }
        // Outermost: the registry tap, so sssj_core_records_total /
        // sssj_core_pairs_total count exactly what the application fed
        // and received (a no-op pass-through when SSSJ_TELEMETRY=off).
        Ok(crate::telemetry::TelemetryJoin::wrap(join))
    }

    /// Builds the bare engine as a [`Checkpointable`] join — the base
    /// the durability layer (`sssj-store`) wraps. Requires a wrapper-free
    /// spec, or exactly the graph wrapper (the durable layer strips every
    /// other one), and an engine the engine table marks durable: `str`,
    /// `mb`, `decay`, or `sharded` over those. A graph wrapper taps the
    /// base, and its live edge set rides the checkpoint aux blob.
    pub fn build_checkpointable(&self) -> Result<Box<dyn Checkpointable>, SpecError> {
        self.validate()?;
        let graph = match self.wrappers.as_slice() {
            [] => None,
            [WrapperSpec::Graph] => {
                let tap = registry().graph_base;
                Some(tap.ok_or(SpecError::EngineUnavailable("graph"))?)
            }
            _ => {
                return Err(invalid(
                    "build_checkpointable requires a wrapper-free spec (or exactly the \
                     graph wrapper): the durable layer wraps the bare engine",
                ))
            }
        };
        self.require("durable", |row| row.durable)?;
        let base = self.base()?.checkpointable().ok_or_else(|| {
            invalid(format!(
                "engine {:?} is not checkpointable",
                self.engine.keyword()
            ))
        })?;
        Ok(match graph {
            Some(tap) => tap(base, self),
            None => base,
        })
    }

    /// Builds the engine **one shard** of a sharded spec runs — the
    /// [`ShardableJoin`] the `sssj-parallel` driver spawns per worker
    /// thread: the inner engine, with the spec's θ, λ and index. Only
    /// meaningful for [`EngineSpec::Sharded`] specs; the wrapper stack
    /// belongs to the driver, not the workers, and is ignored here.
    pub fn build_shard_worker(&self) -> Result<Box<dyn ShardableJoin + Send>, SpecError> {
        self.validate()?;
        let EngineSpec::Sharded { inner, .. } = &self.engine else {
            return Err(invalid(format!(
                "build_shard_worker requires a sharded spec, got engine {:?}",
                self.engine.keyword()
            )));
        };
        let worker = JoinSpec {
            engine: inner.engine(),
            index: self.index,
            theta: self.theta,
            lambda: self.lambda,
            wrappers: Vec::new(),
        };
        worker
            .base()?
            .worker()
            .ok_or_else(|| invalid(format!("engine {:?} cannot shard", inner.keyword())))
    }

    /// The one constructor match: builds the base engine the spec names,
    /// without wrappers, typed by what it can do besides [`StreamJoin`].
    fn base(&self) -> Result<Engine, SpecError> {
        let reg = registry();
        let unregistered = SpecError::EngineUnavailable(self.engine.row().built_by);
        Ok(match &self.engine {
            EngineSpec::Streaming => {
                Engine::Core(Box::new(Streaming::new(self.config(), self.index)))
            }
            EngineSpec::MiniBatch => {
                Engine::Core(Box::new(MiniBatch::new(self.config(), self.index)))
            }
            EngineSpec::GenericDecay(d) => Engine::Core(Box::new(DecayStreaming::with_options(
                self.theta,
                d.model,
                d.window_max,
            ))),
            EngineSpec::TopK(k) => Engine::Plain(Box::new(TopKJoin::new(
                self.config(),
                self.index,
                *k as usize,
            ))),
            EngineSpec::Lsh(params) => {
                let f = reg.lsh.ok_or(unregistered)?;
                Engine::Shardable(f(self.theta, self.lambda, *params))
            }
            EngineSpec::Sharded { .. } => {
                let f = reg.sharded.ok_or(unregistered)?;
                Engine::Checkpointable(f(self)?)
            }
        })
    }

    // -----------------------------------------------------------------
    // JSON mapping (for the net protocol and programmatic clients).
    // -----------------------------------------------------------------

    /// The JSON form, e.g.
    /// `{"engine":"str","index":"l2","theta":0.7,"lambda":0.01,"wrappers":[["reorder",5]]}`.
    ///
    /// Engine parameters appear as top-level keys (`model`, `bounds`,
    /// `k`, `shards`, `inner`, `bits`, `bands`, `seed`, `verify`);
    /// wrappers are an ordered array of `["reorder", slack]` /
    /// `["checked"]` / `["durable", dir]` / `["graph"]` /
    /// `["history", dir]` entries. A sharded spec names its
    /// per-shard engine under `inner`, with that engine's keys top-level,
    /// e.g. `{"engine":"sharded","shards":4,"inner":"mb","index":"l2ap",…}`.
    pub fn to_json(&self) -> String {
        use fmt::Write;
        fn write_decay(s: &mut String, d: &DecaySpec) {
            let _ = write!(s, ",\"model\":\"{}\"", d.model);
            if !d.window_max {
                s.push_str(",\"bounds\":\"l2\"");
            }
        }
        fn write_lsh(s: &mut String, p: &LshSpec) {
            let _ = write!(
                s,
                ",\"bits\":{},\"bands\":{},\"seed\":{},\"verify\":\"{}\"",
                p.bits,
                p.bands,
                p.seed,
                if p.estimate { "est" } else { "exact" }
            );
        }
        let mut s = String::new();
        let _ = write!(s, "{{\"engine\":\"{}\"", self.engine.keyword());
        if self.engine.uses_index() {
            let _ = write!(
                s,
                ",\"index\":\"{}\"",
                self.index.to_string().to_ascii_lowercase()
            );
        }
        let _ = write!(s, ",\"theta\":{}", self.theta);
        match &self.engine {
            EngineSpec::GenericDecay(d) => write_decay(&mut s, d),
            EngineSpec::Sharded { shards, inner } => {
                if !matches!(inner, ShardedInner::GenericDecay(_)) {
                    let _ = write!(s, ",\"lambda\":{}", self.lambda);
                }
                let _ = write!(s, ",\"shards\":{shards},\"inner\":\"{}\"", inner.keyword());
                match inner {
                    ShardedInner::GenericDecay(d) => write_decay(&mut s, d),
                    ShardedInner::Lsh(p) => write_lsh(&mut s, p),
                    _ => {}
                }
            }
            engine => {
                let _ = write!(s, ",\"lambda\":{}", self.lambda);
                match engine {
                    EngineSpec::TopK(k) => {
                        let _ = write!(s, ",\"k\":{k}");
                    }
                    EngineSpec::Lsh(p) => write_lsh(&mut s, p),
                    _ => {}
                }
            }
        }
        if !self.wrappers.is_empty() {
            s.push_str(",\"wrappers\":[");
            for (i, w) in self.wrappers.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                match w {
                    WrapperSpec::Reorder(slack) => {
                        let _ = write!(s, "[\"reorder\",{slack}]");
                    }
                    WrapperSpec::Checked => s.push_str("[\"checked\"]"),
                    WrapperSpec::Graph => s.push_str("[\"graph\"]"),
                    // validate() bans quotes/backslashes in the dirs, so
                    // the strings embed without escaping.
                    WrapperSpec::Durable(dir) => {
                        let _ = write!(s, "[\"durable\",\"{dir}\"]");
                    }
                    WrapperSpec::History(dir) => {
                        let _ = write!(s, "[\"history\",\"{dir}\"]");
                    }
                }
            }
            s.push(']');
        }
        s.push('}');
        s
    }

    /// Parses the JSON form produced by [`JoinSpec::to_json`]. Unknown
    /// keys are rejected (a typo must not silently fall back to a
    /// default); the result is validated like the text form.
    pub fn from_json(json: &str) -> Result<JoinSpec, SpecError> {
        let value = json::parse(json).map_err(parse_err)?;
        let obj = value
            .as_object()
            .ok_or_else(|| parse_err("expected a JSON object"))?;
        let mut params = ParamBag::default();
        let mut engine_name: Option<String> = None;
        for (key, v) in obj {
            match key.as_str() {
                "engine" => {
                    engine_name = Some(
                        v.as_str()
                            .ok_or_else(|| parse_err("engine must be a string"))?
                            .to_string(),
                    );
                }
                "index" => {
                    let s = v
                        .as_str()
                        .ok_or_else(|| parse_err("index must be a string"))?;
                    params.index = Some(
                        IndexKind::parse(s)
                            .ok_or_else(|| parse_err(format!("unknown index {s:?}")))?,
                    );
                }
                "theta" => {
                    params.theta = Some(
                        v.as_f64()
                            .ok_or_else(|| parse_err("theta must be a number"))?,
                    )
                }
                "lambda" => {
                    params.lambda = Some(
                        v.as_f64()
                            .ok_or_else(|| parse_err("lambda must be a number"))?,
                    )
                }
                "tau" => {
                    params.tau = Some(
                        v.as_f64()
                            .ok_or_else(|| parse_err("tau must be a number"))?,
                    )
                }
                "model" => {
                    let s = v
                        .as_str()
                        .ok_or_else(|| parse_err("model must be a string"))?;
                    params.model = Some(
                        DecayModel::parse(s)
                            .ok_or_else(|| parse_err(format!("unknown decay model {s:?}")))?,
                    );
                }
                "bounds" => {
                    let s = v
                        .as_str()
                        .ok_or_else(|| parse_err("bounds must be a string"))?;
                    params.window_max = Some(parse_bounds(s)?);
                }
                "k" => params.k = Some(as_u64(v, "k")? as u32),
                "shards" => params.shards = Some(as_u64(v, "shards")? as u32),
                "inner" => {
                    params.inner = Some(
                        v.as_str()
                            .ok_or_else(|| parse_err("inner must be a string"))?
                            .to_string(),
                    );
                }
                "bits" => params.bits = Some(as_u64(v, "bits")? as u32),
                "bands" => params.bands = Some(as_u64(v, "bands")? as u32),
                "seed" => params.seed = Some(as_u64(v, "seed")?),
                "verify" => {
                    let s = v
                        .as_str()
                        .ok_or_else(|| parse_err("verify must be a string"))?;
                    params.estimate = Some(parse_verify(s)?);
                }
                "wrappers" => {
                    let arr = v
                        .as_array()
                        .ok_or_else(|| parse_err("wrappers must be an array"))?;
                    for w in arr {
                        let entry = w
                            .as_array()
                            .ok_or_else(|| parse_err("each wrapper must be an array"))?;
                        let name = entry
                            .first()
                            .and_then(|n| n.as_str())
                            .ok_or_else(|| parse_err("wrapper name must be a string"))?;
                        let wrapper = match (name, entry.len()) {
                            ("reorder", 2) => WrapperSpec::Reorder(
                                entry[1]
                                    .as_f64()
                                    .ok_or_else(|| parse_err("reorder slack must be a number"))?,
                            ),
                            ("checked", 1) => WrapperSpec::Checked,
                            ("graph", 1) => WrapperSpec::Graph,
                            ("durable", 2) => WrapperSpec::Durable(
                                entry[1]
                                    .as_str()
                                    .ok_or_else(|| parse_err("durable directory must be a string"))?
                                    .to_string(),
                            ),
                            ("history", 2) => WrapperSpec::History(
                                entry[1]
                                    .as_str()
                                    .ok_or_else(|| parse_err("history directory must be a string"))?
                                    .to_string(),
                            ),
                            _ => {
                                return Err(parse_err(format!("unknown wrapper {name:?}")));
                            }
                        };
                        params.wrappers.push(wrapper);
                    }
                }
                other => return Err(parse_err(format!("unknown key {other:?}"))),
            }
        }
        let engine_name = engine_name.ok_or_else(|| parse_err("missing \"engine\""))?;
        params.finish(&engine_name)
    }
}

fn as_u64(v: &json::Value, key: &str) -> Result<u64, SpecError> {
    v.as_u64()
        .ok_or_else(|| parse_err(format!("{key} must be a non-negative integer")))
}

fn parse_verify(s: &str) -> Result<bool, SpecError> {
    match s {
        "exact" => Ok(false),
        "est" | "estimate" => Ok(true),
        other => Err(parse_err(format!(
            "verify must be exact|est, got {other:?}"
        ))),
    }
}

/// `bounds=` values: `wmax` enables the window-max candidate bound (the
/// default), `l2` ablates it.
fn parse_bounds(s: &str) -> Result<bool, SpecError> {
    match s {
        "wmax" => Ok(true),
        "l2" => Ok(false),
        other => Err(parse_err(format!("bounds must be wmax|l2, got {other:?}"))),
    }
}

/// Parameters gathered during parsing, turned into a [`JoinSpec`] once
/// the engine is known (both the text and the JSON path end here, so the
/// cross-parameter rules live in one place).
#[derive(Default)]
struct ParamBag {
    index: Option<IndexKind>,
    theta: Option<f64>,
    lambda: Option<f64>,
    tau: Option<f64>,
    model: Option<DecayModel>,
    window_max: Option<bool>,
    k: Option<u32>,
    shards: Option<u32>,
    inner: Option<String>,
    bits: Option<u32>,
    bands: Option<u32>,
    seed: Option<u64>,
    estimate: Option<bool>,
    wrappers: Vec<WrapperSpec>,
}

impl ParamBag {
    fn reject(&self, cond: bool, msg: &str) -> Result<(), SpecError> {
        if cond {
            Err(parse_err(msg.to_string()))
        } else {
            Ok(())
        }
    }

    fn finish(self, engine_name: &str) -> Result<JoinSpec, SpecError> {
        let theta = self.theta.unwrap_or(DEFAULT_THETA);
        if self.lambda.is_some() && self.tau.is_some() {
            return Err(parse_err("lambda and tau are mutually exclusive"));
        }
        let lambda = match (self.lambda, self.tau) {
            (Some(_), Some(_)) => unreachable!("rejected above"),
            (Some(l), None) => l,
            (None, Some(tau)) => {
                if !(tau.is_finite() && tau > 0.0) {
                    return Err(parse_err(format!("tau must be finite and > 0: {tau}")));
                }
                if !(theta > 0.0 && theta <= 1.0) {
                    return Err(parse_err(format!("theta out of (0, 1]: {theta}")));
                }
                Decay::from_horizon(theta, tau).lambda()
            }
            (None, None) => DEFAULT_LAMBDA,
        };
        let lsh_keys = self.bits.is_some()
            || self.bands.is_some()
            || self.seed.is_some()
            || self.estimate.is_some();
        // A sharded spec's per-shard engine obeys exactly the rules of
        // the same engine unsharded; its index may sit on either token.
        let sharded = engine_name == "sharded";
        let (name, index) = if sharded {
            let token = self.inner.as_deref().unwrap_or("str");
            match token.split_once('-') {
                None => (token, self.index),
                Some((name, i)) => {
                    let kind = IndexKind::parse(i)
                        .ok_or_else(|| parse_err(format!("unknown inner index {i:?}")))?;
                    self.reject(
                        self.index.is_some(),
                        "index given twice (on the sharded head and in inner=)",
                    )?;
                    (name, Some(kind))
                }
            }
        } else {
            (engine_name, self.index)
        };
        if let (true, Some(Err(why))) = (
            sharded,
            ENGINES
                .iter()
                .find(|row| row.keyword == name)
                .map(|row| row.shardable),
        ) {
            return Err(parse_err(format!("{name} cannot run per shard: {why}")));
        }
        let engine = match name {
            "str" => EngineSpec::Streaming,
            "mb" => EngineSpec::MiniBatch,
            "decay" => EngineSpec::GenericDecay(DecaySpec {
                model: self
                    .model
                    .ok_or_else(|| parse_err("the decay engine requires model="))?,
                window_max: self.window_max.unwrap_or(true),
            }),
            "topk" => EngineSpec::TopK(self.k.ok_or_else(|| parse_err("topk requires k="))?),
            "lsh" => EngineSpec::Lsh(self.lsh_params()),
            other if sharded => return Err(parse_err(format!("unknown inner engine {other:?}"))),
            other => return Err(parse_err(format!("unknown engine {other:?}"))),
        };
        for (given, key, owner) in [
            (self.model.is_some(), "model=", "decay"),
            (self.window_max.is_some(), "bounds=", "decay"),
            (self.k.is_some(), "k=", "topk"),
            (lsh_keys, "bits/bands/seed/verify", "lsh"),
        ] {
            if given && name != owner {
                return Err(parse_err(format!("{key} requires the {owner} engine")));
            }
        }
        self.reject(
            !sharded && (self.shards.is_some() || self.inner.is_some()),
            "shards= and inner= require the sharded engine",
        )?;
        if index.is_some() && !engine.takes_index() {
            return Err(parse_err(format!("the {name} engine takes no index")));
        }
        // The decay engine's model carries the decay; pin λ to 0 so the
        // canonical form (which omits it) round-trips exactly.
        let decay_engine = name == "decay";
        self.reject(
            decay_engine && (self.lambda.is_some() || self.tau.is_some()),
            "the decay engine takes model=, not lambda=/tau=",
        )?;
        let engine = if sharded {
            EngineSpec::Sharded {
                shards: self
                    .shards
                    .ok_or_else(|| parse_err("sharded requires shards="))?,
                inner: match engine {
                    EngineSpec::Streaming => ShardedInner::Streaming,
                    EngineSpec::MiniBatch => ShardedInner::MiniBatch,
                    EngineSpec::GenericDecay(d) => ShardedInner::GenericDecay(d),
                    EngineSpec::Lsh(p) => ShardedInner::Lsh(p),
                    EngineSpec::TopK(_) | EngineSpec::Sharded { .. } => {
                        unreachable!("the engine table refuses to shard {name}")
                    }
                },
            }
        } else {
            engine
        };
        let spec = JoinSpec {
            engine,
            index: index.unwrap_or(IndexKind::L2),
            theta,
            lambda: if decay_engine { 0.0 } else { lambda },
            wrappers: self.wrappers,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// LSH parameters with the documented defaults filled in.
    fn lsh_params(&self) -> LshSpec {
        LshSpec {
            bits: self.bits.unwrap_or(DEFAULT_LSH_BITS),
            bands: self.bands.unwrap_or(DEFAULT_LSH_BANDS),
            seed: self.seed.unwrap_or(DEFAULT_LSH_SEED),
            estimate: self.estimate.unwrap_or(false),
        }
    }
}

impl FromStr for JoinSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<JoinSpec, SpecError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(parse_err("empty spec"));
        }
        let (head, query) = match s.split_once('?') {
            Some((h, q)) => (h, Some(q)),
            None => (s, None),
        };
        let (engine_name, index) = match head.split_once('-') {
            Some((e, i)) => {
                let kind =
                    IndexKind::parse(i).ok_or_else(|| parse_err(format!("unknown index {i:?}")))?;
                (e, Some(kind))
            }
            None => (head, None),
        };
        let mut params = ParamBag {
            index,
            ..ParamBag::default()
        };
        if let Some(query) = query {
            for kv in query.split('&') {
                let (key, value) = match kv.split_once('=') {
                    Some((k, v)) => (k, Some(v)),
                    None => (kv, None),
                };
                fn want<'a>(key: &str, v: Option<&'a str>) -> Result<&'a str, SpecError> {
                    v.ok_or_else(|| parse_err(format!("{key}= needs a value")))
                }
                let f64_of = |v: &str| -> Result<f64, SpecError> {
                    v.parse::<f64>()
                        .map_err(|e| parse_err(format!("bad {key} {v:?}: {e}")))
                };
                let u_of = |v: &str| -> Result<u64, SpecError> {
                    v.parse::<u64>()
                        .map_err(|e| parse_err(format!("bad {key} {v:?}: {e}")))
                };
                match key {
                    "theta" => params.theta = Some(f64_of(want(key, value)?)?),
                    "lambda" => params.lambda = Some(f64_of(want(key, value)?)?),
                    "tau" => params.tau = Some(f64_of(want(key, value)?)?),
                    "model" => {
                        let v = want(key, value)?;
                        params.model = Some(
                            DecayModel::parse(v)
                                .ok_or_else(|| parse_err(format!("unknown decay model {v:?}")))?,
                        );
                    }
                    "bounds" => params.window_max = Some(parse_bounds(want(key, value)?)?),
                    "k" => params.k = Some(u_of(want(key, value)?)? as u32),
                    "shards" => params.shards = Some(u_of(want(key, value)?)? as u32),
                    "inner" => params.inner = Some(want(key, value)?.to_string()),
                    "bits" => params.bits = Some(u_of(want(key, value)?)? as u32),
                    "bands" => params.bands = Some(u_of(want(key, value)?)? as u32),
                    "seed" => params.seed = Some(u_of(want(key, value)?)?),
                    "verify" => params.estimate = Some(parse_verify(want(key, value)?)?),
                    "reorder" => params
                        .wrappers
                        .push(WrapperSpec::Reorder(f64_of(want(key, value)?)?)),
                    "checked" => {
                        if value.is_some() {
                            return Err(parse_err("checked takes no value"));
                        }
                        params.wrappers.push(WrapperSpec::Checked);
                    }
                    "durable" => params
                        .wrappers
                        .push(WrapperSpec::Durable(want(key, value)?.to_string())),
                    "history" => params
                        .wrappers
                        .push(WrapperSpec::History(want(key, value)?.to_string())),
                    "graph" => {
                        if value.is_some() {
                            return Err(parse_err("graph takes no value"));
                        }
                        params.wrappers.push(WrapperSpec::Graph);
                    }
                    other => return Err(parse_err(format!("unknown key {other:?}"))),
                }
            }
        }
        params.finish(engine_name)
    }
}

impl fmt::Display for JoinSpec {
    /// The canonical compact form: engine(-index) with every engine
    /// parameter spelled out (defaults included) so that two specs
    /// compare equal iff their strings do, and wrappers in order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.engine.keyword())?;
        if self.engine.takes_index() {
            write!(f, "-{}", self.index.to_string().to_ascii_lowercase())?;
        }
        fn write_decay(f: &mut fmt::Formatter<'_>, d: &DecaySpec) -> fmt::Result {
            write!(f, "&model={}", d.model)?;
            if !d.window_max {
                f.write_str("&bounds=l2")?;
            }
            Ok(())
        }
        fn write_lsh(f: &mut fmt::Formatter<'_>, p: &LshSpec) -> fmt::Result {
            write!(f, "&bits={}&bands={}", p.bits, p.bands)?;
            if p.seed != DEFAULT_LSH_SEED {
                write!(f, "&seed={}", p.seed)?;
            }
            write!(f, "&verify={}", if p.estimate { "est" } else { "exact" })
        }
        write!(f, "?theta={}", self.theta)?;
        match &self.engine {
            EngineSpec::GenericDecay(d) => write_decay(f, d)?,
            EngineSpec::Sharded { shards, inner } => {
                if !matches!(inner, ShardedInner::GenericDecay(_)) {
                    write!(f, "&lambda={}", self.lambda)?;
                }
                write!(f, "&shards={shards}&inner={}", inner.keyword())?;
                match inner {
                    ShardedInner::Streaming | ShardedInner::MiniBatch => {
                        write!(f, "-{}", self.index.to_string().to_ascii_lowercase())?
                    }
                    ShardedInner::GenericDecay(d) => write_decay(f, d)?,
                    ShardedInner::Lsh(p) => write_lsh(f, p)?,
                }
            }
            engine => {
                write!(f, "&lambda={}", self.lambda)?;
                match engine {
                    EngineSpec::TopK(k) => write!(f, "&k={k}")?,
                    EngineSpec::Lsh(p) => write_lsh(f, p)?,
                    _ => {}
                }
            }
        }
        for w in &self.wrappers {
            match w {
                WrapperSpec::Reorder(slack) => write!(f, "&reorder={slack}")?,
                WrapperSpec::Checked => f.write_str("&checked")?,
                WrapperSpec::Durable(dir) => write!(f, "&durable={dir}")?,
                WrapperSpec::Graph => f.write_str("&graph")?,
                WrapperSpec::History(dir) => write!(f, "&history={dir}")?,
            }
        }
        Ok(())
    }
}

/// A minimal JSON reader for the spec mapping — objects, arrays,
/// strings, numbers, booleans and null; no external dependencies (the
/// container has no registry access, and this is the only JSON the
/// workspace parses).
mod json {
    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number: the f64 value plus the raw text, so 64-bit
        /// integers (e.g. LSH seeds) survive without f64 rounding.
        Num(f64, String),
        /// A string (escapes decoded).
        Str(String),
        /// An ordered array.
        Arr(Vec<Value>),
        /// An object, insertion-ordered.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(x, _) => Some(*x),
                _ => None,
            }
        }

        /// The exact integer value, read from the raw digits (f64 would
        /// round anything above 2⁵³).
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(_, raw) => raw.parse::<u64>().ok(),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }

        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(v) => Some(v),
                _ => None,
            }
        }
    }

    pub fn parse(s: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn bump(&mut self) -> Option<u8> {
            let b = self.peek()?;
            self.pos += 1;
            Some(b)
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.bump() == Some(b) {
                Ok(())
            } else {
                Err(format!("expected {:?} at offset {}", b as char, self.pos))
            }
        }

        fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at offset {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.lit("true", Value::Bool(true)),
                Some(b'f') => self.lit("false", Value::Bool(false)),
                Some(b'n') => self.lit("null", Value::Null),
                Some(_) => self.number(),
                None => Err("unexpected end of input".into()),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut entries = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(entries));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                entries.push((key, value));
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b'}') => return Ok(Value::Obj(entries)),
                    _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b']') => return Ok(Value::Arr(items)),
                    _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.bump() {
                    Some(b'"') => return Ok(out),
                    Some(b'\\') => match self.bump() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code).ok_or_else(|| "bad \\u escape".to_string())?,
                            );
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    },
                    Some(b) if b < 0x20 => {
                        return Err(format!("raw control byte at offset {}", self.pos))
                    }
                    Some(b) => {
                        // Re-assemble UTF-8: push the raw byte sequence.
                        let start = self.pos - 1;
                        let len = match b {
                            0x00..=0x7F => 1,
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        if start + len > self.bytes.len() {
                            return Err("truncated UTF-8".into());
                        }
                        let chunk = std::str::from_utf8(&self.bytes[start..start + len])
                            .map_err(|_| "bad UTF-8".to_string())?;
                        out.push_str(chunk);
                        self.pos = start + len;
                    }
                    None => return Err("unterminated string".into()),
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while matches!(
                self.peek(),
                Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            ) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| "bad number".to_string())?;
            text.parse::<f64>()
                .map(|x| Value::Num(x, text.to_string()))
                .map_err(|_| format!("bad number {text:?} at offset {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> JoinSpec {
        s.parse().unwrap_or_else(|e| panic!("{s:?}: {e}"))
    }

    #[test]
    fn canonical_examples_roundtrip() {
        for s in [
            "str-l2?theta=0.7&lambda=0.01",
            "str-inv?theta=0.5&lambda=0.1",
            "mb-l2ap?theta=0.99&lambda=0.0001",
            "decay?theta=0.7&model=window:10",
            "decay?theta=0.55&model=poly:1.5:4",
            "decay?theta=0.7&model=window:10&bounds=l2",
            "topk-l2?theta=0.5&lambda=0.01&k=3",
            "lsh?theta=0.7&lambda=0.01&bits=256&bands=32&verify=exact",
            "lsh?theta=0.7&lambda=0.01&bits=128&bands=16&seed=9&verify=est",
            "sharded?theta=0.6&lambda=0.1&shards=4&inner=str-l2",
            "sharded?theta=0.6&lambda=0.1&shards=2&inner=mb-l2ap",
            "sharded?theta=0.6&shards=2&inner=decay&model=window:10",
            "sharded?theta=0.6&shards=2&inner=decay&model=linear:20&bounds=l2",
            "sharded?theta=0.6&lambda=0.1&shards=2&inner=lsh&bits=256&bands=32&verify=exact",
            "str-l2?theta=0.7&lambda=0.01&reorder=5",
            "str-l2?theta=0.7&lambda=0.01&checked&reorder=2",
            "str-l2?theta=0.7&lambda=0.01&graph",
            "str-l2?theta=0.7&lambda=0.01&graph&reorder=5",
            "sharded?theta=0.6&lambda=0.1&shards=2&inner=mb-l2ap&graph",
            "str-l2?theta=0.7&lambda=0.01&durable=/var/sssj&graph",
        ] {
            let spec = parse(s);
            assert_eq!(spec.to_string(), s, "not canonical: {s}");
            assert_eq!(parse(&spec.to_string()), spec);
        }
    }

    #[test]
    fn legacy_sharded_head_index_is_shorthand_for_inner_str() {
        let legacy = parse("sharded-inv?theta=0.6&lambda=0.1&shards=4");
        assert_eq!(
            legacy,
            parse("sharded?theta=0.6&lambda=0.1&shards=4&inner=str-inv")
        );
        assert_eq!(
            legacy.to_string(),
            "sharded?theta=0.6&lambda=0.1&shards=4&inner=str-inv"
        );
        // Bare sharded defaults to STR-L2 workers.
        let spec = parse("sharded?shards=2");
        assert_eq!(
            spec.engine,
            EngineSpec::Sharded {
                shards: 2,
                inner: ShardedInner::Streaming
            }
        );
        assert_eq!(spec.index, IndexKind::L2);
    }

    #[test]
    fn bounds_key_drives_the_window_max_ablation() {
        let spec = parse("decay?theta=0.6&model=window:10&bounds=l2");
        assert_eq!(
            spec.engine,
            EngineSpec::GenericDecay(DecaySpec {
                model: DecayModel::sliding_window(10.0),
                window_max: false
            })
        );
        // Explicit wmax parses to the default and canonicalises away.
        let spec = parse("decay?theta=0.6&model=window:10&bounds=wmax");
        assert_eq!(spec.to_string(), "decay?theta=0.6&model=window:10");
        spec.build().unwrap();
    }

    #[test]
    fn defaults_and_tau_are_accepted() {
        let spec = parse("str-l2");
        assert_eq!(spec.theta, DEFAULT_THETA);
        assert_eq!(spec.lambda, DEFAULT_LAMBDA);
        let spec = parse("str");
        assert_eq!(spec.index, IndexKind::L2);
        let spec = parse("str-l2?theta=0.5&tau=100");
        assert!((spec.config().tau() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn core_engines_build_and_name() {
        for (s, name) in [
            ("str-l2?theta=0.7&lambda=0.1", "STR-L2"),
            ("str-inv?theta=0.7&lambda=0.1", "STR-INV"),
            ("mb-l2?theta=0.7&lambda=0.1", "MB-L2"),
            ("decay?theta=0.7&model=window:10", "STR-L2[window:10]"),
            ("topk-l2?theta=0.5&lambda=0.1&k=3", "STR-L2-top3"),
            ("str-l2?theta=0.7&lambda=0.1&reorder=5", "Reorder(STR-L2)"),
            ("str-l2?theta=0.7&lambda=0.1&checked", "checked(STR-L2)"),
            (
                "str-l2?theta=0.7&lambda=0.1&checked&reorder=5",
                "Reorder(checked(STR-L2))",
            ),
        ] {
            let join = parse(s).build().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(join.name(), name, "{s}");
        }
    }

    #[test]
    fn graph_wrapper_rules() {
        // At most one graph; with durable it must sit directly above.
        assert!("str-l2?graph".parse::<JoinSpec>().is_ok());
        assert!("str-l2?durable=/tmp/g&graph".parse::<JoinSpec>().is_ok());
        assert!("mb-l2?graph&checked".parse::<JoinSpec>().is_ok());
        let spec: JoinSpec = "str-l2?theta=0.7&lambda=0.01&graph".parse().unwrap();
        assert!((spec.horizon() - (1.0f64 / 0.7).ln() / 0.01).abs() < 1e-9);
        // Unregistered in sssj-core: the graph crate lives downstream.
        for s in ["str-l2?graph", "str-l2?graph&reorder=2"] {
            match s.parse::<JoinSpec>().unwrap().build() {
                Err(SpecError::EngineUnavailable("graph")) => {}
                Err(e) => panic!("{s}: expected graph-unavailable, got {e:?}"),
                Ok(_) => panic!("{s}: built without registration"),
            }
        }
    }

    #[test]
    fn unregistered_extensions_report_unavailable() {
        // This unit test runs inside sssj-core, where the lsh/parallel
        // constructors cannot exist; the error must say so. (Downstream
        // crates register and cover the success path.)
        for s in [
            "lsh?theta=0.7&lambda=0.1",
            "sharded-l2?theta=0.7&lambda=0.1&shards=2",
        ] {
            match parse(s).build() {
                Err(SpecError::EngineUnavailable(_)) => {}
                Err(e) => panic!("{s}: expected EngineUnavailable, got {e:?}"),
                Ok(_) => panic!("{s}: built without registration"),
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in [
            "",
            "quantum",
            "str-quantum",
            "str-l2?theta",
            "str-l2?theta=x",
            "str-l2?theta=0.7&flux=1",
            "str-l2?lambda=1&tau=5",
            "str-l2?checked=1",
            "decay-l2?model=window:10",
            "decay?theta=0.5",
            "decay?model=window:10&lambda=0.1",
            "topk-l2?theta=0.5",
            "topk-l2?k=0",
            "sharded-l2?shards=0",
            "sharded-l2",
            "sharded?shards=65&inner=str-l2",
            "sharded?shards=2&inner=topk",
            "sharded?shards=2&inner=sharded",
            "sharded?shards=2&inner=quantum",
            "sharded?shards=2&inner=decay",
            "sharded?shards=2&inner=decay-l2&model=window:5",
            "sharded?shards=2&inner=lsh-l2",
            "sharded-l2?shards=2&inner=str-inv",
            "sharded?shards=2&inner=str&model=window:5",
            "sharded?shards=2&inner=str&bounds=l2",
            "str?inner=str",
            "str?bounds=l2",
            "decay?model=window:10&bounds=bogus",
            "lsh?bits=100",
            "lsh?bits=256&bands=7",
            "lsh?verify=maybe",
            "lsh-l2",
            "mb?k=2",
            "str?shards=2",
            "str?theta=1.5",
            "str?lambda=-1",
            "str?reorder=-2",
            "str?tau=0",
            "str?graph=1",
            "str?graph&graph",
            "str?durable=/tmp/x&reorder=1&graph",
        ] {
            assert!(s.parse::<JoinSpec>().is_err(), "accepted {s:?}");
        }
        // A removed wrapper keyword is just another unknown key.
        assert_eq!(
            "str-l2?snapshot".parse::<JoinSpec>(),
            Err(SpecError::Parse("unknown key \"snapshot\"".into()))
        );
    }

    #[test]
    fn validate_enforces_wrapper_rules() {
        // checked on variants that drop pairs by design.
        assert!("topk-l2?k=1&checked".parse::<JoinSpec>().is_err());
        assert!("lsh?checked".parse::<JoinSpec>().is_err());
        assert!("decay?model=window:5&checked".parse::<JoinSpec>().is_err());
        // ... including behind a sharded driver; exact inners stay fine.
        assert!("sharded?shards=2&inner=lsh&checked"
            .parse::<JoinSpec>()
            .is_err());
        assert!("sharded?shards=2&inner=decay&model=window:5&checked"
            .parse::<JoinSpec>()
            .is_err());
        assert!("sharded?shards=2&inner=mb-l2&checked"
            .parse::<JoinSpec>()
            .is_ok());
        // infinite-horizon decay.
        assert!("decay?model=exp:0".parse::<JoinSpec>().is_err());
        assert!("lsh?lambda=0".parse::<JoinSpec>().is_err());
    }

    #[test]
    fn wrapper_order_is_preserved() {
        let spec = parse("str-l2?checked&reorder=3");
        assert_eq!(
            spec.wrappers,
            vec![WrapperSpec::Checked, WrapperSpec::Reorder(3.0)]
        );
        let (inner, slack) = spec.split_outer_reorder();
        assert_eq!(slack, Some(3.0));
        assert_eq!(inner.wrappers, vec![WrapperSpec::Checked]);
        // No outer reorder: untouched.
        let spec = parse("str-l2?reorder=3&checked");
        let (inner, slack) = spec.split_outer_reorder();
        assert_eq!(slack, None);
        assert_eq!(inner.wrappers.len(), 2);
    }

    #[test]
    fn json_roundtrips_every_engine() {
        for s in [
            "str-l2?theta=0.7&lambda=0.01",
            "mb-inv?theta=0.5&lambda=0.1",
            "decay?theta=0.7&model=linear:8",
            "topk-l2ap?theta=0.5&lambda=0.01&k=7",
            "lsh?theta=0.7&lambda=0.01&bits=128&bands=16&seed=5&verify=est",
            "sharded-inv?theta=0.6&lambda=0.1&shards=3",
            "sharded?theta=0.6&lambda=0.1&shards=2&inner=mb-l2ap",
            "sharded?theta=0.6&shards=2&inner=decay&model=poly:2:5&bounds=l2",
            "sharded?theta=0.6&lambda=0.1&shards=2&inner=lsh&bits=128&bands=16&verify=est",
            "str-l2?theta=0.7&lambda=0.01&checked&reorder=2.5",
            "str-l2?theta=0.7&lambda=0.01&graph&reorder=2",
            "mb-l2?theta=0.7&lambda=0.01&durable=/var/sssj&graph",
        ] {
            let spec = parse(s);
            let json = spec.to_json();
            let back = JoinSpec::from_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
            assert_eq!(back, spec, "{json}");
        }
    }

    #[test]
    fn json_accepts_whitespace_and_rejects_unknown_keys() {
        let spec = JoinSpec::from_json(
            " { \"engine\" : \"str\" , \"index\" : \"inv\", \"theta\" : 0.5 , \
             \"wrappers\" : [ [\"reorder\", 5 ] ] } ",
        )
        .unwrap();
        assert_eq!(spec.index, IndexKind::Inv);
        assert_eq!(spec.wrappers, vec![WrapperSpec::Reorder(5.0)]);
        assert!(JoinSpec::from_json("{\"engine\":\"str\",\"volume\":11}").is_err());
        assert!(JoinSpec::from_json("{\"engine\":\"str\",\"wrappers\":[[\"snapshot\"]]}").is_err());
        assert!(JoinSpec::from_json("{\"theta\":0.5}").is_err());
        assert!(JoinSpec::from_json("not json").is_err());
        assert!(JoinSpec::from_json("{\"engine\":\"str\"} extra").is_err());
    }

    #[test]
    fn classic_covers_the_papers_grid() {
        for framework in Framework::ALL {
            for kind in IndexKind::ALL {
                let spec = JoinSpec::classic(framework, kind, SssjConfig::new(0.7, 0.1));
                let join = spec.build().unwrap();
                assert!(join.name().starts_with(&framework.to_string()));
                let reparsed: JoinSpec = spec.to_string().parse().unwrap();
                assert_eq!(reparsed, spec);
            }
        }
    }
}
