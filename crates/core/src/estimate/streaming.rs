//! The streaming matcher: Algorithm 3 fused with Algorithm 2.
//!
//! [`crate::estimate::matcher::Matcher`] materializes the whole expanded
//! path tree (EPT) into an arena and then tree-walks it with per-node state
//! vectors. This module runs the same match **directly on the traveler's
//! event stream** over a [`FrozenKernel`] snapshot: frontier states advance
//! on `Open`, unwind on `Close`, and `estimate()` never allocates an EPT
//! arena at all.
//!
//! ## The event-stream matching loop
//!
//! The traversal is the traveler's depth-first walk (same child order, same
//! effective-`card_threshold` / Observation-1 stopping rules — including
//! the [`max_ept_nodes`](XseedConfig::max_ept_nodes) threshold escalation —
//! same per-path HET overrides), inlined over the frozen CSR arrays. Each open
//! frame carries the footprint of its synopsis path (card / fsel / bsel /
//! recursion level / path hash) plus the frontier states its children
//! inherit — exactly the `(spine index, accumulated predicate factor)`
//! pairs the materialized matcher clones per child, but stored once in a
//! stack-disciplined scratch buffer and freed by truncation on `Close`.
//!
//! Two ideas make a *single pass* sufficient where the materialized matcher
//! looks ahead into the arena:
//!
//! * **Deferred predicate cells.** A predicate factor anchored at node `n`
//!   depends on `n`'s subtree, which the stream has not produced yet when
//!   `n` opens. Each such factor becomes a *cell* — a slot resolved when
//!   `n` closes — and candidate values carry `(known factor, cell list)`
//!   pairs instead of plain numbers. Because a candidate created inside
//!   `n`'s subtree can only be *used* (summed into the total) after the
//!   whole stream ends, every cell is resolved before it is read. Taking
//!   the maximum over candidates at the very end is exact: all later
//!   operations multiply by non-negative factors, and `max` distributes
//!   over those.
//! * **Bottom-up embedding tables.** While a predicate evaluation is
//!   pending, every frame maintains, per compiled predicate node `q`, the
//!   best child-axis embedding `gc[q]` and best descendant-axis embedding
//!   `gd[q]` seen among its closed children. Folding a closing child `c`
//!   into its parent (`gc[q] ← max(gc[q], f(q, c))` on a label match,
//!   `gd[q] ← max(gd[q], bsel(c)·gd_c[q])` always) reproduces the
//!   materialized matcher's recursive best-embedding search without ever
//!   revisiting a node. The tables are only maintained while an anchor is
//!   pending, so predicate-free (or fully HET-covered) queries pay nothing.
//!
//! ## Pruning with reachable-label bitsets
//!
//! Before opening a child vertex `v`, the matcher checks whether any
//! frontier state could still complete inside `v`'s subtree: state `i`
//! needs every named label of spine steps `i..` to occur at or below `v`
//! ([`FrozenKernel::reaches_all`]). If no state passes — and no predicate
//! evaluation is pending, which would need the full subtree — the subtree
//! is skipped wholesale. Skipping never changes the estimate (the skipped
//! region cannot produce a result match), but it does mean the node count
//! reported in [`Outcome::visited`] is the number of nodes *visited*, a
//! lower bound on the materialized EPT size. The expansion being pruned is always the full one under the snapshot's
//! effective cardinality threshold — never a walk cut short mid-stride —
//! so the streaming, memoized, and materialized paths share one frontier
//! on every synopsis, degenerate ones included.
//!
//! The snapshot is valid until the kernel is mutated; see
//! [`crate::synopsis::XseedSynopsis::kernel_mut`] for the invalidation
//! contract.

use crate::config::{escalate_card_threshold, XseedConfig};
use crate::het::hash::{correlated_key, inc_hash, PATH_HASH_SEED};
use crate::het::table::HyperEdgeTable;
use crate::kernel::{FrozenKernel, VertexId};
use crate::lru::ShardedLru;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmlkit::names::{LabelId, NameTable};
use xpathkit::ast::{Axis, NodeTest, PathExpr};
use xpathkit::query_tree::{QtnId, QueryTree};

/// A resolved node test: wildcard, a concrete label, or a name absent from
/// the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Test {
    Any,
    Label(LabelId),
    Never,
}

impl Test {
    #[inline]
    fn matches(self, label: LabelId) -> bool {
        match self {
            Test::Any => true,
            Test::Label(l) => l == label,
            Test::Never => false,
        }
    }
}

/// One compiled predicate node (flattened across the whole query).
#[derive(Debug)]
struct PredNode {
    test: Test,
    axis: Axis,
    /// Indices of child predicate nodes.
    children: Vec<u32>,
    /// The label when this predicate is a single child-axis name step (the
    /// shape the HET stores).
    single_label: Option<LabelId>,
}

/// One compiled spine step.
#[derive(Debug)]
struct SpineStep {
    test: Test,
    axis: Axis,
    /// Compiled predicate roots hanging off this step.
    pred_roots: Vec<u32>,
    /// All predicate labels when every predicate is a single child-axis
    /// name step (enables the whole-step correlated HET lookup).
    all_simple: Option<Vec<LabelId>>,
    /// Label of the child-axis name-test spine successor, if any (the `r`
    /// of the HET's `p[q1]...[qm]/r` shape).
    sibling: Option<LabelId>,
}

/// A query compiled (label-resolved) against one snapshot's label space:
/// the spine steps and flattened predicate nodes with their node tests
/// resolved to [`LabelId`]s, dead-suffix flags, and the per-step
/// required-label bitsets driving reachability pruning.
///
/// A compiled query is only meaningful for the `(FrozenKernel, NameTable)`
/// pair it was compiled against — label ids and bitset widths are
/// snapshot-specific — which is why the caching layer
/// ([`CompiledPlanCache`]) lives *inside* each
/// [`crate::synopsis::SynopsisSnapshot`]: an epoch bump publishes a fresh
/// snapshot with a fresh (empty) cache, so invalidation needs no extra
/// machinery. The struct is opaque; obtain one through
/// [`StreamingMatcher::estimate`] or the cache.
#[derive(Debug)]
pub struct CompiledQuery {
    spine: Vec<SpineStep>,
    preds: Vec<PredNode>,
    /// `dead[i]`: no state at spine index `i` can ever reach the result
    /// (some later step names an absent label, or carries a predicate that
    /// does).
    dead: Vec<bool>,
    /// Per spine index, a `label_words`-sized bitset of the labels required
    /// by steps `i..` (named spine tests only).
    req_masks: Vec<u64>,
    label_words: usize,
}

impl CompiledQuery {
    fn req_mask(&self, idx: usize) -> &[u64] {
        &self.req_masks[idx * self.label_words..(idx + 1) * self.label_words]
    }
}

/// How [`StreamingMatcher::estimate`] aggregates its traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// The point estimate: Algorithm 3's average-fanout product.
    #[default]
    Point,
    /// The point estimate plus a guaranteed upper bound on the true
    /// cardinality (see [`Outcome::bound`]).
    Bound,
}

/// What one [`StreamingMatcher::estimate`] call produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// The point estimate.
    pub estimate: f64,
    /// In [`Mode::Bound`], a sound upper bound on the true result
    /// cardinality, never below `estimate`: max-out-degree frontier
    /// propagation over the synopsis graph — worst-case fan-out instead
    /// of average fan-out, exact per-label node totals as clamps,
    /// predicates ignored (they only filter), and the point path's
    /// cardinality-threshold pruning (including its `max_ept_nodes`
    /// escalation) deliberately *not* applied, since pruning drops mass.
    /// HET entries clamp the bound downwards only — their simple-path
    /// cardinalities are exact counts — and never inflate it. `None` in
    /// [`Mode::Point`].
    pub bound: Option<f64>,
    /// Expanded-path-tree nodes the traversal visited: a lower bound on
    /// the materialized EPT size, thanks to reachability pruning, and 0
    /// when the HET or an empty kernel answered without a traversal.
    pub visited: usize,
    /// How long label resolution took, `Some` only when this call
    /// compiled the query (a compiled-cache miss, or any expression-keyed
    /// call).
    pub compile_time: Option<Duration>,
}

/// The rooted-label-path identity of a bound-propagation frontier entry:
/// `Known(h)` when every document node the entry over-counts shares the
/// rooted label path hashing to `h` (a chain of child steps from the
/// root), `Ambiguous` otherwise. Only `Known` entries may be clamped by
/// HET simple-path cardinalities — those are exact per-path counts, so the
/// clamp can never cut below the truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathTag {
    Known(u64),
    Ambiguous,
}

/// One candidate value of a frontier state: a known factor times a product
/// of not-yet-resolved predicate cells.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    value: f64,
    cells_start: u32,
    cells_len: u32,
}

/// One frontier state: a spine index plus its candidate values.
#[derive(Debug, Clone, Copy)]
struct State {
    idx: u32,
    cand_start: u32,
    cand_len: u32,
}

/// A pending predicate evaluation: cell `cell` resolves to the best
/// embedding of predicate root `pred` under the anchoring frame.
#[derive(Debug, Clone, Copy)]
struct Anchor {
    pred: u32,
    cell: u32,
}

/// A deferred contribution: `card` times the best resolved candidate.
#[derive(Debug, Clone, Copy)]
struct Contrib {
    card: f64,
    cand_start: u32,
    cand_len: u32,
}

/// One open vertex of the streamed traversal.
#[derive(Debug, Clone, Copy)]
struct Frame {
    vertex: VertexId,
    fsel: f64,
    bsel: f64,
    path_hash: u64,
    /// Next child cursor of `vertex`: a frozen out-slot in streaming mode,
    /// a memo index during replay.
    next_slot: u32,
    end_slot: u32,
    /// Frontier states this frame's children inherit.
    states_start: u32,
    states_end: u32,
    /// Truncation marks into the candidate / cell-ref stacks.
    cands_mark: u32,
    cell_refs_mark: u32,
    /// Start of this frame's `gc`/`gd` tables in the table stack
    /// (`u32::MAX` when tables are inactive here).
    pred_start: u32,
    /// Cells anchored at this frame, resolved at its close.
    anchors_start: u32,
    tables_active: bool,
}

/// The candidate footprint of a child vertex, mirroring the traveler's
/// `EST` computation.
struct Footprint {
    vertex: VertexId,
    card: f64,
    fsel: f64,
    bsel: f64,
    path_hash: u64,
}

/// One memoized traversal position: the frontier the traveler computed for
/// a `(vertex, recursion level)` pair along one expansion path, stored in
/// pre-order with the subtree extent so pruned replays can skip it in O(1).
#[derive(Debug, Clone, Copy)]
struct MemoNode {
    vertex: VertexId,
    card: f64,
    fsel: f64,
    bsel: f64,
    path_hash: u64,
    /// One past the last memo index of this node's subtree (pre-order).
    subtree_end: u32,
}

impl MemoNode {
    #[inline]
    fn footprint(&self) -> Footprint {
        Footprint {
            vertex: self.vertex,
            card: self.card,
            fsel: self.fsel,
            bsel: self.bsel,
            path_hash: self.path_hash,
        }
    }
}

/// A per-batch memo of the traveler's full expansion: every
/// `(vertex, recursion level)` position the traversal reaches, with its
/// computed frontier footprint (card / fsel / bsel / path hash), laid out
/// in pre-order with subtree extents.
///
/// The expansion is *query-independent* (which children open depends only
/// on the synopsis, the config thresholds, and the HET overrides), so one
/// memo serves every query estimated against the same snapshot: replaying
/// a query over the memo skips the recursion-level counter stacks, the
/// per-slot footprint arithmetic, and the HET path-hash probes that the
/// cold streaming pass pays per node. Reachability pruning still applies
/// during replay — a subtree that cannot complete any frontier state is
/// skipped via its stored extent.
///
/// The memo is valid for exactly one frozen snapshot + config + HET
/// combination; take a fresh one (or a fresh [`StreamingMatcher`]) after
/// the kernel epoch changes. The recorded expansion is the full one under
/// the snapshot's effective cardinality threshold (escalated as needed to
/// fit [`XseedConfig::max_ept_nodes`]), so it is exactly the frontier the
/// cold streaming pass and the materialized oracle walk.
#[derive(Debug, Clone)]
pub struct FrontierMemo {
    nodes: Vec<MemoNode>,
    /// Vertex and slot counts of the snapshot the memo was built from,
    /// used to catch cross-snapshot reuse in debug builds.
    vertex_count: usize,
    slot_count: usize,
}

impl FrontierMemo {
    /// Builds the memo for a snapshot by running the traveler's expansion
    /// once (no query matching).
    pub fn build(
        frozen: &FrozenKernel,
        config: &XseedConfig,
        het: Option<&HyperEdgeTable>,
    ) -> Self {
        // The expansion never consults the name table, so an empty one is
        // sufficient for the throwaway matcher driving the build.
        let names = NameTable::new();
        let mut matcher = StreamingMatcher::new(frozen, &names, config, het);
        matcher.build_memo_nodes()
    }

    /// Number of memoized traversal positions (the materialized EPT size).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the snapshot has no root to expand.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The kernel's estimate of **every** rooted simple path, computed in
    /// one pass over the recorded expansion: a simple-path query `/l1/…/ln`
    /// is estimated by the matcher as the sum of `card` over the expansion
    /// positions whose rooted label path equals the query (each position
    /// contributes `card × 1` — no predicates, no descendant states — and
    /// positions are visited in the same pre-order), so accumulating `card`
    /// per path hash replays the frontier once for *all* candidates instead
    /// of once per candidate. This is what lets the HET builder
    /// ([`crate::het::builder::HetBuilder`]) pay O(expansion) for its
    /// simple-path error ranking instead of O(paths × expansion).
    ///
    /// Keys are [`crate::het::hash::path_hash`] values — the same keys the
    /// HET stores — and a path absent from the map has estimate 0.
    pub fn simple_path_estimates(&self) -> HashMap<u64, f64> {
        let mut totals: HashMap<u64, f64> = HashMap::with_capacity(self.nodes.len());
        for node in &self.nodes {
            *totals.entry(node.path_hash).or_insert(0.0) += node.card;
        }
        totals
    }
}

/// Counters and occupancy of a [`CompiledPlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompiledCacheStats {
    /// Lookups answered with an already-compiled query.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Compiled queries currently resident.
    pub entries: usize,
}

/// A per-snapshot cache of label-resolved [`CompiledQuery`]s, keyed by
/// [`xpathkit::QueryPlan::id`] — plan-cache hits skip recompilation entirely.
///
/// A thin wrapper over [`ShardedLru`] (sharded by plan id, exact LRU
/// eviction in `O(1)`) with hit/miss counters, like the service-layer plan
/// cache: concurrent workers estimating different plans rarely touch the
/// same lock, and compilation always happens *outside* any lock (two
/// racing compiles of one plan produce identical artifacts; the first
/// insert wins and the loser's is dropped).
///
/// A compiled query is only valid for the snapshot whose label space it
/// was resolved against, so the cache is owned by the snapshot bundle
/// ([`crate::synopsis::SynopsisSnapshot`]): a kernel/config/HET mutation
/// bumps the epoch, publishes a fresh snapshot, and thereby starts from an
/// empty cache — invalidation falls out of the existing epoch machinery.
pub struct CompiledPlanCache {
    lru: ShardedLru<u64, Arc<CompiledQuery>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for CompiledPlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("CompiledPlanCache")
            .field("shards", &self.lru.shard_count())
            .field("shard_capacity", &self.lru.shard_capacity())
            .field("stats", &stats)
            .finish()
    }
}

impl CompiledPlanCache {
    /// Creates a cache of `shards` independent shards holding about
    /// `capacity` compiled queries in total. Both values are clamped to at
    /// least 1.
    pub fn new(shards: usize, capacity: usize) -> Self {
        CompiledPlanCache {
            lru: ShardedLru::new(shards, capacity),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the compiled form of the plan with identity `plan_id`,
    /// running `compile` (outside any lock) and caching the result on a
    /// miss.
    pub fn get_or_compile(
        &self,
        plan_id: u64,
        compile: impl FnOnce() -> CompiledQuery,
    ) -> Arc<CompiledQuery> {
        if let Some(compiled) = self.lru.get(plan_id, &plan_id) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return compiled;
        }
        let compiled = Arc::new(compile());
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.lru.insert(plan_id, plan_id, compiled.clone());
        compiled
    }

    /// Current hit/miss counters and occupancy.
    pub fn stats(&self) -> CompiledCacheStats {
        CompiledCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.lru.len(),
        }
    }
}

const NO_TABLES: u32 = u32::MAX;

/// Streams the expanded path tree over a [`FrozenKernel`] and matches a
/// query against it in the same pass. Reusable across queries: the scratch
/// buffers grow to the high-water mark of the frontier and stay allocated.
pub struct StreamingMatcher<'a> {
    frozen: &'a FrozenKernel,
    names: &'a NameTable,
    config: &'a XseedConfig,
    het: Option<&'a HyperEdgeTable>,
    // Scratch, stack-disciplined (truncated on frame close).
    frames: Vec<Frame>,
    states: Vec<State>,
    cands: Vec<Candidate>,
    cell_refs: Vec<u32>,
    tables: Vec<f64>,
    anchors: Vec<Anchor>,
    // Scratch, per query (cleared on entry).
    cells: Vec<f64>,
    contribs: Vec<Contrib>,
    contrib_cands: Vec<Candidate>,
    contrib_cells: Vec<u32>,
    // Scratch, per open (cleared per node).
    produced: Vec<(u32, f64, u32, u32)>,
    produced_cells: Vec<u32>,
    node_cells: Vec<(u32, u32)>,
    // Recursion tracking (Figure 3 semantics over flat arrays).
    rec_counts: Vec<u32>,
    rec_occ: Vec<u32>,
    rec_max: usize,
    opens: usize,
    /// Cached effective cardinality threshold of the snapshot (the
    /// configured `card_threshold`, escalated until the full expansion
    /// fits `max_ept_nodes`). Computed lazily on the first cold traversal
    /// or injected via
    /// [`StreamingMatcher::set_effective_card_threshold`]; never cleared —
    /// the snapshot is immutable for the matcher's lifetime.
    eff_threshold: Option<f64>,
    /// When set, estimates replay the memoized expansion instead of
    /// re-deriving footprints per node (see [`FrontierMemo`]).
    memo: Option<Arc<FrontierMemo>>,
    /// When set, plan-keyed [`StreamingMatcher::estimate`] calls reuse
    /// compiled queries across estimates (see [`CompiledPlanCache`]).
    compiled_cache: Option<Arc<CompiledPlanCache>>,
}

impl<'a> StreamingMatcher<'a> {
    /// Creates a matcher over a frozen snapshot. `names` must be the name
    /// table of the kernel the snapshot was taken from.
    pub fn new(
        frozen: &'a FrozenKernel,
        names: &'a NameTable,
        config: &'a XseedConfig,
        het: Option<&'a HyperEdgeTable>,
    ) -> Self {
        StreamingMatcher {
            frozen,
            names,
            config,
            het,
            frames: Vec::new(),
            states: Vec::new(),
            cands: Vec::new(),
            cell_refs: Vec::new(),
            tables: Vec::new(),
            anchors: Vec::new(),
            cells: Vec::new(),
            contribs: Vec::new(),
            contrib_cands: Vec::new(),
            contrib_cells: Vec::new(),
            produced: Vec::new(),
            produced_cells: Vec::new(),
            node_cells: Vec::new(),
            rec_counts: vec![0; frozen.vertex_count()],
            rec_occ: Vec::new(),
            rec_max: 0,
            opens: 0,
            eff_threshold: None,
            memo: None,
            compiled_cache: None,
        }
    }

    /// Installs a pre-built (possibly shared) frontier memo.
    ///
    /// The memo must have been built from the same frozen snapshot,
    /// config, and HET this matcher was created over; estimates are
    /// undefined otherwise. That compatibility is the **caller's
    /// contract** — only the snapshot's vertex and slot counts are
    /// sanity-checked (in debug builds), which cannot catch e.g. a config
    /// or HET that differs over an identically shaped graph. Obtaining
    /// matchers through [`crate::synopsis::SynopsisSnapshot::matcher_for_batch`]
    /// upholds the contract by construction (one bundle owns both).
    pub(crate) fn set_frontier_memo(&mut self, memo: Arc<FrontierMemo>) {
        debug_assert_eq!(memo.vertex_count, self.frozen.vertex_count());
        debug_assert_eq!(memo.slot_count, self.frozen.slot_count());
        self.memo = Some(memo);
    }

    /// Installs a shared per-snapshot compiled-query cache consulted by
    /// plan-keyed [`StreamingMatcher::estimate`] calls. The cache must hold queries
    /// compiled against the same snapshot (frozen kernel + name table)
    /// this matcher was created over — the same caller's contract as
    /// [`StreamingMatcher::set_frontier_memo`], upheld by construction
    /// when matchers come from
    /// [`crate::synopsis::SynopsisSnapshot::matcher`].
    pub(crate) fn set_compiled_cache(&mut self, cache: Arc<CompiledPlanCache>) {
        self.compiled_cache = Some(cache);
    }

    /// Estimates the cardinality of a path expression — the one entry
    /// point of the streaming estimator.
    ///
    /// `plan` is the [`xpathkit::QueryPlan::id`] the expression came
    /// from, if any. A plan-keyed call compiles through the installed
    /// [`CompiledPlanCache`] with exactly one lookup (none when the HET or
    /// an empty kernel answers a [`Mode::Point`] query outright). An
    /// expression-keyed call (`None`), or any call without a cache,
    /// compiles afresh and never touches the cache. `mode` picks the
    /// aggregation; both modes share the compiled query.
    pub fn estimate(&mut self, expr: &PathExpr, plan: Option<u64>, mode: Mode) -> Outcome {
        let answered = self.answer_without_traversal(expr);
        if let (Mode::Point, Some((estimate, visited))) = (mode, answered) {
            return Outcome {
                estimate,
                bound: None,
                visited,
                compile_time: None,
            };
        }
        let mut compile_time = None;
        let mut compile = || {
            let started = Instant::now();
            let query = self.compile(expr);
            compile_time = Some(started.elapsed());
            query
        };
        let (cached, owned);
        let query: &CompiledQuery = match (plan, &self.compiled_cache) {
            (Some(id), Some(cache)) => {
                cached = cache.get_or_compile(id, compile);
                &cached
            }
            _ => {
                owned = compile();
                &owned
            }
        };
        let (estimate, visited) = match answered {
            Some(answer) => answer,
            None => self.run_compiled(query),
        };
        let bound = match mode {
            Mode::Point => None,
            Mode::Bound => Some((self.compute_bound(query) as f64).max(estimate)),
        };
        Outcome {
            estimate,
            bound,
            visited,
            compile_time,
        }
    }

    /// The answers [`StreamingMatcher::estimate`] gives without a
    /// traversal: the Section 5 HET fast path (a simple path resident in the
    /// table is answered exactly, identical to `Matcher::estimate`) and
    /// the empty-kernel case.
    fn answer_without_traversal(&self, expr: &PathExpr) -> Option<(f64, usize)> {
        if let Some(het) = self.het {
            if let Some(actual) = het.answer_simple_path(self.names, expr) {
                return Some((actual, 0));
            }
        }
        if self.frozen.root().is_none() {
            return Some((0.0, 0));
        }
        None
    }

    /// Runs the streamed (or memo-replayed) match of an already-compiled
    /// query and sums the contributions.
    fn run_compiled(&mut self, query: &CompiledQuery) -> (f64, usize) {
        let Some(root) = self.frozen.root() else {
            return (0.0, 0);
        };
        // The cold pass needs the snapshot's effective threshold; resolve
        // it before `reset()` because the counting passes dirty the
        // recursion tracker. Memo replay bakes the thresholded frontier
        // into the memo nodes and never re-derives footprints.
        let threshold = if self.memo.is_none() {
            self.effective_card_threshold()
        } else {
            0.0
        };
        self.reset();

        // Seed the root's incoming frontier: spine index 0, factor 1.
        let incoming_start = self.states.len() as u32;
        if !query.dead[0] {
            let cand = self.cands.len() as u32;
            self.cands.push(Candidate {
                value: 1.0,
                cells_start: 0,
                cells_len: 0,
            });
            self.states.push(State {
                idx: 0,
                cand_start: cand,
                cand_len: 1,
            });
        }
        let incoming_end = self.states.len() as u32;

        if let Some(memo) = self.memo.clone() {
            self.run_replay(&memo, incoming_start, incoming_end, query);
        } else {
            self.run_stream(root, incoming_start, incoming_end, query, threshold);
        }

        let total = self.sum_contributions();
        (total, self.opens)
    }

    /// The cold traversal: streams the traveler's expansion and matches in
    /// the same pass (see the module docs).
    fn run_stream(
        &mut self,
        root: VertexId,
        incoming_start: u32,
        incoming_end: u32,
        query: &CompiledQuery,
        threshold: f64,
    ) {
        let root_fp = Footprint {
            vertex: root,
            card: 1.0,
            fsel: 1.0,
            bsel: 1.0,
            path_hash: inc_hash(PATH_HASH_SEED, self.frozen.label(root)),
        };
        self.rec_push(root);
        let slots = self.frozen.out_slots(root);
        self.open_frame(
            root_fp,
            incoming_start,
            incoming_end,
            query,
            slots.start as u32,
            slots.end as u32,
        );

        while let Some(frame) = self.frames.last().copied() {
            if frame.next_slot >= frame.end_slot {
                self.close_top(query);
                continue;
            }
            let slot = frame.next_slot as usize;
            let top = self.frames.len() - 1;
            self.frames[top].next_slot += 1;

            let child = self.frozen.slot_target(slot);
            let Some(fp) = self.child_footprint(
                frame.vertex,
                frame.fsel,
                frame.path_hash,
                slot,
                child,
                threshold,
            ) else {
                continue;
            };
            if !frame.tables_active && !self.any_state_viable(&frame, child, query) {
                continue;
            }
            self.rec_push(child);
            let slots = self.frozen.out_slots(fp.vertex);
            self.open_frame(
                fp,
                frame.states_start,
                frame.states_end,
                query,
                slots.start as u32,
                slots.end as u32,
            );
        }
    }

    /// The batched traversal: replays the memoized expansion, skipping
    /// footprint arithmetic and recursion tracking entirely. Frame slot
    /// cursors index memo nodes instead of frozen out-slots; advancing a
    /// cursor jumps over the child's whole pre-order extent, so pruning a
    /// subtree costs O(1).
    fn run_replay(
        &mut self,
        memo: &FrontierMemo,
        incoming_start: u32,
        incoming_end: u32,
        query: &CompiledQuery,
    ) {
        let nodes = &memo.nodes;
        let Some(root) = nodes.first() else {
            return;
        };
        self.open_frame(
            root.footprint(),
            incoming_start,
            incoming_end,
            query,
            1,
            root.subtree_end,
        );

        while let Some(frame) = self.frames.last().copied() {
            if frame.next_slot >= frame.end_slot {
                self.close_top(query);
                continue;
            }
            let m = frame.next_slot as usize;
            let node = nodes[m];
            let top = self.frames.len() - 1;
            self.frames[top].next_slot = node.subtree_end;
            if !frame.tables_active && !self.any_state_viable(&frame, node.vertex, query) {
                continue;
            }
            self.open_frame(
                node.footprint(),
                frame.states_start,
                frame.states_end,
                query,
                m as u32 + 1,
                node.subtree_end,
            );
        }
    }

    /// Runs the traveler's expansion once, recording every opened node in
    /// pre-order with its subtree extent — the build step of
    /// [`FrontierMemo`]. Uses (and then resets) this matcher's recursion
    /// tracker; no query matching happens here.
    fn build_memo_nodes(&mut self) -> FrontierMemo {
        // Resolve the effective threshold before touching the recursion
        // tracker — the counting passes dirty it.
        let threshold = self.effective_card_threshold();
        self.rec_counts.clear();
        self.rec_counts.resize(self.frozen.vertex_count(), 0);
        self.rec_occ.clear();
        self.rec_max = 0;

        struct BuildFrame {
            node: u32,
            vertex: VertexId,
            fsel: f64,
            path_hash: u64,
            next_slot: u32,
            end_slot: u32,
        }

        let mut nodes: Vec<MemoNode> = Vec::new();
        let mut stack: Vec<BuildFrame> = Vec::new();
        if let Some(root) = self.frozen.root() {
            let path_hash = inc_hash(PATH_HASH_SEED, self.frozen.label(root));
            self.rec_push(root);
            nodes.push(MemoNode {
                vertex: root,
                card: 1.0,
                fsel: 1.0,
                bsel: 1.0,
                path_hash,
                subtree_end: 0,
            });
            let slots = self.frozen.out_slots(root);
            stack.push(BuildFrame {
                node: 0,
                vertex: root,
                fsel: 1.0,
                path_hash,
                next_slot: slots.start as u32,
                end_slot: slots.end as u32,
            });

            while let Some(top) = stack.last_mut() {
                if top.next_slot >= top.end_slot {
                    let done = stack.pop().expect("non-empty stack");
                    self.rec_pop(done.vertex);
                    nodes[done.node as usize].subtree_end = nodes.len() as u32;
                    continue;
                }
                let slot = top.next_slot as usize;
                top.next_slot += 1;
                let (pv, pf, ph) = (top.vertex, top.fsel, top.path_hash);

                let child = self.frozen.slot_target(slot);
                let Some(fp) = self.child_footprint(pv, pf, ph, slot, child, threshold) else {
                    continue;
                };
                self.rec_push(child);
                let node = nodes.len() as u32;
                nodes.push(MemoNode {
                    vertex: fp.vertex,
                    card: fp.card,
                    fsel: fp.fsel,
                    bsel: fp.bsel,
                    path_hash: fp.path_hash,
                    subtree_end: 0,
                });
                let slots = self.frozen.out_slots(fp.vertex);
                stack.push(BuildFrame {
                    node,
                    vertex: fp.vertex,
                    fsel: fp.fsel,
                    path_hash: fp.path_hash,
                    next_slot: slots.start as u32,
                    end_slot: slots.end as u32,
                });
            }
        }

        FrontierMemo {
            nodes,
            vertex_count: self.frozen.vertex_count(),
            slot_count: self.frozen.slot_count(),
        }
    }

    // ------------------------------------------------------------------
    // Effective cardinality threshold (max_ept_nodes escalation)
    // ------------------------------------------------------------------

    /// The snapshot's effective cardinality threshold: the configured
    /// `card_threshold`, escalated (see
    /// [`escalate_card_threshold`](crate::config::escalate_card_threshold))
    /// until the full query-independent expansion fits within
    /// `max_ept_nodes` nodes. Cached after the first computation — the
    /// snapshot is immutable for the matcher's lifetime, so the answer
    /// never changes. Leaves the recursion tracker dirty; callers reset it
    /// before traversing.
    pub(crate) fn effective_card_threshold(&mut self) -> f64 {
        if let Some(t) = self.eff_threshold {
            return t;
        }
        let cap = self.config.max_ept_nodes.max(1);
        let mut threshold = self.config.card_threshold;
        while self.count_expansion(threshold, cap) > cap {
            threshold = escalate_card_threshold(threshold);
        }
        self.eff_threshold = Some(threshold);
        threshold
    }

    /// Injects a pre-computed effective threshold, letting snapshot owners
    /// ([`crate::synopsis::SynopsisSnapshot`]) pay the counting passes
    /// once per snapshot instead of once per matcher. The value must be
    /// what [`StreamingMatcher::effective_card_threshold`] would compute
    /// for the same frozen snapshot + config + HET — the same caller's
    /// contract as [`StreamingMatcher::set_frontier_memo`].
    pub(crate) fn set_effective_card_threshold(&mut self, threshold: f64) {
        self.eff_threshold = Some(threshold);
    }

    /// Counts the opens of the expansion under `threshold`, aborting as
    /// soon as the count exceeds `cap` — the escalation loop only needs
    /// fits / doesn't-fit, so each pass costs at most `cap + 1` opens
    /// (which also bounds the pass on expansions that would otherwise not
    /// terminate, e.g. a negative threshold keeping cardinality-0 cycles
    /// open forever). Dirties the recursion tracker.
    fn count_expansion(&mut self, threshold: f64, cap: usize) -> usize {
        let Some(root) = self.frozen.root() else {
            return 0;
        };
        self.rec_counts.clear();
        self.rec_counts.resize(self.frozen.vertex_count(), 0);
        self.rec_occ.clear();
        self.rec_max = 0;

        struct CountFrame {
            vertex: VertexId,
            fsel: f64,
            path_hash: u64,
            next_slot: u32,
            end_slot: u32,
        }

        let mut opens = 1usize;
        self.rec_push(root);
        let slots = self.frozen.out_slots(root);
        let mut stack = vec![CountFrame {
            vertex: root,
            fsel: 1.0,
            path_hash: inc_hash(PATH_HASH_SEED, self.frozen.label(root)),
            next_slot: slots.start as u32,
            end_slot: slots.end as u32,
        }];
        while let Some(top) = stack.last_mut() {
            if top.next_slot >= top.end_slot {
                let done = stack.pop().expect("non-empty stack");
                self.rec_pop(done.vertex);
                continue;
            }
            let slot = top.next_slot as usize;
            top.next_slot += 1;
            let (pv, pf, ph) = (top.vertex, top.fsel, top.path_hash);

            let child = self.frozen.slot_target(slot);
            let Some(fp) = self.child_footprint(pv, pf, ph, slot, child, threshold) else {
                continue;
            };
            opens += 1;
            if opens > cap {
                return opens;
            }
            self.rec_push(child);
            let slots = self.frozen.out_slots(fp.vertex);
            stack.push(CountFrame {
                vertex: fp.vertex,
                fsel: fp.fsel,
                path_hash: fp.path_hash,
                next_slot: slots.start as u32,
                end_slot: slots.end as u32,
            });
        }
        opens
    }

    // ------------------------------------------------------------------
    // Query compilation
    // ------------------------------------------------------------------

    fn resolve_test(&self, test: &NodeTest) -> Test {
        match test {
            NodeTest::Wildcard => Test::Any,
            NodeTest::Name(n) => match self.names.lookup(n) {
                Some(l) => Test::Label(l),
                None => Test::Never,
            },
        }
    }

    fn compile_pred(&self, qt: &QueryTree, id: QtnId, preds: &mut Vec<PredNode>) -> u32 {
        let node = qt.node(id);
        let test = self.resolve_test(&node.test);
        let my_idx = preds.len() as u32;
        preds.push(PredNode {
            test,
            axis: node.axis,
            children: Vec::new(),
            single_label: None,
        });
        let children: Vec<u32> = qt
            .children(id)
            .iter()
            .map(|&c| self.compile_pred(qt, c, preds))
            .collect();
        let single_label = if node.axis == Axis::Child && children.is_empty() {
            match test {
                Test::Label(l) => Some(l),
                _ => None,
            }
        } else {
            None
        };
        let slot = &mut preds[my_idx as usize];
        slot.children = children;
        slot.single_label = single_label;
        my_idx
    }

    fn pred_has_never(&self, preds: &[PredNode], root: u32) -> bool {
        let node = &preds[root as usize];
        node.test == Test::Never || node.children.iter().any(|&c| self.pred_has_never(preds, c))
    }

    fn compile(&self, expr: &PathExpr) -> CompiledQuery {
        let qt = QueryTree::from_expr(expr);
        let spine_ids = qt.spine();
        let mut preds: Vec<PredNode> = Vec::new();
        let mut spine: Vec<SpineStep> = Vec::with_capacity(spine_ids.len());

        for (i, &sid) in spine_ids.iter().enumerate() {
            let node = qt.node(sid);
            let pred_roots: Vec<u32> = qt
                .predicate_children(sid)
                .iter()
                .map(|&p| self.compile_pred(&qt, p, &mut preds))
                .collect();
            let all_simple = pred_roots
                .iter()
                .map(|&p| preds[p as usize].single_label)
                .collect::<Option<Vec<LabelId>>>()
                .filter(|labels| !labels.is_empty());
            let sibling = spine_ids.get(i + 1).and_then(|&next| {
                let n = qt.node(next);
                if n.axis != Axis::Child {
                    return None;
                }
                match &n.test {
                    NodeTest::Name(name) => self.names.lookup(name),
                    NodeTest::Wildcard => None,
                }
            });
            spine.push(SpineStep {
                test: self.resolve_test(&node.test),
                axis: node.axis,
                pred_roots,
                all_simple,
                sibling,
            });
        }

        // Dead suffixes: a state can only complete if every later spine
        // test (and every predicate tree along the way) can match at all.
        let mut dead = vec![false; spine.len()];
        let mut blocked = false;
        for i in (0..spine.len()).rev() {
            let step = &spine[i];
            if step.test == Test::Never
                || step
                    .pred_roots
                    .iter()
                    .any(|&p| self.pred_has_never(&preds, p))
            {
                blocked = true;
            }
            dead[i] = blocked;
        }

        // Required-label masks, as suffix unions of the named spine tests.
        let label_words = self.frozen.label_words();
        let mut req_masks = vec![0u64; spine.len() * label_words];
        let mut suffix = vec![0u64; label_words];
        for i in (0..spine.len()).rev() {
            if let Test::Label(l) = spine[i].test {
                suffix[l.index() / 64] |= 1u64 << (l.index() % 64);
            }
            req_masks[i * label_words..(i + 1) * label_words].copy_from_slice(&suffix);
        }

        CompiledQuery {
            spine,
            preds,
            dead,
            req_masks,
            label_words,
        }
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    fn reset(&mut self) {
        self.frames.clear();
        self.states.clear();
        self.cands.clear();
        self.cell_refs.clear();
        self.tables.clear();
        self.anchors.clear();
        self.cells.clear();
        self.contribs.clear();
        self.contrib_cands.clear();
        self.contrib_cells.clear();
        self.rec_counts.clear();
        self.rec_counts.resize(self.frozen.vertex_count(), 0);
        self.rec_occ.clear();
        self.rec_max = 0;
        self.opens = 0;
    }

    #[inline]
    fn rec_level(&self) -> usize {
        self.rec_max.saturating_sub(1)
    }

    #[inline]
    fn rec_peek_push(&self, v: VertexId) -> usize {
        let occurrence = self.rec_counts[v.index()] as usize + 1;
        occurrence.max(self.rec_max) - 1
    }

    fn rec_push(&mut self, v: VertexId) {
        let count = &mut self.rec_counts[v.index()];
        *count += 1;
        let c = *count as usize;
        if self.rec_occ.len() <= c {
            self.rec_occ.resize(c + 1, 0);
        }
        self.rec_occ[c] += 1;
        if c > self.rec_max {
            self.rec_max = c;
        }
    }

    fn rec_pop(&mut self, v: VertexId) {
        let count = &mut self.rec_counts[v.index()];
        let c = *count as usize;
        *count -= 1;
        self.rec_occ[c] -= 1;
        while self.rec_max > 0 && self.rec_occ[self.rec_max] == 0 {
            self.rec_max -= 1;
        }
    }

    /// The traveler's `EST`: footprint of the child reached through `slot`,
    /// or `None` when traversal stops there (threshold or Observation 1).
    fn child_footprint(
        &self,
        parent_vertex: VertexId,
        parent_fsel: f64,
        parent_path_hash: u64,
        slot: usize,
        child: VertexId,
        threshold: f64,
    ) -> Option<Footprint> {
        let old_level = self.rec_level();
        let new_level = self.rec_peek_push(child);
        let path_hash = inc_hash(parent_path_hash, self.frozen.label(child));

        let (mut card, mut bsel) = if new_level < self.frozen.slot_levels(slot) {
            let card = self.frozen.slot_child_count(slot, new_level) as f64 * parent_fsel;
            let parent_in_sum = self.frozen.in_child_sum(parent_vertex, old_level);
            let bsel = if parent_in_sum == 0 {
                0.0
            } else {
                self.frozen.slot_parent_count(slot, new_level) as f64 / parent_in_sum as f64
            };
            (card, bsel)
        } else {
            (0.0, 0.0)
        };

        if let Some(het) = self.het {
            if let Some((actual_card, actual_bsel)) = het.lookup_simple(path_hash) {
                card = actual_card as f64;
                bsel = actual_bsel;
            }
        }

        if card <= threshold {
            return None;
        }

        let v_in_sum = self.frozen.in_child_sum(child, new_level);
        let fsel = if v_in_sum == 0 {
            0.0
        } else {
            card / v_in_sum as f64
        };

        Some(Footprint {
            vertex: child,
            card,
            fsel,
            bsel,
            path_hash,
        })
    }

    /// Whether any inherited frontier state could still complete inside the
    /// subtree of `child` (reachability prune; see the module docs).
    fn any_state_viable(&self, parent: &Frame, child: VertexId, query: &CompiledQuery) -> bool {
        self.states[parent.states_start as usize..parent.states_end as usize]
            .iter()
            .any(|s| {
                self.frozen
                    .reaches_all(child, query.req_mask(s.idx as usize))
            })
    }

    /// Opens a frame for `fp`, processing the inherited frontier states
    /// exactly as the materialized matcher processes one EPT node.
    /// `children_start..children_end` is the frame's child cursor range —
    /// frozen out-slots in streaming mode, memo indices during replay.
    fn open_frame(
        &mut self,
        fp: Footprint,
        incoming_start: u32,
        incoming_end: u32,
        query: &CompiledQuery,
        children_start: u32,
        children_end: u32,
    ) {
        self.opens += 1;
        let label = self.frozen.label(fp.vertex);
        let states_start = self.states.len() as u32;
        let cands_mark = self.cands.len() as u32;
        let cell_refs_mark = self.cell_refs.len() as u32;
        let anchors_start = self.anchors.len() as u32;
        let spine_len = query.spine.len() as u32;

        self.produced.clear();
        self.produced_cells.clear();
        self.node_cells.clear();
        let mut contrib_here: Option<(u32, u32)> = None; // range in contrib_cands

        for si in incoming_start as usize..incoming_end as usize {
            let state = self.states[si];
            let i = state.idx as usize;
            let step = &query.spine[i];
            if step.test.matches(label) {
                if let Some((known, cells_start, cells_len)) =
                    self.step_factor(step, fp.path_hash, query)
                {
                    if i as u32 + 1 == spine_len {
                        // Result reached: defer `card × max(candidates)`.
                        let start = self.contrib_cands.len() as u32;
                        for ci in state.cand_start..state.cand_start + state.cand_len {
                            let cand = self.cands[ci as usize];
                            let cs = self.contrib_cells.len() as u32;
                            for r in cand.cells_start..cand.cells_start + cand.cells_len {
                                let cell = self.cell_refs[r as usize];
                                self.contrib_cells.push(cell);
                            }
                            for r in cells_start..cells_start + cells_len {
                                let cell = self.produced_cells[r as usize];
                                self.contrib_cells.push(cell);
                            }
                            self.contrib_cands.push(Candidate {
                                value: cand.value * known,
                                cells_start: cs,
                                cells_len: cand.cells_len + cells_len,
                            });
                        }
                        let end = self.contrib_cands.len() as u32;
                        contrib_here = match contrib_here {
                            None => Some((start, end)),
                            Some((s, _)) => Some((s, end)),
                        };
                    } else if !query.dead[i + 1] {
                        for ci in state.cand_start..state.cand_start + state.cand_len {
                            let cand = self.cands[ci as usize];
                            let pc = self.produced_cells.len() as u32;
                            for r in cand.cells_start..cand.cells_start + cand.cells_len {
                                let cell = self.cell_refs[r as usize];
                                self.produced_cells.push(cell);
                            }
                            for r in cells_start..cells_start + cells_len {
                                let cell = self.produced_cells[r as usize];
                                self.produced_cells.push(cell);
                            }
                            self.produced.push((
                                i as u32 + 1,
                                cand.value * known,
                                pc,
                                cand.cells_len + cells_len,
                            ));
                        }
                    }
                }
            }
            if step.axis == Axis::Descendant {
                // Descendant states survive downwards unchanged.
                for ci in state.cand_start..state.cand_start + state.cand_len {
                    let cand = self.cands[ci as usize];
                    let pc = self.produced_cells.len() as u32;
                    for r in cand.cells_start..cand.cells_start + cand.cells_len {
                        let cell = self.cell_refs[r as usize];
                        self.produced_cells.push(cell);
                    }
                    self.produced
                        .push((state.idx, cand.value, pc, cand.cells_len));
                }
            }
        }

        if let Some((start, end)) = contrib_here {
            self.contribs.push(Contrib {
                card: fp.card,
                cand_start: start,
                cand_len: end - start,
            });
        }

        // Group produced entries into the frame's child-state list, merging
        // pure (cell-free) candidates per spine index by max — exactly the
        // materialized matcher's `push_state`.
        let mut p = 0;
        while p < self.produced.len() {
            let idx = self.produced[p].0;
            if self.states[states_start as usize..]
                .iter()
                .any(|s| s.idx == idx)
            {
                p += 1;
                continue;
            }
            let cand_start = self.cands.len() as u32;
            let mut pure: Option<f64> = None;
            for q in p..self.produced.len() {
                let (qidx, value, pc, plen) = self.produced[q];
                if qidx != idx {
                    continue;
                }
                if plen == 0 {
                    pure = Some(pure.map_or(value, |v: f64| v.max(value)));
                } else {
                    let cs = self.cell_refs.len() as u32;
                    for r in pc..pc + plen {
                        let cell = self.produced_cells[r as usize];
                        self.cell_refs.push(cell);
                    }
                    self.cands.push(Candidate {
                        value,
                        cells_start: cs,
                        cells_len: plen,
                    });
                }
            }
            if let Some(v) = pure {
                self.cands.push(Candidate {
                    value: v,
                    cells_start: 0,
                    cells_len: 0,
                });
            }
            self.states.push(State {
                idx,
                cand_start,
                cand_len: self.cands.len() as u32 - cand_start,
            });
            p += 1;
        }

        let own_cells = self.anchors.len() as u32 > anchors_start;
        let parent_active = self.frames.last().is_some_and(|f| f.tables_active);
        let tables_active = parent_active || own_cells;
        let pred_start = if tables_active {
            let start = self.tables.len() as u32;
            self.tables
                .resize(self.tables.len() + 2 * query.preds.len(), 0.0);
            start
        } else {
            NO_TABLES
        };

        self.frames.push(Frame {
            vertex: fp.vertex,
            fsel: fp.fsel,
            bsel: fp.bsel,
            path_hash: fp.path_hash,
            next_slot: children_start,
            end_slot: children_end,
            states_start,
            states_end: self.states.len() as u32,
            cands_mark,
            cell_refs_mark,
            pred_start,
            anchors_start,
            tables_active,
        });
    }

    /// The combined predicate factor of `step` anchored at the node being
    /// opened: `Some((known, produced_cells range))`, or `None` when the
    /// factor is known to be zero (the state must not advance). Mirrors
    /// `Matcher::predicate_factor` with embeddings deferred to cells.
    fn step_factor(
        &mut self,
        step: &SpineStep,
        anchor_hash: u64,
        query: &CompiledQuery,
    ) -> Option<(f64, u32, u32)> {
        if step.pred_roots.is_empty() {
            return Some((1.0, 0, 0));
        }

        // Whole-step correlated HET entry: used verbatim when present.
        if let (Some(het), Some(simple), Some(sibling)) = (self.het, &step.all_simple, step.sibling)
        {
            if let Some(factor) =
                het.lookup_correlated(correlated_key(anchor_hash, simple, sibling))
            {
                if factor > 0.0 {
                    return Some((factor, 0, 0));
                }
                return None;
            }
        }

        let mut known = 1.0f64;
        let cells_start = self.produced_cells.len() as u32;
        let mut cells_len = 0u32;
        for &pr in &step.pred_roots {
            // Per-predicate correlated entry.
            let single = match (
                self.het,
                query.preds[pr as usize].single_label,
                step.sibling,
            ) {
                (Some(het), Some(label), Some(sibling)) => {
                    het.lookup_correlated(correlated_key(anchor_hash, &[label], sibling))
                }
                _ => None,
            };
            match single {
                Some(bsel) => {
                    if bsel <= 0.0 {
                        self.produced_cells.truncate(cells_start as usize);
                        return None;
                    }
                    known *= bsel.min(1.0);
                }
                None => {
                    let cell = self.cell_for(pr);
                    self.produced_cells.push(cell);
                    cells_len += 1;
                }
            }
        }
        Some((known, cells_start, cells_len))
    }

    /// Returns the cell for `pred` anchored at the node currently being
    /// opened, creating (and registering) it on first use.
    fn cell_for(&mut self, pred: u32) -> u32 {
        if let Some(&(_, cell)) = self.node_cells.iter().find(|&&(p, _)| p == pred) {
            return cell;
        }
        let cell = self.cells.len() as u32;
        self.cells.push(f64::NAN);
        self.anchors.push(Anchor { pred, cell });
        self.node_cells.push((pred, cell));
        cell
    }

    /// Closes the top frame: resolves its anchored cells, folds its
    /// embedding tables into its parent, and truncates the scratch stacks.
    fn close_top(&mut self, query: &CompiledQuery) {
        let frame = self.frames.pop().expect("close requires an open frame");
        // Replay never touches the recursion tracker (levels are baked into
        // the memo), so there is nothing to pop in memoized mode.
        if self.memo.is_none() {
            self.rec_pop(frame.vertex);
        }

        if frame.tables_active {
            let p_count = query.preds.len();
            let base = frame.pred_start as usize;
            let label = self.frozen.label(frame.vertex);

            // Resolve cells anchored here: the best embedding of the
            // predicate root under this frame (child axis -> gc,
            // descendant axis -> gd).
            for a in frame.anchors_start as usize..self.anchors.len() {
                let Anchor { pred, cell } = self.anchors[a];
                let value = match query.preds[pred as usize].axis {
                    Axis::Child => self.tables[base + pred as usize],
                    Axis::Descendant => self.tables[base + p_count + pred as usize],
                };
                self.cells[cell as usize] = value;
            }

            // Fold into the parent: parent.gc/gd absorb f(q, this) and the
            // bsel-weighted descendant table.
            if let Some(parent) = self.frames.last() {
                if parent.tables_active {
                    let p_base = parent.pred_start as usize;
                    for q in 0..p_count {
                        let f_q = self.exact_factor(query, q, base, p_count, frame.bsel);
                        if query.preds[q].test.matches(label) {
                            let gc = &mut self.tables[p_base + q];
                            if f_q > *gc {
                                *gc = f_q;
                            }
                            let gd = &mut self.tables[p_base + p_count + q];
                            if f_q > *gd {
                                *gd = f_q;
                            }
                        }
                        let through = frame.bsel * self.tables[base + p_count + q];
                        let gd = &mut self.tables[p_base + p_count + q];
                        if through > *gd {
                            *gd = through;
                        }
                    }
                }
            }
            self.tables.truncate(base);
        }

        self.anchors.truncate(frame.anchors_start as usize);
        self.states.truncate(frame.states_start as usize);
        self.cands.truncate(frame.cands_mark as usize);
        self.cell_refs.truncate(frame.cell_refs_mark as usize);
    }

    /// `f(q, node)` of the bottom-up embedding recurrence: the node's bsel
    /// times the clamped best embeddings of `q`'s children below it
    /// (mirrors `Matcher::factor_at`).
    fn exact_factor(
        &self,
        query: &CompiledQuery,
        q: usize,
        base: usize,
        p_count: usize,
        bsel: f64,
    ) -> f64 {
        let mut factor = bsel;
        for &child in &query.preds[q].children {
            let sub = match query.preds[child as usize].axis {
                Axis::Child => self.tables[base + child as usize],
                Axis::Descendant => self.tables[base + p_count + child as usize],
            };
            if sub <= 0.0 {
                return 0.0;
            }
            factor *= sub.min(1.0);
        }
        factor
    }

    /// Evaluates the deferred contributions once all cells are resolved.
    fn sum_contributions(&self) -> f64 {
        let mut total = 0.0;
        for contrib in &self.contribs {
            let mut best = 0.0f64;
            for ci in contrib.cand_start..contrib.cand_start + contrib.cand_len {
                let cand = self.contrib_cands[ci as usize];
                let mut value = cand.value;
                for r in cand.cells_start..cand.cells_start + cand.cells_len {
                    let cell = self.contrib_cells[r as usize] as usize;
                    let resolved = self.cells[cell];
                    debug_assert!(!resolved.is_nan(), "cell read before resolution");
                    if resolved <= 0.0 {
                        value = 0.0;
                        break;
                    }
                    value *= resolved.min(1.0);
                }
                best = best.max(value);
            }
            total += contrib.card * best;
        }
        total
    }

    // ------------------------------------------------------------------
    // Bound mode
    // ------------------------------------------------------------------

    /// Computes a guaranteed upper bound on the number of document nodes
    /// matching `query`, by worst-case frontier propagation over the
    /// synopsis graph.
    ///
    /// The frontier maps each synopsis vertex `v` (one per label) to
    /// `B(v)`, an upper bound on the number of document nodes at `v`
    /// matched by the spine prefix processed so far. Soundness rests on
    /// per-step arguments:
    ///
    /// * **Exact label totals.** `total[v]` is the exact number of
    ///   document nodes with `v`'s label: every non-root node is counted
    ///   once as a child on exactly one `(edge, recursion level)` pair,
    ///   plus one for the root node itself. No `B(v)` may exceed it.
    /// * **Child steps.** A parent node on edge `u -> v` at recursion
    ///   level `r` has at most `c_r - p_r + 1` children at `v` (all
    ///   same-label children of one parent share one level, and each of
    ///   the `p_r` recorded parents has at least one child), so `maxdeg`
    ///   — the maximum of that expression over levels — bounds any single
    ///   parent's fan-out. `B(u) * maxdeg` then bounds the matched
    ///   children through the edge, as does the edge's total child count;
    ///   the minimum of the two is taken. Summing over frontier vertices
    ///   is sound because distinct vertices carry distinct labels, hence
    ///   disjoint parent-node sets, and every child has one parent.
    /// * **Descendant steps.** Matched nodes are strict descendants of
    ///   some step `i-1` node, so their labels lie in the union of the
    ///   reachable-label rows of the frontier's *children* (a self-loop
    ///   covers same-label recursion); every vertex whose label is in
    ///   that union gets the always-sound `B(v) = total[v]`.
    /// * **Predicates only filter**, so ignoring them preserves the
    ///   bound, and the point path's cardinality-threshold pruning
    ///   (`card_threshold` and its `max_ept_nodes` escalation) is never
    ///   applied (pruning drops mass).
    /// * **HET clamps, never inflates.** A frontier entry tagged
    ///   [`PathTag::Known`] over-counts only nodes sharing one rooted
    ///   label path; the HET's simple-path cardinality for that path is an
    ///   exact count, so `min`-ing with it cannot cut below the truth.
    ///
    /// Arithmetic saturates at `u64::MAX`; an empty kernel bounds 0.
    fn compute_bound(&self, query: &CompiledQuery) -> u64 {
        let frozen = self.frozen;
        let Some(root) = frozen.root() else {
            return 0;
        };
        let Some(step0) = query.spine.first() else {
            return 0;
        };
        let n = frozen.vertex_count();

        // Exact per-label document node totals.
        let mut total = vec![0u64; n];
        total[root.index()] = 1;
        for ui in 0..n {
            for slot in frozen.out_slots(VertexId(ui as u32)) {
                let vi = frozen.slot_target(slot).index();
                for level in 0..frozen.slot_levels(slot) {
                    total[vi] = total[vi].saturating_add(frozen.slot_child_count(slot, level));
                }
            }
        }

        // Per-slot aggregates: total children across levels, and the
        // worst-case single-parent fan-out.
        let slot_count = frozen.slot_count();
        let mut cnt_total = vec![0u64; slot_count];
        let mut maxdeg = vec![0u64; slot_count];
        for slot in 0..slot_count {
            for level in 0..frozen.slot_levels(slot) {
                let c = frozen.slot_child_count(slot, level);
                if c == 0 {
                    continue;
                }
                cnt_total[slot] = cnt_total[slot].saturating_add(c);
                let p = frozen.slot_parent_count(slot, level);
                let deg = c.saturating_sub(p).saturating_add(1);
                maxdeg[slot] = maxdeg[slot].max(deg);
            }
        }

        let het_clamp = |entry: (u64, PathTag)| -> (u64, PathTag) {
            let (b, tag) = entry;
            if let (Some(het), PathTag::Known(h)) = (self.het, tag) {
                if let Some((card, _)) = het.lookup_simple(h) {
                    return (b.min(card), tag);
                }
            }
            (b, tag)
        };

        // Seed the step-0 frontier. A leading child axis matches only the
        // root node; a leading descendant axis is at-or-below the root,
        // i.e. every node in the document.
        let mut frontier: Vec<Option<(u64, PathTag)>> = vec![None; n];
        match step0.axis {
            Axis::Child => {
                if step0.test.matches(frozen.label(root)) {
                    let h = inc_hash(PATH_HASH_SEED, frozen.label(root));
                    frontier[root.index()] = Some(het_clamp((1, PathTag::Known(h))));
                }
            }
            Axis::Descendant => {
                for (vi, slot) in frontier.iter_mut().enumerate() {
                    let v = VertexId(vi as u32);
                    if step0.test.matches(frozen.label(v)) && total[vi] > 0 {
                        *slot = Some((total[vi], PathTag::Ambiguous));
                    }
                }
            }
        }

        for step in &query.spine[1..] {
            let mut next: Vec<Option<(u64, PathTag)>> = vec![None; n];
            match step.axis {
                Axis::Child => {
                    for (ui, entry) in frontier.iter().enumerate() {
                        let Some((b_u, tag_u)) = *entry else {
                            continue;
                        };
                        if b_u == 0 {
                            continue;
                        }
                        for slot in frozen.out_slots(VertexId(ui as u32)) {
                            let v = frozen.slot_target(slot);
                            let label = frozen.label(v);
                            if !step.test.matches(label) {
                                continue;
                            }
                            let contribution =
                                cnt_total[slot].min(b_u.saturating_mul(maxdeg[slot]));
                            if contribution == 0 {
                                continue;
                            }
                            let tag_v = match tag_u {
                                PathTag::Known(h) => PathTag::Known(inc_hash(h, label)),
                                PathTag::Ambiguous => PathTag::Ambiguous,
                            };
                            let vi = v.index();
                            next[vi] = Some(match next[vi] {
                                None => (contribution, tag_v),
                                Some((b, t)) => (
                                    b.saturating_add(contribution),
                                    if t == tag_v { t } else { PathTag::Ambiguous },
                                ),
                            });
                        }
                    }
                    for (vi, entry) in next.iter_mut().enumerate() {
                        if let Some((b, t)) = *entry {
                            *entry = Some(het_clamp((b.min(total[vi]), t)));
                        }
                    }
                }
                Axis::Descendant => {
                    let words = frozen.label_words();
                    let mut mask = vec![0u64; words];
                    for (ui, entry) in frontier.iter().enumerate() {
                        let Some((b_u, _)) = *entry else {
                            continue;
                        };
                        if b_u == 0 {
                            continue;
                        }
                        for slot in frozen.out_slots(VertexId(ui as u32)) {
                            let child = frozen.slot_target(slot);
                            for (m, r) in mask.iter_mut().zip(frozen.reach_row(child)) {
                                *m |= r;
                            }
                        }
                    }
                    for (vi, entry) in next.iter_mut().enumerate() {
                        let v = VertexId(vi as u32);
                        let label = frozen.label(v);
                        if !step.test.matches(label) || total[vi] == 0 {
                            continue;
                        }
                        let word = label.index() / 64;
                        if word < words && mask[word] & (1u64 << (label.index() % 64)) != 0 {
                            *entry = Some((total[vi], PathTag::Ambiguous));
                        }
                    }
                }
            }
            frontier = next;
        }

        frontier
            .iter()
            .flatten()
            .fold(0u64, |acc, &(b, _)| acc.saturating_add(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::ept::ExpandedPathTree;
    use crate::estimate::matcher::Matcher;
    use crate::het::hash::path_hash;
    use crate::kernel::{Kernel, KernelBuilder};
    use xmlkit::samples::{figure2_document, figure4_document};
    use xpathkit::{parse, QueryPlan};

    /// Expression-keyed shorthands over [`StreamingMatcher::estimate`].
    trait Shorthand {
        fn point(&mut self, expr: &PathExpr) -> f64;
        fn bounded(&mut self, expr: &PathExpr) -> (f64, f64);
    }

    impl Shorthand for StreamingMatcher<'_> {
        fn point(&mut self, expr: &PathExpr) -> f64 {
            self.estimate(expr, None, Mode::Point).estimate
        }

        fn bounded(&mut self, expr: &PathExpr) -> (f64, f64) {
            let out = self.estimate(expr, None, Mode::Bound);
            (out.estimate, out.bound.expect("bound mode reports a bound"))
        }
    }

    fn assert_matches_materialized(
        kernel: &Kernel,
        het: Option<&HyperEdgeTable>,
        queries: &[&str],
    ) {
        assert_matches_materialized_with_config(kernel, het, &XseedConfig::default(), queries);
    }

    fn assert_matches_materialized_with_config(
        kernel: &Kernel,
        het: Option<&HyperEdgeTable>,
        config: &XseedConfig,
        queries: &[&str],
    ) {
        let ept = ExpandedPathTree::generate(kernel, config, het);
        let matcher = Matcher::new(kernel, &ept, het);
        let frozen = FrozenKernel::freeze(kernel);
        let mut streaming = StreamingMatcher::new(&frozen, kernel.names(), config, het);
        for q in queries {
            let expr = parse(q).unwrap();
            let expected = matcher.estimate(&expr);
            let got = streaming.point(&expr);
            assert!(
                (expected - got).abs() < 1e-9,
                "{q}: streaming {got} != materialized {expected}"
            );
        }
    }

    const FIGURE2_QUERIES: &[&str] = &[
        "/a",
        "/a/c",
        "/a/c/s",
        "/a/c/s/s",
        "/a/c/s/s/t",
        "/a/c/s/p",
        "/a/t",
        "/a/u",
        "/c",
        "/zzz",
        "/a/zzz",
        "//c",
        "//s",
        "//p",
        "//*",
        "/a/*",
        "//s//s//p",
        "//s//s//s//s",
        "/a/c/s[t]",
        "/a/c/s[t]/p",
        "/a/c/s[t][s]/p",
        "/a/c[s[s]]",
        "/a/c[//t]",
        "/a/c[zzz]",
        "//s[p]/t",
        "//*[s]/p",
        "/a//s[t//p]/p",
        "//c[s/s]//t",
    ];

    #[test]
    fn streaming_matches_materialized_on_figure2() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        assert_matches_materialized(&kernel, None, FIGURE2_QUERIES);
    }

    #[test]
    fn streaming_matches_materialized_on_figure4() {
        let kernel = KernelBuilder::from_document(&figure4_document());
        assert_matches_materialized(
            &kernel,
            None,
            &[
                "/a/b/d/e",
                "/a/c/d/f",
                "/a/b/d[f]/e",
                "/a/c/d[f]/e",
                "//d[e][f]",
                "//d//*",
                "/a/*/d[e]/f",
            ],
        );
    }

    #[test]
    fn streaming_matches_materialized_with_het() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let names = kernel.names();
        let l = |n: &str| names.lookup(n).unwrap();
        let mut het = HyperEdgeTable::new();
        // Simple-path override (a fake actual for /a/c) plus a correlated
        // entry for s[t]/p.
        het.insert_simple(path_hash(&[l("a"), l("c")]), 7, 0.9, 100.0);
        let anchor = path_hash(&[l("a"), l("c"), l("s")]);
        het.insert_correlated(correlated_key(anchor, &[l("t")], l("p")), 9, 1.0, 50.0);
        het.rebuild_residency();
        assert_matches_materialized(&kernel, Some(&het), FIGURE2_QUERIES);
    }

    #[test]
    fn known_figure2_estimates() {
        // Spot-check absolute values from the paper against the streaming
        // path (not just agreement with the oracle).
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        for (q, expected) in [
            ("/a/c/s", 5.0),
            ("/a/c/s/s/t", 1.0),
            ("//p", 17.0),
            ("//*", 36.0),
            ("/a/c/s[t]/p", 3.6),
            ("/a/c/s[t][s]/p", 1.44),
            ("/a/c[s[s]]", 0.8),
        ] {
            let est = m.point(&parse(q).unwrap());
            assert!((est - expected).abs() < 1e-9, "{q}: {est} != {expected}");
        }
    }

    #[test]
    fn pruning_reduces_visited_nodes_without_changing_estimates() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        // /a/c/s/p: the t and u subtrees cannot contain the result labels.
        let out = m.estimate(&parse("/a/c/s/p").unwrap(), None, Mode::Point);
        let (est, visited) = (out.estimate, out.visited);
        assert!((est - 9.0).abs() < 1e-9);
        assert!(visited < 14, "visited {visited} of 14 EPT nodes");
        assert!(visited > 0);
        // A wildcard query visits everything the materialized EPT holds.
        let all = m.estimate(&parse("//*").unwrap(), None, Mode::Point);
        assert_eq!(all.visited, 14);
    }

    #[test]
    fn empty_kernel_estimates_zero() {
        let kernel = Kernel::new();
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        assert_eq!(m.point(&parse("/a").unwrap()), 0.0);
    }

    #[test]
    fn matcher_is_reusable_across_queries() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        // Interleave predicate-heavy and simple queries to shake the
        // scratch reuse.
        for _ in 0..3 {
            assert!((m.point(&parse("/a/c/s[t][s]/p").unwrap()) - 1.44).abs() < 1e-9);
            assert!((m.point(&parse("//p").unwrap()) - 17.0).abs() < 1e-9);
            assert!((m.point(&parse("/a/c").unwrap()) - 2.0).abs() < 1e-9);
        }
    }

    fn assert_memo_matches_streaming(
        kernel: &Kernel,
        het: Option<&HyperEdgeTable>,
        config: &XseedConfig,
        queries: &[&str],
    ) {
        let frozen = FrozenKernel::freeze(kernel);
        let mut cold = StreamingMatcher::new(&frozen, kernel.names(), config, het);
        let mut memoized = StreamingMatcher::new(&frozen, kernel.names(), config, het);
        memoized.set_frontier_memo(Arc::new(FrontierMemo::build(&frozen, config, het)));
        for q in queries {
            let expr = parse(q).unwrap();
            let expected = cold.point(&expr);
            let got = memoized.point(&expr);
            assert!(
                (expected - got).abs() < 1e-9,
                "{q}: memoized {got} != streaming {expected}"
            );
        }
    }

    #[test]
    fn memo_replay_matches_streaming_on_figure2() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        assert_memo_matches_streaming(&kernel, None, &XseedConfig::default(), FIGURE2_QUERIES);
    }

    #[test]
    fn memo_replay_matches_streaming_on_figure4() {
        let kernel = KernelBuilder::from_document(&figure4_document());
        assert_memo_matches_streaming(
            &kernel,
            None,
            &XseedConfig::default(),
            &[
                "/a/b/d/e",
                "/a/c/d/f",
                "/a/b/d[f]/e",
                "/a/c/d[f]/e",
                "//d[e][f]",
                "//d//*",
                "/a/*/d[e]/f",
            ],
        );
    }

    #[test]
    fn memo_replay_matches_streaming_with_het() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let names = kernel.names();
        let l = |n: &str| names.lookup(n).unwrap();
        let mut het = HyperEdgeTable::new();
        het.insert_simple(path_hash(&[l("a"), l("c")]), 7, 0.9, 100.0);
        let anchor = path_hash(&[l("a"), l("c"), l("s")]);
        het.insert_correlated(correlated_key(anchor, &[l("t")], l("p")), 9, 1.0, 50.0);
        het.rebuild_residency();
        assert_memo_matches_streaming(
            &kernel,
            Some(&het),
            &XseedConfig::default(),
            FIGURE2_QUERIES,
        );
    }

    #[test]
    fn memo_replay_matches_streaming_with_card_threshold() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        assert_memo_matches_streaming(
            &kernel,
            None,
            &XseedConfig::default().with_card_threshold(2.0),
            FIGURE2_QUERIES,
        );
    }

    #[test]
    fn memo_size_equals_materialized_ept() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let memo = FrontierMemo::build(&frozen, &config, None);
        let ept = ExpandedPathTree::generate(&kernel, &config, None);
        assert_eq!(memo.len(), ept.len());
        assert!(!memo.is_empty());
    }

    #[test]
    fn memo_respects_max_ept_nodes() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig {
            max_ept_nodes: 3,
            ..XseedConfig::default()
        };
        let memo = FrontierMemo::build(&frozen, &config, None);
        assert!(memo.len() <= 3);
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        m.set_frontier_memo(std::sync::Arc::new(memo));
        let visited = m
            .estimate(&parse("//*").unwrap(), None, Mode::Point)
            .visited;
        assert!(visited <= 3);
    }

    /// Asserts the three estimation paths expand one shared frontier under
    /// a tiny `max_ept_nodes`: the materialized EPT fits the cap, the memo
    /// records exactly that EPT, streaming agrees with the oracle on every
    /// query, and memo replay agrees with the cold pass bit-for-bit.
    fn assert_one_frontier_under_cap(
        kernel: &Kernel,
        het: Option<&HyperEdgeTable>,
        cap: usize,
        queries: &[&str],
    ) {
        let config = XseedConfig {
            max_ept_nodes: cap,
            ..XseedConfig::default()
        };
        let ept = ExpandedPathTree::generate(kernel, &config, het);
        assert!(ept.len() <= cap, "cap {cap}: expansion must fit");
        let frozen = FrozenKernel::freeze(kernel);
        let memo = FrontierMemo::build(&frozen, &config, het);
        assert_eq!(
            memo.len(),
            ept.len(),
            "cap {cap}: memo and oracle frontiers differ"
        );
        assert_matches_materialized_with_config(kernel, het, &config, queries);
        let mut cold = StreamingMatcher::new(&frozen, kernel.names(), &config, het);
        let mut memoized = StreamingMatcher::new(&frozen, kernel.names(), &config, het);
        memoized.set_frontier_memo(Arc::new(memo));
        for q in queries {
            let expr = parse(q).unwrap();
            assert_eq!(
                memoized.point(&expr).to_bits(),
                cold.point(&expr).to_bits(),
                "cap {cap} {q}: memo replay diverged from cold streaming"
            );
        }
    }

    #[test]
    fn tiny_caps_share_one_frontier_across_all_paths() {
        // The old hard cap stopped each consumer after `max_ept_nodes`
        // opens of *its own* walk, so reachability pruning let the cold
        // streaming pass truncate at a different frontier from the
        // materialized oracle and the memo — the PR 1 divergence caveat.
        // Threshold escalation removes the mid-walk stop entirely; these
        // are the old failing configs.
        let kernel2 = KernelBuilder::from_document(&figure2_document());
        let kernel4 = KernelBuilder::from_document(&figure4_document());
        let names = kernel2.names();
        let l = |n: &str| names.lookup(n).unwrap();
        let mut het = HyperEdgeTable::new();
        het.insert_simple(path_hash(&[l("a"), l("c")]), 7, 0.9, 100.0);
        het.rebuild_residency();
        let figure4_queries = &[
            "/a/b/d/e",
            "/a/c/d/f",
            "/a/b/d[f]/e",
            "//d[e][f]",
            "//d//*",
            "/a/*/d[e]/f",
        ];
        for cap in [1usize, 2, 3, 5, 8] {
            assert_one_frontier_under_cap(&kernel2, None, cap, FIGURE2_QUERIES);
            assert_one_frontier_under_cap(&kernel2, Some(&het), cap, FIGURE2_QUERIES);
            assert_one_frontier_under_cap(&kernel4, None, cap, figure4_queries);
        }
    }

    #[test]
    fn simple_path_estimates_match_per_query_streaming() {
        for (doc, config) in [
            (figure2_document(), XseedConfig::default()),
            (
                figure2_document(),
                XseedConfig::default().with_card_threshold(2.0),
            ),
            (figure4_document(), XseedConfig::default()),
        ] {
            let kernel = KernelBuilder::from_document(&doc);
            let frozen = FrozenKernel::freeze(&kernel);
            let memo = FrontierMemo::build(&frozen, &config, None);
            let totals = memo.simple_path_estimates();
            let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
            let path_tree = nokstore::PathTree::from_document(&doc);
            for id in path_tree.ids() {
                let labels = path_tree.label_path(id);
                let names: Vec<String> = labels
                    .iter()
                    .map(|&l| kernel.names().name_or_panic(l).to_string())
                    .collect();
                let expr = xpathkit::ast::PathExpr::simple(names);
                let expected = m.point(&expr);
                let got = totals.get(&path_hash(&labels)).copied().unwrap_or(0.0);
                assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "{expr}: aggregated {got} != streamed {expected}"
                );
            }
        }
    }

    #[test]
    fn memo_on_empty_kernel() {
        let kernel = Kernel::new();
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let memo = FrontierMemo::build(&frozen, &config, None);
        assert!(memo.is_empty());
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        m.set_frontier_memo(Arc::new(memo));
        assert_eq!(m.point(&parse("/a").unwrap()), 0.0);
    }

    #[test]
    fn estimate_plan_matches_estimate_with_and_without_cache() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let cache = Arc::new(CompiledPlanCache::new(2, 64));
        let mut cached = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        cached.set_compiled_cache(cache.clone());
        let mut uncached = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        for q in FIGURE2_QUERIES {
            let plan = QueryPlan::parse(q).unwrap();
            let expected = uncached.point(plan.expr());
            // Two cached runs: the second must hit the compiled cache and
            // both must be bit-identical to the plain expression path.
            for _ in 0..2 {
                let got = cached.estimate(plan.expr(), Some(plan.id()), Mode::Point);
                assert_eq!(got.estimate.to_bits(), expected.to_bits());
            }
            assert_eq!(
                uncached
                    .estimate(plan.expr(), Some(plan.id()), Mode::Point)
                    .estimate
                    .to_bits(),
                expected.to_bits(),
                "{q}: a cache-less plan-keyed estimate must equal the expression's"
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.misses as usize, FIGURE2_QUERIES.len());
        assert_eq!(stats.hits as usize, FIGURE2_QUERIES.len());
        assert_eq!(stats.entries, FIGURE2_QUERIES.len().min(64));
    }

    #[test]
    fn compiled_cache_keys_on_plan_identity_not_text() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let cache = Arc::new(CompiledPlanCache::new(1, 8));
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        m.set_compiled_cache(cache.clone());
        let a = QueryPlan::parse("/a/c/s").unwrap();
        let b = QueryPlan::parse("/a/c/s").unwrap();
        let mut by_plan = |plan: &QueryPlan| {
            m.estimate(plan.expr(), Some(plan.id()), Mode::Point)
                .estimate
        };
        assert_eq!(by_plan(&a), by_plan(&b));
        // Distinct parses are distinct identities: two compilations.
        assert_eq!(cache.stats().misses, 2);
        // A clone shares the identity: pure hit.
        let _ = by_plan(&a.clone());
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn compiled_cache_evicts_least_recently_used() {
        let cache = CompiledPlanCache::new(1, 2);
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        let m = &m;
        let compile = |text: &str| {
            let expr = parse(text).unwrap();
            move || m.compile(&expr)
        };
        cache.get_or_compile(1, compile("/a"));
        cache.get_or_compile(2, compile("/a/c"));
        cache.get_or_compile(1, compile("/a")); // refresh 1
        cache.get_or_compile(3, compile("/a/c/s")); // evicts 2
        assert_eq!(cache.stats().entries, 2);
        let before = cache.stats().misses;
        cache.get_or_compile(2, compile("/a/c")); // recompiles, evicts 1
        assert_eq!(cache.stats().misses, before + 1);
        let hits = cache.stats().hits;
        cache.get_or_compile(3, compile("/a/c/s")); // still resident
        assert_eq!(cache.stats().hits, hits + 1);
    }

    #[test]
    fn compiled_cache_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledPlanCache>();
    }

    /// Differential soundness check: for every query, the bound must
    /// dominate both the NoK oracle's true cardinality and the point
    /// estimate.
    fn assert_bound_sound(
        doc: &xmlkit::Document,
        het: Option<&HyperEdgeTable>,
        config: &XseedConfig,
        queries: &[&str],
    ) {
        let kernel = KernelBuilder::from_document(doc);
        let frozen = FrozenKernel::freeze(&kernel);
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), config, het);
        let storage = nokstore::NokStorage::from_document(doc);
        let eval = nokstore::Evaluator::new(&storage);
        for q in queries {
            let expr = parse(q).unwrap();
            let (estimate, bound) = m.bounded(&expr);
            let actual = eval.count(&expr) as f64;
            assert!(
                bound + 1e-9 >= actual,
                "{q}: bound {bound} < true cardinality {actual}"
            );
            assert!(
                bound + 1e-9 >= estimate,
                "{q}: bound {bound} < point estimate {estimate}"
            );
        }
    }

    const FIGURE4_QUERIES: &[&str] = &[
        "/a/b/d/e",
        "/a/c/d/f",
        "/a/b/d[f]/e",
        "/a/c/d[f]/e",
        "//d[e][f]",
        "//d//*",
        "/a/*/d[e]/f",
    ];

    #[test]
    fn bound_is_sound_on_figure2() {
        assert_bound_sound(
            &figure2_document(),
            None,
            &XseedConfig::default(),
            FIGURE2_QUERIES,
        );
    }

    #[test]
    fn bound_is_sound_on_figure4() {
        assert_bound_sound(
            &figure4_document(),
            None,
            &XseedConfig::default(),
            FIGURE4_QUERIES,
        );
    }

    #[test]
    fn bound_is_sound_under_truncation() {
        // The point path prunes (card_threshold drops low-mass edges, and
        // a tiny max_ept_nodes escalates that threshold further); the
        // bound must ignore both.
        for config in [
            XseedConfig::default().with_card_threshold(2.0),
            XseedConfig {
                max_ept_nodes: 3,
                ..XseedConfig::default()
            },
        ] {
            assert_bound_sound(&figure2_document(), None, &config, FIGURE2_QUERIES);
            assert_bound_sound(&figure4_document(), None, &config, FIGURE4_QUERIES);
        }
    }

    #[test]
    fn bound_is_sound_with_true_het_entries() {
        // HET entries clamp with *true* cardinalities (as the feedback
        // loop inserts them); the clamp must never cut below the truth.
        let doc = figure2_document();
        let kernel = KernelBuilder::from_document(&doc);
        let names = kernel.names();
        let l = |n: &str| names.lookup(n).unwrap();
        let storage = nokstore::NokStorage::from_document(&doc);
        let eval = nokstore::Evaluator::new(&storage);
        let mut het = HyperEdgeTable::new();
        for (path, query) in [
            (vec![l("a"), l("c")], "/a/c"),
            (vec![l("a"), l("c"), l("s")], "/a/c/s"),
            (vec![l("a"), l("c"), l("s"), l("s")], "/a/c/s/s"),
        ] {
            let actual = eval.count(&parse(query).unwrap());
            het.insert_simple(path_hash(&path), actual, 0.9, 100.0);
        }
        het.rebuild_residency();
        assert_bound_sound(&doc, Some(&het), &XseedConfig::default(), FIGURE2_QUERIES);
    }

    #[test]
    fn het_entries_tighten_the_bound() {
        let doc = figure2_document();
        let kernel = KernelBuilder::from_document(&doc);
        let names = kernel.names();
        let l = |n: &str| names.lookup(n).unwrap();
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let storage = nokstore::NokStorage::from_document(&doc);
        let eval = nokstore::Evaluator::new(&storage);
        let expr = parse("/a/c/s").unwrap();
        let actual = eval.count(&expr);
        let (_, loose) =
            StreamingMatcher::new(&frozen, kernel.names(), &config, None).bounded(&expr);
        let mut het = HyperEdgeTable::new();
        het.insert_simple(path_hash(&[l("a"), l("c"), l("s")]), actual, 0.9, 100.0);
        het.rebuild_residency();
        let (_, tight) =
            StreamingMatcher::new(&frozen, kernel.names(), &config, Some(&het)).bounded(&expr);
        assert!(
            tight <= loose,
            "HET clamp inflated the bound: {tight} > {loose}"
        );
        assert!(tight >= actual as f64);
    }

    #[test]
    fn bound_on_empty_kernel_and_absent_labels() {
        let kernel = Kernel::new();
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        assert_eq!(m.bounded(&parse("/a").unwrap()), (0.0, 0.0));

        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        for q in ["/zzz", "/a/zzz", "//zzz", "/a//zzz/t"] {
            let (_, bound) = m.bounded(&parse(q).unwrap());
            assert_eq!(bound, 0.0, "{q}: absent label must bound 0");
        }
    }

    #[test]
    fn known_figure2_bounds() {
        // Pin exact bound values on Figure 2(a) so bound regressions are
        // visible, not just soundness violations. Truths: /a/c/s has 5
        // nodes, //p has 17, //* has 36.
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        for (q, truth) in [("/a/c/s", 5.0), ("//p", 17.0), ("//*", 36.0), ("/a", 1.0)] {
            let (_, bound) = m.bounded(&parse(q).unwrap());
            assert!(bound >= truth, "{q}: bound {bound} < truth {truth}");
        }
        // //* covers every node; the per-label totals are exact, so the
        // bound is exactly the document size.
        assert_eq!(m.bounded(&parse("//*").unwrap()).1, 36.0);
        // A leading child step matches only the root.
        assert_eq!(m.bounded(&parse("/a").unwrap()).1, 1.0);
    }

    #[test]
    fn plan_keyed_bound_matches_expression_keyed_bound() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let cache = Arc::new(CompiledPlanCache::new(2, 64));
        let mut cached = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        cached.set_compiled_cache(cache.clone());
        let mut plain = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        for q in FIGURE2_QUERIES {
            let plan = QueryPlan::parse(q).unwrap();
            let (estimate, bound) = plain.bounded(plan.expr());
            for _ in 0..2 {
                let got = cached.estimate(plan.expr(), Some(plan.id()), Mode::Bound);
                assert_eq!(got.bound.map(f64::to_bits), Some(bound.to_bits()), "{q}");
                assert_eq!(got.estimate.to_bits(), estimate.to_bits(), "{q}");
            }
        }
        assert!(cache.stats().hits > 0);
    }

    #[test]
    fn each_plan_keyed_call_makes_one_cache_lookup() {
        // Both modes share one compiled query, so the compiled-cache
        // counters `STATS` reports count each `EST … mode=bound` once.
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig::default();
        let cache = Arc::new(CompiledPlanCache::new(2, 64));
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        m.set_compiled_cache(cache.clone());
        let lookups = |cache: &CompiledPlanCache| {
            let stats = cache.stats();
            stats.hits + stats.misses
        };
        let plan = QueryPlan::parse("/a/c/s[t]/p").unwrap();
        let cold = m.estimate(plan.expr(), Some(plan.id()), Mode::Point);
        assert!(cold.compile_time.is_some(), "a miss compiles");
        assert_eq!(lookups(&cache), 1);
        for mode in [Mode::Bound, Mode::Point, Mode::Bound] {
            let before = lookups(&cache);
            let warm = m.estimate(plan.expr(), Some(plan.id()), mode);
            assert_eq!(lookups(&cache), before + 1, "{mode:?}: one lookup per call");
            assert_eq!(warm.compile_time, None, "{mode:?}: a hit does not compile");
            assert_eq!(warm.bound.is_some(), mode == Mode::Bound);
        }
        // Expression-keyed calls compile afresh and never touch the cache.
        let before = lookups(&cache);
        for mode in [Mode::Point, Mode::Bound] {
            let out = m.estimate(plan.expr(), None, mode);
            assert!(out.compile_time.is_some());
        }
        assert_eq!(lookups(&cache), before);
    }

    #[test]
    fn max_ept_nodes_caps_traversal() {
        let kernel = KernelBuilder::from_document(&figure2_document());
        let frozen = FrozenKernel::freeze(&kernel);
        let config = XseedConfig {
            max_ept_nodes: 3,
            ..XseedConfig::default()
        };
        let mut m = StreamingMatcher::new(&frozen, kernel.names(), &config, None);
        let visited = m
            .estimate(&parse("//*").unwrap(), None, Mode::Point)
            .visited;
        assert!(visited <= 3);
    }
}
