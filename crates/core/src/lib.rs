//! # xseed-core — the XSEED synopsis for XPath cardinality estimation
//!
//! This crate implements the primary contribution of *"XSEED: Accurate and
//! Fast Cardinality Estimation for XPath Queries"* (Zhang, Özsu,
//! Aboulnaga, Ilyas — ICDE 2006):
//!
//! * the **kernel** ([`kernel`]) — a recursion-aware, edge-labeled
//!   label-split graph built in one pass over the document (Algorithm 1),
//!   with incremental updates and a compact serialized form;
//! * the **counter stacks** ([`counter_stacks`]) — the O(1) recursion-level
//!   tracker of Figure 3;
//! * the **estimator** ([`estimate`]) — the traveler (Algorithm 2) that
//!   lazily expands the kernel into the expanded path tree, and the
//!   matcher (Algorithm 3) that matches query trees against it;
//! * the **hyper-edge table** ([`het`]) — the budget-adaptive layer of
//!   actual cardinalities and correlated backward selectivities that
//!   repairs the kernel's independence assumptions (Section 5);
//! * the **synopsis facade** ([`synopsis::XseedSynopsis`]) tying it all
//!   together behind the API a cost-based optimizer would use.
//!
//! ## Asking for an estimate
//!
//! Every estimate goes through one method,
//! [`StreamingMatcher::estimate`]`(expr, plan_id, mode)`. It returns an
//! [`Outcome`]: the point estimate, a guaranteed upper bound when `mode`
//! is [`Mode::Bound`], the number of nodes visited, and the compile time
//! when the call compiled. Pass a [`xpathkit::QueryPlan`]'s id to reuse
//! its compiled form through the snapshot's cache; pass `None` to compile
//! the expression afresh.
//!
//! Matchers come from a published [`SynopsisSnapshot`]. Every
//! [`SynopsisSnapshot::matcher`] replays the snapshot's shared
//! [`FrontierMemo`], single queries and batches alike: the first read on
//! a snapshot walks the expansion once, resolving the effective threshold
//! and recording the memo, and every later estimate replays it. Two
//! one-line shorthands cover the common point query:
//! [`XseedSynopsis::estimate`] for an expression (the cold streaming
//! pass, kept as the replay's differential oracle) and
//! [`SynopsisSnapshot::estimate_plan`] for a cached plan.
//!
//! ## Quick example
//!
//! ```
//! use xmlkit::Document;
//! use xseed_core::{XseedConfig, XseedSynopsis};
//!
//! let doc = Document::parse_str(
//!     "<library><book><title/><author/></book><book><title/></book></library>",
//! ).unwrap();
//! let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
//! let query = xpathkit::parse("/library/book[author]/title").unwrap();
//! let estimate = synopsis.estimate(&query);
//! assert!(estimate > 0.0 && estimate <= 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod counter_stacks;
pub mod estimate;
pub mod het;
pub mod kernel;
pub mod lru;
pub mod partition;
pub mod persist;
pub mod synopsis;

pub use config::XseedConfig;
pub use counter_stacks::CounterStacks;
pub use estimate::{
    CompiledCacheStats, CompiledPlanCache, CompiledQuery, EstimateEvent, ExpandedPathTree,
    FrontierMemo, Matcher, Mode, Outcome, StreamingMatcher, Traveler,
};
pub use het::{
    BselThresholdStrategy, CandidateContext, CandidateStrategy, FeedbackOutcome, HetBuildStats,
    HetBuilder, HyperEdgeTable, PerLevelBudgetStrategy, TopKErrorStrategy,
};
pub use kernel::{EdgeLabel, FrozenKernel, Kernel, KernelBuilder, PartialKernel};
pub use lru::ShardedLru;
pub use partition::{build_kernel_partitioned, merge_partials, PartitionPlan};
pub use persist::{decode_snapshot, encode_snapshot, PersistError, SnapshotParts};
pub use synopsis::{FeedbackReport, SynopsisEstimator, SynopsisSnapshot, XseedSynopsis};
