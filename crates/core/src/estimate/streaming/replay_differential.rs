//! Differential guard for memo replay.
//!
//! Every [`crate::synopsis::SynopsisSnapshot::matcher`] replays the
//! snapshot's [`FrontierMemo`], so the service and its end-to-end checks
//! never run the cold streaming pass. This module keeps the cold
//! pass ([`crate::synopsis::XseedSynopsis::streaming_matcher`]) as the
//! oracle: on the generated XMark, DBLP and Treebank workloads, with and
//! without a HET, and under a `max_ept_nodes` small enough to force
//! threshold escalation, replay must give bit-identical estimates, bounds
//! and visited counts. It also pins the fused expansion walk of
//! [`FrontierMemo::build`] to the two passes it replaced: counting walks
//! that escalate the threshold until the expansion fits, then a recording
//! walk under that threshold.

use super::*;
use crate::estimate::ept::ExpandedPathTree;
use crate::synopsis::XseedSynopsis;
use datagen::{Dataset, WorkloadGenerator, WorkloadSpec};

/// Opens of the expansion under `threshold`, stopping once past `cap`:
/// the counting walk the threshold used to be resolved by.
fn count_opens(m: &mut StreamingMatcher<'_>, threshold: f64, cap: usize) -> usize {
    let Some(root) = m.frozen.root() else {
        return 0;
    };
    m.rec_reset();
    let mut opens = 1;
    m.rec_push(root);
    let slots = m.frozen.out_slots(root);
    let path_hash = inc_hash(PATH_HASH_SEED, m.frozen.label(root));
    let mut stack = vec![(root, 1.0, path_hash, slots.start, slots.end)];
    while let Some(top) = stack.last_mut() {
        let (vertex, fsel, path_hash, next, end) = *top;
        if next >= end {
            stack.pop();
            m.rec_pop(vertex);
            continue;
        }
        top.3 += 1;
        let child = m.frozen.slot_target(next);
        let Some(fp) = m.child_footprint(vertex, fsel, path_hash, next, child, threshold) else {
            continue;
        };
        opens += 1;
        if opens > cap {
            return opens;
        }
        m.rec_push(child);
        let slots = m.frozen.out_slots(fp.vertex);
        stack.push((fp.vertex, fp.fsel, fp.path_hash, slots.start, slots.end));
    }
    opens
}

/// The threshold and memo nodes of the two-pass build: escalate until a
/// counting walk fits, then record one unbounded walk at that threshold.
fn two_pass(
    frozen: &FrozenKernel,
    config: &XseedConfig,
    het: Option<&HyperEdgeTable>,
) -> (f64, Vec<MemoNode>) {
    let names = NameTable::new();
    let mut m = StreamingMatcher::new(frozen, &names, config, het);
    let cap = config.max_ept_nodes.max(1);
    let mut threshold = config.card_threshold;
    while count_opens(&mut m, threshold, cap) > cap {
        threshold = escalate_card_threshold(threshold);
    }
    let mut nodes = Vec::new();
    assert!(m.record_expansion(threshold, usize::MAX, &mut nodes));
    (threshold, nodes)
}

fn assert_same_nodes(fused: &[MemoNode], reference: &[MemoNode], what: &str) {
    assert_eq!(fused.len(), reference.len(), "{what}: memo length");
    for (i, (a, b)) in fused.iter().zip(reference).enumerate() {
        assert_eq!(
            (a.vertex, a.path_hash, a.subtree_end),
            (b.vertex, b.path_hash, b.subtree_end),
            "{what}: node {i}"
        );
        assert_eq!(
            [a.card, a.fsel, a.bsel].map(f64::to_bits),
            [b.card, b.fsel, b.bsel].map(f64::to_bits),
            "{what}: node {i} footprint"
        );
    }
}

/// Checks the fused walk against the two passes and the materialized
/// oracle, then every query of `queries` cold against replayed.
fn assert_replay_matches_cold(synopsis: &XseedSynopsis, queries: &[PathExpr], what: &str) {
    let snapshot = synopsis.snapshot();
    let memo = snapshot.frontier_memo();
    let (threshold, nodes) = two_pass(snapshot.frozen(), snapshot.config(), snapshot.het());
    assert_eq!(
        memo.threshold().to_bits(),
        threshold.to_bits(),
        "{what}: threshold"
    );
    assert_same_nodes(&memo.nodes, &nodes, what);
    let ept = ExpandedPathTree::generate(synopsis.kernel(), synopsis.config(), synopsis.het());
    assert_eq!(memo.len(), ept.len(), "{what}: memo vs materialized EPT");
    for (i, node) in memo.nodes.iter().enumerate() {
        let oracle = ept.node(i);
        assert_eq!(
            (node.vertex, node.path_hash),
            (oracle.vertex, oracle.path_hash),
            "{what}: EPT node {i}"
        );
    }

    let mut cold = synopsis.streaming_matcher();
    assert!(cold.memo.is_none(), "{what}: the oracle must stream cold");
    let mut replay = snapshot.matcher();
    assert!(replay.memo.is_some(), "{what}: snapshot matchers replay");
    for expr in queries {
        for mode in [Mode::Point, Mode::Bound] {
            let (c, r) = (
                cold.estimate(expr, None, mode),
                replay.estimate(expr, None, mode),
            );
            assert_eq!(
                (c.estimate.to_bits(), c.bound.map(f64::to_bits), c.visited),
                (r.estimate.to_bits(), r.bound.map(f64::to_bits), r.visited),
                "{what} {mode:?} {expr}: replay diverged from the cold pass"
            );
        }
    }
    assert!(
        replay.rec_counts.is_empty(),
        "{what}: replay allocated the recursion tracker"
    );
}

#[test]
fn memo_replay_is_bit_identical_to_the_cold_pass() {
    for (name, dataset, scale, recursive) in [
        ("xmark", Dataset::XMark10, 0.02, false),
        ("dblp", Dataset::Dblp, 0.01, false),
        ("treebank", Dataset::TreebankSmall, 0.02, true),
    ] {
        let doc = dataset.generate_scaled(scale);
        let config = if recursive {
            XseedConfig::recursive_for_size(doc.element_count())
        } else {
            XseedConfig::default()
        };
        // Half the default expansion: the tiny cap must escalate.
        let default_len = XseedSynopsis::build(&doc, config.clone())
            .snapshot()
            .frontier_memo()
            .len();
        let tiny = XseedConfig {
            max_ept_nodes: default_len / 2,
            ..config.clone()
        };
        let queries: Vec<PathExpr> = WorkloadGenerator::new(&doc, 0xD1FF)
            .generate(&WorkloadSpec::small())
            .all()
            .cloned()
            .collect();
        assert!(!queries.is_empty());
        for (label, config) in [("default", config), ("tiny cap", tiny)] {
            let escalates = label == "tiny cap";
            let plain = XseedSynopsis::build(&doc, config.clone());
            let memo = plain.snapshot().frontier_memo().clone();
            assert_eq!(
                memo.threshold() > config.card_threshold,
                escalates,
                "{name} {label}: threshold {}",
                memo.threshold()
            );
            assert!(memo.len() <= config.max_ept_nodes);
            assert_replay_matches_cold(&plain, &queries, &format!("{name} {label}"));
            let (with_het, _) = XseedSynopsis::build_with_het(&doc, config);
            assert!(with_het.het().is_some());
            assert_replay_matches_cold(&with_het, &queries, &format!("{name} {label} + HET"));
        }
    }
}
