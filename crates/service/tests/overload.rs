//! Backpressure guarantees of the estimation service, driven past its
//! queue budget:
//!
//! * sheds are **deterministic**: with the workers fenced behind a batch
//!   that holds the whole budget, every further request sheds, every shed
//!   is the structured [`ServiceError::Overloaded`], and nothing is
//!   partially enqueued;
//! * the process stays **under the configured bounds**: the queued-depth
//!   high-water mark never exceeds `workers × queue_capacity`;
//! * in-flight estimates are **never corrupted**: everything admitted
//!   during an overload storm answers bit-identically to a
//!   single-threaded run over the same snapshot.

use std::sync::Arc;
use std::thread;
use xpathkit::QueryPlan;
use xseed_core::Mode;
use xseed_core::{XseedConfig, XseedSynopsis};
use xseed_service::{Catalog, Service, ServiceConfig, ServiceError};

use datagen::{Dataset, WorkloadGenerator, WorkloadSpec};

fn xmark_catalog() -> (Arc<Catalog>, Vec<String>) {
    let doc = Dataset::XMark10.generate_scaled(0.05);
    let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
    let workload = WorkloadGenerator::new(&doc, 0xBAD10AD).generate(&WorkloadSpec::small());
    let texts: Vec<String> = workload.all().map(|q| q.to_string()).collect();
    let catalog = Arc::new(Catalog::new());
    catalog.insert("xmark", synopsis);
    (catalog, texts)
}

/// Single-threaded reference bits for every text, from the snapshot
/// matcher every request runs (memo replay, single queries and batches
/// alike).
fn reference(catalog: &Catalog, texts: &[String]) -> Vec<u64> {
    let snapshot = catalog.snapshot("xmark").unwrap();
    let mut matcher = snapshot.matcher();
    texts
        .iter()
        .map(|t| {
            let plan = QueryPlan::parse(t).unwrap();
            matcher
                .estimate(plan.expr(), None, Mode::Point)
                .estimate
                .to_bits()
        })
        .collect()
}

/// With both workers fenced behind a 2-chunk batch that holds the whole
/// budget, a flood of single estimates sheds every request — and the
/// held batch still answers bit-identically to a single-threaded run
/// once the fences lift.
#[test]
fn fenced_flood_sheds_exactly_the_overflow_and_preserves_estimates() {
    const CAPACITY: usize = 8;
    const HELD: usize = 2 * CAPACITY;
    const FLOOD: usize = 100;
    let (catalog, texts) = xmark_catalog();
    let expected = reference(&catalog, &texts[..HELD]);
    let service = Service::new(
        catalog,
        ServiceConfig::with_workers(2).with_queue_capacity(CAPACITY),
    );
    let pauses = [service.pause_worker(0), service.pause_worker(1)];
    for pause in &pauses {
        pause.wait_until_paused();
    }
    let held: Vec<&str> = texts[..HELD].iter().map(String::as_str).collect();

    let held_estimates = thread::scope(|scope| {
        let batch = scope.spawn(|| service.estimate_batch("xmark", &held));
        while service.stats().queued < HELD {
            assert!(!batch.is_finished(), "the held batch did not queue");
            thread::yield_now();
        }
        for i in 0..FLOOD {
            match service.estimate("xmark", &texts[i % texts.len()]) {
                Err(ServiceError::Overloaded { queued, capacity }) => {
                    assert_eq!(queued, HELD, "sheds only happen at a full budget");
                    assert_eq!(capacity, HELD);
                }
                other => panic!("expected a shed, got {other:?}"),
            }
        }
        // Deterministic: the held batch was admitted, every later request
        // shed.
        let stats = service.stats();
        assert_eq!(stats.accepted, HELD as u64);
        assert_eq!(stats.shed, FLOOD as u64);
        assert_eq!(stats.queued, HELD);
        assert_eq!(stats.peak_queued, HELD, "budget never exceeded");
        // Lift the fences: the held batch completes.
        drop(pauses);
        batch.join().unwrap().unwrap()
    });
    let held_bits: Vec<u64> = held_estimates.iter().map(|e| e.to_bits()).collect();
    assert_eq!(held_bits, expected, "held batch diverged");
    let stats = service.stats();
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.total_executed(), HELD as u64);
    // The drained budget admits single estimates again, bit-exact.
    assert_eq!(
        service.estimate("xmark", &texts[0]).unwrap().to_bits(),
        expected[0]
    );
}

/// Concurrent clients mixing single estimates and 2-chunk batches
/// against a live (unfenced) service: sheds and admissions always
/// partition the offered load, the bound holds, and admitted work is
/// bit-exact — overload never corrupts in-flight estimates.
#[test]
fn concurrent_flood_stays_bounded_and_bit_exact() {
    const CAPACITY: usize = 8;
    const BATCH: usize = 2 * CAPACITY;
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 200;
    let (catalog, texts) = xmark_catalog();
    let expected = reference(&catalog, &texts);
    let service = Service::new(
        catalog,
        ServiceConfig::with_workers(2).with_queue_capacity(CAPACITY),
    );

    let (offered, admitted): (usize, usize) = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let service = &service;
                let texts = &texts;
                let expected = &expected;
                scope.spawn(move || {
                    let (mut offered, mut admitted) = (0usize, 0usize);
                    for i in 0..PER_CLIENT {
                        let first = (c * PER_CLIENT + i) % texts.len();
                        // Even rounds send one query, odd rounds a batch
                        // that splits into one full chunk per queue.
                        let len = if i % 2 == 0 { 1 } else { BATCH };
                        let qis: Vec<usize> =
                            (first..first + len).map(|q| q % texts.len()).collect();
                        let batch: Vec<&str> = qis.iter().map(|&q| texts[q].as_str()).collect();
                        let result = if len == 1 {
                            service.estimate("xmark", batch[0]).map(|e| vec![e])
                        } else {
                            service.estimate_batch("xmark", &batch)
                        };
                        offered += len;
                        match result {
                            Ok(estimates) => {
                                admitted += len;
                                for (&q, est) in qis.iter().zip(estimates) {
                                    assert_eq!(est.to_bits(), expected[q], "{}", texts[q]);
                                }
                            }
                            Err(ServiceError::Overloaded { queued, capacity }) => {
                                assert_eq!(capacity, 2 * CAPACITY);
                                assert!(queued <= 2 * CAPACITY);
                            }
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                    (offered, admitted)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |(o, a), (co, ca)| (o + co, a + ca))
    });

    let stats = service.stats();
    assert_eq!(stats.accepted as usize, admitted);
    assert_eq!(
        (stats.accepted + stats.shed) as usize,
        offered,
        "admissions and sheds must partition the offered load"
    );
    assert!(
        stats.peak_queued <= 2 * CAPACITY,
        "peak {} exceeded the {} budget",
        stats.peak_queued,
        2 * CAPACITY
    );
    assert_eq!(stats.total_executed() as usize, admitted);
    assert_eq!(stats.queued, 0);
}

/// Shed batches are all-or-nothing: a fenced queue sheds an unfittable
/// batch without enqueueing any chunk, and releases every reservation it
/// took, so later (fitting) work is unaffected.
#[test]
fn shed_batches_leave_no_partial_work() {
    let (catalog, texts) = xmark_catalog();
    let service = Service::new(
        catalog,
        ServiceConfig::with_workers(2).with_queue_capacity(16),
    );
    let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
    let big: Vec<&str> = refs.iter().cycle().take(64).copied().collect();

    let pause0 = service.pause_worker(0);
    let pause1 = service.pause_worker(1);
    pause0.wait_until_paused();
    pause1.wait_until_paused();

    // 64 queries over 2 workers -> two 32-query chunks; neither fits a
    // 16-query queue, so the whole batch sheds.
    let err = service.estimate_batch("xmark", &big).unwrap_err();
    assert!(matches!(err, ServiceError::Overloaded { .. }), "{err}");
    let stats = service.stats();
    assert_eq!(stats.shed, 64);
    assert_eq!(
        stats.queued, 0,
        "failed admission must release its reservations"
    );

    // A fitting batch admitted behind the fences runs once they lift.
    pause0.resume();
    pause1.resume();
    let small: Vec<&str> = refs.iter().take(8).copied().collect();
    assert_eq!(service.estimate_batch("xmark", &small).unwrap().len(), 8);
    assert_eq!(service.stats().accepted, 8);
}
