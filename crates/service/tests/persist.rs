//! Snapshot persistence, end to end:
//!
//! * the round-trip differential — a synopsis saved to disk and reloaded
//!   answers the full deterministic workload **bit-identically** on
//!   XMark, DBLP, and Treebank (kernel, HET residency, config, and epoch
//!   all survive the bytes);
//! * warm start over a directory containing one corrupt snapshot serves
//!   every healthy one and quarantines the corrupt one, reporting it
//!   through `STATS`.

use datagen::{Dataset, WorkloadGenerator, WorkloadSpec};
use std::sync::Arc;
use xseed_core::{Mode, XseedConfig, XseedSynopsis};
use xseed_service::protocol::{handle_line, ProtocolOptions};
use xseed_service::{warm_start, Catalog, Service, ServiceConfig};

const SEED: u64 = 0xBEEF;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xseed-persist-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Scenario {
    name: &'static str,
    dataset: Dataset,
    scale: f64,
    recursive: bool,
}

const SCENARIOS: [Scenario; 3] = [
    Scenario {
        name: "xmark",
        dataset: Dataset::XMark10,
        scale: 0.02,
        recursive: false,
    },
    Scenario {
        name: "dblp",
        dataset: Dataset::Dblp,
        scale: 0.01,
        recursive: false,
    },
    Scenario {
        name: "treebank",
        dataset: Dataset::TreebankSmall,
        scale: 0.02,
        recursive: true,
    },
];

/// Saving and reloading must not move a single bit of any estimate.
#[test]
fn reloaded_snapshots_estimate_bit_identically() {
    let dir = temp_dir("roundtrip");
    for scenario in &SCENARIOS {
        let doc = scenario.dataset.generate_scaled(scenario.scale);
        let config = if scenario.recursive {
            XseedConfig::recursive_for_size(doc.element_count())
        } else {
            XseedConfig::default()
        };
        let workload = WorkloadGenerator::new(&doc, SEED).generate(&WorkloadSpec::small());
        assert!(!workload.is_empty());
        let (synopsis, stats) = XseedSynopsis::build_with_het(&doc, config);
        assert!(stats.simple_entries > 0, "{}: HET is empty", scenario.name);

        let catalog = Catalog::new();
        let original = catalog.insert(scenario.name, synopsis);
        let path = dir.join(format!("{}.xsnap", scenario.name));
        let bytes = catalog.save_snapshot(scenario.name, &path).unwrap();
        assert!(bytes > 0);

        let restored_catalog = Catalog::new();
        let (restored, retained) = restored_catalog
            .load_snapshot(scenario.name, &path, None)
            .unwrap();
        assert!(!retained, "{}: no document was spilled", scenario.name);
        assert_eq!(
            restored.epoch(),
            original.epoch(),
            "{}: epoch drifted through the snapshot",
            scenario.name
        );
        for query in workload.all() {
            assert_eq!(
                original
                    .matcher()
                    .estimate(query, None, Mode::Point)
                    .estimate
                    .to_bits(),
                restored
                    .matcher()
                    .estimate(query, None, Mode::Point)
                    .estimate
                    .to_bits(),
                "{}: estimate for {query} drifted through the snapshot",
                scenario.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spilled retained document comes back into retention, structurally
/// identical — reload estimates still bit-identical.
#[test]
fn retained_document_spills_and_restores() {
    let dir = temp_dir("spill");
    let doc = xmlkit::samples::figure4_document();
    let catalog = Catalog::new();
    let synopsis = XseedSynopsis::build(&doc, XseedConfig::default());
    catalog.insert_full(
        "fig4",
        synopsis,
        None,
        Some(Arc::new(doc.clone())),
        xseed_service::MaintenancePolicy::Manual,
    );
    let path = dir.join("fig4.xsnap");
    catalog.save_snapshot("fig4", &path).unwrap();

    let restored_catalog = Catalog::new();
    let (_, retained) = restored_catalog.load_snapshot("fig4", &path, None).unwrap();
    assert!(retained, "spilled document must restore into retention");
    let restored_doc = restored_catalog.retained_document("fig4").unwrap();
    assert_eq!(restored_doc.element_count(), doc.element_count());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-loading a snapshot over an already-published name must advance the
/// epoch past the name's history, never regress to the saved epoch.
#[test]
fn reload_over_existing_name_never_regresses_epochs() {
    let dir = temp_dir("epochs");
    let doc = xmlkit::samples::figure2_document();
    let catalog = Catalog::new();
    catalog.insert("fig2", XseedSynopsis::build(&doc, XseedConfig::default()));
    let path = dir.join("fig2.xsnap");
    catalog.save_snapshot("fig2", &path).unwrap();
    // Publish a few more epochs under the name.
    for _ in 0..3 {
        catalog.insert("fig2", XseedSynopsis::build(&doc, XseedConfig::default()));
    }
    let before = catalog.snapshot("fig2").unwrap().epoch();
    let (reloaded, _) = catalog.load_snapshot("fig2", &path, None).unwrap();
    assert!(
        reloaded.epoch() > before,
        "reload regressed the epoch: {} -> {}",
        before,
        reloaded.epoch()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance scenario: a snapshot directory with healthy files and
/// one corrupt file boots into a catalog serving the healthy ones, with
/// the quarantine visible in `STATS`.
#[test]
fn warm_start_quarantines_corrupt_and_serves_the_rest() {
    let dir = temp_dir("quarantine");
    let source = Catalog::new();
    for (name, doc) in [
        ("fig2", xmlkit::samples::figure2_document()),
        ("fig4", xmlkit::samples::figure4_document()),
    ] {
        source.insert(name, XseedSynopsis::build(&doc, XseedConfig::default()));
        source
            .save_snapshot(name, &dir.join(format!("{name}.xsnap")))
            .unwrap();
    }
    // One corrupt file: right magic, garbage after it.
    std::fs::write(dir.join("broken.xsnap"), b"XSEEDSNP garbage").unwrap();

    let catalog = Arc::new(Catalog::new());
    let warm = warm_start(&catalog, &dir).unwrap();
    assert_eq!(warm.loaded, vec!["fig2".to_string(), "fig4".to_string()]);
    assert_eq!(warm.quarantined, vec!["broken.xsnap".to_string()]);
    assert!(dir.join("broken.xsnap.corrupt").exists());

    let service = Service::new(catalog, ServiceConfig::with_workers(1));
    service.note_warm_start(&warm);
    let options = ProtocolOptions::local();
    let est = handle_line(&service, "EST fig2 /a/c/s", &options);
    assert_eq!(est.text().unwrap(), "OK 5");
    let stats = handle_line(&service, "STATS", &options)
        .text()
        .unwrap()
        .to_string();
    assert!(stats.contains("persist_loads=2"), "{stats}");
    assert!(stats.contains("persist_load_failures=1"), "{stats}");
    assert!(stats.contains("quarantined=1"), "{stats}");
    let json = handle_line(&service, "STATS json", &options)
        .text()
        .unwrap()
        .to_string();
    assert!(json.contains("\"quarantined\":1"), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}
