//! Tests of the benchmark's own code: determinism, seed sensitivity,
//! percentiles, the EM3D generator against the repository's, and a
//! small-shape smoke run of every workload.

use cluster::ManagerKind;
use perfbench::report::{json_line, per_layer};
use perfbench::run::{quantile, run_rep, Timing};
use perfbench::shape::{
    em3d_patterns, em3d_placement, scan_thinks, zipf_inputs, Em3dShape, Shape, Workload,
};
use workloads::{em3d_run_probed, Em3dSpec};

fn em3d_shape(nodes: u16, iterations: u32) -> Em3dShape {
    Em3dShape {
        nodes,
        cells_per_node: 200,
        edges_per_cell: 6,
        pct_remote: 0.20,
        window: 100,
        iterations,
        scatter: false,
    }
}

fn em3d_spec(nodes: u16, iterations: u32, seed: u64) -> Em3dSpec {
    Em3dSpec {
        kind: ManagerKind::asvm(),
        nodes,
        cells: 200 * nodes as u64,
        edges_per_cell: 6,
        pct_remote: 0.20,
        iterations,
        window: 100,
        seed,
        mem_32mb: false,
    }
}

#[test]
fn same_seed_gives_identical_simulated_results() {
    for w in Workload::ALL {
        let shape = Shape::tiny(w);
        let a = run_rep(&shape, 7, Timing::Warmup);
        let b = run_rep(&shape, 7, Timing::Warmup);
        assert_eq!(a.sim, b.sim, "{}", w.name());
    }
}

#[test]
fn a_second_seed_changes_the_inputs() {
    // At 200 cells per node the edges hit every page of the window, so
    // the EM3D page pattern barely moves with the seed; the placement of
    // blocks on the mesh does.
    let Shape::Em3d(e) = Shape::tiny(Workload::Em3d) else {
        unreachable!()
    };
    assert_ne!(em3d_placement(&e, 1), em3d_placement(&e, 2));
    let sparse = Em3dShape {
        pct_remote: 0.02,
        ..e
    };
    let remote = |seed| -> Vec<Vec<u64>> {
        em3d_patterns(&sparse, seed)
            .into_iter()
            .map(|p| p.remote_pages)
            .collect()
    };
    assert_ne!(remote(1), remote(2));
    let Shape::ZipfRw(z) = Shape::tiny(Workload::ZipfRw) else {
        unreachable!()
    };
    assert_ne!(zipf_inputs(&z, 1), zipf_inputs(&z, 2));
    let Shape::ScanEvict(s) = Shape::tiny(Workload::ScanEvict) else {
        unreachable!()
    };
    assert_ne!(scan_thinks(&s, 1), scan_thinks(&s, 2));
    for w in Workload::ALL {
        let shape = Shape::tiny(w);
        assert_ne!(
            run_rep(&shape, 1, Timing::Warmup).sim,
            run_rep(&shape, 2, Timing::Warmup).sim,
            "{}",
            w.name()
        );
    }
}

#[test]
fn quantile_of_no_samples_is_none() {
    for q in [500, 990, 999] {
        assert_eq!(quantile(&[], q), None);
    }
}

#[test]
fn quantile_of_one_sample_is_unresolved() {
    // Nothing lies above the only sample, so no quantile is resolvable.
    for q in [500, 990, 999] {
        assert_eq!(quantile(&[42], q), None);
    }
    assert_eq!(quantile(&[1, 2], 500), Some(1));
}

#[test]
fn quantile_needs_a_sample_above_its_rank() {
    let v: Vec<u64> = (1..=999).collect();
    assert_eq!(quantile(&v, 500), Some(500));
    assert_eq!(quantile(&v, 990), Some(990));
    assert_eq!(quantile(&v, 999), None, "999 samples cannot resolve p99.9");
    let v: Vec<u64> = (1..=99).collect();
    assert_eq!(quantile(&v, 990), None, "99 samples cannot resolve p99");
    let v: Vec<u64> = (1..=1000).collect();
    assert_eq!(quantile(&v, 999), Some(999));
    assert_eq!(quantile(&v, 990), Some(990));
    assert_eq!(quantile(&v, 500), Some(500));
}

#[test]
fn em3d_generator_matches_the_repository_workload() {
    for seed in [1996, 5] {
        let rep = run_rep(&Shape::Em3d(em3d_shape(64, 2)), seed, Timing::Warmup);
        let (out, _) = em3d_run_probed(em3d_spec(64, 2, seed));
        assert_eq!(rep.sim.events_total, out.events, "seed {seed}");
        assert_eq!(rep.sim.faults, out.faults, "seed {seed}");
        assert_eq!(rep.failed, 0);
    }
}

#[test]
fn em3d_reproduces_the_megascale_cell() {
    // The `em3d ASVM 1024n` cell of BENCH_megascale.json: 3 iterations,
    // seed 1996, block i on node i.
    let rep = run_rep(&Shape::Em3d(em3d_shape(1024, 3)), 1996, Timing::Warmup);
    assert_eq!(rep.sim.events_total, 314_081);
    assert_eq!(rep.failed, 0, "{:?}", rep.problems);
}

#[test]
fn tiny_shapes_run_clean_traced_and_untraced() {
    for w in Workload::ALL {
        let shape = Shape::tiny(w);
        let plain = run_rep(&shape, 3, Timing::Plain);
        let traced = run_rep(&shape, 3, Timing::Traced);
        for rep in [&plain, &traced] {
            assert!(rep.problems.is_empty(), "{}: {:?}", w.name(), rep.problems);
            assert_eq!(rep.failed, 0);
            assert!(rep.attempted > 0 && rep.sim.accesses == rep.attempted);
            assert!(rep.sim.faults > 0 && rep.sim.makespan_ns > 0);
        }
        let layers = per_layer(&[plain], &[traced]).expect("traced run reproduces");
        let get = |name: &str| layers.iter().find(|m| m.name == name).unwrap().value;
        assert!(get("core.engine_ns_per_event") > 0.0, "{}", w.name());
        assert!(get("sim.events_per_access") > 0.0);
        let line = json_line(true, 1, 0, &layers);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
    }
}

#[test]
fn scan_reads_each_file_from_disk_once_per_pass() {
    let Shape::ScanEvict(s) = Shape::tiny(Workload::ScanEvict) else {
        unreachable!()
    };
    let rep = run_rep(&Shape::ScanEvict(s), 11, Timing::Warmup);
    assert_eq!(rep.sim.data_requests, (s.file_pages * s.passes) as u64);
}

/// `"name": "<name>"` followed, within its entry, by `"unit": "<unit>"`.
fn listed(manifest: &str, name: &str, unit: &str) -> bool {
    let Some(at) = manifest.find(&format!("\"name\": \"{name}\"")) else {
        return false;
    };
    let entry = &manifest[at..];
    let end = entry.find('}').unwrap_or(entry.len());
    entry[..end].contains(&format!("\"unit\": \"{unit}\""))
}

#[test]
fn printed_metrics_are_the_manifest_metrics() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json beside the benchmark directory");
    // Enough stalled accesses to resolve p99.9.
    let Shape::ZipfRw(z) = Shape::tiny(Workload::ZipfRw) else {
        unreachable!()
    };
    let shape = Shape::ZipfRw(perfbench::shape::ZipfShape {
        nodes: 8,
        ops_per_node: 400,
        ..z
    });
    let plain = run_rep(&shape, 5, Timing::Plain);
    let traced = run_rep(&shape, 5, Timing::Traced);
    let e2e = perfbench::report::end_to_end(std::slice::from_ref(&plain), 1.0).expect("resolvable");
    let layers = per_layer(&[plain], &[traced]).expect("traced run reproduces");
    for m in e2e.iter().chain(&layers) {
        assert!(
            listed(&manifest, m.name, m.unit),
            "{} [{}] not in BENCHMARK.json",
            m.name,
            m.unit
        );
    }
    let count = |section: &str| {
        let start = manifest.find(&format!("\"{section}\"")).unwrap();
        manifest[start..]
            .split(']')
            .next()
            .unwrap()
            .matches("\"name\"")
            .count()
    };
    assert_eq!(count("end_to_end"), e2e.len());
    assert_eq!(count("per_layer"), layers.len());
}
