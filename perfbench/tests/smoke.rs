//! The benchmark's own tests: every workload runs at tiny size in both
//! modes and prints every metric it promises, with a unit; the
//! correctness gate rejects a deliberately broken transport; and
//! `BENCHMARK.json` names exactly the metrics the benchmark emits.

use dmt_bench::faults::scenario_config;
use dmt_core::SchedulerKind;
use dmt_perfbench::sim::{engine_job, openloop_mixes};
use dmt_perfbench::span::Tracer;
use dmt_perfbench::{layer_metric_names, run, Options, Report, END_TO_END, WORKLOADS};
use dmt_workload::openloop;

fn smoke(workload: &str, trace: bool) -> Report {
    let o = Options {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.0,
        trace,
        smoke: true,
    };
    run(&o).expect("known workload")
}

/// The value printed for `name`, checking the line carries a unit.
fn printed(r: &Report, name: &str) -> Option<f64> {
    r.lines.iter().find_map(|l| {
        let rest = l.strip_prefix(name)?.strip_prefix(" = ")?;
        let mut parts = rest.split_whitespace();
        let value: f64 = parts.next()?.parse().ok()?;
        let unit = parts.next().expect("metric printed without a unit");
        assert!(
            !unit.is_empty() && !unit.starts_with('('),
            "{name}: no unit"
        );
        Some(value)
    })
}

/// Every end-to-end metric the benchmark prints for a workload.
fn printed_e2e(workload: &str) -> Vec<&'static str> {
    let mut v = vec![
        "req_per_s",
        "us_per_req_p50",
        "us_per_req_tail",
        "setup_s",
        "peak_rss_mb",
        "fail_ratio",
    ];
    if workload == "rt_lock" {
        v.extend(["locks_per_s", "lock_ns_p50", "lock_ns_tail"]);
    } else {
        v.extend(["virt_latency_ms_p50", "virt_latency_ms_p99"]);
    }
    v
}

#[test]
fn every_workload_prints_every_metric_with_a_unit() {
    for w in WORKLOADS {
        let untraced = smoke(w, false);
        assert!(untraced.correct, "{w}: {:?}", untraced.problems);
        for name in printed_e2e(w) {
            assert!(printed(&untraced, name).is_some(), "{w}: {name} missing");
        }
        assert_eq!(printed(&untraced, "fail_ratio"), Some(0.0), "{w}");
        let names: Vec<&str> = untraced.metrics.iter().map(|m| m.0.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{w}: end-to-end JSON metrics");
        for (name, value, _) in untraced.metrics.iter() {
            assert!(*value > 0.0, "{w}: end-to-end metric {name} is {value}");
        }

        let traced = smoke(w, true);
        assert!(traced.correct, "{w}: {:?}", traced.problems);
        assert_eq!(traced.digest, untraced.digest, "{w}: digest moved");
        for (name, unit) in layer_metric_names() {
            assert!(printed(&traced, &name).is_some(), "{w}: {name} missing");
            let (_, _, u) = traced
                .metrics
                .iter()
                .find(|m| m.0 == name)
                .unwrap_or_else(|| panic!("{w}: {name} not in JSON"));
            assert_eq!(*u, unit, "{w}: {name}");
        }
        let json = traced.json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn layers_report_the_work_each_workload_exercises() {
    let fig1 = smoke("fig1_closed", true);
    for name in [
        "replica.run_ms",
        "replica.events_per_req",
        "lang.vm_ns_per_step",
        "sim.queue_ns_per_op",
        "obs.chrome_ms",
        "core.PMAT.us_per_req",
    ] {
        assert!(fig1.metrics.get(name).unwrap() > 0.0, "fig1_closed: {name}");
    }
    let faults = smoke("openloop_faults", true);
    for name in [
        "replica.fault.recoveries",
        "groupcomm.dup_dropped",
        "groupcomm.held_back",
        "replica.dummy_per_req",
        "replica.ctrl_per_req",
    ] {
        assert!(
            faults.metrics.get(name).unwrap() > 0.0,
            "openloop_faults: {name}"
        );
    }
    for name in [
        "replica.shard.epochs",
        "replica.shard.run_ms",
        "replica.shard.merge_ms",
        "replica.shard.speedup_2w",
    ] {
        assert!(
            faults.metrics.get(name).unwrap() > 0.0,
            "openloop_faults: {name}"
        );
    }
    assert_eq!(faults.metrics.get("replica.shard.msgs_per_req"), Some(2.0));
    assert_eq!(fig1.metrics.get("replica.shard.run_ms"), Some(0.0));
    let rt = smoke("rt_lock", true);
    for name in [
        "rt.MAT.2t.lock_ns_p50",
        "rt.std_mutex_ns_p50",
        "rt.overhead_vs_std",
    ] {
        assert!(rt.metrics.get(name).unwrap() > 0.0, "rt_lock: {name}");
    }
    assert_eq!(rt.metrics.get("replica.run_ms"), Some(0.0));
}

/// The negative control: with at-most-once delivery disabled, the
/// duplicate-delivery adversary's copies re-execute writes, and the
/// job gate must count the run as failed.
#[test]
fn broken_dedup_fails_the_gate() {
    // The benchmark's write-heavy mix at 1600 rps, with every request a write.
    let mix = openloop_mixes(3, false)[2].with_read_fraction(0.0);
    let pair = openloop::scenario(&mix);
    let mut tr = Tracer::new(false);
    for kind in [SchedulerKind::Seq, SchedulerKind::Mat] {
        let cfg = scenario_config("dup_adversary", kind, 3);
        let (_, masked) = engine_job(pair.for_kind(kind), kind, cfg.clone(), &mut tr);
        assert_eq!(masked.failed, 0, "{kind}: masked adversary failed");
        let (_, broken) = engine_job(pair.for_kind(kind), kind, cfg.with_broken_dedup(), &mut tr);
        assert_eq!(
            broken.failed, broken.attempted,
            "{kind}: broken transport passed the gate"
        );
    }
}

/// `BENCHMARK.json` lists exactly the metrics the benchmark emits.
#[test]
fn benchmark_json_matches_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names_in = |section: &str| -> Vec<String> {
        let start = text.find(&format!("\"{section}\"")).expect(section);
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section end")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    };
    let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
    assert_eq!(names_in("end_to_end"), e2e);
    let layers: Vec<String> = layer_metric_names().into_iter().map(|m| m.0).collect();
    assert_eq!(names_in("per_layer"), layers);
    let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    assert_eq!(names_in("workloads"), workloads);
}
