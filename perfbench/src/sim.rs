//! The monolithic-engine workloads: `fig1_closed` and `openloop_faults`.
//!
//! A job is `Engine::new` + `Engine::run` + the correctness gate
//! ([`run_passes`]) on one (scenario, scheduler, fault plan) cell. The
//! scenario clone the engine consumes is made before the clock starts.

use crate::span::Tracer;
use crate::{probes, shard, Bench, Job, Metrics, Pass, Phase};
use dmt_bench::faults::scenario_config;
use dmt_bench::FAULT_SCENARIOS;
use dmt_core::SchedulerKind;
use dmt_replica::{check_fault_convergence, Engine, EngineConfig, FaultRecordKind, RunResult};
use dmt_sim::SimTime;
use dmt_workload::fig1::Fig1Params;
use dmt_workload::openloop::OpenLoopParams;
use dmt_workload::{fig1, openloop, ScenarioPair};
use std::time::Instant;

/// Virtual closed-loop client counts of `fig1_closed` (the paper's axis).
pub const FIG1_CLIENTS: [usize; 7] = [1, 2, 4, 8, 16, 24, 32];
/// Requests per cell: every client count shares them out, so each
/// client sends `FIG1_REQUESTS / clients` (8 to 256; the published
/// artifact uses 4) and every cell is a job of similar size.
pub const FIG1_REQUESTS: usize = 256;
/// Offered rates of `openloop_faults`, requests per virtual second:
/// below, at and above SEQ/SAT saturation.
pub const OPENLOOP_RATES: [f64; 3] = [400.0, 1600.0, 6400.0];
/// Repetitions of each cell the host-time metrics keep (the fastest):
/// 196 kept jobs on `fig1_closed`, 312 on `openloop_faults`.
pub const FIG1_KEEP: usize = 4;
pub const OPENLOOP_KEEP: usize = 1;
/// Open-loop clients per cell, and requests each.
pub const OPENLOOP_CLIENTS: usize = 8;
pub const OPENLOOP_REQUESTS_PER_CLIENT: usize = 100;

/// The Figure-1 parameters of one client count.
pub fn fig1_params(seed: u64, n_clients: usize, requests_per_client: usize) -> Fig1Params {
    Fig1Params {
        requests_per_client,
        ..Fig1Params::default()
            .with_clients(n_clients)
            .with_seed(seed.wrapping_mul(1000).wrapping_add(n_clients as u64))
    }
}

/// The open-loop request mixes: at every rate, a write-heavy bursty
/// Zipf-skewed mix and a read-heavy Poisson uniform one.
pub fn openloop_mixes(seed: u64, smoke: bool) -> Vec<OpenLoopParams> {
    let (clients, per_client) = if smoke {
        (2, 5)
    } else {
        (OPENLOOP_CLIENTS, OPENLOOP_REQUESTS_PER_CLIENT)
    };
    let base = OpenLoopParams {
        n_clients: clients,
        requests_per_client: per_client,
        ..OpenLoopParams::default()
    };
    let mut out = Vec::new();
    for (i, &rps) in OPENLOOP_RATES.iter().enumerate() {
        let mix_seed = |k: u64| seed.wrapping_mul(101).wrapping_add(2 * i as u64 + k);
        out.push(
            base.with_offered_rps(rps)
                .with_read_fraction(0.5)
                .with_bursts(4, 8)
                .with_zipf(0.9)
                .with_seed(mix_seed(0)),
        );
        out.push(
            base.with_offered_rps(rps)
                .with_read_fraction(0.9)
                .with_seed(mix_seed(1)),
        );
    }
    out
}

/// One (scenario, scheduler, fault plan) cell.
struct Cell {
    pair: usize,
    kind: SchedulerKind,
    /// A name from [`FAULT_SCENARIOS`], or `None` for the fault-free plan.
    plan: Option<&'static str>,
}

pub struct SimBench {
    fig1: bool,
    seed: u64,
    smoke: bool,
    pairs: Vec<ScenarioPair>,
    cells: Vec<Cell>,
    scenario_ms: f64,
}

impl SimBench {
    pub fn fig1(seed: u64, smoke: bool, tr: &mut Tracer) -> Self {
        let clients: &[usize] = if smoke { &[1, 4] } else { &FIG1_CLIENTS };
        let requests = if smoke { 8 } else { FIG1_REQUESTS };
        let t = Instant::now();
        let pairs: Vec<ScenarioPair> = clients
            .iter()
            .map(|&n| {
                tr.span("workload.scenario", || {
                    fig1::scenario(&fig1_params(seed, n, requests / n))
                })
            })
            .collect();
        let scenario_ms = t.elapsed().as_secs_f64() * 1e3;
        let cells = (0..pairs.len())
            .flat_map(|pair| {
                SchedulerKind::DETERMINISTIC.iter().map(move |&kind| Cell {
                    pair,
                    kind,
                    plan: None,
                })
            })
            .collect();
        SimBench {
            fig1: true,
            seed,
            smoke,
            pairs,
            cells,
            scenario_ms,
        }
    }

    pub fn openloop(seed: u64, smoke: bool, tr: &mut Tracer) -> Self {
        let t = Instant::now();
        let pairs: Vec<ScenarioPair> = openloop_mixes(seed, smoke)
            .iter()
            .map(|p| tr.span("workload.scenario", || openloop::scenario(p)))
            .collect();
        let scenario_ms = t.elapsed().as_secs_f64() * 1e3;
        let plans: Vec<(Option<&'static str>, bool)> = std::iter::once((None, false))
            .chain(
                FAULT_SCENARIOS
                    .iter()
                    .map(|s| (Some(s.name), s.needs_recovery)),
            )
            .collect();
        let mut cells = Vec::new();
        for pair in 0..pairs.len() {
            for kind in SchedulerKind::DETERMINISTIC {
                for &(plan, needs_recovery) in &plans {
                    if !needs_recovery || kind.supports_recovery() {
                        cells.push(Cell { pair, kind, plan });
                    }
                }
            }
        }
        SimBench {
            fig1: false,
            seed,
            smoke,
            pairs,
            cells,
            scenario_ms,
        }
    }

    fn config(&self, cell: &Cell) -> EngineConfig {
        match cell.plan {
            Some(name) => scenario_config(name, cell.kind, self.seed),
            None if self.fig1 => EngineConfig::new(cell.kind)
                .with_seed(self.seed)
                .with_cpu_jitter(0.05),
            None => EngineConfig::new(cell.kind)
                .with_seed(self.seed)
                .with_cpu_jitter(0.1),
        }
    }
}

/// The correctness gate of one run: it did not stall, every submitted
/// request completed, and the replicas agree at the scheduler's match
/// level (survivors fully, recovered replicas on state hash).
pub fn run_passes(res: &RunResult, kind: SchedulerKind, submitted: u64) -> bool {
    !res.deadlocked
        && res.completed_requests == submitted
        && check_fault_convergence(res, kind).converged()
}

/// Runs one gated engine job on `scenario`.
pub fn engine_job(
    scenario: dmt_replica::Scenario,
    kind: SchedulerKind,
    cfg: EngineConfig,
    tr: &mut Tracer,
) -> (RunResult, Job) {
    let attempted = scenario.total_requests() as u64;
    let t0 = Instant::now();
    let root = tr.open("job");
    let engine = tr.span("replica.engine_new", || Engine::new(scenario, cfg));
    let res = tr.span("replica.run", || engine.run());
    let ok = tr.span("replica.check", || run_passes(&res, kind, attempted));
    tr.close(root);
    let job = Job {
        ns: t0.elapsed().as_nanos() as u64,
        run_ns: res.perf.wall_ns,
        events: res.perf.events,
        attempted,
        completed: res.completed_requests,
        failed: if ok { 0 } else { attempted },
        class: SchedulerKind::DETERMINISTIC
            .iter()
            .position(|&k| k == kind)
            .unwrap_or(0),
        reference: false,
        ..Job::default()
    };
    (res, job)
}

/// Folds one run's deterministic outputs into the pass: latency stream,
/// replica state hashes and event counts into the digest; counters,
/// fault-lifecycle samples and the latency histogram alongside.
pub fn fold_run(res: &RunResult, pass: &mut Pass) {
    let d = &mut pass.digest;
    d.word(res.completed_requests);
    d.word(res.perf.events);
    d.word(res.makespan.as_nanos());
    for l in &res.latencies {
        d.word((u64::from(l.id.client) << 32) | u64::from(l.id.req_no));
        d.word(l.enqueued.as_nanos());
        d.word(l.replied.as_nanos());
    }
    for t in &res.traces {
        d.word(t.state_hash);
        d.word(t.finished_threads);
        d.word(t.lock_order.len() as u64);
    }
    let p = &res.perf;
    for (k, v) in [
        ("events", p.events),
        ("sched_events", p.sched_events),
        ("sched_actions", p.sched_actions),
        ("vm_steps", p.vm_steps),
        ("fused_steps", p.fused_steps),
        ("batched_steps", p.batched_steps),
        ("fused_grants", p.fused_grants),
        ("vm_allocs", p.vm_allocs),
        ("vm_reuses", p.vm_reuses),
        ("completed", res.completed_requests),
        ("dummy", res.dummy_requests),
        ("ctrl", res.ctrl_messages),
        ("legs", res.net_legs()),
        ("deliveries", res.net_counter("deliveries")),
        ("dup_dropped", res.net_counter("dup_dropped")),
        ("held_back", res.net_counter("held_back")),
    ] {
        pass.add(k, v as f64);
    }
    for (i, rec) in res.fault_log.iter().enumerate() {
        if let FaultRecordKind::Recovered { .. } = rec.kind {
            pass.add("recoveries", 1.0);
            let crashed: Option<SimTime> = res.fault_log[..i]
                .iter()
                .rev()
                .find(|c| c.replica == rec.replica && matches!(c.kind, FaultRecordKind::Crashed))
                .map(|c| c.at);
            if let Some(t0) = crashed {
                pass.sample("recovery_ms", rec.at.since(t0).as_nanos() as f64 / 1e6);
            }
        }
    }
    if let Some(gap) = res.takeover_gap {
        pass.sample("takeover_ms", gap.as_nanos() as f64 / 1e6);
    }
    pass.latency.merge(&res.latency);
}

/// Per-layer metrics every simulated workload shares: engine, scheduler,
/// VM and group-communication counters of one pass, and span means.
pub fn engine_layers(phase: &Phase, tr: &Tracer, m: &mut Metrics) {
    let p = &phase.first;
    let per_req = |k: &str| p.ratio(k, "completed");
    let span_ms = |name: &str| {
        let t = tr.totals(name);
        t.total_ns as f64 / 1e6 / t.count.max(1) as f64
    };
    let (run_ns, events) = phase
        .kept
        .iter()
        .fold((0u64, 0u64), |(r, e), j| (r + j.run_ns, e + j.events));
    m.set("replica.engine_new_ms", span_ms("replica.engine_new"), "ms");
    m.set("replica.run_ms", span_ms("replica.run"), "ms");
    m.set("replica.check_ms", span_ms("replica.check"), "ms");
    m.set(
        "replica.ns_per_event",
        run_ns as f64 / events.max(1) as f64,
        "ns",
    );
    m.set("replica.events_per_req", per_req("events"), "count");
    m.set(
        "replica.batched_ratio",
        p.ratio("batched_steps", "events"),
        "ratio",
    );
    m.set(
        "replica.fused_grant_ratio",
        p.ratio("fused_grants", "batched_steps"),
        "ratio",
    );
    m.set("replica.dummy_per_req", per_req("dummy"), "count");
    m.set("replica.ctrl_per_req", per_req("ctrl"), "count");
    m.set("replica.fault.recoveries", p.count("recoveries"), "count");
    m.set(
        "replica.fault.recovery_virt_ms_p50",
        p.median_of("recovery_ms"),
        "ms",
    );
    m.set(
        "replica.takeover_gap_virt_ms",
        p.median_of("takeover_ms"),
        "ms",
    );
    m.set(
        "core.sched_fanout",
        p.ratio("sched_events", "events"),
        "ratio",
    );
    m.set(
        "core.sched_actions_per_req",
        per_req("sched_actions"),
        "count",
    );
    m.set("lang.vm_steps_per_req", per_req("vm_steps"), "count");
    m.set(
        "lang.fused_ratio",
        p.ratio("fused_steps", "vm_steps"),
        "ratio",
    );
    let vms = p.count("vm_allocs") + p.count("vm_reuses");
    m.set(
        "lang.vm_reuse_ratio",
        if vms == 0.0 {
            0.0
        } else {
            p.count("vm_reuses") / vms
        },
        "ratio",
    );
    m.set("groupcomm.legs_per_req", per_req("legs"), "count");
    m.set(
        "groupcomm.deliveries_per_req",
        per_req("deliveries"),
        "count",
    );
    m.set("groupcomm.dup_dropped", p.count("dup_dropped"), "count");
    m.set("groupcomm.held_back", p.count("held_back"), "count");
}

impl Bench for SimBench {
    fn jobs(&self) -> usize {
        self.cells.len()
    }

    fn keep(&self) -> usize {
        if self.fig1 {
            FIG1_KEEP
        } else {
            OPENLOOP_KEEP
        }
    }

    fn classes(&self) -> Vec<String> {
        SchedulerKind::DETERMINISTIC
            .iter()
            .map(|k| k.name().to_string())
            .collect()
    }

    fn run_job(&mut self, j: usize, tr: &mut Tracer, pass: &mut Pass) -> Job {
        let cell = &self.cells[j];
        let scenario = self.pairs[cell.pair].for_kind(cell.kind);
        let (res, job) = engine_job(scenario, cell.kind, self.config(cell), tr);
        fold_run(&res, pass);
        job
    }

    fn scenario_ms(&self) -> f64 {
        self.scenario_ms
    }

    fn probes(&mut self, tr: &mut Tracer, m: &mut Metrics, problems: &mut Vec<String>) {
        let plain: Vec<_> = self.pairs.iter().map(|p| p.plain.clone()).collect();
        probes::vm_and_queue(&plain, self.smoke, tr, m);
        if self.fig1 {
            // The 16-client point (the largest one in smoke mode).
            let pair = &self.pairs[self.pairs.len().min(5) - 1];
            probes::obs(pair, self.seed, self.smoke, tr, m, problems);
        } else {
            shard::probe(self.seed, self.smoke, tr, m, problems);
        }
    }

    fn layers(&self, phase: &Phase, tr: &Tracer, m: &mut Metrics) {
        engine_layers(phase, tr, m);
        for (i, k) in SchedulerKind::DETERMINISTIC.iter().enumerate() {
            m.set(
                format!("core.{k}.us_per_req"),
                phase.class_us_per_req(i),
                "us",
            );
        }
    }
}
