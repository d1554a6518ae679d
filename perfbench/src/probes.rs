//! Isolated single-layer probes of the traced run.
//!
//! * `lang.vm_ns_per_step` — `ThreadVm::step` on the workload's own
//!   compiled objects and request arguments, every action granted at
//!   once (no scheduler, no event queue), VMs pooled like the engine's;
//! * `sim.queue_ns_per_op` — `EventQueue` pop + push in steady state,
//!   fed the workload's own delay mix: the compute and nested-call
//!   durations its VMs emit, zero for every other action (scheduler
//!   steps), one LAN hop per request and, for open-loop clients, the gaps
//!   between their scripted arrivals;
//! * `obs.*` — engine tracing on against off on one Figure-1 cell, and
//!   the cost of turning its records into a contention profile and a
//!   Chrome trace.
//!
//! Each probe times batches with tracing off and reports the median
//! batch; one extra sample pass then records a span per call.

use crate::span::Tracer;
use crate::stats::median;
use crate::Metrics;
use dmt_core::SchedulerKind;
use dmt_lang::{Action, CompiledObject, MethodIdx, ObjectState, RequestArgs, StepOutcome, VmPool};
use dmt_obs::{chrome_trace_json, ContentionProfile};
use dmt_replica::{Engine, EngineConfig, Scenario};
use dmt_sim::{EventQueue, SimDuration};
use dmt_workload::ScenarioPair;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCHES: usize = 7;

/// Runs `f` (one unit of work returning its op count) in `BATCHES`
/// batches of about `budget / BATCHES` each; returns the median ns/op.
fn time_batches(budget: Duration, mut f: impl FnMut() -> u64) -> f64 {
    let per_batch = budget / BATCHES as u32;
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        let mut ops = 0;
        loop {
            ops += f();
            if t.elapsed() >= per_batch {
                break;
            }
        }
        samples.push(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&mut samples)
}

struct Corpus {
    program: Arc<CompiledObject>,
    this: dmt_lang::MutexId,
    requests: Vec<(MethodIdx, RequestArgs)>,
}

impl Corpus {
    fn of(s: &Scenario) -> Self {
        Corpus {
            program: s.program.clone(),
            this: s.this_mutex(),
            requests: s
                .clients
                .iter()
                .flat_map(|c| c.requests.iter().cloned())
                .collect(),
        }
    }

    /// Runs every request to completion on one object state; returns
    /// the steps taken. `delays` collects the queue delay each action
    /// stands for.
    fn run(&self, pool: &mut VmPool, tr: &mut Tracer, mut delays: Option<&mut Vec<u64>>) -> u64 {
        let mut state = ObjectState::for_object(&self.program, self.this);
        let mut steps = 0;
        for (method, args) in &self.requests {
            let mut vm = pool.acquire(self.program.clone(), *method, args);
            loop {
                let t = tr.open("lang.step");
                let out = vm.step(&mut state);
                tr.close(t);
                match out {
                    StepOutcome::Action(a) => {
                        if let Some(d) = delays.as_deref_mut() {
                            d.push(match a {
                                Action::Compute { dur_ns } | Action::Nested { dur_ns, .. } => {
                                    dur_ns
                                }
                                _ => 0,
                            });
                        }
                    }
                    StepOutcome::Finished => break,
                    StepOutcome::Faulted(f) => panic!("workload object faulted: {f}"),
                }
            }
            steps += vm.steps();
            pool.release(vm);
        }
        black_box(state.state_hash());
        steps
    }
}

/// The VM-step and event-queue probes over `scenarios`.
pub fn vm_and_queue(scenarios: &[Scenario], smoke: bool, tr: &mut Tracer, m: &mut Metrics) {
    let budget = Duration::from_millis(if smoke { 7 } else { 350 });
    let corpora: Vec<Corpus> = scenarios.iter().map(Corpus::of).collect();
    let mut pool = VmPool::new();
    let traced = tr.is_on();

    tr.set_on(false);
    let ns_step = time_batches(budget, || {
        corpora.iter().map(|c| c.run(&mut pool, tr, None)).sum()
    });
    m.set("lang.vm_ns_per_step", ns_step, "ns");
    tr.set_on(traced);
    let mut delays = Vec::new();
    for c in &corpora {
        c.run(&mut pool, tr, Some(&mut delays));
    }
    tr.end_job();

    // One LAN hop per request, and the open-loop arrival gaps.
    let hop = dmt_groupcomm::NetConfig::lan().one_way.as_nanos();
    let mut clients = 0;
    for s in scenarios {
        for c in &s.clients {
            clients += 1;
            delays.extend(std::iter::repeat_n(hop, c.requests.len()));
            if let Some(arrivals) = &c.arrivals {
                let mut last = 0;
                for a in arrivals {
                    delays.push(a.as_nanos() - last);
                    last = a.as_nanos();
                }
            }
        }
    }
    let mix = interleave(&delays);
    let population = clients.clamp(1, 4096);
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut next = 0;
    let mut delay = || {
        next = (next + 1) % mix.len();
        SimDuration::from_nanos(mix[next])
    };
    for e in 0..population as u32 {
        q.push_after(delay(), e);
    }
    tr.set_on(false);
    let ns_op = time_batches(budget, || {
        for _ in 0..1024 {
            let (_, e) = q.pop().expect("steady population");
            q.push_after(delay(), black_box(e));
        }
        2048
    });
    m.set("sim.queue_ns_per_op", ns_op, "ns");
    tr.set_on(traced);
    for _ in 0..if smoke { 256 } else { 16_384 } {
        let (_, e) = tr.span("sim.pop", || q.pop()).expect("steady population");
        tr.span("sim.push", || q.push_after(delay(), e));
    }
    tr.end_job();
}

/// Spreads the delay list so that consecutive draws come from different
/// requests (a fixed stride coprime to the length), keeping the mix.
fn interleave(delays: &[u64]) -> Vec<u64> {
    let n = delays.len().max(1);
    let mut stride = 7919 % n;
    while stride == 0 || gcd(stride, n) != 1 {
        stride += 1;
    }
    (0..delays.len()).map(|i| delays[i * stride % n]).collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Engine tracing overhead and trace-export costs on one Figure-1 cell
/// under MAT.
pub fn obs(
    pair: &ScenarioPair,
    seed: u64,
    smoke: bool,
    tr: &mut Tracer,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) {
    let kind = SchedulerKind::Mat;
    let reps = if smoke { 1 } else { 7 };
    let cfg = EngineConfig::new(kind)
        .with_seed(seed)
        .with_cpu_jitter(0.05);
    let (mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let mut records = Vec::new();
    for _ in 0..reps {
        for traced in [false, true] {
            let scenario = pair.for_kind(kind);
            let cfg = if traced {
                cfg.clone().with_tracing()
            } else {
                cfg.clone()
            };
            let t = Instant::now();
            let res = Engine::new(scenario, cfg).run();
            let ns = t.elapsed().as_nanos() as f64;
            if traced {
                traced_ns.push(ns);
                if res.trace_records.is_empty() {
                    problems.push("engine tracing recorded nothing".into());
                }
                records = res.trace_records;
            } else {
                plain_ns.push(ns);
            }
        }
    }
    m.set(
        "obs.trace_overhead_pct",
        100.0 * (median(&mut traced_ns) / median(&mut plain_ns) - 1.0),
        "%",
    );
    let (mut profile_ms, mut chrome_ms) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let t = Instant::now();
        let p = tr.span("obs.profile", || {
            ContentionProfile::from_records(&records, 0)
        });
        profile_ms.push(t.elapsed().as_secs_f64() * 1e3);
        black_box(p.grants_total());
        let t = Instant::now();
        let json = tr.span("obs.chrome", || chrome_trace_json(&records));
        chrome_ms.push(t.elapsed().as_secs_f64() * 1e3);
        black_box(json.len());
        tr.end_job();
    }
    m.set("obs.profile_ms", median(&mut profile_ms), "ms");
    m.set("obs.chrome_ms", median(&mut chrome_ms), "ms");
}
