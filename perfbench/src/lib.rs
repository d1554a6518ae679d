//! # dmt-perfbench — host cost per completed request, end to end and per layer
//!
//! One run drives one workload through the dmt crates' public API and
//! reports what a user of the system pays on the host:
//!
//! * **untraced phase** — whole passes over the workload's job list
//!   until `--seconds` have elapsed. Every job is gated (no stall, every
//!   request completed, replicas converged at the scheduler's match
//!   level) and its deterministic outputs are folded into a per-pass
//!   digest, which must not change from pass to pass;
//! * **traced phase** (`--trace 1`) — the same passes with a span around
//!   every call into a crate, plus isolated probes of single layers
//!   (VM step, event queue, trace export, the sharded store). Its digest
//!   must equal the untraced one, and the difference of the two
//!   phases' host cost is reported as the tracing overhead.
//!
//! Workloads: [`sim`] (`fig1_closed`, and `openloop_faults`, whose
//! traced run also probes the [`shard`] layer) and [`rtlock`]
//! (`rt_lock`). See `README.md` in this package for their parameters
//! and the metric definitions.

pub mod probes;
pub mod rtlock;
pub mod shard;
pub mod sim;
pub mod span;
pub mod stats;

use dmt_core::SchedulerKind;
use dmt_sim::LogHistogram;
use span::Tracer;
use stats::{median, median_of_fastest, tail, Digest};
use std::collections::BTreeMap;
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["fig1_closed", "openloop_faults", "rt_lock"];

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs and a single pass per phase (the package's own tests).
    pub smoke: bool,
}

/// One timed job.
#[derive(Clone, Copy, Debug, Default)]
pub struct Job {
    /// Host time of the job (`Engine::new` + run + check, or the
    /// workload's equivalent).
    pub ns: u64,
    /// Host time the engine itself measured for its run loop.
    pub run_ns: u64,
    /// Simulation events processed (0 on real threads).
    pub events: u64,
    /// Requests (lock round-trips on real threads) submitted.
    pub attempted: u64,
    pub completed: u64,
    /// Requests that did not complete or belong to a failed run.
    pub failed: u64,
    /// Index into the workload's job classes (per-kind breakdowns).
    pub class: usize,
    /// A baseline row (FREE, a bare `std::sync::Mutex`): timed and
    /// checked, but left out of the end-to-end aggregates.
    pub reference: bool,
    /// Position of the job in its pass: the same cell in every pass.
    pub cell: usize,
}

impl Job {
    pub fn us_per_req(&self) -> f64 {
        self.ns as f64 / 1e3 / self.completed.max(1) as f64
    }
}

/// Deterministic outputs of one pass: the digest, summed counters,
/// sample lists and the merged virtual-latency histogram.
#[derive(Default)]
pub struct Pass {
    pub digest: Digest,
    counts: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    pub latency: LogHistogram,
}

impl Pass {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_insert(0.0) += v;
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// `count(num) / count(den)`, 0 when the denominator is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.count(den);
        if d == 0.0 {
            0.0
        } else {
            self.count(num) / d
        }
    }

    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    pub fn median_of(&self, key: &str) -> f64 {
        median(&mut self.samples.get(key).cloned().unwrap_or_default())
    }
}

/// A workload: a fixed job list, run in passes.
pub trait Bench {
    /// Jobs in one pass.
    fn jobs(&self) -> usize;
    /// Repetitions of each job (and of set-up) the host-time metrics
    /// keep: the fastest ones. Few enough to stay at the floor that other
    /// tenants' load cannot push down, and enough that at least ten kept
    /// jobs lie beyond the tail.
    fn keep(&self) -> usize;
    /// Names of the job classes [`Job::class`] indexes.
    fn classes(&self) -> Vec<String>;
    fn run_job(&mut self, job: usize, tr: &mut Tracer, pass: &mut Pass) -> Job;
    /// Host time spent building the workload's scenarios in set-up, ms.
    fn scenario_ms(&self) -> f64;
    /// Untimed work on the kept set-up before the first pass (the
    /// reference runs the jobs are checked against).
    fn prepare(&mut self) {}
    /// Isolated single-layer probes (traced run only). Problems found
    /// (a digest that changed with the worker count, …) go to `problems`.
    fn probes(&mut self, tr: &mut Tracer, m: &mut Metrics, problems: &mut Vec<String>);
    /// Per-layer metrics from the untraced phase and the span totals.
    fn layers(&self, phase: &Phase, tr: &Tracer, m: &mut Metrics);
    /// Virtual-time request latency exists (simulated workloads).
    fn simulated(&self) -> bool {
        true
    }
    /// Human-readable extra end-to-end lines (name = value unit).
    fn extra_lines(&self, _phase: &Phase, _lines: &mut Vec<String>) {}
}

/// Builds the named workload at `seed` (the set-up the run times).
fn make(o: &Options, tr: &mut Tracer) -> Result<Box<dyn Bench>, String> {
    Ok(match o.workload.as_str() {
        "fig1_closed" => Box::new(sim::SimBench::fig1(o.seed, o.smoke, tr)),
        "openloop_faults" => Box::new(sim::SimBench::openloop(o.seed, o.smoke, tr)),
        "rt_lock" => Box::new(rtlock::RtBench::new(o.seed, o.smoke)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// `setup_s` is the median of the [`Bench::keep`] fastest set-up
/// repetitions, which are spread through the untraced phase: the copy
/// the jobs use, then after every pass more copies, built and dropped,
/// until they took `SETUP_SHARE` of the pass's time (at least one). On a
/// shared machine the host's speed can switch between states that last
/// seconds, and repetitions made back to back would all sample one of
/// them; keeping the fastest leaves out the ones other tenants slowed
/// down, as [`Phase::kept`] does for the jobs.
const SETUP_SHARE: f64 = 0.125;

/// Set-up repetitions: host seconds and scenario-building ms of each.
#[derive(Default)]
struct Setup {
    seconds: Vec<f64>,
    scenario_ms: Vec<f64>,
}

impl Setup {
    /// Builds the workload once, timed.
    fn build(&mut self, o: &Options, tr: &mut Tracer) -> Result<Box<dyn Bench>, String> {
        let t = Instant::now();
        let b = make(o, tr)?;
        self.seconds.push(t.elapsed().as_secs_f64());
        self.scenario_ms.push(b.scenario_ms());
        Ok(b)
    }
}

/// The jobs and deterministic outputs of one phase.
pub struct Phase {
    /// Every job run; all of them are gated.
    pub jobs: Vec<Job>,
    /// The [`Bench::keep`] fastest repetitions of each cell. Every host
    /// time the run reports comes from these: the work is the same in
    /// every pass, so a slower repetition is one that other tenants of a
    /// shared host slowed down.
    pub kept: Vec<Job>,
    /// The first pass's outputs (every pass must match its digest).
    pub first: Pass,
    pub passes: usize,
    pub digest_stable: bool,
}

impl Phase {
    /// The jobs of the system under test (reference rows excluded).
    fn system_jobs(&self) -> impl Iterator<Item = &Job> {
        self.kept.iter().filter(|j| !j.reference)
    }

    /// Completed requests per host second of job time.
    pub fn req_per_s(&self) -> f64 {
        let (ns, done) = self
            .system_jobs()
            .fold((0u64, 0u64), |(n, d), j| (n + j.ns, d + j.completed));
        done as f64 * 1e9 / ns.max(1) as f64
    }

    /// Host µs per completed request, one sample per job.
    pub fn us_per_req(&self) -> Vec<f64> {
        self.system_jobs().map(Job::us_per_req).collect()
    }

    /// Host µs per completed request over the jobs of one class.
    pub fn class_us_per_req(&self, class: usize) -> f64 {
        let (ns, done) = self
            .kept
            .iter()
            .filter(|j| j.class == class)
            .fold((0u64, 0u64), |(n, d), j| (n + j.ns, d + j.completed));
        if done == 0 {
            0.0
        } else {
            ns as f64 / 1e3 / done as f64
        }
    }

    /// Per-job µs per request of one class, for medians.
    pub fn class_samples(&self, class: usize) -> Vec<f64> {
        self.kept
            .iter()
            .filter(|j| j.class == class)
            .map(Job::us_per_req)
            .collect()
    }
}

/// Runs passes until `seconds` have elapsed; `after_pass` gets each
/// pass's duration, and its own time counts toward `seconds`.
fn run_phase(
    b: &mut dyn Bench,
    seconds: f64,
    tr: &mut Tracer,
    mut after_pass: impl FnMut(f64) -> Result<(), String>,
) -> Result<Phase, String> {
    let start = Instant::now();
    let mut jobs = Vec::new();
    let mut first: Option<Pass> = None;
    let mut passes = 0;
    let mut digest_stable = true;
    loop {
        let mut pass = Pass::default();
        let pass_start = Instant::now();
        for j in 0..b.jobs() {
            jobs.push(Job {
                cell: j,
                ..b.run_job(j, tr, &mut pass)
            });
            tr.end_job();
        }
        match &first {
            None => first = Some(pass),
            Some(f) => digest_stable &= f.digest == pass.digest,
        }
        passes += 1;
        after_pass(pass_start.elapsed().as_secs_f64())?;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(Phase {
        kept: fastest(&jobs, b.keep()),
        jobs,
        first: first.expect("at least one pass"),
        passes,
        digest_stable,
    })
}

/// The `keep` fastest repetitions of every cell, in cell order.
fn fastest(jobs: &[Job], keep: usize) -> Vec<Job> {
    let mut sorted = jobs.to_vec();
    sorted.sort_by_key(|j| (j.cell, j.ns));
    sorted
        .chunk_by(|a, b| a.cell == b.cell)
        .flat_map(|reps| reps.iter().take(keep).copied())
        .collect()
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}

/// Every per-layer metric the traced run reports, with its unit. A
/// workload that does not exercise a layer reports 0 for it.
pub fn layer_metric_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("workload.scenario_ms", "ms"),
        ("replica.engine_new_ms", "ms"),
        ("replica.run_ms", "ms"),
        ("replica.ns_per_event", "ns"),
        ("replica.events_per_req", "count"),
        ("replica.batched_ratio", "ratio"),
        ("replica.fused_grant_ratio", "ratio"),
        ("replica.check_ms", "ms"),
        ("replica.dummy_per_req", "count"),
        ("replica.ctrl_per_req", "count"),
        ("replica.fault.recoveries", "count"),
        ("replica.fault.recovery_virt_ms_p50", "ms"),
        ("replica.takeover_gap_virt_ms", "ms"),
        ("replica.shard.run_ms", "ms"),
        ("replica.shard.merge_ms", "ms"),
        ("replica.shard.epochs", "count"),
        ("replica.shard.msgs_per_req", "count"),
        ("replica.shard.balance_bound", "ratio"),
        ("replica.shard.speedup_2w", "ratio"),
        ("core.sched_fanout", "ratio"),
        ("core.sched_actions_per_req", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for k in SchedulerKind::DETERMINISTIC {
        v.push((format!("core.{k}.us_per_req"), "us"));
    }
    for (n, u) in [
        ("lang.vm_steps_per_req", "count"),
        ("lang.fused_ratio", "ratio"),
        ("lang.vm_reuse_ratio", "ratio"),
        ("lang.vm_ns_per_step", "ns"),
        ("sim.queue_ns_per_op", "ns"),
        ("groupcomm.legs_per_req", "count"),
        ("groupcomm.deliveries_per_req", "count"),
        ("groupcomm.dup_dropped", "count"),
        ("groupcomm.held_back", "count"),
    ] {
        v.push((n.to_string(), u));
    }
    for cell in rtlock::det_cell_names() {
        v.push((format!("rt.{cell}.lock_ns_p50"), "ns"));
    }
    for (n, u) in [
        ("rt.std_mutex_ns_p50", "ns"),
        ("rt.overhead_vs_free", "ratio"),
        ("rt.overhead_vs_std", "ratio"),
        ("locks_per_s", "1/s"),
        ("lock_ns_p50", "ns"),
        ("lock_ns_tail", "ns"),
        ("obs.trace_overhead_pct", "%"),
        ("obs.profile_ms", "ms"),
        ("obs.chrome_ms", "ms"),
        ("virt_latency_ms_p50", "ms"),
        ("virt_latency_ms_p99", "ms"),
        ("bench.span_overhead_pct", "%"),
    ] {
        v.push((n.to_string(), u));
    }
    for s in JOB_SPANS {
        v.push((format!("self.{s}.pct"), "%"));
    }
    for s in PROBE_SPANS {
        v.push((format!("self.{s}.ns_per_call"), "ns"));
    }
    v
}

/// Spans on the timed job path; each one's self time is reported as its
/// share of their summed self times (worker-thread spans included, so
/// the shares add to 100 even when threads overlap).
pub const JOB_SPANS: [&str; 6] = [
    "job",
    "replica.engine_new",
    "replica.run",
    "replica.check",
    "rt.run",
    "rt.sync",
];

/// Spans of the isolated per-call probes; reported as self ns per call.
pub const PROBE_SPANS: [&str; 3] = ["lang.step", "sim.push", "sim.pop"];

/// The end-to-end metrics every workload reports in an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("req_per_s", "1/s"),
    ("us_per_req_p50", "us"),
    ("us_per_req_tail", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Everything one run printed and measured.
pub struct Report {
    /// Human-readable lines, `name = value unit [note]`.
    pub lines: Vec<String>,
    /// The metrics of the closing JSON line.
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub digest: u64,
    pub problems: Vec<String>,
}

impl Report {
    /// The closing JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn line(lines: &mut Vec<String>, name: &str, value: f64, unit: &str) {
    lines.push(format!("{name} = {value} {unit}"));
}

/// Runs one workload as `o` asks.
pub fn run(o: &Options) -> Result<Report, String> {
    // The traced run also records the kept set-up's `scenario` spans.
    let mut tr = Tracer::new(o.trace);
    let mut setup = Setup::default();
    let mut b = setup.build(o, &mut tr)?;
    b.prepare();
    tr.end_job();
    tr.set_on(false);
    let classes = b.classes();

    let seconds = if o.smoke { 0.0 } else { o.seconds };
    let timed_s = if o.trace { seconds / 2.0 } else { seconds };
    // The memory high-water mark is read after every pass and reset
    // after the set-up repetitions that follow it, so it covers the kept
    // set-up and the jobs.
    stats::reset_peak_rss();
    let mut rss: f64 = 0.0;
    let mut off = Tracer::new(false);
    let untraced = run_phase(b.as_mut(), timed_s, &mut tr, |pass_s| {
        rss = rss.max(stats::peak_rss_mb());
        let start = Instant::now();
        loop {
            drop(setup.build(o, &mut off)?);
            if start.elapsed().as_secs_f64() >= SETUP_SHARE * pass_s {
                break;
            }
        }
        stats::reset_peak_rss();
        Ok(())
    })?;
    let setup_s = median_of_fastest(&mut setup.seconds, b.keep());

    let mut problems = Vec::new();
    let mut lines = Vec::new();
    let mut failed: u64 = untraced.jobs.iter().map(|j| j.failed).sum();
    let mut attempted: u64 = untraced.jobs.iter().map(|j| j.attempted).sum();
    if !untraced.digest_stable {
        problems.push("output digest changed between passes".into());
    }

    // End-to-end, from the untraced phase.
    let mut e2e = Metrics::default();
    let mut per_req = untraced.us_per_req();
    let t = tail(&mut per_req.clone());
    e2e.set("req_per_s", untraced.req_per_s(), "1/s");
    e2e.set("us_per_req_p50", median(&mut per_req), "us");
    e2e.set("us_per_req_tail", t.value, "us");
    e2e.set("setup_s", setup_s, "s");
    e2e.set("peak_rss_mb", rss, "MB");
    for (name, v, unit) in e2e.iter() {
        if name == "us_per_req_tail" {
            lines.push(format!(
                "{name} = {v} {unit} (p{:.2}, n={})",
                t.percentile, t.samples
            ));
        } else {
            line(&mut lines, name, *v, unit);
        }
    }
    line(
        &mut lines,
        "fail_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    // The modelled clients' response time, ms (simulated workloads only).
    let h = &untraced.first.latency;
    let virt = b.simulated().then(|| {
        [
            ("virt_latency_ms_p50", h.p50_ns().unwrap_or(0) as f64 / 1e6),
            ("virt_latency_ms_p99", h.p99_ns().unwrap_or(0) as f64 / 1e6),
        ]
    });
    for (name, v) in virt.into_iter().flatten() {
        line(&mut lines, name, v, "ms");
    }
    b.extra_lines(&untraced, &mut lines);
    lines.push(format!(
        "jobs = {} count ({} passes of {} jobs, the fastest {} of each kept)",
        untraced.jobs.len(),
        untraced.passes,
        b.jobs(),
        b.keep()
    ));
    lines.push(format!("setup_reps = {} count", setup.seconds.len()));
    let digest = untraced.first.digest.value();
    lines.push(format!("digest = {digest:016x}"));

    let metrics = if !o.trace {
        e2e
    } else {
        tr.set_on(true);
        let traced = run_phase(b.as_mut(), timed_s, &mut tr, |_| Ok(()))?;
        failed += traced.jobs.iter().map(|j| j.failed).sum::<u64>();
        attempted += traced.jobs.iter().map(|j| j.attempted).sum::<u64>();
        if !traced.digest_stable || traced.first.digest != untraced.first.digest {
            problems.push("traced run's digest differs from the untraced run's".into());
        }
        lines.push(format!(
            "traced_digest = {:016x}",
            traced.first.digest.value()
        ));

        let mut m = Metrics::default();
        for (name, unit) in layer_metric_names() {
            m.set(name, 0.0, unit);
        }
        m.set("workload.scenario_ms", median(&mut setup.scenario_ms), "ms");
        let self_ns: u64 = JOB_SPANS.iter().map(|s| tr.totals(s).self_ns).sum();
        for s in JOB_SPANS {
            let pct = 100.0 * tr.totals(s).self_ns as f64 / self_ns.max(1) as f64;
            m.set(format!("self.{s}.pct"), pct, "%");
        }
        let (p_un, p_tr) = (
            median(&mut untraced.us_per_req()),
            median(&mut traced.us_per_req()),
        );
        m.set("bench.span_overhead_pct", 100.0 * (p_tr / p_un - 1.0), "%");
        for (name, v) in virt.into_iter().flatten() {
            m.set(name, v, "ms");
        }
        b.layers(&untraced, &tr, &mut m);
        b.probes(&mut tr, &mut m, &mut problems);
        for s in PROBE_SPANS {
            let t = tr.totals(s);
            m.set(
                format!("self.{s}.ns_per_call"),
                t.self_ns as f64 / t.count.max(1) as f64,
                "ns",
            );
        }
        let known: Vec<String> = layer_metric_names().into_iter().map(|(n, _)| n).collect();
        for (name, v, unit) in m.iter() {
            assert!(known.contains(name), "unlisted per-layer metric {name}");
            line(&mut lines, name, *v, unit);
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.tsv", o.workload, o.seed));
        match tr.write(&path) {
            Ok(()) => lines.push(format!("spans written to {}", path.display())),
            Err(e) => problems.push(format!("writing {}: {e}", path.display())),
        }
        m
    };
    for c in classes.iter().enumerate().filter_map(|(i, c)| {
        let n = untraced.jobs.iter().filter(|j| j.class == i).count();
        (n == 0).then_some(c)
    }) {
        problems.push(format!("job class {c} never ran"));
    }
    for p in &problems {
        lines.push(format!("error: {p}"));
    }
    Ok(Report {
        lines,
        metrics,
        attempted,
        failed,
        correct: failed == 0 && problems.is_empty(),
        digest,
        problems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_keeps_the_quickest_repetitions_of_every_cell() {
        let job = |cell, ns| Job {
            cell,
            ns,
            ..Job::default()
        };
        let jobs = [
            job(0, 9),
            job(1, 5),
            job(0, 3),
            job(1, 7),
            job(0, 4),
            job(1, 1),
        ];
        let kept: Vec<(usize, u64)> = fastest(&jobs, 2).iter().map(|j| (j.cell, j.ns)).collect();
        assert_eq!(kept, [(0, 3), (0, 4), (1, 1), (1, 5)]);
        assert_eq!(
            fastest(&jobs[..2], 2).len(),
            2,
            "fewer than `keep`: all kept"
        );
    }
}
