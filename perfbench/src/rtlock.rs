//! `rt_lock`: real OS threads doing lock round-trips under `dmt-rt`.
//!
//! Cells: FREE, SEQ, SAT, MAT and PMAT at 1 and 2 threads, each on one
//! shared mutex (contended) and on a mutex per thread (uncontended),
//! plus the same four shapes on a bare `std::sync::Mutex` as the
//! reference row. A job is one `DetRuntime::run` (or one scoped-thread
//! run for the reference) in which every thread does `locks` round-trips,
//! each an order-sensitive update of the cell its mutex guards
//! (`cell = 3 * cell + addend + i`, wrapping). One lock round-trip is the
//! "request" of the end-to-end metrics. FREE and the bare mutex are the
//! baselines: timed and checked, but left out of the end-to-end
//! aggregates, which price the deterministic schedulers.
//!
//! Set-up derives the inputs and the expected values: the cells, the
//! per-thread addends and the final value of an uncontended cell (one
//! thread alone). There are no scenarios to generate on real threads,
//! so this is what `setup_s` times. Then, outside the set-up clock, one
//! reference run per deterministic cell is made; every timed run of that
//! cell must reproduce its grant log and final cells exactly (compared
//! through a 64-bit digest of both). FREE is not deterministic, so its
//! runs are checked for the grant count and for the uncontended cells,
//! whose value does not depend on the interleaving.

use crate::span::Tracer;
use crate::stats::{median, tail, Digest, Tail};
use crate::{Bench, Job, Metrics, Pass, Phase};
use dmt_core::SchedulerKind;
use dmt_lang::MutexId;
use dmt_rt::{DetRuntime, RtReport};
use dmt_sim::SplitMix64;
use std::sync::Mutex;
use std::time::Instant;

pub const RT_KINDS: [SchedulerKind; 5] = [
    SchedulerKind::Free,
    SchedulerKind::Seq,
    SchedulerKind::Sat,
    SchedulerKind::Mat,
    SchedulerKind::Pmat,
];
pub const THREADS: [usize; 2] = [1, 2];
/// Round-trips per thread per job under `dmt-rt`, and on the bare mutex.
pub const LOCKS: usize = 30_000;
pub const STD_LOCKS: usize = 500_000;
/// Repetitions of each cell the host-time metrics keep (the fastest):
/// 96 kept jobs of the deterministic kinds.
pub const KEEP: usize = 6;

#[derive(Clone, Copy)]
struct Cell {
    /// `None` = the bare `std::sync::Mutex` reference.
    kind: Option<SchedulerKind>,
    threads: usize,
    contended: bool,
}

impl Cell {
    fn name(&self) -> String {
        let kind = self.kind.map_or("std", SchedulerKind::name);
        let mode = if self.contended { "" } else { ".uncontended" };
        format!("{kind}.{}t{mode}", self.threads)
    }

    fn deterministic(&self) -> bool {
        self.kind.is_some_and(|k| k != SchedulerKind::Free)
    }

    /// Mutex and cell of thread `t`: 0 when contended, `t + 1` otherwise.
    fn slot(&self, t: usize) -> usize {
        if self.contended {
            0
        } else {
            t + 1
        }
    }
}

fn cells() -> Vec<Cell> {
    let kinds = RT_KINDS.iter().map(|&k| Some(k)).chain([None]);
    let mut v = Vec::new();
    for kind in kinds {
        for threads in THREADS {
            for contended in [true, false] {
                v.push(Cell {
                    kind,
                    threads,
                    contended,
                });
            }
        }
    }
    v
}

/// Names of the `dmt-rt` cells, for the per-cell metrics.
pub fn det_cell_names() -> Vec<String> {
    cells()
        .iter()
        .filter(|c| c.kind.is_some())
        .map(Cell::name)
        .collect()
}

fn update(v: i64, addend: i64, i: usize) -> i64 {
    v.wrapping_mul(3)
        .wrapping_add(addend.wrapping_add(i as i64))
}

/// Final value of a cell one thread updated `locks` times on its own.
fn solo_value(addend: i64, locks: usize) -> i64 {
    (0..locks).fold(0, |v, i| update(v, addend, i))
}

/// Digest of a run's grant log and final cells.
fn report_digest(rep: &RtReport) -> u64 {
    let mut d = Digest::default();
    d.word(rep.grant_log.len() as u64);
    for &(tid, m) in &rep.grant_log {
        d.word((u64::from(tid.0) << 32) | u64::from(m.0));
    }
    for &v in &rep.cells {
        d.word(v as u64);
    }
    d.value()
}

/// A checked run: `dmt-rt`'s report, or the reference row's grant count
/// and (count, cell) slots; the flag is the check's verdict.
enum Outcome {
    Runtime(bool, RtReport),
    Reference(bool, u64, Vec<(u64, i64)>),
}

pub struct RtBench {
    cells: Vec<Cell>,
    locks: usize,
    std_locks: usize,
    addends: [i64; 2],
    /// Final value of thread `t`'s uncontended cell: `[t]` under
    /// `dmt-rt`, `[2 + t]` on the bare mutex.
    solo: [i64; 4],
    /// Digest of the reference run of each deterministic cell.
    reference: Vec<Option<u64>>,
}

impl RtBench {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let mut rng = SplitMix64::new(seed);
        let addends = [0, 1].map(|t| rng.split(t).next_u64() as i64 >> 8);
        let (locks, std_locks) = if smoke { (50, 500) } else { (LOCKS, STD_LOCKS) };
        RtBench {
            cells: cells(),
            locks,
            std_locks,
            addends,
            solo: [0, 1, 2, 3].map(|i| {
                let n = if i < 2 { locks } else { std_locks };
                solo_value(addends[i % 2], n)
            }),
            reference: Vec::new(),
        }
    }

    fn det_run(&self, c: Cell, tr: &mut Tracer) -> RtReport {
        let kind = c.kind.expect("a dmt-rt cell");
        let rt = DetRuntime::new(kind).with_cells(3);
        let (locks, addends) = (self.locks, self.addends);
        let sink = Mutex::new(Vec::new());
        let root = tr.open("rt.run");
        let proto = tr.thread_spans();
        let report = rt.run(c.threads, |t, h| {
            let mut local = proto.clone();
            let slot = c.slot(t);
            let m = MutexId::new(slot as u32);
            for i in 0..locks {
                let start = local.as_ref().map(|l| l.now());
                h.sync(m, || h.set_cell(slot, update(h.cell(slot), addends[t], i)));
                if let (Some(l), Some(s)) = (local.as_mut(), start) {
                    let e = l.now();
                    l.push("rt.sync", s, e);
                }
            }
            if let Some(l) = local {
                sink.lock().expect("span sink poisoned").push(l);
            }
        });
        tr.close(root);
        for l in sink.into_inner().expect("span sink poisoned") {
            tr.adopt(l);
        }
        report
    }

    /// Runs the bare-mutex reference shape; returns (count, cell) per slot.
    fn std_run(&self, c: Cell) -> Vec<(u64, i64)> {
        let slots: Vec<Mutex<(u64, i64)>> = (0..3).map(|_| Mutex::new((0, 0))).collect();
        let (locks, addends) = (self.std_locks, self.addends);
        std::thread::scope(|s| {
            for t in 0..c.threads {
                let m = &slots[c.slot(t)];
                s.spawn(move || {
                    for i in 0..locks {
                        let mut g = m.lock().expect("reference mutex poisoned");
                        g.0 += 1;
                        g.1 = update(g.1, addends[t], i);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().expect("reference mutex poisoned"))
            .collect()
    }

    /// Round-trips one job of cell `c` performs.
    fn ops(&self, c: Cell) -> u64 {
        let per_thread = if c.kind.is_some() {
            self.locks
        } else {
            self.std_locks
        };
        (per_thread * c.threads) as u64
    }

    /// The uncontended cells hold the value one thread alone produces.
    fn solo_cells_ok(&self, c: Cell, value: impl Fn(usize) -> i64) -> bool {
        let base = if c.kind.is_some() { 0 } else { 2 };
        c.contended || (0..c.threads).all(|t| value(c.slot(t)) == self.solo[base + t])
    }

    /// Checks one `dmt-rt` run of cell `j`: the grant count and the
    /// uncontended cells always, and for a deterministic kind the exact
    /// grant log and cells of set-up's reference run.
    fn det_ok(&self, j: usize, rep: &RtReport) -> bool {
        let c = self.cells[j];
        rep.grant_log.len() as u64 == self.ops(c)
            && self.solo_cells_ok(c, |i| rep.cells[i])
            && self.reference[j].is_none_or(|r| r == report_digest(rep))
    }
}

impl Bench for RtBench {
    fn jobs(&self) -> usize {
        self.cells.len()
    }

    fn keep(&self) -> usize {
        KEEP
    }

    fn classes(&self) -> Vec<String> {
        self.cells.iter().map(Cell::name).collect()
    }

    fn run_job(&mut self, j: usize, tr: &mut Tracer, pass: &mut Pass) -> Job {
        let c = self.cells[j];
        let ops = self.ops(c);
        let t0 = Instant::now();
        let root = tr.open("job");
        let outcome = match c.kind {
            Some(_) => {
                let rep = self.det_run(c, tr);
                Outcome::Runtime(self.det_ok(j, &rep), rep)
            }
            None => {
                let slots = self.std_run(c);
                let count: u64 = slots.iter().map(|s| s.0).sum();
                let ok = count == ops && self.solo_cells_ok(c, |i| slots[i].1);
                Outcome::Reference(ok, count, slots)
            }
        };
        tr.close(root);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut words: Vec<u64> = Vec::new();
        let ok = match outcome {
            Outcome::Runtime(ok, rep) if c.deterministic() => {
                words.push(report_digest(&rep));
                ok
            }
            Outcome::Runtime(ok, rep) => {
                words.push(rep.grant_log.len() as u64);
                if !c.contended {
                    words.extend(rep.cells[1..].iter().map(|&v| v as u64));
                }
                ok
            }
            Outcome::Reference(ok, count, slots) => {
                words.push(count);
                if !c.contended {
                    words.extend(slots[1..].iter().map(|s| s.1 as u64));
                }
                ok
            }
        };
        for w in words {
            pass.digest.word(w);
        }
        Job {
            ns,
            attempted: ops,
            completed: ops,
            failed: if ok { 0 } else { ops },
            class: j,
            reference: !c.deterministic(),
            ..Job::default()
        }
    }

    fn scenario_ms(&self) -> f64 {
        0.0
    }

    fn prepare(&mut self) {
        let mut off = Tracer::new(false);
        self.reference = (0..self.cells.len())
            .map(|i| {
                let c = self.cells[i];
                c.deterministic()
                    .then(|| report_digest(&self.det_run(c, &mut off)))
            })
            .collect();
    }

    fn probes(&mut self, _tr: &mut Tracer, _m: &mut Metrics, _problems: &mut Vec<String>) {}

    fn layers(&self, phase: &Phase, _tr: &Tracer, m: &mut Metrics) {
        let ns_samples = |keep: &dyn Fn(&Cell) -> bool| -> Vec<f64> {
            (0..self.cells.len())
                .filter(|&i| keep(&self.cells[i]))
                .flat_map(|i| phase.class_samples(i))
                .map(|us| us * 1e3)
                .collect()
        };
        for (i, c) in self.cells.iter().enumerate() {
            if c.kind.is_some() {
                let p50 = median(&mut phase.class_samples(i)) * 1e3;
                m.set(format!("rt.{}.lock_ns_p50", c.name()), p50, "ns");
            }
        }
        let det = median(&mut ns_samples(&|c| c.deterministic()));
        let free = median(&mut ns_samples(&|c| c.kind == Some(SchedulerKind::Free)));
        let std = median(&mut ns_samples(&|c| c.kind.is_none()));
        m.set("rt.std_mutex_ns_p50", std, "ns");
        m.set("rt.overhead_vs_free", det / free, "ratio");
        m.set("rt.overhead_vs_std", det / std, "ratio");
        let l = LockStats::of(phase);
        m.set("locks_per_s", l.per_s, "1/s");
        m.set("lock_ns_p50", l.ns_p50, "ns");
        m.set("lock_ns_tail", l.ns_tail.value, "ns");
    }

    fn simulated(&self) -> bool {
        false
    }

    fn extra_lines(&self, phase: &Phase, lines: &mut Vec<String>) {
        let l = LockStats::of(phase);
        lines.push(format!("locks_per_s = {} 1/s", l.per_s));
        lines.push(format!("lock_ns_p50 = {} ns", l.ns_p50));
        lines.push(format!(
            "lock_ns_tail = {} ns (p{:.2}, n={})",
            l.ns_tail.value, l.ns_tail.percentile, l.ns_tail.samples
        ));
    }
}

/// The lock metrics of a phase: round-trips per second and the median
/// and tail of each job's ns per round-trip.
struct LockStats {
    per_s: f64,
    ns_p50: f64,
    ns_tail: Tail,
}

impl LockStats {
    fn of(phase: &Phase) -> Self {
        let mut ns: Vec<f64> = phase.us_per_req().iter().map(|us| us * 1e3).collect();
        LockStats {
            per_s: phase.req_per_s(),
            ns_tail: tail(&mut ns.clone()),
            ns_p50: median(&mut ns),
        }
    }
}
