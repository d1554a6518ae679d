//! The shard layer, probed from `openloop_faults`' traced run: the
//! partitioned open-loop store through `run_sharded` at the
//! `BENCH_shard.json` group shape, plus the routed relay ring.
//!
//! The store is a quarter of the `BENCH_shard.json` run: 25 000 clients
//! with one request each over 16 groups, MAT, read fraction 0.9, at the
//! full offered rate, so each group sees the arrival density of the
//! 1e5-client run over a quarter of its horizon. It runs alternately on
//! 1 and [`WORKERS`] workers, each run gated group by group; the
//! deterministic outputs must not change with the worker count. The
//! relay ring (every request crosses shards) runs on [`WORKERS`]
//! workers. The scenario clones `run_sharded` consumes are made before
//! each span opens.

use crate::sim::{fold_run, run_passes};
use crate::span::Tracer;
use crate::stats::median;
use crate::{Metrics, Pass};
use dmt_core::SchedulerKind;
use dmt_replica::{run_sharded, EngineConfig, Scenario, ShardedRunResult};
use dmt_workload::openloop::{self, OpenLoopParams};
use dmt_workload::relay::{self, RelayParams};
use std::time::Instant;

pub const KIND: SchedulerKind = SchedulerKind::Mat;
/// Store clients, one request each: a quarter of `BENCH_shard.json`'s.
pub const CLIENTS: usize = 25_000;
pub const GROUPS: usize = 16;
pub const OFFERED_RPS: f64 = 200_000.0;
pub const WORKERS: usize = 2;
/// Store runs per worker count.
pub const REPS: usize = 3;

/// The store's parameters: one request per client, as in
/// `BENCH_shard.json`.
pub fn store_params(seed: u64, smoke: bool) -> OpenLoopParams {
    let (clients, rps) = if smoke {
        (500, 4_000.0)
    } else {
        (CLIENTS, OFFERED_RPS)
    };
    OpenLoopParams {
        n_clients: clients,
        requests_per_client: 1,
        ..OpenLoopParams::default()
    }
    .with_offered_rps(rps)
    .with_read_fraction(0.9)
    .with_seed(seed.wrapping_mul(1000))
}

pub fn relay_params(smoke: bool) -> RelayParams {
    RelayParams {
        n_groups: 4,
        clients_per_group: if smoke { 2 } else { 8 },
        requests_per_client: if smoke { 2 } else { 5 },
        ..RelayParams::default()
    }
}

fn config(seed: u64, workers: usize) -> EngineConfig {
    EngineConfig::new(KIND)
        .with_seed(seed)
        .with_cpu_jitter(0.05)
        .with_shards(workers)
}

fn total_requests(scenarios: &[Scenario]) -> u64 {
    scenarios.iter().map(|s| s.total_requests() as u64).sum()
}

/// The gate of a sharded run: no group stalled, every request completed
/// and every group's replicas converged.
pub fn sharded_passes(res: &ShardedRunResult, submitted: u64) -> bool {
    !res.deadlocked
        && res.completed_requests == submitted
        && res
            .groups
            .iter()
            .all(|g| run_passes(g, KIND, g.completed_requests))
}

/// Folds a sharded run: every group, then the merged latency order and
/// the cross-shard message counts.
fn fold_sharded(res: &ShardedRunResult, pass: &mut Pass) {
    for g in &res.groups {
        fold_run(g, pass);
    }
    for (g, l) in &res.latencies {
        pass.digest.word(u64::from(*g));
        pass.digest
            .word((u64::from(l.id.client) << 32) | u64::from(l.id.req_no));
    }
    pass.digest.word(res.shard_msgs);
    pass.digest.word(res.epochs);
}

/// Runs the shard probe and sets the `replica.shard.*` metrics. Spans:
/// `replica.shard.run` (the store on [`WORKERS`] workers) and
/// `replica.shard.relay`.
pub fn probe(seed: u64, smoke: bool, tr: &mut Tracer, m: &mut Metrics, problems: &mut Vec<String>) {
    let groups = if smoke { 4 } else { GROUPS };
    let store: Vec<Scenario> = openloop::sharded_scenarios(&store_params(seed, smoke), groups)
        .iter()
        .map(|p| p.for_kind(KIND))
        .collect();
    let rp = relay_params(smoke);
    let relay: Vec<Scenario> = relay::scenarios(&rp)
        .iter()
        .map(|p| p.for_kind(KIND))
        .collect();
    let n_store = total_requests(&store);
    let reps = if smoke { 1 } else { REPS };
    let mut wall = [Vec::new(), Vec::new()];
    let mut merge_ms = Vec::new();
    let mut digests = Vec::new();
    let mut first: Option<ShardedRunResult> = None;
    for _ in 0..reps {
        for (i, workers) in [1, WORKERS].into_iter().enumerate() {
            let (scenarios, cfg) = (store.clone(), config(seed, workers));
            let t = Instant::now();
            let res = if workers == WORKERS {
                tr.span("replica.shard.run", || run_sharded(scenarios, &cfg, None))
            } else {
                run_sharded(scenarios, &cfg, None)
            };
            wall[i].push(t.elapsed().as_secs_f64());
            if !sharded_passes(&res, n_store) {
                problems.push(format!(
                    "sharded store failed its gate at {workers} worker(s)"
                ));
            }
            let mut pass = Pass::default();
            fold_sharded(&res, &mut pass);
            digests.push(pass.digest);
            if workers == WORKERS {
                merge_ms.push(res.merge_ns as f64 / 1e6);
                first.get_or_insert(res);
            }
        }
        tr.end_job();
    }
    if digests.iter().any(|&d| d != digests[0]) {
        problems.push("sharded store digest differs between 1 and 2 workers".into());
    }
    let (scenarios, routing) = (relay.clone(), Some(relay::routing(&rp)));
    let rel = tr.span("replica.shard.relay", || {
        run_sharded(scenarios, &config(seed, WORKERS), routing)
    });
    tr.end_job();
    if !sharded_passes(&rel, total_requests(&relay)) {
        problems.push("relay ring failed its gate".into());
    }

    let store = first.expect("at least one store run");
    let [one, two] = &mut wall;
    m.set("replica.shard.run_ms", median(two) * 1e3, "ms");
    m.set("replica.shard.merge_ms", median(&mut merge_ms), "ms");
    // The store has no cross-shard calls; the relay ring needs barriers.
    m.set("replica.shard.epochs", rel.epochs as f64, "count");
    m.set(
        "replica.shard.msgs_per_req",
        rel.shard_msgs as f64 / rel.completed_requests.max(1) as f64,
        "count",
    );
    m.set(
        "replica.shard.balance_bound",
        store.balance_bound(WORKERS),
        "ratio",
    );
    m.set(
        "replica.shard.speedup_2w",
        median(one) / median(two),
        "ratio",
    );
}
