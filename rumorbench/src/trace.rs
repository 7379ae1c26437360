//! The traced run. It replays round 0 of every workload's inputs for the
//! seed in-process, through each layer's public functions, and times
//! each call from here; it switches on the `rumor_obs` rollups to read
//! the program's own work counters, and counts heap allocations with the
//! global allocator below. Short end-to-end passes against `rumor serve`
//! supply the counts only a server shows (connects, cache hits, bytes
//! on disk). No span is added inside the program.

use crate::checks;
use crate::e2e::{self, RunDir, Server};
use crate::gen::{self, Campaign, CampaignKind, Endpoint, Kind, Net, Req};
use crate::Report;
use rumor_core::control::ConstantControl;
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::model::RumorModel;
use rumor_core::params::ModelParams;
use rumor_core::simulate::{simulate as run_simulation, SimulateOptions};
use rumor_core::stability::theorem2_consistency;
use rumor_core::state::NetworkState;
use rumor_datasets::digg::{DiggConfig, DiggDataset};
use rumor_jobs::{JobManager, JobManagerConfig, JobSpec, JobsMetrics, PointOutcome, PointRunner};
use rumor_net::degree::DegreeClasses;
use rumor_ode::system::OdeSystem;
use rumor_serve::api::{self, OptimizeRequest, SimulateRequest, ThresholdRequest};
use rumor_serve::wire::{self, Value};
use rumor_serve::{handlers, http};
use rumor_sim::abm::AbmConfig;
use rumor_sim::ensemble::{run_ensemble_isolated_threads, IsolationPolicy, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Heap allocations made by this process so far.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The system allocator, counting allocations.
pub struct CountingAlloc;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Summed seconds over a number of calls.
#[derive(Default, Clone, Copy)]
struct Tally {
    secs: f64,
    n: u64,
}

impl Tally {
    fn add(&mut self, secs: f64) {
        self.secs += secs;
        self.n += 1;
    }
    fn ms(&self) -> f64 {
        1e3 * self.secs / self.n.max(1) as f64
    }
    fn us(&self) -> f64 {
        1e6 * self.secs / self.n.max(1) as f64
    }
}

fn counter(name: &str) -> u64 {
    rumor_obs::snapshot().counter(name).unwrap_or(0)
}

/// The program's own work counters, read from the rollups.
#[derive(Default, Clone, Copy)]
struct Work {
    accepted: u64,
    rejected: u64,
    iterations: u64,
    restarts: u64,
}

impl Work {
    fn now() -> Work {
        Work {
            accepted: counter("ode.steps_accepted"),
            rejected: counter("ode.steps_rejected"),
            iterations: counter("control.fbsm_iterations")
                + counter("control.multi_fbsm_iterations"),
            restarts: counter("control.watchdog_restarts"),
        }
    }
    fn since(self, before: Work) -> Work {
        Work {
            accepted: self.accepted - before.accepted,
            rejected: self.rejected - before.rejected,
            iterations: self.iterations - before.iterations,
            restarts: self.restarts - before.restarts,
        }
    }
}

struct Solve {
    kind: Kind,
    classes: usize,
    secs: f64,
    work: Work,
    converged: bool,
}

/// One in-process replay of round 0 of every workload.
#[derive(Default)]
struct Replay {
    http_codec: Tally,
    wire_parse: Tally,
    validate: Tally,
    serialize: Tally,
    requests: u64,
    codec_allocs: u64,
    simulate: Tally,
    simulate_steps: u64,
    threshold: Tally,
    synthesize: Tally,
    core_simulate: Tally,
    theorem2: Tally,
    solves: Vec<Solve>,
    warm_iterations: u64,
    cold_iterations: u64,
    replica: Tally,
    attempted: u64,
    failed: u64,
    unexpected: u64,
    total_s: f64,
}

impl Replay {
    fn fail(&mut self, named_fault: bool, what: &str) {
        self.failed += 1;
        if !named_fault {
            self.unexpected += 1;
        }
        let tag = if named_fault {
            "named fault"
        } else {
            "UNEXPECTED"
        };
        eprintln!("FAILED replay ({tag}): {what}");
    }
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn synthesize(net: &Net, tally: &mut Tally) -> Result<DiggDataset, String> {
    let t = Instant::now();
    let data = DiggDataset::synthesize(DiggConfig {
        nodes: net.nodes,
        k_min: 1,
        k_max: net.k_max,
        target_mean_degree: net.mean_degree,
        seed: net.seed,
    })
    .map_err(err("synthesize"))?;
    tally.add(t.elapsed().as_secs_f64());
    Ok(data)
}

fn params(classes: DegreeClasses, alpha: f64, lambda0: f64) -> Result<ModelParams, String> {
    ModelParams::builder(classes)
        .alpha(alpha)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0 })
        .infectivity(Infectivity::paper_default())
        .build()
        .map_err(err("params"))
}

fn optimize_request(req: &Req) -> Result<OptimizeRequest, String> {
    let value = wire::parse(&req.body()).map_err(err("body"))?;
    OptimizeRequest::from_value(&value).map_err(err("validate"))
}

fn iterations(answer: &Value) -> u64 {
    answer
        .get("iterations")
        .and_then(Value::as_f64)
        .unwrap_or(0.0) as u64
}

/// `query_mix`: the service's request path, layer by layer.
fn replay_queries(r: &mut Replay, seed: u64) -> Result<(), String> {
    let ops = gen::query_round(seed, 0);
    let mut answers: Vec<String> = Vec::with_capacity(ops.len());
    for op in &ops {
        r.attempted += 1;
        r.requests += 1;
        let req = &op.req;
        let path = req.endpoint.path();
        let body = req.body();
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\nContent-Type: application/json\r\nContent-Length: {}",
            body.len()
        );
        let a0 = allocs();
        let t = Instant::now();
        black_box(http::parse_head(head.as_bytes()).map_err(|e| format!("head: {e:?}"))?);
        let head_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let value = wire::parse(&body).map_err(err("wire"))?;
        r.wire_parse.add(t.elapsed().as_secs_f64());
        let t = Instant::now();
        enum Typed {
            Simulate(SimulateRequest),
            Threshold(ThresholdRequest),
        }
        let typed = match req.endpoint {
            Endpoint::Simulate => {
                let v = SimulateRequest::from_value(&value).map_err(err("validate"))?;
                black_box(api::canonical_key(path, &v.canonical()));
                Typed::Simulate(v)
            }
            _ => {
                let v = ThresholdRequest::from_value(&value).map_err(err("validate"))?;
                black_box(api::canonical_key(path, &v.canonical()));
                Typed::Threshold(v)
            }
        };
        r.validate.add(t.elapsed().as_secs_f64());
        let a3 = allocs();
        let mut serialize_allocs = 0;
        let answer = match op.repeat_of {
            // The service answers a repeat from its cache.
            Some(first) => answers[first].clone(),
            None => {
                let data = synthesize(&req.net, &mut r.synthesize)?;
                let out = match &typed {
                    Typed::Simulate(v) => {
                        let before = Work::now();
                        let t = Instant::now();
                        let out = handlers::simulate(v).map_err(err("simulate"))?;
                        r.simulate.add(t.elapsed().as_secs_f64());
                        let w = Work::now().since(before);
                        r.simulate_steps += w.accepted + w.rejected;
                        if req.kind == Kind::Paper {
                            let p = params(data.classes().clone(), req.alpha, req.lambda0)?;
                            let init = NetworkState::initial_uniform(p.n_classes(), req.i0)
                                .map_err(err("initial"))?;
                            let t = Instant::now();
                            black_box(
                                run_simulation(
                                    &p,
                                    ConstantControl::new(req.eps1, req.eps2),
                                    &init,
                                    req.tf,
                                    &SimulateOptions {
                                        n_out: req.n_out,
                                        ..SimulateOptions::default()
                                    },
                                )
                                .map_err(err("core simulate"))?,
                            );
                            r.core_simulate.add(t.elapsed().as_secs_f64());
                        }
                        out
                    }
                    Typed::Threshold(v) => {
                        let t = Instant::now();
                        let out = handlers::threshold(v).map_err(err("threshold"))?;
                        r.threshold.add(t.elapsed().as_secs_f64());
                        let p = params(data.classes().clone(), req.alpha, req.lambda0)?;
                        let t = Instant::now();
                        black_box(
                            theorem2_consistency(&p, req.eps1, req.eps2)
                                .map_err(err("theorem2"))?,
                        );
                        r.theorem2.add(t.elapsed().as_secs_f64());
                        out
                    }
                };
                let s0 = allocs();
                let t = Instant::now();
                let text = wire::serialize(&out);
                r.serialize.add(t.elapsed().as_secs_f64());
                serialize_allocs = allocs() - s0;
                if let Err(e) = e2e::check_request(req, &out) {
                    r.fail(false, &format!("{}: {e}", req.label()));
                }
                text
            }
        };
        let a4 = allocs();
        let t = Instant::now();
        black_box(http::response_bytes(
            200,
            http::reason(200),
            "application/json",
            &[("X-Trace-Id", "00000000000000ff")],
            answer.as_bytes(),
            true,
        ));
        r.http_codec.add(head_s + t.elapsed().as_secs_f64());
        r.codec_allocs += (a3 - a0) + serialize_allocs + (allocs() - a4);
        answers.push(answer);
    }
    Ok(())
}

/// `solve_mix`: `handlers::optimize` per request, with its work counts.
fn replay_solves(r: &mut Replay, seed: u64) -> Result<(), String> {
    for req in gen::solve_round(seed, 0) {
        r.attempted += 1;
        let typed = optimize_request(&req)?;
        let classes = checks::classes_of(&req.net)?.degrees.len();
        let before = Work::now();
        let t = Instant::now();
        let out = handlers::optimize(&typed).map_err(err("optimize"))?;
        let secs = t.elapsed().as_secs_f64();
        let work = Work::now().since(before);
        let converged = checks::converged(&out);
        if !converged {
            r.fail(req.fault, &format!("{}: not converged", req.label()));
        } else if let Err(e) = e2e::check_request(&req, &out) {
            r.fail(false, &format!("{}: {e}", req.label()));
        }
        r.solves.push(Solve {
            kind: req.kind,
            classes,
            secs,
            work,
            converged,
        });
    }
    Ok(())
}

/// `campaign_stream`: each campaign's points through the layers its
/// runner drives.
fn replay_campaigns(r: &mut Replay, seed: u64) -> Result<(), String> {
    let workers = rumor_par::resolve_threads(None);
    for camp in gen::campaign_round(seed, 0) {
        r.attempted += 1;
        let b = &camp.base;
        for idx in 0..camp.points {
            match camp.kind {
                CampaignKind::ThresholdSweep => {
                    let data = synthesize(&b.net, &mut r.synthesize)?;
                    let p = params(data.classes().clone(), b.alpha, camp.lambda0_at(idx))?;
                    let t = Instant::now();
                    black_box(theorem2_consistency(&p, b.eps1, b.eps2).map_err(err("theorem2"))?);
                    r.theorem2.add(t.elapsed().as_secs_f64());
                }
                CampaignKind::OptimizeSweep => {}
                CampaignKind::Ensemble => {
                    let net = Net {
                        seed: b.net.seed + idx,
                        ..b.net.clone()
                    };
                    let data = synthesize(&net, &mut r.synthesize)?;
                    let graph = data.realize_graph().map_err(err("graph"))?;
                    let classes = DegreeClasses::from_graph(&graph).map_err(err("classes"))?;
                    let p = params(classes, b.alpha, b.lambda0)?;
                    let cfg = AbmConfig {
                        alpha: b.alpha,
                        dt: camp.dt,
                        tf: b.tf,
                        eps1: b.eps1,
                        eps2: b.eps2,
                        initial_infected: b.i0,
                        record_every: 10,
                    };
                    let t = Instant::now();
                    black_box(
                        run_ensemble_isolated_threads(
                            &graph,
                            &p,
                            &cfg,
                            Simulator::Synchronous,
                            1,
                            net.seed,
                            &IsolationPolicy { quorum: 0.5 },
                            Some(workers),
                        )
                        .map_err(err("ensemble"))?,
                    );
                    r.replica.add(t.elapsed().as_secs_f64());
                }
            }
        }
        if camp.kind == CampaignKind::OptimizeSweep {
            sweep_warm_and_cold(r, &camp)?;
        }
    }
    Ok(())
}

/// Iterations of an `optimize_sweep` warm-started from the previous
/// point's schedule, and of the same points solved cold.
fn sweep_warm_and_cold(r: &mut Replay, camp: &Campaign) -> Result<(), String> {
    let mut warm: Option<Vec<u8>> = None;
    for idx in 0..camp.points {
        let point = Req {
            lambda0: camp.lambda0_at(idx),
            ..camp.base.clone()
        };
        let typed = optimize_request(&point)?;
        let (out, bytes) =
            handlers::optimize_with_warm_bytes(&typed, warm.as_deref()).map_err(err("warm"))?;
        r.warm_iterations += iterations(&out);
        warm = Some(bytes);
        let cold = handlers::optimize(&typed).map_err(err("cold"))?;
        r.cold_iterations += iterations(&cold);
    }
    Ok(())
}

fn replay(seed: u64, rollups: bool) -> Result<Replay, String> {
    rumor_obs::set_rollup(rollups);
    let mut r = Replay::default();
    let t = Instant::now();
    replay_queries(&mut r, seed)?;
    replay_solves(&mut r, seed)?;
    replay_campaigns(&mut r, seed)?;
    r.total_s = t.elapsed().as_secs_f64();
    rumor_obs::set_rollup(false);
    Ok(r)
}

/// Median microseconds of one paper-model RHS evaluation on `net`.
fn rhs_us(net: &Net) -> Result<f64, String> {
    let data = synthesize(net, &mut Tally::default())?;
    let p = params(data.classes().clone(), 0.01, 0.02)?;
    let model = RumorModel::new(&p, ConstantControl::new(0.2, 0.05));
    let y = NetworkState::initial_uniform(p.n_classes(), 0.05)
        .map_err(err("initial"))?
        .to_flat();
    let mut dydt = vec![0.0; y.len()];
    let reps = 2_000;
    let mut windows: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for k in 0..reps {
                model.rhs(k as f64 * 1e-3, black_box(&y), &mut dydt);
                black_box(&dydt);
            }
            1e6 * t.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    Ok(e2e::median(&mut windows))
}

/// The largest-class network at or below 256 classes and above it
/// among the `solve_mix` round-0 requests.
fn rhs_nets(seed: u64) -> Result<(Net, Net), String> {
    let mut le = (0, None);
    let mut gt = (0, None);
    for req in gen::solve_round(seed, 0) {
        let n = checks::classes_of(&req.net)?.degrees.len();
        let slot = if n <= 256 { &mut le } else { &mut gt };
        if n > slot.0 {
            *slot = (n, Some(req.net.clone()));
        }
    }
    match (le.1, gt.1) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err("solve_mix round 0 lacks a class count on each side of 256".into()),
    }
}

/// A runner that finishes every point at once.
struct Instant0;

impl PointRunner for Instant0 {
    fn run_point(&self, _: &JobSpec, index: u64, _: u32, _: Option<&[u8]>) -> PointOutcome {
        PointOutcome::Ok {
            payload: format!("{{\"point\":{index}}}").into_bytes(),
            warm: None,
        }
    }
}

/// `JobManager` time from submit to done per point, and checkpoints
/// per point, for the campaign sizes of `campaign_stream` round 0.
fn jobs_overhead(dir: &Path, seed: u64, rollups: bool) -> Result<(f64, f64), String> {
    rumor_obs::set_rollup(rollups);
    let before = counter("jobs.checkpoints");
    let manager = JobManager::open(
        JobManagerConfig::new(dir),
        Arc::new(Instant0),
        JobsMetrics::standalone(),
    )
    .map_err(err("jobs"))?;
    let camps = gen::campaign_round(seed, 0);
    let points: u64 = camps.iter().map(|c| c.points).sum();
    let t = Instant::now();
    let ids = camps
        .iter()
        .map(|c| {
            manager.submit(JobSpec {
                kind: c.kind.name().to_string(),
                n_points: c.points,
                payload: c.body().into_bytes(),
            })
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(err("submit"))?;
    while !ids
        .iter()
        .all(|id| manager.status(id).is_some_and(|s| s.state.is_finished()))
    {
        std::thread::sleep(Duration::from_micros(100));
    }
    let secs = t.elapsed().as_secs_f64();
    manager.shutdown();
    let checkpoints = counter("jobs.checkpoints") - before;
    rumor_obs::set_rollup(false);
    Ok((
        1e3 * secs / points as f64,
        checkpoints as f64 / points as f64,
    ))
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Counts only a running server shows, from one round of `query_mix`
/// and of `campaign_stream`.
struct ServedCounts {
    connects_per_op: f64,
    cache_hit_ratio: f64,
    disk_bytes_per_point: f64,
    attempted: u64,
    failed: u64,
    unexpected: u64,
}

fn served_counts(bin: &Path, dir: &RunDir, seed: u64) -> Result<ServedCounts, String> {
    let jobs = dir.0.join("jobs-query");
    let server = Server::start(bin, &jobs)?;
    let query = e2e::drive("query_mix", seed, 0.0, 1, &server);
    let metric = |name| {
        server
            .metric(name)
            .ok_or_else(|| format!("/metrics lacks {name}"))
    };
    let hits = metric("rumor_serve_cache_hits_total")?;
    let misses = metric("rumor_serve_cache_misses_total")?;
    drop(server);
    let jobs = dir.0.join("jobs-campaign");
    let server = Server::start(bin, &jobs)?;
    let camps = e2e::drive("campaign_stream", seed, 0.0, 1, &server);
    drop(server);
    Ok(ServedCounts {
        connects_per_op: query.connects as f64 / query.completed().max(1) as f64,
        cache_hit_ratio: hits / (hits + misses).max(1.0),
        disk_bytes_per_point: dir_bytes(&jobs) as f64 / camps.points.max(1) as f64,
        attempted: query.latencies.len() as u64 + camps.latencies.len() as u64,
        failed: query.failed + camps.failed,
        unexpected: query.unexpected + camps.unexpected,
    })
}

pub fn run(bin: &Path, seed: u64) -> Result<Report, String> {
    let dir = RunDir::new("trace")?;
    // Times come from a replay with rollups off, counts from one with
    // them on. Off and on alternate twice, and the slowdown compares the
    // faster replay of each, so one disturbed replay cannot decide it.
    let off = replay(seed, false)?;
    let on = replay(seed, true)?;
    let off_again = replay(seed, false)?;
    let on_again = replay(seed, true)?;
    let rollup_slowdown = on.total_s.min(on_again.total_s) / off.total_s.min(off_again.total_s);

    // The solves above 256 classes at the default inner thread count and
    // on a single inner thread, alternating twice; the faster of each.
    let big: Vec<OptimizeRequest> = gen::solve_round(seed, 0)
        .iter()
        .zip(&off.solves)
        .filter(|(_, s)| s.classes > 256)
        .map(|(req, _)| optimize_request(req))
        .collect::<Result<_, _>>()?;
    let time_big = |threads: Option<usize>| -> Result<f64, String> {
        rumor_par::set_inner_thread_override(threads);
        let t = Instant::now();
        for req in &big {
            black_box(handlers::optimize(req).map_err(err("optimize"))?);
        }
        rumor_par::set_inner_thread_override(None);
        Ok(t.elapsed().as_secs_f64())
    };
    let mut default_s = f64::INFINITY;
    let mut single_s = f64::INFINITY;
    for _ in 0..2 {
        default_s = default_s.min(time_big(None)?);
        single_s = single_s.min(time_big(Some(1))?);
    }

    let (le, gt) = rhs_nets(seed)?;
    let (overhead_ms, _) = jobs_overhead(&dir.0.join("noop-off"), seed, false)?;
    let (_, checkpoints) = jobs_overhead(&dir.0.join("noop-on"), seed, true)?;
    let served = served_counts(bin, &dir, seed)?;

    let solves = on.solves.len().max(1) as f64;
    let work = on.solves.iter().fold(Work::default(), |a, s| Work {
        accepted: a.accepted + s.work.accepted,
        rejected: a.rejected + s.work.rejected,
        iterations: a.iterations + s.work.iterations,
        restarts: a.restarts + s.work.restarts,
    });
    let per_iteration = |kind: Kind| {
        let secs: f64 = off
            .solves
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.secs)
            .sum();
        let iters: u64 = on
            .solves
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.work.iterations)
            .sum();
        1e3 * secs / iters.max(1) as f64
    };
    let optimize_ms = 1e3 * off.solves.iter().map(|s| s.secs).sum::<f64>() / solves;
    eprintln!(
        "traced replay: {:.2} s with rollups off, {:.2} s on; {} solves, {} iterations",
        off.total_s,
        on.total_s,
        on.solves.len(),
        work.iterations
    );
    let metrics = vec![
        ("serve.connects_per_op", served.connects_per_op, "count"),
        ("serve.cache_hit_ratio", served.cache_hit_ratio, "ratio"),
        ("serve.http_codec_us", off.http_codec.us(), "us"),
        ("serve.wire_parse_us", off.wire_parse.us(), "us"),
        ("serve.validate_us", off.validate.us(), "us"),
        ("serve.serialize_us", off.serialize.us(), "us"),
        (
            "serve.allocs_per_request",
            off.codec_allocs as f64 / off.requests.max(1) as f64,
            "count",
        ),
        ("serve.simulate_ms", off.simulate.ms(), "ms"),
        ("serve.threshold_ms", off.threshold.ms(), "ms"),
        ("serve.optimize_ms", optimize_ms, "ms"),
        ("datasets.synthesize_ms", off.synthesize.ms(), "ms"),
        ("core.simulate_ms", off.core_simulate.ms(), "ms"),
        ("core.theorem2_ms", off.theorem2.ms(), "ms"),
        ("core.rhs_us.le256", rhs_us(&le)?, "us"),
        ("core.rhs_us.gt256", rhs_us(&gt)?, "us"),
        (
            "ode.steps_accepted_per_solve",
            work.accepted as f64 / solves,
            "count",
        ),
        (
            "ode.steps_rejected_per_solve",
            work.rejected as f64 / solves,
            "count",
        ),
        (
            "ode.reject_ratio",
            work.rejected as f64 / (work.accepted + work.rejected).max(1) as f64,
            "ratio",
        ),
        (
            "ode.steps_per_simulate",
            on.simulate_steps as f64 / on.simulate.n.max(1) as f64,
            "count",
        ),
        (
            "control.iterations_per_solve",
            work.iterations as f64 / solves,
            "count",
        ),
        (
            "control.restarts_per_solve",
            work.restarts as f64 / solves,
            "count",
        ),
        (
            "control.converged_ratio",
            on.solves.iter().filter(|s| s.converged).count() as f64 / solves,
            "ratio",
        ),
        (
            "control.ms_per_iteration.paper",
            per_iteration(Kind::Paper),
            "ms",
        ),
        (
            "control.ms_per_iteration.two_rumor",
            per_iteration(Kind::TwoRumor),
            "ms",
        ),
        (
            "control.ms_per_iteration.tie_strength",
            per_iteration(Kind::TieStrength),
            "ms",
        ),
        (
            "control.warm_iteration_ratio",
            on.warm_iterations as f64 / on.cold_iterations.max(1) as f64,
            "ratio",
        ),
        ("par.inner_speedup", single_s / default_s, "ratio"),
        ("sim.replica_ms", off.replica.ms(), "ms"),
        ("jobs.overhead_ms_per_point", overhead_ms, "ms"),
        ("jobs.checkpoints_per_point", checkpoints, "count"),
        (
            "jobs.disk_bytes_per_point",
            served.disk_bytes_per_point,
            "bytes",
        ),
        ("obs.rollup_slowdown", rollup_slowdown, "ratio"),
    ];
    Ok(Report {
        correct: off.unexpected
            + on.unexpected
            + off_again.unexpected
            + on_again.unexpected
            + served.unexpected
            == 0,
        attempted: off.attempted + served.attempted,
        failed: off.failed + served.failed,
        metrics,
    })
}
