//! The end-to-end run: build and start `rumor serve` as users run it,
//! drive one workload over HTTP from this process, check every answer,
//! and measure what a user of the service waits for and what the server
//! process spends.

use crate::checks;
use crate::client::Client;
use crate::gen::{self, Campaign, Endpoint, Req};
use rumor_serve::wire::Value;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 3] = ["query_mix", "solve_mix", "campaign_stream"];

/// Servers started per run to time set-up; the last one serves the run.
const SETUPS: usize = 5;

/// Builds the `rumor` binary from the checkout's own sources and
/// returns its path. Cargo keeps this a no-op when nothing changed.
pub fn build_rumor() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/cli").is_dir() {
        return Err("run from the root of a rumor checkout (no Cargo.toml / crates/cli)".into());
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "rumor-cli",
            "--bin",
            "rumor",
        ])
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building rumor failed: {status}"));
    }
    let bin = Path::new(&target).join("release").join("rumor");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// A running `rumor serve` child.
pub struct Server {
    child: Child,
    /// Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// Clock ticks per second, the unit of `/proc/<pid>/stat` CPU times.
fn clock_ticks() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf only reads a configuration value; any name is
    // allowed and an unknown one returns -1.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

impl Server {
    /// Launches `rumor serve` with defaults apart from the address and
    /// the jobs directory, and waits until `/healthz` answers.
    pub fn start(bin: &Path, jobs_dir: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--jobs-dir")
            .arg(jobs_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("rumor serve exited before listening".into());
            }
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                match addr.parse::<SocketAddr>() {
                    Ok(a) => break a,
                    Err(_) => return Err(format!("unparsable listen line {line:?}")),
                }
            }
        };
        let server = Server {
            child,
            _stdout: stdout,
            addr,
        };
        let mut client = Client::new(addr);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if matches!(client.get("/healthz"), Ok(r) if r.status == 200) {
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err("rumor serve never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn proc_file(&self, name: &str) -> String {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id())).unwrap_or_default()
    }

    /// User + system CPU time of the whole server process, in ms.
    pub fn cpu_ms(&self) -> f64 {
        let stat = self.proc_file("stat");
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit(')').next().unwrap_or_default();
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks: f64 = [11, 12]
            .iter()
            .filter_map(|&i| fields.get(i)?.parse::<f64>().ok())
            .sum();
        ticks * 1000.0 / clock_ticks()
    }

    /// `VmHWM`, the peak resident set, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.proc_file("status")
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// A counter from `/metrics`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        let page = Client::new(self.addr).get("/metrics").ok()?;
        let text = String::from_utf8(page.body).ok()?;
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A private working directory inside the checkout, removed on drop.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn new(tag: &str) -> Result<RunDir, String> {
        let dir = PathBuf::from(".bench_run").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_run");
    }
}

/// Generates round `r` of a workload's inputs; returns its operation
/// count.
fn generate(workload: &str, seed: u64, r: u64) -> usize {
    match workload {
        "query_mix" => gen::query_round(seed, r).len(),
        "solve_mix" => gen::solve_round(seed, r).len(),
        _ => gen::campaign_round(seed, r).len(),
    }
}

/// Starts the server `SETUPS` times, each time from a fresh jobs
/// directory and with the first round's inputs generated anew, and keeps
/// the last one. Returns it with the median set-up time in seconds.
pub fn setup(bin: &Path, dir: &RunDir, workload: &str, seed: u64) -> Result<(Server, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for n in 0..SETUPS {
        let jobs = dir.0.join(format!("jobs-{n}"));
        let t0 = Instant::now();
        std::hint::black_box(generate(workload, seed, 0));
        std::fs::create_dir_all(&jobs).map_err(|e| format!("{}: {e}", jobs.display()))?;
        let server = Server::start(bin, &jobs)?;
        times.push(t0.elapsed().as_secs_f64());
        if n + 1 == SETUPS {
            kept = Some(server);
        } else {
            drop(server);
            let _ = std::fs::remove_dir_all(&jobs);
        }
    }
    let server = kept.expect("SETUPS >= 1");
    Ok((server, median(&mut times)))
}

pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Nearest-rank percentile `q` in (0, 1] of sorted data.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What one run of a workload did.
#[derive(Default)]
pub struct Outcome {
    /// Per operation, seconds; a failed operation is `INFINITY`.
    pub latencies: Vec<f64>,
    pub failed: u64,
    /// Failures other than the named fault (a wrong or missing answer).
    pub unexpected: u64,
    pub connects: u64,
    pub rounds: u64,
    /// Campaign points completed.
    pub points: u64,
    pub wall_s: f64,
    /// Server user + system CPU over the timed loop, ms.
    pub server_cpu_ms: f64,
    pub peak_rss_mb: f64,
}

impl Outcome {
    fn fail(&mut self, index: usize, named_fault: bool, what: &str) {
        if self.latencies[index].is_finite() {
            self.latencies[index] = f64::INFINITY;
            self.failed += 1;
            if !named_fault {
                self.unexpected += 1;
            }
        }
        let tag = if named_fault {
            "named fault"
        } else {
            "UNEXPECTED"
        };
        eprintln!("FAILED op {index} ({tag}): {what}");
    }

    pub fn completed(&self) -> u64 {
        self.latencies.len() as u64 - self.failed
    }
}

/// Checks answers kept during the timed loop (`(operation index,
/// input)` pairs), so checking never slows the load the server sees.
fn check_later<T>(
    out: &mut Outcome,
    pending: Vec<(usize, T)>,
    check: impl Fn(&T) -> checks::Check,
    label: impl Fn(&T) -> String,
    named_fault: impl Fn(&T) -> bool,
) {
    for (op, input) in pending {
        if let Err(e) = check(&input) {
            out.fail(op, named_fault(&input), &format!("{}: {e}", label(&input)));
        }
    }
}

/// Checks one synchronous answer against its request.
pub fn check_request(req: &Req, answer: &Value) -> checks::Check {
    let classes = checks::classes_of(&req.net)?;
    match req.endpoint {
        Endpoint::Simulate => checks::simulate(req, &classes, answer),
        Endpoint::Threshold => {
            checks::threshold(&classes, req.alpha, req.lambda0, req.eps1, req.eps2, answer)
                .map(|_| ())
        }
        Endpoint::Optimize => {
            if !checks::converged(answer) {
                return Err("optimize answer without converged: true".into());
            }
            checks::optimize(req, &classes, answer)
        }
    }
}

/// Operations an end-to-end run attempts at least, so that ten of them
/// lie beyond the 90th percentile.
pub const MIN_OPS: usize = 100;

/// Runs whole rounds until `seconds` have passed and at least `min_ops`
/// operations were attempted, then checks every answer.
pub fn drive(workload: &str, seed: u64, seconds: f64, min_ops: usize, server: &Server) -> Outcome {
    let until = Until {
        start: Instant::now(),
        seconds,
        min_ops,
    };
    match workload {
        "campaign_stream" => drive_campaigns(seed, until, server),
        _ => drive_requests(workload, seed, until, server),
    }
}

#[derive(Clone, Copy)]
struct Until {
    start: Instant,
    seconds: f64,
    min_ops: usize,
}

impl Until {
    /// Whether to start another round, `ops` operations in.
    fn more(&self, ops: usize) -> bool {
        ops == 0 || ops < self.min_ops || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Server CPU and peak memory over the timed loop.
fn record_server(out: &mut Outcome, server: &Server, cpu_at_start: f64) {
    out.server_cpu_ms = server.cpu_ms() - cpu_at_start;
    out.peak_rss_mb = server.peak_rss_mb();
}

/// `query_mix` and `solve_mix`: a closed loop over one connection.
fn drive_requests(workload: &str, seed: u64, until: Until, server: &Server) -> Outcome {
    let mut out = Outcome::default();
    let mut client = Client::new(server.addr);
    let cpu_at_start = server.cpu_ms();
    let mut pending: Vec<(usize, (Req, Vec<u8>))> = Vec::new();
    while until.more(out.latencies.len()) {
        let ops: Vec<(Req, Option<usize>)> = if workload == "query_mix" {
            let ops = gen::query_round(seed, out.rounds);
            ops.into_iter().map(|o| (o.req, o.repeat_of)).collect()
        } else {
            let reqs = gen::solve_round(seed, out.rounds);
            reqs.into_iter().map(|r| (r, None)).collect()
        };
        let mut bodies: Vec<Vec<u8>> = Vec::with_capacity(ops.len());
        for (req, repeat_of) in ops {
            let index = out.latencies.len();
            let t0 = Instant::now();
            let reply = client.post(req.endpoint.path(), &req.body());
            out.latencies.push(t0.elapsed().as_secs_f64());
            let label = req.label();
            match reply {
                Err(e) => {
                    out.fail(index, false, &format!("{label}: {e}"));
                    bodies.push(Vec::new());
                }
                Ok(r) if r.status != 200 => {
                    let why = String::from_utf8_lossy(&r.body).into_owned();
                    out.fail(index, false, &format!("{label}: HTTP {}: {why}", r.status));
                    bodies.push(Vec::new());
                }
                Ok(r) => {
                    match repeat_of {
                        // A cache hit must repeat the first answer byte for byte.
                        Some(first) => {
                            if r.body != bodies[first] {
                                out.fail(
                                    index,
                                    false,
                                    &format!("{label}: repeat differs from first answer"),
                                );
                            }
                        }
                        None => pending.push((index, (req, r.body.clone()))),
                    }
                    bodies.push(r.body);
                }
            }
        }
        out.rounds += 1;
    }
    out.wall_s = until.start.elapsed().as_secs_f64();
    record_server(&mut out, server, cpu_at_start);
    out.connects = client.connects;
    check_later(
        &mut out,
        pending,
        |(req, answer)| checks::parse(answer).and_then(|v| check_request(req, &v)),
        |(req, _)| req.label(),
        |(req, _)| req.fault,
    );
    out
}

/// A campaign's index in its round, latency, and outcome.
type LaneResult = (usize, f64, Result<CampaignRun, String>);

/// A finished campaign, kept for checking.
struct CampaignRun {
    camp: Campaign,
    rows: Vec<Value>,
    summary: Value,
    results: Value,
}

/// Submits a campaign and streams it to its terminal summary; returns
/// the job id with the streamed rows.
fn run_campaign(client: &mut Client, camp: &Campaign) -> Result<(String, CampaignRun), String> {
    let submit = client
        .post("/v1/jobs", &camp.body())
        .map_err(|e| format!("submit: {e}"))?;
    if submit.status != 200 {
        return Err(format!(
            "submit: HTTP {}: {}",
            submit.status,
            String::from_utf8_lossy(&submit.body)
        ));
    }
    let id = checks::parse(&submit.body)?
        .get("id")
        .and_then(Value::as_str)
        .ok_or("submit answer lacks id")?
        .to_string();
    let stream = client
        .get(&format!("/v1/jobs/{id}/stream"))
        .map_err(|e| format!("stream: {e}"))?;
    if stream.status != 200 {
        return Err(format!("stream: HTTP {}", stream.status));
    }
    let text = String::from_utf8(stream.body).map_err(|_| "stream is not UTF-8")?;
    let mut lines: Vec<Value> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| checks::parse(l.as_bytes()))
        .collect::<Result<_, _>>()?;
    let summary = lines.pop().ok_or("empty stream")?;
    Ok((
        id,
        CampaignRun {
            camp: camp.clone(),
            rows: lines,
            summary,
            results: Value::Null,
        },
    ))
}

/// Lanes of campaigns in flight: at most two, and no more than the cores.
fn campaign_lanes() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// `campaign_stream`: each lane submits a campaign, streams it to its
/// terminal summary, refetches `/results`, and moves to the next.
fn drive_campaigns(seed: u64, until: Until, server: &Server) -> Outcome {
    let lanes = campaign_lanes();
    let mut out = Outcome::default();
    let mut clients: Vec<Client> = (0..lanes).map(|_| Client::new(server.addr)).collect();
    let cpu_at_start = server.cpu_ms();
    let mut pending: Vec<(usize, CampaignRun)> = Vec::new();
    while until.more(out.latencies.len()) {
        let camps = gen::campaign_round(seed, out.rounds);
        let lane_results: Vec<Vec<LaneResult>> = std::thread::scope(|s| {
            let camps = &camps;
            let mut handles = Vec::new();
            let (first, rest) = clients.split_first_mut().expect("at least one lane");
            for (lane, client) in rest.iter_mut().enumerate() {
                handles.push(s.spawn(move || lane_work(client, camps, lane + 1, lanes)));
            }
            let mut all = vec![lane_work(first, camps, 0, lanes)];
            for h in handles {
                all.push(h.join().expect("campaign lane panicked"));
            }
            all
        });
        let mut flat: Vec<_> = lane_results.into_iter().flatten().collect();
        flat.sort_by_key(|(n, _, _)| *n);
        for (n, latency, run) in flat {
            let index = out.latencies.len();
            out.latencies.push(latency);
            match run {
                Ok(run) => {
                    out.points += run.camp.points;
                    pending.push((index, run));
                }
                Err(e) => out.fail(
                    index,
                    false,
                    &format!("campaign {n} of round {}: {e}", out.rounds),
                ),
            }
        }
        out.rounds += 1;
    }
    out.wall_s = until.start.elapsed().as_secs_f64();
    record_server(&mut out, server, cpu_at_start);
    out.connects = clients.iter().map(|c| c.connects).sum();
    check_later(
        &mut out,
        pending,
        |run| {
            let classes = checks::classes_of(&run.camp.base.net)?;
            checks::campaign(&run.camp, &run.rows, &run.summary, &run.results, &classes)
        },
        |run| {
            format!(
                "{} campaign on seed {}",
                run.camp.kind.name(),
                run.camp.base.net.seed
            )
        },
        |_| false,
    );
    out
}

fn lane_work(
    client: &mut Client,
    camps: &[Campaign],
    lane: usize,
    lanes: usize,
) -> Vec<LaneResult> {
    camps
        .iter()
        .enumerate()
        .filter(|(n, _)| n % lanes == lane)
        .map(|(n, camp)| {
            let t0 = Instant::now();
            let run = run_campaign(client, camp);
            let latency = t0.elapsed().as_secs_f64();
            // The refetch of `/results` lies outside the campaign's latency.
            let run = run.and_then(|(id, mut run)| {
                let got = client
                    .get(&format!("/v1/jobs/{id}/results"))
                    .map_err(|e| format!("results: {e}"))?;
                if got.status != 200 {
                    return Err(format!("results: HTTP {}", got.status));
                }
                run.results = checks::parse(&got.body)?;
                Ok(run)
            });
            (n, latency, run)
        })
        .collect()
}
