//! `rumorbench`: the rumor service's benchmark.
//!
//! ```text
//! rumorbench --workload <query_mix|solve_mix|campaign_stream> --seed <n>
//!            --seconds <s> --trace <0|1> [--steady <k>]
//! ```
//!
//! Run from the root of a checkout. `--trace 0` starts `rumor serve`,
//! drives the workload over HTTP and prints the end-to-end metrics;
//! `--trace 1` replays the seed's inputs in-process through each
//! layer's public functions and prints the per-layer metrics;
//! `--steady k` makes k end-to-end runs on seeds `n..n+k` and prints
//! each metric's median, quartiles and spread against its bound. The
//! last line of standard output is the result object.

mod checks;
mod client;
mod e2e;
mod gen;
mod trace;

use std::fmt::Write as _;
use std::path::Path;

#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?
            }
            "--trace" => args.trace = value()? == "1",
            "--steady" => {
                args.steady = Some(value()?.parse().map_err(|_| "--steady: not an integer")?)
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !e2e::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            e2e::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// One run's result line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let mut out = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct, self.attempted, self.failed
        );
        for (n, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if n == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; no metric can read -1.
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                out,
                r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
            );
        }
        out.push_str("}}");
        out
    }
}

/// One untraced end-to-end run.
fn end_to_end(bin: &Path, workload: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let dir = e2e::RunDir::new(workload)?;
    let (server, setup_s) = e2e::setup(bin, &dir, workload, seed)?;
    let out = e2e::drive(workload, seed, seconds, e2e::MIN_OPS, &server);
    drop(server);
    let completed = out.completed().max(1) as f64;
    let mut sorted = out.latencies.clone();
    sorted.sort_by(f64::total_cmp);
    // A failed operation ranks as slowest; should a percentile land on
    // one, it reads as the whole run's wall time.
    let pct = |q| {
        let x = e2e::percentile(&sorted, q);
        1e3 * if x.is_finite() { x } else { out.wall_s }
    };
    eprintln!(
        "{workload} seed {seed}: {} rounds, {} operations, {} failed ({} unexpected), {} connects, {:.1} s",
        out.rounds,
        out.latencies.len(),
        out.failed,
        out.unexpected,
        out.connects,
        out.wall_s
    );
    Ok(Report {
        correct: out.unexpected == 0,
        attempted: out.latencies.len() as u64,
        failed: out.failed,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("ops_per_s", out.completed() as f64 / out.wall_s, "1/s"),
            ("latency_p50_ms", pct(0.5), "ms"),
            ("latency_p90_ms", pct(0.9), "ms"),
            ("cpu_ms_per_op", out.server_cpu_ms / completed, "ms"),
            ("peak_rss_mb", out.peak_rss_mb, "MB"),
        ],
    })
}

/// Python's `statistics.quantiles(xs, n=4)` (the exclusive method).
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let len = d.len();
    if len < 2 {
        return [d[0]; 3];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

/// The end-to-end bounds recorded in `BENCHMARK.json`, if present.
fn bounds() -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    let Ok(v) = rumor_serve::wire::parse(&text) else {
        return Vec::new();
    };
    v.get("end_to_end")
        .and_then(|e| e.as_arr())
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// `--steady k`: k runs on consecutive seeds, then a spread table.
fn steady(bin: &Path, args: &Args, k: usize) -> Result<Report, String> {
    let mut runs = Vec::with_capacity(k);
    for i in 0..k as u64 {
        let r = end_to_end(bin, &args.workload, args.seed + i, args.seconds)?;
        println!(
            "run {} seed {}: failed {}/{} {}",
            i + 1,
            args.seed + i,
            r.failed,
            r.attempted,
            r.metrics
                .iter()
                .map(|(n, v, u)| format!("{n}={v:.4}{u}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        runs.push(r);
    }
    let bounds = bounds();
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>8} {:>7} {:>9}",
        "metric", "q1", "median", "q3", "spread", "bound", "spr/bnd"
    );
    for (m, (name, _, _)) in runs[0].metrics.iter().enumerate() {
        let xs: Vec<f64> = runs.iter().map(|r| r.metrics[m].1).collect();
        let [q1, med, q3] = quartiles(&xs);
        let spread = (q3 - q1) / med;
        let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
        println!(
            "{name:<16} {q1:>12.4} {med:>12.4} {q3:>12.4} {spread:>8.4} {:>7} {:>9}",
            bound.map_or("-".into(), |b| format!("{b}")),
            bound.map_or("-".into(), |b| format!("{:.3}", spread / b))
        );
    }
    let failed_shares: Vec<String> = runs
        .iter()
        .map(|r| format!("{}/{}", r.failed, r.attempted))
        .collect();
    println!("failed/attempted per run: {}", failed_shares.join(" "));
    Ok(Report {
        correct: runs.iter().all(|r| r.correct),
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        metrics: Vec::new(),
    })
}

fn main() {
    let outcome = parse_args().and_then(|args| {
        let bin = e2e::build_rumor()?;
        match args.steady {
            Some(k) => steady(&bin, &args, k.max(1)),
            None if args.trace => trace::run(&bin, args.seed),
            None => end_to_end(&bin, &args.workload, args.seed, args.seconds),
        }
    });
    match outcome {
        Ok(report) => {
            println!("{}", report.json());
            std::process::exit(if report.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("rumorbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }
}
