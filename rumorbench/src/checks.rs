//! Answer checks that share no code with the solvers. Each check
//! recomputes what it needs from the request's degree distribution
//! (the closed-form threshold of Theorem 1, the rumor-free equilibrium,
//! the cost functional by a fixed-step RK4 integration of Eq. (1)) or
//! tests a property every correct answer has.

use crate::gen::{Campaign, CampaignKind, Kind, Net, Req};
use rumor_datasets::digg::{DiggConfig, DiggDataset};
use rumor_serve::wire::{self, Value};

pub type Check = Result<(), String>;

/// Relative agreement demanded of closed-form quantities.
const CLOSED_FORM_RTOL: f64 = 1e-9;
/// Relative agreement demanded between the served `cost.total` and the
/// benchmark's own integration of the returned schedule. The service
/// integrates the running cost with the trapezoid rule on its 101-node
/// grid; the RK4 reference is far finer.
pub const COST_RTOL: f64 = 2e-3;

/// The degree distribution a request runs on.
#[derive(Debug, Clone)]
pub struct Classes {
    pub degrees: Vec<usize>,
    pub probs: Vec<f64>,
    pub mean_k: f64,
}

pub fn classes_of(net: &Net) -> Result<Classes, String> {
    let data = DiggDataset::synthesize(DiggConfig {
        nodes: net.nodes,
        k_min: 1,
        k_max: net.k_max,
        target_mean_degree: net.mean_degree,
        seed: net.seed,
    })
    .map_err(|e| format!("network {net:?}: {e}"))?;
    let c = data.classes();
    let degrees = c.degrees().to_vec();
    let probs = c.probabilities().to_vec();
    let mean_k = degrees.iter().zip(&probs).map(|(&k, p)| k as f64 * p).sum();
    Ok(Classes {
        degrees,
        probs,
        mean_k,
    })
}

/// The paper's infectivity `ω(k) = √k / (1 + √k)`.
fn omega(k: usize) -> f64 {
    let r = (k as f64).sqrt();
    r / (1.0 + r)
}

/// Theorem 1: `r0 = α Σ_k λ(k) ω(k) P(k) / (⟨k⟩ ε1 ε2)` with
/// `λ(k) = λ0 k`.
pub fn r0_closed_form(c: &Classes, alpha: f64, lambda0: f64, eps1: f64, eps2: f64) -> f64 {
    let coupling: f64 = c
        .degrees
        .iter()
        .zip(&c.probs)
        .map(|(&k, p)| lambda0 * k as f64 * omega(k) * p)
        .sum();
    alpha * coupling / (c.mean_k * eps1 * eps2)
}

fn num(v: &Value, path: &str) -> Result<f64, String> {
    let mut cur = v;
    for key in path.split('.') {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("answer lacks {path:?}"))?;
    }
    cur.as_f64()
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("{path:?} is not a finite number"))
}

fn nums(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    let arr = v
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("answer lacks array {key:?}"))?;
    arr.iter()
        .map(|x| {
            x.as_f64()
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("{key:?} holds a non-finite entry"))
        })
        .collect()
}

fn close(what: &str, got: f64, want: f64, rtol: f64) -> Check {
    if (got - want).abs() <= rtol * want.abs().max(1e-300) {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, expected {want} (rtol {rtol})"))
    }
}

pub fn parse(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8".to_string())?;
    wire::parse(text).map_err(|e| format!("answer is not JSON: {e}"))
}

/// `/v1/threshold`: `r0` against Theorem 1, the verdict against `r0`,
/// and `E0 = (α/ε1, 0, 1 − α/ε1)`. Returns the served `r0`.
pub fn threshold(
    c: &Classes,
    alpha: f64,
    lambda0: f64,
    eps1: f64,
    eps2: f64,
    answer: &Value,
) -> Result<f64, String> {
    let r0 = num(answer, "r0")?;
    close(
        "r0",
        r0,
        r0_closed_form(c, alpha, lambda0, eps1, eps2),
        CLOSED_FORM_RTOL,
    )?;
    let extinct = answer
        .get("predicted_extinction")
        .and_then(Value::as_bool)
        .ok_or("answer lacks predicted_extinction")?;
    if extinct != (r0 <= 1.0) {
        return Err(format!("predicted_extinction {extinct} with r0 {r0}"));
    }
    let s0 = alpha / eps1;
    close("e0.s", num(answer, "e0.s")?, s0, CLOSED_FORM_RTOL)?;
    close("e0.r", num(answer, "e0.r")?, 1.0 - s0, CLOSED_FORM_RTOL)?;
    Ok(r0)
}

/// `/v1/simulate`: the sampling grid, bounded densities, and for the
/// paper kind the closed-form `r0` and the mass law. The service
/// integrates the mass-conserving form of Eq. (1) (`dR/dt` recycles the
/// inflow `α`), under which `S + I + R = 1` at every sample.
pub fn simulate(req: &Req, c: &Classes, answer: &Value) -> Check {
    let times = nums(answer, "times")?;
    if times.len() != req.n_out {
        return Err(format!("{} samples, asked for {}", times.len(), req.n_out));
    }
    close("times[0]", times[0] + 1.0, 1.0, 1e-12)?;
    close("times[last]", times[times.len() - 1], req.tf, 1e-9)?;
    if times.windows(2).any(|w| w[1] <= w[0]) {
        return Err("times are not increasing".into());
    }
    let members = answer.as_obj().ok_or("answer is not an object")?;
    let mut series = Vec::new();
    for (key, _) in members.iter().filter(|(k, _)| k.starts_with("mean_")) {
        let xs = nums(answer, key)?;
        if xs.len() != times.len() {
            return Err(format!("{key} has {} samples", xs.len()));
        }
        if let Some(x) = xs.iter().find(|x| !(-1e-9..=1.0 + 1e-9).contains(*x)) {
            return Err(format!("{key} leaves [0, 1]: {x}"));
        }
        series.push(xs);
    }
    if req.kind == Kind::Paper {
        if series.len() != 3 {
            return Err(format!("{} mean series, expected S, I, R", series.len()));
        }
        for (n, t) in times.iter().enumerate() {
            let mass: f64 = series.iter().map(|xs| xs[n]).sum();
            if (mass - 1.0).abs() > 1e-6 {
                return Err(format!("S + I + R = {mass} at t = {t}"));
            }
        }
        close(
            "r0",
            num(answer, "r0")?,
            r0_closed_form(c, req.alpha, req.lambda0, req.eps1, req.eps2),
            CLOSED_FORM_RTOL,
        )?;
    } else if series.len() < 3 {
        return Err(format!("{} mean series", series.len()));
    }
    Ok(())
}

/// A piecewise-linear control schedule as returned by `/v1/optimize`.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub t: Vec<f64>,
    pub eps1: Vec<f64>,
    pub eps2: Vec<f64>,
}

impl Schedule {
    pub fn constant(tf: f64, e: f64) -> Schedule {
        Schedule {
            t: vec![0.0, tf],
            eps1: vec![e, e],
            eps2: vec![e, e],
        }
    }
}

/// `J = Σ_k I_k(tf) + ∫ Σ_k (c1 ε1² S_k² + c2 ε2² I_k²) dt` for the
/// paper model under `sched`, by classical RK4 with `substeps` steps per
/// schedule interval (the schedule is linear inside each).
/// The model and cost parameters come from `req`.
pub fn paper_cost(c: &Classes, req: &Req, sched: &Schedule, substeps: usize) -> f64 {
    let Req {
        alpha,
        lambda0,
        i0,
        c1,
        c2,
        ..
    } = *req;
    let n = c.degrees.len();
    let lam: Vec<f64> = c.degrees.iter().map(|&k| lambda0 * k as f64).collect();
    let w: Vec<f64> = c
        .degrees
        .iter()
        .zip(&c.probs)
        .map(|(&k, p)| omega(k) * p / c.mean_k)
        .collect();
    // y = [S_0..S_n, I_0..I_n, running cost].
    let deriv = |y: &[f64], e1: f64, e2: f64, dy: &mut [f64]| {
        let (s, rest) = y.split_at(n);
        let i = &rest[..n];
        let theta: f64 = w.iter().zip(i).map(|(a, b)| a * b).sum();
        let mut run = 0.0;
        for k in 0..n {
            let force = lam[k] * s[k] * theta;
            dy[k] = alpha - force - e1 * s[k];
            dy[n + k] = force - e2 * i[k];
            run += c1 * e1 * e1 * s[k] * s[k] + c2 * e2 * e2 * i[k] * i[k];
        }
        dy[2 * n] = run;
    };
    let mut y = vec![0.0; 2 * n + 1];
    y[..n].fill(1.0 - i0);
    y[n..2 * n].fill(i0);
    let dim = y.len();
    let (mut k1, mut k2, mut k3, mut k4, mut tmp) = (
        vec![0.0; dim],
        vec![0.0; dim],
        vec![0.0; dim],
        vec![0.0; dim],
        vec![0.0; dim],
    );
    for j in 0..sched.t.len() - 1 {
        let (t0, t1) = (sched.t[j], sched.t[j + 1]);
        let h = (t1 - t0) / substeps as f64;
        let at = |t: f64| {
            let f = ((t - t0) / (t1 - t0)).clamp(0.0, 1.0);
            (
                sched.eps1[j] + f * (sched.eps1[j + 1] - sched.eps1[j]),
                sched.eps2[j] + f * (sched.eps2[j + 1] - sched.eps2[j]),
            )
        };
        for m in 0..substeps {
            let t = t0 + m as f64 * h;
            let (a1, a2) = at(t);
            let (b1, b2) = at(t + 0.5 * h);
            let (d1, d2) = at(t + h);
            deriv(&y, a1, a2, &mut k1);
            for q in 0..dim {
                tmp[q] = y[q] + 0.5 * h * k1[q];
            }
            deriv(&tmp, b1, b2, &mut k2);
            for q in 0..dim {
                tmp[q] = y[q] + 0.5 * h * k2[q];
            }
            deriv(&tmp, b1, b2, &mut k3);
            for q in 0..dim {
                tmp[q] = y[q] + h * k3[q];
            }
            deriv(&tmp, d1, d2, &mut k4);
            for q in 0..dim {
                y[q] += h / 6.0 * (k1[q] + 2.0 * k2[q] + 2.0 * k3[q] + k4[q]);
            }
        }
    }
    y[n..2 * n].iter().sum::<f64>() + y[2 * n]
}

/// The schedule of an optimize answer, each channel inside `[0, eps_max]`
/// on a grid that runs from 0 to `tf`.
fn schedule_channels(req: &Req, answer: &Value) -> Result<Vec<(String, Vec<f64>)>, String> {
    let sched = answer.get("schedule").ok_or("answer lacks schedule")?;
    let t = nums(sched, "t")?;
    if t.len() < 2 || t.windows(2).any(|w| w[1] <= w[0]) {
        return Err("schedule grid is not increasing".into());
    }
    close("schedule.t[0]", t[0] + 1.0, 1.0, 1e-12)?;
    close("schedule.t[last]", t[t.len() - 1], req.tf, 1e-9)?;
    let mut channels = vec![("t".to_string(), t.clone())];
    for (name, _) in sched.as_obj().ok_or("schedule is not an object")? {
        if name == "t" {
            continue;
        }
        let xs = nums(sched, name)?;
        if xs.len() != t.len() {
            return Err(format!("schedule.{name} has {} nodes", xs.len()));
        }
        if let Some(x) = xs.iter().find(|x| !(0.0..=req.eps_max).contains(*x)) {
            return Err(format!("schedule.{name} leaves [0, {}]: {x}", req.eps_max));
        }
        channels.push((name.clone(), xs));
    }
    if channels.len() < 3 {
        return Err("schedule has fewer than two control channels".into());
    }
    Ok(channels)
}

/// Whether an optimize answer says it converged.
pub fn converged(answer: &Value) -> bool {
    answer.get("converged").and_then(Value::as_bool) == Some(true)
}

/// `/v1/optimize` (a converged answer): the schedule inside its bounds;
/// for the paper kind, `J` recomputed from the returned schedule agrees
/// with `cost.total` and is no larger than the `J` of the constant
/// schedules 0 and `ε_max`.
pub fn optimize(req: &Req, c: &Classes, answer: &Value) -> Check {
    let channels = schedule_channels(req, answer)?;
    let total = num(answer, "cost.total")?;
    let running = num(answer, "cost.running")?;
    if !(0.0..=total).contains(&running) {
        return Err(format!("cost.running {running} outside [0, total {total}]"));
    }
    if req.kind != Kind::Paper {
        return Ok(());
    }
    let channel = |name: &str| {
        channels
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, xs)| xs.clone())
            .ok_or_else(|| format!("schedule lacks {name}"))
    };
    let sched = Schedule {
        t: channels[0].1.clone(),
        eps1: channel("eps1")?,
        eps2: channel("eps2")?,
    };
    let cost = |s: &Schedule, substeps| paper_cost(c, req, s, substeps);
    let j = cost(&sched, 8);
    close("cost.total vs the returned schedule", total, j, COST_RTOL)?;
    for e in [0.0, req.eps_max] {
        let j_const = cost(&Schedule::constant(req.tf, e), 800);
        if j > j_const * (1.0 + COST_RTOL) {
            return Err(format!(
                "J = {j} exceeds J = {j_const} of the constant schedule {e}"
            ));
        }
    }
    Ok(())
}

/// The fields the terminal stream summary shares with `/results`.
const SUMMARY_KEYS: [&str; 6] = [
    "state",
    "total",
    "completed",
    "quarantined",
    "manifest",
    "missing",
];

/// A finished campaign: `done`, every point exactly once, a summary
/// equal to `/results`, and each point's answer checked by kind.
pub fn campaign(
    camp: &Campaign,
    rows: &[Value],
    summary: &Value,
    results: &Value,
    classes: &Classes,
) -> Check {
    if summary.get("state").and_then(Value::as_str) != Some("done") {
        return Err(format!("campaign ended {}", wire::serialize(summary)));
    }
    for key in ["total", "completed"] {
        if num(summary, key)? != camp.points as f64 {
            return Err(format!("summary {key} is not {}", camp.points));
        }
    }
    let mut seen = vec![false; camp.points as usize];
    for row in rows {
        let p = num(row, "point")?;
        let idx = p as usize;
        if p.fract() != 0.0 || idx >= seen.len() || seen[idx] {
            return Err(format!("point {p} is out of range or repeated"));
        }
        seen[idx] = true;
    }
    if let Some(missing) = seen.iter().position(|s| !s) {
        return Err(format!("point {missing} never streamed"));
    }
    for key in SUMMARY_KEYS {
        let (a, b) = (summary.get(key), results.get(key));
        if a.is_none() || a.map(wire::serialize) != b.map(wire::serialize) {
            return Err(format!("stream summary and /results differ on {key}"));
        }
    }
    let fetched = results
        .get("results")
        .and_then(Value::as_arr)
        .ok_or("/results lacks results")?;
    let streamed: Vec<String> = rows.iter().map(wire::serialize).collect();
    let mut refetched: Vec<String> = fetched.iter().map(wire::serialize).collect();
    let mut sorted = streamed.clone();
    sorted.sort();
    refetched.sort();
    if sorted != refetched {
        return Err("streamed rows differ from /results".into());
    }
    let b = &camp.base;
    let mut ratio = None;
    for row in rows {
        let idx = num(row, "point")? as u64;
        let result = row.get("result").ok_or("row lacks result")?;
        match camp.kind {
            CampaignKind::ThresholdSweep => {
                let lambda0 = camp.lambda0_at(idx);
                close("row lambda0", num(row, "lambda0")?, lambda0, 1e-12)?;
                let r0 = threshold(classes, b.alpha, lambda0, b.eps1, b.eps2, result)
                    .map_err(|e| format!("point {idx}: {e}"))?;
                // r0 is linear in λ0, so r0/λ0 is constant along a sweep.
                let here = r0 / lambda0;
                match ratio {
                    None => ratio = Some(here),
                    Some(first) => close("r0/lambda0 along the sweep", here, first, 1e-9)?,
                }
            }
            CampaignKind::OptimizeSweep => {
                let lambda0 = camp.lambda0_at(idx);
                close("row lambda0", num(row, "lambda0")?, lambda0, 1e-12)?;
                if !converged(result) {
                    return Err(format!("point {idx} did not converge"));
                }
                let point = Req {
                    lambda0,
                    ..b.clone()
                };
                optimize(&point, classes, result).map_err(|e| format!("point {idx}: {e}"))?;
            }
            CampaignKind::Ensemble => {
                if num(row, "seed")? != (b.net.seed + idx) as f64 {
                    return Err(format!("point {idx} ran the wrong replica seed"));
                }
                if num(result, "runs")? != 1.0 || num(result, "excluded")? != 0.0 {
                    return Err(format!("point {idx} lost its replica"));
                }
                let times = nums(result, "times")?;
                let i_mean = nums(result, "i_mean")?;
                if times.len() < 2 || i_mean.len() != times.len() {
                    return Err(format!("point {idx} has a malformed trajectory"));
                }
                if let Some(x) = i_mean.iter().find(|x| !(0.0..=1.0).contains(*x)) {
                    return Err(format!("point {idx}: infected share {x} outside [0, 1]"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{campaign_round, Endpoint, Tier};
    use rumor_serve::api::{OptimizeRequest, SimulateRequest, ThresholdRequest};
    use rumor_serve::handlers;

    fn req(endpoint: Endpoint, kind: Kind) -> Req {
        Req {
            endpoint,
            kind,
            net: Net::new(Tier::Tiny, 11),
            alpha: 0.01,
            lambda0: 0.02,
            eps1: 0.25,
            eps2: 0.06,
            tf: 10.0,
            i0: 0.05,
            n_out: 41,
            c1: 5.0,
            c2: 10.0,
            eps_max: 0.7,
            max_iters: 300,
            fault: false,
        }
    }

    fn served(r: &Req) -> Value {
        let body = wire::parse(&r.body()).unwrap();
        match r.endpoint {
            Endpoint::Simulate => {
                handlers::simulate(&SimulateRequest::from_value(&body).unwrap()).unwrap()
            }
            Endpoint::Threshold => {
                handlers::threshold(&ThresholdRequest::from_value(&body).unwrap()).unwrap()
            }
            Endpoint::Optimize => {
                handlers::optimize(&OptimizeRequest::from_value(&body).unwrap()).unwrap()
            }
        }
    }

    /// Replaces the number at `path` (dotted; `key[n]` indexes arrays).
    fn perturb(v: &mut Value, path: &[&str], f: impl Fn(f64) -> f64) {
        let (head, rest) = path.split_first().unwrap();
        let (key, index) = match head.split_once('[') {
            Some((k, i)) => (k, Some(i.trim_end_matches(']').parse::<usize>().unwrap())),
            None => (*head, None),
        };
        let Value::Obj(members) = v else {
            panic!("not an object")
        };
        let slot = &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1;
        let slot = match (index, slot) {
            (Some(i), Value::Arr(items)) => &mut items[i],
            (None, slot) => slot,
            _ => panic!("not an array"),
        };
        if rest.is_empty() {
            let Value::Num(x) = slot else {
                panic!("not a number")
            };
            *x = f(*x);
        } else {
            perturb(slot, rest, f);
        }
    }

    #[test]
    fn threshold_check_rejects_a_scaled_r0_and_a_wrong_e0() {
        let r = req(Endpoint::Threshold, Kind::Paper);
        let c = classes_of(&r.net).unwrap();
        let good = served(&r);
        threshold(&c, r.alpha, r.lambda0, r.eps1, r.eps2, &good).unwrap();
        let mut bad = good.clone();
        perturb(&mut bad, &["r0"], |x| x * 1.01);
        assert!(threshold(&c, r.alpha, r.lambda0, r.eps1, r.eps2, &bad).is_err());
        let mut bad = good.clone();
        perturb(&mut bad, &["e0", "s"], |x| x + 1e-6);
        assert!(threshold(&c, r.alpha, r.lambda0, r.eps1, r.eps2, &bad).is_err());
    }

    #[test]
    fn simulate_check_rejects_broken_mass_and_a_wrong_r0() {
        let r = req(Endpoint::Simulate, Kind::Paper);
        let c = classes_of(&r.net).unwrap();
        let good = served(&r);
        simulate(&r, &c, &good).unwrap();
        let mut bad = good.clone();
        perturb(&mut bad, &["mean_i[7]"], |x| x + 1e-4);
        assert!(simulate(&r, &c, &bad).is_err());
        let mut bad = good.clone();
        perturb(&mut bad, &["r0"], |x| x * 1.01);
        assert!(simulate(&r, &c, &bad).is_err());
        let two = req(Endpoint::Simulate, Kind::TwoRumor);
        simulate(&two, &c, &served(&two)).unwrap();
    }

    #[test]
    fn optimize_check_rejects_a_node_above_eps_max_and_a_wrong_cost() {
        let r = req(Endpoint::Optimize, Kind::Paper);
        let c = classes_of(&r.net).unwrap();
        let good = served(&r);
        assert!(converged(&good));
        optimize(&r, &c, &good).unwrap();
        let mut bad = good.clone();
        perturb(&mut bad, &["schedule", "eps2[3]"], |_| r.eps_max + 1e-9);
        assert!(optimize(&r, &c, &bad).is_err());
        let mut bad = good.clone();
        perturb(&mut bad, &["cost", "total"], |x| x * 1.01);
        assert!(optimize(&r, &c, &bad).is_err());
        let mut bad = good.clone();
        perturb(&mut bad, &["schedule", "eps1[0]"], |x| -x - 1e-9);
        assert!(optimize(&r, &c, &bad).is_err());
    }

    #[test]
    fn optimality_check_rejects_a_schedule_worse_than_a_constant() {
        let r = req(Endpoint::Optimize, Kind::Paper);
        let c = classes_of(&r.net).unwrap();
        // Doing nothing costs only the terminal infection; spending the
        // whole budget on a weak network costs more than that.
        let zero = paper_cost(&c, &r, &Schedule::constant(r.tf, 0.0), 800);
        let full = paper_cost(&c, &r, &Schedule::constant(r.tf, r.eps_max), 800);
        let worst = if zero > full { 0.0 } else { r.eps_max };
        // Claim the worse constant schedule is optimal, with a matching cost.
        let t: Vec<f64> = (0..=10).map(|k| k as f64).collect();
        let answer = format!(
            r#"{{"converged":true,"cost":{{"running":0,"total":{}}},"schedule":{{"t":{},"eps1":{},"eps2":{}}}}}"#,
            zero.max(full),
            wire::serialize(&Value::num_arr(&t)),
            wire::serialize(&Value::num_arr(&[worst; 11])),
            wire::serialize(&Value::num_arr(&[worst; 11]))
        );
        let err = optimize(&r, &c, &wire::parse(&answer).unwrap()).unwrap_err();
        assert!(err.contains("constant schedule"), "{err}");
    }

    fn run_campaign(camp: &Campaign) -> (Vec<Value>, Value, Value) {
        use rumor_jobs::{PointOutcome, PointRunner};
        use rumor_serve::jobs_api::JobSubmitRequest;
        use rumor_serve::jobs_exec::CampaignRunner;
        let spec = JobSubmitRequest::from_value(&wire::parse(&camp.body()).unwrap())
            .unwrap()
            .to_spec();
        let runner = CampaignRunner { workers: 1 };
        let mut warm = None;
        let rows: Vec<Value> = (0..camp.points)
            .map(|i| match runner.run_point(&spec, i, 0, warm.as_deref()) {
                PointOutcome::Ok { payload, warm: w } => {
                    warm = w.or(warm.take());
                    parse(&payload).unwrap()
                }
                _ => panic!("point {i} failed"),
            })
            .collect();
        let summary = wire::parse(&format!(
            r#"{{"state":"done","total":{p},"completed":{p},"quarantined":[],"manifest":[],"missing":0}}"#,
            p = camp.points
        ))
        .unwrap();
        let Value::Obj(mut fields) = summary.clone() else {
            unreachable!()
        };
        fields.push(("results".into(), Value::Arr(rows.clone())));
        (rows, summary, Value::Obj(fields))
    }

    #[test]
    fn campaign_check_rejects_dropped_repeated_and_mismatched_rows() {
        let camps = campaign_round(3, 0);
        let camp = camps
            .iter()
            .find(|c| c.kind == CampaignKind::ThresholdSweep)
            .unwrap();
        let c = classes_of(&camp.base.net).unwrap();
        let (rows, summary, results) = run_campaign(camp);
        campaign(camp, &rows, &summary, &results, &c).unwrap();
        // A dropped row.
        assert!(campaign(camp, &rows[1..], &summary, &results, &c).is_err());
        // A repeated row in place of another.
        let mut twice = rows.clone();
        twice[2] = twice[1].clone();
        assert!(campaign(camp, &twice, &summary, &results, &c).is_err());
        // A summary that disagrees with /results.
        let mut partial = summary.clone();
        perturb(&mut partial, &["missing"], |_| 1.0);
        assert!(campaign(camp, &rows, &partial, &results, &c).is_err());
        // A point whose r0 breaks the sweep's r0/λ0 constancy.
        let mut skewed = rows.clone();
        perturb(&mut skewed[4], &["result", "r0"], |x| x * 1.01);
        assert!(campaign(camp, &skewed, &summary, &results, &c).is_err());
    }

    #[test]
    fn ensemble_and_optimize_campaigns_pass_their_checks() {
        for camp in campaign_round(4, 0).iter().skip(1).take(2) {
            let c = classes_of(&camp.base.net).unwrap();
            let (rows, summary, results) = run_campaign(camp);
            campaign(camp, &rows, &summary, &results, &c).unwrap();
            let mut bad = rows.clone();
            bad.pop();
            assert!(campaign(camp, &bad, &summary, &results, &c).is_err());
        }
    }
}
