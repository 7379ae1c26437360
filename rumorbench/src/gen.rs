//! Seeded input generation. Every workload is a sequence of *rounds*;
//! round `r` of workload `w` under seed `s` is a pure function of
//! `(w, s, r)`, and every round has the same make-up (the same request
//! templates in the same order), so two runs of one seed do the same
//! work and runs of different seeds do work of the same shape.

use std::fmt::Write as _;

/// SplitMix64: small, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`, rounded to four decimals so request
    /// bodies stay short and readable.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + u * (hi - lo)) * 1e4).round() / 1e4
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A network seed in `[1, 10^6)`.
    pub fn net_seed(&mut self) -> u64 {
        1 + self.below(999_999)
    }
}

/// Seed of the network corpus. Network seeds are drawn from it per round
/// and template, the same for every `--seed`; `--seed` draws the model
/// and control parameters and which requests repeat. Drawing networks
/// per `--seed` made a run's cost depend on its seed: `campaign_stream`
/// throughput differed by 15 % between seeds.
const CORPUS: u64 = 0x2009_D195;

/// One of the synthetic network sizes the workloads use. The class
/// counts are what today's generator produces for these settings; they
/// vary by a few classes with the network seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// 300 nodes, about 20 degree classes.
    Tiny,
    /// 1,000 nodes, about 70 classes.
    Small,
    /// 6,000 nodes, 280 to 305 classes (above the 256-class pool boundary
    /// for every seed).
    Mid,
    /// 20,000 nodes, about 590 classes.
    Large,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    pub nodes: usize,
    pub k_max: usize,
    pub mean_degree: f64,
    pub seed: u64,
}

impl Net {
    pub fn new(tier: Tier, seed: u64) -> Net {
        let (nodes, k_max, mean_degree) = match tier {
            Tier::Tiny => (300, 25, 4.0),
            Tier::Small => (1_000, 100, 8.0),
            Tier::Mid => (6_000, 350, 24.0),
            Tier::Large => (20_000, 1_000, 24.0),
        };
        Net {
            nodes,
            k_max,
            mean_degree,
            seed,
        }
    }

    fn json(&self) -> String {
        format!(
            r#"{{"nodes":{},"k_max":{},"mean_degree":{},"seed":{}}}"#,
            self.nodes, self.k_max, self.mean_degree, self.seed
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Paper,
    TwoRumor,
    TieStrength,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper => "paper",
            Kind::TwoRumor => "two_rumor",
            Kind::TieStrength => "tie_strength",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Simulate,
    Threshold,
    Optimize,
}

impl Endpoint {
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Simulate => "/v1/simulate",
            Endpoint::Threshold => "/v1/threshold",
            Endpoint::Optimize => "/v1/optimize",
        }
    }
}

/// One synchronous request, with every parameter explicit so the checks
/// never depend on the service's defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub endpoint: Endpoint,
    pub kind: Kind,
    pub net: Net,
    pub alpha: f64,
    pub lambda0: f64,
    pub eps1: f64,
    pub eps2: f64,
    pub tf: f64,
    pub i0: f64,
    pub n_out: usize,
    pub c1: f64,
    pub c2: f64,
    pub eps_max: f64,
    pub max_iters: usize,
    /// One of the paper-weight optimize requests that fail today (see
    /// the README's "named fault").
    pub fault: bool,
}

impl Req {
    fn new(endpoint: Endpoint, kind: Kind, net: Net) -> Req {
        Req {
            endpoint,
            kind,
            net,
            alpha: 0.01,
            lambda0: 0.02,
            eps1: 0.2,
            eps2: 0.05,
            tf: 10.0,
            i0: 0.05,
            n_out: 101,
            c1: 5.0,
            c2: 10.0,
            eps_max: 0.7,
            max_iters: 300,
            fault: false,
        }
    }

    /// The request body; only the fields the endpoint accepts.
    pub fn body(&self) -> String {
        let mut model = format!(r#"{{"alpha":{},"lambda0":{}"#, self.alpha, self.lambda0);
        if self.kind != Kind::Paper {
            let _ = write!(model, r#","kind":"{}""#, self.kind.name());
        }
        model.push('}');
        let net = self.net.json();
        match self.endpoint {
            Endpoint::Simulate => format!(
                r#"{{"network":{net},"model":{model},"eps1":{},"eps2":{},"tf":{},"i0":{},"n_out":{}}}"#,
                self.eps1, self.eps2, self.tf, self.i0, self.n_out
            ),
            Endpoint::Threshold => format!(
                r#"{{"network":{net},"model":{model},"eps1":{},"eps2":{}}}"#,
                self.eps1, self.eps2
            ),
            Endpoint::Optimize => format!(
                r#"{{"network":{net},"model":{model},"tf":{},"i0":{},"c1":{},"c2":{},"eps_max":{},"max_iters":{}}}"#,
                self.tf, self.i0, self.c1, self.c2, self.eps_max, self.max_iters
            ),
        }
    }

    pub fn label(&self) -> String {
        format!(
            "{} {} nodes={} seed={}",
            self.endpoint.path(),
            self.kind.name(),
            self.net.nodes,
            self.net.seed
        )
    }
}

/// A `query_mix` operation: a fresh request, or an exact repeat of an
/// earlier request of the same round (`repeat_of` indexes the round).
#[derive(Debug, Clone)]
pub struct QueryOp {
    pub req: Req,
    pub repeat_of: Option<usize>,
}

/// Fresh requests per `query_mix` round. Each round also carries
/// `QUERY_REPEATS` exact repeats of them, interleaved, so 60 % of the
/// traffic hits the cache: the median then lies inside the cache-hit
/// cluster instead of on its edge, where it would jump between runs.
pub const QUERY_FRESH: usize = 16;
pub const QUERY_REPEATS: usize = 24;

pub fn query_round(seed: u64, round: u64) -> Vec<QueryOp> {
    let mut rng = Rng::new(seed, 0x5155_0000 + round);
    let mut nets = Rng::new(CORPUS, 0x5155_0000 + round);
    // Fixed template order: simulate over all three kinds on both small
    // tiers, and threshold on the paper kind on the 1,000-node tier. The
    // six thresholds are the slowest 15 % of a round, so the 90th
    // percentile lies inside their cluster.
    let templates: [(Endpoint, Kind, Tier); QUERY_FRESH] = {
        use Endpoint::{Simulate as S, Threshold as T};
        use Kind::{Paper as P, TieStrength as X, TwoRumor as R};
        use Tier::{Small as L, Tiny as Y};
        [
            (S, P, Y),
            (T, P, L),
            (S, R, L),
            (S, X, Y),
            (T, P, L),
            (S, P, L),
            (S, R, Y),
            (T, P, L),
            (S, X, L),
            (S, P, Y),
            (T, P, L),
            (S, R, Y),
            (T, P, L),
            (S, X, Y),
            (S, P, L),
            (T, P, L),
        ]
    };
    let mut ops = Vec::with_capacity(QUERY_FRESH + QUERY_REPEATS);
    let mut fresh_at = Vec::with_capacity(QUERY_FRESH);
    for (n, (endpoint, kind, tier)) in templates.into_iter().enumerate() {
        let mut req = Req::new(endpoint, kind, Net::new(tier, nets.net_seed()));
        req.lambda0 = rng.uniform(0.018, 0.022);
        req.eps1 = rng.uniform(0.2, 0.3);
        req.eps2 = rng.uniform(0.04, 0.06);
        req.tf = 40.0;
        fresh_at.push(ops.len());
        ops.push(QueryOp {
            req,
            repeat_of: None,
        });
        // After each fresh request, repeat one or two already sent this
        // round (alternately), picked at random.
        for _ in 0..1 + n % 2 {
            let pick = fresh_at[rng.below(fresh_at.len() as u64) as usize];
            ops.push(QueryOp {
                req: ops[pick].req.clone(),
                repeat_of: Some(pick),
            });
        }
    }
    ops
}

/// Network seed of round `r`'s named-fault request. It depends on the
/// round only, never on `--seed`, so every run carries the same failures.
pub fn fault_net_seed(round: u64) -> u64 {
    7_001 + round
}

pub fn solve_round(seed: u64, round: u64) -> Vec<Req> {
    use Kind::{Paper as P, TieStrength as X, TwoRumor as R};
    use Tier::{Large, Mid, Small, Tiny};
    let mut rng = Rng::new(seed, 0x501E_0000 + round);
    let mut nets = Rng::new(CORPUS, 0x501E_0000 + round);
    // (kind, tier, eps_max, max_iters). eps_max 0.7 with the paper
    // weights gives interior schedules (hundreds of iterations); small
    // eps_max saturates the controls (tens of iterations). The costs
    // fall in clusters placed so that the median and the 90th percentile
    // of a run each lie inside one: seven cheap requests, five 290-class
    // paper solves around the median, three 290- to 590-class solves,
    // and four interior solves of which the two two-rumor ones are the
    // slowest and hold the 90th percentile. The named fault comes last.
    let templates: [(Kind, Tier, f64, usize); 19] = [
        (P, Tiny, 0.7, 300),
        (P, Mid, 0.3, 300),
        (R, Small, 0.3, 300),
        (P, Small, 0.7, 600),
        (X, Small, 0.7, 300),
        (P, Mid, 0.3, 300),
        (R, Mid, 0.3, 300),
        (R, Tiny, 0.3, 300),
        (R, Small, 0.7, 600),
        (P, Small, 0.3, 300),
        (P, Mid, 0.3, 300),
        (X, Large, 0.3, 300),
        (P, Tiny, 0.7, 300),
        (P, Small, 0.7, 600),
        (P, Mid, 0.3, 300),
        (X, Small, 0.7, 300),
        (P, Large, 0.3, 300),
        (R, Small, 0.7, 600),
        (P, Mid, 0.3, 300),
    ];
    let mut ops: Vec<Req> = templates
        .into_iter()
        .map(|(kind, tier, eps_max, max_iters)| {
            let mut req = Req::new(Endpoint::Optimize, kind, Net::new(tier, nets.net_seed()));
            req.lambda0 = rng.uniform(0.019, 0.021);
            req.eps_max = eps_max;
            req.max_iters = max_iters;
            req
        })
        .collect();
    // The named fault: the paper's weights and bound on the 300-node
    // network over a longer horizon. Fixed inputs apart from the round.
    let mut fault = Req::new(Endpoint::Optimize, P, Net::new(Tiny, fault_net_seed(round)));
    fault.tf = 30.0;
    fault.fault = true;
    ops.push(fault);
    ops
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignKind {
    ThresholdSweep,
    OptimizeSweep,
    Ensemble,
}

impl CampaignKind {
    pub fn name(self) -> &'static str {
        match self {
            CampaignKind::ThresholdSweep => "threshold_sweep",
            CampaignKind::OptimizeSweep => "optimize_sweep",
            CampaignKind::Ensemble => "ensemble",
        }
    }
}

/// One `campaign_stream` operation: a durable campaign over `points`
/// grid points. `base` carries the per-point request parameters
/// (`lambda0` is swept from `sweep_from` to `sweep_to`).
#[derive(Debug, Clone)]
pub struct Campaign {
    pub kind: CampaignKind,
    pub points: u64,
    pub base: Req,
    pub sweep_from: f64,
    pub sweep_to: f64,
    /// Ensemble-only: ABM time step.
    pub dt: f64,
}

impl Campaign {
    pub fn body(&self) -> String {
        let net = self.base.net.json();
        let b = &self.base;
        let base = match self.kind {
            CampaignKind::ThresholdSweep => format!(
                r#"{{"network":{net},"model":{{"alpha":{},"lambda0":{}}},"eps1":{},"eps2":{}}}"#,
                b.alpha, self.sweep_from, b.eps1, b.eps2
            ),
            CampaignKind::OptimizeSweep => format!(
                r#"{{"network":{net},"model":{{"alpha":{},"lambda0":{}}},"tf":{},"i0":{},"c1":{},"c2":{},"eps_max":{},"max_iters":{}}}"#,
                b.alpha, self.sweep_from, b.tf, b.i0, b.c1, b.c2, b.eps_max, b.max_iters
            ),
            CampaignKind::Ensemble => format!(
                r#"{{"network":{net},"model":{{"alpha":{},"lambda0":{}}},"eps1":{},"eps2":{},"tf":{},"i0":{},"dt":{}}}"#,
                b.alpha, b.lambda0, b.eps1, b.eps2, b.tf, b.i0, self.dt
            ),
        };
        format!(
            r#"{{"kind":"{}","points":{},"sweep":{{"from":{},"to":{}}},"base":{base}}}"#,
            self.kind.name(),
            self.points,
            self.sweep_from,
            self.sweep_to
        )
    }

    /// `λ0` at point `index`, as the service spaces the sweep.
    pub fn lambda0_at(&self, index: u64) -> f64 {
        if self.points <= 1 {
            return self.sweep_from;
        }
        self.sweep_from
            + (self.sweep_to - self.sweep_from) * index as f64 / (self.points - 1) as f64
    }
}

pub const CAMPAIGNS_PER_ROUND: usize = 6;

pub fn campaign_round(seed: u64, round: u64) -> Vec<Campaign> {
    let mut rng = Rng::new(seed, 0xCA3E_0000 + round);
    let mut nets = Rng::new(CORPUS, 0xCA3E_0000 + round);
    let cycle = [
        CampaignKind::ThresholdSweep,
        CampaignKind::OptimizeSweep,
        CampaignKind::Ensemble,
    ];
    (0..CAMPAIGNS_PER_ROUND)
        .map(|n| {
            let kind = cycle[n % cycle.len()];
            let from = rng.uniform(0.015, 0.02);
            match kind {
                CampaignKind::ThresholdSweep => {
                    let mut base = Req::new(
                        Endpoint::Threshold,
                        Kind::Paper,
                        Net::new(Tier::Small, nets.net_seed()),
                    );
                    base.eps1 = rng.uniform(0.2, 0.4);
                    base.eps2 = rng.uniform(0.03, 0.08);
                    Campaign {
                        kind,
                        points: 16,
                        base,
                        sweep_from: from,
                        sweep_to: from + 0.03,
                        dt: 0.1,
                    }
                }
                CampaignKind::OptimizeSweep => {
                    let base = Req::new(
                        Endpoint::Optimize,
                        Kind::Paper,
                        Net::new(Tier::Tiny, nets.net_seed()),
                    );
                    Campaign {
                        kind,
                        points: 3,
                        base,
                        sweep_from: from,
                        sweep_to: from + 0.004,
                        dt: 0.1,
                    }
                }
                CampaignKind::Ensemble => {
                    let mut base = Req::new(
                        Endpoint::Simulate,
                        Kind::Paper,
                        Net::new(Tier::Small, nets.net_seed()),
                    );
                    base.lambda0 = from;
                    base.eps1 = rng.uniform(0.15, 0.3);
                    base.eps2 = rng.uniform(0.03, 0.08);
                    base.tf = 20.0;
                    Campaign {
                        kind,
                        points: 12,
                        base,
                        sweep_from: from,
                        sweep_to: from,
                        dt: 0.1,
                    }
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_pure_functions_of_seed_and_round() {
        let a: Vec<String> = solve_round(7, 3).iter().map(Req::body).collect();
        let b: Vec<String> = solve_round(7, 3).iter().map(Req::body).collect();
        assert_eq!(a, b);
        let c: Vec<String> = solve_round(8, 3).iter().map(Req::body).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn fault_requests_do_not_depend_on_the_seed() {
        let pick = |seed| {
            solve_round(seed, 2)
                .into_iter()
                .filter(|r| r.fault)
                .map(|r| r.body())
                .collect::<Vec<_>>()
        };
        assert_eq!(pick(1), pick(99));
        assert_eq!(pick(1).len(), 1);
    }

    #[test]
    fn query_rounds_repeat_sixty_percent_of_their_requests() {
        let ops = query_round(5, 0);
        assert_eq!(ops.len(), QUERY_FRESH + QUERY_REPEATS);
        let repeats = ops.iter().filter(|op| op.repeat_of.is_some()).count();
        assert_eq!(repeats, QUERY_REPEATS);
        for op in &ops {
            if let Some(i) = op.repeat_of {
                assert_eq!(ops[i].req, op.req);
                assert!(ops[i].repeat_of.is_none());
            }
        }
    }
}
