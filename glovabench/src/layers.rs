//! The per-layer metric table printed by traced runs, and the side
//! probes that time agent training directly.

use glova_rl::{AgentConfig, RiskSensitiveAgent};
use glova_stats::rng::seeded;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric, in print order, with its unit. A layer the
/// workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("campaign.runs", "count"),
    ("campaign.steps", "count"),
    ("campaign.seed_s", "s"),
    ("campaign.step_ms_p50", "ms"),
    ("campaign.step_self_ms_p50", "ms"),
    ("optimizer.iterations", "count"),
    ("optimizer.iteration_ms_p50", "ms"),
    ("optimizer.iteration_self_ms_p50", "ms"),
    ("spice.evals", "count"),
    ("spice.busy_s", "s"),
    ("spice.eval_us_p50.sal", "us"),
    ("spice.eval_us_p50.ota", "us"),
    ("spice.eval_us_p50.inv8", "us"),
    ("spice.eval_us_p50.sa5x4", "us"),
    ("spice.nonconvergent", "count"),
    ("spice.recovered", "count"),
    ("spice.degraded", "count"),
    ("spice.useful_frac", "fraction"),
    ("engine.parallel_eff", "fraction"),
    ("cache.lookups", "count"),
    ("cache.hits", "count"),
    ("cache.hit_rate", "fraction"),
    ("cache.evictions", "count"),
    ("cache_registry.hits", "count"),
    ("cache_registry.creations", "count"),
    ("cache_registry.evictions", "count"),
    ("rl.nonsim_s", "s"),
    ("rl.train_step_ms.quick", "ms"),
    ("rl.train_step_ms.paper", "ms"),
    ("rl.pretrain_ms", "ms"),
    ("turbo.phase_s", "s"),
    ("turbo.asks", "count"),
    ("verify.attempts", "count"),
    ("verify.sims", "count"),
    ("verify.pass_frac", "fraction"),
    ("serve.jobs", "count"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.queue_wait_p90_s", "s"),
    ("serve.run_s_p50", "s"),
    ("serve.queue_high_water", "count"),
    ("serve.solver_primes", "count"),
    ("serve.solver_hits", "count"),
    ("serve.jobs_done", "count"),
    ("serve.jobs_budget_exhausted", "count"),
    ("serve.jobs_failed", "count"),
    ("serve.jobs_cancelled", "count"),
    ("serve.jobs_refused", "count"),
    ("serve.generator_lag_p90_s", "s"),
    ("serve.poll_gap_p90_s", "s"),
    ("serve.shared_seed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
];

/// Per-layer values filled by a workload.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets one metric; the name must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.0.insert(name, value);
    }

    /// The full table, unreached layers as 0.
    pub fn metrics(&self) -> crate::report::Metrics {
        let mut m = crate::report::Metrics::default();
        for &(name, unit) in PER_LAYER {
            m.put(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
        m
    }
}

/// Agent preset a workload trains with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// `GlovaConfig::paper` / `CampaignConfig::paper`: hidden [64,64,64],
    /// 8 updates per step, 200 behaviour-cloning steps.
    Paper,
    /// `CampaignConfig::quick`: hidden [32,32], 4 updates per step,
    /// 100 behaviour-cloning steps.
    Quick,
}

impl Preset {
    fn agent(self, dim: usize, goal_dim: usize) -> AgentConfig {
        let (hidden, updates) = match self {
            Preset::Paper => (vec![64, 64, 64], 8),
            Preset::Quick => (vec![32, 32], 4),
        };
        AgentConfig {
            hidden,
            updates_per_step: updates,
            ..AgentConfig::new(dim).with_goal_dim(goal_dim)
        }
    }

    fn pretrain_steps(self) -> usize {
        match self {
            Preset::Paper => 200,
            Preset::Quick => 100,
        }
    }
}

impl Layers {
    /// Times agent training directly (`rl.train_step_ms.*` at both presets,
    /// `rl.pretrain_ms` at the workload's) for a `dim`-parameter design
    /// with `goal_dim` goal factors.
    pub fn probe_agent(&mut self, preset: Preset, dim: usize, goal_dim: usize) {
        self.set("rl.train_step_ms.paper", train_step_ms(Preset::Paper, dim, goal_dim));
        self.set("rl.train_step_ms.quick", train_step_ms(Preset::Quick, dim, goal_dim));
        self.set("rl.pretrain_ms", pretrain_ms(preset, dim, goal_dim));
    }
}

/// Median milliseconds of `RiskSensitiveAgent::train_step` at `preset`
/// on a buffer of 40 fixed observations.
fn train_step_ms(preset: Preset, dim: usize, goal_dim: usize) -> f64 {
    let mut agent = seeded_agent(preset, dim, goal_dim);
    let mut rng = seeded(3);
    let mut times: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            agent.train_step(&mut rng);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.drain(..3); // warm-up
    crate::stats::median(&times).expect("timed steps")
}

/// Median milliseconds of one `pretrain_actor_towards` call with the
/// preset's step count.
fn pretrain_ms(preset: Preset, dim: usize, goal_dim: usize) -> f64 {
    let mut rng = seeded(4);
    let target = vec![0.5; dim];
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let mut agent = seeded_agent(preset, dim, goal_dim);
            let t = Instant::now();
            agent.pretrain_actor_towards(&target, preset.pretrain_steps(), &mut rng);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&times).expect("timed calls")
}

fn seeded_agent(preset: Preset, dim: usize, goal_dim: usize) -> RiskSensitiveAgent {
    let mut rng = seeded(2);
    let mut agent = RiskSensitiveAgent::new(preset.agent(dim, goal_dim), &mut rng);
    let mut inputs = crate::schedule::SplitMix64::new(1, 0x0B5);
    for _ in 0..40 {
        let obs: Vec<f64> = (0..dim + goal_dim).map(|_| inputs.next_f64()).collect();
        agent.observe(obs, -inputs.next_f64());
    }
    agent
}
