//! Golden training digests: pins the agent's training arithmetic across
//! commits.
//!
//! Each scenario fills the replay buffer, behaviour-clones the actor,
//! then alternates `train_step` with `propose`/`observe`. Every proposal
//! and the final base-model predictions at fixed probe points are hashed
//! bit for bit. The constants were recorded before the batched training
//! kernel replaced the per-sample path, so a change that alters any bit of
//! a trajectory (summation order, a fused multiply-add, a skipped term)
//! fails here even when every run agrees with itself.

use glova_rl::{AgentConfig, RiskSensitiveAgent};
use glova_stats::rng::seeded;
use rand::Rng;

/// FNV-1a over the raw bits of a stream of `f64`s.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, x: f64) {
        for byte in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }
}

/// Worst-case reward of a synthetic sizing problem: feasible inside a
/// ball around a fixed optimum, negative distance margin outside it.
fn toy_reward(design: &[f64]) -> f64 {
    let dist = design
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let opt = 0.3 + 0.4 * ((i * 7 % 5) as f64 / 4.0);
            (x - opt) * (x - opt)
        })
        .sum::<f64>()
        .sqrt();
    if dist < 0.2 {
        0.2
    } else {
        -(dist - 0.2)
    }
}

fn run(config: AgentConfig, seed: u64, train_steps: usize) -> u64 {
    let dim = config.dim;
    let goal: Vec<f64> = (0..config.goal_dim).map(|g| 0.8 + 0.1 * g as f64).collect();
    let mut rng = seeded(seed);
    let mut agent = RiskSensitiveAgent::new(config, &mut rng);
    let mut digest = Digest::new();

    let obs = |design: &[f64]| -> Vec<f64> { design.iter().chain(&goal).copied().collect() };
    for _ in 0..6 {
        let design: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
        agent.observe(obs(&design), toy_reward(&design));
    }
    let (best, _) = agent.best_design().expect("buffer is seeded");
    let mut x_last = best[..dim].to_vec();
    agent.pretrain_actor_towards(&x_last.clone(), 12, &mut rng);
    for _ in 0..train_steps {
        agent.set_proximal_target(Some(x_last.clone()));
        agent.train_step(&mut rng);
        let next = agent.propose(&obs(&x_last), &mut rng);
        digest.extend(&next);
        agent.observe(obs(&next), toy_reward(&next));
        x_last = next;
    }
    for p in 0..3 {
        let probe: Vec<f64> = (0..dim).map(|i| ((p * dim + i) as f64 * 0.37).fract()).collect();
        digest.extend(&agent.critic().base_predictions(&obs(&probe)));
    }
    digest.0
}

fn quick(dim: usize) -> AgentConfig {
    AgentConfig { hidden: vec![32, 32], updates_per_step: 4, ..AgentConfig::new(dim) }
}

#[test]
fn paper_settings_digest() {
    assert_eq!(run(AgentConfig::new(7), 1, 3), 0xbc1e_4b5e_62d1_7311);
}

#[test]
fn quick_settings_digest() {
    assert_eq!(run(quick(5), 2, 4), 0x5f6e_0322_9457_ed86);
}

#[test]
fn goal_conditioned_digest() {
    assert_eq!(run(quick(4).with_goal_dim(3), 3, 4), 0x0e05_4967_439e_87af);
}

#[test]
fn without_ensemble_digest() {
    assert_eq!(run(AgentConfig::new(6).without_ensemble(), 4, 3), 0x6ef9_86b1_7c2a_e2c3);
}
