//! Golden TuRBO digests: pins every ask's arithmetic across commits.
//!
//! Each scenario runs a deterministic ask/tell loop and hashes every
//! asked point bit for bit; the surrogate scenario hashes fitted GP
//! predictions. The constants were recorded before the blocked GP
//! kernels (lower-triangle kernel fill, blocked Cholesky, batched
//! posterior) replaced the per-entry and per-candidate paths, so a change
//! that alters any bit of a trajectory (summation order, a fused
//! multiply-add, an RNG draw moved) fails here even when every run agrees
//! with itself.

use glova_stats::rng::seeded;
use glova_turbo::{GaussianProcess, Turbo, TurboConfig};
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

/// A smooth objective with a per-dimension optimum inside the unit cube.
fn objective(x: &[f64]) -> f64 {
    -x.iter()
        .enumerate()
        .map(|(i, v)| {
            let opt = 0.2 + 0.6 * ((i * 5 % 7) as f64 / 6.0);
            let z = v - opt;
            z * z + 0.02 * (9.0 * z).sin()
        })
        .sum::<f64>()
}

#[test]
fn dim14_asks() {
    let mut rng = seeded(1301);
    let mut turbo = Turbo::new(TurboConfig::new(14), &mut rng);
    let mut digest = Digest::new();
    for _ in 0..90 {
        let x = turbo.ask(&mut rng);
        digest.extend(&x);
        let y = objective(&x);
        turbo.tell(x, y);
    }
    digest.push(turbo.best().expect("observations were told").1);
    assert_eq!(digest.0, 0x384d_23d0_057b_45a7, "dim-14 ask digest");
}

#[test]
fn dim4_asks_through_a_restart() {
    let mut rng = seeded(1302);
    let mut turbo = Turbo::new(TurboConfig::new(4).with_init_points(3), &mut rng);
    let mut digest = Digest::new();
    let mut restarts = 0;
    for _ in 0..70 {
        let x = turbo.ask(&mut rng);
        digest.extend(&x);
        // Coarse plateaus: once the incumbent's plateau is reached, nearby
        // asks stop improving and the trust region collapses.
        let y = (objective(&x) * 4.0).floor();
        let before = turbo.len();
        turbo.tell(x, y);
        if turbo.len() <= before {
            restarts += 1;
        }
        digest.push(turbo.trust_region().length());
    }
    assert!(restarts > 0, "the scenario must restart the trust region");
    assert_eq!(digest.0, 0x3d19_e497_82d7_a2a5, "dim-4 restart digest");
}

#[test]
fn history_window_caps_and_keeps_the_incumbent() {
    let dim = 2;
    let n_init = 300;
    let mut rng = seeded(1303);
    let mut turbo = Turbo::new(TurboConfig::new(dim).with_init_points(n_init), &mut rng);
    let mut digest = Digest::new();
    // The initial design: the incumbent is the fifth point, so after 300
    // tells it lies outside the 256-point window and is appended to it.
    for i in 0..n_init {
        let x = turbo.ask(&mut rng);
        let y = if i == 4 { 1.0 } else { objective(&x) - 1.0 };
        turbo.tell(x, y);
    }
    for _ in 0..3 {
        let x = turbo.ask(&mut rng);
        digest.extend(&x);
        let y = objective(&x) - 1.0;
        turbo.tell(x, y);
    }
    assert_eq!(turbo.len(), n_init + 3);
    assert_eq!(turbo.best().expect("observations were told").1, 1.0);
    assert_eq!(digest.0, 0xbc4c_d15a_5c5e_027b, "capped-window digest");
}

#[test]
fn fit_auto_predictions() {
    let dim = 3;
    let mut digest = Digest::new();
    for n in [1, 5, 37] {
        let mut rng = seeded(1304 + n as u64);
        let xs: Vec<Vec<f64>> = (0..n).map(|_| (0..dim).map(|_| rng.gen()).collect()).collect();
        let ys: Vec<f64> = xs.iter().map(|x| objective(x)).collect();
        let gp = GaussianProcess::fit_auto(&xs, &ys, &mut rng);
        digest.push(gp.log_marginal_likelihood());
        for q in 0..7 {
            let query: Vec<f64> = (0..dim).map(|d| ((q * 3 + d) % 7) as f64 / 6.0).collect();
            let (mean, var) = gp.predict(&query);
            digest.push(mean);
            digest.push(var);
        }
    }
    assert_eq!(digest.0, 0x1827_d6ee_8465_5436, "fit_auto/predict digest");
}
