//! Per-campaign outcomes, the output checks every run makes, and the
//! metric table printed as the run's last line.

use crate::stats::{geo_mean, median, percentile};
use glova::cache::CacheStats;
use std::collections::BTreeMap;

/// The deterministic part of one campaign's result: identical inputs must
/// give an identical signature on every repetition, engine and schedule.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Signature {
    /// Terminal status label (`done` for direct campaign calls).
    pub status: &'static str,
    /// Whether a design was confirmed on the full grid.
    pub success: bool,
    /// Cumulative simulations at the confirmed design.
    pub sims_to_success: Option<u64>,
    /// Simulations spent in total.
    pub total_sims: u64,
    /// Policy steps (RL iterations for the paper loop).
    pub steps: usize,
    /// Bit patterns of the confirmed design.
    pub design_bits: Vec<u64>,
}

/// One campaign run or served job.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Index of the input that produced it (repetitions share a key).
    pub key: usize,
    /// Stratum for per-group medians (circuit, or circuit × method).
    pub group: &'static str,
    /// Campaign seed.
    pub seed: u64,
    /// Deterministic result.
    pub signature: Signature,
    /// Campaign run time.
    pub wall_s: f64,
    /// Due-to-terminal time (equal to `wall_s` for direct calls).
    pub latency_s: f64,
    /// Due-to-first-step time, when the campaign took a step.
    pub first_step_s: Option<f64>,
    /// Evaluations that degraded to NaN metrics.
    pub degraded: u64,
}

impl Outcome {
    /// A job that ended `Failed`, or a run with degraded evaluations.
    pub fn failed(&self) -> bool {
        self.signature.status == "failed" || self.degraded > 0
    }
}

/// Collects output-check violations; a run with any is not correct.
#[derive(Debug, Default)]
pub struct Checks {
    violations: Vec<String>,
    first_seen: BTreeMap<usize, Signature>,
    repeats_compared: usize,
}

impl Checks {
    /// Records a violation.
    pub fn fail(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.violations.push(why);
    }

    /// A confirmed design must exist exactly on success, have the
    /// circuit's dimension and lie in `[0, 1]^p`.
    pub fn design(&mut self, key: usize, success: bool, design: Option<&[f64]>, dim: usize) {
        match (success, design) {
            (true, Some(x)) if x.len() == dim && x.iter().all(|v| (0.0..=1.0).contains(v)) => {}
            (true, Some(x)) => self.fail(format!("input {key}: design {x:?} outside [0,1]^{dim}")),
            (true, None) => self.fail(format!("input {key}: success without a design")),
            (false, Some(_)) => self.fail(format!("input {key}: failure carries a design")),
            (false, None) => {}
        }
    }

    /// Repetitions of one input must reproduce its first signature.
    pub fn repeat(&mut self, key: usize, signature: &Signature) {
        match self.first_seen.get(&key) {
            Some(first) if first == signature => self.repeats_compared += 1,
            Some(first) => self
                .fail(format!("input {key}: repetition gave {signature:?}, first run {first:?}")),
            None => {
                self.first_seen.insert(key, signature.clone());
            }
        }
    }

    /// Repetitions compared so far.
    pub fn repeats_compared(&self) -> usize {
        self.repeats_compared
    }

    /// Whether no check failed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// FNV-1a digest of the first signature of every input, sorted, so it
    /// does not depend on the seeded run order: a trajectory change shows
    /// as a new digest.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01B3);
            }
        };
        let mut sigs: Vec<&Signature> = self.first_seen.values().collect();
        sigs.sort();
        for s in sigs {
            s.status.bytes().for_each(|b| eat(u64::from(b)));
            eat(u64::from(s.success));
            eat(s.sims_to_success.unwrap_or(u64::MAX));
            eat(s.total_sims);
            eat(s.steps as u64);
            s.design_bits.iter().for_each(|&b| eat(b));
        }
        h
    }
}

/// Metrics in print order: name → (value, unit).
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric. Every reported value must be a finite number.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name.to_string(), value, unit));
    }

    /// Prints one human-readable line per metric.
    pub fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:32} {value:>16.6} {unit}");
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// Median of each group's values, combined by geometric mean so every
/// group weighs the same. `None` when no group has a value.
pub fn stratified_median(values: &[(&'static str, f64)]) -> Option<f64> {
    let mut groups: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(g, v) in values {
        groups.entry(g).or_default().push(v);
    }
    let medians: Vec<f64> = groups.values().filter_map(|v| median(v)).collect();
    geo_mean(&medians)
}

/// Counters of several evaluation caches, added up.
pub fn sum_cache_stats(stats: impl Iterator<Item = CacheStats>) -> CacheStats {
    stats.fold(CacheStats::default(), |a, s| CacheStats {
        hits: a.hits + s.hits,
        misses: a.misses + s.misses,
        evictions: a.evictions + s.evictions,
    })
}

/// The end-to-end metrics shared by every workload.
pub struct EndToEnd<'a> {
    /// Every campaign run or job, repetitions included.
    pub outcomes: &'a [Outcome],
    /// Median set-up time.
    pub setup_s: f64,
    /// The workload's latency limit.
    pub slo_s: f64,
    /// Submits the server refused (0 for direct calls).
    pub refused: u64,
}

impl EndToEnd<'_> {
    /// Campaign runs and jobs attempted, refused submits included.
    pub fn attempted(&self) -> u64 {
        self.outcomes.len() as u64 + self.refused
    }

    /// Attempts that failed: refused submits, failed jobs and runs with
    /// degraded evaluations.
    pub fn failed(&self) -> u64 {
        self.refused + self.outcomes.iter().filter(|x| x.failed()).count() as u64
    }

    /// Fills the end-to-end metric table.
    pub fn metrics(&self) -> Metrics {
        let o = self.outcomes;
        let mut m = Metrics::default();
        m.put("setup_s", self.setup_s, "s");
        // Per-input medians first, so repetitions do not weigh an input
        // more than its peers (served jobs run once each).
        let mut by_input: BTreeMap<usize, Vec<&Outcome>> = BTreeMap::new();
        for x in o {
            by_input.entry(x.key).or_default().push(x);
        }
        let per_input = |f: &dyn Fn(&Outcome) -> Option<f64>| -> Vec<(&'static str, f64)> {
            by_input
                .values()
                .filter_map(|runs| {
                    let v: Vec<f64> = runs.iter().filter_map(|x| f(x)).collect();
                    median(&v).map(|m| (runs[0].group, m))
                })
                .collect()
        };
        let walls = per_input(&|x| Some(x.wall_s));
        m.put("campaign_wall_p50_s", stratified_median(&walls).unwrap_or(0.0), "s");
        let mut firsts: BTreeMap<usize, &Outcome> = BTreeMap::new();
        for x in o {
            firsts.entry(x.key).or_insert(x);
        }
        // One pass over the inputs: their simulations over their median
        // run times, so a run that stops mid-pass weighs no input twice.
        let sims: u64 = firsts.values().map(|x| x.signature.total_sims).sum();
        let wall: f64 = walls.iter().map(|&(_, w)| w).sum();
        m.put("sims_per_s", sims as f64 / wall, "1/s");
        let sts: Vec<(&'static str, f64)> = firsts
            .values()
            .filter_map(|x| x.signature.sims_to_success.map(|s| (x.group, s as f64)))
            .collect();
        m.put("sims_to_success_p50", stratified_median(&sts).unwrap_or(0.0), "count");
        let successes = firsts.values().filter(|x| x.signature.success).count();
        m.put("success_rate", successes as f64 / firsts.len() as f64, "fraction");
        // Failed share: degraded evaluations, failed jobs and refused
        // submits over every simulation and job attempted.
        let degraded: u64 = o.iter().map(|x| x.degraded).sum();
        let failed = o.iter().filter(|x| x.signature.status == "failed").count() as u64;
        let all_sims: u64 = o.iter().map(|x| x.signature.total_sims).sum();
        let attempted = (all_sims + self.attempted()) as f64;
        m.put("ok_frac", 1.0 - (degraded + failed + self.refused) as f64 / attempted, "fraction");
        // Medians per group (circuit, or circuit × method), so a mix of
        // near-instant and long jobs cannot flip them; the tail percentile
        // pools every input, since a group alone has too few samples
        // beyond its p90.
        let lat = per_input(&|x| Some(x.latency_s));
        m.put("job_latency_p50_s", stratified_median(&lat).unwrap_or(0.0), "s");
        let pooled: Vec<f64> = lat.iter().map(|&(_, v)| v).collect();
        m.put("job_latency_p90_s", percentile(&pooled, 0.9).unwrap_or(0.0), "s");
        let first = per_input(&|x| x.first_step_s);
        m.put("first_step_p50_s", stratified_median(&first).unwrap_or(0.0), "s");
        let met = o
            .iter()
            .filter(|x| x.signature.status != "failed" && x.latency_s <= self.slo_s)
            .count();
        m.put("slo_met_frac", met as f64 / self.attempted() as f64, "fraction");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(total: u64) -> Signature {
        Signature {
            status: "done",
            success: true,
            sims_to_success: Some(total),
            total_sims: total,
            steps: 3,
            design_bits: vec![0.5f64.to_bits()],
        }
    }

    #[test]
    fn repeats_must_match() {
        let mut c = Checks::default();
        c.repeat(0, &sig(10));
        c.repeat(0, &sig(10));
        assert!(c.passed());
        assert_eq!(c.repeats_compared(), 1);
        c.repeat(0, &sig(11));
        assert!(!c.passed());
    }

    #[test]
    fn digest_ignores_run_order_but_not_trajectories() {
        let (mut a, mut b, mut c) = (Checks::default(), Checks::default(), Checks::default());
        a.repeat(0, &sig(10));
        a.repeat(1, &sig(20));
        b.repeat(0, &sig(20));
        b.repeat(1, &sig(10));
        c.repeat(0, &sig(10));
        c.repeat(1, &sig(21));
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn designs_must_lie_in_the_unit_cube() {
        let mut c = Checks::default();
        c.design(0, true, Some(&[0.0, 1.0]), 2);
        c.design(1, false, None, 2);
        assert!(c.passed());
        c.design(2, true, Some(&[1.5, 0.2]), 2);
        assert!(!c.passed());
    }

    #[test]
    fn stratified_median_weighs_groups_equally() {
        // Group a: median 2; group b: median 8 → geometric mean 4.
        let v = [("a", 1.0), ("a", 2.0), ("a", 3.0), ("b", 8.0)];
        assert!((stratified_median(&v).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.25, "s");
        let line = m.result_json(true, 3, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
