//! `direct_campaigns`: the workload that calls the library directly. One
//! cyclic pass runs the paper loop (`GlovaOptimizer::run` on the analytic
//! StrongARM latch at `GlovaConfig::paper`) and SPICE sizing campaigns
//! (`SizingCampaign::run_with` at `CampaignConfig::quick`) in a seeded
//! order.

use crate::layers::{Layers, Preset};
use crate::report::{sum_cache_stats, Checks, EndToEnd, Outcome, Signature};
use crate::schedule::SplitMix64;
use crate::stats::median;
use crate::trace::{busy_time, self_time, union_length, SpanKind, SpanLog, TracedCircuit};
use crate::{timed_setup, write_spans, Args, RunReport};
use glova::cache::EvalCacheConfig;
use glova::campaign::{CampaignConfig, SizingCampaign};
use glova::engine::EngineSpec;
use glova::optimizer::{GlovaConfig, GlovaOptimizer};
use glova_circuits::{Circuit, FailureStats};
use glova_variation::config::VerificationMethod;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Latency limit of one direct campaign call, for `slo_met_frac`.
pub const SLO_S: f64 = 4.0;
/// Campaign seeds per method of the paper loop.
const PAPER_SEEDS_PER_METHOD: usize = 4;
/// Campaign seeds per SPICE circuit.
const SPICE_SEEDS_PER_CIRCUIT: usize = 3;
/// Engine workers of a SPICE campaign (`threaded:2`).
const SPICE_WORKERS: usize = 2;
/// The SPICE circuits with the `campaign` bin's goal factors: each
/// tightens the base spec past what the Latin-hypercube seed designs
/// meet, so campaigns search.
const GOALS: [(&str, &[f64]); 3] =
    [("ota", &[1.4, 5.0, 0.5]), ("inv8", &[0.44, 1.25, 0.4]), ("sa5x4", &[1.5, 0.85, 0.75])];

/// Which entry point an input calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `GlovaOptimizer::run` on the analytic SAL under this method.
    Paper(VerificationMethod),
    /// `SizingCampaign::run_with` on SPICE circuit `GOALS[i]`.
    Spice(usize),
}

/// One campaign input.
#[derive(Debug, Clone)]
struct Input {
    kind: Kind,
    seed: u64,
    group: &'static str,
}

/// The inputs of every run (eight paper-loop and nine SPICE campaigns),
/// in an order drawn from the workload seed.
fn inputs(seed: u64) -> Vec<Input> {
    let paper = (0..2 * PAPER_SEEDS_PER_METHOD).map(|i| {
        let (method, group) = if i % 2 == 0 {
            (VerificationMethod::CornerLocalMc, "sal/C-MC_L")
        } else {
            (VerificationMethod::CornerGlobalLocalMc, "sal/C-MC_G-L")
        };
        Input { kind: Kind::Paper(method), seed: 1 + (i / 2) as u64, group }
    });
    let spice = (0..3 * SPICE_SEEDS_PER_CIRCUIT).map(|i| Input {
        kind: Kind::Spice(i % 3),
        seed: 1 + (i / 3) as u64,
        group: GOALS[i % 3].0,
    });
    let mut inputs: Vec<Input> = paper.chain(spice).collect();
    SplitMix64::new(seed, 1).shuffle(&mut inputs);
    inputs
}

/// What one direct call produced, beyond the outcome.
#[derive(Debug, Clone)]
struct Run {
    outcome: Outcome,
    kind: Kind,
    id: u32,
    start: f64,
    end: f64,
    /// Start of the first mismatch-sampled evaluation (paper loop).
    first_mismatch: Option<f64>,
    /// RL iterations (paper loop) or campaign steps (SPICE).
    steps: usize,
    verification_attempts: usize,
    step_ms: Vec<f64>,
    steps_wall_s: f64,
    cache: Option<glova::cache::CacheStats>,
    failures: FailureStats,
}

/// The objects every call runs on: the SAL with one optimizer per
/// paper-loop input, and the three SPICE circuits.
struct Fixtures {
    sal: Arc<TracedCircuit>,
    optimizers: Vec<Option<GlovaOptimizer>>,
    spice: Vec<Arc<TracedCircuit>>,
}

impl Fixtures {
    /// Builds the circuits and optimizers, wrapped to record spans into
    /// `log` when given (`run` starts every campaign from scratch, so
    /// repetitions reuse the optimizers).
    fn new(inputs: &[Input], epoch: Instant, log: Option<Arc<SpanLog>>) -> Self {
        let wrap = |c: Arc<dyn Circuit>| Arc::new(TracedCircuit::new(c, epoch, log.clone()));
        let sal = wrap(Arc::new(glova_circuits::StrongArmLatch::new()));
        let optimizers = inputs
            .iter()
            .map(|x| match x.kind {
                Kind::Paper(method) => {
                    Some(GlovaOptimizer::new(sal.clone(), GlovaConfig::paper(method)))
                }
                Kind::Spice(_) => None,
            })
            .collect();
        let spice = vec![
            wrap(Arc::new(glova_circuits::SpiceOta::new())),
            wrap(Arc::new(glova_circuits::SpiceInverterChain::new(8))),
            wrap(Arc::new(glova_circuits::SpiceSenseAmpArray::new(5, 4))),
        ];
        Self { sal, optimizers, spice }
    }
}

/// `CampaignConfig::quick`, C-MC_L, full grid, engine `threaded:2`,
/// default private cache, with SPICE circuit `c`'s goal.
fn spice_config(c: usize) -> CampaignConfig {
    CampaignConfig::quick(VerificationMethod::CornerLocalMc)
        .with_engine(EngineSpec::Threaded(SPICE_WORKERS))
        .with_cache(EvalCacheConfig::default())
        .with_goal(GOALS[c].1.to_vec())
}

/// Runs input `key` once as campaign `id` and checks its output.
fn call(
    inputs: &[Input],
    fx: &mut Fixtures,
    log: Option<&SpanLog>,
    checks: &mut Checks,
    epoch: Instant,
    key: usize,
    id: u32,
) -> Run {
    let x = &inputs[key];
    let at = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64();
    let (run, design, dim) = match x.kind {
        Kind::Paper(_) => {
            let opt = fx.optimizers[key].as_mut().expect("paper-loop inputs have an optimizer");
            fx.sal.begin_campaign(id);
            let start = Instant::now();
            let r = opt.run(x.seed);
            let end = Instant::now();
            let first = fx.sal.first_mismatch_eval();
            let signature = Signature {
                status: "done",
                success: r.success,
                sims_to_success: r.success.then_some(r.simulations),
                total_sims: r.simulations,
                steps: r.rl_iterations,
                design_bits: r.final_design.iter().flatten().map(|v| v.to_bits()).collect(),
            };
            let mut o = outcome(x, key, signature, (end - start).as_secs_f64(), 0);
            // End of TuRBO seeding: the first mismatch-sampled evaluation.
            o.first_step_s = first.map(|t| (t - start).as_secs_f64());
            let run = Run {
                outcome: o,
                kind: x.kind,
                id,
                start: at(start),
                end: at(end),
                first_mismatch: first.map(at),
                steps: r.rl_iterations,
                verification_attempts: r.verification_attempts,
                step_ms: Vec::new(),
                steps_wall_s: 0.0,
                cache: None,
                failures: FailureStats::default(),
            };
            (run, r.final_design, fx.sal.dim())
        }
        Kind::Spice(c) => {
            let circuit = &fx.spice[c];
            circuit.begin_campaign(id);
            let campaign = SizingCampaign::new(circuit.clone(), spice_config(c));
            let mut first_step = None;
            let mut step_ms = Vec::new();
            let start = Instant::now();
            let r = campaign.run_with(x.seed, &mut |step| {
                let now = Instant::now();
                first_step.get_or_insert(now);
                step_ms.push(step.wall.as_secs_f64() * 1e3);
                if let Some(log) = log {
                    let end = log.at(now);
                    log.record(SpanKind::Step, id, end - step.wall.as_secs_f64(), end);
                }
            });
            let end = Instant::now();
            let signature = Signature {
                status: "done",
                success: r.success,
                sims_to_success: r.sims_to_success,
                total_sims: r.total_sims,
                steps: r.steps.len(),
                design_bits: r.final_design.iter().flatten().map(|v| v.to_bits()).collect(),
            };
            let mut o =
                outcome(x, key, signature, (end - start).as_secs_f64(), r.failures.degraded);
            o.first_step_s = first_step.map(|t| (t - start).as_secs_f64());
            let run = Run {
                outcome: o,
                kind: x.kind,
                id,
                start: at(start),
                end: at(end),
                first_mismatch: None,
                steps: r.steps.len(),
                verification_attempts: 0,
                steps_wall_s: r.steps.iter().map(|s| s.wall.as_secs_f64()).sum(),
                step_ms,
                cache: campaign.problem().cache_stats(),
                failures: r.failures,
            };
            (run, r.final_design, campaign.problem().dim())
        }
    };
    if let Some(log) = log {
        log.record(SpanKind::Campaign, id, run.start, run.end);
    }
    let s = &run.outcome.signature;
    checks.design(key, s.success, design.as_deref(), dim);
    checks.repeat(key, s);
    run
}

fn outcome(x: &Input, key: usize, signature: Signature, wall: f64, degraded: u64) -> Outcome {
    Outcome {
        key,
        group: x.group,
        seed: x.seed,
        signature,
        wall_s: wall,
        latency_s: wall,
        first_step_s: None,
        degraded,
    }
}

/// Runs `inputs` in order, cyclically, until `seconds` have passed and at
/// least one full pass plus one repetition is done (so the determinism
/// check always compares something).
fn cyclic(
    n: usize,
    seconds: f64,
    next_id: &mut u32,
    mut call: impl FnMut(usize, u32) -> Run,
) -> Vec<Run> {
    let t0 = Instant::now();
    let mut runs = Vec::new();
    let mut k = 0;
    while k <= n || t0.elapsed().as_secs_f64() < seconds {
        let run = call(k % n, *next_id);
        let (o, s) = (&run.outcome, &run.outcome.signature);
        println!(
            "  run {:3} input {:2} {:12} seed {:<4} {} steps {:4} sims {:7} wall {:.3} s",
            run.id,
            o.key,
            o.group,
            o.seed,
            if s.success { "solved" } else { "FAILED" },
            s.steps,
            s.total_sims,
            o.wall_s
        );
        runs.push(run);
        *next_id += 1;
        k += 1;
    }
    runs
}

/// Prints each group's median wall time, so a change that moves one
/// entry point is visible beside the combined metric.
fn print_groups(outcomes: &[Outcome]) {
    let mut by_input: BTreeMap<usize, (&str, Vec<f64>)> = BTreeMap::new();
    for o in outcomes {
        by_input.entry(o.key).or_insert((o.group, Vec::new())).1.push(o.wall_s);
    }
    let mut groups: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (group, walls) in by_input.values() {
        groups.entry(group).or_default().push(median(walls).expect("one run per input"));
    }
    for (group, walls) in &groups {
        let m = median(walls).unwrap_or(0.0);
        println!("  group {group:12} {} inputs, wall p50 {m:.4} s", walls.len());
    }
}

/// `direct_campaigns`.
pub fn direct_campaigns(args: &Args) -> RunReport {
    let inputs = inputs(args.seed);
    let epoch = Instant::now();
    let (setup_s, mut plain) = timed_setup(|| Fixtures::new(&inputs, epoch, None));
    let mut checks = Checks::default();
    let mut next_id = 0;
    let (plain_s, traced_s) = args.halves();
    let runs = cyclic(inputs.len(), plain_s, &mut next_id, |key, id| {
        call(&inputs, &mut plain, None, &mut checks, epoch, key, id)
    });
    let traced = traced_s.map(|secs| {
        let log = Arc::new(SpanLog::new(epoch));
        let mut fx = Fixtures::new(&inputs, epoch, Some(log.clone()));
        let truns = cyclic(inputs.len(), secs, &mut next_id, |key, id| {
            call(&inputs, &mut fx, Some(&log), &mut checks, epoch, key, id)
        });
        (log, truns)
    });
    let outcomes: Vec<Outcome> = runs.iter().map(|r| r.outcome.clone()).collect();
    print_groups(&outcomes);
    let e2e = EndToEnd { outcomes: &outcomes, setup_s, slo_s: SLO_S, refused: 0 };
    let layers = traced.map(|(log, truns)| {
        let mut l = Layers::default();
        let spans = log.spans();
        let mut evals: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.kind.is_eval()) {
            evals.entry(s.campaign).or_default().push(s.interval());
        }
        let (paper, spice): (Vec<Run>, Vec<Run>) =
            truns.iter().cloned().partition(|r| matches!(r.kind, Kind::Paper(_)));
        paper_layers(&mut l, &inputs, &paper, &evals);
        spice_layers(&mut l, &spice, &evals, &spans);
        l.set("campaign.runs", truns.len() as f64);
        l.set("trace.spans", spans.len() as f64);
        l.probe_agent(Preset::Paper, plain.sal.dim(), 0);
        l.set("trace.overhead_frac", overhead(&runs, &truns));
        write_spans(&log, args);
        l
    });
    RunReport::finish(args, checks, e2e, layers)
}

/// The first run of every input.
fn distinct(runs: &[Run]) -> impl Iterator<Item = &Run> {
    let mut seen = std::collections::BTreeSet::new();
    runs.iter().filter(move |r| seen.insert(r.outcome.key))
}

/// Evaluation intervals of campaign `id`.
fn evals_of(evals: &BTreeMap<u32, Vec<(f64, f64)>>, id: u32) -> &[(f64, f64)] {
    evals.get(&id).map(Vec::as_slice).unwrap_or(&[])
}

/// The paper loop's layers: TuRBO seeding, RL iterations, agent time
/// outside the (analytic) evaluations, and Algorithm-2 verification.
fn paper_layers(
    l: &mut Layers,
    inputs: &[Input],
    runs: &[Run],
    evals: &BTreeMap<u32, Vec<(f64, f64)>>,
) {
    let eval_us: Vec<f64> =
        runs.iter().flat_map(|r| evals_of(evals, r.id)).map(|&(a, b)| (b - a) * 1e6).collect();
    l.set("spice.eval_us_p50.sal", median(&eval_us).unwrap_or(0.0));
    // Sequential runs: the campaign's self time outside `evaluate` is the
    // agent's (TuRBO, ensemble training, gating, reordering).
    let nonsim: Vec<f64> =
        runs.iter().map(|r| self_time((r.start, r.end), evals_of(evals, r.id))).collect();
    l.set("rl.nonsim_s", median(&nonsim).unwrap_or(0.0));
    let mut verify_attempts = 0;
    let mut verify_sims = 0i64;
    let mut confirmed = 0;
    let mut asks = 0u64;
    let mut phase = Vec::new();
    let mut iteration_ms = Vec::new();
    let mut iteration_self_ms = Vec::new();
    for r in distinct(runs) {
        let ev = evals_of(evals, r.id);
        let first = r.first_mismatch.unwrap_or(r.end);
        let turbo: Vec<(f64, f64)> = ev.iter().copied().filter(|s| s.0 < first).collect();
        asks += turbo.len() as u64;
        phase.push((first - r.start) - busy_time(&turbo));
        // Mean RL iteration (Algorithm 1 step, verification included)
        // from the first mismatch-sampled evaluation to the end.
        if r.steps > 0 {
            let loop_evals: Vec<(f64, f64)> = ev.iter().copied().filter(|s| s.0 >= first).collect();
            let per = 1e3 / r.steps as f64;
            iteration_ms.push((r.end - first) * per);
            iteration_self_ms.push(self_time((first, r.end), &loop_evals) * per);
        }
        verify_attempts += r.verification_attempts;
        confirmed += usize::from(r.outcome.signature.success);
        // Everything the loop simulates outside Algorithm 2: the TuRBO
        // points, the initial corner × N' grids of the seed designs, and
        // N' samples per RL iteration.
        let Kind::Paper(method) = inputs[r.outcome.key].kind else { continue };
        let op = method.operating_config();
        let n_prime = op.optim_samples as i64;
        let seeds = GlovaConfig::paper(method).n_initial_designs as i64;
        let grid = seeds * op.corners.len() as i64 * n_prime;
        verify_sims += ev.len() as i64 - turbo.len() as i64 - grid - r.steps as i64 * n_prime;
    }
    l.set("optimizer.iterations", distinct(runs).map(|r| r.steps as f64).sum());
    l.set("optimizer.iteration_ms_p50", median(&iteration_ms).unwrap_or(0.0));
    l.set("optimizer.iteration_self_ms_p50", median(&iteration_self_ms).unwrap_or(0.0));
    l.set("turbo.asks", asks as f64);
    l.set("turbo.phase_s", median(&phase).unwrap_or(0.0));
    l.set("verify.attempts", verify_attempts as f64);
    l.set("verify.sims", verify_sims as f64);
    l.set(
        "verify.pass_frac",
        if verify_attempts == 0 { 0.0 } else { confirmed as f64 / verify_attempts as f64 },
    );
}

/// The SPICE campaigns' layers: campaign steps, SPICE evaluations per
/// circuit, the engine's parallel efficiency, the failure ledger and the
/// private caches.
fn spice_layers(
    l: &mut Layers,
    runs: &[Run],
    evals: &BTreeMap<u32, Vec<(f64, f64)>>,
    spans: &[crate::trace::Span],
) {
    let d: Vec<&Run> = distinct(runs).collect();
    let mut per_circuit: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut union = 0.0;
    let mut total_busy = 0.0;
    for r in runs {
        let iv = evals_of(evals, r.id);
        per_circuit
            .entry(r.outcome.group)
            .or_default()
            .extend(iv.iter().map(|&(a, b)| (b - a) * 1e6));
        union += union_length(iv);
        total_busy += busy_time(iv);
    }
    for (name, v) in &per_circuit {
        let metric = match *name {
            "ota" => "spice.eval_us_p50.ota",
            "inv8" => "spice.eval_us_p50.inv8",
            _ => "spice.eval_us_p50.sa5x4",
        };
        l.set(metric, median(v).unwrap_or(0.0));
    }
    let evaluated: u64 = d.iter().map(|r| evals_of(evals, r.id).len() as u64).sum();
    let f = d.iter().fold(FailureStats::default(), |a, r| FailureStats {
        nonconvergent: a.nonconvergent + r.failures.nonconvergent,
        recovered: a.recovered + r.failures.recovered,
        degraded: a.degraded + r.failures.degraded,
    });
    l.set("spice.evals", evaluated as f64);
    l.set("spice.busy_s", d.iter().map(|r| busy_time(evals_of(evals, r.id))).sum());
    l.set("spice.nonconvergent", f.nonconvergent as f64);
    l.set("spice.recovered", f.recovered as f64);
    l.set("spice.degraded", f.degraded as f64);
    l.set(
        "spice.useful_frac",
        if evaluated == 0 { 0.0 } else { 1.0 - f.nonconvergent as f64 / evaluated as f64 },
    );
    l.set(
        "engine.parallel_eff",
        if union == 0.0 { 0.0 } else { total_busy / (SPICE_WORKERS as f64 * union) },
    );
    // Seeding: the campaign's wall outside its steps.
    let seed: Vec<f64> = runs.iter().map(|r| (r.end - r.start) - r.steps_wall_s).collect();
    l.set("campaign.seed_s", median(&seed).unwrap_or(0.0));
    l.set("campaign.steps", d.iter().map(|r| r.steps as f64).sum());
    let all_steps: Vec<f64> = runs.iter().flat_map(|r| r.step_ms.iter().copied()).collect();
    l.set("campaign.step_ms_p50", median(&all_steps).unwrap_or(0.0));
    // A step's self time is its wall minus the evaluations inside it:
    // proposal, scheduling and agent training.
    let step_self: Vec<f64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Step)
        .map(|s| self_time(s.interval(), evals_of(evals, s.campaign)) * 1e3)
        .collect();
    l.set("campaign.step_self_ms_p50", median(&step_self).unwrap_or(0.0));
    let cache = sum_cache_stats(d.iter().filter_map(|r| r.cache));
    l.set("cache.lookups", cache.lookups() as f64);
    l.set("cache.hits", cache.hits as f64);
    l.set("cache.hit_rate", cache.hit_rate());
    l.set("cache.evictions", cache.evictions as f64);
}

/// Tracing overhead: geometric mean over inputs of (traced wall ÷
/// untraced wall) − 1, pairing runs of the same input.
fn overhead(plain: &[Run], traced: &[Run]) -> f64 {
    let per_key = |runs: &[Run]| {
        let mut m: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for r in runs {
            m.entry(r.outcome.key).or_default().push(r.outcome.wall_s);
        }
        m.into_iter().map(|(k, v)| (k, median(&v).expect("non-empty"))).collect::<BTreeMap<_, _>>()
    };
    let (p, t) = (per_key(plain), per_key(traced));
    let ratios: Vec<f64> = t.iter().filter_map(|(k, tw)| p.get(k).map(|pw| tw / pw)).collect();
    crate::stats::geo_mean(&ratios).map_or(0.0, |g| g - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_cover_both_entry_points_in_a_seeded_order() {
        let a = inputs(7);
        assert_eq!(a.len(), 17);
        assert_eq!(a.iter().filter(|x| matches!(x.kind, Kind::Paper(_))).count(), 8);
        let key = |v: &[Input]| v.iter().map(|x| (x.group, x.seed)).collect::<Vec<_>>();
        assert_eq!(key(&a), key(&inputs(7)));
        assert_ne!(key(&a), key(&inputs(8)));
    }
}
