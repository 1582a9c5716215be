//! `serve_mixed`: a `CampaignServer` with two workers fed by an open loop
//! from one generator thread, on a seeded Poisson arrival schedule.

use crate::layers::{Layers, Preset};
use crate::report::{sum_cache_stats, Checks, EndToEnd, Outcome, Signature};
use crate::schedule::{arrival_schedule, SplitMix64};
use crate::stats::{median, percentile};
use crate::trace::{SpanKind, SpanLog};
use crate::{timed_setup, write_spans, Args, RunReport};
use glova::cache::{CacheRegistry, EvalCacheConfig};
use glova::campaign::{
    CampaignConfig, CampaignControl, CampaignTermination, PruningConfig, SizingCampaign,
};
use glova_circuits::{Circuit, SpiceInverterChain, SpiceOta, SpiceSenseAmpArray};
use glova_serve::{
    CampaignServer, CircuitSpec, JobBudget, JobId, JobPriority, JobStatus, SizingRequest,
};
use glova_spice::registry::SolverRegistry;
use glova_variation::config::VerificationMethod;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixed open-loop arrival rate, requests per second: about a sixth of
/// the 18 jobs/s the server completes on a 2-core host when every request
/// arrives at once.
pub const RATE_PER_S: f64 = 3.0;
/// Latency limit (due → terminal) for `slo_met_frac`.
pub const SLO_S: f64 = 1.0;
/// Generator poll interval — the resolution of every served latency.
pub const POLL_S: f64 = 0.002;
/// Step budget of every served campaign: a bounded sizing probe, so the
/// longest job stays near a third of a second.
const MAX_STEPS: usize = 30;
/// Simulation cap of budgeted requests.
const BUDGET_SIMS: u64 = 600;
/// Requests per catalogue cycle.
const CYCLE: usize = 20;
/// Server workers.
const WORKERS: usize = 2;
/// Served jobs re-run by direct call to check the determinism contract.
const RECHECKS: usize = 4;

/// The three SPICE circuits with the `campaign` bin's goal factors.
const CIRCUITS: [(&str, CircuitSpec, [f64; 3]); 3] = [
    ("ota", CircuitSpec::Ota, [1.4, 5.0, 0.5]),
    ("inv8", CircuitSpec::InverterChain { stages: 8 }, [0.44, 1.25, 0.4]),
    ("sa5x4", CircuitSpec::SenseAmpArray { rows: 5, cols: 4 }, [1.5, 0.85, 0.75]),
];

/// One generated request.
#[derive(Debug, Clone)]
struct Request {
    circuit: usize,
    seed: u64,
    goal: Vec<f64>,
    shared_seed: bool,
    pruned: bool,
    interactive: bool,
    budget: Option<u64>,
}

impl Request {
    fn config(&self) -> CampaignConfig {
        let c = CampaignConfig::quick(VerificationMethod::Corner)
            .with_cache(EvalCacheConfig::default())
            .with_goal(self.goal.clone())
            .with_max_steps(MAX_STEPS);
        if self.pruned {
            c.with_pruning(PruningConfig::new(5, 10))
        } else {
            c
        }
    }

    fn sizing_request(&self) -> SizingRequest {
        let mut r = SizingRequest::new(CIRCUITS[self.circuit].1, self.config(), self.seed);
        if let Some(max_sims) = self.budget {
            r = r.with_budget(JobBudget::unlimited().with_max_sims(max_sims));
        }
        if self.interactive {
            r = r.with_priority(JobPriority::Interactive);
        }
        r
    }
}

/// Seed of the fixed request catalogue. Campaign cost is a heavy-tailed
/// function of the campaign seed, so every run serves the same requests
/// in the same order; the workload seed draws their arrival times.
const CATALOGUE_SEED: u64 = 0x61_0FA5;

/// Cycle `c` of the request catalogue as arrival units: 20 requests, of
/// which two units of three are goal variants sharing one seed (their
/// Latin-hypercube seed points repeat, so the shared cache can answer
/// them); 5 of the 20 use corner pruning, 4 are interactive and 4 carry a
/// simulation budget.
fn cycle(c: u64) -> Vec<Vec<Request>> {
    let mut rng = SplitMix64::new(CATALOGUE_SEED, 100 + c);
    // 16 units: 2 shared-seed groups of 3 variants + 14 single requests.
    let mut circuits: Vec<usize> = (0..16).map(|i| i % 3).collect();
    rng.shuffle(&mut circuits);
    let mut units: Vec<Vec<Request>> = circuits
        .iter()
        .enumerate()
        .map(|(u, &circuit)| {
            let seed = rng.next_u64();
            let base = CIRCUITS[circuit].2;
            let variants: &[f64] = if u < 2 { &[0.0, 0.05, 0.1] } else { &[0.0] };
            variants
                .iter()
                // Each variant moves every factor toward 1 (a looser goal).
                .map(|&relax| Request {
                    circuit,
                    seed,
                    goal: base.iter().map(|f| f + (1.0 - f) * relax).collect(),
                    shared_seed: u < 2,
                    pruned: false,
                    interactive: false,
                    budget: None,
                })
                .collect()
        })
        .collect();
    rng.shuffle(&mut units);
    for (count, set) in [(5, 0), (4, 1), (4, 2)] {
        let mut slots: Vec<usize> = (0..CYCLE).collect();
        rng.shuffle(&mut slots);
        for &i in &slots[..count] {
            let r = units.iter_mut().flatten().nth(i).expect("20 requests per cycle");
            match set {
                0 => r.pruned = true,
                1 => r.interactive = true,
                _ => r.budget = Some(BUDGET_SIMS),
            }
        }
    }
    units
}

/// The generated inputs of a pass of `seconds`: the first
/// `RATE_PER_S × seconds` catalogue requests and their seeded due times
/// within the pass.
fn inputs(seed: u64, seconds: f64) -> (Vec<f64>, Vec<Request>) {
    let n = (RATE_PER_S * seconds).round() as usize;
    let requests: Vec<Request> =
        (0..n.div_ceil(CYCLE) as u64).flat_map(cycle).flatten().take(n).collect();
    (arrival_schedule(seed, RATE_PER_S, n), requests)
}

/// What the generator saw of one job.
#[derive(Debug, Clone)]
struct Track {
    id: Option<JobId>,
    due: f64,
    submitted: f64,
    running: Option<f64>,
    first_step: Option<f64>,
    done: Option<f64>,
    status: Option<JobStatus>,
    result: Option<glova::campaign::CampaignResult>,
}

/// One open-loop pass over `due`/`requests`, polling every job until it
/// is terminal.
fn drive(
    server: &CampaignServer,
    due: &[f64],
    requests: &[Request],
    log: Option<&SpanLog>,
) -> (Vec<Track>, f64, u64, Vec<f64>) {
    let t0 = Instant::now();
    let now = || t0.elapsed().as_secs_f64();
    let mut tracks: Vec<Track> = Vec::with_capacity(due.len());
    let mut refused = 0;
    let mut live: Vec<usize> = Vec::new();
    let base = log.map_or(0.0, SpanLog::now);
    let mut polls: Vec<f64> = Vec::new();
    loop {
        while tracks.len() < due.len() && due[tracks.len()] <= now() {
            let i = tracks.len();
            let submitted = now();
            let id = server.submit(requests[i].sizing_request());
            if let Some(log) = log {
                log.record(SpanKind::Submit, i as u32, base + submitted, base + now());
            }
            match &id {
                Ok(_) => live.push(i),
                Err(err) => {
                    eprintln!("request {i} refused: {err}");
                    refused += 1;
                }
            }
            tracks.push(Track {
                id: id.ok(),
                due: due[i],
                submitted,
                running: None,
                first_step: None,
                done: None,
                status: None,
                result: None,
            });
        }
        let poll_start = now();
        if !live.is_empty() {
            polls.push(poll_start);
        }
        live.retain(|&i| {
            let t = &mut tracks[i];
            let snap = server.snapshot(t.id.expect("live jobs were accepted")).expect("known job");
            let seen = now();
            if snap.status != JobStatus::Queued {
                t.running.get_or_insert(seen);
            }
            if !snap.steps.is_empty() {
                t.first_step.get_or_insert(seen);
            }
            if snap.status.is_terminal() {
                t.done = Some(seen);
                t.status = Some(snap.status);
                t.result = snap.result;
                return false;
            }
            true
        });
        if let Some(log) = log {
            log.record(SpanKind::Poll, 0, base + poll_start, base + now());
        }
        if tracks.len() == due.len() && live.is_empty() {
            let gaps = polls.windows(2).map(|w| w[1] - w[0]).collect();
            return (tracks, now(), refused, gaps);
        }
        let next_due = due.get(tracks.len()).copied().unwrap_or(f64::INFINITY);
        let wake = next_due.min(now() + POLL_S);
        let pause = wake - now();
        if pause > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(pause));
        }
    }
}

fn status_label(status: Option<JobStatus>) -> &'static str {
    match status {
        Some(JobStatus::Done) => "done",
        Some(JobStatus::BudgetExhausted) => "budget_exhausted",
        Some(JobStatus::Failed) => "failed",
        Some(JobStatus::Cancelled) => "cancelled",
        Some(JobStatus::Queued) | Some(JobStatus::Running) => "live",
        None => "refused",
    }
}

fn signature(track: &Track) -> Signature {
    let r = track.result.as_ref();
    Signature {
        status: status_label(track.status),
        success: r.is_some_and(|r| r.success),
        sims_to_success: r.and_then(|r| r.sims_to_success),
        total_sims: r.map_or(0, |r| r.total_sims),
        steps: r.map_or(0, |r| r.steps.len()),
        design_bits: r
            .and_then(|r| r.final_design.as_ref())
            .into_iter()
            .flatten()
            .map(|v| v.to_bits())
            .collect(),
    }
}

/// A fresh server on registries the benchmark can read afterwards.
struct Fleet {
    server: CampaignServer,
    solvers: Arc<SolverRegistry>,
    caches: Arc<CacheRegistry>,
}

/// A fresh server whose solver registry is already primed for the three
/// catalogue circuits — the state a long-lived server is in after its
/// first requests.
fn fleet() -> Fleet {
    let solvers = Arc::new(SolverRegistry::new());
    let _ = SpiceOta::from_registry(&solvers);
    let _ = SpiceInverterChain::from_registry(8, &solvers);
    let _ = SpiceSenseAmpArray::from_registry(5, 4, &solvers);
    let caches = Arc::new(CacheRegistry::new());
    let server = CampaignServer::with_registries(WORKERS, solvers.clone(), caches.clone());
    Fleet { server, solvers, caches }
}

/// Everything one open-loop pass produced.
struct Pass {
    tracks: Vec<Track>,
    host_wall: f64,
    refused: u64,
    /// Time between consecutive poll rounds while jobs were live.
    poll_gaps: Vec<f64>,
    report: glova_serve::ShutdownReport,
    solvers: Arc<SolverRegistry>,
    caches: Arc<CacheRegistry>,
}

fn pass(fleet: Fleet, due: &[f64], requests: &[Request], log: Option<&SpanLog>) -> Pass {
    let (tracks, host_wall, refused, poll_gaps) = drive(&fleet.server, due, requests, log);
    let report = fleet.server.shutdown();
    Pass {
        tracks,
        host_wall,
        refused,
        poll_gaps,
        report,
        solvers: fleet.solvers,
        caches: fleet.caches,
    }
}

fn check_pass(checks: &mut Checks, p: &Pass, requests: &[Request], dims: &[usize]) {
    for (i, t) in p.tracks.iter().enumerate() {
        let s = signature(t);
        if t.id.is_some() && !t.status.is_some_and(JobStatus::is_terminal) {
            checks.fail(format!("job {i} never reached a terminal status"));
        }
        if matches!(t.status, Some(JobStatus::Failed | JobStatus::Cancelled)) {
            checks.fail(format!("job {i} ended {}", s.status));
        }
        let design = t.result.as_ref().and_then(|r| r.final_design.as_deref());
        checks.design(i, s.success, design, dims[requests[i].circuit]);
        checks.repeat(i, &s);
    }
    let r = &p.report;
    let terminal = r.jobs_completed + r.jobs_failed + r.jobs_cancelled + r.jobs_budget_exhausted;
    if terminal != p.tracks.len() as u64 - p.refused {
        checks.fail(format!("shutdown tallied {terminal} jobs, {} accepted", p.tracks.len()));
    }
}

/// Re-runs the first served jobs by direct call: the determinism contract
/// says a served trajectory equals the same request run alone.
fn recheck(checks: &mut Checks, p: &Pass, requests: &[Request]) {
    for (i, (t, req)) in p.tracks.iter().zip(requests).take(RECHECKS).enumerate() {
        let circuit: Arc<dyn Circuit> = match CIRCUITS[req.circuit].1 {
            CircuitSpec::Ota => Arc::new(SpiceOta::new()),
            CircuitSpec::InverterChain { stages } => Arc::new(SpiceInverterChain::new(stages)),
            CircuitSpec::SenseAmpArray { rows, cols } => {
                Arc::new(SpiceSenseAmpArray::new(rows, cols))
            }
        };
        let campaign = SizingCampaign::new(circuit, req.config());
        let mut control = CampaignControl::new();
        if let Some(max_sims) = req.budget {
            control = control.with_max_sims(max_sims);
        }
        let r = campaign.run_controlled(req.seed, &control, &mut |_| {});
        let status = match r.termination {
            CampaignTermination::Completed => JobStatus::Done,
            CampaignTermination::BudgetExhausted => JobStatus::BudgetExhausted,
            CampaignTermination::Cancelled => JobStatus::Cancelled,
        };
        let direct = Track { status: Some(status), result: Some(r), ..t.clone() };
        checks.repeat(i, &signature(&direct));
    }
}

/// Cache identity words of a served circuit. These mirror how
/// `glova-serve` keys its shared caches (catalogue tag, shape, topology
/// fingerprint); the benchmark looks the caches up after the run to read
/// their counters.
fn cache_identity(circuit: usize) -> Vec<u64> {
    match CIRCUITS[circuit].1 {
        CircuitSpec::Ota => vec![2, SpiceOta::new().topology_fingerprint()],
        CircuitSpec::InverterChain { stages } => {
            vec![1, stages as u64, SpiceInverterChain::new(stages).topology_fingerprint()]
        }
        CircuitSpec::SenseAmpArray { rows, cols } => vec![
            3,
            rows as u64,
            cols as u64,
            SpiceSenseAmpArray::new(rows, cols).topology_fingerprint(),
        ],
    }
}

/// `serve_mixed`.
pub fn serve_mixed(args: &Args) -> RunReport {
    let (plain_s, traced_s) = args.halves();
    let (setup_s, (fleet_a, (due, requests))) =
        timed_setup(|| (fleet(), inputs(args.seed, plain_s)));
    let dims: Vec<usize> = vec![
        SpiceOta::new().dim(),
        SpiceInverterChain::new(8).dim(),
        SpiceSenseAmpArray::new(5, 4).dim(),
    ];
    let shared = requests.iter().filter(|r| r.shared_seed).count();
    println!(
        "serve_mixed: {} requests at {RATE_PER_S}/s over {plain_s} s, {shared} share a seed, poll {POLL_S} s",
        requests.len()
    );
    let mut checks = Checks::default();
    let plain = pass(fleet_a, &due, &requests, None);
    println!(
        "served {} jobs in {:.3} s ({:.2} jobs/s)",
        plain.tracks.len(),
        plain.host_wall,
        plain.tracks.len() as f64 / plain.host_wall
    );
    for (i, (t, r)) in plain.tracks.iter().zip(&requests).enumerate() {
        let s = signature(t);
        println!(
            "  job {i:3} {:6} seed {:<20} {:16} {}{}{} sims {:6} run {:.3} s latency {:.3} s",
            CIRCUITS[r.circuit].0,
            r.seed,
            s.status,
            if r.pruned { "P" } else { "-" },
            if r.interactive { "I" } else { "-" },
            if r.budget.is_some() { "B" } else { "-" },
            s.total_sims,
            t.result.as_ref().map_or(0.0, |r| r.wall.as_secs_f64()),
            t.done.map_or(f64::NAN, |d| d - t.due),
        );
    }
    check_pass(&mut checks, &plain, &requests, &dims);
    recheck(&mut checks, &plain, &requests);
    println!("note: serve_mixed builds its circuits inside the server, so SPICE time is not split from agent time here");

    let outcomes = outcomes(&plain, &requests);
    let e2e = EndToEnd { outcomes: &outcomes, setup_s, slo_s: SLO_S, refused: plain.refused };
    let layers = traced_s.map(|secs| {
        let (tdue, treqs) = inputs(args.seed, secs);
        let log = SpanLog::new(Instant::now());
        let traced = pass(fleet(), &tdue, &treqs, Some(&log));
        // Same seed and window as the untraced pass, so the same
        // requests: every job must repeat its untraced signature.
        check_pass(&mut checks, &traced, &treqs, &dims);
        let mut l = serve_layers(&traced, &treqs);
        let p50 = |p: &Pass| {
            median(&p.tracks.iter().filter_map(|t| Some(t.done? - t.due)).collect::<Vec<_>>())
        };
        if let (Some(a), Some(b)) = (p50(&plain), p50(&traced)) {
            l.set("trace.overhead_frac", b / a - 1.0);
        }
        l.set("trace.spans", log.spans().len() as f64);
        let ota = SpiceOta::new();
        l.probe_agent(Preset::Quick, ota.dim(), ota.spec().len());
        write_spans(&log, args);
        l
    });
    RunReport::finish(args, checks, e2e, layers)
}

fn outcomes(p: &Pass, requests: &[Request]) -> Vec<Outcome> {
    p.tracks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.done.is_some())
        .map(|(i, t)| Outcome {
            key: i,
            group: CIRCUITS[requests[i].circuit].0,
            seed: requests[i].seed,
            signature: signature(t),
            wall_s: t.result.as_ref().map_or(0.0, |r| r.wall.as_secs_f64()),
            latency_s: t.done.expect("terminal") - t.due,
            first_step_s: t.first_step.map(|f| f - t.due),
            degraded: t.result.as_ref().map_or(0, |r| r.failures.degraded),
        })
        .collect()
}

fn serve_layers(p: &Pass, requests: &[Request]) -> Layers {
    let mut l = Layers::default();
    let done: Vec<&Track> = p.tracks.iter().filter(|t| t.result.is_some()).collect();
    let results = || done.iter().filter_map(|t| t.result.as_ref());
    let waits: Vec<f64> = p.tracks.iter().filter_map(|t| Some(t.running? - t.submitted)).collect();
    let lags: Vec<f64> = p.tracks.iter().map(|t| t.submitted - t.due).collect();
    let runs: Vec<f64> = results().map(|r| r.wall.as_secs_f64()).collect();
    let steps: Vec<f64> =
        results().flat_map(|r| r.steps.iter().map(|s| s.wall.as_secs_f64() * 1e3)).collect();
    let seeds: Vec<f64> = results()
        .map(|r| r.wall.as_secs_f64() - r.steps.iter().map(|s| s.wall.as_secs_f64()).sum::<f64>())
        .collect();
    l.set("campaign.runs", done.len() as f64);
    l.set("campaign.steps", results().map(|r| r.steps.len() as f64).sum());
    l.set("campaign.seed_s", median(&seeds).unwrap_or(0.0));
    l.set("campaign.step_ms_p50", median(&steps).unwrap_or(0.0));
    l.set("serve.jobs", p.tracks.len() as f64);
    l.set("serve.queue_wait_p50_s", percentile(&waits, 0.5).unwrap_or(0.0));
    l.set("serve.queue_wait_p90_s", percentile(&waits, 0.9).unwrap_or(0.0));
    l.set("serve.run_s_p50", median(&runs).unwrap_or(0.0));
    l.set("serve.generator_lag_p90_s", percentile(&lags, 0.9).unwrap_or(0.0));
    // The latency resolution actually achieved: the poll interval plus
    // however late the generator woke.
    l.set("serve.poll_gap_p90_s", percentile(&p.poll_gaps, 0.9).unwrap_or(0.0));
    l.set("serve.queue_high_water", p.report.queue_high_water as f64);
    l.set("serve.solver_primes", p.solvers.primes() as f64);
    l.set("serve.solver_hits", p.solvers.hits() as f64);
    l.set("serve.jobs_done", p.report.jobs_completed as f64);
    l.set("serve.jobs_budget_exhausted", p.report.jobs_budget_exhausted as f64);
    l.set("serve.jobs_failed", p.report.jobs_failed as f64);
    l.set("serve.jobs_cancelled", p.report.jobs_cancelled as f64);
    l.set("serve.jobs_refused", p.refused as f64);
    let shared = requests.iter().filter(|r| r.shared_seed).count();
    l.set("serve.shared_seed_frac", shared as f64 / requests.len().max(1) as f64);
    let failures = results().fold((0u64, 0u64, 0u64), |a, r| {
        (a.0 + r.failures.nonconvergent, a.1 + r.failures.recovered, a.2 + r.failures.degraded)
    });
    l.set("spice.nonconvergent", failures.0 as f64);
    l.set("spice.recovered", failures.1 as f64);
    l.set("spice.degraded", failures.2 as f64);
    // Registry counters first: the look-ups below count as hits.
    l.set("cache_registry.hits", p.caches.hits() as f64);
    l.set("cache_registry.creations", p.caches.creations() as f64);
    l.set("cache_registry.evictions", p.caches.evictions() as f64);
    let creations = p.caches.creations();
    let stats = sum_cache_stats(
        (0..CIRCUITS.len())
            .map(|c| p.caches.cache_for(&cache_identity(c), EvalCacheConfig::default()).stats()),
    );
    if p.caches.creations() != creations {
        eprintln!("note: a served cache identity was not found; cache.* undercounts");
    }
    l.set("cache.lookups", stats.lookups() as f64);
    l.set("cache.hits", stats.hits as f64);
    l.set("cache.hit_rate", stats.hit_rate());
    l.set("cache.evictions", stats.evictions as f64);
    // Every cache miss is one circuit evaluation.
    l.set("spice.evals", stats.misses as f64);
    if stats.misses > 0 {
        l.set("spice.useful_frac", 1.0 - failures.0 as f64 / stats.misses as f64);
    }
    l
}
