//! In-memory spans recorded from the benchmark's side of each layer
//! boundary, the interval arithmetic that turns them into busy and self
//! times, and the [`TracedCircuit`] wrapper that times every
//! `Circuit::evaluate` call.

use glova_circuits::spec::DesignSpec;
use glova_circuits::{Circuit, FailureStats};
use glova_variation::corner::PvtCorner;
use glova_variation::mismatch::MismatchDomain;
use glova_variation::sampler::MismatchVector;
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// `Circuit::evaluate` at the nominal mismatch vector (TuRBO and
    /// LHS typical-condition points, corner-only grids).
    NominalEval,
    /// `Circuit::evaluate` under a sampled mismatch vector.
    MismatchEval,
    /// One `CampaignStep`, as reported to the `run_with` observer.
    Step,
    /// One whole campaign call.
    Campaign,
    /// One `CampaignServer::submit` call.
    Submit,
    /// One poll round of `CampaignServer::snapshot` calls.
    Poll,
}

impl SpanKind {
    fn label(self) -> &'static str {
        match self {
            SpanKind::NominalEval => "eval_nominal",
            SpanKind::MismatchEval => "eval_mismatch",
            SpanKind::Step => "step",
            SpanKind::Campaign => "campaign",
            SpanKind::Submit => "submit",
            SpanKind::Poll => "poll",
        }
    }

    /// Whether the span is a circuit evaluation.
    pub fn is_eval(self) -> bool {
        matches!(self, SpanKind::NominalEval | SpanKind::MismatchEval)
    }
}

/// One recorded interval, in seconds since the log's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What the span covers.
    pub kind: SpanKind,
    /// Small per-process thread index (0 = first thread seen).
    pub thread: u32,
    /// Campaign (or job) the span belongs to.
    pub campaign: u32,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
}

impl Span {
    /// `(start, end)`.
    pub fn interval(&self) -> (f64, f64) {
        (self.start, self.end)
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static THREAD_INDEX: Cell<Option<u32>> = const { Cell::new(None) };
}

fn thread_index() -> u32 {
    THREAD_INDEX
        .with(|slot| *slot.get().get_or_insert_with(|| NEXT_THREAD.fetch_add(1, Ordering::Relaxed)))
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Mutex::new(Vec::new()) }
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Seconds from the epoch to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Records a span on the calling thread.
    pub fn record(&self, kind: SpanKind, campaign: u32, start: f64, end: f64) {
        let span = Span { kind, thread: thread_index(), campaign, start, end };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Writes every span as CSV (`kind,thread,campaign,start_s,end_s`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "kind,thread,campaign,start_s,end_s")?;
        for s in self.spans.lock().expect("span log poisoned").iter() {
            writeln!(
                out,
                "{},{},{},{:.9},{:.9}",
                s.kind.label(),
                s.thread,
                s.campaign,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// Total length covered by the union of `intervals` clipped to
/// `[lo, hi]` (overlaps counted once).
pub fn covered_within(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|&(a, b)| b > a).collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    total + current.map_or(0.0, |(a, b)| b - a)
}

/// Length of the union of `intervals`.
pub fn union_length(intervals: &[(f64, f64)]) -> f64 {
    covered_within(intervals, f64::NEG_INFINITY, f64::INFINITY)
}

/// A parent span's self time: its duration minus the part of it that
/// its children cover.
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    (parent.1 - parent.0) - covered_within(children, parent.0, parent.1)
}

/// Summed duration of `intervals` (overlaps counted per interval — busy
/// time across threads).
pub fn busy_time(intervals: &[(f64, f64)]) -> f64 {
    intervals.iter().map(|&(a, b)| b - a).sum()
}

/// A benchmark-owned [`Circuit`] around a repository circuit.
///
/// Every method delegates. `evaluate` additionally notes when the
/// current campaign's first mismatch-sampled evaluation started (one
/// relaxed atomic load per call once it is known, kept in untraced runs
/// too because the paper loop reports it end to end) and, with a span log
/// attached, records one span per call.
pub struct TracedCircuit {
    inner: Arc<dyn Circuit>,
    log: Option<Arc<SpanLog>>,
    epoch: Instant,
    campaign: AtomicU32,
    /// Nanoseconds after `epoch` of the first mismatch-sampled evaluate
    /// of the current campaign (0 = none yet).
    first_mismatch_ns: AtomicU64,
}

impl TracedCircuit {
    /// Wraps `inner`; spans go to `log` when given.
    pub fn new(inner: Arc<dyn Circuit>, epoch: Instant, log: Option<Arc<SpanLog>>) -> Self {
        Self {
            inner,
            log,
            epoch,
            campaign: AtomicU32::new(0),
            first_mismatch_ns: AtomicU64::new(0),
        }
    }

    /// Tags later spans with `campaign` and forgets the previous
    /// campaign's first mismatch-sampled evaluation. Campaigns on one
    /// wrapper must not overlap.
    pub fn begin_campaign(&self, campaign: u32) {
        self.campaign.store(campaign, Ordering::Relaxed);
        self.first_mismatch_ns.store(0, Ordering::Relaxed);
    }

    /// When the current campaign's first mismatch-sampled evaluation
    /// started, if it has happened.
    pub fn first_mismatch_eval(&self) -> Option<Instant> {
        match self.first_mismatch_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(self.epoch + std::time::Duration::from_nanos(ns)),
        }
    }
}

impl Circuit for TracedCircuit {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.inner.bounds()
    }

    fn parameter_names(&self) -> Vec<String> {
        self.inner.parameter_names()
    }

    fn spec(&self) -> &DesignSpec {
        self.inner.spec()
    }

    fn mismatch_domain(&self, x_norm: &[f64]) -> MismatchDomain {
        self.inner.mismatch_domain(x_norm)
    }

    fn evaluate(&self, x_norm: &[f64], corner: &PvtCorner, mismatch: &MismatchVector) -> Vec<f64> {
        let start = Instant::now();
        let sampled = if self.first_mismatch_ns.load(Ordering::Relaxed) == 0 {
            let sampled = !mismatch.is_nominal();
            if sampled {
                // Nanoseconds since the epoch; +1 keeps 0 free as "unset".
                let ns = start.saturating_duration_since(self.epoch).as_nanos() as u64 + 1;
                let _ = self.first_mismatch_ns.compare_exchange(
                    0,
                    ns,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
            }
            Some(sampled)
        } else {
            None
        };
        let metrics = self.inner.evaluate(x_norm, corner, mismatch);
        if let Some(log) = &self.log {
            let end = Instant::now();
            let kind = if sampled.unwrap_or_else(|| !mismatch.is_nominal()) {
                SpanKind::MismatchEval
            } else {
                SpanKind::NominalEval
            };
            log.record(kind, self.campaign.load(Ordering::Relaxed), log.at(start), log.at(end));
        }
        metrics
    }

    fn failure_stats(&self) -> FailureStats {
        self.inner.failure_stats()
    }

    fn denormalize(&self, x_norm: &[f64]) -> Vec<f64> {
        self.inner.denormalize(x_norm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlaps_once() {
        let spans = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)];
        assert!((union_length(&spans) - 4.0).abs() < 1e-12);
        assert!((busy_time(&spans) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn union_handles_nesting_touching_and_order() {
        let spans = [(4.0, 5.0), (0.0, 10.0), (2.0, 3.0), (10.0, 11.0)];
        assert!((union_length(&spans) - 11.0).abs() < 1e-12);
        assert_eq!(union_length(&[]), 0.0);
    }

    #[test]
    fn covered_within_clips_to_the_window() {
        let spans = [(0.0, 2.0), (3.0, 8.0)];
        assert!((covered_within(&spans, 1.0, 4.0) - 2.0).abs() < 1e-12);
        assert_eq!(covered_within(&spans, 8.0, 9.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        // Parent 0..10, children cover 1..4 (two overlapping) and 9..12
        // (clipped to 9..10): self = 10 − 3 − 1.
        let children = [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)];
        assert!((self_time((0.0, 10.0), &children) - 6.0).abs() < 1e-12);
        assert!((self_time((0.0, 1.0), &[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_records_on_distinct_threads() {
        let log = Arc::new(SpanLog::new(Instant::now()));
        log.record(SpanKind::Step, 1, 0.0, 1.0);
        let other = log.clone();
        std::thread::spawn(move || other.record(SpanKind::Poll, 2, 1.0, 2.0))
            .join()
            .expect("recorder thread");
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_ne!(spans[0].thread, spans[1].thread);
    }
}
