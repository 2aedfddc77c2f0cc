//! The untraced run: set-up, warm-up, the timed closed loop and the
//! end-to-end metrics.

use std::time::{Duration, Instant};

use crate::check::{Checker, Outcome};
use crate::deploy::{query_frame, reload_frame, Deployment};
use crate::stats::{median, percentile, process_cpu_us, status_mib, thread_cpu_us, HostCpu};
use crate::workload::{Inputs, Lang, Op, Workload};
use crate::Metrics;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Untimed rounds before the window: they plant every plan-cache entry
/// and establish each reply's verified reference. `reload-churn` needs
/// two, to install and verify both reload documents.
pub const WARMUP_ROUNDS: usize = 2;

/// The bound BENCHMARK.json gives `throughput_qps` and `cpu_us_per_query`.
const GATE_BOUND: f64 = 0.25;

/// Queries the tail percentile is taken over, at least: the counted
/// slices of a run hold this many where the window does.
const MIN_TAIL_SAMPLES: usize = 1000;

/// Length of one slice of the timed window.
const SLICE: Duration = Duration::from_secs(1);

/// One slice of the timed window: sample index ranges (over all queries
/// and per query) plus its own CPU and steal readings.
struct Slice {
    start: Instant,
    host: HostCpu,
    cpu0: u64,
    all: std::ops::Range<usize>,
    by_query: Vec<std::ops::Range<usize>>,
    secs: f64,
    cpu_us: u64,
    steal: f64,
}

impl Slice {
    fn open(all: &[f64], by_query: &[Vec<f64>]) -> Slice {
        Slice {
            start: Instant::now(),
            host: HostCpu::read(),
            cpu0: process_cpu_us(),
            all: all.len()..all.len(),
            by_query: by_query.iter().map(|q| q.len()..q.len()).collect(),
            secs: 0.0,
            cpu_us: 0,
            steal: 0.0,
        }
    }

    fn close(mut self, all: &[f64], by_query: &[Vec<f64>]) -> Slice {
        self.secs = self.start.elapsed().as_secs_f64();
        self.cpu_us = process_cpu_us() - self.cpu0;
        self.steal = HostCpu::read().steal_share_since(&self.host);
        self.all.end = all.len();
        for (r, q) in self.by_query.iter_mut().zip(by_query) {
            r.end = q.len();
        }
        self
    }

    fn queries(&self) -> usize {
        self.all.len()
    }
}

/// Operation counts of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Failed(e) => {
                if self.failed < 5 {
                    eprintln!("failed: {e}");
                }
                self.failed += 1;
            }
            Outcome::Wrong(e) => self.wrong.push(e),
        }
    }
}

/// Request frames of one workload: one per query, plus the reload to
/// each document version.
pub struct Frames {
    pub queries: Vec<Vec<u8>>,
    pub reload: [Vec<u8>; 2],
}

impl Frames {
    pub fn new(workload: Workload, inputs: &Inputs, profile: bool) -> Result<Frames, String> {
        Ok(Frames {
            queries: workload
                .queries()
                .iter()
                .map(|q| query_frame(q, profile))
                .collect(),
            reload: [
                reload_frame(inputs.xml(crate::workload::RELOAD_DATASET))?,
                reload_frame(&inputs.reload_alt)?,
            ],
        })
    }
}

/// Run one operation, checked; returns its latency.
pub fn step(
    dep: &mut Deployment,
    frames: &Frames,
    checker: &mut Checker,
    tally: &mut Tally,
    op: Op,
) -> Duration {
    match op {
        Op::Query(qi) => {
            let (took, reply) = dep.timed(&frames.queries[qi]);
            tally.record(checker.query(qi, reply));
            took
        }
        Op::Reload => {
            let (took, reply) = dep.timed(&frames.reload[checker.next_version() as usize]);
            tally.record(checker.reload(reply));
            took
        }
    }
}

/// Set the deployment up [`SETUP_REPS`] times, from XML text in memory
/// to the first answered query; keep the last one.
pub fn setup(
    inputs: &Inputs,
    frames: &Frames,
    checker: &mut Checker,
    tally: &mut Tally,
) -> Result<(Deployment, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous deployment down first, so each set-up starts
        // from the same memory state.
        drop(kept.take());
        let start = Instant::now();
        let mut dep = Deployment::start(inputs)?;
        let reply = dep.roundtrip(&frames.queries[0]);
        times.push(start.elapsed().as_secs_f64());
        tally.record(checker.query(0, reply));
        kept = Some(dep);
    }
    Ok((kept.expect("at least one set-up"), times))
}

pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<(Metrics, Tally), String> {
    let inputs = Inputs::generate(seed)?;
    let queries = workload.queries();
    let frames = Frames::new(workload, &inputs, false)?;
    let mut checker = Checker::new(&inputs, queries.clone());
    let mut tally = Tally::default();
    let (mut dep, setups) = setup(&inputs, &frames, &mut checker, &mut tally)?;
    let round = workload.round();
    for _ in 0..WARMUP_ROUNDS {
        for &op in &round {
            step(&mut dep, &frames, &mut checker, &mut tally, op);
        }
    }
    // Only the window's operations count as attempted.
    let warm_wrong = std::mem::take(&mut tally.wrong);
    let warm_failed = tally.failed;
    tally = Tally {
        wrong: warm_wrong,
        ..Tally::default()
    };
    if warm_failed > 0 {
        return Err(format!("{warm_failed} operations failed during warm-up"));
    }

    let mut all_us = Vec::new();
    let mut reload_ms = Vec::new();
    let mut reload_cpu_us = 0;
    let mut slices: Vec<Slice> = Vec::new();
    let mut by_query: Vec<Vec<f64>> = vec![Vec::new(); queries.len()];
    let host0 = HostCpu::read();
    let cpu0 = process_cpu_us();
    let thread0 = thread_cpu_us();
    let window = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut slice = Slice::open(&all_us, &by_query);
    while start.elapsed() < window {
        for &op in &round {
            match op {
                Op::Query(qi) => {
                    let took = step(&mut dep, &frames, &mut checker, &mut tally, op);
                    let us = took.as_secs_f64() * 1e6;
                    all_us.push(us);
                    by_query[qi].push(us);
                }
                Op::Reload => {
                    let cpu = process_cpu_us();
                    let took = step(&mut dep, &frames, &mut checker, &mut tally, op);
                    reload_cpu_us += process_cpu_us() - cpu;
                    reload_ms.push(took.as_secs_f64() * 1e3);
                }
            }
        }
        if slice.start.elapsed() >= SLICE {
            slices.push(slice.close(&all_us, &by_query));
            slice = Slice::open(&all_us, &by_query);
        }
    }
    if slices.is_empty() || slice.start.elapsed() >= SLICE / 2 {
        slices.push(slice.close(&all_us, &by_query));
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu_us = process_cpu_us() - cpu0;
    let client_us = thread_cpu_us() - thread0;
    let steal = HostCpu::read().steal_share_since(&host0);

    let peak_rss = status_mib("VmHWM");
    drop(dep);

    // Each rate and median is the median over one-second slices of the
    // window, so a burst of host interference moves only the slices it
    // covers. Only the quieter half of the slices by host steal count,
    // the tail percentile included: steal comes in bursts that slow every
    // layer alike (engine-large's p99 rose from 24 to 35 ms as a run's
    // steal rose from 1% to 11%), and the host's steal does not depend on
    // the program under test. More slices count where the quieter half
    // holds fewer than [`MIN_TAIL_SAMPLES`] queries.
    let mut quiet: Vec<&Slice> = slices.iter().collect();
    quiet.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let mut counted = 0;
    let keep = quiet
        .iter()
        .position(|s| {
            counted += s.queries();
            counted >= MIN_TAIL_SAMPLES
        })
        .map_or(quiet.len(), |i| i + 1)
        .max(slices.len().div_ceil(2));
    quiet.truncate(keep);
    let over_slices =
        |f: &dyn Fn(&Slice) -> f64| median(&quiet.iter().map(|s| f(s)).collect::<Vec<_>>());
    let quiet_us: Vec<f64> = quiet
        .iter()
        .flat_map(|s| all_us[s.all.clone()].iter().copied())
        .collect();
    let mut m = Metrics::default();
    m.push("setup_s", median(&setups), "s", setups.len());
    m.push(
        "throughput_qps",
        over_slices(&|s| s.queries() as f64 / s.secs),
        "queries/s",
        quiet.len(),
    );
    m.push(
        "latency_p50_us",
        over_slices(&|s| median(&all_us[s.all.clone()])),
        "us",
        quiet.len(),
    );
    m.push(
        "latency_p99_us",
        percentile(&quiet_us, 99.0),
        "us",
        quiet_us.len(),
    );
    m.push(
        "cpu_us_per_query",
        over_slices(&|s| s.cpu_us as f64 / s.queries() as f64),
        "us",
        quiet.len(),
    );
    // A language's median is its median query's median: the languages run
    // few queries, and a median over all their samples sits on an
    // off-centre quantile of two similar queries (Q6 and F5), which host
    // speed phases within a run swing by up to 30% over ten runs.
    for lang in Lang::ALL {
        let mine: Vec<usize> = (0..queries.len())
            .filter(|&qi| queries[qi].lang == lang)
            .collect();
        m.push(
            &format!("{}_p50_us", lang.name()),
            over_slices(&|s| {
                let medians: Vec<f64> = mine
                    .iter()
                    .filter(|&&qi| !s.by_query[qi].is_empty())
                    .map(|&qi| median(&by_query[qi][s.by_query[qi].clone()]))
                    .collect();
                median(&medians)
            }),
            "us",
            quiet.len(),
        );
    }
    m.push("peak_rss_mb", peak_rss, "MiB", 1);

    // Not a gated metric: every workload prints every gated metric, and
    // only reload-churn reloads (see README.md). The reload reaches the
    // gate through reload-churn's throughput and CPU per query; print how
    // large a reload regression those two let pass.
    if !reload_ms.is_empty() {
        let wall_share = reload_ms.iter().sum::<f64>() / 1e3 / wall;
        let cpu_share = reload_cpu_us as f64 / cpu_us.max(1) as f64;
        let passes = f64::min(
            GATE_BOUND / (1.0 - GATE_BOUND) / wall_share,
            GATE_BOUND / cpu_share,
        );
        eprintln!(
            "reload round trip: median {:.2} ms over {} reloads; reloads took {:.1}% of the \
             window's wall time and {:.1}% of its process CPU, so a reload up to {:.0}% slower \
             passes the {GATE_BOUND} bounds of throughput_qps and cpu_us_per_query",
            median(&reload_ms),
            reload_ms.len(),
            wall_share * 100.0,
            cpu_share * 100.0,
            passes * 100.0
        );
    }
    eprintln!(
        "per-query p10/p50/p90 us: {}",
        queries
            .iter()
            .zip(&by_query)
            .filter(|(_, s)| !s.is_empty())
            .map(|(q, s)| format!(
                "{}@{} {:.0}/{:.0}/{:.0}",
                q.label,
                q.dataset,
                percentile(s, 10.0),
                median(s),
                percentile(s, 90.0)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let n = all_us.len();
    eprintln!(
        "window: {n} queries in {wall:.2} s ({:.1} q/s overall), {} slices, the {} with \
         the least steal (at most {:.1}%) counted; per-slice q/s and steal: {}",
        n as f64 / wall,
        slices.len(),
        quiet.len(),
        quiet.last().map_or(0.0, |s| s.steal * 100.0),
        slices
            .iter()
            .map(|s| format!("{:.0}/{:.0}%", s.queries() as f64 / s.secs, s.steal * 100.0))
            .collect::<Vec<_>>()
            .join(" ")
    );
    eprintln!(
        "host: steal {:.1}% of host CPU over the window; process CPU utilisation \
         {:.2} CPUs; client thread {:.1}% of cpu_us_per_query",
        steal * 100.0,
        cpu_us as f64 / 1e6 / wall,
        client_us as f64 / cpu_us.max(1) as f64 * 100.0
    );
    eprintln!(
        "inputs: catalog {} bytes of XML in {} datasets ({}); {} replies verified against the oracle",
        inputs.catalog_bytes(),
        inputs.datasets.len(),
        inputs
            .datasets
            .iter()
            .zip(&inputs.elements)
            .map(|((name, xml), n)| format!("{name} {n} elements {} bytes", xml.len()))
            .collect::<Vec<_>>()
            .join(", "),
        checker.verified()
    );
    eprintln!(
        "setup_s samples: {:?}",
        setups.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>()
    );
    Ok((m, tally))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_finishes_a_short_run_without_failures() {
        for workload in Workload::ALL {
            let (metrics, tally) = run(workload, 5, 1).expect("run completes");
            assert!(tally.attempted > 0, "{}", workload.name());
            assert_eq!(tally.failed, 0, "{}", workload.name());
            assert!(
                tally.wrong.is_empty(),
                "{}: {:?}",
                workload.name(),
                tally.wrong
            );
            for name in ["setup_s", "throughput_qps", "latency_p99_us", "peak_rss_mb"] {
                assert!(metrics.get(name).is_some_and(|v| v > 0.0), "{name}");
            }
        }
    }
}
