//! The traced run: per-layer metrics from calls into each layer's public
//! functions, timed from outside the program.
//!
//! After set-up and warm-up the run makes two replays of the workload:
//!
//! * an **untraced** pass of a fixed number of rounds (see [`rounds`])
//!   over the wire,
//!   exactly as the untraced run sends them;
//! * a **traced** pass of a fixed number of rounds. Each query goes over
//!   the wire with `"profile":true` (the phase tree comes back in the
//!   reply), then through `ServeHandle::submit`, then straight into
//!   `Engine::run_governed` under `Trace::profiling()` and under
//!   `Trace::disabled()`, and through the protocol, parse, plan-key and
//!   output functions the service calls. Every call is a span: name,
//!   start, end, parent and the request id shared by one request's spans.
//!
//! Spans stay in memory and are written to `out/` beside this package's
//! manifest when the run
//! ends. The ratio of the two passes' wire latencies is the tracing
//! overhead. Round counts are fixed, so every count repeats exactly for
//! one seed.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gql_core::QueryKind;
use gql_guard::{Budget, CancelToken, Guard};
use gql_serve::json::Value;
use gql_serve::proto::{decode_op, encode_response};
use gql_serve::service::parse_query;
use gql_serve::{Catalog, Response};
use gql_ssdm::{DocIndex, Summary};
use gql_trace::Trace;
use gql_wglog::Instance;

use crate::check::Checker;
use crate::deploy::{query_request, with_worker_mask, Deployment};
use crate::run::{setup, step, Frames, Tally, WARMUP_ROUNDS};
use crate::stats::median;
use crate::workload::{Inputs, Lang, Op, Workload, RELOAD_DATASET};
use crate::Metrics;

/// Rounds of the untraced pass and of the traced pass, per workload:
/// sized so a run takes a few seconds to a few tens of seconds.
fn rounds(workload: Workload) -> (usize, usize) {
    match workload {
        Workload::ServedSmall => (200, 100),
        Workload::EngineLarge => (20, 12),
        Workload::ReloadChurn => (10, 6),
    }
}

/// Repetitions of each load-path measurement (odd: the median is one
/// sample).
const LOAD_REPS: usize = 7;

/// Engine phases each language's run reports as direct children of its
/// `run` span.
fn phases(lang: Lang) -> &'static [&'static str] {
    match lang {
        Lang::XmlGl => &["analyze", "plan", "index", "eval"],
        Lang::WgLog => &["analyze", "plan", "load", "eval", "construct"],
        Lang::XPath => &["analyze", "plan", "parse", "index", "eval", "construct"],
    }
}

/// Work counters read from the profile, summed over all its spans.
const COUNTERS: [(Lang, &str); 9] = [
    (Lang::XmlGl, "bindings"),
    (Lang::XmlGl, "probes"),
    (Lang::XmlGl, "hash_matches"),
    (Lang::WgLog, "rounds"),
    (Lang::WgLog, "embeddings_total"),
    (Lang::WgLog, "instance_objects"),
    (Lang::XPath, "context_in"),
    (Lang::XPath, "context_out"),
    (Lang::XPath, "fusion_hits"),
];

/// One recorded span.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: u64,
}

/// The in-memory span recorder.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    request: u64,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            request: 0,
        }
    }
}

impl Spans {
    fn next_request(&mut self) {
        self.request += 1;
    }

    /// Open a span; close it with [`close`](Self::close).
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request: self.request,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in microseconds.
    fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        (span.end - span.start).as_secs_f64() * 1e6
    }

    /// Time `f` as a span; returns its result and duration in µs.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = std::hint::black_box(f());
        (out, self.close(id))
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.request
            )?;
        }
        out.flush()
    }
}

/// Samples of every per-layer quantity, by metric name.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn add(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Microseconds of one named direct child of the profile's `run` span.
fn phase_us(profile: &Value, phase: &str) -> Option<f64> {
    let run = profile.get("spans")?.as_arr()?.first()?;
    run.get("children")?
        .as_arr()?
        .iter()
        .find(|c| c.get("name").and_then(Value::as_str) == Some(phase))
        .and_then(|c| c.get("nanos")?.as_f64())
        .map(|ns| ns / 1e3)
}

/// Sum of counter `name` over every span of the profile.
fn counter_sum(node: &Value, name: &str) -> f64 {
    let own = node
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let kids: f64 = node
        .get("children")
        .or_else(|| node.get("spans"))
        .and_then(Value::as_arr)
        .map_or(0.0, |cs| cs.iter().map(|c| counter_sum(c, name)).sum());
    own + kids
}

/// Plan-cache (hits, misses) summed over every live dataset's engine.
fn plan_stats(catalog: &Catalog) -> (u64, u64) {
    catalog.snapshot().iter().fold((0, 0), |(h, m), d| {
        let s = d.engine().plan_cache_stats();
        (h + s.hits, m + s.misses)
    })
}

/// The traced pass's recorders.
#[derive(Default)]
struct Tracer {
    spans: Spans,
    samples: Samples,
    /// A WG-Log instance per dataset a WG-Log query reads, for timing the
    /// per-run copy.
    instances: BTreeMap<&'static str, Instance>,
    /// Per query index: [end to end, the layers timed on their own] in
    /// µs, one row per traced request.
    per_query: BTreeMap<usize, Vec<[f64; 2]>>,
}

/// Everything measured for one query of the traced pass.
fn trace_query(
    tracer: &mut Tracer,
    dep: &mut Deployment,
    qi: usize,
    frames: &Frames,
    checker: &mut Checker,
    tally: &mut Tally,
) -> Result<(), String> {
    let spec = checker.spec(qi);
    let Tracer {
        spans,
        samples,
        instances,
        per_query,
    } = tracer;
    let lang = spec.lang.name();
    let handle = dep.handle();
    let catalog = Arc::clone(handle.catalog());
    spans.next_request();
    let root = spans.open("request", None);

    // The wire round trip, profiled; its reply carries the phase tree.
    let (hits0, misses0) = plan_stats(&catalog);
    let wire_id = spans.open("wire", Some(root));
    let (took, reply) = dep.timed(&frames.queries[qi]);
    spans.close(wire_id);
    let (hits1, misses1) = plan_stats(&catalog);
    samples.add("plan.cache_hits", (hits1 - hits0) as f64);
    samples.add("plan.cache_misses", (misses1 - misses0) as f64);
    let wire_us = took.as_secs_f64() * 1e6;
    let profile = reply
        .as_ref()
        .ok()
        .and_then(|v| v.get("profile"))
        .cloned()
        .ok_or_else(|| format!("{}: reply without a profile", spec.label))?;
    tally.record(checker.query(qi, reply));
    let mut phase_total = 0.0;
    for phase in phases(spec.lang) {
        let us = phase_us(&profile, phase)
            .ok_or_else(|| format!("{}: profile has no {phase} phase", spec.label))?;
        phase_total += us;
        samples.add(format!("engine.{lang}.{phase}_us"), us);
    }
    for (l, counter) in COUNTERS {
        if l == spec.lang {
            samples.add(format!("{lang}.{counter}"), counter_sum(&profile, counter));
        }
    }

    // The same request through the in-process handle, and the pieces of
    // the serve layer it skips or adds.
    let request = query_request(&spec, true);
    let (response, submit_us) = spans.time("serve.submit", Some(root), || handle.submit(&request));
    let (_, us) = spans.time("serve.proto.decode", Some(root), || {
        decode_op(&frames.queries[qi])
    });
    samples.add("serve.proto.decode_us", us);
    let mut own_layers = us;
    let (_, us) = spans.time("serve.proto.encode", Some(root), || {
        encode_response(&response).render()
    });
    samples.add("serve.proto.encode_us", us);
    own_layers += us;
    let (parsed, us) = spans.time("serve.parse_query", Some(root), || {
        parse_query(lang, spec.text)
    });
    samples.add("serve.parse_query_us", us);
    own_layers += us;
    let query = parsed?;
    let key_id = spans.open("plan.cache_key", Some(root));
    let key = match &query {
        QueryKind::XmlGl(p) => Some(gql_xmlgl::dsl::print(p)),
        QueryKind::WgLog(p) => Some(gql_wglog::dsl::print(p)),
        QueryKind::XPath(_) => None,
    };
    let key_us = spans.close(key_id);
    if std::hint::black_box(key).is_some() {
        samples.add("plan.cache_key_us", key_us);
        own_layers += key_us;
    }

    // The engine call `execute` makes, under the profiling trace the
    // service always runs and under a disabled one.
    let dataset = catalog
        .get(spec.dataset)
        .ok_or_else(|| format!("unknown dataset {}", spec.dataset))?;
    let engine = dataset.engine();
    let doc = dataset.doc();
    // On the service workers' CPU mask, so the matcher fans out as it
    // does behind `submit`.
    let run = |trace: &Trace| {
        let guard = Guard::with_cancel(Budget::unlimited(), CancelToken::new());
        with_worker_mask(|| engine.run_governed(&query, doc, trace, &guard))
    };
    let (outcome, direct_us) = spans.time("core.run_governed.profiling", Some(root), || {
        let trace = Trace::profiling();
        let out = run(&trace);
        (out, trace.finish())
    });
    let (_, disabled_us) = spans.time("core.run_governed.disabled", Some(root), || {
        run(&Trace::disabled())
    });
    samples.add(
        format!("trace.{lang}.profiling_us"),
        direct_us - disabled_us,
    );
    let outcome = outcome.0.map_err(|e| format!("{}: {e}", spec.label))?;
    let (_, us) = spans.time("engine.output_xml", Some(root), || {
        outcome.output.to_xml_string()
    });
    samples.add("engine.output_xml_us", us);
    own_layers += us;
    if let Some(instance) = instances
        .get(spec.dataset)
        .filter(|_| spec.lang == Lang::WgLog)
    {
        let (_, us) = spans.time("wglog.instance_clone", Some(root), || instance.clone());
        samples.add("wglog.instance_clone_us", us);
    }
    if !matches!(response, Response::Ok(_)) {
        return Err(format!("{}: submit failed", spec.label));
    }
    spans.close(root);

    let wire_layer = wire_us - submit_us;
    let service_layer = submit_us - direct_us;
    samples.add("serve.server.wire_us", wire_layer);
    samples.add("serve.service.overhead_us", service_layer);
    per_query
        .entry(qi)
        .or_default()
        .push([wire_us, own_layers + phase_total]);
    Ok(())
}

pub fn run(workload: Workload, seed: u64, _seconds: u64) -> Result<(Metrics, Tally), String> {
    let inputs = Inputs::generate(seed)?;
    let queries = workload.queries();
    let plain = Frames::new(workload, &inputs, false)?;
    let profiled = Frames::new(workload, &inputs, true)?;
    let mut checker = Checker::new(&inputs, queries.clone());
    let mut tally = Tally::default();
    let (mut dep, _) = setup(&inputs, &plain, &mut checker, &mut tally)?;
    let round = workload.round();
    let (untraced_rounds, traced_rounds) = rounds(workload);
    for _ in 0..WARMUP_ROUNDS {
        for &op in &round {
            step(&mut dep, &plain, &mut checker, &mut tally, op);
        }
    }

    // Untraced pass: plain wire requests, as the untraced run sends them.
    let mut untraced: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let telemetry = Arc::clone(dep.handle().telemetry());
    let probes0 = telemetry.probes();
    let mut sent = 0u64;
    for _ in 0..untraced_rounds {
        for &op in &round {
            let took = step(&mut dep, &plain, &mut checker, &mut tally, op);
            if let Op::Query(qi) = op {
                untraced
                    .entry(qi)
                    .or_default()
                    .push(took.as_secs_f64() * 1e6);
                sent += 1;
            }
        }
    }
    let probes_per_query = (telemetry.probes() - probes0) as f64 / sent as f64;

    // Traced pass.
    let mut tracer = Tracer::default();
    for spec in queries.iter().filter(|q| q.lang == Lang::WgLog) {
        let doc = gql_ssdm::xml::parse(inputs.xml(spec.dataset)).map_err(|e| e.to_string())?;
        tracer
            .instances
            .insert(spec.dataset, Instance::from_document(&doc));
    }
    for _ in 0..traced_rounds {
        for &op in &round {
            match op {
                Op::Query(qi) => trace_query(
                    &mut tracer,
                    &mut dep,
                    qi,
                    &profiled,
                    &mut checker,
                    &mut tally,
                )?,
                Op::Reload => {
                    tracer.spans.next_request();
                    let id = tracer.spans.open("wire.reload", None);
                    step(&mut dep, &plain, &mut checker, &mut tally, op);
                    tracer.spans.close(id);
                }
            }
        }
    }
    let Tracer {
        mut spans,
        mut samples,
        per_query: per_query_e2e,
        ..
    } = tracer;
    let report = dep.handle().metrics_report();
    let mut admitted = BTreeMap::new();
    for ev in &report.events {
        match ev.kind {
            gql_metrics::EventKind::Admit => {
                admitted.insert(ev.request_id, ev.t_micros);
            }
            gql_metrics::EventKind::Dequeue => {
                if let Some(t0) = admitted.get(&ev.request_id) {
                    samples.add(
                        "serve.queue_wait_us",
                        ev.t_micros.saturating_sub(*t0) as f64,
                    );
                }
            }
            _ => {}
        }
    }
    drop(dep);

    // The load path on the reload document, outside the service.
    load_path(&inputs, &mut spans, &mut samples)?;

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{seed}.jsonl", workload.name()));
    spans
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans: {} written to {}", spans.spans.len(), path.display());

    let mut m = Metrics::default();
    let put = |m: &mut Metrics, name: &str, unit: &'static str| -> Result<(), String> {
        let s = samples.get(name);
        if s.is_empty() {
            return Err(format!("no samples for {name}"));
        }
        m.push(name, median(s), unit, s.len());
        Ok(())
    };
    for name in [
        "serve.proto.decode_us",
        "serve.proto.encode_us",
        "serve.parse_query_us",
        "serve.server.wire_us",
        "serve.service.overhead_us",
    ] {
        put(&mut m, name, "us")?;
    }
    // The service's event clock ticks in whole microseconds, so a median
    // of a few-µs wait would read the same integer on every run: report
    // the mean instead.
    let waits = samples.get("serve.queue_wait_us");
    m.push(
        "serve.queue_wait_us",
        waits.iter().sum::<f64>() / waits.len().max(1) as f64,
        "us",
        waits.len(),
    );
    m.push(
        "serve.telemetry_probes",
        probes_per_query,
        "count",
        sent as usize,
    );
    put(&mut m, "serve.reload_us", "us")?;
    for lang in Lang::ALL {
        for phase in phases(lang) {
            put(&mut m, &format!("engine.{}.{phase}_us", lang.name()), "us")?;
        }
    }
    put(&mut m, "engine.output_xml_us", "us")?;
    for lang in Lang::ALL {
        put(&mut m, &format!("trace.{}.profiling_us", lang.name()), "us")?;
    }
    for name in ["plan.cache_hits", "plan.cache_misses"] {
        let s = samples.get(name);
        m.push(name, s.iter().sum(), "count", s.len());
    }
    put(&mut m, "plan.cache_key_us", "us")?;
    for (lang, counter) in COUNTERS {
        // Work per query of the language, averaged over a fixed number of
        // rounds: it repeats exactly for one seed.
        let name = format!("{}.{counter}", lang.name());
        let s = samples.get(&name);
        m.push(
            &name,
            s.iter().sum::<f64>() / s.len().max(1) as f64,
            "count",
            s.len(),
        );
    }
    put(&mut m, "wglog.instance_clone_us", "us")?;
    for name in [
        "ssdm.parse_us",
        "ssdm.index_build_us",
        "ssdm.summary_us",
        "wglog.instance_build_us",
    ] {
        put(&mut m, name, "us")?;
    }

    // Reconciliation: per query, the medians of the layers timed on their
    // own (decode, parse, plan key, the reply's engine phases, output
    // serialisation, encode) plus the mean queue wait, summed over the mix,
    // over the sum of the end-to-end medians. What is left is time no
    // layer measure covers: socket I/O, thread hand-offs, admission,
    // telemetry and the client's reply parse.
    let queue_wait = waits.iter().sum::<f64>() / waits.len().max(1) as f64;
    let (mut layers, mut whole) = (0.0, 0.0);
    for rows in per_query_e2e.values() {
        let col = |i: usize| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
        whole += col(0);
        layers += col(1) + queue_wait;
    }
    m.push(
        "reconcile.ratio",
        layers / whole,
        "ratio",
        per_query_e2e.len(),
    );
    let traced_sum: f64 = per_query_e2e
        .values()
        .map(|rows| median(&rows.iter().map(|r| r[0]).collect::<Vec<_>>()))
        .sum();
    let untraced_sum: f64 = untraced.values().map(|s| median(s)).sum();
    m.push(
        "trace.overhead_ratio",
        traced_sum / untraced_sum,
        "ratio",
        per_query_e2e.len(),
    );
    eprintln!(
        "tracing overhead: traced wire requests take {:.1}% longer than untraced ones \
         (sum of per-query medians {traced_sum:.0} us vs {untraced_sum:.0} us)",
        (traced_sum / untraced_sum - 1.0) * 100.0
    );
    eprintln!(
        "reconcile: layers timed on their own {layers:.0} us of {whole:.0} us end to end \
         = {:.3}; unexplained residual {:.0} us ({:.1}%)",
        layers / whole,
        whole - layers,
        (1.0 - layers / whole) * 100.0
    );
    Ok((m, tally))
}

/// Parse, index, summary, instance build and catalog reload of the
/// reload document, each [`LOAD_REPS`] times.
fn load_path(inputs: &Inputs, spans: &mut Spans, samples: &mut Samples) -> Result<(), String> {
    let xml = [inputs.xml(RELOAD_DATASET), inputs.reload_alt.as_str()];
    let mut catalog = Catalog::new();
    catalog.register_xml(RELOAD_DATASET, xml[0])?;
    for rep in 0..LOAD_REPS {
        spans.next_request();
        let root = spans.open("load", None);
        let (doc, us) = spans.time("ssdm.parse", Some(root), || {
            gql_ssdm::xml::parse(xml[rep % 2])
        });
        let doc = doc.map_err(|e| e.to_string())?;
        samples.add("ssdm.parse_us", us);
        let (index, us) = spans.time("ssdm.index_build", Some(root), || DocIndex::build(&doc));
        samples.add("ssdm.index_build_us", us);
        let (_, us) = spans.time("ssdm.summary", Some(root), || {
            Summary::from_index(&doc, &index)
        });
        samples.add("ssdm.summary_us", us);
        let (_, us) = spans.time("wglog.instance_build", Some(root), || {
            Instance::from_document(&doc)
        });
        samples.add("wglog.instance_build_us", us);
        let (reloaded, us) = spans.time("serve.reload", Some(root), || {
            catalog.reload(RELOAD_DATASET, doc)
        });
        reloaded?;
        samples.add("serve.reload_us", us);
        spans.close(root);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_run_prints_every_layer_and_reconciles() {
        let (metrics, tally) = run(Workload::ServedSmall, 2, 1).expect("traced run completes");
        assert_eq!(tally.failed, 0);
        assert!(tally.wrong.is_empty(), "{:?}", tally.wrong);
        // The layers timed on their own cannot add up to more than the
        // whole; a ratio above 1 means one was counted twice.
        let ratio = metrics.get("reconcile.ratio").expect("reconciled");
        assert!((0.2..1.05).contains(&ratio), "reconcile.ratio {ratio}");
        assert!(metrics.get("xpath.fusion_hits").is_some_and(|v| v > 0.0));
        assert!(metrics.get("plan.cache_hits").is_some_and(|v| v > 0.0));
    }
}
