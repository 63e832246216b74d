//! Turns repetitions into the named metrics the benchmark prints.

use crate::run::{median, quantile, Rep, SimCounts};

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The simulated results `reps` share, or an error if any repetition
/// disagrees with the first bit for bit.
pub fn agreed_sim<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> Result<&'a SimCounts, String> {
    let mut reps = reps.into_iter();
    let first = &reps.next().ok_or("no repetition ran")?.sim;
    match reps.find(|r| r.sim != *first) {
        None => Ok(first),
        Some(r) => Err(format!(
            "repetitions disagree on simulated results:\n  {:?}\n  {:?}",
            r.sim, first
        )),
    }
}

/// The end-to-end metrics of untraced repetitions.
pub fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Result<Vec<Metric>, String> {
    let sim = agreed_sim(reps)?;
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let rel: Vec<f64> = reps.iter().map(Rep::host_rel).collect();
    let us = |i: usize| {
        sim.stall_pct_ns[i].map(|ns| ns as f64 / 1e3).ok_or(format!(
            "{} stalled accesses cannot resolve that percentile",
            sim.stalls
        ))
    };
    Ok(vec![
        m("setup_s", "s", median(&setup)),
        m("host_rel", "ratio", median(&rel)),
        m("peak_rss_mb", "MB", peak_rss_mb),
        m("sim_s", "s", sim.makespan_ns as f64 / 1e9),
        m("fault_p50_us", "us", us(0)?),
        m("fault_p99_us", "us", us(1)?),
        m("fault_p999_us", "us", us(2)?),
        m(
            "faults_per_kaccess",
            "1/kaccess",
            ratio(sim.faults * 1000, sim.accesses),
        ),
        m("state_max_bytes", "B", sim.state_max_bytes as f64),
    ])
}

/// Engine entry points and protocol kinds reported per call.
pub const ENGINE_SPANS: [(&str, &str); 11] = [
    ("core.ns.emmi", "emmi"),
    ("core.ns.pager_reply", "pager_reply"),
    ("core.ns.evict", "evict"),
    ("core.ns.fault_completed", "fault_completed"),
    ("core.ns.page_req", "asvm.msg.page_req"),
    ("core.ns.grant", "asvm.msg.grant"),
    ("core.ns.invalidate", "asvm.msg.invalidate"),
    ("core.ns.invalidate_ack", "asvm.msg.invalidate_ack"),
    ("core.ns.owner_hint", "asvm.msg.owner_hint"),
    ("core.ns.read_check", "asvm.msg.read_check"),
    ("core.ns.read_check_reply", "asvm.msg.read_check_reply"),
];

/// The per-layer metrics: host spans from `traced`, compared against the
/// host time of `untraced`; simulated ratios from either (they must
/// agree bit for bit, or no per-layer number is reported).
pub fn per_layer(untraced: &[Rep], traced: &[Rep]) -> Result<Vec<Metric>, String> {
    if untraced.is_empty() || traced.is_empty() {
        return Err("a traced run needs traced and untraced repetitions".to_string());
    }
    let sim = agreed_sim(untraced.iter().chain(traced))
        .map_err(|e| format!("the traced run did not reproduce the untraced one: {e}"))?;
    let med = |reps: &[Rep], f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let host_plain = med(untraced, |r| r.host_s);

    let spans: Vec<_> = traced.iter().filter_map(|r| r.trace.as_ref()).collect();
    let engine = crate::trace::EngineLedger::default();
    let mut steps: Vec<u64> = Vec::new();
    let mut program_ns = 0u64;
    for t in &spans {
        engine.merge(&t.engine);
        steps.extend_from_slice(&t.step_ns);
        program_ns += t.program_ns;
    }
    steps.sort_unstable();
    let events = sim.events * spans.len() as u64;
    let step_ns: u64 = steps.iter().sum();
    let engine_ns = engine.total_ns();
    let residual_ns = step_ns.saturating_sub(engine_ns + program_ns);
    let step_q = |q| {
        quantile(&steps, q)
            .map(|v| v as f64)
            .ok_or("too few traced steps")
    };

    let mut out = vec![
        m("host.run_s", "s", host_plain),
        m(
            "host.ref_ms",
            "ms",
            med(untraced, |r| r.ref_s.expect("a timed repetition")) * 1e3,
        ),
        m("sim.events_per_s", "1/s", sim.events as f64 / host_plain),
        m("sim.step_ns_p50", "ns", step_q(500)?),
        m("sim.step_ns_p99", "ns", step_q(990)?),
        m(
            "sim.events_per_access",
            "1/access",
            ratio(sim.events, sim.accesses),
        ),
        m("sim.queue_peak", "count", sim.queue_peak as f64),
        m("sim.queue_grow", "count", sim.queue_grow as f64),
        m("core.engine_ns_per_event", "ns", ratio(engine_ns, events)),
        m("core.engine_share", "ratio", ratio(engine_ns, step_ns)),
    ];
    for (name, key) in ENGINE_SPANS {
        let (calls, ns) = engine.get(key);
        out.push(m(name, "ns", ratio(ns, calls)));
    }
    out.extend([
        m(
            "core.page_req_per_fault",
            "1/fault",
            ratio(sim.page_reqs, sim.faults),
        ),
        m("core.loop_trips", "count", sim.loop_trips as f64),
        m(
            "core.msgs_per_fault",
            "1/fault",
            ratio(sim.asvm_msgs, sim.faults),
        ),
        m(
            "core.invalidations_per_fault",
            "1/fault",
            ratio(sim.invalidations, sim.faults),
        ),
        m("core.state_mean_bytes", "B", sim.state_mean_bytes as f64),
        m(
            "transport.frames_per_fault",
            "1/fault",
            ratio(sim.frames, sim.faults),
        ),
        m(
            "transport.page_frames_per_fault",
            "1/fault",
            ratio(sim.page_frames, sim.faults),
        ),
        m(
            "transport.bytes_per_access",
            "B/access",
            ratio(sim.net_bytes, sim.accesses),
        ),
        m(
            "pager.disk_reads_per_page",
            "1/page",
            ratio(sim.disk_reads, sim.shared_pages),
        ),
        m("pager.data_requests", "count", sim.data_requests as f64),
        m(
            "machvm.pageouts_per_kaccess",
            "1/kaccess",
            ratio(sim.pageouts * 1000, sim.accesses),
        ),
        m(
            "cluster.residual_ns_per_event",
            "ns",
            ratio(residual_ns, events),
        ),
        m(
            "bench.program_ns_per_event",
            "ns",
            ratio(program_ns, events),
        ),
        m(
            "trace.overhead",
            "ratio",
            med(traced, Rep::host_rel) / med(untraced, Rep::host_rel) - 1.0,
        ),
    ]);
    Ok(out)
}

/// `metrics`, or an error naming the first value JSON cannot carry.
pub fn finite(metrics: Vec<Metric>) -> Result<Vec<Metric>, String> {
    match metrics.iter().find(|x| !x.value.is_finite()) {
        Some(x) => Err(format!("{} is {}", x.name, x.value)),
        None => Ok(metrics),
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
