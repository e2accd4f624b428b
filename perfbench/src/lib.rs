//! One cold benchmark run of the simulator: build a workload's engine,
//! run it to the horizon, check its outputs and report every metric.
//!
//! `perfbench/run.py` repeats this in fresh processes and takes medians;
//! see `perfbench/README.md` for the workloads and what each metric
//! should move.

#![forbid(unsafe_code)]

pub mod host;
pub mod speed;
pub mod timed;
pub mod workload;

use std::io;

use simcore::SimTime;

use timed::{probe_floor_ns, Call, Tracer};
use workload::{ratio, Run, Workload};

/// One metric as reported: name, unit, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// One output check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The compared values.
    pub detail: String,
}

/// Everything one invocation measured and checked.
#[derive(Debug, Clone)]
pub struct Report {
    /// The measured (untraced) run.
    pub run: Run,
    /// The traced run, when asked for.
    pub traced: Option<Run>,
    /// A second, warm untraced run at the measured worker count, when
    /// tracing: the baseline of the traced run and of the one-worker run.
    pub reference: Option<Run>,
    /// The sharded engine's check run at one worker (`fabric16` only).
    pub single: Option<Run>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Metrics, end-to-end first.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every check held.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The report as one JSON line.
    pub fn to_json(&self, workload: Workload, seed: u64, horizon: SimTime) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}",
                    c.name, c.ok, c.detail
                )
            })
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        let f = &self.run.flows;
        format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"horizon_ns\": {}, \"workers\": {}, \
             \"engine_runs\": {}, \"digest\": \"{:016x}\", \"flows\": {{\"started\": {}, \"completed\": {}, \
             \"failed\": {}}}, \"checks\": [{}], \"metrics\": {{{}}}}}",
            workload.name(),
            horizon.as_nanos(),
            self.run.workers,
            1 + [&self.traced, &self.reference, &self.single]
                .iter()
                .filter(|r| r.is_some())
                .count(),
            self.run.digest,
            f.started,
            f.completed,
            f.failed,
            checks.join(", "),
            metrics.join(", ")
        )
    }
}

/// Worker threads for the sharded engine: one per CPU, at most one per
/// rack.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(16)
}

/// A run after the measured one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Warm {
    /// `fabric16` at one worker.
    Single,
    /// Untraced, at the measured worker count.
    Reference,
    /// Traced, at the measured worker count.
    Traced,
}

/// Run `workload` once as measured: cold and untraced. Then make the
/// warm runs it needs: `fabric16` again at one worker, and with `trace`
/// a traced run and an untraced reference run at the measured worker
/// count. The ratios of warm runs divide by the reference, which runs
/// between the other two; their order flips with the parity of the
/// process id, so that neither side of a ratio always runs later.
///
/// `repeat` marks a process that repeats an earlier process's run with
/// the same seed: untraced, it skips the one-worker run, whose digest
/// check the earlier process made against the same measured digest.
pub fn measure(
    workload: Workload,
    seed: u64,
    horizon: SimTime,
    trace: bool,
    repeat: bool,
) -> io::Result<Report> {
    let workers = if workload.sharded() {
        default_workers()
    } else {
        1
    };
    let run = workload.run(seed, horizon, workers, &Tracer::off())?;

    let mut order = Vec::new();
    if workload.sharded() && (trace || !repeat) {
        order.push(Warm::Single);
    }
    if trace {
        order.extend([Warm::Reference, Warm::Traced]);
    }
    if std::process::id() % 2 == 1 {
        order.reverse();
    }
    let (mut single, mut reference, mut traced) = (None, None, None);
    for warm in order {
        match warm {
            Warm::Single => single = Some(workload.run(seed, horizon, 1, &Tracer::off())?),
            Warm::Reference => {
                reference = Some(workload.run(seed, horizon, workers, &Tracer::off())?)
            }
            Warm::Traced => traced = Some(workload.run(seed, horizon, workers, &Tracer::on())?),
        }
    }

    let mut checks = vec![flow_check("flows", &run), delivery_check("delivered", &run)];
    checks.push(Check {
        name: "sim_output",
        ok: run.events > 0 && run.goodput_gbps > 0.0,
        detail: format!("events {} goodput {} Gbps", run.events, run.goodput_gbps),
    });
    if let Some(s) = &single {
        checks.push(flow_check("flows_w1", s));
        checks.push(digest_check("digest_w1_vs_wn", s, &run));
    }
    if let Some(t) = &traced {
        checks.push(flow_check("flows_traced", t));
        checks.push(digest_check("digest_traced_vs_untraced", t, &run));
    }
    if let Some(r) = &reference {
        checks.push(digest_check("digest_reference_vs_measured", r, &run));
    }

    let mut metrics = end_to_end(&run)?;
    metrics.extend(counters(&run));
    if let (Some(t), Some(r)) = (&traced, &reference) {
        metrics.extend(traced_layers(t, r, single.as_ref(), probe_floor_ns()));
    }
    Ok(Report {
        run,
        traced,
        reference,
        single,
        checks,
        metrics,
    })
}

fn flow_check(name: &'static str, run: &Run) -> Check {
    let f = run.flows;
    Check {
        name,
        ok: f.started > 0 && f.started == f.completed + f.failed,
        detail: format!(
            "started {} completed {} failed {}",
            f.started, f.completed, f.failed
        ),
    }
}

fn delivery_check(name: &'static str, run: &Run) -> Check {
    let f = run.flows;
    Check {
        name,
        ok: f.undelivered == 0,
        detail: format!(
            "{} of {} completed flows disagree with their receiver's byte count",
            f.undelivered, f.completed
        ),
    }
}

fn digest_check(name: &'static str, a: &Run, b: &Run) -> Check {
    Check {
        name,
        ok: a.digest == b.digest,
        detail: format!("{:016x} vs {:016x}", a.digest, b.digest),
    }
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Nearest-rank percentile of sorted samples (the harness's FCT oracle
/// rule).
fn percentile(sorted: &[u64], permille: u64) -> Option<u64> {
    let n = sorted.len() as u64;
    let rank = (permille * n).div_ceil(1000).clamp(1, n.max(1));
    sorted.get(rank as usize - 1).copied()
}

fn end_to_end(run: &Run) -> io::Result<Vec<Metric>> {
    let mut m = vec![
        metric("run_s", "s", run.run_s),
        metric("cpu_s", "s", run.cpu_s),
        metric("setup_s", "s", run.setup_s),
        metric("peak_rss_mb", "MB", host::peak_rss_mb()?),
        metric("goodput_gbps", "Gbps", run.goodput_gbps),
        metric("failed_flow_frac", "ratio", run.flows.failed_frac()),
    ];
    if let (Some(p50), Some(p99)) = (percentile(&run.fcts_ns, 500), percentile(&run.fcts_ns, 990)) {
        m.push(metric("fct_p50_us", "us", p50 as f64 / 1e3));
        m.push(metric("fct_p99_us", "us", p99 as f64 / 1e3));
        m.push(metric("fct_samples", "count", run.fcts_ns.len() as f64));
    }
    Ok(m)
}

/// Exact per-layer counters, available without tracing.
fn counters(run: &Run) -> Vec<Metric> {
    let t = &run.tcp;
    vec![
        metric("tcp.segs_sent", "count", t.segs_sent as f64),
        metric("tcp.acks_sent", "count", t.acks_sent as f64),
        metric(
            "tcp.retx_frac",
            "ratio",
            ratio(t.retransmits as f64, t.segs_sent as f64),
        ),
        metric(
            "tcp.spurious_frac",
            "ratio",
            ratio(t.spurious_retransmits as f64, t.retransmits as f64),
        ),
        metric("tcp.rtos", "count", t.rtos as f64),
        metric("tcp.rto_stalls", "count", t.rto_stalls as f64),
        metric("tcp.stall_ms", "ms", t.stall_ns as f64 / 1e6),
        metric("tcp.fast_recoveries", "count", t.fast_recoveries as f64),
        metric("tcp.reorder_events", "count", t.reorder_events as f64),
        metric("tdtcp.tdn_switches", "count", t.tdn_switches as f64),
        metric("tdtcp.relaxed_skips", "count", t.relaxed_skips as f64),
        metric(
            "tdtcp.cross_tdn_rtt_discards",
            "count",
            t.cross_tdn_rtt_discards as f64,
        ),
        metric("engine.events", "count", run.events as f64),
        metric("rdcn.voq_drops", "count", run.voq_drops as f64),
        metric("rdcn.ce_marks", "count", run.ce_marks as f64),
        metric("shard.peak_imbalance", "ratio", run.peak_imbalance),
    ]
}

/// Metrics of the traced run, split at the transport boundary. Each
/// call's time is net of `probe_ns`, the floor of one timed call; the
/// ratios divide by the warm `reference` run.
fn traced_layers(
    traced: &Run,
    reference: &Run,
    single: Option<&Run>,
    probe_ns: f64,
) -> Vec<Metric> {
    let tt = traced.transport.unwrap_or_default();
    let net_ns: Vec<f64> = Call::ALL
        .iter()
        .map(|&c| (tt.ns[c as usize] as f64 - probe_ns * tt.calls[c as usize] as f64).max(0.0))
        .collect();
    let busy_s = traced.run_s * traced.workers as f64;
    let transport_s = net_ns.iter().sum::<f64>() / 1e9;
    let engine_s = busy_s - transport_s;
    let mut m = vec![
        metric("transport.self_s", "s", transport_s),
        metric("transport.frac", "ratio", ratio(transport_s, busy_s)),
    ];
    for call in Call::ALL {
        let calls = tt.calls[call as usize];
        m.push(metric(
            format!("transport.{}.calls", call.name()),
            "count",
            calls as f64,
        ));
        m.push(metric(
            format!("transport.{}.ns", call.name()),
            "ns/call",
            ratio(net_ns[call as usize], calls as f64),
        ));
    }
    let polls = tt.calls[Call::PollSend as usize];
    m.extend([
        metric(
            "transport.poll_send.hit_ratio",
            "ratio",
            ratio(tt.poll_hits as f64, polls as f64),
        ),
        metric(
            "transport.calls_per_event",
            "calls/event",
            ratio(tt.total_calls() as f64, traced.events as f64),
        ),
        metric("engine.self_s", "s", engine_s),
        metric(
            "engine.ns_per_event",
            "ns/event",
            ratio(engine_s * 1e9, traced.events as f64),
        ),
        // Serial engines have one worker: their speed-up is 1 by
        // definition.
        metric(
            "shard.speedup",
            "ratio",
            single.map_or(1.0, |s| ratio(s.run_s, reference.run_s)),
        ),
        metric(
            "trace.overhead",
            "ratio",
            ratio(traced.run_s, reference.run_s),
        ),
        metric("trace.probe_ns", "ns/call", probe_ns),
    ]);
    m
}
