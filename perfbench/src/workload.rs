//! The benchmark's workloads and the one engine call each makes.
//!
//! A workload is its topology, flows, transport population and horizon.
//! Each has one function (`bulk2`, `shorts2`, `fabric16`) that builds
//! its engine, runs it and folds the engine's result into a [`Run`];
//! porting a workload to another engine means rewriting that function
//! only.
//!
//! The endpoint and schedule builders here mirror the `bench` harness
//! (`bench::variants::Variant::factory_for`, `bench::tails`, the
//! `bigrun` fabric) line for line: the benchmark may not depend on
//! `bench`, which the crate-layering rule keeps at the top of the stack.
//! `tests/digests.rs` pins the result to the digests the harness gives.

use std::io;

use rdcn::emulator::{EndpointFactory, TimedEndpointFactory};
use rdcn::{
    Emulator, FlowSpec, MultiRackConfig, NetConfig, PairFlow, RunResult, ShardConfig, ShardResult,
    ShardedEmulator,
};
use simcore::{DetRng, SimDuration, SimTime};
use tcp::cc::{CcConfig, Cubic};
use tcp::{ConnStats, FlowId, Transport};
use tdtcp::{TdtcpConfig, TdtcpConnection, WatchdogConfig};

use crate::host::{self, clock};
use crate::timed::{CallTotals, Tracer};

/// The stream the `shorts2` arrival schedule draws from, forked from the
/// run seed. Its own label: the harness's `TAIL_STREAM_LABEL` lives in
/// `bench`, and a second declaration of it would correlate two streams
/// as far as the stream-label rule can tell.
pub const SHORTS_STREAM_LABEL: u64 = 0x5_4027;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16 long-lived TDTCP flows on the two-rack emulator: the paper's
    /// flowgrind workload.
    Bulk2,
    /// Poisson 20 kB RPCs, half TDTCP and half CUBIC, over four
    /// background flows on the two-rack emulator.
    Shorts2,
    /// 48 bulk TDTCP flows over a 16-rack rotor fabric on the sharded
    /// engine.
    Fabric16,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Bulk2, Workload::Shorts2, Workload::Fabric16];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk2 => "bulk2",
            Workload::Shorts2 => "shorts2",
            Workload::Fabric16 => "fabric16",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated horizon of a benchmark run.
    pub fn horizon(self) -> SimTime {
        match self {
            Workload::Bulk2 => SimTime::from_millis(1000),
            Workload::Shorts2 => SimTime::from_millis(200),
            Workload::Fabric16 => SimTime::from_millis(100),
        }
    }

    /// Whether the engine runs on worker threads.
    pub fn sharded(self) -> bool {
        self == Workload::Fabric16
    }

    /// Build and run the workload's engine once. `workers` only matters
    /// on the sharded engine.
    pub fn run(
        self,
        seed: u64,
        horizon: SimTime,
        workers: usize,
        tracer: &Tracer,
    ) -> io::Result<Run> {
        match self {
            Workload::Bulk2 => bulk2(seed, horizon, tracer),
            Workload::Shorts2 => shorts2(seed, horizon, tracer),
            Workload::Fabric16 => fabric16(seed, horizon, workers, tracer),
        }
    }
}

/// Flow accounting of one run, counted per flow: a flow is completed
/// when a finite flow finished without error or a long-lived one reached
/// the horizon without error; it failed when it aborted with a
/// `ConnError` or is a finite flow unfinished at the horizon.
///
/// `undelivered` cross-checks the tally against the receivers' byte
/// counts, which the tally is not derived from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flows {
    /// Flows whose start time fell before the horizon.
    pub started: u64,
    /// Flows that completed.
    pub completed: u64,
    /// Flows that failed.
    pub failed: u64,
    /// Completed flows whose receiver disagrees: a finite flow that did
    /// not deliver exactly its bytes, or a long-lived flow that
    /// delivered nothing.
    pub undelivered: u64,
}

impl Flows {
    /// Count one flow of `bytes` (`u64::MAX`: long-lived) whose receiver
    /// delivered `delivered` bytes.
    fn count(&mut self, bytes: u64, done: bool, error: bool, delivered: u64) {
        let finite = bytes != u64::MAX;
        self.started += 1;
        if !error && done == finite {
            self.completed += 1;
            if (finite && delivered != bytes) || (!finite && delivered == 0) {
                self.undelivered += 1;
            }
        }
        if error || (finite && !done) {
            self.failed += 1;
        }
    }

    /// Failed flows over started flows.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.started as f64)
    }
}

/// `ConnStats` summed over every sender and receiver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpTotals {
    /// Data segments sent, retransmissions included.
    pub segs_sent: u64,
    /// Pure ACKs sent.
    pub acks_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Retransmissions later proven unnecessary.
    pub spurious_retransmits: u64,
    /// Retransmission timeouts fired.
    pub rtos: u64,
    /// RTO-stall episodes.
    pub rto_stalls: u64,
    /// Nanoseconds spent waiting on RTO timers.
    pub stall_ns: u64,
    /// Fast-recovery entries.
    pub fast_recoveries: u64,
    /// Sequence holes found by loss detection.
    pub reorder_events: u64,
    /// TDN change notifications applied.
    pub tdn_switches: u64,
    /// Holes skipped by TDTCP's relaxed reordering detection.
    pub relaxed_skips: u64,
    /// RTT samples discarded as cross-TDN.
    pub cross_tdn_rtt_discards: u64,
}

impl TcpTotals {
    fn of<'a>(stats: impl IntoIterator<Item = &'a ConnStats>) -> TcpTotals {
        let mut t = TcpTotals::default();
        for s in stats {
            t.segs_sent += s.segs_sent;
            t.acks_sent += s.acks_sent;
            t.retransmits += s.retransmits;
            t.spurious_retransmits += s.spurious_retransmits;
            t.rtos += s.rtos;
            t.rto_stalls += s.rto_stalls;
            t.stall_ns += s.stall_ns;
            t.fast_recoveries += s.fast_recoveries;
            t.reorder_events += s.reorder_events;
            t.tdn_switches += s.tdn_switches;
            t.relaxed_skips += s.relaxed_skips;
            t.cross_tdn_rtt_discards += s.cross_tdn_rtt_discards;
        }
        t
    }
}

/// What one engine run produced, whatever the engine.
#[derive(Debug, Clone)]
pub struct Run {
    /// Median host seconds of one build of the engine, its endpoints and
    /// schedule (see [`SETUPS`]).
    pub setup_s: f64,
    /// Host seconds inside the engine's `run` call.
    pub run_s: f64,
    /// Process CPU seconds (all threads) during the `run` call.
    pub cpu_s: f64,
    /// Worker threads the engine ran on.
    pub workers: usize,
    /// The engine result's `stats_digest`.
    pub digest: u64,
    /// Logical events the engine processed.
    pub events: u64,
    /// Flow accounting.
    pub flows: Flows,
    /// FCTs of completed finite flows, in nanoseconds, sorted.
    pub fcts_ns: Vec<u64>,
    /// Delivered bytes of the long-lived flows over the simulated
    /// duration, in Gbps.
    pub goodput_gbps: f64,
    /// Summed transport counters.
    pub tcp: TcpTotals,
    /// Tail drops over every VOQ.
    pub voq_drops: u64,
    /// CE marks over every VOQ.
    pub ce_marks: u64,
    /// Max shard events over the mean (1.0 on the serial engine).
    pub peak_imbalance: f64,
    /// Transport-call totals when the run was traced.
    pub transport: Option<CallTotals>,
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Set-ups per engine run. The engine is built this many times and all
/// but the last build are dropped unused; `setup_s` is the median build
/// time, so one slow (cold) build does not decide it.
pub const SETUPS: usize = 15;

/// Build with `build` [`SETUPS`] times; return the last build and the
/// median host seconds of one build.
fn set_up<E>(mut build: impl FnMut() -> E) -> (E, f64) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t0 = clock();
        built = Some(build());
        secs.push(t0.elapsed().as_secs_f64());
    }
    secs.sort_by(f64::total_cmp);
    (built.expect("SETUPS > 0"), secs[SETUPS / 2])
}

/// Time `f` as the engine's run: host seconds and process CPU seconds.
fn timed_run<R>(f: impl FnOnce() -> R) -> io::Result<(R, f64, f64)> {
    let cpu0 = host::cpu_ticks()?;
    let t0 = clock();
    let r = f();
    let run_s = t0.elapsed().as_secs_f64();
    Ok((r, run_s, host::cpu_seconds(cpu0, host::cpu_ticks()?)))
}

// ---------------------------------------------------------------------------
// Two-rack workloads
// ---------------------------------------------------------------------------

/// Transport of a two-rack flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Tdtcp,
    Cubic,
}

/// One two-rack flow.
#[derive(Debug, Clone, Copy)]
struct Flow {
    start: SimTime,
    /// Bytes to send; `u64::MAX` for a long-lived flow.
    bytes: u64,
    variant: Variant,
}

impl Flow {
    fn finite(&self) -> bool {
        self.bytes != u64::MAX
    }
}

const BULK2_FLOWS: usize = 16;

/// The `shorts2` arrival process.
const SHORTS2_BACKGROUND: usize = 4;
const SHORTS2_FLOWS: usize = 1500;
const SHORTS2_BYTES: u64 = 20_000;
const SHORTS2_MEAN_GAP: SimDuration = SimDuration::from_micros(100);
/// Background flows converge before the first short flow arrives.
const SHORTS2_SETTLE: SimDuration = SimDuration::from_millis(2);

/// Switch support for TDTCP and for a TDTCP+CUBIC mix: notifications
/// on, no ECN, no circuit marking, no dynamic buffers.
fn two_rack_net(seed: u64) -> NetConfig {
    let mut net = NetConfig::paper_baseline();
    net.seed = seed;
    net.voq.ecn_threshold = None;
    net.circuit_marking = false;
    net.retcpdyn = None;
    net.notifications = true;
    net
}

/// Both endpoints of flow `i`, the sender initiating at `now`. TDTCP
/// endpoints get the notification watchdog sized for the schedule.
fn endpoints(
    net: &NetConfig,
    i: usize,
    f: &Flow,
    now: SimTime,
) -> (Box<dyn Transport>, Box<dyn Transport>) {
    let cc = CcConfig::default();
    let id = FlowId(i as u32);
    match f.variant {
        Variant::Tdtcp => {
            let mut cfg = TdtcpConfig::default();
            cfg.tcp.bytes_to_send = f.bytes;
            cfg.watchdog = Some(WatchdogConfig::for_slot_with_guard(
                net.schedule.slot_len(),
                net.guard_band,
            ));
            let template = Cubic::new(cc);
            (
                Box::new(TdtcpConnection::connect(id, cfg.clone(), &template, now)),
                Box::new(TdtcpConnection::listen(id, cfg, &template)),
            )
        }
        Variant::Cubic => {
            let cfg = tcp::Config {
                bytes_to_send: f.bytes,
                ..tcp::Config::default()
            };
            (
                Box::new(tcp::Connection::connect(
                    id,
                    cfg.clone(),
                    Box::new(Cubic::new(cc)),
                    now,
                )),
                Box::new(tcp::Connection::listen(id, cfg, Box::new(Cubic::new(cc)))),
            )
        }
    }
}

/// The `shorts2` schedule: background flows first, then the short flows
/// in arrival order; flow `i` runs TDTCP when `i` is even, else CUBIC.
fn shorts2_schedule(rng: &mut DetRng) -> Vec<Flow> {
    let variant = |i: usize| {
        if i.is_multiple_of(2) {
            Variant::Tdtcp
        } else {
            Variant::Cubic
        }
    };
    let mut flows: Vec<Flow> = (0..SHORTS2_BACKGROUND)
        .map(|i| Flow {
            start: SimTime::ZERO,
            bytes: u64::MAX,
            variant: variant(i),
        })
        .collect();
    let mut t = SimTime::ZERO + SHORTS2_SETTLE;
    for k in 0..SHORTS2_FLOWS {
        t += SimDuration::from_nanos(rng.exponential(SHORTS2_MEAN_GAP.as_nanos() as f64) as u64);
        flows.push(Flow {
            start: t,
            bytes: SHORTS2_BYTES,
            variant: variant(SHORTS2_BACKGROUND + k),
        });
    }
    flows
}

fn bulk2(seed: u64, horizon: SimTime, tracer: &Tracer) -> io::Result<Run> {
    let ((emu, flows), setup_s) = set_up(|| {
        let net = two_rack_net(seed);
        let flows = vec![
            Flow {
                start: SimTime::ZERO,
                bytes: u64::MAX,
                variant: Variant::Tdtcp,
            };
            BULK2_FLOWS
        ];
        let (fnet, fflows, tr) = (net.clone(), flows.clone(), tracer.clone());
        let factory: EndpointFactory = Box::new(move |i| {
            let (s, r) = endpoints(&fnet, i, &fflows[i], SimTime::ZERO);
            (tr.wrap(s), tr.wrap(r))
        });
        let mut emu = Emulator::new(net, flows.len(), factory);
        emu.set_sample_interval(SimDuration::from_micros(2));
        (emu, flows)
    });
    let (res, run_s, cpu_s) = timed_run(|| emu.run(horizon))?;
    Ok(two_rack_run(
        &res, &flows, horizon, setup_s, run_s, cpu_s, tracer,
    ))
}

fn shorts2(seed: u64, horizon: SimTime, tracer: &Tracer) -> io::Result<Run> {
    let ((emu, flows), setup_s) = set_up(|| {
        let net = two_rack_net(seed);
        let flows = shorts2_schedule(&mut DetRng::new(seed).fork(SHORTS_STREAM_LABEL));
        let specs = flows.iter().map(|f| FlowSpec { start: f.start }).collect();
        let (fnet, fflows, tr) = (net.clone(), flows.clone(), tracer.clone());
        let factory: TimedEndpointFactory = Box::new(move |i, now| {
            let (s, r) = endpoints(&fnet, i, &fflows[i], now);
            (tr.wrap(s), tr.wrap(r))
        });
        (Emulator::new_staggered(net, specs, factory), flows)
    });
    let (res, run_s, cpu_s) = timed_run(|| emu.run(horizon))?;
    Ok(two_rack_run(
        &res, &flows, horizon, setup_s, run_s, cpu_s, tracer,
    ))
}

fn two_rack_run(
    res: &RunResult,
    flows: &[Flow],
    horizon: SimTime,
    setup_s: f64,
    run_s: f64,
    cpu_s: f64,
    tracer: &Tracer,
) -> Run {
    let mut acc = Flows::default();
    let mut fcts_ns = Vec::new();
    let mut bulk_bytes = 0u64;
    for (i, f) in flows.iter().enumerate() {
        if f.start >= horizon {
            continue;
        }
        acc.count(
            f.bytes,
            res.completions[i].is_some(),
            res.conn_errors[i].is_some(),
            res.receiver_stats[i].bytes_delivered,
        );
        if let Some(fct) = res.fct(i).filter(|_| f.finite()) {
            fcts_ns.push(fct.as_nanos());
        }
        if !f.finite() {
            bulk_bytes += res.receiver_stats[i].bytes_delivered;
        }
    }
    fcts_ns.sort_unstable();
    Run {
        setup_s,
        run_s,
        cpu_s,
        workers: 1,
        digest: res.stats_digest(),
        events: res.events,
        flows: acc,
        fcts_ns,
        goodput_gbps: ratio(bulk_bytes as f64 * 8.0, res.duration.as_nanos() as f64),
        tcp: TcpTotals::of(res.sender_stats.iter().chain(&res.receiver_stats)),
        voq_drops: res.drops_ab + res.drops_ba,
        ce_marks: res.ce_marks_ab,
        peak_imbalance: 1.0,
        transport: tracer.totals(),
    }
}

// ---------------------------------------------------------------------------
// Sharded fabric
// ---------------------------------------------------------------------------

const FABRIC16_RACKS: usize = 16;

/// Every rack sends at strides 1, 2 and 3: 48 flows, each rack hosting
/// three senders and three receivers.
fn fabric16_flows() -> Vec<PairFlow> {
    (1..=3)
        .flat_map(|stride| {
            (0..FABRIC16_RACKS).map(move |r| PairFlow {
                src: r,
                dst: (r + stride) % FABRIC16_RACKS,
            })
        })
        .collect()
}

fn fabric16(seed: u64, horizon: SimTime, workers: usize, tracer: &Tracer) -> io::Result<Run> {
    let (emu, setup_s) = set_up(|| {
        let net = MultiRackConfig {
            racks: FABRIC16_RACKS,
            seed,
            ..MultiRackConfig::paper_8rack()
        };
        ShardedEmulator::new(ShardConfig::clean(net), fabric16_flows(), |i, _| {
            let cfg = TdtcpConfig::default();
            let template = Cubic::new(CcConfig::default());
            let id = FlowId(i as u32);
            (
                tracer.wrap_send(Box::new(TdtcpConnection::connect(
                    id,
                    cfg.clone(),
                    &template,
                    SimTime::ZERO,
                ))),
                tracer.wrap_send(Box::new(TdtcpConnection::listen(id, cfg, &template))),
            )
        })
    });
    let (res, run_s, cpu_s) = timed_run(|| emu.run(horizon, workers))?;
    Ok(sharded_run(&res, setup_s, run_s, cpu_s, workers, tracer))
}

fn sharded_run(
    res: &ShardResult,
    setup_s: f64,
    run_s: f64,
    cpu_s: f64,
    workers: usize,
    tracer: &Tracer,
) -> Run {
    let mut acc = Flows::default();
    for ((done, error), rx) in res
        .completions
        .iter()
        .zip(&res.sender_errors)
        .zip(&res.receiver_stats)
    {
        acc.count(u64::MAX, done.is_some(), *error, rx.bytes_delivered);
    }
    let bytes: u64 = res.receiver_stats.iter().map(|s| s.bytes_delivered).sum();
    Run {
        setup_s,
        run_s,
        cpu_s,
        workers,
        digest: res.stats_digest(),
        events: res.events,
        flows: acc,
        fcts_ns: Vec::new(),
        goodput_gbps: ratio(bytes as f64 * 8.0, res.duration.as_nanos() as f64),
        tcp: TcpTotals::of(res.sender_stats.iter().chain(&res.receiver_stats)),
        voq_drops: res.drops,
        ce_marks: res.ce_marks,
        peak_imbalance: res.peak_imbalance(),
        transport: tracer.totals(),
    }
}
