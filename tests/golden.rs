//! Golden digests: pinned `stats_digest` values for a grid of runs that
//! covers every transport variant and every TDTCP design switch, clean
//! and under each chaos plane.
//!
//! `tests/determinism.rs` proves replay (the same run twice gives the same
//! digest) but pins no values, so a change that moves simulated behaviour
//! consistently on both runs passes it. This file pins the values
//! themselves: any row that moves means simulated behaviour changed.
//!
//! Two rows also guard the places where plain TCP and TDTCP still differ
//! inside the one engine (see DESIGN.md §5): the Poisson tails row moves
//! if either flavour changes whether a SACK-only ACK resets the RTO
//! backoff, and the reTCP rows (plain side) and the notification-loss row
//! (TDTCP side) move if either changes whether a fully SACKed queue
//! returns the CA state from Disorder to Open.
//!
//! On a deliberate behaviour change, re-pin with the table the failing
//! test prints, and say in the commit which rows moved and why.

use bench::tails::{run_tails, Population, TailSpec};
use bench::{Variant, Workload, ALL_VARIANTS};
use rdcn::{Emulator, NetConfig};
use simcore::{SimDuration, SimTime};
use tcp::cc::{CcConfig, Cubic};
use tcp::{FlowId, Transport};
use tdtcp::{TdtcpConfig, TdtcpConnection};

/// Horizon of every emulator row.
fn horizon() -> SimTime {
    SimTime::from_millis(20)
}

fn busy_impair_plan() -> rdcn::ImpairPlan {
    rdcn::ImpairPlan {
        loss_rate: 0.01,
        reorder_rate: 0.05,
        reorder_delay: SimDuration::from_micros(150),
        duplicate_rate: 0.01,
        corrupt_rate: 0.002,
    }
}

fn busy_clock_plan() -> rdcn::ClockPlan {
    rdcn::ClockPlan {
        offset_bound: SimDuration::from_micros(120),
        drift_ppm: 200.0,
        jitter: SimDuration::from_nanos(500),
        resync_interval: SimDuration::from_millis(1),
        resync_error: SimDuration::from_micros(2),
        ..rdcn::ClockPlan::default()
    }
}

/// Eight bulk flows of `variant` over `net` (the harness's endpoints).
fn bulk(variant: Variant, net: &NetConfig) -> u64 {
    let wl = Workload {
        flows: 8,
        ..Workload::bulk(variant, horizon())
    };
    wl.run(net).stats_digest()
}

/// Eight bulk TDTCP flows with one design switch flipped, as in the
/// `ablation` experiment's table.
fn ablated(tweak: fn(&mut TdtcpConfig), net: &NetConfig) -> u64 {
    let mut net = net.clone();
    Variant::Tdtcp.apply_net_config(&mut net);
    let factory: rdcn::EndpointFactory = Box::new(move |i| {
        let mut cfg = TdtcpConfig::default();
        tweak(&mut cfg);
        let template = Cubic::new(CcConfig::default());
        (
            Box::new(TdtcpConnection::connect(
                FlowId(i as u32),
                cfg.clone(),
                &template,
                SimTime::ZERO,
            )) as Box<dyn Transport>,
            Box::new(TdtcpConnection::listen(FlowId(i as u32), cfg, &template))
                as Box<dyn Transport>,
        )
    });
    Emulator::new(net, 8, factory).run(horizon()).stats_digest()
}

/// Poisson RPCs, half TDTCP and half CUBIC, over four background flows,
/// at the tails suite's 30 ms horizon.
fn poisson_mixed() -> u64 {
    let spec = TailSpec::poisson(
        Population::MixedTdtcpCubic,
        1000,
        20_000,
        SimDuration::from_micros(30),
        4,
    );
    run_tails(
        &spec,
        &NetConfig::paper_baseline(),
        SimTime::from_millis(30),
    )
    .run_digest
}

/// A named design switch flipped on the default TDTCP config.
type Tweak = (&'static str, fn(&mut TdtcpConfig));

/// Every pinned row, in table order.
fn rows() -> Vec<(String, u64)> {
    let clean = NetConfig::paper_baseline();
    let impaired = NetConfig {
        impair: busy_impair_plan(),
        ..NetConfig::paper_baseline()
    };
    let tweaks: [Tweak; 5] = [
        ("full", |_| {}),
        ("no-per-tdn-state", |c| c.per_tdn_state = false),
        ("no-relaxed", |c| c.relaxed_reordering = false),
        ("no-pessimistic-rto", |c| c.pessimistic_rto = false),
        ("no-pacing", |c| c.tcp.pacing = false),
    ];
    let mut jobs: Vec<(String, Box<dyn Fn() -> u64 + Send + Sync>)> = Vec::new();
    for v in ALL_VARIANTS {
        let net = clean.clone();
        jobs.push((
            format!("clean/{}", v.label()),
            Box::new(move || bulk(v, &net)),
        ));
    }
    for v in ALL_VARIANTS {
        let net = impaired.clone();
        jobs.push((
            format!("impair/{}", v.label()),
            Box::new(move || bulk(v, &net)),
        ));
    }
    for (label, tweak) in tweaks {
        let net = impaired.clone();
        jobs.push((
            format!("ablation-impair/{label}"),
            Box::new(move || ablated(tweak, &net)),
        ));
    }
    let lossy = NetConfig {
        faults: rdcn::FaultPlan::notification_loss(0.05),
        ..NetConfig::paper_baseline()
    };
    jobs.push((
        "notify-loss/tdtcp".into(),
        Box::new(move || bulk(Variant::Tdtcp, &lossy)),
    ));
    let skewed = NetConfig {
        clock: busy_clock_plan(),
        ..NetConfig::paper_baseline()
    };
    jobs.push((
        "clock/tdtcp".into(),
        Box::new(move || bulk(Variant::Tdtcp, &skewed)),
    ));
    jobs.push(("tails/poisson-mixed".into(), Box::new(poisson_mixed)));
    simcore::par::par_map(jobs, |_, (name, run)| (name, run()))
}

/// The digests every row gave when pinned. Neither the notification
/// watchdog nor the pessimistic RTO engages in these short runs (the RTO
/// sits on its floor), so `impair/tdtcp`, `ablation-impair/full` and
/// `ablation-impair/no-pessimistic-rto` share a digest.
const GOLDEN: &[(&str, &str)] = &[
    ("clean/retcpdyn", "7727aa7c42a090a6"),
    ("clean/tdtcp", "2fa1758542c18d3b"),
    ("clean/retcp", "fbd1308e685c2a5d"),
    ("clean/dctcp", "8d48aa739f79c6c4"),
    ("clean/cubic", "6752bc53e1df0a8e"),
    ("clean/reno", "0449a6604161df2f"),
    ("clean/mptcp", "a4c9bc88c2be893d"),
    ("impair/retcpdyn", "8193e4289e1fbed8"),
    ("impair/tdtcp", "1fea33cbe9b7f5c1"),
    ("impair/retcp", "534d552aa80e7ea9"),
    ("impair/dctcp", "7c5daeac9077a261"),
    ("impair/cubic", "3fcc8f5b1fb47f79"),
    ("impair/reno", "2546826459b48b52"),
    ("impair/mptcp", "71bad67e60634bdb"),
    ("ablation-impair/full", "1fea33cbe9b7f5c1"),
    ("ablation-impair/no-per-tdn-state", "d121680e4f3d9d21"),
    ("ablation-impair/no-relaxed", "7edc37be49545e35"),
    ("ablation-impair/no-pessimistic-rto", "1fea33cbe9b7f5c1"),
    ("ablation-impair/no-pacing", "c83fabb891aa1108"),
    ("notify-loss/tdtcp", "acd0ed0890c3c439"),
    ("clock/tdtcp", "d03a4429dd4a32dc"),
    ("tails/poisson-mixed", "c030122f586d5362"),
];

#[test]
fn golden_digests_are_unchanged() {
    let got = rows();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", \"{d:016x}\"),\n"))
        .collect();
    let expected: Vec<(String, String)> = GOLDEN
        .iter()
        .map(|(n, d)| (n.to_string(), d.to_string()))
        .collect();
    let actual: Vec<(String, String)> = got
        .iter()
        .map(|(n, d)| (n.clone(), format!("{d:016x}")))
        .collect();
    assert_eq!(
        actual, expected,
        "golden digests moved; this run gave:\n{table}"
    );
}
