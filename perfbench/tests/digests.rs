//! The workloads are the harness's workloads: at seed 1 each reproduces
//! the `stats_digest` the `bench` crate gives for the same run.
//!
//! * `bulk2` — `bench::workload::Workload::bulk(Variant::Tdtcp, 20 ms)`
//!   over `NetConfig::paper_baseline()`.
//! * `shorts2` — `bench::tails::outcome_of` on
//!   `TailSpec::poisson(Population::MixedTdtcpCubic, 1500, 20_000, 100 µs, 4)`
//!   generated from `DetRng::new(1).fork(SHORTS_STREAM_LABEL)`, 20 ms.
//! * `fabric16` — the sharded rows of `bigrun --horizon-ms 10`.
//!
//! A change that moves one of these digests changed simulated behaviour.

use perfbench::timed::Tracer;
use perfbench::workload::Workload;
use simcore::SimTime;

fn digest(w: Workload, horizon_ms: u64, workers: usize, tracer: &Tracer) -> String {
    let run = w
        .run(1, SimTime::from_millis(horizon_ms), workers, tracer)
        .expect("host counters");
    format!("{:016x}", run.digest)
}

#[test]
fn bulk2_matches_the_harness() {
    assert_eq!(
        digest(Workload::Bulk2, 20, 1, &Tracer::off()),
        "0bee97265cb22373"
    );
}

#[test]
fn shorts2_matches_the_harness() {
    assert_eq!(
        digest(Workload::Shorts2, 20, 1, &Tracer::off()),
        "b168265ba8121136"
    );
}

#[test]
fn fabric16_matches_bigrun_at_any_worker_count() {
    for workers in [1, 2, 4] {
        assert_eq!(
            digest(Workload::Fabric16, 10, workers, &Tracer::off()),
            "4a8ddd80c64f3829"
        );
    }
}

#[test]
fn tracing_changes_no_digest_and_counts_every_call() {
    for w in Workload::ALL {
        let tracer = Tracer::on();
        let traced = w
            .run(1, SimTime::from_millis(5), 2, &tracer)
            .expect("host counters");
        let plain = w
            .run(1, SimTime::from_millis(5), 2, &Tracer::off())
            .expect("host counters");
        assert_eq!(traced.digest, plain.digest, "{}", w.name());
        let t = traced.transport.expect("traced run has totals");
        assert!(t.calls.iter().all(|&c| c > 0), "{}: {t:?}", w.name());
        assert!(
            t.poll_hits > 0 && t.poll_hits <= t.calls[1],
            "{}: {t:?}",
            w.name()
        );
        assert!(plain.transport.is_none());
    }
}
