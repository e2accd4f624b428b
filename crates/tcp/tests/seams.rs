//! The two places where plain TCP and TDTCP still differ inside the one
//! engine (DESIGN.md §5). Each test drives a plain `tcp::Connection` and a
//! `tdtcp::TdtcpConnection` through the same segments and checks that
//! each keeps its own side, so collapsing a seam onto either side fails a
//! named test here, not only a golden digest.

use simcore::{SimDuration, SimTime};
use tcp::cc::{CcConfig, Cubic};
use tcp::{CaState, Config, Connection, Direction, FlowId, SackBlocks, Segment, SeqNum, TdHooks};
use tdtcp::{TdtcpConfig, TdtcpConnection};

const MSS: u32 = 1000;

fn t(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

fn cfg() -> Config {
    Config {
        mss: MSS,
        pacing: false,
        tlp: false, // keep the RTO the only timer
        ..Config::default()
    }
}

fn cubic() -> Cubic {
    Cubic::new(CcConfig {
        mss: MSS,
        init_cwnd_pkts: 10,
        max_cwnd: 1 << 24,
    })
}

fn plain() -> Connection {
    Connection::connect(FlowId(1), cfg(), Box::new(cubic()), t(0))
}

fn tdtcp() -> TdtcpConnection {
    let c = TdtcpConfig {
        tcp: cfg(),
        ..TdtcpConfig::default()
    };
    TdtcpConnection::connect(FlowId(1), c, &cubic(), t(0))
}

/// Complete the handshake (echoing any TD_CAPABLE offer) and send `n`
/// full segments starting at sequence 1.
fn establish_and_send<H: TdHooks>(c: &mut Connection<H>, n: usize) {
    let syn = c.poll_send(t(0)).expect("SYN");
    let mut synack = Segment::new(FlowId(1), Direction::AckPath);
    synack.flags.syn = true;
    synack.flags.ack = true;
    synack.ack = SeqNum(1);
    synack.wnd = 1 << 20;
    synack.td_capable = syn.td_capable;
    c.handle_segment(t(100), &synack);
    assert!(c.is_established());
    c.poll_send(t(100)).expect("handshake ACK");
    for _ in 0..n {
        assert!(c.poll_send(t(200)).expect("cwnd open").has_payload());
    }
}

/// A duplicate ACK at sequence 1 carrying `blocks` as SACK.
fn sack_only(blocks: &[(u32, u32)]) -> Segment {
    let mut s = Segment::new(FlowId(1), Direction::AckPath);
    s.flags.ack = true;
    s.ack = SeqNum(1);
    s.wnd = 1 << 20;
    let mut sack = SackBlocks::EMPTY;
    for &(l, r) in blocks {
        sack.push(SeqNum(l), SeqNum(r));
    }
    s.sack = sack;
    s
}

/// RTO-stall episodes after: an RTO, a SACK-only ACK, a second RTO. The
/// second firing opens a new episode only if the SACK-only ACK restarted
/// the backoff.
fn stalls_across_sack_only_ack<H: TdHooks>(c: &mut Connection<H>) -> u64 {
    establish_and_send(c, 3);
    let first = c.next_timer().expect("RTO armed");
    c.handle_timer(first);
    assert_eq!(c.stats().rto_stalls, 1);
    while c.poll_send(first).is_some() {}
    let now = first + SimDuration::from_micros(10);
    c.handle_segment(now, &sack_only(&[(1001, 2001)]));
    let second = c.next_timer().expect("RTO re-armed");
    c.handle_timer(second);
    assert_eq!(c.stats().rtos, 2);
    c.stats().rto_stalls
}

#[test]
fn sack_only_ack_restarts_rto_backoff_for_plain_tcp_only() {
    assert_eq!(
        stalls_across_sack_only_ack(&mut plain()),
        2,
        "plain TCP: the SACK-only ACK restarts the backoff, so the next RTO opens a new stall"
    );
    assert_eq!(
        stalls_across_sack_only_ack(&mut tdtcp()),
        1,
        "TDTCP: the SACK-only ACK keeps the backoff, so the next RTO extends the stall"
    );
}

/// The CA state after a hole is SACKed around (Disorder) and then the
/// hole itself is SACKed, leaving every outstanding segment SACKed.
fn ca_after_everything_sacked<H: TdHooks>(c: &mut Connection<H>) -> CaState {
    establish_and_send(c, 2);
    c.handle_segment(t(300), &sack_only(&[(1001, 2001)]));
    assert_eq!(c.ca_state(), CaState::Disorder);
    c.handle_segment(t(310), &sack_only(&[(1, 2001)]));
    c.ca_state()
}

#[test]
fn fully_sacked_queue_reopens_disorder_for_plain_tcp_only() {
    assert_eq!(ca_after_everything_sacked(&mut plain()), CaState::Open);
    assert_eq!(ca_after_everything_sacked(&mut tdtcp()), CaState::Disorder);
}
