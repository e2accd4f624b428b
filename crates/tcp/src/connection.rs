//! The TCP state machine: handshake, bulk data transfer with SACK loss
//! recovery, RACK-style time-based loss marking, tail-loss probes, RTO
//! with backoff, zero-window persist probes, ECN feedback, and pluggable
//! congestion control.
//!
//! The engine is poll-based in the smoltcp style: the owner feeds it
//! segments and timer expirations and drains outgoing segments with
//! [`Connection::poll_send`]; nothing inside blocks or knows about wall
//! clocks.
//!
//! It is the only TCP state machine in the workspace. Path state (CCA,
//! RTT estimator, CA state, recovery point) lives in a `Vec` of
//! [`TdnState`] sets over one sequence space, one retransmission queue and
//! one reassembler. Plain TCP and each MPTCP subflow use one set; TDTCP
//! (the `tdtcp` crate) uses one set per TDN and plugs its own behaviour in
//! through [`TdHooks`]. With one set and no TDN tags on the wire, every
//! per-set rule below reduces to the single-path one. Two rules still key
//! on whether the connection was built as TDTCP, because the published
//! outputs were produced with them (DESIGN.md §5):
//!
//! * a SACK-only ACK restarts the RTO backoff for plain TCP only;
//! * a fully SACKed queue returns the CA state from Disorder to Open for
//!   plain TCP only.

use crate::ca::CaState;
use crate::cc::dctcp::DctcpReceiver;
use crate::cc::{AckEvent, CongestionControl};
use crate::recv::Reassembler;
use crate::rtt::{RttConfig, RttEstimator};
use crate::rtx::{RtxQueue, TxSeg};
use crate::segment::{Direction, FlowId, Segment};
use crate::seq::SeqNum;
use crate::stats::ConnStats;
use crate::td::{NoTd, TdHooks};
use crate::tdn_state::TdnState;
use crate::transport::{ConnError, Transport};
use simcore::{SimDuration, SimTime};
use std::collections::VecDeque;
use wire::{Ecn, TdnId};

/// Connection configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Maximum segment size (payload bytes per segment).
    pub mss: u32,
    /// Receive buffer (advertised window ceiling).
    pub recv_buf: u32,
    /// RTT estimator knobs.
    pub rtt: RttConfig,
    /// Duplicate-ACK / SACKed-segment threshold for fast retransmit.
    pub dupack_thresh: u32,
    /// Application bytes to send (`u64::MAX` = unbounded bulk source).
    pub bytes_to_send: u64,
    /// Negotiate and use ECN (set ECT(0) on data, echo CE as ECE).
    pub ecn: bool,
    /// Enable tail loss probes.
    pub tlp: bool,
    /// Pace data segments at cwnd/min_rtt instead of bursting.
    pub pacing: bool,
    /// Initial sequence number (fixed for determinism).
    pub isn: u32,
    /// Give up after this many consecutive RTO fires (or persist probes)
    /// without progress, aborting the connection with a [`ConnError`]
    /// instead of retrying forever (the `tcp_retries2` analogue). With
    /// exponential backoff capped at shift 12, 15 retries against the
    /// 10 ms RTO floor is tens of seconds of simulated silence.
    pub max_retries: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            mss: 8948,
            recv_buf: 4 << 20,
            rtt: RttConfig::default(),
            dupack_thresh: 3,
            bytes_to_send: u64::MAX,
            ecn: false,
            tlp: true,
            pacing: false,
            isn: 0,
            max_retries: 15,
        }
    }
}

/// TCP connection state (simplified close path: the data sender half-closes
/// with FIN; the pure receiver ACKs it — no TIME_WAIT modelling, which no
/// experiment in the paper depends on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// No connection.
    Closed,
    /// SYN sent, awaiting SYN-ACK.
    SynSent,
    /// SYN received, SYN-ACK sent.
    SynRcvd,
    /// Data flows.
    Established,
    /// FIN sent, awaiting its ACK.
    FinWait,
    /// Transfer complete.
    Done,
}

/// A TCP connection (either endpoint). `H` is the TDTCP seam; plain TCP
/// uses the default, [`NoTd`].
pub struct Connection<H: TdHooks = NoTd> {
    cfg: Config,
    flow: FlowId,
    /// Direction our data segments travel (initiator sends on `DataPath`).
    data_dir: Direction,
    state: State,
    /// Path state sets, indexed by TDN (one set for plain TCP).
    tdns: Vec<TdnState>,
    hooks: H,

    // --- send half (one sequence space over all sets, §3.3) ---
    snd_una: SeqNum,
    snd_nxt: SeqNum,
    rtx: RtxQueue,
    peer_wnd: u32,
    bytes_unsent: u64,
    fin_acked: bool,
    dupacks: u32,

    rto_deadline: Option<SimTime>,
    tlp_deadline: Option<SimTime>,
    rto_backoff: u32,
    /// When the RTO timer was last (re)armed — the last send/ACK activity
    /// on the retransmission path. The gap to a subsequent RTO firing is
    /// the dead air accounted to `ConnStats::stall_ns`.
    rto_armed_at: SimTime,
    /// Pacing release time for the next data segment (`ZERO` = disarmed).
    next_paced_at: SimTime,
    /// Zero-window persist timer: armed when the peer's window is closed,
    /// nothing is outstanding (so no RTO is armed), and data waits.
    persist_deadline: Option<SimTime>,
    persist_backoff: u32,
    /// Terminal error, if the connection aborted.
    error: Option<ConnError>,

    // --- receive half ---
    rx: Option<Reassembler>,
    peer_fin: Option<SeqNum>,
    dctcp_rx: DctcpReceiver,
    /// Last circuit mark observed on data, echoed on ACKs (reTCP support).
    echo_circuit: bool,

    pending: VecDeque<Segment>,
    stats: ConnStats,
    established_at: Option<SimTime>,
}

impl Connection {
    /// Create the initiating endpoint and queue its SYN.
    pub fn connect(
        flow: FlowId,
        cfg: Config,
        cc: Box<dyn CongestionControl>,
        now: SimTime,
    ) -> Self {
        Connection::connect_with(flow, cfg, [cc], NoTd, now)
    }

    /// Create the passive endpoint (bulk sink).
    pub fn listen(flow: FlowId, cfg: Config, cc: Box<dyn CongestionControl>) -> Self {
        Connection::listen_with(flow, cfg, [cc], NoTd)
    }
}

/// Index of the state set `tdn` maps to among `n` sets. (`#[inline]`
/// because the generic engine is compiled in downstream crates.)
#[inline]
fn set_index(collapsed: bool, n: usize, tdn: TdnId) -> usize {
    if collapsed {
        0
    } else {
        tdn.index().min(n - 1)
    }
}

#[inline]
fn seg_payload(s: &TxSeg) -> u32 {
    s.len - u32::from(s.is_syn) - u32::from(s.is_fin)
}

impl<H: TdHooks> Connection<H> {
    /// Create the initiating endpoint with one state set per CCA in `ccs`
    /// and `hooks` for the TDTCP seam, and queue its SYN.
    ///
    /// # Panics
    /// Panics if `ccs` is empty.
    pub fn connect_with(
        flow: FlowId,
        cfg: Config,
        ccs: impl IntoIterator<Item = Box<dyn CongestionControl>>,
        hooks: H,
        now: SimTime,
    ) -> Self {
        let mut c = Self::new_endpoint(flow, Direction::DataPath, cfg, ccs, hooks);
        c.queue_syn(now, None, c.cfg.ecn, true);
        c.state = State::SynSent;
        c
    }

    /// Create the passive endpoint (bulk sink) with one state set per CCA
    /// in `ccs` and `hooks` for the TDTCP seam.
    ///
    /// # Panics
    /// Panics if `ccs` is empty.
    pub fn listen_with(
        flow: FlowId,
        mut cfg: Config,
        ccs: impl IntoIterator<Item = Box<dyn CongestionControl>>,
        hooks: H,
    ) -> Self {
        cfg.bytes_to_send = 0; // pure receiver
        Self::new_endpoint(flow, Direction::AckPath, cfg, ccs, hooks)
    }

    fn new_endpoint(
        flow: FlowId,
        data_dir: Direction,
        cfg: Config,
        ccs: impl IntoIterator<Item = Box<dyn CongestionControl>>,
        hooks: H,
    ) -> Self {
        let rtt = RttEstimator::new(cfg.rtt);
        let tdns: Vec<TdnState> = ccs.into_iter().map(|cc| TdnState::new(cc, rtt)).collect();
        assert!(!tdns.is_empty(), "at least one state set required");
        let isn = SeqNum(cfg.isn);
        Connection {
            bytes_unsent: cfg.bytes_to_send,
            snd_una: isn,
            snd_nxt: isn,
            cfg,
            flow,
            data_dir,
            state: State::Closed,
            tdns,
            hooks,
            rtx: RtxQueue::new(),
            peer_wnd: u32::MAX,
            fin_acked: false,
            dupacks: 0,
            rto_deadline: None,
            tlp_deadline: None,
            rto_backoff: 0,
            rto_armed_at: SimTime::ZERO,
            next_paced_at: SimTime::ZERO,
            persist_deadline: None,
            persist_backoff: 0,
            error: None,
            rx: None,
            peer_fin: None,
            dctcp_rx: DctcpReceiver::new(),
            echo_circuit: false,
            pending: VecDeque::new(),
            stats: ConnStats::new(),
            established_at: None,
        }
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// Current state.
    pub fn state(&self) -> State {
        self.state
    }

    /// The active state set's congestion window after the hooks' cap —
    /// the window actually gating transmission.
    pub fn cwnd(&self) -> u32 {
        self.cur().cc.cwnd().min(self.hooks.cwnd_cap())
    }

    /// The active state set's congestion-avoidance state.
    pub fn ca_state(&self) -> CaState {
        self.cur().ca
    }

    /// The active state set's RTT estimator (read-only).
    pub fn rtt(&self) -> &RttEstimator {
        &self.cur().rtt
    }

    /// Bytes of sequence space in flight over all sets (estimate, RFC 6675
    /// pipe).
    pub fn flight_bytes(&self) -> u32 {
        self.rtx.counts().pipe().saturating_mul(self.cfg.mss)
    }

    /// Highest cumulative byte offset acknowledged (relative to the ISN),
    /// excluding the SYN octet — i.e. application bytes confirmed
    /// delivered. This is the y-axis of the paper's sequence graphs.
    pub fn acked_offset(&self) -> u64 {
        self.stats.bytes_acked
    }

    /// When the handshake completed, if it has.
    pub fn established_at(&self) -> Option<SimTime> {
        self.established_at
    }

    /// The terminal error this connection aborted with, if any.
    pub fn conn_error(&self) -> Option<ConnError> {
        self.error
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// Whether the handshake completed and the connection is not done.
    pub fn is_established(&self) -> bool {
        matches!(self.state, State::Established | State::FinWait)
    }

    /// Whether the transfer completed (or aborted).
    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// Every state set's congestion window, in bytes.
    pub fn cwnd_report(&self) -> Vec<u32> {
        self.tdns.iter().map(|t| t.cc.cwnd()).collect()
    }

    /// Append `n` application bytes to the send stream. Used by MPTCP's
    /// scheduler, which feeds each subflow chunk by chunk instead of
    /// configuring a fixed transfer size.
    pub fn enqueue_app_bytes(&mut self, n: u64) {
        self.bytes_unsent = self.bytes_unsent.saturating_add(n);
    }

    /// Application bytes accepted but not yet transmitted for the first
    /// time.
    pub fn unsent_bytes(&self) -> u64 {
        self.bytes_unsent
    }

    /// Sequence number of the next new byte to be sent.
    pub fn snd_nxt(&self) -> SeqNum {
        self.snd_nxt
    }

    /// Oldest unacknowledged sequence number.
    pub fn snd_una(&self) -> SeqNum {
        self.snd_una
    }

    /// The TDN this endpoint currently believes is active (always TDN 0
    /// for plain TCP).
    pub fn current_tdn(&self) -> TdnId {
        self.hooks.current()
    }

    /// Read the state set `tdn` maps to.
    pub fn tdn_state(&self, tdn: TdnId) -> &TdnState {
        &self.tdns[self.set_of(tdn)]
    }

    /// Number of state sets allocated.
    pub fn num_tdn_states(&self) -> usize {
        self.tdns.len()
    }

    /// Pipe (bytes in flight) attributed to the set `tdn` maps to, derived
    /// from the shared retransmission queue ("specific TDN", §4.3).
    pub fn pipe_bytes(&self, tdn: TdnId) -> u32 {
        self.set_pipe(self.set_of(tdn))
    }

    /// Total outstanding packets over all sets ("all TDNs" accounting).
    pub fn total_packets_out(&self) -> u32 {
        self.rtx.counts().packets_out
    }

    /// The TDTCP seam's state.
    pub fn hooks(&self) -> &H {
        &self.hooks
    }

    /// The TDTCP seam's state, mutably.
    pub fn hooks_mut(&mut self) -> &mut H {
        &mut self.hooks
    }

    fn set_of(&self, tdn: TdnId) -> usize {
        set_index(self.hooks.collapsed(), self.tdns.len(), tdn)
    }

    fn cur(&self) -> &TdnState {
        &self.tdns[self.set_of(self.hooks.current())]
    }

    fn set_pipe(&self, idx: usize) -> u32 {
        let counts = if self.tdns.len() == 1 {
            self.rtx.counts()
        } else {
            self.rtx.counts_tdn(|t| self.set_of(t) == idx)
        };
        counts.pipe().saturating_mul(self.cfg.mss)
    }

    /// Built as TDTCP: selects TDTCP's side of the two remaining
    /// divergences (module docs).
    fn is_td(&self) -> bool {
        self.hooks.offer().is_some()
    }

    /// Smoothed RTT of the slowest set (§4.4's pessimistic assumption).
    fn slowest_srtt(&self) -> Option<SimDuration> {
        self.tdns.iter().filter_map(|t| t.rtt.srtt()).max()
    }

    /// Retransmission timeout for a segment accounted to `tdn`.
    fn rto_for(&self, tdn: TdnId) -> SimDuration {
        let st = &self.tdns[self.set_of(tdn)];
        self.hooks
            .rto(st, &self.tdns)
            .unwrap_or_else(|| st.rtt.rto())
    }

    /// When the handshake completed, while established and not finished.
    fn live_since(&self) -> Option<SimTime> {
        match self.state {
            State::Established | State::FinWait => self.established_at,
            _ => None,
        }
    }

    /// A ToR notification that `tdn` is active, with the ToR's monotone
    /// generation `gen` (§3.2). The hooks decide whether it applies (plain
    /// TCP ignores it); an applied notification naming a TDN without a
    /// state set allocates fresh sets up to it (§4.2).
    pub fn on_notification_gen(&mut self, now: SimTime, tdn: TdnId, gen: u64) {
        if !self.hooks.on_notification(now, tdn, gen, &mut self.stats) {
            return;
        }
        while tdn.index() >= self.tdns.len() && self.tdns.len() < TdnId::MAX_TDNS {
            let fresh = TdnState::new(self.tdns[0].cc.clone_box(), RttEstimator::new(self.cfg.rtt));
            self.tdns.push(fresh);
        }
    }

    // ------------------------------------------------------------------
    // segment input
    // ------------------------------------------------------------------

    /// Queue our SYN or, acking `ack`, our SYN-ACK: tracked like data and
    /// always accounted to TDN 0 (Appendix A.2). `ecn` sets up ECN (RFC
    /// 3168) and `td` carries the TD_CAPABLE offer.
    fn queue_syn(&mut self, now: SimTime, ack: Option<SeqNum>, ecn: bool, td: bool) {
        let mut seg = Segment::new(self.flow, self.data_dir);
        seg.seq = self.snd_nxt;
        seg.flags.syn = true;
        seg.flags.ack = ack.is_some();
        seg.ack = ack.unwrap_or(SeqNum::ZERO);
        seg.flags.ece = ecn;
        seg.flags.cwr = ecn && ack.is_none();
        seg.wnd = self.cfg.recv_buf;
        seg.td_capable = self.hooks.offer().filter(|_| td);
        self.track(now, 1, TdnId::ZERO, true, false);
        self.pending.push_back(seg);
        self.arm_rto(now);
    }

    /// Put `len` octets at `snd_nxt` on the retransmission queue,
    /// accounted to `tdn`, and advance `snd_nxt`.
    fn track(&mut self, now: SimTime, len: u32, tdn: TdnId, is_syn: bool, is_fin: bool) {
        self.rtx.push(TxSeg {
            seq: self.snd_nxt,
            len,
            is_syn,
            is_fin,
            tdn,
            tx_time: now,
            first_tx: now,
            sacked: false,
            lost: false,
            retx_in_flight: false,
            retx_count: 0,
        });
        self.snd_nxt += len;
    }

    /// Feed an arriving segment.
    pub fn handle_segment(&mut self, now: SimTime, seg: &Segment) {
        self.stats.segs_received += 1;
        // End-to-end payload checksum: a damaged segment is discarded
        // whole (headers included — a real NIC cannot trust any of it),
        // exactly as if the network had dropped it, but counted apart
        // from drops so corruption is observable.
        if seg.payload_is_corrupt() {
            self.stats.corrupt_rx += 1;
            return;
        }
        if seg.flags.rst {
            self.state = State::Done;
            self.pending.clear();
            return;
        }
        match self.state {
            State::Closed => {
                if seg.flags.syn && !seg.flags.ack {
                    self.on_syn(now, seg);
                }
            }
            State::SynSent => {
                if seg.flags.syn && seg.flags.ack {
                    self.on_syn_ack(now, seg);
                }
            }
            State::SynRcvd => {
                if seg.flags.ack {
                    self.process_ack(now, seg);
                    if self.snd_una.after(SeqNum(self.cfg.isn)) {
                        self.state = State::Established;
                        self.established_at = Some(now);
                    }
                }
                if seg.has_payload() {
                    // The handshake ACK can carry data.
                    self.on_data(now, seg);
                }
            }
            State::Established | State::FinWait => {
                if seg.flags.ack {
                    self.process_ack(now, seg);
                }
                if seg.has_payload() || seg.flags.fin {
                    self.on_data(now, seg);
                }
                self.maybe_finish();
            }
            State::Done => {
                // TIME-WAIT duty: a retransmitted FIN means the peer
                // never got our final ACK (it was lost or corrupted on
                // the wire). Re-ACK it, or the peer retries its FIN
                // until its retransmission limit — a silent stall from
                // the application's point of view.
                if seg.flags.fin && self.rx.is_some() {
                    self.queue_ack(false);
                }
            }
        }
    }

    fn on_syn(&mut self, now: SimTime, seg: &Segment) {
        let td = self.hooks.negotiate(seg.td_capable);
        self.rx = Some(Reassembler::new(seg.seq + 1, self.cfg.recv_buf));
        self.peer_wnd = seg.wnd;
        // SYN-ACK, accepting ECN setup and echoing TD_CAPABLE only when
        // negotiation succeeded.
        let ecn = self.cfg.ecn && seg.flags.ece && seg.flags.cwr;
        self.queue_syn(now, Some(seg.seq + 1), ecn, td);
        self.state = State::SynRcvd;
    }

    fn on_syn_ack(&mut self, now: SimTime, seg: &Segment) {
        self.hooks.negotiate(seg.td_capable);
        self.rx = Some(Reassembler::new(seg.seq + 1, self.cfg.recv_buf));
        self.peer_wnd = seg.wnd;
        self.process_ack(now, seg);
        self.state = State::Established;
        self.established_at = Some(now);
        // Complete the handshake with a bare ACK.
        let mut ack = Segment::new(self.flow, self.data_dir);
        ack.seq = self.snd_nxt;
        ack.ack = self.rx.as_ref().expect("created above").rcv_nxt();
        ack.flags.ack = true;
        ack.wnd = self.cfg.recv_buf;
        self.tag_ack(&mut ack);
        self.pending.push_back(ack);
        self.stats.acks_sent += 1;
    }

    fn on_data(&mut self, _now: SimTime, seg: &Segment) {
        let Some(rx) = self.rx.as_mut() else { return };
        if seg.has_payload() {
            let outcome = rx.on_data(seg.seq, seg.len);
            self.stats.bytes_delivered += u64::from(outcome.delivered);
            if outcome.duplicate {
                self.stats.dup_segs_received += 1;
                self.stats.spurious_retransmits += 1;
            }
            if seg.ecn == Ecn::Ce {
                self.stats.ce_received += 1;
            }
        }
        if seg.flags.fin {
            self.peer_fin = Some(seg.seq + (seg.seq_space() - 1));
        }
        // Consume the FIN octet once all data before it has arrived.
        if let Some(fin) = self.peer_fin {
            let rx = self.rx.as_mut().expect("checked above");
            if rx.rcv_nxt() == fin {
                rx.advance(1);
                self.peer_fin = None;
                if self.state == State::Established && self.cfg.bytes_to_send == 0 {
                    self.state = State::Done;
                }
            }
        }
        let ece = self.cfg.ecn && self.dctcp_rx.on_data(seg.seq, seg.ecn == Ecn::Ce);
        self.echo_circuit = seg.circuit_mark;
        self.queue_ack(ece);
    }

    /// Queue a pure ACK reflecting current receive state.
    fn queue_ack(&mut self, ece: bool) {
        let rx = self.rx.as_ref().expect("established");
        let mut ack = Segment::new(self.flow, self.data_dir);
        ack.seq = self.snd_nxt;
        ack.ack = rx.rcv_nxt();
        ack.flags.ack = true;
        ack.flags.ece = ece;
        ack.wnd = rx.window();
        ack.sack = rx.sack_blocks();
        ack.circuit_mark = self.echo_circuit;
        self.tag_ack(&mut ack);
        self.pending.push_back(ack);
        self.stats.acks_sent += 1;
    }

    /// TD_DATA_ACK with the A flag: the TDN this ACK rides on.
    fn tag_ack(&self, ack: &mut Segment) {
        if self.hooks.tags() {
            ack.ack_tdn = Some(self.hooks.current());
        }
    }

    // ------------------------------------------------------------------
    // ACK processing / loss detection (§4.3 semantics throughout)
    // ------------------------------------------------------------------

    fn process_ack(&mut self, now: SimTime, seg: &Segment) {
        // "All TDNs": an ACK with nothing outstanding is stale.
        if self.rtx.counts().packets_out == 0 && seg.ack == self.snd_una && seg.sack.is_empty() {
            // Still a window update: a zero-window receiver reopening
            // its window sends exactly this "stale" ACK shape, and it
            // must cancel (or re-pace) the persist timer.
            self.peer_wnd = seg.wnd;
            self.maybe_arm_persist(now);
            return;
        }
        if seg.ack.after(self.snd_nxt) {
            return; // acks data never sent; drop
        }

        let old_una = self.snd_una;
        let res = self.rtx.cum_ack(seg.ack);
        if seg.ack.after(self.snd_una) {
            self.snd_una = seg.ack;
        }
        let progress = seg.ack.after(old_una);

        // §4.4 RTT sampling: Karn + same-set filter. The newest acked
        // never-retransmitted segment per set yields one sample, but only
        // when the ACK returned on that same set (type-1/2); an untagged
        // ACK (plain TCP, or a downgraded peer) is accepted.
        let mut sampled = [false; 8];
        let samplable = self.tdns.len().min(sampled.len());
        for s in res.acked.iter().rev() {
            if sampled[..samplable].iter().all(|&b| b) {
                break; // every remaining segment would be skipped
            }
            if s.ever_retransmitted() {
                continue;
            }
            let idx = self.set_of(s.tdn);
            if sampled.get(idx).copied().unwrap_or(true) {
                continue;
            }
            match seg.ack_tdn {
                Some(at) if self.set_of(at) != idx => {
                    // Type-3 sample: data and ACK crossed TDNs — discard.
                    self.stats.cross_tdn_rtt_discards += 1;
                }
                _ => {
                    self.tdns[idx].rtt.on_sample_between(s.tx_time, now);
                    sampled[idx] = true;
                }
            }
        }

        // A mid-segment cumulative ACK trims without removing a segment.
        let partial = progress && res.acked.is_empty() && res.acked_space > 0;
        let acked_payload = if partial {
            res.acked_space
        } else {
            res.acked.iter().map(seg_payload).sum()
        };
        self.stats.bytes_acked += u64::from(acked_payload);
        if res.acked.iter().any(|s| s.is_fin) {
            self.fin_acked = true;
        }

        let newly_sacked = self.rtx.mark_sacked(seg.sack.iter());

        if !progress
            && !self.rtx.is_empty()
            && (seg.has_payload() || !newly_sacked.is_empty() || seg.sack.is_empty())
        {
            self.dupacks += 1;
        } else if progress {
            self.dupacks = 0;
        }

        self.detect_losses(now, seg, &newly_sacked);

        // Per-set recovery exit: a set leaves Recovery/Loss once snd_una
        // passes its recovery point (Fig. 4's independent machines).
        for st in self.tdns.iter_mut() {
            if st
                .recovery_point
                .is_some_and(|rp| self.snd_una.after_eq(rp))
            {
                st.recovery_point = None;
                st.ca = CaState::Open;
                st.cc.on_exit_recovery(now);
            }
        }
        let td = self.is_td();
        // Plain TCP also leaves Disorder once every outstanding segment is
        // SACKed.
        let cur = self.set_of(self.hooks.current());
        if !td && self.tdns[cur].ca == CaState::Disorder && self.rtx.all_sacked() {
            self.tdns[cur].ca = CaState::Open;
        }
        // Progress restarts the RTO backoff; for plain TCP, so does a
        // SACK-only ACK.
        if progress || (!td && !newly_sacked.is_empty()) {
            self.rto_backoff = 0;
        }

        if seg.flags.ece {
            self.stats.ece_received += 1;
        }

        // "Specific TDN": each set's CCA sees only the bytes acked for
        // data it carried (CCAs ignore ACKs that acknowledge no payload).
        for idx in 0..self.tdns.len() {
            let bytes = if self.tdns.len() == 1 {
                acked_payload
            } else if partial {
                if idx == cur {
                    res.acked_space
                } else {
                    0
                }
            } else {
                res.acked
                    .iter()
                    .filter(|s| self.set_of(s.tdn) == idx)
                    .map(seg_payload)
                    .sum()
            };
            if bytes == 0 {
                continue;
            }
            let flight = self.set_pipe(idx);
            let st = &mut self.tdns[idx];
            let ev = AckEvent {
                now,
                bytes_acked: bytes,
                rtt_sample: st.rtt.latest(),
                srtt: st.rtt.srtt(),
                flight_size: flight,
                in_recovery: st.in_recovery(),
                ecn_bytes: if seg.flags.ece { bytes } else { 0 },
            };
            st.cc.on_ack(&ev);
        }
        // reTCP: the echoed circuit mark drives explicit window scaling.
        self.tdns[cur].cc.on_circuit_signal(now, seg.circuit_mark);

        self.peer_wnd = seg.wnd;

        // Timers: progress re-arms RTO; emptiness disarms.
        if self.rtx.is_empty() {
            self.rto_deadline = None;
            self.tlp_deadline = None;
            self.rto_backoff = 0;
        } else if progress || !newly_sacked.is_empty() {
            self.arm_rto(now);
            self.arm_tlp(now);
        }
        self.maybe_arm_persist(now);
    }

    /// Loss detection: dupACK / SACK-count threshold, then RACK-style
    /// time-based marking. With the hooks' cross-TDN cutoff, holes of
    /// another set than the triggering one are only marked once stale
    /// (§3.4's relaxed detection); otherwise every hole qualifies.
    fn detect_losses(&mut self, now: SimTime, seg: &Segment, newly_sacked: &[TxSeg]) {
        let Some(high_sacked) = self.rtx.highest_sacked() else {
            return;
        };
        // Fast path: an unsacked head below a SACKed segment is a hole.
        let hole_exists = match self.rtx.front() {
            Some(f) if !f.sacked => true,
            _ => self
                .rtx
                .iter()
                .any(|s| !s.sacked && s.seq.before(high_sacked)),
        };
        if !hole_exists {
            return;
        }
        // A "reordering event" is a fresh detection: the first hole
        // evidence while the active set's machine was still Open.
        let cur = self.set_of(self.hooks.current());
        if !newly_sacked.is_empty() && self.tdns[cur].ca == CaState::Open {
            self.stats.reorder_events += 1;
        }

        let thresh = self.cfg.dupack_thresh;
        if self.dupacks < thresh && self.rtx.sacked_above(self.snd_una) < thresh {
            if self.tdns[cur].ca == CaState::Open {
                self.tdns[cur].ca = CaState::Disorder;
            }
            return;
        }

        // Entering (or continuing) recovery: mark losses. The set that
        // triggered the heuristic is the ACK's TDN, or the newest SACKed
        // segment's when the ACK is untagged.
        let (collapsed, n) = (self.hooks.collapsed(), self.tdns.len());
        let set_of = |t: TdnId| set_index(collapsed, n, t);
        let trigger = set_of(
            seg.ack_tdn
                .or_else(|| newly_sacked.last().map(|s| s.tdn))
                .unwrap_or(self.hooks.current()),
        );
        // RACK window: a hole only counts as lost once it is older than
        // the newest SACKed transmission by the trigger set's reordering
        // window (min_rtt / 4), so jitter is not declared loss.
        let reo_wnd = self.tdns[trigger]
            .rtt
            .min_rtt()
            .map(|m| m / 4)
            .unwrap_or(SimDuration::ZERO);
        let rack_cutoff = self.rtx.newest_sacked_tx_time().map(|t| t - reo_wnd);
        let tail_cutoff = self.hooks.cross_tdn_cutoff(now, &self.tdns);
        let mut skipped = 0u64;
        let marked = self
            .rtx
            .mark_lost_below(high_sacked, |s| match tail_cutoff {
                Some(tail) if set_of(s.tdn) != trigger => {
                    let stale = s.tx_time <= tail; // a true tail loss
                    skipped += u64::from(!stale);
                    stale
                }
                _ => rack_cutoff.is_none_or(|c| s.tx_time <= c),
            });
        self.stats.relaxed_skips += skipped;
        self.stats.reorder_marked_pkts += marked.len() as u64;

        // A retransmission older than the RACK window that is still
        // unacknowledged was itself lost: release it for another try
        // (cross-set ones only once stale, as above).
        if let Some(cutoff) = rack_cutoff {
            self.rtx.refresh_stale_retx(cutoff, |s| {
                tail_cutoff.is_none_or(|tail| set_of(s.tdn) == trigger || s.tx_time <= tail)
            });
        }

        // Sets with marked (to-be-retransmitted) segments enter Recovery
        // (Fig. 4); others stay Open and keep sending at full speed.
        for idx in 0..n {
            if self.tdns[idx].in_recovery() || !marked.iter().any(|s| set_of(s.tdn) == idx) {
                continue;
            }
            let flight = self.set_pipe(idx);
            let st = &mut self.tdns[idx];
            st.ca = CaState::Recovery;
            st.recovery_point = Some(self.snd_nxt);
            st.cc.on_enter_recovery(now, flight);
            self.stats.fast_recoveries += 1;
        }
    }

    // ------------------------------------------------------------------
    // timers
    // ------------------------------------------------------------------

    fn arm_rto(&mut self, now: SimTime) {
        // The timer covers the oldest outstanding segment, with the
        // timeout for its set. The shift cap bounds the arithmetic;
        // `max_retries` (checked in `fire_rto`) bounds the *retrying* — a
        // blackholed flow aborts with `ConnError` before the cap ever
        // plateaus the backoff.
        let tdn = self.rtx.front().map_or(self.hooks.current(), |s| s.tdn);
        let backoff = 1u64 << self.rto_backoff.min(12);
        self.rto_deadline = Some(now + self.rto_for(tdn).saturating_mul(backoff));
        self.rto_armed_at = now;
    }

    /// Whether the connection is stuck behind a closed peer window: data
    /// waits, nothing is outstanding (so no RTO is armed), and the peer
    /// advertises zero. Without a persist probe this is a silent
    /// deadlock — the classic lost-window-update stall.
    fn needs_persist(&self) -> bool {
        self.state == State::Established
            && self.peer_wnd == 0
            && self.rtx.is_empty()
            && self.bytes_unsent > 0
    }

    /// Arm, re-arm or disarm the persist timer to match current state.
    fn maybe_arm_persist(&mut self, now: SimTime) {
        if self.needs_persist() {
            if self.persist_deadline.is_none() {
                let backoff = 1u64 << self.persist_backoff.min(12);
                let delay = self
                    .rto_for(self.hooks.current())
                    .saturating_mul(backoff)
                    .min(self.cfg.rtt.max_rto);
                self.persist_deadline = Some(now + delay);
            }
        } else {
            self.persist_deadline = None;
            if self.peer_wnd > 0 {
                self.persist_backoff = 0;
            }
        }
    }

    /// The persist timer fired: transmit a one-byte window probe from the
    /// unsent stream (RFC 9293 §3.8.6.1). The byte is real data — it goes
    /// on the rtx queue and is cumulatively acknowledged like any other —
    /// so a reopening window resumes exactly in sequence. Probes travel
    /// the active TDN.
    fn fire_persist(&mut self, now: SimTime) {
        if !self.needs_persist() {
            return;
        }
        if self.persist_backoff >= self.cfg.max_retries {
            self.abort(ConnError::PersistTimeout {
                probes: self.persist_backoff,
            });
            return;
        }
        self.stats.persist_probes += 1;
        self.persist_backoff += 1;
        let mut seg = Segment::new(self.flow, self.data_dir);
        seg.seq = self.snd_nxt;
        seg.len = 1;
        seg.flags.psh = true;
        self.finalize_data_segment(&mut seg);
        self.track(now, 1, self.hooks.current(), false, false);
        self.bytes_unsent -= 1;
        self.stats.bytes_sent += 1;
        self.stats.segs_sent += 1;
        self.pending.push_back(seg);
        self.arm_rto(now);
        // Re-arm with backoff in case the probe's ACK still says zero.
        self.persist_deadline = None;
    }

    /// Abort with a terminal error: surface it, stop all timers, and
    /// report done so the driver terminates the flow.
    fn abort(&mut self, err: ConnError) {
        self.error = Some(err);
        self.state = State::Done;
        self.stats.conn_aborts += 1;
        self.pending.clear();
        self.rto_deadline = None;
        self.tlp_deadline = None;
        self.persist_deadline = None;
    }

    fn arm_tlp(&mut self, now: SimTime) {
        if !self.cfg.tlp {
            return;
        }
        let pto = match self.cur().rtt.srtt() {
            // 2·srtt, stretched to the slowest set.
            Some(srtt) => srtt + self.slowest_srtt().unwrap_or(srtt),
            None => self.rto_for(self.hooks.current()) / 2,
        };
        let deadline = now + pto;
        // TLP must fire before the RTO or it is useless.
        if self.rto_deadline.is_none_or(|rto| deadline < rto) {
            self.tlp_deadline = Some(deadline);
        }
    }

    /// The earliest pending timer, if any.
    pub fn next_timer(&self) -> Option<SimTime> {
        let earliest = |a: Option<SimTime>, b: Option<SimTime>| match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        };
        let mut t = earliest(self.rto_deadline, self.tlp_deadline);
        t = earliest(t, self.persist_deadline);
        t = earliest(t, self.hooks.next_timer(self.live_since()));
        // Pacing wake-up: only relevant while there is something to send.
        if self.cfg.pacing
            && self.next_paced_at > SimTime::ZERO
            && (self.bytes_unsent > 0 || self.rtx.has_retransmit())
        {
            t = earliest(t, Some(self.next_paced_at));
        }
        t
    }

    /// Fire any expired timers.
    pub fn handle_timer(&mut self, now: SimTime) {
        let live = self.live_since();
        self.hooks.on_timer(now, live, &mut self.stats);
        if let Some(tlp) = self.tlp_deadline {
            if tlp <= now {
                self.tlp_deadline = None;
                self.fire_tlp(now);
            }
        }
        if let Some(rto) = self.rto_deadline {
            if rto <= now {
                self.fire_rto(now);
            }
        }
        if let Some(p) = self.persist_deadline {
            if p <= now {
                self.persist_deadline = None;
                self.fire_persist(now);
            }
        }
    }

    fn fire_tlp(&mut self, now: SimTime) {
        if self.rtx.is_empty() {
            return;
        }
        self.stats.tlps += 1;
        let (flow, dir, cur) = (self.flow, self.data_dir, self.hooks.current());
        // Probe: retransmit the highest unsacked segment on the active TDN.
        if let Some(mut out) = self.rtx.with_last_unsacked(|s| {
            let out = Self::segment_from_txseg(flow, dir, s);
            s.tx_time = now;
            s.tdn = cur;
            s.retx_count += 1;
            s.retx_in_flight = true;
            out
        }) {
            self.finalize_data_segment(&mut out);
            self.stats.retransmits += 1;
            self.stats.segs_sent += 1;
            self.pending.push_back(out);
        }
        self.arm_rto(now);
    }

    fn fire_rto(&mut self, now: SimTime) {
        if self.rtx.is_empty() {
            self.rto_deadline = None;
            return;
        }
        if self.rto_backoff >= self.cfg.max_retries {
            self.abort(ConnError::RetransmitLimit {
                retries: self.rto_backoff,
            });
            return;
        }
        // SACK reneging (the `tcp_check_sack_reneging` analogue): an RTO
        // with the *head* of the queue SACKed means the receiver
        // acknowledged that range selectively but never cumulatively —
        // it reneged (or the network lied). Forget every SACK mark so
        // `mark_all_lost` re-marks the reneged ranges; without this the
        // sacked head is never eligible for retransmission and the
        // connection RTO-spins to a wrongful abort.
        if self.rtx.front().is_some_and(|s| s.sacked) {
            let n = self.rtx.clear_sack_marks();
            self.stats.sack_reneges += u64::from(n);
        }
        self.stats.rtos += 1;
        // RTO-stall accounting: a firing with zero backoff opens a new
        // timer-recovery episode; backoff refires extend it. Either way
        // the wait between arming and firing was dead air for the flow.
        if self.rto_backoff == 0 {
            self.stats.rto_stalls += 1;
        }
        self.stats.stall_ns += now.saturating_since(self.rto_armed_at).as_nanos();
        // Only the set owning the timed-out (oldest) segment collapses;
        // the other sets' models are not to blame and stay intact (§3.1's
        // isolation of per-TDN state).
        let victim = self.rtx.front().map_or(0, |s| self.set_of(s.tdn));
        let st = &mut self.tdns[victim];
        st.ca = CaState::Loss;
        st.recovery_point = Some(self.snd_nxt);
        st.cc.on_rto(now);
        self.dupacks = 0;
        self.rtx.mark_all_lost();
        self.rto_backoff += 1;
        self.arm_rto(now);
        self.tlp_deadline = None;
    }

    // ------------------------------------------------------------------
    // output path
    // ------------------------------------------------------------------

    fn segment_from_txseg(flow: FlowId, dir: Direction, s: &TxSeg) -> Segment {
        let mut seg = Segment::new(flow, dir);
        seg.seq = s.seq;
        seg.len = seg_payload(s);
        seg.flags.syn = s.is_syn;
        seg.flags.fin = s.is_fin;
        seg.flags.psh = seg.len > 0;
        seg
    }

    /// Fill in what every data-bearing segment carries: the piggybacked
    /// ACK, the active TDN's tags when speaking TDTCP, ECT, the window and
    /// the payload checksum.
    fn finalize_data_segment(&self, seg: &mut Segment) {
        let rcv = self.rx.as_ref().map(|r| r.rcv_nxt());
        seg.ack = rcv.unwrap_or(SeqNum::ZERO);
        seg.flags.ack = rcv.is_some();
        if self.hooks.tags() {
            let cur = self.hooks.current();
            seg.data_tdn = Some(cur);
            seg.ack_tdn = rcv.map(|_| cur);
        }
        if self.cfg.ecn && seg.len > 0 {
            seg.ecn = Ecn::Ect0;
        }
        seg.wnd = self.rx.as_ref().map_or(self.cfg.recv_buf, |r| r.window());
        seg.stamp_payload();
    }

    fn fin_is_queued(&self) -> bool {
        self.fin_acked || self.rtx.has_fin()
    }

    /// Produce the next segment to transmit, or `None` when flow- or
    /// congestion-control forbids sending.
    pub fn poll_send(&mut self, now: SimTime) -> Option<Segment> {
        // Control/ACK segments bypass cwnd.
        if let Some(seg) = self.pending.pop_front() {
            return Some(seg);
        }
        // The hooks' hold (TDTCP's skew gate) comes before pacing: it, not
        // the pacer, is then the binding constraint — disarm the pacing
        // wake-up (stamped fresh on the next real send) so `next_timer`
        // cannot advertise a stale past release and spin the driver at
        // one instant forever.
        if self.hooks.hold_sends(now, &mut self.stats) {
            self.next_paced_at = SimTime::ZERO;
            return None;
        }
        if self.cfg.pacing && now < self.next_paced_at {
            return None;
        }
        // Only a retransmission or, once established, new data or the FIN
        // can go out. Most polls land on idle or finished connections, so
        // they skip the window lookups.
        if self.rtx.has_retransmit() || self.state == State::Established {
            if let Some(seg) = self.transmit(now) {
                return Some(seg);
            }
        }
        // Nothing sendable for a non-pacing reason (cwnd/rwnd-blocked or
        // no data): disarm the pacing wake-up so the timer does not spin;
        // an arriving ACK re-opens the window and restarts pacing. A
        // zero-window block instead arms the persist timer (this runs
        // after every event, so the stall is always noticed).
        self.next_paced_at = SimTime::ZERO;
        self.maybe_arm_persist(now);
        None
    }

    /// The next retransmission, new data segment or FIN the windows allow.
    fn transmit(&mut self, now: SimTime) -> Option<Segment> {
        // Gate on the active set's window against the active set's pipe —
        // the swap that gives TDTCP a wide-open window with near-zero
        // inflight right after a switch (§5.2's initial burst).
        let cwnd = self.cwnd();
        let cur = self.hooks.current();
        let pipe = self.set_pipe(self.set_of(cur));
        let any_loss = self.tdns.iter().any(|t| t.ca == CaState::Loss);

        // Retransmissions first (Linux behaviour; also TDTCP's "any TDN"
        // rule, §4.3): lost segments go out at the earliest opportunity
        // regardless of original TDN, re-tagged with the one carrying them.
        if pipe < cwnd || any_loss {
            let (flow, dir) = (self.flow, self.data_dir);
            if let Some(mut out) = self.rtx.with_next_retransmit(|s| {
                let out = Self::segment_from_txseg(flow, dir, s);
                s.tx_time = now;
                s.tdn = cur;
                s.retx_count += 1;
                s.retx_in_flight = true;
                out
            }) {
                self.finalize_data_segment(&mut out);
                self.stats.retransmits += 1;
                self.stats.segs_sent += 1;
                self.after_transmit(now, &out);
                return Some(out);
            }
        }

        // New data.
        if self.state == State::Established && pipe < cwnd {
            let inflight_seq = self.snd_nxt - self.snd_una;
            if self.bytes_unsent > 0 && inflight_seq < self.peer_wnd {
                let len = (self.cfg.mss as u64)
                    .min(self.bytes_unsent)
                    .min(u64::from(self.peer_wnd - inflight_seq)) as u32;
                if len > 0 {
                    let mut seg = Segment::new(self.flow, self.data_dir);
                    seg.seq = self.snd_nxt;
                    seg.len = len;
                    seg.flags.psh = true;
                    self.finalize_data_segment(&mut seg);
                    self.track(now, len, cur, false, false); // "current TDN" (§4.3)
                    self.bytes_unsent -= u64::from(len);
                    self.stats.bytes_sent += u64::from(len);
                    self.stats.segs_sent += 1;
                    self.after_transmit(now, &seg);
                    return Some(seg);
                }
            }
            // FIN once everything is sent.
            if self.bytes_unsent == 0 && self.cfg.bytes_to_send > 0 && !self.fin_is_queued() {
                let mut fin = Segment::new(self.flow, self.data_dir);
                fin.seq = self.snd_nxt;
                fin.flags.fin = true;
                self.finalize_data_segment(&mut fin);
                fin.ack_tdn = None; // the first FIN carries only its data tag
                self.track(now, 1, cur, false, true);
                self.state = State::FinWait;
                self.arm_rto(now);
                return Some(fin);
            }
        }
        None
    }

    fn after_transmit(&mut self, now: SimTime, seg: &Segment) {
        if self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
        self.arm_tlp(now);
        if self.cfg.pacing {
            // Release the next segment one serialization interval of the
            // paced rate cwnd/RTT later. The RTT is the active set's
            // *minimum*, not srtt: ACKs generated at the tail of a day are
            // stranded through the night and arrive during other TDNs'
            // days still tagged with their own TDN, so a TDN's srtt is
            // inflated by schedule artifacts that say nothing about the
            // path's real capacity. min_rtt is immune.
            let est = &self.cur().rtt;
            let rtt = est
                .min_rtt()
                .or_else(|| est.srtt())
                .unwrap_or(SimDuration::from_micros(50));
            let cwnd = self.cwnd().max(self.cfg.mss);
            let gap = rtt.mul_f64(f64::from(seg.wire_size()) / f64::from(cwnd));
            self.next_paced_at = now + gap;
        }
    }

    fn maybe_finish(&mut self) {
        if self.state == State::FinWait && self.fin_acked && self.rtx.is_empty() {
            self.state = State::Done;
        }
    }
}

impl<H: TdHooks> std::fmt::Debug for Connection<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("flow", &self.flow)
            .field("state", &self.state)
            .field("current", &self.hooks.current())
            .field("snd_una", &self.snd_una)
            .field("snd_nxt", &self.snd_nxt)
            .field("tdns", &self.tdns)
            .finish()
    }
}

/// Plain TCP's transport. Implemented for the concrete type, not for every
/// `Connection<H>`, so that boxed plain connections run code compiled in
/// this crate; `tdtcp::TdtcpConnection` implements `Transport` itself.
/// TDN notifications are ignored (the trait default).
impl Transport for Connection {
    fn on_segment(&mut self, now: SimTime, seg: &Segment) {
        self.handle_segment(now, seg);
    }

    fn poll_send(&mut self, now: SimTime) -> Option<Segment> {
        Connection::poll_send(self, now)
    }

    fn next_timer(&self) -> Option<SimTime> {
        Connection::next_timer(self)
    }

    fn on_timer(&mut self, now: SimTime) {
        self.handle_timer(now);
    }

    fn stats(&self) -> &ConnStats {
        Connection::stats(self)
    }

    fn is_established(&self) -> bool {
        Connection::is_established(self)
    }

    fn is_done(&self) -> bool {
        Connection::is_done(self)
    }

    fn conn_error(&self) -> Option<ConnError> {
        self.error
    }

    fn variant(&self) -> &'static str {
        self.tdns[0].cc.name()
    }

    fn cwnd_report(&self) -> Vec<u32> {
        Connection::cwnd_report(self)
    }
}
