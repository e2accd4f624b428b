//! The TDTCP connection.
//!
//! TDTCP runs on the workspace's one TCP state machine,
//! [`tcp::Connection`], which already keeps one path-state set per TDN
//! ([`tcp::TdnState`]: CCA, RTT estimator, CA machine, recovery point)
//! over a single sequence space, retransmission queue and reassembler
//! (§3.1, §3.3), derives each TDN's pipe from the queue's TDN tags, and
//! samples RTT per TDN, discarding cross-TDN (type-3) samples (§4.4).
//! This module holds what only TDTCP does, plugged into the engine through
//! the [`tcp::TdHooks`] seam by [`TdtcpHooks`]:
//!
//! 1. **TD_CAPABLE negotiation** (§4.2): both ends must agree on the TDN
//!    count, or the connection downgrades to plain TCP.
//! 2. **TDN change notifications** (§3.2): an out-of-band signal moves the
//!    connection onto another TDN's state set. Each carries the ToR's
//!    generation, so duplicated and reordered deliveries are discarded.
//! 3. **Hardening**: a watchdog that infers missed notifications, and a
//!    skew estimator with a send gate across predicted slot edges; either
//!    parks the host in a degraded single-set, capped-cwnd posture.
//! 4. **Relaxed reordering detection** (§3.4): hole segments of another
//!    TDN than the triggering ACK's are not declared lost until they are
//!    old enough to be true tail losses.
//! 5. **Pessimistic RTO** (§4.4): the timer assumes ACKs return on the
//!    slowest TDN (`½·RTT_n + ½·RTT_slowest`).
//! 6. **TDN tags** on data and ACK segments.

use simcore::{SimDuration, SimTime};
use tcp::cc::CongestionControl;
use tcp::{ConnError, ConnStats, FlowId, Segment, TdHooks, TdnState, Transport};
use wire::TdnId;

/// Notification watchdog parameters.
///
/// The host knows the schedule is periodic (§3.2's pull model polls "the
/// global variable" at this cadence); if no notification arrives within
/// one period plus a guard band covering delivery-latency spread, the
/// host must assume it missed a TDN change and can no longer trust its
/// per-TDN state selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Expected notification period (the schedule's day+night slot).
    pub period: SimDuration,
    /// Guard band absorbing notification delivery-latency variation.
    pub guard: SimDuration,
    /// Congestion-window cap, in packets, while desynchronized.
    pub degraded_cwnd_pkts: u32,
}

impl WatchdogConfig {
    /// A watchdog for a schedule whose day+night slot is `slot`: period =
    /// slot, guard = slot/2. The guard comfortably exceeds the per-host
    /// notification latency spread (tens of µs even unoptimized) while a
    /// single missed notification — a 2·slot gap — still overshoots the
    /// deadline by slot/2 and is reliably detected.
    pub fn for_slot(slot: SimDuration) -> WatchdogConfig {
        Self::for_slot_with_guard(slot, slot / 2)
    }

    /// A watchdog for a schedule whose slot is `slot` with an explicit
    /// guard band — the network-wide `NetConfig::guard_band`, so the
    /// endpoint's timer slack, skew-gate window, and escalation threshold
    /// agree with the slack the switch actually enforces at slot edges.
    pub fn for_slot_with_guard(slot: SimDuration, guard: SimDuration) -> WatchdogConfig {
        WatchdogConfig {
            period: slot,
            guard,
            degraded_cwnd_pkts: 4,
        }
    }
}

/// TDTCP configuration: the base TCP knobs plus the TDTCP-specific ones.
#[derive(Debug, Clone)]
pub struct TdtcpConfig {
    /// Base engine configuration (MSS, buffers, RTO bounds, ...).
    pub tcp: tcp::Config,
    /// Number of TDNs this host observes; both ends must agree (§4.2).
    pub num_tdns: u8,
    /// Relaxed cross-TDN reordering detection (§3.4). Disabling it is the
    /// ablation that degrades TDTCP to Reno-style hole marking.
    pub relaxed_reordering: bool,
    /// Pessimistic RTO synthesis `½·RTT_n + ½·RTT_slowest` (§4.4).
    /// Disabling it uses each TDN's own RTO (the premature-timeout
    /// ablation).
    pub pessimistic_rto: bool,
    /// Duplicate state per TDN (§3.1). Disabling collapses every TDN onto
    /// set 0 — the ablation that makes TDTCP behave like single-path TCP.
    pub per_tdn_state: bool,
    /// Missed-notification watchdog; `None` (the default) trusts every
    /// notification to arrive, the pre-hardening behavior.
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for TdtcpConfig {
    fn default() -> Self {
        // Sender pacing prevents the cwnd-sized burst at every TDN switch
        // from overflowing the shallow ToR VOQ (§5.2's "initial burst").
        let tcp_cfg = tcp::Config {
            pacing: true,
            ..tcp::Config::default()
        };
        TdtcpConfig {
            tcp: tcp_cfg,
            num_tdns: 2,
            relaxed_reordering: true,
            pessimistic_rto: true,
            per_tdn_state: true,
            watchdog: None,
        }
    }
}

/// TDTCP's own state: what it plugs into the engine's [`TdHooks`] seam.
#[derive(Debug)]
pub struct TdtcpHooks {
    cfg: TdtcpConfig,
    /// The TDN the host currently believes is active (§3.2's "pull model"
    /// global variable).
    current: TdnId,
    /// Whether TD_CAPABLE negotiation succeeded.
    negotiated: bool,
    /// Locally downgraded to regular TCP (§4.2): per-TDN logic off, no
    /// TDTCP options emitted, notifications ignored.
    downgraded: bool,

    // --- notification hardening ---
    /// Highest notification generation applied; duplicates and reordered
    /// deliveries carry a gen at or below this and are discarded.
    last_gen: Option<u64>,
    /// Arrival time of the last applied notification (watchdog baseline).
    last_notify_at: Option<SimTime>,
    /// Desynchronized: the watchdog inferred a missed TDN change. Per-TDN
    /// state selection collapses to set 0 and the effective cwnd is
    /// capped until a fresh notification resynchronizes the host.
    degraded: bool,
    degraded_since: Option<SimTime>,

    // --- skew hardening (local-clock drift vs. the ToR's cadence) ---
    /// Phase reference for the skew estimator: generation and local
    /// arrival time of the first applied notification since the last
    /// (re)baseline. Notification `g` is expected at
    /// `ref_time + (g - ref_gen)·period` on a well-disciplined clock;
    /// the signed residual against that is pure local-clock skew plus
    /// bounded delivery-latency noise.
    skew_ref: Option<(u64, SimTime)>,
    /// EWMA (gain 1/8) of those residuals in nanoseconds — the host's
    /// estimate of how far its clock has slid against the schedule.
    skew_ewma_ns: f64,
    /// End of the current skew-gate pause, if the pacer is held across a
    /// predicted slot edge. Folded into the engine's next timer so the
    /// driver wakes the host when the edge passes.
    skew_gate_until: Option<SimTime>,
}

impl TdtcpHooks {
    /// The hooks for `cfg`, and the engine configuration they go with.
    fn new(cfg: TdtcpConfig) -> (tcp::Config, Self) {
        let tcp = cfg.tcp.clone();
        let hooks = TdtcpHooks {
            cfg,
            current: TdnId::ZERO,
            negotiated: false,
            downgraded: false,
            last_gen: None,
            last_notify_at: None,
            degraded: false,
            degraded_since: None,
            skew_ref: None,
            skew_ewma_ns: 0.0,
            skew_gate_until: None,
        };
        (tcp, hooks)
    }

    fn is_tdtcp(&self) -> bool {
        self.negotiated && !self.downgraded
    }

    fn downgrade(&mut self) {
        self.downgraded = true;
        self.current = TdnId::ZERO;
    }

    /// Update the skew estimate from this (applied, fresh) notification's
    /// arrival residual against the phase reference, and escalate into
    /// the degraded posture when the estimate exceeds the guard band:
    /// a clock that far off can no longer place sends inside a slot, so
    /// trusting per-TDN state selection is worse than the conservative
    /// fallback — and the host need not wait for the watchdog's full
    /// period to conclude that.
    fn update_skew_estimate(&mut self, now: SimTime, gen: u64, stats: &mut ConnStats) {
        let Some(wd) = self.cfg.watchdog else { return };
        let period_ns = wd.period.as_nanos();
        if period_ns == 0 {
            return;
        }
        let Some((ref_gen, ref_at)) = self.skew_ref else {
            self.skew_ref = Some((gen, now));
            return;
        };
        let expect =
            ref_at + SimDuration::from_nanos(gen.saturating_sub(ref_gen).saturating_mul(period_ns));
        let resid = now.as_nanos() as i64 - expect.as_nanos() as i64;
        self.skew_ewma_ns = self.skew_ewma_ns * 0.875 + resid as f64 * 0.125;
        if !self.degraded && self.skew_ewma_ns.abs() > wd.guard.as_nanos() as f64 {
            stats.skew_escalations += 1;
            self.degraded = true;
            self.degraded_since = Some(now);
            // Re-baseline: when a fresh notification later resynchronizes
            // the host, the estimator starts over instead of instantly
            // re-escalating against the stale reference.
            self.skew_ref = None;
            self.skew_ewma_ns = 0.0;
        }
    }

    /// The watchdog deadline: one period plus a guard band after the last
    /// applied notification. Armed only while the connection is live,
    /// speaking TDTCP, and not already degraded (a degraded host has
    /// nothing further to infer — it waits for the ToR).
    fn watchdog_deadline(&self, live_since: Option<SimTime>) -> Option<SimTime> {
        let wd = self.cfg.watchdog?;
        if self.degraded || !self.is_tdtcp() {
            return None;
        }
        // Before the first notification, baseline from establishment: a
        // run whose very first notification is lost is still covered.
        let base = self.last_notify_at.unwrap_or(live_since?);
        Some(base + wd.period + wd.guard)
    }
}

impl TdHooks for TdtcpHooks {
    fn offer(&self) -> Option<u8> {
        Some(self.cfg.num_tdns)
    }

    /// The TDN counts must match exactly (§4.2); a failed negotiation
    /// downgrades this side to regular TCP.
    fn negotiate(&mut self, peer: Option<u8>) -> bool {
        self.negotiated = peer == Some(self.cfg.num_tdns);
        if !self.negotiated {
            self.downgrade();
        }
        self.negotiated
    }

    fn current(&self) -> TdnId {
        self.current
    }

    fn tags(&self) -> bool {
        self.is_tdtcp()
    }

    fn collapsed(&self) -> bool {
        self.downgraded || self.degraded
    }

    /// While degraded the window is capped: a desynchronized host cannot
    /// know which TDN it is on, so it must not blast a stale TDN's window
    /// onto an unknown path.
    fn cwnd_cap(&self) -> u32 {
        match (self.degraded, self.cfg.watchdog) {
            (true, Some(wd)) => wd.degraded_cwnd_pkts.saturating_mul(self.cfg.tcp.mss),
            _ => u32::MAX,
        }
    }

    /// §4.4: `½·RTT_n + ½·RTT_slowest` plus the largest variance term.
    fn rto(&self, own: &TdnState, sets: &[TdnState]) -> Option<SimDuration> {
        if !self.cfg.pessimistic_rto {
            return None;
        }
        let own = own.rtt.srtt()?;
        let slow = sets.iter().filter_map(|t| t.rtt.srtt()).max()?;
        let var = sets
            .iter()
            .map(|t| t.rtt.rttvar())
            .max()
            .unwrap_or(SimDuration::ZERO);
        let rtt = &self.cfg.tcp.rtt;
        Some(
            (own / 2 + slow / 2 + var.saturating_mul(4).max(SimDuration::from_nanos(1)))
                .clamp(rtt.min_rto, rtt.max_rto),
        )
    }

    /// Cross-TDN holes are only declared lost when old enough that
    /// delayed delivery is no longer plausible — the RACK-TLP fallback
    /// for true tail losses of a prior TDN (§3.4).
    fn cross_tdn_cutoff(&self, now: SimTime, sets: &[TdnState]) -> Option<SimTime> {
        if !(self.cfg.relaxed_reordering && self.is_tdtcp()) {
            return None;
        }
        let slowest = sets.iter().filter_map(|t| t.rtt.srtt()).max();
        Some(slowest.map_or(SimTime::ZERO, |s| now - s.mul_f64(1.25)))
    }

    /// The skew-aware send gate: with low confidence in the local clock
    /// (estimate past half the guard band), new transmissions pause
    /// across the predicted slot edge — segments launched into the edge
    /// would be killed or deferred by the switch's slot-edge enforcement
    /// anyway, so holding them costs less than losing them.
    fn hold_sends(&mut self, now: SimTime, stats: &mut ConnStats) -> bool {
        if let Some(until) = self.skew_gate_until {
            if now < until {
                return true;
            }
            self.skew_gate_until = None;
        }
        let Some(wd) = self.cfg.watchdog else {
            return false;
        };
        if self.degraded || !self.is_tdtcp() {
            return false;
        }
        if self.skew_ewma_ns.abs() <= wd.guard.as_nanos() as f64 / 2.0 {
            return false;
        }
        let Some(last) = self.last_notify_at else {
            return false;
        };
        let edge = last + wd.period;
        if now >= edge {
            // Past the predicted edge with no fresh notification yet: the
            // watchdog owns truly missed slots; gating here would stall.
            return false;
        }
        if now + wd.guard >= edge {
            self.skew_gate_until = Some(edge);
            stats.skew_gate_pauses += 1;
            return true;
        }
        false
    }

    /// The watchdog deadline and the skew-gate release: wake exactly when
    /// the predicted slot edge passes so a gated sender resumes without
    /// an external event.
    fn next_timer(&self, live_since: Option<SimTime>) -> Option<SimTime> {
        match (self.watchdog_deadline(live_since), self.skew_gate_until) {
            (Some(w), Some(g)) => Some(w.min(g)),
            (w, g) => w.or(g),
        }
    }

    /// The watchdog inferred a missed TDN change: enter the conservative
    /// fallback posture (single state set, capped cwnd) until the next
    /// fresh notification.
    fn on_timer(&mut self, now: SimTime, live_since: Option<SimTime>, stats: &mut ConnStats) {
        if self
            .watchdog_deadline(live_since)
            .is_some_and(|wd| wd <= now)
        {
            stats.notify_watchdog_fires += 1;
            self.degraded = true;
            self.degraded_since = Some(now);
        }
    }

    /// A gen at or below the last applied one marks a duplicated or
    /// reordered delivery and is discarded (idempotence); a fresh gen
    /// resynchronizes a degraded connection.
    fn on_notification(
        &mut self,
        now: SimTime,
        tdn: TdnId,
        gen: u64,
        stats: &mut ConnStats,
    ) -> bool {
        if self.downgraded || !self.cfg.per_tdn_state {
            return false;
        }
        if self.last_gen.is_some_and(|last| gen <= last) {
            stats.stale_notifies += 1;
            return false;
        }
        self.last_gen = Some(gen);
        self.last_notify_at = Some(now);
        if self.degraded {
            // Fresh authoritative word from the ToR: leave the
            // conservative posture and resume per-TDN operation.
            if let Some(since) = self.degraded_since.take() {
                stats.degraded_ns += now.saturating_since(since).as_nanos();
            }
            self.degraded = false;
            stats.notify_resyncs += 1;
        }
        self.update_skew_estimate(now, gen, stats);
        if tdn != self.current {
            stats.tdn_switches += 1;
            self.current = tdn;
        }
        true
    }
}

/// A TDTCP endpoint: the engine with one state set per TDN and
/// [`TdtcpHooks`]. It dereferences to the engine for everything the two
/// share (segment and timer input, per-TDN state, the effective cwnd).
pub struct TdtcpConnection(tcp::Connection<TdtcpHooks>);

/// Number of state sets `cfg` asks for: one per TDN, or one in the
/// no-per-TDN-state ablation.
fn set_count(cfg: &TdtcpConfig) -> usize {
    assert!(cfg.num_tdns >= 1);
    usize::from(if cfg.per_tdn_state { cfg.num_tdns } else { 1 })
}

/// One CCA per state set: `ccas[i]` serves TDN `i`; TDNs beyond the list
/// get a fresh clone of `ccas[0]`.
fn per_tdn(
    cfg: &TdtcpConfig,
    ccas: Vec<Box<dyn CongestionControl>>,
) -> impl Iterator<Item = Box<dyn CongestionControl>> {
    assert!(!ccas.is_empty(), "at least one CCA required");
    let template = ccas[0].clone_box();
    let mut given = ccas.into_iter();
    (0..set_count(cfg)).map(move |_| given.next().unwrap_or_else(|| template.clone_box()))
}

impl TdtcpConnection {
    /// Create the initiating endpoint; queues a SYN carrying `TD_CAPABLE`.
    pub fn connect(
        flow: FlowId,
        cfg: TdtcpConfig,
        cc_template: &dyn CongestionControl,
        now: SimTime,
    ) -> Self {
        let sets = (0..set_count(&cfg)).map(|_| cc_template.clone_box());
        let (tcp, hooks) = TdtcpHooks::new(cfg);
        TdtcpConnection(tcp::Connection::connect_with(flow, tcp, sets, hooks, now))
    }

    /// Create the passive endpoint (bulk sink).
    pub fn listen(flow: FlowId, cfg: TdtcpConfig, cc_template: &dyn CongestionControl) -> Self {
        let sets = (0..set_count(&cfg)).map(|_| cc_template.clone_box());
        let (tcp, hooks) = TdtcpHooks::new(cfg);
        TdtcpConnection(tcp::Connection::listen_with(flow, tcp, sets, hooks))
    }

    /// Create an initiating endpoint with a *different* congestion control
    /// algorithm in each TDN — the §3.5 extension ("in principle, TDTCP
    /// could use multiple, different CCAs within a single flow").
    ///
    /// `ccas[i]` serves TDN `i`; TDNs beyond the list clone `ccas[0]`,
    /// including those allocated at runtime.
    ///
    /// # Panics
    /// Panics if `ccas` is empty.
    pub fn connect_with_ccas(
        flow: FlowId,
        cfg: TdtcpConfig,
        ccas: Vec<Box<dyn CongestionControl>>,
        now: SimTime,
    ) -> Self {
        let sets = per_tdn(&cfg, ccas);
        let (tcp, hooks) = TdtcpHooks::new(cfg);
        TdtcpConnection(tcp::Connection::connect_with(flow, tcp, sets, hooks, now))
    }

    /// Listener counterpart of [`TdtcpConnection::connect_with_ccas`].
    pub fn listen_with_ccas(
        flow: FlowId,
        cfg: TdtcpConfig,
        ccas: Vec<Box<dyn CongestionControl>>,
    ) -> Self {
        let sets = per_tdn(&cfg, ccas);
        let (tcp, hooks) = TdtcpHooks::new(cfg);
        TdtcpConnection(tcp::Connection::listen_with(flow, tcp, sets, hooks))
    }

    /// Whether TD_CAPABLE negotiation succeeded and the connection speaks
    /// TDTCP (not downgraded).
    pub fn is_tdtcp(&self) -> bool {
        self.0.hooks().is_tdtcp()
    }

    /// Whether the connection is currently desynchronized (watchdog fired,
    /// no fresh notification yet).
    pub fn is_degraded(&self) -> bool {
        self.0.hooks().degraded
    }

    /// The host's current estimate of its clock skew against the ToR's
    /// notification cadence, in signed nanoseconds (positive = local
    /// clock running fast). Exposed for the skew acceptance tests.
    pub fn estimated_skew_ns(&self) -> i64 {
        self.0.hooks().skew_ewma_ns as i64
    }

    /// Locally downgrade to regular TCP (§4.2): stop emitting TDTCP
    /// options and ignore further notifications.
    pub fn downgrade(&mut self) {
        self.0.hooks_mut().downgrade();
    }

    /// Process an out-of-band TDN-change notification from the ToR,
    /// assigning it the next fresh generation (for drivers that deliver
    /// notifications reliably and in order).
    pub fn on_notification(&mut self, now: SimTime, tdn: TdnId) {
        let gen = self.0.hooks().last_gen.map_or(0, |g| g + 1);
        self.0.on_notification_gen(now, tdn, gen);
    }

    /// Produce the next transmittable segment.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<Segment> {
        self.0.poll_send(now)
    }

    /// Earliest pending timer.
    pub fn next_timer_at(&self) -> Option<SimTime> {
        self.0.next_timer()
    }
}

impl std::ops::Deref for TdtcpConnection {
    type Target = tcp::Connection<TdtcpHooks>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl std::ops::DerefMut for TdtcpConnection {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl std::fmt::Debug for TdtcpConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl Transport for TdtcpConnection {
    fn on_segment(&mut self, now: SimTime, seg: &Segment) {
        self.0.handle_segment(now, seg);
    }

    fn poll_send(&mut self, now: SimTime) -> Option<Segment> {
        self.0.poll_send(now)
    }

    fn next_timer(&self) -> Option<SimTime> {
        self.0.next_timer()
    }

    fn on_timer(&mut self, now: SimTime) {
        self.0.handle_timer(now);
    }

    fn on_tdn_notification(&mut self, now: SimTime, tdn: TdnId, gen: u64) {
        self.0.on_notification_gen(now, tdn, gen);
    }

    fn stats(&self) -> &ConnStats {
        self.0.stats()
    }

    fn is_established(&self) -> bool {
        self.0.is_established()
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }

    fn conn_error(&self) -> Option<ConnError> {
        self.0.conn_error()
    }

    fn variant(&self) -> &'static str {
        "tdtcp"
    }

    fn cwnd_report(&self) -> Vec<u32> {
        self.0.cwnd_report()
    }
}
