//! The seam between plain TCP and TDTCP.
//!
//! There is one TCP state machine, [`Connection`](crate::Connection).
//! Plain TCP and MPTCP subflows run it with one path-state set and the
//! no-op hooks [`NoTd`]; the `tdtcp` crate runs it with one set per TDN
//! and implements [`TdHooks`] for the behaviour only TDTCP has:
//! TD_CAPABLE negotiation and downgrade, gen-tagged TDN notifications,
//! the notification watchdog and skew gate, relaxed cross-TDN loss
//! marking, the pessimistic RTO, and TDN tags on the wire. Every default
//! is plain TCP's behaviour.

use crate::stats::ConnStats;
use crate::tdn_state::TdnState;
use simcore::{SimDuration, SimTime};
use wire::TdnId;

/// What a time-division transport adds to the engine. All defaults are
/// plain TCP's.
pub trait TdHooks {
    /// The TD_CAPABLE option (the TDN count) this endpoint puts on its SYN
    /// or SYN-ACK; `None` for plain TCP. An endpoint that offers it was
    /// built as TDTCP, which also selects TDTCP's side of the two places
    /// its ACK processing still differs from plain TCP's (DESIGN.md §5).
    fn offer(&self) -> Option<u8> {
        None
    }

    /// The peer's SYN or SYN-ACK carried the TD_CAPABLE option `peer`:
    /// settle negotiation (§4.2). Returns whether the connection speaks
    /// TDTCP.
    fn negotiate(&mut self, _peer: Option<u8>) -> bool {
        false
    }

    /// The TDN the host believes is active (§3.2). New transmissions are
    /// accounted to it.
    fn current(&self) -> TdnId {
        TdnId::ZERO
    }

    /// Whether outgoing segments carry TDN tags (`data_tdn`, `ack_tdn`).
    fn tags(&self) -> bool {
        false
    }

    /// Whether every TDN maps onto state set 0 (a downgraded or
    /// desynchronized host cannot trust per-TDN state selection).
    fn collapsed(&self) -> bool {
        false
    }

    /// Upper bound on the congestion window, in bytes.
    fn cwnd_cap(&self) -> u32 {
        u32::MAX
    }

    /// The retransmission timeout for segments accounted to `own`, given
    /// every set; `None` uses `own`'s estimator as is.
    fn rto(&self, _own: &TdnState, _sets: &[TdnState]) -> Option<SimDuration> {
        None
    }

    /// Relaxed loss marking (§3.4): a hole accounted to a different set
    /// than the one that triggered loss detection counts as lost only if
    /// it was sent at or before the returned time. `None` marks every hole
    /// by the same RACK rule.
    fn cross_tdn_cutoff(&self, _now: SimTime, _sets: &[TdnState]) -> Option<SimTime> {
        None
    }

    /// Whether new data and retransmissions must wait at `now`. Queued
    /// control segments still go out.
    fn hold_sends(&mut self, _now: SimTime, _stats: &mut ConnStats) -> bool {
        false
    }

    /// The earliest deadline of the hooks' own timers. `live_since` is
    /// when the handshake completed, while the connection is established
    /// and not yet finished.
    fn next_timer(&self, _live_since: Option<SimTime>) -> Option<SimTime> {
        None
    }

    /// Fire the hooks' own timers that are due at `now`.
    fn on_timer(&mut self, _now: SimTime, _live_since: Option<SimTime>, _stats: &mut ConnStats) {}

    /// A ToR notification that `tdn` is active, with the ToR's monotone
    /// generation `gen`. Returns whether it was applied; the engine then
    /// allocates state sets up to `tdn`.
    fn on_notification(
        &mut self,
        _now: SimTime,
        _tdn: TdnId,
        _gen: u64,
        _stats: &mut ConnStats,
    ) -> bool {
        false
    }
}

/// Plain TCP: every hook at its default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTd;

impl TdHooks for NoTd {}
