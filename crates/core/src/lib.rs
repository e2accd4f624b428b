//! # tdtcp — Time-division TCP (SIGCOMM 2022)
//!
//! The paper's primary contribution: a TCP variant for reconfigurable
//! data center networks that multiplexes a connection across independent
//! per-path congestion states over *time*, the way MPTCP multiplexes
//! subflows over space — except only one "subflow" is ever active, and
//! all of them share a single sequence number space.
//!
//! The state machine itself is the workspace's one TCP engine,
//! [`tcp::Connection`], run with one [`TdnState`] set per TDN (§3.1). This
//! crate holds only what TDTCP adds on top, behind the engine's
//! [`tcp::TdHooks`] seam:
//!
//! * [`TdtcpConnection`] — the endpoint: TD_CAPABLE negotiation (§4.2),
//!   gen-tagged out-of-band TDN-change notifications (§3.2), the
//!   notification watchdog and skew gate, relaxed cross-TDN reordering
//!   detection (§3.4), pessimistic RTO synthesis (§4.4), and TDN tags on
//!   the wire;
//! * [`TdtcpConfig`] / [`WatchdogConfig`] — configuration, including
//!   ablation switches for every design decision (per-TDN state, relaxed
//!   detection, pessimistic RTO) so the benches can quantify each.
//!
//! The endpoint implements [`tcp::Transport`], so the `rdcn` emulator
//! drives it exactly like any other variant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connection;

pub use connection::{TdtcpConfig, TdtcpConnection, TdtcpHooks, WatchdogConfig};
pub use tcp::{State, TdnState};
