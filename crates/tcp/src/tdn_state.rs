//! Per-path state sets: one per TDN for TDTCP (§3.1), one for plain TCP.
//!
//! TDTCP's central mechanism: every variable TCP uses to model a path is
//! duplicated per TDN, grouped exactly as the paper groups them —
//!
//! * **pipe** variables (`packets_out`, `lost_out`, `retrans_out`, ...)
//!   are *derived* from the shared retransmission queue by filtering on
//!   each segment's TDN tag, which automatically yields the paper's §4.3
//!   semantics: *current TDN* (tag new data with the active TDN),
//!   *all TDNs* (sum over tags), *any TDN* (logical OR over tags), and
//!   *specific TDN* (credit the tag found in the queue);
//! * **congestion control** variables (`cwnd`, `ssthresh`, `ca_state`)
//!   live here as one CCA instance + CA state machine per TDN;
//! * **delay/RTT** variables (`srtt`, `rttvar`, `mdev`) live here as one
//!   estimator per TDN.
//!
//! When the network reconfigures, TDTCP swaps the active set; inactive
//! sets are frozen except for the §3.1 exceptions (e.g. crediting in-
//! flight counts when an ACK for an old TDN's data arrives — which the
//! derived pipe counters handle by construction). Plain TCP and MPTCP
//! subflows are the one-set case of the same engine.

use crate::ca::CaState;
use crate::cc::CongestionControl;
use crate::rtt::RttEstimator;
use crate::seq::SeqNum;

/// All duplicated state for one TDN.
pub struct TdnState {
    /// Congestion control instance (the paper uses CUBIC in every TDN but
    /// the type is pluggable per §3.5).
    pub cc: Box<dyn CongestionControl>,
    /// RTT estimator fed only by same-TDN samples (§4.4).
    pub rtt: RttEstimator,
    /// This TDN's congestion-avoidance state (Fig. 4: one machine per TDN).
    pub ca: CaState,
    /// Fast-recovery exit point for this TDN, if it is recovering.
    pub recovery_point: Option<SeqNum>,
}

impl TdnState {
    /// Fresh state around `cc` (Open, not recovering).
    pub fn new(cc: Box<dyn CongestionControl>, rtt: RttEstimator) -> Self {
        TdnState {
            cc,
            rtt,
            ca: CaState::Open,
            recovery_point: None,
        }
    }

    /// Whether this TDN is in a recovery mode.
    pub fn in_recovery(&self) -> bool {
        self.ca.in_recovery()
    }
}

impl std::fmt::Debug for TdnState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TdnState")
            .field("cwnd", &self.cc.cwnd())
            .field("ca", &self.ca)
            .field("srtt", &self.rtt.srtt())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{CcConfig, Cubic};
    use crate::rtt::RttConfig;
    use simcore::SimDuration;

    #[test]
    fn fresh_state_per_tdn_is_independent() {
        let template = Cubic::new(CcConfig::default());
        let rtt = RttEstimator::new(RttConfig::default());
        let mut a = TdnState::new(template.clone_box(), rtt);
        let b = TdnState::new(template.clone_box(), rtt);
        // Mutating one TDN's state leaves the other untouched.
        a.cc.on_rto(simcore::SimTime::ZERO);
        a.rtt.on_sample(SimDuration::from_micros(40));
        a.ca = CaState::Recovery;
        assert_ne!(a.cc.cwnd(), b.cc.cwnd());
        assert_eq!(b.rtt.samples(), 0);
        assert_eq!(b.ca, CaState::Open);
        assert!(a.in_recovery());
        assert!(!b.in_recovery());
    }

    #[test]
    fn independent_rtt_models_stay_clean() {
        // The §3.1 motivation, inverted: with per-TDN estimators each
        // tracks its own path exactly (contrast with the blended-EWMA test
        // in tcp::rtt).
        let template = Cubic::new(CcConfig::default());
        let rtt = RttEstimator::new(RttConfig::default());
        let mut pkt = TdnState::new(template.clone_box(), rtt);
        let mut opt = TdnState::new(template.clone_box(), rtt);
        for _ in 0..50 {
            pkt.rtt.on_sample(SimDuration::from_micros(100));
            opt.rtt.on_sample(SimDuration::from_micros(40));
        }
        let p = pkt.rtt.srtt().unwrap().as_micros();
        let o = opt.rtt.srtt().unwrap().as_micros();
        assert!((95..=105).contains(&p), "packet srtt {p}us");
        assert!((38..=42).contains(&o), "optical srtt {o}us");
    }
}
