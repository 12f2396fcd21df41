//! Protocol-erased simulation handle.
//!
//! `Sim<M>` is generic over the membership protocol; experiments that sweep
//! over all four protocols of the evaluation need a single type to hold
//! "whichever simulator this configuration produced". [`AnySim`] wraps the
//! four concrete simulators and forwards the protocol-independent API.

use crate::scenario::protocols::{
    build_cyclon, build_cyclon_acked, build_hyparview, build_scamp, CyclonAckedSim, CyclonSim,
    HyParViewSim, ProtocolKind, ScampSim,
};
use crate::scenario::Scenario;
use crate::sim::SimStats;
use hyparview_baselines::{CyclonConfig, ScampConfig};
use hyparview_core::{Config, SimId};
use hyparview_gossip::BroadcastReport;

/// A simulation running one of the four evaluated protocols.
#[allow(clippy::large_enum_variant)]
pub enum AnySim {
    /// HyParView simulation.
    HyParView(HyParViewSim),
    /// Cyclon simulation.
    Cyclon(CyclonSim),
    /// CyclonAcked simulation.
    CyclonAcked(CyclonAckedSim),
    /// Scamp simulation.
    Scamp(ScampSim),
}

macro_rules! dispatch {
    ($self:expr, $sim:ident => $body:expr) => {
        match $self {
            AnySim::HyParView($sim) => $body,
            AnySim::Cyclon($sim) => $body,
            AnySim::CyclonAcked($sim) => $body,
            AnySim::Scamp($sim) => $body,
        }
    };
}

impl AnySim {
    /// Builds the overlay for `kind` following the paper's initialisation
    /// procedure (§5: single contact for HyParView/Cyclon, random contact
    /// for Scamp). HyParView runs `hyparview`; the baselines run their
    /// paper configurations, Scamp with heartbeats off (they only matter
    /// for long-running isolation recovery and would dominate large
    /// simulations). Stabilization cycles are *not* run.
    pub fn build(kind: ProtocolKind, scenario: &Scenario, hyparview: Config) -> AnySim {
        match kind {
            ProtocolKind::HyParView => AnySim::HyParView(build_hyparview(scenario, hyparview)),
            ProtocolKind::Cyclon => AnySim::Cyclon(build_cyclon(scenario, CyclonConfig::paper())),
            ProtocolKind::CyclonAcked => {
                AnySim::CyclonAcked(build_cyclon_acked(scenario, CyclonConfig::paper()))
            }
            ProtocolKind::Scamp => {
                AnySim::Scamp(build_scamp(scenario, ScampConfig::paper().with_heartbeats(false)))
            }
        }
    }

    /// Which protocol this simulation runs.
    pub fn kind(&self) -> ProtocolKind {
        match self {
            AnySim::HyParView(_) => ProtocolKind::HyParView,
            AnySim::Cyclon(_) => ProtocolKind::Cyclon,
            AnySim::CyclonAcked(_) => ProtocolKind::CyclonAcked,
            AnySim::Scamp(_) => ProtocolKind::Scamp,
        }
    }

    /// See [`crate::Sim::run_cycles`].
    pub fn run_cycles(&mut self, count: usize) {
        dispatch!(self, sim => sim.run_cycles(count))
    }

    /// See [`crate::Sim::fail_fraction`].
    pub fn fail_fraction(&mut self, fraction: f64) -> Vec<SimId> {
        dispatch!(self, sim => sim.fail_fraction(fraction))
    }

    /// See [`crate::Sim::fail_nodes`].
    pub fn fail_nodes(&mut self, ids: &[SimId]) {
        dispatch!(self, sim => sim.fail_nodes(ids))
    }

    /// See [`crate::Sim::broadcast_random`].
    pub fn broadcast_random(&mut self) -> BroadcastReport {
        dispatch!(self, sim => sim.broadcast_random())
    }

    /// See [`crate::Sim::broadcast_from`].
    pub fn broadcast_from(&mut self, origin: SimId) -> BroadcastReport {
        dispatch!(self, sim => sim.broadcast_from(origin))
    }

    /// See [`crate::Sim::random_alive`].
    pub fn random_alive(&mut self) -> SimId {
        dispatch!(self, sim => sim.random_alive())
    }

    /// See [`crate::Sim::alive_count`].
    pub fn alive_count(&self) -> usize {
        dispatch!(self, sim => sim.alive_count())
    }

    /// See [`crate::Sim::len`].
    pub fn len(&self) -> usize {
        dispatch!(self, sim => sim.len())
    }

    /// Returns `true` when the simulation has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// See [`crate::Sim::out_views`] (indices converted to `usize` for the
    /// graph crate).
    pub fn out_views(&self) -> Vec<Option<Vec<usize>>> {
        let views = dispatch!(self, sim => sim.out_views());
        views
            .into_iter()
            .map(|v| v.map(|ids| ids.into_iter().map(|id| id.index()).collect()))
            .collect()
    }

    /// See [`crate::Sim::accuracy`].
    pub fn accuracy(&self) -> f64 {
        dispatch!(self, sim => sim.accuracy())
    }

    /// See [`crate::Sim::stats`].
    pub fn stats(&self) -> SimStats {
        dispatch!(self, sim => sim.stats())
    }
}

impl std::fmt::Debug for AnySim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AnySim({}, n = {}, alive = {})", self.kind(), self.len(), self.alive_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_each_protocol() {
        let scenario = Scenario::new(30, 5);
        for kind in ProtocolKind::ALL {
            let mut sim = AnySim::build(kind, &scenario, Config::paper());
            assert_eq!(sim.kind(), kind);
            assert_eq!(sim.alive_count(), 30);
            assert_eq!(sim.len(), 30);
            assert!(!sim.is_empty());
            sim.run_cycles(2);
            let report = sim.broadcast_random();
            assert!(report.delivered >= 1, "{kind}: origin always delivers");
            let views = sim.out_views();
            assert_eq!(views.len(), 30);
        }
    }

    #[test]
    fn failure_injection_through_wrapper() {
        let scenario = Scenario::new(20, 6);
        let mut sim = AnySim::build(ProtocolKind::HyParView, &scenario, Config::paper());
        let victims = sim.fail_fraction(0.5);
        assert_eq!(victims.len(), 10);
        assert_eq!(sim.alive_count(), 10);
        assert!(sim.accuracy() <= 1.0);
    }
}
