//! Phase bookkeeping: every experiment in the paper reports per-phase
//! execution times (histogram computation, network partitioning, local
//! partitioning, build-probe), so the joins produce this breakdown too.

use rsj_sim::SimDuration;

use crate::phase;
use crate::runtime::PhaseEvent;

/// Execution-time breakdown of one join run, mirroring the stacked bars of
/// Figures 5b and 7.
#[derive(Copy, Clone, Debug, Default)]
pub struct PhaseTimes {
    /// Histogram computation and exchange (§4.1).
    pub histogram: SimDuration,
    /// The network partitioning pass — partitioning interleaved with
    /// transfer (§4.2.1); for single-machine joins this is the first
    /// (local) partitioning pass.
    pub network_partition: SimDuration,
    /// Subsequent local partitioning passes (§4.2.3).
    pub local_partition: SimDuration,
    /// Build and probe (§4.3).
    pub build_probe: SimDuration,
}

impl PhaseTimes {
    /// Total execution time across all phases.
    pub fn total(&self) -> SimDuration {
        self.histogram + self.network_partition + self.local_partition + self.build_probe
    }

    /// All phases as `(name, duration)` rows, in execution order.
    pub fn rows(&self) -> [(&'static str, SimDuration); 4] {
        [
            ("histogram", self.histogram),
            ("network_partition", self.network_partition),
            ("local_partition", self.local_partition),
            ("build_probe", self.build_probe),
        ]
    }

    /// Scale every phase by a constant (used to re-express scaled-down runs
    /// in paper-equivalent time; valid because every modelled cost is
    /// linear in the data volume — see `DESIGN.md` §4.5).
    pub fn scaled(&self, factor: f64) -> PhaseTimes {
        let s = |d: SimDuration| SimDuration::from_secs_f64(d.as_secs_f64() * factor);
        PhaseTimes {
            histogram: s(self.histogram),
            network_partition: s(self.network_partition),
            local_partition: s(self.local_partition),
            build_probe: s(self.build_probe),
        }
    }

    /// Fold named phase events into the canonical per-phase breakdown.
    ///
    /// Each phase's duration is the span from its global start to the
    /// arrival of the cluster-wide slowest machine — so as long as the
    /// phases were recorded back-to-back, the four durations sum to the
    /// end-to-end time. Unknown phase names are ignored. A run records
    /// either [`phase::BUILD_PROBE`] or [`phase::ONE_SIDED_PROBE`] (never
    /// both); whichever is present fills the `build_probe` slot so the
    /// breakdown stays four-phase across transports.
    pub fn from_events(events: &[PhaseEvent]) -> PhaseTimes {
        let span = |name: &str| {
            events
                .iter()
                .filter(|e| e.name == name)
                .map(|e| e.end - e.start)
                .max()
                .unwrap_or(SimDuration::ZERO)
        };
        PhaseTimes {
            histogram: span(phase::HISTOGRAM),
            network_partition: span(phase::NETWORK_PARTITION),
            local_partition: span(phase::LOCAL_PARTITION),
            build_probe: span(phase::BUILD_PROBE).max(span(phase::ONE_SIDED_PROBE)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_phases() {
        let p = PhaseTimes {
            histogram: SimDuration::from_millis(1),
            network_partition: SimDuration::from_millis(2),
            local_partition: SimDuration::from_millis(3),
            build_probe: SimDuration::from_millis(4),
        };
        assert_eq!(p.total(), SimDuration::from_millis(10));
        assert_eq!(p.rows()[2].0, "local_partition");
    }

    #[test]
    fn scaling_is_linear() {
        let p = PhaseTimes {
            histogram: SimDuration::from_millis(10),
            network_partition: SimDuration::from_millis(20),
            local_partition: SimDuration::from_millis(30),
            build_probe: SimDuration::from_millis(40),
        };
        let q = p.scaled(256.0);
        assert_eq!(q.histogram, SimDuration::from_millis(2560));
        assert_eq!(q.total(), SimDuration::from_millis(25600));
    }
}
