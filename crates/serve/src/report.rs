//! What a serving run reports: request accounting (the conservation
//! invariant), latency and energy aggregates, and every class of
//! fault-tolerance / reconfiguration action taken.

/// The outcome of one [`crate::Controller`] run.
///
/// The load-bearing invariant is conservation: every arrival is accounted
/// for exactly once — completed, shed (by admission control or retry
/// exhaustion), or still in flight at a forced stop. The chaos harness
/// asserts [`ServeReport::conservation_ok`] under randomized fault plans.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeReport {
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests that completed successfully.
    pub completions: u64,
    /// Requests shed at admission (shed mode or in-flight cap).
    pub shed_admission: u64,
    /// Requests dropped after exhausting their retry budget.
    pub shed_retry: u64,
    /// Requests still in flight when the run force-stopped (0 on a clean
    /// drain).
    pub in_flight_at_stop: u64,
    /// Dispatch timeouts observed.
    pub timeouts: u64,
    /// Retry dispatches (budget-consuming re-dispatches after a timeout).
    pub retries: u64,
    /// Re-routes of queued/running work off nodes detected down (these do
    /// not consume retry budget).
    pub reroutes: u64,
    /// Crash faults injected.
    pub crashes: u64,
    /// Stall faults injected.
    pub stalls: u64,
    /// Straggler faults injected.
    pub stragglers: u64,
    /// Down nodes repaired and re-admitted.
    pub repairs: u64,
    /// Controller decisions: nodes activated.
    pub activations: u64,
    /// Controller decisions: nodes drained / deactivated.
    pub deactivations: u64,
    /// Controller decisions: DVFS steps up.
    pub dvfs_up: u64,
    /// Controller decisions: DVFS steps down (brownout).
    pub dvfs_down: u64,
    /// Shed-mode entries + exits.
    pub shed_toggles: u64,
    /// Requests shed by bounded-queue backpressure (pending queue full).
    /// Counted inside [`ServeReport::shed`] alongside the admission sheds.
    pub shed_backpressure: u64,
    /// Correlated rack-crash events (each hits a whole rack atomically).
    pub rack_crashes: u64,
    /// Correlated PDU-loss events (crash + zero watts until repair).
    pub pdu_losses: u64,
    /// Correlated network partitions (domain-wide stalls).
    pub partitions: u64,
    /// Cluster-wide power emergencies entered.
    pub power_emergencies: u64,
    /// Emergency-ladder escalations taken (brownout / park / shed rungs).
    pub emergency_actions: u64,
    /// Circuit breakers opened (including half-open probes that failed).
    pub breaker_opens: u64,
    /// Circuit breakers closed by a successful half-open probe.
    pub breaker_closes: u64,
    /// Virtual time served, seconds.
    pub horizon_s: f64,
    /// Cluster energy over the run, joules.
    pub energy_j: f64,
    /// Mean cluster power, watts (`energy_j / horizon_s`).
    pub mean_power_w: f64,
    /// Mean response time of completed requests, seconds.
    pub mean_response_s: f64,
    /// Median response time, seconds (`NaN` when nothing completed).
    pub p50_s: f64,
    /// 95th-percentile response time, seconds (`NaN` when nothing
    /// completed).
    pub p95_s: f64,
    /// 99th-percentile response time, seconds (`NaN` when nothing
    /// completed).
    pub p99_s: f64,
    /// 99.9th-percentile response time, seconds (`NaN` when nothing
    /// completed). Sourced from the bounded-memory sketch, accurate to
    /// the documented relative-error bound (DESIGN.md §14).
    pub p999_s: f64,
    /// Discrete events processed (the livelock guard's measure).
    pub events: u64,
    /// True when the drain deadline force-stopped the run with work still
    /// in flight.
    pub forced_stop: bool,
}

impl ServeReport {
    /// The run counters the controller tallies, under their checkpoint
    /// keys in `ctl`-line order (DESIGN.md §16): the one table both the
    /// snapshot writer and reader walk.
    pub(crate) fn counters_mut(&mut self) -> [(&'static str, &mut u64); 24] {
        [
            ("n_arrivals", &mut self.arrivals),
            ("n_completions", &mut self.completions),
            ("n_shed_admission", &mut self.shed_admission),
            ("n_shed_retry", &mut self.shed_retry),
            ("n_shed_backpressure", &mut self.shed_backpressure),
            ("n_timeouts", &mut self.timeouts),
            ("n_retries", &mut self.retries),
            ("n_reroutes", &mut self.reroutes),
            ("n_crashes", &mut self.crashes),
            ("n_stalls", &mut self.stalls),
            ("n_stragglers", &mut self.stragglers),
            ("n_repairs", &mut self.repairs),
            ("n_activations", &mut self.activations),
            ("n_deactivations", &mut self.deactivations),
            ("n_dvfs_up", &mut self.dvfs_up),
            ("n_dvfs_down", &mut self.dvfs_down),
            ("n_shed_toggles", &mut self.shed_toggles),
            ("n_rack_crashes", &mut self.rack_crashes),
            ("n_pdu_losses", &mut self.pdu_losses),
            ("n_partitions", &mut self.partitions),
            ("n_power_emergencies", &mut self.power_emergencies),
            ("n_emergency_actions", &mut self.emergency_actions),
            ("n_breaker_opens", &mut self.breaker_opens),
            ("n_breaker_closes", &mut self.breaker_closes),
        ]
    }

    /// Total shed requests (admission + backpressure + retry exhaustion).
    pub fn shed(&self) -> u64 {
        self.shed_admission + self.shed_backpressure + self.shed_retry
    }

    /// The conservation invariant: `arrivals = completions + shed +
    /// in-flight`.
    pub fn conservation_ok(&self) -> bool {
        self.arrivals == self.completions + self.shed() + self.in_flight_at_stop
    }

    /// One-line accounting summary (ends with `conservation: OK` /
    /// `conservation: VIOLATED` — the serve-smoke gate greps for it).
    pub fn conservation_line(&self) -> String {
        format!(
            "arrivals {} = completions {} + shed {} + in-flight {} … conservation: {}",
            self.arrivals,
            self.completions,
            self.shed(),
            self.in_flight_at_stop,
            if self.conservation_ok() { "OK" } else { "VIOLATED" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_balances() {
        let r = ServeReport {
            arrivals: 100,
            completions: 90,
            shed_admission: 4,
            shed_retry: 3,
            in_flight_at_stop: 3,
            ..ServeReport::default()
        };
        assert!(r.conservation_ok());
        assert_eq!(r.shed(), 7);
        assert!(r.conservation_line().ends_with("conservation: OK"));

        let bad = ServeReport {
            arrivals: 100,
            completions: 90,
            ..ServeReport::default()
        };
        assert!(!bad.conservation_ok());
        assert!(bad.conservation_line().ends_with("conservation: VIOLATED"));
    }
}
