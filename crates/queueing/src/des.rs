//! Discrete-event simulation of a single-server FIFO queue.
//!
//! The analytic M/D/1 results hold under idealized assumptions; the
//! simulator both cross-validates them (its tests assert agreement with the
//! closed forms) and is the cluster dispatcher of paper Fig. 3, where the
//! cluster simulator supplies a pool of simulated job durations
//! ([`ServiceProcess::Empirical`]) instead of a constant.

use crate::stats::{exact_quantile, OnlineStats};
use enprop_obs::{Recorder, Track};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Cap on per-job trace records emitted by [`QueueSim::run`]: DES runs
/// measure hundreds of thousands of jobs, and tracing each would swamp any
/// viewer. Aggregates (histograms, tallies) still cover every job.
const MAX_TRACED_JOBS: usize = 512;

/// Job inter-arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals at the given rate (jobs/second) — the paper's model.
    Poisson {
        /// Mean arrival rate, jobs per second.
        rate: f64,
    },
    /// Evenly spaced arrivals (closed-loop batch submission baseline).
    Deterministic {
        /// Fixed inter-arrival gap, seconds.
        interval: f64,
    },
}

impl ArrivalProcess {
    fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        match *self {
            // Inverse CDF; 1 − U avoids ln(0).
            ArrivalProcess::Poisson { rate } => -(1.0 - rng.gen::<f64>()).ln() / rate,
            ArrivalProcess::Deterministic { interval } => interval,
        }
    }
}

/// Per-job service-time process.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceProcess {
    /// Fixed service time (the paper's deterministic job model).
    Deterministic {
        /// Service time, seconds.
        time: f64,
    },
    /// Exponential service with the given mean (M/M/1 validation).
    Exponential {
        /// Mean service time, seconds.
        mean: f64,
    },
    /// Uniform service on `[lo, hi]` (low-variance M/G/1 validation).
    Uniform {
        /// Smallest service time, seconds.
        lo: f64,
        /// Largest service time, seconds.
        hi: f64,
    },
    /// A uniformly drawn entry of a pool of observed service times (the
    /// cluster dispatcher's pre-simulated job durations).
    Empirical {
        /// Observed service times, seconds; must be non-empty.
        pool: Vec<f64>,
    },
}

impl ServiceProcess {
    fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        match self {
            ServiceProcess::Deterministic { time } => *time,
            ServiceProcess::Exponential { mean } => -(1.0 - rng.gen::<f64>()).ln() * mean,
            ServiceProcess::Uniform { lo, hi } => rng.gen_range(*lo..=*hi),
            ServiceProcess::Empirical { pool } => pool[rng.gen_range(0..pool.len())],
        }
    }

    /// Mean of the process, seconds.
    pub fn mean(&self) -> f64 {
        match self {
            ServiceProcess::Deterministic { time } => *time,
            ServiceProcess::Exponential { mean } => *mean,
            ServiceProcess::Uniform { lo, hi } => 0.5 * (lo + hi),
            ServiceProcess::Empirical { pool } => pool.iter().sum::<f64>() / pool.len() as f64,
        }
    }

    /// Squared coefficient of variation (`Var/mean²`).
    pub fn scv(&self) -> f64 {
        match self {
            ServiceProcess::Deterministic { .. } => 0.0,
            ServiceProcess::Exponential { .. } => 1.0,
            ServiceProcess::Uniform { lo, hi } => {
                let mean = 0.5 * (lo + hi);
                let var = (hi - lo) * (hi - lo) / 12.0;
                var / (mean * mean)
            }
            ServiceProcess::Empirical { pool } => {
                let mean = self.mean();
                let var =
                    pool.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / pool.len() as f64;
                var / (mean * mean)
            }
        }
    }
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Streaming statistics of the response time (wait + service, seconds).
    pub response: OnlineStats,
    /// All measured response times (post-warmup), for exact quantiles.
    pub response_samples: Vec<f64>,
    /// Fraction of simulated time the server was busy.
    pub measured_utilization: f64,
    /// Total simulated time span, seconds.
    pub horizon: f64,
}

impl SimResult {
    /// Exact `q`-quantile of the measured response times.
    pub fn response_quantile(&self, q: f64) -> Option<f64> {
        exact_quantile(&self.response_samples, q)
    }
}

/// A single-server FIFO queue simulator.
///
/// ```
/// use enprop_obs::NoopRecorder;
/// use enprop_queueing::QueueSim;
/// let result = QueueSim::md1(0.01, 0.5).run(10_000, 1_000, 42, &mut NoopRecorder);
/// let p95 = result.response_quantile(0.95).unwrap();
/// assert!(p95 >= 0.01); // never below the service time
/// ```
#[derive(Debug, Clone)]
pub struct QueueSim {
    // Private so that `new`'s checks hold for every simulator.
    arrivals: ArrivalProcess,
    service: ServiceProcess,
}

impl QueueSim {
    /// Build a simulator from arrival and service processes.
    ///
    /// # Panics
    /// Panics on a Poisson rate that is not positive or an empty
    /// empirical pool.
    pub fn new(arrivals: ArrivalProcess, service: ServiceProcess) -> Self {
        if let ArrivalProcess::Poisson { rate } = arrivals {
            assert!(rate > 0.0, "Poisson rate must be positive");
        }
        if let ServiceProcess::Empirical { pool } = &service {
            assert!(!pool.is_empty(), "empirical service pool must be non-empty");
        }
        QueueSim { arrivals, service }
    }

    /// The paper's construction: deterministic service `T_P` with Poisson
    /// arrivals tuned so `U = λ·T_P` equals the requested utilization.
    pub fn md1(service_time: f64, utilization: f64) -> Self {
        assert!(service_time > 0.0, "service time must be positive");
        assert!(
            (0.0..1.0).contains(&utilization) && utilization > 0.0,
            "utilization must be in (0, 1)"
        );
        QueueSim::new(
            ArrivalProcess::Poisson {
                rate: utilization / service_time,
            },
            ServiceProcess::Deterministic { time: service_time },
        )
    }

    /// Run `jobs` measured jobs after discarding `warmup` jobs, with a
    /// fixed RNG seed for reproducibility. `jobs` may be zero (an empty
    /// result).
    ///
    /// Telemetry lands on the dispatcher track: a `dispatch.queue_depth`
    /// gauge and a sojourn (`job`) span per measured arrival (the first
    /// [`MAX_TRACED_JOBS`] of them), plus `queue.wait_s` /
    /// `queue.response_s` histograms and a `dispatch.jobs` tally over
    /// *every* measured job. The result is bit-identical for any `R` —
    /// instrumentation draws no random numbers.
    pub fn run<R: Recorder>(
        &self,
        jobs: usize,
        warmup: usize,
        seed: u64,
        rec: &mut R,
    ) -> SimResult {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut response = OnlineStats::new();
        let mut samples = Vec::with_capacity(jobs);

        let mut clock = 0.0f64; // arrival clock
        let mut server_free = 0.0f64;
        let mut busy = 0.0f64;
        let mut first_measured_arrival = 0.0f64;
        // Pending departure times of jobs still in the system (arrival-time
        // queue-depth bookkeeping; only maintained when recording).
        let mut in_system: VecDeque<f64> = VecDeque::new();
        let mut traced = 0usize;

        for i in 0..jobs + warmup {
            clock += self.arrivals.sample(&mut rng);
            let service = self.service.sample(&mut rng);
            let start = clock.max(server_free);
            server_free = start + service;

            if R::ACTIVE {
                while in_system.front().is_some_and(|&d| d <= clock) {
                    in_system.pop_front();
                }
                if i >= warmup {
                    rec.tally("dispatch.jobs", 1);
                    rec.observe("queue.wait_s", start - clock);
                    rec.observe("queue.response_s", server_free - clock);
                    if traced < MAX_TRACED_JOBS {
                        traced += 1;
                        rec.gauge(
                            clock,
                            Track::Dispatcher,
                            "dispatch.queue_depth",
                            in_system.len() as f64,
                        );
                        rec.span_begin(clock, Track::Dispatcher, "job", i as u64);
                        rec.span_end(server_free, Track::Dispatcher, "job", i as u64);
                    }
                }
                in_system.push_back(server_free);
            }

            if i >= warmup {
                if i == warmup {
                    first_measured_arrival = clock;
                }
                let r = server_free - clock;
                response.push(r);
                samples.push(r);
                busy += service;
            }
        }

        let horizon = (server_free - first_measured_arrival).max(f64::MIN_POSITIVE);
        SimResult {
            response,
            response_samples: samples,
            measured_utilization: (busy / horizon).min(1.0),
            horizon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Queue, MD1, MG1, MM1};
    use enprop_obs::{MemoryRecorder, NoopRecorder};

    const JOBS: usize = 200_000;
    const WARMUP: usize = 20_000;

    #[test]
    fn md1_mean_wait_matches_pk() {
        let service = 0.01;
        for u in [0.3, 0.6, 0.8] {
            let sim = QueueSim::md1(service, u).run(JOBS, WARMUP, 42, &mut NoopRecorder);
            let wait = sim.response.mean() - service;
            let theory = MD1::from_utilization(service, u).mean_wait();
            let err = (wait - theory).abs() / theory;
            assert!(err < 0.05, "u = {u}: sim {wait} vs theory {theory}");
        }
    }

    #[test]
    fn md1_p95_matches_crommelin() {
        let service = 0.01;
        for u in [0.5, 0.8, 0.9] {
            let sim = QueueSim::md1(service, u).run(JOBS, WARMUP, 7, &mut NoopRecorder);
            let p95_sim = sim.response_quantile(0.95).unwrap();
            let p95_theory = MD1::from_utilization(service, u).response_time_quantile(0.95);
            let err = (p95_sim - p95_theory).abs() / p95_theory;
            assert!(err < 0.05, "u = {u}: sim {p95_sim} vs theory {p95_theory}");
        }
    }

    #[test]
    fn mm1_matches_closed_form() {
        let mean = 0.02;
        let u = 0.7;
        let sim = QueueSim::new(
            ArrivalProcess::Poisson { rate: u / mean },
            ServiceProcess::Exponential { mean },
        )
        .run(JOBS, WARMUP, 11, &mut NoopRecorder);
        let q = MM1::from_utilization(mean, u);
        assert!((sim.response.mean() - q.mean_response_time()).abs() / q.mean_response_time() < 0.05);
        let p95_sim = sim.response_quantile(0.95).unwrap();
        let p95_th = q.response_time_quantile(0.95);
        assert!((p95_sim - p95_th).abs() / p95_th < 0.05);
    }

    #[test]
    fn uniform_service_matches_mg1_mean() {
        let (lo, hi) = (0.005, 0.015);
        let svc = ServiceProcess::Uniform { lo, hi };
        let u = 0.75;
        let q = MG1::from_utilization(svc.mean(), svc.scv(), u);
        let sim = QueueSim::new(
            ArrivalProcess::Poisson {
                rate: u / svc.mean(),
            },
            svc,
        )
        .run(JOBS, WARMUP, 3, &mut NoopRecorder);
        let wait = sim.response.mean() - 0.5 * (lo + hi);
        let err = (wait - q.mean_wait()).abs() / q.mean_wait();
        assert!(err < 0.06, "sim {wait} vs theory {}", q.mean_wait());
    }

    #[test]
    fn measured_utilization_tracks_offered_load() {
        let sim = QueueSim::md1(0.01, 0.6).run(JOBS, WARMUP, 5, &mut NoopRecorder);
        assert!((sim.measured_utilization - 0.6).abs() < 0.02);
    }

    #[test]
    fn deterministic_arrivals_below_capacity_never_queue() {
        // D/D/1 with interval > service: no job ever waits.
        let mut rec = MemoryRecorder::new();
        let sim = QueueSim::new(
            ArrivalProcess::Deterministic { interval: 0.02 },
            ServiceProcess::Deterministic { time: 0.01 },
        )
        .run(1000, 10, 1, &mut rec);
        assert_eq!(rec.histograms()["queue.wait_s"].max(), Some(0.0));
        assert!((sim.measured_utilization - 0.5).abs() < 0.01);
    }

    #[test]
    fn seeds_reproduce() {
        let run = |seed| QueueSim::md1(0.01, 0.8).run(1000, 100, seed, &mut NoopRecorder);
        assert_eq!(run(99).response.mean(), run(99).response.mean());
        assert_ne!(run(99).response.mean(), run(100).response.mean());
    }

    #[test]
    fn zero_measured_jobs_is_an_empty_run() {
        let sim = QueueSim::md1(0.01, 0.5).run(0, 100, 1, &mut NoopRecorder);
        assert!(sim.response_samples.is_empty());
        assert_eq!(sim.response.count(), 0);
    }

    #[test]
    #[should_panic(expected = "Poisson rate must be positive")]
    fn nonpositive_poisson_rate_is_rejected_at_construction() {
        let _ = QueueSim::new(
            ArrivalProcess::Poisson { rate: 0.0 },
            ServiceProcess::Deterministic { time: 0.01 },
        );
    }

    #[test]
    fn recording_leaves_the_run_bit_identical_and_sees_every_measured_job() {
        let sim = QueueSim::md1(0.01, 0.8);
        let plain = sim.run(2000, 200, 42, &mut NoopRecorder);
        let mut rec = MemoryRecorder::new();
        let traced = sim.run(2000, 200, 42, &mut rec);
        // Responses are positive and finite, so `==` is bit equality.
        assert_eq!(plain.response_samples, traced.response_samples);
        assert_eq!(plain.measured_utilization, traced.measured_utilization);

        assert_eq!(rec.counters()["dispatch.jobs"], 2000);
        assert_eq!(rec.histograms()["queue.wait_s"].count(), 2000);
        assert_eq!(rec.histograms()["queue.response_s"].count(), 2000);
        // Trace records are capped; aggregates are not.
        let spans = rec
            .events()
            .iter()
            .filter(|e| e.name == "job" && matches!(e.kind, enprop_obs::EventKind::SpanBegin))
            .count();
        assert_eq!(spans, super::MAX_TRACED_JOBS);
    }
}
