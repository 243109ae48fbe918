//! The front-end dispatcher (paper Fig. 3): Poisson job arrivals queue at
//! a dispatcher and the cluster serves them FIFO, one job at a time (each
//! job is a scale-out program occupying every leaf node).
//!
//! This realizes the M/D/1 assumption of §II-B against *simulated* service
//! times — which wobble with OS jitter, so the queue is really M/G/1 with
//! a small service variance. Tests confirm the M/D/1 closed forms stay
//! accurate, which is the paper's justification for using them.

use crate::run::ClusterSim;
use enprop_faults::{EnpropError, FaultPlan, RetryPolicy};
use enprop_obs::{NoopRecorder, Recorder};
use enprop_queueing::{exact_quantile, ArrivalProcess, OnlineStats, QueueSim, ServiceProcess};

/// Result of a dispatcher-queue simulation.
#[derive(Debug, Clone)]
pub struct ClusterQueueResult {
    /// Response-time statistics (wait + service), seconds.
    pub response: OnlineStats,
    /// All response-time samples (post-warmup), for exact quantiles.
    pub samples: Vec<f64>,
    /// Measured utilization.
    pub utilization: f64,
}

impl ClusterQueueResult {
    /// Exact response-time quantile, seconds.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        exact_quantile(&self.samples, q)
    }
}

/// Dispatcher queue over simulated cluster service times: builds the
/// service pool and hands it to the [`QueueSim`] DES as an
/// [`ServiceProcess::Empirical`] process.
#[derive(Debug)]
pub struct ClusterQueueSim {
    service: ServiceProcess,
    /// Jobs in the pool that needed at least one retry (0 when the pool
    /// was built without a fault plan).
    retried_jobs: usize,
}

impl ClusterQueueSim {
    /// Pre-simulate `pool` distinct jobs on the cluster to build an
    /// empirical service-time distribution. Rejects an empty pool with
    /// [`EnpropError::InvalidConfig`].
    pub fn new(sim: &ClusterSim<'_>, pool: usize, seed: u64) -> Result<Self, EnpropError> {
        Self::with_faults(
            sim,
            pool,
            seed,
            &FaultPlan::none(),
            &RetryPolicy::standard(),
            &mut NoopRecorder,
        )
    }

    /// Like [`ClusterQueueSim::new`], but every pooled job runs under the
    /// fault plan with recovery — the dispatcher then queues jobs whose
    /// service times are inflated by re-dispatch waves, timed-out attempts
    /// and backoff. A job that exhausts its retry budget propagates the
    /// error (size the budget for the plan's fault rate). Each pooled
    /// job's attempts, fault instants, recovery waves and backoffs land on
    /// `rec` at its back-to-back start time.
    pub fn with_faults<R: Recorder>(
        sim: &ClusterSim<'_>,
        pool: usize,
        seed: u64,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        rec: &mut R,
    ) -> Result<Self, EnpropError> {
        if pool == 0 {
            return Err(EnpropError::invalid_config(
                "service pool must hold at least one job",
            ));
        }
        let mut service_pool = Vec::with_capacity(pool);
        let mut retried_jobs = 0;
        let mut t0 = 0.0;
        for i in 0..pool {
            let f = sim.run_job_under_plan(
                plan,
                policy,
                seed.wrapping_add(i as u64 * 104_729),
                t0,
                rec,
            )?;
            if f.attempts > 1 {
                retried_jobs += 1;
            }
            service_pool.push(f.run.duration);
            t0 += f.run.duration;
        }
        Ok(ClusterQueueSim {
            service: ServiceProcess::Empirical { pool: service_pool },
            retried_jobs,
        })
    }

    /// Mean simulated service time, seconds.
    pub fn mean_service(&self) -> f64 {
        self.service.mean()
    }

    /// Pooled jobs that needed at least one retry.
    pub fn retried_jobs(&self) -> usize {
        self.retried_jobs
    }

    /// Run `jobs` Poisson arrivals at the arrival rate that offers
    /// `utilization`, discarding `warmup` jobs. The utilization must lie
    /// strictly inside `(0, 1)` for the queue to be stable.
    pub fn run(
        &self,
        utilization: f64,
        jobs: usize,
        warmup: usize,
        seed: u64,
    ) -> Result<ClusterQueueResult, EnpropError> {
        self.run_obs(utilization, jobs, warmup, seed, &mut NoopRecorder)
    }

    /// [`ClusterQueueSim::run`] recording the dispatcher telemetry of
    /// [`QueueSim::run`] into `rec`.
    pub fn run_obs<R: Recorder>(
        &self,
        utilization: f64,
        jobs: usize,
        warmup: usize,
        seed: u64,
        rec: &mut R,
    ) -> Result<ClusterQueueResult, EnpropError> {
        if !(utilization > 0.0 && utilization < 1.0) {
            return Err(EnpropError::invalid_parameter(
                "utilization",
                format!("must be in (0, 1) for a stable queue, got {utilization}"),
            ));
        }
        let arrivals = ArrivalProcess::Poisson {
            rate: utilization / self.mean_service(),
        };
        let r = QueueSim::new(arrivals, self.service.clone()).run(jobs, warmup, seed, rec);
        Ok(ClusterQueueResult {
            response: r.response,
            samples: r.response_samples,
            utilization: r.measured_utilization,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::run::ClusterSim;
    use enprop_queueing::{Queue, MD1};
    use enprop_workloads::catalog;

    #[test]
    fn dispatcher_matches_md1_closed_form() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(8, 4);
        let sim = ClusterSim::new(&w, &c);
        let q = ClusterQueueSim::new(&sim, 16, 7).unwrap();
        let res = q.run(0.7, 60_000, 5_000, 11).unwrap();
        let md1 = MD1::from_utilization(q.mean_service(), 0.7);
        let rel = (res.response.mean() - md1.mean_response_time()).abs()
            / md1.mean_response_time();
        assert!(rel < 0.08, "mean response off by {rel}");
        let p95_sim = res.quantile(0.95).unwrap();
        let p95_md1 = md1.response_time_quantile(0.95);
        let rel = (p95_sim - p95_md1).abs() / p95_md1;
        assert!(rel < 0.10, "p95 off by {rel}: {p95_sim} vs {p95_md1}");
    }

    /// FNV-1a digest of the response-sample bits of dispatcher runs for EP
    /// and x264 on two Figs. 11/12 mixes at three loads. Recorded before
    /// the dispatcher loop moved into `QueueSim`; it must never drift.
    #[test]
    fn dispatcher_fingerprint_is_pinned() {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for name in ["EP", "x264"] {
            let w = catalog::by_name(name).unwrap();
            for (a9, k10) in [(32, 12), (25, 7)] {
                let c = ClusterSpec::a9_k10(a9, k10);
                let q = ClusterQueueSim::new(&ClusterSim::new(&w, &c), 16, 7).unwrap();
                for u in [0.3, 0.7, 0.9] {
                    for s in q.run(u, 20_000, 2_000, 11).unwrap().samples {
                        for b in s.to_bits().to_le_bytes() {
                            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                        }
                    }
                }
            }
        }
        assert_eq!(h, 0x5eee_7a66_a7f3_0de4, "fingerprint {h:#018x}");
    }

    #[test]
    fn response_time_explodes_toward_saturation() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(4, 2);
        let sim = ClusterSim::new(&w, &c);
        let q = ClusterQueueSim::new(&sim, 8, 3).unwrap();
        let lo = q.run(0.3, 20_000, 2_000, 5).unwrap();
        let hi = q.run(0.95, 20_000, 2_000, 5).unwrap();
        assert!(
            hi.response.mean() > 3.0 * lo.response.mean(),
            "queueing delay must dominate at high load"
        );
    }

    #[test]
    fn measured_utilization_tracks_target() {
        let w = catalog::by_name("blackscholes").unwrap();
        let c = ClusterSpec::a9_k10(4, 2);
        let sim = ClusterSim::new(&w, &c);
        let q = ClusterQueueSim::new(&sim, 8, 1).unwrap();
        let res = q.run(0.6, 40_000, 4_000, 2).unwrap();
        assert!((res.utilization - 0.6).abs() < 0.03, "u = {}", res.utilization);
    }

    #[test]
    fn bad_pool_and_utilization_are_typed_errors() {
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(4, 2);
        let sim = ClusterSim::new(&w, &c);
        assert!(matches!(
            ClusterQueueSim::new(&sim, 0, 1),
            Err(enprop_faults::EnpropError::InvalidConfig(_))
        ));
        let q = ClusterQueueSim::new(&sim, 4, 1).unwrap();
        assert!(q.run(0.0, 100, 10, 1).is_err());
        assert!(q.run(1.0, 100, 10, 1).is_err());
        // Zero measured jobs is a valid, empty run.
        assert!(q.run(0.5, 0, 10, 1).unwrap().samples.is_empty());
    }

    #[test]
    fn recording_leaves_the_run_bit_identical() {
        use enprop_obs::MemoryRecorder;
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(4, 2);
        let q = ClusterQueueSim::new(&ClusterSim::new(&w, &c), 8, 1).unwrap();
        let mut rec = MemoryRecorder::new();
        let traced = q.run_obs(0.7, 1_000, 100, 3, &mut rec).unwrap();
        let plain = q.run(0.7, 1_000, 100, 3).unwrap();
        // Responses are positive and finite, so `==` is bit equality.
        assert_eq!(plain.samples, traced.samples);
        assert_eq!(rec.counters()["dispatch.jobs"], 1_000);
        assert_eq!(rec.histograms()["queue.response_s"].count(), 1_000);
    }

    #[test]
    fn faulted_pool_inflates_service_times() {
        use enprop_faults::{GroupFaultProfile, MtbfModel};
        let w = catalog::by_name("EP").unwrap();
        let c = ClusterSpec::a9_k10(8, 4);
        let sim = ClusterSim::new(&w, &c);
        let clean = ClusterQueueSim::new(&sim, 8, 7).unwrap();
        let job = sim.run_job(7);
        let plan = FaultPlan::uniform(
            1,
            GroupFaultProfile::crashes(MtbfModel::Exponential {
                mtbf_s: job.duration * 4.0,
            }),
            2,
        );
        let policy = RetryPolicy {
            max_retries: 8,
            timeout_factor: 10.0,
            backoff_base_s: 1.0,
            backoff_multiplier: 2.0,
            backoff_cap_s: f64::INFINITY,
        };
        let faulted =
            ClusterQueueSim::with_faults(&sim, 8, 7, &plan, &policy, &mut NoopRecorder).unwrap();
        assert!(
            faulted.mean_service() > clean.mean_service(),
            "faults must inflate service: {} vs {}",
            faulted.mean_service(),
            clean.mean_service()
        );
        // The clean pool is exactly the fault-free job durations.
        let pool: Vec<f64> = (0..8u64)
            .map(|i| sim.run_job(7 + i * 104_729).duration)
            .collect();
        assert_eq!(clean.mean_service(), pool.iter().sum::<f64>() / 8.0);
        assert_eq!(clean.retried_jobs(), 0);
    }
}
