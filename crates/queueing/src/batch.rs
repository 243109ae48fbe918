//! Batch arrivals: M^\[k]/D/1 — Poisson *batches* of `k` jobs with
//! deterministic per-job service.
//!
//! The paper's §II-C: "Datacenters typically receive multiple jobs
//! concurrently from many users. To represent the arrival of multiple
//! jobs, we vary the number of jobs per batch" — utilization is then swept
//! by the number of jobs per batch and batches per interval. This module
//! provides the closed-form job-level waiting time for fixed batch sizes
//! and a simulation cross-check.
//!
//! Decomposition (standard batch-queue argument): a batch of `k` jobs
//! behaves like one super-job of service `k·D`, so the *batch* delay is
//! the M/D/1 wait with service `k·D` at the batch rate; a random job then
//! waits for the `(k−1)/2` batch-mates served before it on average.

use crate::des::SimResult;
use crate::stats::OnlineStats;
use crate::Queue;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// M^\[k]/D/1: Poisson batch arrivals (fixed batch size), deterministic
/// per-job service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchMD1 {
    /// Batch arrival rate, batches/second.
    pub batch_rate: f64,
    /// Jobs per batch (k ≥ 1).
    pub batch_size: u32,
    /// Per-job service time, seconds.
    pub service: f64,
}

impl BatchMD1 {
    /// Build from batch rate, batch size and per-job service time.
    ///
    /// # Panics
    /// Panics unless parameters are positive and `ρ = λ_B·k·D < 1`.
    pub fn new(batch_rate: f64, batch_size: u32, service: f64) -> Self {
        assert!(batch_rate >= 0.0 && service > 0.0 && batch_size >= 1);
        let q = BatchMD1 {
            batch_rate,
            batch_size,
            service,
        };
        assert!(q.rho() < 1.0, "unstable: rho = {}", q.rho());
        q
    }

    /// Build from a target utilization: `λ_B = u / (k·D)`.
    pub fn from_utilization(service: f64, batch_size: u32, u: f64) -> Self {
        assert!((0.0..1.0).contains(&u), "utilization must be in [0, 1)");
        Self::new(u / (batch_size as f64 * service), batch_size, service)
    }

    /// Job arrival rate `λ = k·λ_B`, jobs/second.
    pub fn job_rate(&self) -> f64 {
        self.batch_size as f64 * self.batch_rate
    }

    /// Mean *batch* delay: M/D/1 wait with super-job service `k·D`.
    pub fn mean_batch_wait(&self) -> f64 {
        let rho = self.rho();
        rho * (self.batch_size as f64 * self.service) / (2.0 * (1.0 - rho))
    }

    /// Mean within-batch delay of a random job: `(k−1)/2 · D`.
    pub fn mean_within_batch_wait(&self) -> f64 {
        (self.batch_size as f64 - 1.0) / 2.0 * self.service
    }
}

impl Queue for BatchMD1 {
    fn rho(&self) -> f64 {
        self.job_rate() * self.service
    }
    fn mean_wait(&self) -> f64 {
        self.mean_batch_wait() + self.mean_within_batch_wait()
    }
    fn mean_response_time(&self) -> f64 {
        self.mean_wait() + self.service
    }
    fn mean_queue_length(&self) -> f64 {
        self.job_rate() * self.mean_wait()
    }
}

/// Simulate an M^\[k]/D/1 queue at job granularity and collect per-job
/// response times (cross-check for [`BatchMD1`] and the engine behind the
/// paper's jobs-per-batch utilization sweeps).
pub fn simulate_batches(
    q: &BatchMD1,
    batches: usize,
    warmup_batches: usize,
    seed: u64,
) -> SimResult {
    assert!(batches > 0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut clock = 0.0f64;
    let mut server_free = 0.0f64;
    let mut response = OnlineStats::new();
    let mut samples = Vec::with_capacity(batches * q.batch_size as usize);
    let mut busy = 0.0f64;
    let mut first = 0.0f64;

    for b in 0..batches + warmup_batches {
        clock += -(1.0 - rng.gen::<f64>()).ln() / q.batch_rate;
        if b == warmup_batches {
            first = clock;
        }
        for _ in 0..q.batch_size {
            let start = clock.max(server_free);
            server_free = start + q.service;
            if b >= warmup_batches {
                let w = start - clock;
                response.push(w + q.service);
                samples.push(w + q.service);
                busy += q.service;
            }
        }
    }
    let horizon = (server_free - first).max(f64::MIN_POSITIVE);
    SimResult {
        response,
        response_samples: samples,
        measured_utilization: (busy / horizon).min(1.0),
        horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::exact_quantile;
    use crate::MD1;

    #[test]
    fn k1_reduces_to_md1() {
        let b = BatchMD1::from_utilization(0.01, 1, 0.7);
        let m = MD1::from_utilization(0.01, 0.7);
        assert!((b.mean_wait() - m.mean_wait()).abs() < 1e-12);
        assert!((b.rho() - m.rho()).abs() < 1e-12);
    }

    #[test]
    fn batching_increases_wait_at_equal_utilization() {
        // Same offered load, burstier arrivals → longer average waits.
        let single = BatchMD1::from_utilization(0.01, 1, 0.6);
        let batched = BatchMD1::from_utilization(0.01, 8, 0.6);
        assert!(batched.mean_wait() > 2.0 * single.mean_wait());
    }

    #[test]
    fn closed_form_matches_simulation() {
        for (k, u) in [(2u32, 0.5), (4, 0.7), (8, 0.8)] {
            let q = BatchMD1::from_utilization(0.01, k, u);
            let sim = simulate_batches(&q, 100_000, 10_000, 42);
            let wait = sim.response.mean() - q.service;
            let rel = (wait - q.mean_wait()).abs() / q.mean_wait();
            assert!(
                rel < 0.05,
                "k={k} u={u}: sim {wait} vs theory {}",
                q.mean_wait()
            );
            assert!((sim.measured_utilization - u).abs() < 0.02);
        }
    }

    #[test]
    fn quantiles_are_available_from_simulation() {
        let q = BatchMD1::from_utilization(0.02, 4, 0.7);
        let sim = simulate_batches(&q, 50_000, 5_000, 7);
        let p95 = exact_quantile(&sim.response_samples, 0.95).unwrap();
        assert!(p95 > sim.response.mean());
    }

    #[test]
    fn within_batch_wait_is_exact_at_zero_load() {
        // As λ_B → 0 batches never queue; only batch-mate waits remain.
        let q = BatchMD1::new(1e-9, 5, 0.01);
        assert!(q.mean_batch_wait() < 1e-9);
        assert!((q.mean_within_batch_wait() - 0.02).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn overload_rejected() {
        let _ = BatchMD1::new(20.0, 10, 0.01);
    }
}
