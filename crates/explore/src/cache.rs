//! Memoized model evaluation: the [`EvalCache`].
//!
//! Every configuration in the space reuses the same handful of per-type
//! operating points — a `(node type, cores, freq)` tuple has at most
//! `Σ_i c_max,i · |F_i|` distinct values (38 for the paper's A9+K10
//! space) while the space itself has tens of thousands of configurations.
//! The uncached path rebuilds a [`SingleNodeModel`] and re-derives the
//! node rate and per-op energy for every group of every configuration;
//! the cache computes each operating point once and composes cluster
//! results from the stored values in O(groups).
//!
//! The memo is dense and lock-free: one `OnceLock` slot per `(profile,
//! cores, DVFS level)`, found by profile name and by bit-equality with a
//! DVFS level, so a hit is one acquire load. Keys outside every table
//! take a locked slow path with the same results (DESIGN.md §12).
//!
//! ## Bit-identity contract
//!
//! [`EvalCache::evaluate`] reproduces the **exact floating-point
//! operation sequence** of the uncached path
//! ([`evaluate_config`](crate::evaluate_config) with no cache, i.e.
//! `ClusterModel` over `try_rate_matched_split`):
//!
//! * node rate: `SingleNodeModel::throughput(cores, freq)`, summed into
//!   the cluster rate in group order as `count as f64 * rate`;
//! * per-node share: `node_rate[i] / cluster_rate`;
//! * job time: `ops / cluster_rate`;
//! * job energy: `Σ count as f64 * ((share * ops) * energy_per_op)` where
//!   `energy_per_op = SingleNodeModel::energy(1.0, cores, freq).total()`
//!   — valid because every time term of the model is linear through the
//!   origin in ops, and matching `ClusterModel::job_energy`'s per-op
//!   form;
//! * busy power: `job_energy / job_time`.
//!
//! Cached and uncached results are therefore equal with `==`, not just
//! within a tolerance (asserted by the tests below and by the
//! space-level proptests). If `ClusterModel` or the split change their
//! arithmetic, this module must change in lockstep.

use crate::space::EvaluatedConfig;
use enprop_clustersim::ClusterSpec;
use enprop_workloads::{OperatingPoint, Workload};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Off-table key. The frequency is keyed by its bit pattern, as the dense
/// table keys it by bit-equality with a DVFS level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PointKey {
    node: &'static str,
    cores: u32,
    freq_bits: u64,
}

/// The dense memo of one workload profile: one slot per
/// `(active cores, DVFS level)` of the profile's node, row-major by cores.
#[derive(Debug)]
struct ProfileSlots {
    node: &'static str,
    cores: u32,
    frequencies: Vec<f64>,
    slots: Box<[OnceLock<OperatingPoint>]>,
}

impl ProfileSlots {
    /// The slot of `(cores, freq)`, or `None` when the pair is not on
    /// this profile's table (core count out of range, or a frequency not
    /// bit-equal to one of its DVFS levels).
    fn slot(&self, cores: u32, freq: f64) -> Option<&OnceLock<OperatingPoint>> {
        if cores == 0 || cores > self.cores {
            return None;
        }
        let fi = self
            .frequencies
            .iter()
            .position(|f| f.to_bits() == freq.to_bits())?;
        self.slots
            .get((cores as usize - 1) * self.frequencies.len() + fi)
    }
}

/// Hit/miss totals of an [`EvalCache`].
///
/// Both totals are deterministic for a given evaluation run regardless of
/// thread count or interleaving: lookups per configuration are fixed, and
/// each distinct key misses exactly once because its fill runs once
/// (inside `OnceLock::get_or_init`, or under the off-table lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that computed and stored a new operating point.
    pub misses: u64,
    /// Distinct operating points stored (equals `misses`).
    pub entries: u64,
}

/// Memo of per-`(node type, cores, freq)` operating points for **one**
/// workload. Shareable across threads: the pool's workers evaluate
/// configurations against one cache, and a hit is one acquire load.
#[derive(Debug)]
pub struct EvalCache {
    /// Workload this cache is keyed to (operating points depend on the
    /// workload's demand profile, so a cache must never be reused across
    /// workloads).
    workload: &'static str,
    /// One dense table per workload profile, in profile order.
    profiles: Vec<ProfileSlots>,
    /// Keys outside every dense table (see DESIGN.md §12).
    off_table: Mutex<HashMap<PointKey, OperatingPoint>>,
    lookups: AtomicU64,
    misses: AtomicU64,
}

impl EvalCache {
    /// An empty cache for `workload`, with one unfilled slot per
    /// `(profile, cores, DVFS level)`.
    pub fn new(workload: &Workload) -> Self {
        let profiles = workload
            .profiles
            .iter()
            .map(|p| ProfileSlots {
                node: p.spec.name,
                cores: p.spec.cores,
                frequencies: p.spec.frequencies.clone(),
                slots: (0..p.spec.cores as usize * p.spec.frequencies.len())
                    .map(|_| OnceLock::new())
                    .collect(),
            })
            .collect();
        EvalCache {
            workload: workload.name,
            profiles,
            off_table: Mutex::new(HashMap::new()),
            lookups: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Name of the workload this cache serves.
    pub fn workload(&self) -> &'static str {
        self.workload
    }

    /// Current hit/miss totals.
    pub fn stats(&self) -> CacheStats {
        let misses = self.misses.load(Ordering::Relaxed);
        CacheStats {
            hits: self.lookups.load(Ordering::Relaxed).saturating_sub(misses),
            misses,
            entries: misses,
        }
    }

    /// The memoized operating point for one group tuple, counted as one
    /// lookup.
    ///
    /// `pub(crate)` so the streaming SoA evaluator ([`crate::stream`])
    /// fills its per-type columns through the same memo — one model fill
    /// per distinct `(workload, type, cores, freq)` column entry.
    pub(crate) fn point(
        &self,
        workload: &Workload,
        node: &'static str,
        cores: u32,
        freq: f64,
    ) -> OperatingPoint {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.resolve(workload, node, cores, freq)
    }

    /// The memoized operating point, without counting the lookup. A key
    /// on a profile's dense table is one acquire load once filled; its
    /// fill runs once, and counts the miss inside `get_or_init`.
    fn resolve(
        &self,
        workload: &Workload,
        node: &'static str,
        cores: u32,
        freq: f64,
    ) -> OperatingPoint {
        debug_assert_eq!(
            workload.name, self.workload,
            "EvalCache built for {} used with {}",
            self.workload, workload.name
        );
        let slot = self
            .profiles
            .iter()
            .find(|p| std::ptr::eq(p.node, node) || p.node == node)
            .and_then(|p| p.slot(cores, freq));
        match slot {
            Some(slot) => *slot.get_or_init(|| {
                self.misses.fetch_add(1, Ordering::Relaxed);
                fill(workload, node, cores, freq)
            }),
            None => self.resolve_off_table(workload, node, cores, freq),
        }
    }

    /// The slow path for keys outside every dense table: a missing
    /// profile, or a `(cores, freq)` the profile's table does not hold
    /// bit for bit. Check-then-fill under one lock, so each such key
    /// still misses exactly once.
    #[cold]
    fn resolve_off_table(
        &self,
        workload: &Workload,
        node: &'static str,
        cores: u32,
        freq: f64,
    ) -> OperatingPoint {
        let key = PointKey {
            node,
            cores,
            freq_bits: freq.to_bits(),
        };
        // A fill that panicked (missing profile) inserted nothing, so a
        // poisoned map is still consistent.
        let mut map = self
            .off_table
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(p) = map.get(&key) {
            return *p;
        }
        let p = fill(workload, node, cores, freq);
        self.misses.fetch_add(1, Ordering::Relaxed);
        map.insert(key, p);
        p
    }

    /// Evaluate one configuration from cached operating points —
    /// bit-identical to the uncached `ClusterModel` path (see the module
    /// doc for the mirrored operation sequence).
    ///
    /// # Panics
    /// Panics when the cluster has no capacity or a node type lacks a
    /// calibrated profile, mirroring `ClusterModel::new`.
    pub fn evaluate(&self, workload: &Workload, cluster: ClusterSpec) -> EvaluatedConfig {
        // Each group's point, resolved once in the rate pass and reused
        // by the energy pass; on the stack up to `INLINE_GROUPS` groups.
        let n = cluster.groups.len();
        let mut inline = [ABSENT; INLINE_GROUPS];
        let mut heap = Vec::new();
        let points: &mut [OperatingPoint] = if n <= INLINE_GROUPS {
            &mut inline[..n]
        } else {
            heap.resize(n, ABSENT);
            &mut heap
        };
        // Mirrors try_rate_matched_split_surviving with every node alive;
        // an empty group keeps the `ABSENT` zero rate.
        let mut cluster_rate_ops_s = 0.0;
        let mut groups = 0u64;
        for (g, p) in cluster.groups.iter().zip(points.iter_mut()) {
            if g.count == 0 {
                continue;
            }
            *p = self.resolve(workload, g.spec.name, g.cores, g.freq);
            cluster_rate_ops_s += g.count as f64 * p.rate_ops_s;
            groups += 1;
        }
        // Two lookups (rate + energy) per non-empty group, added once.
        self.lookups.fetch_add(2 * groups, Ordering::Relaxed);
        assert!(
            cluster_rate_ops_s > 0.0,
            "workload {} has no capacity on an empty cluster",
            workload.name
        );
        let ops = workload.ops_per_job;
        let job_time_s = ops / cluster_rate_ops_s;
        // Mirrors ClusterModel::job_energy's per-op composition.
        let mut job_energy_j = 0.0;
        for (g, p) in cluster.groups.iter().zip(points.iter()) {
            if g.count == 0 {
                continue;
            }
            let node_ops = (p.rate_ops_s / cluster_rate_ops_s) * ops;
            job_energy_j += g.count as f64 * (node_ops * p.j_per_op);
        }
        let busy_power_w = job_energy_j / job_time_s;
        EvaluatedConfig {
            job_time: job_time_s,
            job_energy: job_energy_j,
            busy_power_w,
            idle_power_w: cluster.idle_w(),
            nameplate_w: cluster.nameplate_w(),
            cluster,
        }
    }
}

/// Groups [`EvalCache::evaluate`] resolves into a stack buffer; larger
/// clusters use a heap buffer with the same arithmetic.
const INLINE_GROUPS: usize = 8;

/// Placeholder point of an empty group (its rate contributes nothing).
const ABSENT: OperatingPoint = OperatingPoint {
    rate_ops_s: 0.0,
    j_per_op: 0.0,
};

/// Compute one operating point, panicking with the typed error's text
/// (`MissingProfile`) when the workload has no profile for `node`.
fn fill(workload: &Workload, node: &str, cores: u32, freq: f64) -> OperatingPoint {
    workload
        .try_operating_point(node, cores, freq)
        .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{configurations, evaluate_config, TypeSpace};
    use enprop_workloads::catalog;

    #[test]
    fn cached_results_are_bit_identical_to_uncached() {
        for name in ["EP", "blackscholes", "x264"] {
            let w = catalog::by_name(name).unwrap();
            let cache = EvalCache::new(&w);
            let types = [TypeSpace::a9(3), TypeSpace::k10(2)];
            for cluster in configurations(&types) {
                let plain = evaluate_config(&w, cluster.clone(), None);
                assert_same_bits(&plain, &cache.evaluate(&w, cluster));
            }
            // More groups than the stack buffer holds, empty ones among
            // them.
            let wide: Vec<enprop_clustersim::NodeGroup> = configurations(&types)
                .flat_map(|c| c.groups)
                .step_by(97)
                .take(INLINE_GROUPS + 3)
                .enumerate()
                .map(|(i, mut g)| {
                    g.count *= (i % 3) as u32;
                    g
                })
                .collect();
            assert_eq!(wide.len(), INLINE_GROUPS + 3);
            let wide = ClusterSpec::new(wide);
            let plain = evaluate_config(&w, wide.clone(), None);
            assert_same_bits(&plain, &cache.evaluate(&w, wide));
        }
    }

    #[test]
    fn entries_are_bounded_by_distinct_operating_points() {
        let w = catalog::by_name("EP").unwrap();
        let cache = EvalCache::new(&w);
        let types = [TypeSpace::a9(3), TypeSpace::k10(2)];
        for cluster in configurations(&types) {
            let _ = cache.evaluate(&w, cluster);
        }
        let stats = cache.stats();
        // A9: 4 cores × 5 freqs; K10: 6 cores × 3 freqs → ≤ 38 points.
        assert_eq!(stats.entries, 38);
        assert_eq!(stats.misses, stats.entries);
        assert!(stats.hits > stats.misses * 10, "{stats:?}");
    }

    #[test]
    fn hit_miss_totals_account_for_every_lookup() {
        let w = catalog::by_name("EP").unwrap();
        let cache = EvalCache::new(&w);
        let types = [TypeSpace::a9(2), TypeSpace::k10(1)];
        // Two lookups (rate + energy) per non-empty group per config; the
        // streaming iterator is deterministic, so two passes see the same
        // configurations without materializing the space.
        let lookups: u64 = configurations(&types)
            .map(|c| 2 * c.groups.iter().filter(|g| g.count > 0).count() as u64)
            .sum();
        for cluster in configurations(&types) {
            let _ = cache.evaluate(&w, cluster);
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, lookups);
    }

    fn assert_same_bits(plain: &EvaluatedConfig, cached: &EvaluatedConfig) {
        assert_eq!(plain.job_time.to_bits(), cached.job_time.to_bits());
        assert_eq!(plain.job_energy.to_bits(), cached.job_energy.to_bits());
        assert_eq!(plain.busy_power_w.to_bits(), cached.busy_power_w.to_bits());
        assert_eq!(plain.idle_power_w.to_bits(), cached.idle_power_w.to_bits());
        assert_eq!(plain.nameplate_w.to_bits(), cached.nameplate_w.to_bits());
    }

    #[test]
    fn off_table_frequency_matches_the_uncached_path() {
        use enprop_clustersim::NodeGroup;
        use enprop_nodesim::NodeSpec;
        let w = catalog::by_name("x264").unwrap();
        let cache = EvalCache::new(&w);
        let a9 = NodeSpec::cortex_a9();
        // Within validate_operating_point's 1e-6 tolerance of fmax, but
        // not bit-equal to it: off the dense table.
        let near_fmax = a9.fmax() + 1.0;
        assert_ne!(near_fmax.to_bits(), a9.fmax().to_bits());
        let mut off = NodeGroup::full(a9, 3);
        off.freq = near_fmax;
        off.cores = 2;
        let on = NodeGroup::full(NodeSpec::opteron_k10(), 1);
        let cluster = ClusterSpec::new(vec![off, on]);
        for pass in 1..=3u64 {
            let plain = evaluate_config(&w, cluster.clone(), None);
            let cached = cache.evaluate(&w, cluster.clone());
            assert_same_bits(&plain, &cached);
            // One off-table and one dense point, each filled once; two
            // lookups per group per configuration.
            let stats = cache.stats();
            assert_eq!(stats.misses, 2);
            assert_eq!(stats.entries, 2);
            assert_eq!(stats.hits + stats.misses, 4 * pass);
        }
        // The bit-equal level is its own, dense, entry.
        let mut exact = NodeGroup::full(NodeSpec::cortex_a9(), 3);
        exact.cores = 2;
        let exact = ClusterSpec::new(vec![exact]);
        assert_same_bits(
            &evaluate_config(&w, exact.clone(), None),
            &cache.evaluate(&w, exact),
        );
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    #[should_panic(expected = "has no calibrated profile for node type K10")]
    fn missing_profile_panics_with_the_typed_error_text() {
        let mut w = catalog::by_name("EP").unwrap();
        w.profiles.retain(|p| p.spec.name != "K10");
        let cache = EvalCache::new(&w);
        let _ = cache.evaluate(&w, ClusterSpec::a9_k10(2, 1));
    }

    #[test]
    #[should_panic(expected = "no capacity")]
    fn empty_cluster_panics_like_the_model() {
        let w = catalog::by_name("EP").unwrap();
        let cache = EvalCache::new(&w);
        let _ = cache.evaluate(&w, ClusterSpec { groups: Vec::new() });
    }
}
