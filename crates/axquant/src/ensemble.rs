//! Moving-target kernel ensembles: a [`QuantModel`] that answers each
//! query through a multiplier sampled from a configured distribution.
//!
//! MTDeep-style moving-target defense randomizes which network answers
//! each query; the multiplier registry makes the approximate-computing
//! analogue nearly free — one quantized model, many kernels, and a
//! per-query kernel choice the attacker cannot pin down. [`KernelPolicy`]
//! holds the sampling distribution, [`EnsembleModel`] pairs it with a
//! model and a [`MulColumns`] kernel set and routes inference through the
//! batched [`QPlan`] engine, grouping queries by sampled kernel so
//! ensemble inference stays batched.
//!
//! **Determinism contract.** The kernel for query `q` is drawn from
//! `Rng::seed_from_u64(seed).derive(q)` — a function of `(seed, q)`
//! alone. Batch chunking, thread count (`AXDNN_THREADS`) and evaluation
//! order cannot change which kernel answers which query, so ensemble
//! accuracy is bit-identical across thread counts. A single-kernel
//! ensemble degenerates to the fixed-kernel path exactly: every query
//! lands in one group, evaluated in index order by the same batched
//! pass `accuracy_with` uses.

use axmul::{MulColumns, MulLut};
use axtensor::stats::Outcomes;
use axtensor::Tensor;
use axutil::rng::Rng;

use crate::plan::QPlan;
use crate::qmodel::QuantModel;

/// A sampling distribution over kernel columns, keyed by query index.
///
/// The draw for query `q` depends only on `(seed, q)`: policies are
/// stateless, so the same query index always resolves to the same
/// kernel no matter which thread, batch or replay evaluates it.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPolicy {
    weights: Vec<f32>,
    seed: u64,
}

impl KernelPolicy {
    /// A uniform distribution over `n` kernels.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (an empty ensemble cannot answer queries).
    pub fn uniform(n: usize, seed: u64) -> KernelPolicy {
        assert!(n > 0, "ensemble policy requires at least one kernel");
        KernelPolicy {
            weights: vec![1.0; n],
            seed,
        }
    }

    /// A weighted distribution; `weights[i]` is the unnormalized
    /// probability mass of kernel column `i`. Zero-weight columns are
    /// never sampled.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, any weight is negative or
    /// non-finite, or the total mass is zero.
    pub fn weighted(weights: Vec<f32>, seed: u64) -> KernelPolicy {
        assert!(
            !weights.is_empty(),
            "ensemble policy requires at least one kernel"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "ensemble weights must be finite and non-negative: {weights:?}"
        );
        assert!(
            weights.iter().sum::<f32>() > 0.0,
            "ensemble weights must carry positive total probability mass"
        );
        KernelPolicy { weights, seed }
    }

    /// Number of kernel columns the policy distributes over.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Always `false`: emptiness is rejected at construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The normalized probability of column `i`.
    pub fn probability(&self, i: usize) -> f32 {
        self.weights[i] / self.weights.iter().sum::<f32>()
    }

    /// The kernel column answering query `query`: a pure function of
    /// `(seed, query)` via a derived [`Rng`] stream.
    pub fn sample(&self, query: u64) -> usize {
        Rng::seed_from_u64(self.seed)
            .derive(query)
            .weighted_index(&self.weights)
    }
}

/// A quantized model fronted by a randomized kernel ensemble.
///
/// Query `i` of an evaluation set is answered through kernel column
/// `policy.sample(i)`. Inference groups queries by sampled kernel and
/// runs one batched [`QPlan`] pass per group, so the moving target
/// costs one extra pass per *distinct* kernel, not per query.
#[derive(Debug)]
pub struct EnsembleModel<'a> {
    qm: &'a QuantModel,
    columns: &'a MulColumns,
    policy: KernelPolicy,
}

impl<'a> EnsembleModel<'a> {
    /// Pairs a quantized model with kernel columns and a sampling
    /// policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy's arity does not match the column count.
    pub fn new(qm: &'a QuantModel, columns: &'a MulColumns, policy: KernelPolicy) -> Self {
        assert_eq!(
            policy.len(),
            columns.len(),
            "kernel policy arity must match the ensemble's column count"
        );
        EnsembleModel {
            qm,
            columns,
            policy,
        }
    }

    /// The underlying quantized model.
    pub fn model(&self) -> &QuantModel {
        self.qm
    }

    /// The kernel columns the ensemble samples from.
    pub fn columns(&self) -> &MulColumns {
        self.columns
    }

    /// The sampling policy.
    pub fn policy(&self) -> &KernelPolicy {
        &self.policy
    }

    /// The kernel column index sampled for each of the first `n`
    /// queries — the disclosed moving-target schedule.
    pub fn sampled_kernels(&self, n: usize) -> Vec<usize> {
        (0..n).map(|i| self.policy.sample(i as u64)).collect()
    }

    /// Predicted class per query: query `i` runs through kernel
    /// `policy.sample(i)`. Queries are grouped by sampled kernel and
    /// each group runs as one batched pass, in query-index order within
    /// the group.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or an image's shape disagrees with the first
    /// image's plan.
    pub fn predict_batch<'b, F>(&self, n: usize, image: F) -> Vec<usize>
    where
        F: Fn(usize) -> &'b Tensor + Sync,
    {
        assert!(n > 0, "ensemble prediction requires a non-empty batch");
        let samples = self.sampled_kernels(n);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.columns.len()];
        for (i, &k) in samples.iter().enumerate() {
            groups[k].push(i);
        }
        let plan = QPlan::compile(self.qm, image(0).dims());
        let mut out = vec![0usize; n];
        for (k, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let lut: &MulLut = self.columns.payload(k);
            let rows = plan.predict_batch_indexed(group.len(), |j| image(group[j]), &[lut]);
            for (j, row) in rows.iter().enumerate() {
                out[group[j]] = row[0];
            }
        }
        out
    }

    /// Ensemble accuracy on a labelled `(image, label)` set; query `i`
    /// is the set's `i`-th entry.
    ///
    /// # Panics
    ///
    /// Panics if `set` is empty: the one empty-set rule of [`Outcomes`].
    pub fn accuracy_on(&self, set: &[(Tensor, usize)]) -> f32 {
        Outcomes::assert_sample(set.len());
        let preds = self.predict_batch(set.len(), |i| &set[i].0);
        Outcomes::new(set.len(), 1, |i, _| preds[i], |i| set[i].1).accuracy(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_policy_samples_are_deterministic_and_in_range() {
        let p = KernelPolicy::uniform(3, 42);
        let a: Vec<usize> = (0..64).map(|q| p.sample(q)).collect();
        let b: Vec<usize> = (0..64).map(|q| p.sample(q)).collect();
        assert_eq!(a, b, "sampling must be a pure function of (seed, query)");
        assert!(a.iter().all(|&k| k < 3));
        // All three kernels appear over a modest window.
        for k in 0..3 {
            assert!(a.contains(&k), "kernel {k} never sampled in 64 draws");
        }
    }

    #[test]
    fn zero_weight_columns_are_never_sampled() {
        let p = KernelPolicy::weighted(vec![1.0, 0.0, 2.0], 7);
        assert!((0..512).all(|q| p.sample(q) != 1));
    }

    #[test]
    fn probabilities_normalize() {
        let p = KernelPolicy::weighted(vec![1.0, 3.0], 0);
        assert!((p.probability(0) - 0.25).abs() < 1e-6);
        assert!((p.probability(1) - 0.75).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one kernel")]
    fn empty_uniform_policy_panics() {
        let _ = KernelPolicy::uniform(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one kernel")]
    fn empty_weighted_policy_panics() {
        let _ = KernelPolicy::weighted(Vec::new(), 1);
    }

    #[test]
    #[should_panic(expected = "positive total probability mass")]
    fn zero_mass_policy_panics() {
        let _ = KernelPolicy::weighted(vec![0.0, 0.0], 1);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weight_panics() {
        let _ = KernelPolicy::weighted(vec![1.0, -0.5], 1);
    }
}
