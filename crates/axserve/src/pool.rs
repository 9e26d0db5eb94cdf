//! The server's plan/scratch pool: multi-tenant (multi-model) execution
//! state.
//!
//! A [`PlanPool`] owns any number of [`QuantModel`]s and hands out
//! execution state keyed by `(model, input shape)`:
//!
//! * the **plan** ([`QPlan`]) is compiled on demand — it is shape
//!   arithmetic over a handful of layers, documented cheap, and borrows
//!   the model, so caching it would only buy a self-referential struct;
//! * the **scratch** ([`QScratch`], one kernel lane) is the real
//!   allocation (im2col patch plus the activation tape of one image
//!   block) and *is* pooled: a checked-in scratch is reused by the next
//!   caller with the same key instead of reallocated.
//!
//! The pool is `Sync`: concurrent callers check out distinct scratches
//! (the freelist grows to the observed concurrency, then stabilizes).
//! If a caller panics mid-execution its scratch is simply dropped during
//! unwind — the freelist mutex is never held across user code, so a
//! poisoned request cannot poison the pool.

use std::collections::HashMap;
use std::sync::Mutex;

use axquant::{QPlan, QScratch, QuantModel};

/// Index of a model hosted by a [`PlanPool`]. Obtained from
/// [`PlanPool::insert`] or [`PlanPool::id_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelId(pub(crate) usize);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ScratchKey {
    model: usize,
    shape: Vec<usize>,
}

/// A pool of hosted models with reusable execution scratch.
#[derive(Debug)]
pub struct PlanPool {
    models: Vec<(String, QuantModel)>,
    scratches: Mutex<HashMap<ScratchKey, Vec<QScratch>>>,
}

impl PlanPool {
    /// An empty pool.
    pub fn new() -> Self {
        PlanPool {
            models: Vec::new(),
            scratches: Mutex::new(HashMap::new()),
        }
    }

    /// Hosts a model under `name` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already hosted — silent shadowing would make
    /// request routing ambiguous.
    pub fn insert(&mut self, name: impl Into<String>, model: QuantModel) -> ModelId {
        let name = name.into();
        assert!(
            self.models.iter().all(|(n, _)| *n != name),
            "model {name:?} is already hosted"
        );
        self.models.push((name, model));
        ModelId(self.models.len() - 1)
    }

    /// Looks a hosted model up by name.
    pub fn id_of(&self, name: &str) -> Option<ModelId> {
        self.models.iter().position(|(n, _)| n == name).map(ModelId)
    }

    /// The hosted model behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this pool.
    pub fn model(&self, id: ModelId) -> &QuantModel {
        &self.models[id.0].1
    }

    /// The name a model was hosted under.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this pool.
    pub fn name(&self, id: ModelId) -> &str {
        &self.models[id.0].0
    }

    /// Number of hosted models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the pool hosts no models.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Compiles the plan for `(id, shape)`, checks out a pooled
    /// one-kernel scratch (reusing a previous one when available), runs
    /// `f`, and checks the scratch back in.
    ///
    /// If `f` panics the scratch is dropped during unwind and the pool
    /// stays consistent (the freelist lock is never held while `f`
    /// runs).
    ///
    /// # Panics
    ///
    /// Panics if `shape` does not match the model (plan compilation
    /// asserts the layer geometry).
    pub fn with_plan<R>(
        &self,
        id: ModelId,
        shape: &[usize],
        f: impl FnOnce(&QPlan<'_>, &mut QScratch) -> R,
    ) -> R {
        let plan = self.model(id).plan(shape);
        let key = ScratchKey {
            model: id.0,
            shape: shape.to_vec(),
        };
        let mut scratch = {
            let mut map = self.scratches.lock().expect("scratch freelist");
            map.get_mut(&key).and_then(Vec::pop)
        }
        .unwrap_or_else(|| plan.scratch_for(1));
        let out = f(&plan, &mut scratch);
        self.scratches
            .lock()
            .expect("scratch freelist")
            .entry(key)
            .or_default()
            .push(scratch);
        out
    }

    /// Number of idle scratches currently pooled (all keys). Test and
    /// stats hook — shows reuse instead of unbounded growth.
    pub fn idle_scratches(&self) -> usize {
        self.scratches
            .lock()
            .expect("scratch freelist")
            .values()
            .map(Vec::len)
            .sum()
    }
}

impl Default for PlanPool {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmul::ExactMul;
    use axnn::zoo;
    use axquant::Placement;
    use axtensor::Tensor;
    use axutil::rng::Rng;

    fn qmodel(seed: u64) -> QuantModel {
        let model = zoo::ffnn(&mut Rng::seed_from_u64(seed));
        let calib: Vec<Tensor> = (0..4)
            .map(|i| {
                let mut t = Tensor::zeros(&[1, 28, 28]);
                Rng::seed_from_u64(100 + seed + i).fill_range_f32(t.data_mut(), 0.0, 1.0);
                t
            })
            .collect();
        QuantModel::from_float(&model, &calib, Placement::All).unwrap()
    }

    fn images(n: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut t = Tensor::zeros(&[1, 28, 28]);
                rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
                t
            })
            .collect()
    }

    #[test]
    fn scratches_are_reused_not_regrown() {
        let mut pool = PlanPool::new();
        let a = pool.insert("a", qmodel(5));
        let b = pool.insert("b", qmodel(6));
        let img = &images(1, 6)[0];
        for _ in 0..5 {
            pool.with_plan(a, &[1, 28, 28], |plan, scratch| {
                plan.forward_one(scratch, img, &ExactMul)
            });
        }
        // Serial reuse: exactly one scratch ever allocated for this key.
        assert_eq!(pool.idle_scratches(), 1);
        // A different model is a different key.
        pool.with_plan(b, &[1, 28, 28], |plan, scratch| {
            plan.forward_one(scratch, img, &ExactMul)
        });
        assert_eq!(pool.idle_scratches(), 2);
        assert_eq!(pool.id_of("a"), Some(a));
        assert_eq!(pool.id_of("missing"), None);
        assert_eq!(pool.name(b), "b");
        assert_eq!(pool.len(), 2);
        assert!(!pool.is_empty());
    }

    #[test]
    fn panicking_closure_does_not_poison_the_pool() {
        let mut pool = PlanPool::new();
        let id = pool.insert("m", qmodel(7));
        let img = &images(1, 8)[0];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.with_plan(id, &[1, 28, 28], |_, _| panic!("poisoned request"))
        }));
        assert!(caught.is_err());
        // The pool still works; the panicked checkout was dropped.
        let logits = pool.with_plan(id, &[1, 28, 28], |plan, scratch| {
            plan.forward_one(scratch, img, &ExactMul)
        });
        assert_eq!(logits.len(), 10);
        assert_eq!(pool.idle_scratches(), 1);
    }

    #[test]
    #[should_panic(expected = "already hosted")]
    fn duplicate_names_are_rejected() {
        let mut pool = PlanPool::new();
        pool.insert("m", qmodel(9));
        pool.insert("m", qmodel(9));
    }
}
