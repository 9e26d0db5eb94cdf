//! Property tests pinning every attack's crafting to an independent
//! seed reference.
//!
//! Each attack defines one block trajectory and `Attack` provides `craft`
//! and `craft_batch` on top of it, so comparing those two would compare
//! a path with itself. Instead, the reference below re-implements every
//! attack the way the seed did: one image at a time, every gradient
//! through the seed layer loop (`axnn::reference::backward`) and every
//! decision through `Sequential::predict` (a fresh plan per call), image
//! `i` under the stream `rng.derive(i as u64)`. Batched
//! crafting must be *bit-exact* with it for any model, eps, thread
//! chunking and block boundary. PGD's random start and RAG/RAU's variable
//! number of draws per image (they stop at the first fooling sample) are
//! the sharp cases: the result may not depend on which chunk or block an
//! image lands in.
//!
//! Chunking is controlled through the `AXDNN_THREADS` environment
//! variable; each sweep pins it with `axutil::parallel::with_threads`,
//! which serializes the sweeps within this test binary.

use axattack::decision::{ContrastReduction, RepeatedAdditiveGaussian, RepeatedAdditiveUniform};
use axattack::gradient::{Bim, Fgm, Pgd};
use axattack::norms::{ascent_direction, normalized, project_ball, project_to_ball, Norm};
use axattack::suite::AttackId;
use axattack::{Attack, Mixture};
use axnn::model::Sequential;
use axnn::reference;
use axtensor::Tensor;
use axutil::rng::Rng;
use proptest::prelude::*;

mod common;
use common::{images, small_model, under_threads, IN_DIMS};

/// Set sizes around the 4-image blocks: partial blocks, one full block,
/// and one and two full blocks with a remainder.
const BATCH_SIZES: [usize; 7] = [1, 2, 3, 4, 5, 7, 9];

/// A seed gradient query: the input gradient at `(x, label)`, drawing any
/// randomness from the image's own stream.
type Gradient<'a> = dyn Fn(&Tensor, usize, &mut Rng) -> Tensor + 'a;

/// `id` with `steps` iterations (BIM/PGD) or repetitions (RAG/RAU).
fn attack(id: AttackId, steps: usize) -> Box<dyn Attack> {
    let norm = id.norm();
    match id {
        AttackId::FgmL2 | AttackId::FgmLinf => Box::new(Fgm::new(norm)),
        AttackId::BimL2 | AttackId::BimLinf => Box::new(Bim::new(norm).with_steps(steps)),
        AttackId::PgdL2 | AttackId::PgdLinf => Box::new(Pgd::new(norm).with_steps(steps)),
        AttackId::CrL2 => Box::new(ContrastReduction::new()),
        AttackId::RagL2 => Box::new(RepeatedAdditiveGaussian::new().with_repeats(steps)),
        AttackId::RauL2 | AttackId::RauLinf => {
            Box::new(RepeatedAdditiveUniform::new(norm).with_repeats(steps))
        }
    }
}

/// The seed reference of `attack(id, steps)` on one image.
fn reference(
    id: AttackId,
    steps: usize,
    model: &Sequential,
    x: &Tensor,
    label: usize,
    eps: f32,
    rng: &mut Rng,
) -> Tensor {
    if eps == 0.0 {
        return x.clone();
    }
    let norm = id.norm();
    match id {
        AttackId::FgmL2
        | AttackId::FgmLinf
        | AttackId::BimL2
        | AttackId::BimLinf
        | AttackId::PgdL2
        | AttackId::PgdLinf => {
            let gradient =
                |x: &Tensor, label, _: &mut Rng| reference::backward(model, x, label, None).1;
            gradient_reference(id, steps, &gradient, x, label, eps, rng)
        }
        AttackId::CrL2 => {
            let dir = Tensor::full(x.dims(), 0.5).sub(x);
            let n = dir.l2_norm();
            if n <= 1e-9 {
                return x.clone();
            }
            let mut adv = x.clone();
            adv.add_scaled(&dir, (eps / n).min(1.0));
            project_to_ball(&adv, x, eps, Norm::L2)
        }
        AttackId::RagL2 => repeated_noise(model, x, label, rng, steps, |rng, x| {
            let mut u = Tensor::zeros(x.dims());
            rng.fill_normal_f32(u.data_mut(), 1.0);
            x.add(&normalized(&u, Norm::L2).scaled(eps))
                .clamped(0.0, 1.0)
        }),
        AttackId::RauL2 | AttackId::RauLinf => {
            repeated_noise(model, x, label, rng, steps, |rng, x| {
                let mut u = Tensor::zeros(x.dims());
                rng.fill_range_f32(u.data_mut(), -1.0, 1.0);
                let noise = match norm {
                    Norm::Linf => u.scaled(eps),
                    Norm::L2 => normalized(&u, Norm::L2).scaled(eps),
                };
                x.add(&noise).clamped(0.0, 1.0)
            })
        }
    }
}

/// The seed FGM/BIM/PGD on one image (`eps > 0`), every gradient
/// through `gradient`.
fn gradient_reference(
    id: AttackId,
    steps: usize,
    gradient: &Gradient,
    x: &Tensor,
    label: usize,
    eps: f32,
    rng: &mut Rng,
) -> Tensor {
    let norm = id.norm();
    match id {
        AttackId::FgmL2 | AttackId::FgmLinf => {
            let grad = gradient(x, label, rng);
            ascend(x, x, &grad, eps, eps, norm)
        }
        AttackId::BimL2 | AttackId::BimLinf => {
            iterate(gradient, x, x.clone(), label, eps, norm, steps, rng)
        }
        AttackId::PgdL2 | AttackId::PgdLinf => {
            let start = random_start(x, eps, norm, rng);
            iterate(gradient, x, start, label, eps, norm, steps, rng)
        }
        _ => unreachable!("{} is not a gradient attack", id.name()),
    }
}

/// The seed gradient-ascent move.
fn ascend(
    cur: &Tensor,
    origin: &Tensor,
    grad: &Tensor,
    alpha: f32,
    eps: f32,
    norm: Norm,
) -> Tensor {
    let mut adv = cur.clone();
    adv.add_scaled(&ascent_direction(grad, norm), alpha);
    project_to_ball(&adv, origin, eps, norm)
}

/// The seed PGD random start.
fn random_start(x: &Tensor, eps: f32, norm: Norm, rng: &mut Rng) -> Tensor {
    let mut noise = Tensor::zeros(x.dims());
    match norm {
        Norm::Linf => rng.fill_range_f32(noise.data_mut(), -eps, eps),
        Norm::L2 => {
            rng.fill_normal_f32(noise.data_mut(), 1.0);
            let scale = rng.next_f32();
            noise = normalized(&noise, Norm::L2).scaled(eps * scale);
        }
    }
    x.add(&project_ball(&noise, eps, norm)).clamped(0.0, 1.0)
}

/// The seed BIM/PGD loop, one gradient query per step.
#[allow(clippy::too_many_arguments)]
fn iterate(
    gradient: &Gradient,
    x: &Tensor,
    mut adv: Tensor,
    label: usize,
    eps: f32,
    norm: Norm,
    steps: usize,
    rng: &mut Rng,
) -> Tensor {
    let alpha = 2.5 * eps / steps as f32;
    for _ in 0..steps {
        let grad = gradient(&adv, label, rng);
        adv = ascend(&adv, x, &grad, alpha, eps, norm);
    }
    adv
}

/// The seed RAG/RAU loop, one fresh plan per decision.
fn repeated_noise(
    model: &Sequential,
    x: &Tensor,
    label: usize,
    rng: &mut Rng,
    repeats: usize,
    sample: impl Fn(&mut Rng, &Tensor) -> Tensor,
) -> Tensor {
    let mut last = x.clone();
    for _ in 0..repeats {
        let candidate = sample(rng, x);
        if model.predict(&candidate) != label {
            return candidate;
        }
        last = candidate;
    }
    last
}

/// Crafts `imgs` with `attack` under every [`THREADS`] count, and each
/// image alone through `Attack::craft`, and compares all of it with the
/// seed reference of `(id, steps)`.
#[allow(clippy::too_many_arguments)]
fn check(
    id: AttackId,
    steps: usize,
    attack: &dyn Attack,
    model: &Sequential,
    imgs: &[Tensor],
    labels: &[usize],
    eps: f32,
    base: &Rng,
) -> Result<(), String> {
    let want: Vec<Tensor> = (0..imgs.len())
        .map(|i| {
            reference(
                id,
                steps,
                model,
                &imgs[i],
                labels[i],
                eps,
                &mut base.derive(i as u64),
            )
        })
        .collect();
    let name = attack.name();
    for (i, w) in want.iter().enumerate() {
        let got = attack.craft(model, &imgs[i], labels[i], eps, &mut base.derive(i as u64));
        if &got != w {
            return Err(format!("{name} eps {eps}: craft image {i} != reference"));
        }
    }
    under_threads(|threads| {
        if attack.craft_batch(model, imgs, labels, eps, base) != want {
            return Err(format!(
                "{name} eps {eps}: batch != reference (threads {threads})"
            ));
        }
        Ok(())
    })
}

/// The attacks of Table I of the given type.
fn ids(gradient: bool) -> impl Iterator<Item = AttackId> {
    AttackId::ALL
        .into_iter()
        .filter(move |id| id.is_gradient_based() == gradient)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn craft_batch_is_bit_exact_with_scalar_crafting(
        seed in proptest::strategy::any::<u64>(),
        arch in 0usize..3,
        eps_step in 1u32..=8,
    ) {
        let model = small_model(arch, seed);
        let imgs = images(5, seed ^ 0x1111);
        let labels: Vec<usize> = (0..imgs.len()).map(|i| i % 4).collect();
        let eps = eps_step as f32 * 0.05;
        let base = Rng::seed_from_u64(seed ^ 0xBA5E);
        for id in ids(true) {
            let attack = attack(id, 3);
            if let Err(msg) = check(id, 3, attack.as_ref(), &model, &imgs, &labels, eps, &base) {
                prop_assert!(false, "{msg} (arch {arch}, seed {seed})");
            }
        }
    }

    #[test]
    fn decision_craft_batch_is_bit_exact_with_scalar_crafting(
        seed in proptest::strategy::any::<u64>(),
        arch in 0usize..3,
        eps_step in 1u32..=8,
    ) {
        let model = small_model(arch, seed);
        let imgs = images(5, seed ^ 0xDEC1);
        // Label each image with its own prediction so RAG/RAU actually
        // search (a wrong label makes the first draw "fool" trivially).
        let labels: Vec<usize> = imgs.iter().map(|x| model.predict(x)).collect();
        let eps = eps_step as f32 * 0.1;
        let base = Rng::seed_from_u64(seed ^ 0xBA5E);
        for id in ids(false) {
            let attack = attack(id, 3);
            if let Err(msg) = check(id, 3, attack.as_ref(), &model, &imgs, &labels, eps, &base) {
                prop_assert!(false, "{msg} (arch {arch}, seed {seed})");
            }
        }
    }
}

/// A fixed conv+pool case with more images than the widest chunking.
#[test]
fn craft_batch_is_chunking_invariant() {
    let model = small_model(2, 4242);
    let imgs = images(7, 77);
    let labels: Vec<usize> = (0..imgs.len()).map(|i| (i * 3) % 4).collect();
    let base = Rng::seed_from_u64(9);
    for id in ids(true) {
        check(
            id,
            3,
            attack(id, 3).as_ref(),
            &model,
            &imgs,
            &labels,
            0.12,
            &base,
        )
        .unwrap_or_else(|msg| panic!("{msg}"));
    }
}

/// The decision attacks on a fixed conv case, where RAG/RAU consume a
/// different number of draws per image.
#[test]
fn decision_craft_batch_is_chunking_invariant() {
    let model = small_model(1, 1717);
    let imgs = images(7, 18);
    let labels: Vec<usize> = imgs.iter().map(|x| model.predict(x)).collect();
    let base = Rng::seed_from_u64(19);
    for id in ids(false) {
        check(
            id,
            3,
            attack(id, 3).as_ref(),
            &model,
            &imgs,
            &labels,
            0.4,
            &base,
        )
        .unwrap_or_else(|msg| panic!("{msg}"));
    }
}

/// All ten attacks as `AttackId::build` makes them (paper defaults,
/// boxed) follow the same per-image stream contract.
#[test]
fn default_craft_batch_uses_per_image_streams() {
    let model = small_model(0, 31);
    let imgs = images(4, 32);
    let labels: Vec<usize> = imgs.iter().map(|x| model.predict(x)).collect();
    let base = Rng::seed_from_u64(33);
    for id in AttackId::ALL {
        check(
            id,
            10,
            id.build().as_ref(),
            &model,
            &imgs,
            &labels,
            0.2,
            &base,
        )
        .unwrap_or_else(|msg| panic!("{msg}"));
    }
}

/// Every attack on the conv and conv+pool models at every set size in
/// [`BATCH_SIZES`]: a set that ends mid-block, or a thread chunk holding
/// a partial block, must still craft each image exactly like the seed.
#[test]
fn craft_batch_is_bit_exact_at_block_boundaries() {
    for arch in [1, 2] {
        let model = small_model(arch, 0xB10C + arch as u64);
        let imgs = images(9, 0xB10C);
        // The model's own predictions keep RAG/RAU searching.
        let labels: Vec<usize> = imgs.iter().map(|x| model.predict(x)).collect();
        let base = Rng::seed_from_u64(0xB10C);
        for n in BATCH_SIZES {
            for id in AttackId::ALL {
                let attack = attack(id, 3);
                let (imgs, labels) = (&imgs[..n], &labels[..n]);
                check(id, 3, attack.as_ref(), &model, imgs, labels, 0.15, &base)
                    .unwrap_or_else(|msg| panic!("{msg} (arch {arch}, n {n})"));
            }
        }
    }
}

/// The gradient attacks on a 2-sample [`Mixture`] of a conv and a
/// conv+pool model weighted 1:2, at every set size and thread count,
/// against the seed loop: each sample draws its member from the image's
/// stream (`u · 3 < 1` picks the first), and the two gradients are
/// summed and halved. The mixture's handle keeps `GradHandle`'s provided
/// per-image `input_gradient_block`, which this pins.
#[test]
fn mixture_craft_batch_is_bit_exact_at_block_boundaries() {
    let models = [small_model(1, 61), small_model(2, 62)];
    let plans = [models[0].plan(&IN_DIMS), models[1].plan(&IN_DIMS)];
    let mixture = Mixture::new(vec![&plans[0], &plans[1]], vec![1.0, 2.0], 2);
    let gradient = |x: &Tensor, label, rng: &mut Rng| {
        let pick = |rng: &mut Rng| &models[usize::from(rng.next_f32() * 3.0 >= 1.0)];
        let mut grad = reference::backward(pick(rng), x, label, None).1;
        grad.add_scaled(&reference::backward(pick(rng), x, label, None).1, 1.0);
        grad.scaled(0.5)
    };
    let imgs = images(9, 63);
    let labels: Vec<usize> = (0..imgs.len()).map(|i| i % 4).collect();
    let base = Rng::seed_from_u64(64);
    for id in ids(true) {
        let attack = attack(id, 3);
        let want: Vec<Tensor> = (0..imgs.len())
            .map(|i| {
                let rng = &mut base.derive(i as u64);
                gradient_reference(id, 3, &gradient, &imgs[i], labels[i], 0.1, rng)
            })
            .collect();
        under_threads(|threads| {
            for n in BATCH_SIZES {
                let got = attack.craft_batch_on(&mixture, &imgs[..n], &labels[..n], 0.1, &base);
                if got != want[..n] {
                    return Err(format!(
                        "{}: mixture batch != reference (n {n}, threads {threads})",
                        attack.name()
                    ));
                }
            }
            Ok(())
        })
        .unwrap_or_else(|msg| panic!("{msg}"));
    }
}

/// A batch whose images share a length but not a shape must be refused,
/// not run through the first image's plan.
#[test]
#[should_panic(expected = "does not have the batch input shape")]
fn mixed_shape_batch_panics() {
    let model = small_model(1, 5);
    let mut imgs = images(3, 6);
    imgs[1] = Tensor::full(&[8, 8, 1], 0.5);
    let _ =
        Pgd::new(Norm::Linf).craft_batch(&model, &imgs, &[0, 1, 2], 0.1, &Rng::seed_from_u64(7));
}
