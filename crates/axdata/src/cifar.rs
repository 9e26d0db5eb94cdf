//! `SynthCifar`: a procedural 32x32 RGB ten-class substitute for CIFAR-10.
//!
//! Classes are shape/texture families (gradients, stripes at several
//! orientations, checkerboards, discs, rings, crosses, triangles, value
//! noise) with randomized colors, frequencies, positions and heavy pixel
//! noise. The default noise level is tuned so a small AlexNet-style CNN
//! lands near the paper's ≈80% CIFAR-10 baseline — the point is not to
//! imitate natural images but to give the quantized/approximate pipeline a
//! task of comparable difficulty and geometry.

use axtensor::Tensor;
use axutil::rng::Rng;

use crate::canvas::Canvas;
use crate::dataset::Dataset;

/// Generation parameters for [`SynthCifar`].
#[derive(Debug, Clone, PartialEq)]
pub struct CifarConfig {
    /// Number of examples.
    pub n: usize,
    /// Generation seed.
    pub seed: u64,
    /// Additive Gaussian pixel-noise standard deviation.
    pub noise_std: f32,
    /// Strength of random per-image color tinting (0 = none).
    pub tint: f32,
}

impl Default for CifarConfig {
    fn default() -> Self {
        CifarConfig {
            n: 1000,
            seed: 0xC1FA,
            noise_std: 0.42,
            tint: 0.45,
        }
    }
}

/// The synthetic CIFAR generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthCifar;

const SIZE: usize = 32;

fn mask_to_rgb(mask: &Canvas, fg: [f32; 3], bg: [f32; 3]) -> Vec<f32> {
    let mut rgb = vec![0.0f32; 3 * SIZE * SIZE];
    for (i, &m) in mask.data().iter().enumerate() {
        for c in 0..3 {
            rgb[c * SIZE * SIZE + i] = bg[c] * (1.0 - m) + fg[c] * m;
        }
    }
    rgb
}

fn rand_color(rng: &mut Rng, lo: f32, hi: f32) -> [f32; 3] {
    [
        rng.range_f32(lo, hi),
        rng.range_f32(lo, hi),
        rng.range_f32(lo, hi),
    ]
}

/// Smoothed value noise on a coarse grid, used for the "blobs" class.
fn value_noise(rng: &mut Rng, cells: usize) -> Canvas {
    let mut grid = vec![0.0f32; (cells + 1) * (cells + 1)];
    rng.fill_range_f32(&mut grid, 0.0, 1.0);
    let mut c = Canvas::new(SIZE, SIZE);
    for y in 0..SIZE {
        for x in 0..SIZE {
            let fx = x as f32 / SIZE as f32 * cells as f32;
            let fy = y as f32 / SIZE as f32 * cells as f32;
            let (ix, iy) = (fx as usize, fy as usize);
            let (tx, ty) = (fx - ix as f32, fy - iy as f32);
            let g = |i: usize, j: usize| grid[j * (cells + 1) + i];
            let v = g(ix, iy) * (1.0 - tx) * (1.0 - ty)
                + g(ix + 1, iy) * tx * (1.0 - ty)
                + g(ix, iy + 1) * (1.0 - tx) * ty
                + g(ix + 1, iy + 1) * tx * ty;
            c.data_mut()[y * SIZE + x] = v;
        }
    }
    c
}

fn stripes(angle: f32, freq: f32, phase: f32) -> Canvas {
    let mut c = Canvas::new(SIZE, SIZE);
    let (s, co) = angle.sin_cos();
    for y in 0..SIZE {
        for x in 0..SIZE {
            let u = (x as f32 / SIZE as f32) * co + (y as f32 / SIZE as f32) * s;
            let v = 0.5 + 0.5 * (std::f32::consts::TAU * freq * u + phase).sin();
            c.data_mut()[y * SIZE + x] = if v > 0.5 { 1.0 } else { 0.0 };
        }
    }
    c
}

impl SynthCifar {
    /// Renders one example of `class` with the given per-example RNG.
    fn render_class(class: usize, cfg: &CifarConfig, rng: &mut Rng) -> Tensor {
        let mut mask = Canvas::new(SIZE, SIZE);
        match class {
            // 0: vertical gradient field (sky-like).
            0 => {
                let flip = rng.chance(0.5);
                for y in 0..SIZE {
                    let t = y as f32 / (SIZE - 1) as f32;
                    let v = if flip { 1.0 - t } else { t };
                    for x in 0..SIZE {
                        mask.data_mut()[y * SIZE + x] = v;
                    }
                }
            }
            // 1: horizontal stripes.
            1 => {
                mask = stripes(
                    std::f32::consts::FRAC_PI_2,
                    rng.range_f32(2.0, 5.0),
                    rng.range_f32(0.0, std::f32::consts::TAU),
                )
            }
            // 2: vertical stripes.
            2 => {
                mask = stripes(
                    0.0,
                    rng.range_f32(2.0, 5.0),
                    rng.range_f32(0.0, std::f32::consts::TAU),
                )
            }
            // 3: checkerboard.
            3 => {
                let cells = 2 + rng.index(4);
                for y in 0..SIZE {
                    for x in 0..SIZE {
                        let cx = x * cells / SIZE;
                        let cy = y * cells / SIZE;
                        mask.data_mut()[y * SIZE + x] = ((cx + cy) % 2) as f32;
                    }
                }
            }
            // 4: filled disc.
            4 => {
                let r = rng.range_f32(0.18, 0.33);
                mask.fill_disc(rng.range_f32(0.35, 0.65), rng.range_f32(0.35, 0.65), r, 1.0);
            }
            // 5: ring.
            5 => {
                let r_out = rng.range_f32(0.25, 0.4);
                let r_in = r_out - rng.range_f32(0.08, 0.14);
                mask.fill_ring(
                    rng.range_f32(0.4, 0.6),
                    rng.range_f32(0.4, 0.6),
                    r_in,
                    r_out,
                    1.0,
                );
            }
            // 6: plus-sign cross.
            6 => {
                let w = rng.range_f32(0.10, 0.18);
                let cx = rng.range_f32(0.4, 0.6);
                let cy = rng.range_f32(0.4, 0.6);
                mask.fill_rect(cx - w / 2.0, 0.1, cx + w / 2.0, 0.9, 1.0);
                mask.fill_rect(0.1, cy - w / 2.0, 0.9, cy + w / 2.0, 1.0);
            }
            // 7: triangle (drawn as a fan of horizontal spans).
            7 => {
                let apex = (rng.range_f32(0.35, 0.65), rng.range_f32(0.1, 0.25));
                let base_y = rng.range_f32(0.7, 0.9);
                let half = rng.range_f32(0.25, 0.4);
                for y in 0..SIZE {
                    let fy = (y as f32 + 0.5) / SIZE as f32;
                    if fy < apex.1 || fy > base_y {
                        continue;
                    }
                    let t = (fy - apex.1) / (base_y - apex.1);
                    let x0 = apex.0 - half * t;
                    let x1 = apex.0 + half * t;
                    for x in 0..SIZE {
                        let fx = (x as f32 + 0.5) / SIZE as f32;
                        if fx >= x0 && fx <= x1 {
                            mask.data_mut()[y * SIZE + x] = 1.0;
                        }
                    }
                }
            }
            // 8: smooth value-noise blobs.
            8 => {
                mask = value_noise(rng, 4);
                for v in mask.data_mut() {
                    *v = if *v > 0.55 { 1.0 } else { 0.0 };
                }
                mask.blur(1);
            }
            // 9: diagonal stripes.
            9 => {
                mask = stripes(
                    std::f32::consts::FRAC_PI_4,
                    rng.range_f32(2.5, 5.0),
                    rng.range_f32(0.0, std::f32::consts::TAU),
                )
            }
            _ => panic!("class {class} out of range"),
        }

        let fg = rand_color(rng, 0.55, 0.95);
        let bg = rand_color(rng, 0.05, 0.45);
        let mut rgb = mask_to_rgb(&mask, fg, bg);
        // Per-image color tint plus heavy pixel noise: difficulty knobs.
        let tint = [
            rng.range_f32(-cfg.tint, cfg.tint),
            rng.range_f32(-cfg.tint, cfg.tint),
            rng.range_f32(-cfg.tint, cfg.tint),
        ];
        for c in 0..3 {
            for i in 0..SIZE * SIZE {
                let v = &mut rgb[c * SIZE * SIZE + i];
                *v += tint[c] + rng.normal_f32() * cfg.noise_std;
                *v = v.clamp(0.0, 1.0);
            }
        }
        Tensor::from_vec(rgb, &[3, SIZE, SIZE])
    }

    /// Generates a dataset with balanced classes.
    pub fn generate(cfg: &CifarConfig) -> Dataset {
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let mut images = Vec::with_capacity(cfg.n);
        let mut labels = Vec::with_capacity(cfg.n);
        for i in 0..cfg.n {
            let class = if i < cfg.n / 10 * 10 {
                i % 10
            } else {
                rng.index(10)
            };
            let mut ex_rng = rng.derive(i as u64 ^ 0xC1FA_0000);
            images.push(Self::render_class(class, cfg, &mut ex_rng));
            labels.push(class);
        }
        let d = Dataset::new("synth-cifar", images, labels, 10);
        d.shuffled(cfg.seed ^ 0x5AFE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = CifarConfig {
            n: 20,
            ..Default::default()
        };
        assert_eq!(SynthCifar::generate(&cfg), SynthCifar::generate(&cfg));
    }

    #[test]
    fn images_are_3x32x32_unit_range() {
        let d = SynthCifar::generate(&CifarConfig {
            n: 30,
            ..Default::default()
        });
        for (im, _) in d.iter() {
            assert_eq!(im.dims(), &[3, 32, 32]);
            assert!(im.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn all_ten_classes_render() {
        let cfg = CifarConfig {
            n: 10,
            ..Default::default()
        };
        let mut rng = Rng::seed_from_u64(7);
        for class in 0..10 {
            let t = SynthCifar::render_class(class, &cfg, &mut rng);
            assert_eq!(t.len(), 3 * 32 * 32);
            // Every class must produce a non-constant image.
            let mean = t.mean();
            let var: f32 = t.data().iter().map(|&v| (v - mean) * (v - mean)).sum();
            assert!(var > 0.1, "class {class} renders almost-constant image");
        }
    }

    #[test]
    fn class_counts_are_balanced() {
        let d = SynthCifar::generate(&CifarConfig {
            n: 200,
            ..Default::default()
        });
        for (c, &count) in d.class_counts().iter().enumerate() {
            assert!(count >= 15, "class {c}: {count}");
        }
    }

    #[test]
    fn noise_free_classes_are_distinguishable() {
        // With noise off, a nearest-centroid classifier on downsampled
        // features must beat chance comfortably.
        let cfg = CifarConfig {
            n: 300,
            noise_std: 0.0,
            tint: 0.0,
            ..Default::default()
        };
        let d = SynthCifar::generate(&cfg);
        let (train, test) = d.split_at(220);
        let feat = |t: &Tensor| -> Vec<f32> {
            // 3-channel 8x8 average-pool features.
            let mut f = vec![0.0f32; 3 * 8 * 8];
            for c in 0..3 {
                for by in 0..8 {
                    for bx in 0..8 {
                        let mut s = 0.0;
                        for dy in 0..4 {
                            for dx in 0..4 {
                                s += t.get(&[c, by * 4 + dy, bx * 4 + dx]);
                            }
                        }
                        f[c * 64 + by * 8 + bx] = s / 16.0;
                    }
                }
            }
            f
        };
        let mut centroids = vec![vec![0.0f32; 3 * 64]; 10];
        let mut counts = [0usize; 10];
        for (im, l) in train.iter() {
            counts[l] += 1;
            for (c, v) in centroids[l].iter_mut().zip(feat(im)) {
                *c += v;
            }
        }
        for (c, n) in centroids.iter_mut().zip(counts) {
            for v in c.iter_mut() {
                *v /= n.max(1) as f32;
            }
        }
        let mut correct = 0;
        for (im, l) in test.iter() {
            let f = feat(im);
            let best = (0..10)
                .min_by(|&a, &b| {
                    let da: f32 = centroids[a]
                        .iter()
                        .zip(&f)
                        .map(|(&c, &v)| (c - v) * (c - v))
                        .sum();
                    let db: f32 = centroids[b]
                        .iter()
                        .zip(&f)
                        .map(|(&c, &v)| (c - v) * (c - v))
                        .sum();
                    da.total_cmp(&db)
                })
                .unwrap();
            if best == l {
                correct += 1;
            }
        }
        let acc = correct as f32 / test.len() as f32;
        assert!(acc > 0.3, "nearest-centroid accuracy only {acc}");
    }
}
