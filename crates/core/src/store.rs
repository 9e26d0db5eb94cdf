//! Dataset preparation and trained-model caching.
//!
//! Figure binaries need five trained models (LeNet-5 and FFNN on
//! synthetic MNIST, AlexNet-mini on synthetic CIFAR, plus the 32x32
//! MNIST/CIFAR variants for the transferability table). All of them go
//! through [`axnn::train::fit`], i.e. the batched plan engine: training
//! is deterministic *and thread-invariant* (bit-identical weights for
//! any `AXDNN_THREADS`), so models are cached as `.axm` artifacts keyed
//! by architecture, training-set size, epochs and seed; a second run of
//! any experiment — on any machine parallelism — loads instead of
//! retraining.
//!
//! Those guarantees hold across the engine work: `fit` steps the model
//! itself between minibatches, each on a freshly compiled plan, and the
//! register-tiled GEMM kernels it runs are bit-identical to the scalar
//! reference loops, so `.axm` artifacts trained before and after the
//! kernel work — and under any thread count — carry the same bits
//! (pinned by `axnn/tests/prop_train.rs` and `prop_kernels.rs`).

use std::cell::OnceCell;
use std::path::PathBuf;

use axdata::cifar::{CifarConfig, SynthCifar};
use axdata::mnist::{MnistConfig, SynthMnist};
use axdata::Dataset;
use axnn::serialize::{load_model, save_model};
use axnn::train::{fit, TrainConfig};
use axnn::zoo;
use axnn::Sequential;
use axutil::{rng::Rng, AxError};

/// Sizing and training configuration for the store.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Artifact directory for cached weights.
    pub dir: PathBuf,
    /// Synthetic MNIST training-set size.
    pub mnist_train: usize,
    /// Synthetic MNIST test-set size.
    pub mnist_test: usize,
    /// Synthetic CIFAR training-set size.
    pub cifar_train: usize,
    /// Synthetic CIFAR test-set size.
    pub cifar_test: usize,
    /// Training-set size for the auxiliary 32x32 models (Table II).
    pub table2_train: usize,
    /// Training hyper-parameters for the MNIST models.
    pub mnist_cfg: TrainConfig,
    /// Training hyper-parameters for the CIFAR models.
    pub cifar_cfg: TrainConfig,
    /// Training hyper-parameters for the auxiliary 32x32 models; gentler
    /// learning rate — the larger flattening conv of the 32-pixel LeNet
    /// variant diverges at the 28-pixel model's rate.
    pub aux_cfg: TrainConfig,
    /// Master seed (datasets and weight init derive from it).
    pub seed: u64,
}

impl StoreConfig {
    /// A laptop-quick configuration (seconds of training; accuracies a few
    /// points below the full configuration).
    pub fn quick(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            mnist_train: 2_000,
            mnist_test: 400,
            cifar_train: 1_500,
            cifar_test: 300,
            table2_train: 1_200,
            mnist_cfg: TrainConfig {
                epochs: 2,
                lr: 0.08,
                verbose: true,
                ..Default::default()
            },
            cifar_cfg: TrainConfig {
                epochs: 4,
                lr: 0.04,
                lr_decay: 0.8,
                verbose: true,
                ..Default::default()
            },
            aux_cfg: TrainConfig {
                epochs: 3,
                lr: 0.04,
                lr_decay: 0.8,
                verbose: true,
                ..Default::default()
            },
            seed: 0xBEEF,
        }
    }

    /// The full configuration (`AXDNN_PROFILE=full`, see the README;
    /// minutes of training on a laptop; reaches the paper-scale
    /// baselines).
    pub fn full(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            mnist_train: 8_000,
            mnist_test: 1_000,
            cifar_train: 4_000,
            cifar_test: 600,
            table2_train: 2_500,
            mnist_cfg: TrainConfig {
                epochs: 4,
                lr: 0.08,
                verbose: true,
                ..Default::default()
            },
            cifar_cfg: TrainConfig {
                epochs: 6,
                lr: 0.04,
                lr_decay: 0.8,
                verbose: true,
                ..Default::default()
            },
            aux_cfg: TrainConfig {
                epochs: 4,
                lr: 0.04,
                lr_decay: 0.8,
                verbose: true,
                ..Default::default()
            },
            seed: 0xBEEF,
        }
    }
}

/// Deterministic dataset + cached-model provider.
#[derive(Debug)]
pub struct ModelStore {
    cfg: StoreConfig,
    mnist_train: OnceCell<Dataset>,
    mnist_test: OnceCell<Dataset>,
    cifar_train: OnceCell<Dataset>,
    cifar_test: OnceCell<Dataset>,
}

impl ModelStore {
    /// Creates a store.
    pub fn new(cfg: StoreConfig) -> Self {
        ModelStore {
            cfg,
            mnist_train: OnceCell::new(),
            mnist_test: OnceCell::new(),
            cifar_train: OnceCell::new(),
            cifar_test: OnceCell::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// The MNIST training set.
    pub fn mnist_train(&self) -> &Dataset {
        self.mnist_train.get_or_init(|| {
            SynthMnist::generate(&MnistConfig {
                n: self.cfg.mnist_train,
                seed: self.cfg.seed ^ 0x11,
                ..Default::default()
            })
        })
    }

    /// The MNIST test set (disjoint seed from training).
    pub fn mnist_test(&self) -> &Dataset {
        self.mnist_test.get_or_init(|| {
            SynthMnist::generate(&MnistConfig {
                n: self.cfg.mnist_test,
                seed: self.cfg.seed ^ 0x22,
                ..Default::default()
            })
        })
    }

    /// The CIFAR training set.
    pub fn cifar_train(&self) -> &Dataset {
        self.cifar_train.get_or_init(|| {
            SynthCifar::generate(&CifarConfig {
                n: self.cfg.cifar_train,
                seed: self.cfg.seed ^ 0x33,
                ..Default::default()
            })
        })
    }

    /// The CIFAR test set.
    pub fn cifar_test(&self) -> &Dataset {
        self.cifar_test.get_or_init(|| {
            SynthCifar::generate(&CifarConfig {
                n: self.cfg.cifar_test,
                seed: self.cfg.seed ^ 0x44,
                ..Default::default()
            })
        })
    }

    /// MNIST sets zero-padded to 32x32 (for the transferability study).
    pub fn mnist32(&self) -> (Dataset, Dataset) {
        (
            self.mnist_train().padded_to(32, 32),
            self.mnist_test().padded_to(32, 32),
        )
    }

    fn cache_path(&self, arch: &str, train_n: usize, cfg: &TrainConfig) -> PathBuf {
        self.cfg.dir.join(format!(
            "{arch}-n{train_n}-e{}-s{:x}.axm",
            cfg.epochs, self.cfg.seed
        ))
    }

    fn train_or_load(
        &self,
        arch: &str,
        init_seed: u64,
        build: impl FnOnce(&mut Rng) -> Sequential,
        data: &Dataset,
        cfg: &TrainConfig,
    ) -> Result<Sequential, AxError> {
        let path = self.cache_path(arch, data.len(), cfg);
        if let Ok(model) = load_model(&path) {
            return Ok(model);
        }
        let mut model = build(&mut Rng::seed_from_u64(self.cfg.seed ^ init_seed));
        if cfg.verbose {
            eprintln!(
                "[store] training {arch} on {} examples ({} epochs)...",
                data.len(),
                cfg.epochs
            );
        }
        fit(&mut model, data, cfg);
        save_model(&model, &path)?;
        Ok(model)
    }

    /// LeNet-5 trained on synthetic MNIST (Figs 4-6, 8).
    pub fn lenet5_mnist(&self) -> Result<Sequential, AxError> {
        let data = self.mnist_train().clone();
        self.train_or_load(
            "lenet5-mnist",
            0xA1,
            zoo::lenet5,
            &data,
            &self.cfg.mnist_cfg.clone(),
        )
    }

    /// FFNN trained on synthetic MNIST (Fig 1).
    pub fn ffnn_mnist(&self) -> Result<Sequential, AxError> {
        let data = self.mnist_train().clone();
        self.train_or_load(
            "ffnn-mnist",
            0xA2,
            zoo::ffnn,
            &data,
            &self.cfg.mnist_cfg.clone(),
        )
    }

    /// AlexNet-mini trained on synthetic CIFAR (Fig 7, Table II).
    pub fn alexnet_cifar(&self) -> Result<Sequential, AxError> {
        let data = self.cifar_train().clone();
        self.train_or_load(
            "alexnet-cifar",
            0xA3,
            zoo::alexnet_mini,
            &data,
            &self.cfg.cifar_cfg.clone(),
        )
    }

    /// LeNet-5 (32x32, 3-channel) trained on synthetic CIFAR (Table II).
    pub fn lenet5_cifar(&self) -> Result<Sequential, AxError> {
        let data = self.cifar_train().take(self.cfg.table2_train);
        self.train_or_load(
            "lenet5-cifar",
            0xA4,
            |rng| zoo::lenet5_for(3, 32, rng),
            &data,
            &self.cfg.aux_cfg.clone(),
        )
    }

    /// LeNet-5 (32x32, 1-channel) trained on padded MNIST (Table II).
    pub fn lenet5_mnist32(&self) -> Result<Sequential, AxError> {
        let (train, _) = self.mnist32();
        self.train_or_load(
            "lenet5-mnist32",
            0xA5,
            |rng| zoo::lenet5_for(1, 32, rng),
            &train.take(self.cfg.table2_train),
            &self.cfg.aux_cfg.clone(),
        )
    }

    /// AlexNet-mini (1-channel) trained on padded MNIST (Table II).
    pub fn alexnet_mnist32(&self) -> Result<Sequential, AxError> {
        let (train, _) = self.mnist32();
        self.train_or_load(
            "alexnet-mnist32",
            0xA6,
            |rng| zoo::alexnet_mini_for(1, rng),
            &train.take(self.cfg.table2_train),
            &self.cfg.aux_cfg.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_store(tag: &str) -> ModelStore {
        let dir = std::env::temp_dir().join(format!("axrobust-store-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = StoreConfig::quick(dir);
        cfg.mnist_train = 200;
        cfg.mnist_test = 40;
        cfg.cifar_train = 100;
        cfg.cifar_test = 30;
        cfg.table2_train = 100;
        cfg.mnist_cfg.epochs = 1;
        cfg.mnist_cfg.verbose = false;
        cfg.cifar_cfg.epochs = 1;
        cfg.cifar_cfg.verbose = false;
        cfg.aux_cfg.epochs = 1;
        cfg.aux_cfg.verbose = false;
        ModelStore::new(cfg)
    }

    #[test]
    fn datasets_are_memoized_and_sized() {
        let store = tiny_store("data");
        let a = store.mnist_train() as *const _;
        let b = store.mnist_train() as *const _;
        assert_eq!(a, b, "second call must reuse the first dataset");
        assert_eq!(store.mnist_train().len(), 200);
        assert_eq!(store.cifar_test().len(), 30);
        let (tr32, te32) = store.mnist32();
        assert_eq!(tr32.image(0).dims(), &[1, 32, 32]);
        assert_eq!(te32.len(), 40);
    }

    #[test]
    fn training_caches_to_disk_and_reloads() {
        let store = tiny_store("cache");
        let m1 = store.ffnn_mnist().unwrap();
        // Second call must hit the artifact cache and return identical weights.
        let m2 = store.ffnn_mnist().unwrap();
        assert_eq!(m1, m2);
        // The artifact file must exist.
        let files: Vec<_> = std::fs::read_dir(&store.config().dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            files.iter().any(|f| f.starts_with("ffnn-mnist")),
            "{files:?}"
        );
        let _ = std::fs::remove_dir_all(&store.config().dir);
    }
}
