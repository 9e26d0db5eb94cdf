//! Shared harness for the figure/table regeneration binaries, plus the
//! bench reports and their regression gate ([`check`]).
//!
//! Every binary reads its configuration from the environment:
//!
//! * `AXDNN_PROFILE` — `quick` (default; seconds-to-minutes, small test
//!   samples) or `full` (paper-scale training and samples, minutes).
//! * `AXDNN_ARTIFACTS` — artifact directory (default `artifacts/`);
//!   trained weights are cached here and results are written to
//!   `<artifacts>/results/`.
//! * `AXDNN_N_EVAL` — overrides the per-cell evaluation sample count.
//! * `AXDNN_THREADS` — worker threads (default: available parallelism).
//!
//! Regenerate everything with:
//!
//! ```text
//! cargo run --release -p bench --bin train_models
//! for f in fig1 fig4 fig5 fig6 fig7 fig8 table1 table2 multipliers_report \
//!          clean_accuracy qlevel_sweep ablation_structure; do
//!     cargo run --release -p bench --bin repro -- $f
//! done
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod check;

use std::path::PathBuf;

use axrobust::experiments::FigureOpts;
use axrobust::store::{ModelStore, StoreConfig};

/// The artifact directory from `AXDNN_ARTIFACTS` (default `artifacts`).
pub fn artifacts_dir() -> PathBuf {
    std::env::var("AXDNN_ARTIFACTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("artifacts"))
}

/// Whether the `full` profile is selected.
pub fn is_full_profile() -> bool {
    std::env::var("AXDNN_PROFILE")
        .map(|v| v.eq_ignore_ascii_case("full"))
        .unwrap_or(false)
}

/// Builds the model store for the selected profile.
pub fn store_from_env() -> ModelStore {
    let dir = artifacts_dir();
    let cfg = if is_full_profile() {
        StoreConfig::full(dir)
    } else {
        StoreConfig::quick(dir)
    };
    ModelStore::new(cfg)
}

/// Builds figure options for the selected profile, honouring
/// `AXDNN_N_EVAL`.
pub fn figure_opts_from_env() -> FigureOpts {
    let mut opts = if is_full_profile() {
        FigureOpts::with_n(200)
    } else {
        FigureOpts::with_n(60)
    };
    if let Ok(v) = std::env::var("AXDNN_N_EVAL") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                opts.n_eval = n;
            }
        }
    }
    opts
}

/// Prints `content` and also writes it to
/// `<artifacts>/results/<name>.txt`.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let dir = artifacts_dir().join("results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.txt"));
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("[saved {}]", path.display());
        }
    }
}

/// Wall-clock helper for binary footers.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    eprintln!("[{label}: {:.1}s]", start.elapsed().as_secs_f32());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_quick_profile() {
        // Do not mutate the environment (tests run in one process); only
        // exercise the default paths.
        let opts = figure_opts_from_env();
        assert!(opts.n_eval > 0);
        assert_eq!(opts.eps_grid.len(), 10);
        assert!(!artifacts_dir().as_os_str().is_empty());
    }

    #[test]
    fn timed_passes_value_through() {
        assert_eq!(timed("t", || 42), 42);
    }
}
