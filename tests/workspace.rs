//! Smoke tests of the workspace metadata itself: every member crate is
//! listed in the root manifest, and the umbrella package depends on (and
//! re-exports) each library crate. Complements `reexports_are_wired` in
//! `src/lib.rs`, which exercises the re-exports at the API level.

/// The root manifest, compiled in so the test needs no runtime I/O.
const ROOT_MANIFEST: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));

/// The eleven member crates under `crates/`.
const MEMBERS: [&str; 11] = [
    "crates/axattack",
    "crates/axcirc",
    "crates/axdata",
    "crates/axmul",
    "crates/axnn",
    "crates/axquant",
    "crates/axserve",
    "crates/axtensor",
    "crates/axutil",
    "crates/bench",
    "crates/core",
];

/// The vendored offline shims (see `vendor/README.md`).
const VENDORED: [&str; 2] = ["vendor/bytes", "vendor/proptest"];

/// The ten library crates the umbrella package re-exports.
const UMBRELLA_DEPS: [&str; 10] = [
    "axattack", "axcirc", "axdata", "axmul", "axnn", "axquant", "axrobust", "axserve", "axtensor",
    "axutil",
];

#[test]
fn all_member_crates_are_in_the_workspace() {
    for member in MEMBERS.iter().chain(&VENDORED) {
        assert!(
            ROOT_MANIFEST.contains(&format!("\"{member}\"")),
            "workspace members must list {member}"
        );
    }
}

#[test]
fn umbrella_depends_on_every_library_crate() {
    for dep in UMBRELLA_DEPS {
        assert!(
            ROOT_MANIFEST.contains(&format!("{dep}.workspace = true")),
            "umbrella [dependencies] must include {dep}"
        );
        assert!(
            ROOT_MANIFEST.contains(&format!("{dep} = {{ path = ")),
            "[workspace.dependencies] must define {dep} as a path dependency"
        );
    }
}

#[test]
fn core_crate_is_packaged_as_axrobust() {
    // `crates/core` is the only member whose directory and package names
    // differ; the umbrella and 14 call sites import it as `axrobust`.
    let core_manifest = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/core/Cargo.toml"
    ));
    assert!(core_manifest.contains("name = \"axrobust\""));
    assert!(ROOT_MANIFEST.contains("axrobust = { path = \"crates/core\""));
}

#[test]
fn umbrella_reexports_reach_every_crate() {
    // One cheap call through each re-exported crate proves the paths the
    // README and rustdoc advertise actually resolve.
    let _ = axdnn::circ::Netlist::new(4);
    let _ = axdnn::mul::Registry::standard();
    let _ = axdnn::tensor::Tensor::from_vec(vec![0.0; 4], &[4]);
    let _ = axdnn::util::rng::Rng::seed_from_u64(1);
    let _ = axdnn::data::mnist::MnistConfig::default();
    let _ = axdnn::nn::zoo::ffnn(&mut axdnn::util::rng::Rng::seed_from_u64(2));
    let _ = axdnn::quant::Placement::ConvOnly;
    let _ = axdnn::serve::ServerConfig::default();
    assert_eq!(axdnn::attack::suite::AttackId::ALL.len(), 10);
    assert_eq!(axdnn::robust::eval::paper_eps_grid().len(), 10);
}
