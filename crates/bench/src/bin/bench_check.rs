//! The perf regression gate: checks the fresh `BENCH_*.json` row reports
//! that `bench_report` and `loadgen` wrote into the current directory
//! against the rule table [`bench::check::RULES`].
//!
//! A missing report and a malformed one come out as different,
//! actionable messages (see [`bench::check::LoadError`]). Exits non-zero
//! listing every violation, so CI fails loudly instead of uploading a
//! silently regressed artifact.

fn main() {
    let errs = bench::check::check_reports(std::path::Path::new("."));
    if errs.is_empty() {
        println!(
            "bench_check: all reports healthy ({} rules)",
            bench::check::RULES.len()
        );
    } else {
        eprintln!("bench_check: {} violation(s):", errs.len());
        for e in &errs {
            eprintln!("  - {e}");
        }
        std::process::exit(1);
    }
}
