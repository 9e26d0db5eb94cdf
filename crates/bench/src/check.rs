//! The bench reports and the CI perf regression gate behind the
//! `bench_check` binary.
//!
//! Every `BENCH_<suite>.json` report is a flat JSON array of [`Row`]s
//! with one schema, `{suite, workload, metric, value, unit}`, written by
//! one writer ([`Report::write`]) that both `bench_report` and `loadgen`
//! call; [`SUITES`] lists each suite and the binary that writes it.
//! Verdicts a writer computes itself (a met throughput floor, a
//! hardening or honesty verdict) are `0`/`1` rows with unit `bool`.
//!
//! The gate is data too: [`RULES`] is one constant table in which each
//! [`Rule`] names a report file, a workload and a metric plus one [`Op`]
//! the value must satisfy — a floor, a ceiling, a range, an integer
//! count, an inequality against another metric of the same workload, or
//! a conservation sum. A rule whose row is missing fails, so a workload
//! dropped from a report cannot pass unnoticed. [`check_reports`] applies
//! the whole table.
//!
//! Report loading goes through [`load_report`], which keeps "the file
//! was never generated" ([`LoadError::Missing`]) apart from "the file is
//! corrupt" ([`LoadError::Malformed`]) — the two demand different fixes
//! and CI output should say which one applies.

use std::collections::HashMap;
use std::path::Path;

use Op::{AtLeast, AtMost, InRange, Integer, LeMetric, SumEq};

/// A minimal JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded minimally: `\"`, `\\`, `\/`, `\n`,
    /// `\t`, `\r`).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(HashMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos:?}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                out.push(match esc {
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => *other as char,
                });
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through byte by byte;
                // the reports are ASCII so this stays exact.
                out.push(c as char);
                *pos += 1;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos:?}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = HashMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        map.insert(key, parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos:?}")),
        }
    }
}

/// Every report suite and the binary that writes it. Suite `s` is
/// written to `BENCH_<s>.json` ([`report_file`]) in the current
/// directory (the repo root in CI).
pub const SUITES: [(&str, &str); 8] = [
    ("attacks", "bench_report"),
    ("train", "bench_report"),
    ("finetune", "bench_report"),
    ("gemm", "bench_report"),
    ("faults", "bench_report"),
    ("universal", "bench_report"),
    ("mtd", "bench_report"),
    ("serve", "loadgen"),
];

/// The report file of `suite`.
pub fn report_file(suite: &str) -> String {
    format!("BENCH_{suite}.json")
}

/// One measurement: the single schema of every `BENCH_*.json` report.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The report suite (see [`SUITES`]).
    pub suite: String,
    /// What was measured: an attack, model, kernel shape, multiplier,
    /// scenario, or `config`/`verdict` for run settings and verdicts.
    pub workload: String,
    /// Which quantity of the workload.
    pub metric: String,
    /// The value, rounded to four decimals by the writer.
    pub value: f64,
    /// The unit (`ms`, `x`, `fraction`, `count`, `bool`, ...; for a
    /// perturbation budget, its norm).
    pub unit: String,
}

/// A report under construction: the one writer of `BENCH_*.json`.
#[derive(Debug, Clone)]
pub struct Report {
    suite: &'static str,
    rows: Vec<Row>,
}

impl Report {
    /// An empty report of `suite`.
    ///
    /// # Panics
    ///
    /// Panics if `suite` is not listed in [`SUITES`], so a report the
    /// gate does not know about cannot be written.
    pub fn new(suite: &'static str) -> Self {
        assert!(
            SUITES.iter().any(|&(s, _)| s == suite),
            "unknown report suite {suite:?}"
        );
        Report {
            suite,
            rows: Vec::new(),
        }
    }

    /// Appends one row. Values are rounded to four decimals, so the
    /// deterministic accuracies replay byte-identically.
    pub fn add(
        &mut self,
        workload: &str,
        metric: &str,
        value: impl Into<f64>,
        unit: &str,
    ) -> &mut Self {
        let value: f64 = value.into();
        self.rows.push(Row {
            suite: self.suite.to_owned(),
            workload: workload.to_owned(),
            metric: metric.to_owned(),
            value: (value * 1e4).round() / 1e4,
            unit: unit.to_owned(),
        });
        self
    }

    /// The report as JSON: an array with one row object per line.
    pub fn to_json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let lines: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "  {{\"suite\": \"{}\", \"workload\": \"{}\", \"metric\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}",
                    esc(&r.suite),
                    esc(&r.workload),
                    esc(&r.metric),
                    r.value,
                    esc(&r.unit)
                )
            })
            .collect();
        format!("[\n{}\n]\n", lines.join(",\n"))
    }

    /// The report as a Markdown table: one line per workload, one column
    /// per metric, both in first-seen order.
    pub fn to_markdown(&self) -> String {
        let mut workloads: Vec<&str> = Vec::new();
        let mut metrics: Vec<(&str, &str)> = Vec::new();
        for r in &self.rows {
            if !workloads.contains(&r.workload.as_str()) {
                workloads.push(&r.workload);
            }
            if !metrics.iter().any(|&(m, _)| m == r.metric) {
                metrics.push((&r.metric, &r.unit));
            }
        }
        let mut out = format!("# {}\n\n| workload |", report_file(self.suite));
        for (m, u) in &metrics {
            out.push_str(&format!(" {m} ({u}) |"));
        }
        out.push_str(&format!("\n|---|{}\n", "---|".repeat(metrics.len())));
        for w in workloads {
            out.push_str(&format!("| {w} |"));
            for (m, _) in &metrics {
                match self.rows.iter().find(|r| r.workload == w && r.metric == *m) {
                    Some(r) => out.push_str(&format!(" {} |", r.value)),
                    None => out.push_str(" |"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Writes `BENCH_<suite>.json` into the current directory and emits
    /// the Markdown table as `bench_<suite>` (stdout plus the artifacts
    /// directory, see [`crate::emit`]).
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write(&self) {
        let file = report_file(self.suite);
        std::fs::write(&file, self.to_json()).unwrap_or_else(|e| panic!("write {file}: {e}"));
        eprintln!("[saved {file}]");
        crate::emit(&format!("bench_{}", self.suite), &self.to_markdown());
    }
}

/// Why a report file could not be loaded — the two cases need different
/// operator responses, so [`load_report`] keeps them apart instead of
/// collapsing both into one "bad file" string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The file does not exist: the report was never generated. The fix
    /// is to *run* `bench_report`, not to debug the file.
    Missing {
        /// The report path.
        file: String,
    },
    /// The file exists but is unreadable, not valid JSON, or not an
    /// array of well-formed [`Row`]s: the report run was interrupted or
    /// the file was corrupted. The fix is to delete it and *re-run*
    /// `bench_report`.
    Malformed {
        /// The report path.
        file: String,
        /// What exactly went wrong (I/O error, first JSON syntax error,
        /// or the first row that breaks the schema).
        detail: String,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Missing { file } => write!(
                f,
                "{file}: report not found — run `cargo run --release -p bench --bin \
                 bench_report` (and `loadgen` for BENCH_serve.json) first; the gate \
                 validates fresh reports, it does not create them"
            ),
            LoadError::Malformed { file, detail } => write!(
                f,
                "{file}: report exists but is not valid ({detail}) — the writing run \
                 was likely interrupted; delete the file and re-run the bench binary"
            ),
        }
    }
}

impl std::error::Error for LoadError {}

/// Reads and parses one report file into its rows, distinguishing
/// *absent* from *broken* (see [`LoadError`]). Every row must carry
/// string `suite`, `workload` and `metric` fields, a numeric `value`
/// and a non-empty string `unit`; a `(workload, metric)` pair may occur
/// only once.
///
/// # Errors
///
/// [`LoadError::Missing`] when the file does not exist,
/// [`LoadError::Malformed`] when it cannot be read, parsed, or breaks
/// the row schema.
pub fn load_report(path: &Path) -> Result<Vec<Row>, LoadError> {
    let file = path.display().to_string();
    let malformed = |detail: String| LoadError::Malformed {
        file: file.clone(),
        detail,
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(LoadError::Missing { file })
        }
        Err(e) => return Err(malformed(format!("unreadable: {e}"))),
    };
    let doc = Json::parse(&text).map_err(&malformed)?;
    let items = doc
        .as_arr()
        .ok_or_else(|| malformed("not an array of rows".into()))?;
    let mut rows: Vec<Row> = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let text = |key: &str| item.get(key).and_then(Json::as_str).map(str::to_owned);
        let row = match (
            text("suite"),
            text("workload"),
            text("metric"),
            item.get("value").and_then(Json::as_f64),
            text("unit").filter(|u| !u.is_empty()),
        ) {
            (Some(suite), Some(workload), Some(metric), Some(value), Some(unit)) => Row {
                suite,
                workload,
                metric,
                value,
                unit,
            },
            _ => {
                return Err(malformed(format!(
                    "row {i} lacks a string suite/workload/metric, a numeric value \
                     or a non-empty unit"
                )))
            }
        };
        if rows
            .iter()
            .any(|r| r.workload == row.workload && r.metric == row.metric)
        {
            return Err(malformed(format!(
                "row {i} repeats {}/{}",
                row.workload, row.metric
            )));
        }
        rows.push(row);
    }
    Ok(rows)
}

/// What a [`Rule`] requires of its row's value `v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `v >= floor`.
    AtLeast(f64),
    /// `v <= ceiling`.
    AtMost(f64),
    /// `lo <= v <= hi`.
    InRange(f64, f64),
    /// `v` is a non-negative integer (a count).
    Integer,
    /// `v <= other + slack`, `other` a metric of the same workload.
    LeMetric {
        /// The metric bounding `v`.
        other: &'static str,
        /// Allowed excess; negative demands a strict margin.
        slack: f64,
    },
    /// `v + sum(parts) == total`, all metrics of the same workload.
    SumEq {
        /// The metrics added to `v`.
        parts: &'static [&'static str],
        /// The metric the sum must equal.
        total: &'static str,
    },
}

/// One gate check: `op` applied to `workload`'s `metric` in `file`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// The report file (`BENCH_<suite>.json`).
    pub file: &'static str,
    /// The row's workload.
    pub workload: &'static str,
    /// The row's metric.
    pub metric: &'static str,
    /// What the value must satisfy.
    pub op: Op,
}

const fn rule(file: &'static str, workload: &'static str, metric: &'static str, op: Op) -> Rule {
    Rule {
        file,
        workload,
        metric,
        op,
    }
}

const ATTACKS: &str = "BENCH_attacks.json";
const TRAIN: &str = "BENCH_train.json";
const FINETUNE: &str = "BENCH_finetune.json";
const GEMM: &str = "BENCH_gemm.json";
const FAULTS: &str = "BENCH_faults.json";
const UNIVERSAL: &str = "BENCH_universal.json";
const MTD: &str = "BENCH_mtd.json";
const SERVE: &str = "BENCH_serve.json";

/// An accuracy.
const FRACTION: Op = InRange(0.0, 1.0);
/// A `0`/`1` verdict row that must hold.
const TRUE: Op = InRange(1.0, 1.0);
/// Strictly positive.
const POSITIVE: Op = AtLeast(f64::MIN_POSITIVE);
/// Serving outcome conservation: every request gets exactly one verdict.
const CONSERVED: Op = SumEq {
    parts: &["shed", "deadline", "poisoned"],
    total: "requests",
};
/// Latency quantiles are ordered.
const P50_LE_P99: Op = LeMetric {
    other: "p99_ms",
    slack: 0.0,
};
/// Fine-tuning beats PTQ: strictly, on the writer's 4-decimal grid.
const BELOW_FINETUNED: Op = LeMetric {
    other: "finetuned",
    slack: -5e-5,
};
/// The honesty check on the MTD ensemble row itself, independent of the
/// recorded verdict: the adaptive attacker is never the weaker one.
const ADAPTIVE_LE_STATIC: Op = LeMetric {
    other: "static_adv",
    slack: 1e-6,
};
/// Batched crafting beats one `craft` call per image by a margin: the
/// batch steps its 4-image block in lockstep, one block forward and
/// backward per step where per-image crafting runs four one-image
/// passes. Read on the median of interleaved per-pair differences (ms)
/// on the 4-image CI run. Six runs on a shared 2-vCPU host measured
/// −0.29 to −0.44 ms for FGM and −1.8 to −3.8 ms for BIM/PGD; blocks of
/// one (the per-image work, a plan compiled once) read −0.02 to −0.05,
/// so this ceiling fails a batch that stops blocking.
const BATCH_NEVER_LOSES: Op = AtMost(-0.1);
/// A block of images through the LUT GEMM is never slower per MAC than
/// the same images one call each: on a dense layer the block reads each
/// weight and LUT row once for four images, and on LeNet-5's conv layers
/// it runs four images' panels per call and conv3 as one 4-row block.
const BLOCK_NEVER_LOSES: Op = LeMetric {
    other: "block_macs_per_s",
    slack: 0.0,
};
/// LeNet-5's input gradient over a 4-image block is never slower per MAC
/// than one image per call: the block shares one backward walk and widens
/// conv2's input-gradient axpy fourfold.
const INPUT_GRAD_BLOCK_NEVER_LOSES: Op = LeMetric {
    other: "block_macs_per_s",
    slack: 0.0,
};
/// The attack rows' paired batched-minus-per-image time.
const BATCH_DELTA: &str = "batched_minus_scalar_ms";
/// The `steady` scenario completes every request.
const ALL_COMPLETED: Op = SumEq {
    parts: &[],
    total: "requests",
};

/// The whole gate. Speedup floors hold landed scalar-vs-batched training
/// and reference-vs-tiled wins, each set ~25–30% under its measured
/// speedup to absorb CI-runner jitter; the attack rows hold batched
/// crafting at or under per-image crafting (median paired difference) and
/// record its absolute rate, as the `lenet5-input-grad` rows record the
/// one-thread input gradient's time and MAC rate, one image per call and
/// as a 4-image block, the block never the slower per MAC, and the
/// one-thread LUT-GEMM rows of a dense layer and of LeNet-5's conv
/// layers hold the same block-never-loses rule; the
/// `ffnn-1x28` train step holds the rank-n gradient fold's win over one
/// gradient buffer per image (measured 3.8–4.5x at
/// `AXDNN_BENCH_IMAGES=4`). Accuracy rules are
/// exact: the fine-tuning, fault, universal and moving-target pipelines
/// are deterministic and thread-invariant, so those values never jitter.
pub const RULES: &[Rule] = &[
    rule(ATTACKS, "FGM-linf", BATCH_DELTA, BATCH_NEVER_LOSES),
    rule(ATTACKS, "FGM-linf", "images_per_s", POSITIVE),
    rule(ATTACKS, "BIM-linf", BATCH_DELTA, BATCH_NEVER_LOSES),
    rule(ATTACKS, "BIM-linf", "images_per_s", POSITIVE),
    rule(ATTACKS, "PGD-linf", BATCH_DELTA, BATCH_NEVER_LOSES),
    rule(ATTACKS, "PGD-linf", "images_per_s", POSITIVE),
    rule(ATTACKS, "PGD-l2", BATCH_DELTA, BATCH_NEVER_LOSES),
    rule(ATTACKS, "PGD-l2", "images_per_s", POSITIVE),
    rule(TRAIN, "ffnn-1x28", "speedup", AtLeast(2.8)),
    rule(TRAIN, "lenet5-1x28", "speedup", AtLeast(1.04)),
    rule(GEMM, "lenet5-conv1-6x576x25", "speedup", AtLeast(1.5)),
    rule(GEMM, "lenet5-conv2-16x64x150", "speedup", AtLeast(1.5)),
    rule(GEMM, "ffnn-dense1-300x784", "speedup", AtLeast(1.4)),
    rule(
        GEMM,
        "ffnn-dense1-300x784-lut",
        "one_image_macs_per_s",
        BLOCK_NEVER_LOSES,
    ),
    rule(
        GEMM,
        "lenet5-conv-lut",
        "one_image_macs_per_s",
        BLOCK_NEVER_LOSES,
    ),
    rule(GEMM, "lenet5-input-grad", "us", POSITIVE),
    rule(GEMM, "lenet5-input-grad", "macs_per_s", POSITIVE),
    rule(
        GEMM,
        "lenet5-input-grad",
        "macs_per_s",
        INPUT_GRAD_BLOCK_NEVER_LOSES,
    ),
    rule(FINETUNE, "finetune_grad_batch", "speedup", AtLeast(0.8)),
    rule(FINETUNE, "clean_accuracy", "ptq", BELOW_FINETUNED),
    rule(FAULTS, "campaign", "n_faults", AtLeast(1.0)),
    rule(FAULTS, "lut_rebuild", "floor_per_s", POSITIVE),
    rule(FAULTS, "lut_rebuild", "meets_floor", TRUE),
    rule(FAULTS, "1JFF", "clean", FRACTION),
    rule(FAULTS, "1JFF", "adv", FRACTION),
    rule(FAULTS, "1JFF", "fault_clean_mean", FRACTION),
    rule(FAULTS, "1JFF", "fault_clean_worst", FRACTION),
    rule(FAULTS, "1JFF", "fault_adv_mean", FRACTION),
    rule(FAULTS, "1JFF", "fault_adv_worst", FRACTION),
    rule(FAULTS, "17KS", "clean", FRACTION),
    rule(FAULTS, "17KS", "adv", FRACTION),
    rule(FAULTS, "17KS", "fault_clean_mean", FRACTION),
    rule(FAULTS, "17KS", "fault_clean_worst", FRACTION),
    rule(FAULTS, "17KS", "fault_adv_mean", FRACTION),
    rule(FAULTS, "17KS", "fault_adv_worst", FRACTION),
    rule(FAULTS, "L40", "clean", FRACTION),
    rule(FAULTS, "L40", "adv", FRACTION),
    rule(FAULTS, "L40", "fault_clean_mean", FRACTION),
    rule(FAULTS, "L40", "fault_clean_worst", FRACTION),
    rule(FAULTS, "L40", "fault_adv_mean", FRACTION),
    rule(FAULTS, "L40", "fault_adv_worst", FRACTION),
    rule(UNIVERSAL, "config", "eps", POSITIVE),
    rule(UNIVERSAL, "config", "craft_epochs", AtLeast(1.0)),
    rule(UNIVERSAL, "verdict", "hardening_helps", TRUE),
    rule(UNIVERSAL, "1JFF", "clean_before", FRACTION),
    rule(UNIVERSAL, "1JFF", "universal_before", FRACTION),
    rule(UNIVERSAL, "1JFF", "clean_after", FRACTION),
    rule(UNIVERSAL, "1JFF", "universal_after", FRACTION),
    rule(UNIVERSAL, "17KS", "clean_before", FRACTION),
    rule(UNIVERSAL, "17KS", "universal_before", FRACTION),
    rule(UNIVERSAL, "17KS", "clean_after", FRACTION),
    rule(UNIVERSAL, "17KS", "universal_after", FRACTION),
    rule(UNIVERSAL, "L40", "clean_before", FRACTION),
    rule(UNIVERSAL, "L40", "universal_before", FRACTION),
    rule(UNIVERSAL, "L40", "clean_after", FRACTION),
    rule(UNIVERSAL, "L40", "universal_after", FRACTION),
    rule(MTD, "config", "eps", POSITIVE),
    rule(MTD, "config", "samples", AtLeast(1.0)),
    rule(MTD, "verdict", "adaptive_no_better_than_static", TRUE),
    rule(MTD, "1JFF", "clean", FRACTION),
    rule(MTD, "1JFF", "static_adv", FRACTION),
    rule(MTD, "1JFF", "adaptive_adv", FRACTION),
    rule(MTD, "17KS", "clean", FRACTION),
    rule(MTD, "17KS", "static_adv", FRACTION),
    rule(MTD, "17KS", "adaptive_adv", FRACTION),
    rule(MTD, "L40", "clean", FRACTION),
    rule(MTD, "L40", "static_adv", FRACTION),
    rule(MTD, "L40", "adaptive_adv", FRACTION),
    rule(MTD, "ensemble", "clean", FRACTION),
    rule(MTD, "ensemble", "static_adv", FRACTION),
    rule(MTD, "ensemble", "adaptive_adv", FRACTION),
    rule(MTD, "ensemble", "adaptive_adv", ADAPTIVE_LE_STATIC),
    rule(SERVE, "steady", "requests", Integer),
    rule(SERVE, "steady", "completed", Integer),
    rule(SERVE, "steady", "shed", Integer),
    rule(SERVE, "steady", "deadline", Integer),
    rule(SERVE, "steady", "poisoned", Integer),
    rule(SERVE, "steady", "retries", Integer),
    rule(SERVE, "steady", "completed", CONSERVED),
    rule(SERVE, "steady", "p50_ms", AtLeast(0.0)),
    rule(SERVE, "steady", "p50_ms", P50_LE_P99),
    rule(SERVE, "steady", "throughput_per_s", POSITIVE),
    rule(SERVE, "overload", "requests", Integer),
    rule(SERVE, "overload", "completed", Integer),
    rule(SERVE, "overload", "shed", Integer),
    rule(SERVE, "overload", "deadline", Integer),
    rule(SERVE, "overload", "poisoned", Integer),
    rule(SERVE, "overload", "retries", Integer),
    rule(SERVE, "overload", "completed", CONSERVED),
    rule(SERVE, "overload", "p50_ms", AtLeast(0.0)),
    rule(SERVE, "overload", "p50_ms", P50_LE_P99),
    rule(SERVE, "overload", "throughput_per_s", POSITIVE),
    rule(SERVE, "poison", "requests", Integer),
    rule(SERVE, "poison", "completed", Integer),
    rule(SERVE, "poison", "shed", Integer),
    rule(SERVE, "poison", "deadline", Integer),
    rule(SERVE, "poison", "poisoned", Integer),
    rule(SERVE, "poison", "retries", Integer),
    rule(SERVE, "poison", "completed", CONSERVED),
    rule(SERVE, "poison", "p50_ms", AtLeast(0.0)),
    rule(SERVE, "poison", "p50_ms", P50_LE_P99),
    rule(SERVE, "poison", "throughput_per_s", POSITIVE),
    rule(SERVE, "deadline", "requests", Integer),
    rule(SERVE, "deadline", "completed", Integer),
    rule(SERVE, "deadline", "shed", Integer),
    rule(SERVE, "deadline", "deadline", Integer),
    rule(SERVE, "deadline", "poisoned", Integer),
    rule(SERVE, "deadline", "retries", Integer),
    rule(SERVE, "deadline", "completed", CONSERVED),
    rule(SERVE, "deadline", "p50_ms", AtLeast(0.0)),
    rule(SERVE, "deadline", "p50_ms", P50_LE_P99),
    rule(SERVE, "deadline", "throughput_per_s", POSITIVE),
    // Each scenario must still exhibit the failure mode it injects.
    rule(SERVE, "steady", "completed", ALL_COMPLETED),
    rule(SERVE, "overload", "shed", AtLeast(1.0)),
    rule(SERVE, "poison", "poisoned", AtLeast(1.0)),
    rule(SERVE, "poison", "retries", AtLeast(1.0)),
    rule(SERVE, "deadline", "deadline", AtLeast(1.0)),
];

impl Rule {
    /// Checks this rule against `rows` (one report's rows). Returns the
    /// violation, if any.
    pub fn check(&self, rows: &[Row]) -> Option<String> {
        let get = |metric: &str| {
            rows.iter()
                .find(|r| r.workload == self.workload && r.metric == metric)
                .map(|r| r.value)
        };
        let (file, w, m) = (self.file, self.workload, self.metric);
        let missing = |metric: &str| Some(format!("{file}: row {w}/{metric} missing"));
        let Some(v) = get(m) else {
            return missing(m);
        };
        let broken = |want: String| Some(format!("{file}: {w} {m} = {v} violates {want}"));
        match self.op {
            Op::AtLeast(lo) if v < lo => broken(format!(">= {lo}")),
            Op::AtMost(hi) if v > hi => broken(format!("<= {hi}")),
            Op::InRange(lo, hi) if !(lo..=hi).contains(&v) => broken(format!("[{lo}, {hi}]")),
            Op::Integer if v < 0.0 || v.fract() != 0.0 => broken("a non-negative integer".into()),
            Op::LeMetric { other, slack } => match get(other) {
                None => missing(other),
                Some(o) if v > o + slack => broken(format!("<= {other} {o} + {slack}")),
                Some(_) => None,
            },
            Op::SumEq { parts, total } => {
                let mut sum = v;
                for part in parts {
                    match get(part) {
                        Some(p) => sum += p,
                        None => return missing(part),
                    }
                }
                match get(total) {
                    None => missing(total),
                    Some(t) if sum != t => {
                        let lhs: Vec<&str> =
                            std::iter::once(m).chain(parts.iter().copied()).collect();
                        broken(format!("{} = {total} {t} (sum {sum})", lhs.join(" + ")))
                    }
                    Some(_) => None,
                }
            }
            _ => None,
        }
    }
}

/// Every violation of [`RULES`] in one report's rows.
pub fn check_rows(file: &str, rows: &[Row]) -> Vec<String> {
    RULES
        .iter()
        .filter(|r| r.file == file)
        .filter_map(|r| r.check(rows))
        .collect()
}

/// Loads every [`SUITES`] report from `dir` and checks it against
/// [`RULES`]. Returns every load error and violation (empty = pass).
pub fn check_reports(dir: &Path) -> Vec<String> {
    let mut errs = Vec::new();
    for (suite, _) in SUITES {
        let file = report_file(suite);
        match load_report(&dir.join(&file)) {
            Ok(rows) => errs.extend(check_rows(&file, &rows)),
            Err(e) => errs.push(e.to_string()),
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report that passes every rule, one workload per line:
    /// `file workload metric=value ...`.
    const HEALTHY: &str = "
        BENCH_attacks.json FGM-linf batched_minus_scalar_ms=-2.1 images_per_s=784
        BENCH_attacks.json BIM-linf batched_minus_scalar_ms=-1.7 images_per_s=282
        BENCH_attacks.json PGD-linf batched_minus_scalar_ms=-1.6 images_per_s=280
        BENCH_attacks.json PGD-l2 batched_minus_scalar_ms=-1.6 images_per_s=278
        BENCH_train.json ffnn-1x28 speedup=3.5
        BENCH_train.json lenet5-1x28 speedup=1.4
        BENCH_gemm.json lenet5-conv1-6x576x25 speedup=1.7
        BENCH_gemm.json lenet5-conv2-16x64x150 speedup=1.9
        BENCH_gemm.json ffnn-dense1-300x784 speedup=2.1
        BENCH_gemm.json ffnn-dense1-300x784-lut one_image_macs_per_s=1.0e9 block_macs_per_s=1.4e9
        BENCH_gemm.json lenet5-conv-lut one_image_macs_per_s=1.5e9 block_macs_per_s=1.7e9
        BENCH_gemm.json lenet5-input-grad us=190 macs_per_s=2.9e9 block_us=140 block_macs_per_s=4.0e9
        BENCH_finetune.json finetune_grad_batch speedup=2.0
        BENCH_finetune.json clean_accuracy ptq=0.795 finetuned=0.925
        BENCH_faults.json campaign n_faults=6 seed=64023
        BENCH_faults.json lut_rebuild floor_per_s=5 meets_floor=1
        BENCH_faults.json 1JFF clean=0.9 adv=0.5 fault_clean_mean=0.85 fault_clean_worst=0.6 fault_adv_mean=0.45 fault_adv_worst=0.2
        BENCH_faults.json 17KS clean=0.9 adv=0.5 fault_clean_mean=0.85 fault_clean_worst=0.6 fault_adv_mean=0.45 fault_adv_worst=0.2
        BENCH_faults.json L40 clean=0.9 adv=0.5 fault_clean_mean=0.85 fault_clean_worst=0.6 fault_adv_mean=0.45 fault_adv_worst=0.2
        BENCH_universal.json config eps=0.1 craft_epochs=5
        BENCH_universal.json verdict hardening_helps=1
        BENCH_universal.json 1JFF clean_before=0.9 universal_before=0.4 clean_after=0.88 universal_after=0.7
        BENCH_universal.json 17KS clean_before=0.9 universal_before=0.4 clean_after=0.88 universal_after=0.7
        BENCH_universal.json L40 clean_before=0.9 universal_before=0.4 clean_after=0.88 universal_after=0.7
        BENCH_mtd.json config eps=0.1 samples=2
        BENCH_mtd.json verdict adaptive_no_better_than_static=1
        BENCH_mtd.json 1JFF clean=0.9 static_adv=0.3 adaptive_adv=0.3
        BENCH_mtd.json 17KS clean=0.9 static_adv=0.3 adaptive_adv=0.3
        BENCH_mtd.json L40 clean=0.9 static_adv=0.3 adaptive_adv=0.3
        BENCH_mtd.json ensemble clean=0.88 static_adv=0.45 adaptive_adv=0.35
        BENCH_serve.json steady requests=64 completed=64 shed=0 deadline=0 poisoned=0 retries=0 throughput_per_s=812.5 p50_ms=1.2 p99_ms=4.7
        BENCH_serve.json overload requests=64 completed=40 shed=24 deadline=0 poisoned=0 retries=0 throughput_per_s=310 p50_ms=2 p99_ms=9.5
        BENCH_serve.json poison requests=16 completed=15 shed=0 deadline=0 poisoned=1 retries=6 throughput_per_s=120 p50_ms=1.5 p99_ms=6
        BENCH_serve.json deadline requests=16 completed=10 shed=0 deadline=6 poisoned=0 retries=0 throughput_per_s=95 p50_ms=1.1 p99_ms=8
    ";

    fn suite_of(file: &str) -> &'static str {
        SUITES
            .iter()
            .map(|&(s, _)| s)
            .find(|s| report_file(s) == file)
            .unwrap_or_else(|| panic!("no suite writes {file}"))
    }

    fn healthy(file: &str) -> Report {
        let mut report = Report::new(suite_of(file));
        for line in HEALTHY
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with(file))
        {
            let mut words = line.split_whitespace().skip(1);
            let workload = words.next().unwrap();
            for pair in words {
                let (metric, value) = pair.split_once('=').unwrap();
                report.add(workload, metric, value.parse::<f64>().unwrap(), "u");
            }
        }
        report
    }

    /// `file`'s healthy rows with `workload`/`metric` set to `value`.
    fn with(file: &str, workload: &str, metric: &str, value: f64) -> Vec<Row> {
        let mut rows = healthy(file).rows;
        let row = rows
            .iter_mut()
            .find(|r| r.workload == workload && r.metric == metric)
            .unwrap_or_else(|| panic!("no healthy row {workload}/{metric}"));
        row.value = value;
        rows
    }

    /// `file`'s healthy rows without any row of `workload`.
    fn without(file: &str, workload: &str) -> Vec<Row> {
        let mut rows = healthy(file).rows;
        rows.retain(|r| r.workload != workload);
        rows
    }

    /// Asserts the rows fail the gate with a message containing `needle`.
    fn fails(file: &str, rows: &[Row], needle: &str) {
        let errs = check_rows(file, rows);
        assert!(
            errs.iter().any(|e| e.contains(needle)),
            "{needle}: {errs:?}"
        );
    }

    #[test]
    fn healthy_reports_pass_every_rule() {
        for (suite, _) in SUITES {
            let file = report_file(suite);
            let errs = check_rows(&file, &healthy(&file).rows);
            assert!(errs.is_empty(), "{file}: {errs:?}");
        }
    }

    #[test]
    fn speedup_below_floor_and_missing_entry_fail() {
        let f = TRAIN;
        fails(
            f,
            &with(f, "lenet5-1x28", "speedup", 0.5),
            "lenet5-1x28 speedup = 0.5",
        );
        fails(f, &without(f, "ffnn-1x28"), "ffnn-1x28/speedup missing");
    }

    #[test]
    fn input_gradient_rate_rows_are_required() {
        let f = GEMM;
        fails(
            f,
            &without(f, "lenet5-input-grad"),
            "lenet5-input-grad/us missing",
        );
        fails(
            f,
            &with(f, "lenet5-input-grad", "macs_per_s", 0.0),
            "lenet5-input-grad macs_per_s",
        );
    }

    #[test]
    fn input_gradient_block_must_not_lose_to_one_image_calls() {
        let f = GEMM;
        let w = "lenet5-input-grad";
        // Equal rates pass; a slower block fails.
        assert!(check_rows(f, &with(f, w, "block_macs_per_s", 2.9e9)).is_empty());
        fails(
            f,
            &with(f, w, "block_macs_per_s", 2.8e9),
            "lenet5-input-grad macs_per_s",
        );
    }

    #[test]
    fn lut_block_must_not_lose_to_one_image_calls() {
        let f = GEMM;
        let w = "ffnn-dense1-300x784-lut";
        // Equal rates pass; a slower block fails.
        assert!(check_rows(f, &with(f, w, "block_macs_per_s", 1.0e9)).is_empty());
        fails(
            f,
            &with(f, w, "block_macs_per_s", 0.9e9),
            "ffnn-dense1-300x784-lut one_image_macs_per_s",
        );
        fails(f, &without(f, w), "one_image_macs_per_s missing");
    }

    #[test]
    fn conv_lut_block_must_not_lose_to_one_image_calls() {
        let f = GEMM;
        let w = "lenet5-conv-lut";
        // Equal rates pass; a slower block fails.
        assert!(check_rows(f, &with(f, w, "block_macs_per_s", 1.5e9)).is_empty());
        fails(
            f,
            &with(f, w, "block_macs_per_s", 1.4e9),
            "lenet5-conv-lut one_image_macs_per_s",
        );
        fails(
            f,
            &without(f, w),
            "lenet5-conv-lut/one_image_macs_per_s missing",
        );
    }

    #[test]
    fn batched_crafting_must_not_lose_to_per_image_crafting() {
        let f = ATTACKS;
        // A margin of 0.1 ms passes; the blocks-of-one reading fails.
        assert!(check_rows(f, &with(f, "PGD-l2", BATCH_DELTA, -0.1)).is_empty());
        fails(
            f,
            &with(f, "PGD-l2", BATCH_DELTA, -0.04),
            "PGD-l2 batched_minus_scalar_ms = -0.04",
        );
        fails(
            f,
            &with(f, "FGM-linf", "images_per_s", 0.0),
            "FGM-linf images_per_s",
        );
        fails(
            f,
            &without(f, "BIM-linf"),
            "BIM-linf/batched_minus_scalar_ms missing",
        );
    }

    #[test]
    fn floors_are_per_row() {
        // 1.5 clears lenet5's 1.04 floor but not ffnn's 2.8.
        let mut rows = with(TRAIN, "ffnn-1x28", "speedup", 1.5);
        rows.iter_mut()
            .find(|r| r.workload == "lenet5-1x28")
            .unwrap()
            .value = 1.5;
        let errs = check_rows(TRAIN, &rows);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("ffnn-1x28"), "{errs:?}");
    }

    #[test]
    fn finetuning_must_still_beat_ptq() {
        let f = FINETUNE;
        fails(f, &with(f, "clean_accuracy", "ptq", 0.925), "ptq = 0.925");
        fails(f, &with(f, "clean_accuracy", "ptq", 0.93), "ptq");
        // One step of the writer's 4-decimal grid is enough.
        let rows = with(f, "clean_accuracy", "ptq", 0.9249);
        assert!(check_rows(f, &rows).is_empty());
    }

    #[test]
    fn fault_campaign_rules() {
        let f = FAULTS;
        fails(f, &with(f, "campaign", "n_faults", 0.0), "n_faults");
        fails(f, &with(f, "17KS", "clean", 1.5), "17KS clean = 1.5");
        fails(
            f,
            &with(f, "L40", "fault_adv_worst", -0.1),
            "fault_adv_worst",
        );
        fails(
            f,
            &with(f, "lut_rebuild", "meets_floor", 0.0),
            "meets_floor",
        );
        fails(
            f,
            &with(f, "lut_rebuild", "floor_per_s", 0.0),
            "floor_per_s",
        );
        fails(f, &without(f, "1JFF"), "1JFF/clean missing");
    }

    #[test]
    fn universal_rules() {
        let f = UNIVERSAL;
        fails(
            f,
            &with(f, "verdict", "hardening_helps", 0.0),
            "hardening_helps",
        );
        fails(
            f,
            &with(f, "L40", "universal_before", 1.4),
            "universal_before",
        );
        fails(f, &with(f, "config", "eps", 0.0), "eps");
        fails(f, &with(f, "config", "craft_epochs", 0.0), "craft_epochs");
    }

    #[test]
    fn mtd_rules() {
        let f = MTD;
        fails(
            f,
            &with(f, "verdict", "adaptive_no_better_than_static", 0.0),
            "adaptive",
        );
        // The row-level honesty check is independent of the verdict: a
        // report whose verdict says 1 but whose ensemble row says
        // otherwise fails.
        fails(
            f,
            &with(f, "ensemble", "adaptive_adv", 0.6),
            "adaptive_adv = 0.6",
        );
        fails(f, &without(f, "ensemble"), "ensemble/");
        fails(f, &with(f, "1JFF", "clean", 1.4), "1JFF clean = 1.4");
        fails(f, &with(f, "config", "samples", 0.0), "samples");
    }

    #[test]
    fn serving_must_conserve_requests() {
        // A steady request vanished without a verdict: conservation and
        // steady's own "everything completes" both trip.
        let rows = with(SERVE, "steady", "completed", 63.0);
        let errs = check_rows(SERVE, &rows);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs.iter().all(|e| e.contains("steady completed = 63")));
        fails(
            SERVE,
            &with(SERVE, "poison", "requests", 17.0),
            "poison completed",
        );
    }

    #[test]
    fn every_scenario_keeps_its_failure_mode() {
        let f = SERVE;
        // Overload that never shed: conservation also breaks unless the
        // shed requests completed instead.
        let mut rows = with(f, "overload", "shed", 0.0);
        rows.iter_mut()
            .find(|r| r.workload == "overload" && r.metric == "completed")
            .unwrap()
            .value = 64.0;
        let errs = check_rows(f, &rows);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("overload shed = 0"), "{errs:?}");
        fails(f, &with(f, "poison", "retries", 0.0), "poison retries = 0");
        fails(
            f,
            &with(f, "poison", "poisoned", 0.0),
            "poison poisoned = 0",
        );
        fails(
            f,
            &with(f, "deadline", "deadline", 0.0),
            "deadline deadline = 0",
        );
    }

    #[test]
    fn serving_counters_and_quantiles_are_sound() {
        let f = SERVE;
        fails(
            f,
            &with(f, "steady", "retries", 0.5),
            "non-negative integer",
        );
        fails(f, &with(f, "steady", "p50_ms", 5.0), "p50_ms = 5");
        fails(
            f,
            &with(f, "steady", "throughput_per_s", 0.0),
            "throughput_per_s",
        );
        fails(f, &without(f, "deadline"), "deadline/requests missing");
    }

    #[test]
    fn at_most_bounds_from_above() {
        let rows = healthy(SERVE).rows;
        let cap = |hi| rule(SERVE, "steady", "p99_ms", Op::AtMost(hi)).check(&rows);
        assert!(cap(4.7).is_none());
        assert!(cap(4.6).is_some_and(|e| e.contains("<= 4.6")));
    }

    #[test]
    fn writer_rounds_and_escapes() {
        let mut report = Report::new("mtd");
        report.add("a\"b", "clean", f64::from(0.933_333_3_f32), "fraction");
        let json = report.to_json();
        assert!(json.contains("\"value\": 0.9333,"), "{json}");
        let doc = Json::parse(&json).unwrap();
        let row = &doc.as_arr().unwrap()[0];
        assert_eq!(row.get("workload").and_then(Json::as_str), Some("a\"b"));
        let md = report.to_markdown();
        assert!(
            md.contains("| clean (fraction) |") && md.contains("| 0.9333 |"),
            "{md}"
        );
    }

    #[test]
    #[should_panic(expected = "unknown report suite")]
    fn writer_rejects_unknown_suites() {
        Report::new("warmup");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{\"a\": 1} tail").is_err());
        assert!(Json::parse("").is_err());
        let doc = Json::parse(r#"{"ok": true, "nothing": null, "xs": [1, -2.5e1]}"#).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("nothing"), Some(&Json::Null));
        assert_eq!(
            doc.get("xs").and_then(Json::as_arr).unwrap()[1],
            Json::Num(-25.0)
        );
    }

    #[test]
    fn load_report_distinguishes_missing_from_malformed() {
        let dir = std::env::temp_dir().join(format!(
            "axdnn-check-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        // Missing: never generated.
        let err = load_report(&dir.join("BENCH_never_written.json")).unwrap_err();
        assert!(matches!(err, LoadError::Missing { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains("not found") && msg.contains("bench_report"),
            "{msg}"
        );

        // Malformed: exists, but truncated mid-write, not an array, a
        // row off the schema, or a repeated row.
        let broken = [
            "[{\"suite\": \"serve\", \"worklo",
            "{\"rows\": []}",
            "[{\"suite\": \"serve\", \"workload\": \"steady\", \"metric\": \"shed\", \"unit\": \"count\"}]",
            "[{\"suite\": \"serve\", \"workload\": \"steady\", \"metric\": \"shed\", \"value\": 0, \"unit\": \"\"}]",
        ];
        let twice = healthy(SERVE).rows[0].clone();
        let mut dup = Report::new("serve");
        dup.add(&twice.workload, &twice.metric, 1.0, "count");
        dup.add(&twice.workload, &twice.metric, 2.0, "count");
        let path = dir.join("BENCH_broken.json");
        for text in broken.iter().map(|s| s.to_string()).chain([dup.to_json()]) {
            std::fs::write(&path, &text).unwrap();
            let err = load_report(&path).unwrap_err();
            assert!(
                matches!(err, LoadError::Malformed { .. }),
                "{text}: {err:?}"
            );
            let msg = err.to_string();
            assert!(
                msg.contains("re-run") && !msg.contains("not found"),
                "{msg}"
            );
        }

        // Healthy: the writer's output loads back row for row, and the
        // directory-level gate reports every other suite as missing.
        let report = healthy(SERVE);
        std::fs::write(dir.join(SERVE), report.to_json()).unwrap();
        assert_eq!(load_report(&dir.join(SERVE)).unwrap(), report.rows);
        let errs = check_reports(&dir);
        assert_eq!(errs.len(), SUITES.len() - 1, "{errs:?}");
        assert!(errs.iter().all(|e| e.contains("not found")), "{errs:?}");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every file `bench_report` or `loadgen` writes has at least one
    /// rule, and every rule's file is written by one of them.
    #[test]
    fn rules_and_writers_cover_each_other() {
        let sources = [
            ("bench_report", include_str!("bin/bench_report.rs")),
            ("loadgen", include_str!("bin/loadgen.rs")),
        ];
        for (bin, src) in sources {
            let written: Vec<&str> = SUITES
                .iter()
                .filter(|&&(_, b)| b == bin)
                .map(|&(s, _)| s)
                .collect();
            assert_eq!(src.matches("Report::new(").count(), written.len(), "{bin}");
            for suite in written {
                assert!(
                    src.contains(&format!("Report::new(\"{suite}\")")),
                    "{bin} {suite}"
                );
                let file = report_file(suite);
                assert!(RULES.iter().any(|r| r.file == file), "{file} has no rule");
            }
        }
        for r in RULES {
            assert!(
                SUITES.iter().any(|&(s, _)| report_file(s) == r.file),
                "{} is written by no binary",
                r.file
            );
        }
    }
}
