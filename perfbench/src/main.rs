//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <results-dir-a> <results-dir-b>
//! ```
//!
//! A run prints each metric by name with its unit, the host fingerprint,
//! and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` gives the
//! end-to-end metrics, `--trace 1` the per-layer ones. Every run also
//! writes a record (and, traced, its spans) under `perfbench/results/`.
//! See `perfbench/README.md`.

mod host;
mod inputs;
mod ladder;
mod repro;
mod serve;
mod spans;
mod stats;
mod workload;

use host::{Fingerprint, HOST_KEYS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::exit;
use workload::{Report, Workload};

fn usage() -> ! {
    eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    eprintln!("       perfbench compare <results-dir-a> <results-dir-b>");
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("workloads: {}", names.join(", "));
    exit(2);
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Args {
    let value = |flag: &str| {
        let i = args
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage());
        args.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    let workload = Workload::parse(&value("--workload")).unwrap_or_else(|| usage());
    let seed = value("--seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = value("--seconds").parse().unwrap_or_else(|_| usage());
    let trace = match value("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    if !(seconds > 0.0 && seconds <= 120.0) {
        usage();
    }
    Args {
        workload,
        seed,
        seconds,
        trace,
    }
}

/// The repository root: the benchmark package sits one level below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package has a parent")
        .to_path_buf()
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// The `simulate` binary built next to this one by `run.sh`.
fn simulate_bin() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    exe.with_file_name("simulate")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    let correct = report.failed == 0
        && report.attempted > 0
        && report.metrics.iter().all(|(_, v, _)| v.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    )
}

fn record(args: &Args, host: &Fingerprint, report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "workload\t{}", args.workload.name());
    let _ = writeln!(out, "seed\t{}", args.seed);
    let _ = writeln!(out, "seconds\t{}", args.seconds);
    let _ = writeln!(out, "trace\t{}", u8::from(args.trace));
    for (k, v) in host.fields() {
        let _ = writeln!(out, "{k}\t{v}");
    }
    let _ = writeln!(out, "attempted\t{}", report.attempted);
    let _ = writeln!(out, "failed\t{}", report.failed);
    for (k, v) in &report.notes {
        let _ = writeln!(out, "note\t{k}\t{v}");
    }
    for (name, value, unit) in &report.metrics {
        let _ = writeln!(out, "metric\t{name}\t{value}\t{unit}");
    }
    out
}

fn run(args: &Args) {
    let host = Fingerprint::of(&repo_root());
    let simulate = simulate_bin();
    if args.workload.repro_kind().is_none() && !simulate.is_file() {
        eprintln!(
            "{} not found: build and run through perfbench/run.sh",
            simulate.display()
        );
        exit(1);
    }
    let mut spans = Vec::new();
    let outcome = if args.trace {
        ladder::traced(args.workload, args.seed, args.seconds, &simulate).map(|(r, s)| {
            spans = s;
            r
        })
    } else {
        workload::run(args.workload, args.seed, args.seconds, &simulate)
    };
    let report = outcome.unwrap_or_else(|e| {
        eprintln!("{}: {e}", args.workload.name());
        exit(1);
    });

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in host.fields() {
        println!("{k} {v}");
    }
    for (k, v) in &report.notes {
        println!("note {k} {v}");
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name} {value} {unit}");
    }
    let dir = results_dir();
    let stem = format!(
        "{}.seed{}.trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}.tsv")),
                record(args, &host, &report),
            )
        })
        .and_then(|()| {
            if args.trace {
                std::fs::write(dir.join(format!("{stem}.spans.tsv")), spans::render(&spans))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("cannot write results under {}: {e}", dir.display());
    }
    println!("{}", result_line(&report));
}

/// One parsed record file.
struct Record {
    fields: BTreeMap<String, String>,
    metrics: Vec<(String, f64, String)>,
}

fn read_records(dir: &Path) -> Vec<Record> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", dir.display());
            exit(2);
        })
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.to_string_lossy().ends_with(".tsv") && !p.to_string_lossy().ends_with(".spans.tsv")
        })
        .collect();
    paths.sort();
    paths
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .map(|text| {
            let mut fields = BTreeMap::new();
            let mut metrics = Vec::new();
            for line in text.lines() {
                let parts: Vec<&str> = line.split('\t').collect();
                match parts.as_slice() {
                    ["metric", name, value, unit] => {
                        if let Ok(v) = value.parse() {
                            metrics.push(((*name).to_owned(), v, (*unit).to_owned()));
                        }
                    }
                    [key, value] => {
                        fields.insert((*key).to_owned(), (*value).to_owned());
                    }
                    _ => {}
                }
            }
            Record { fields, metrics }
        })
        .collect()
}

/// Medians and spreads of two sets of records, metric by metric. Refuses
/// (exit 3) when any two records come from hosts with different
/// fingerprints.
fn compare(a: &Path, b: &Path) {
    let (ra, rb) = (read_records(a), read_records(b));
    let all: Vec<&Record> = ra.iter().chain(&rb).collect();
    let Some(first) = all.first() else {
        eprintln!("no records to compare");
        exit(2);
    };
    for r in &all {
        for key in HOST_KEYS {
            if r.fields.get(key) != first.fields.get(key) {
                eprintln!(
                    "refusing to compare: {key} differs ({:?} vs {:?})",
                    first.fields.get(key),
                    r.fields.get(key)
                );
                exit(3);
            }
        }
    }
    type Groups = BTreeMap<(String, String, String), Vec<f64>>;
    let group = |records: &[Record]| {
        let mut out: Groups = BTreeMap::new();
        for r in records {
            let workload = r.fields.get("workload").cloned().unwrap_or_default();
            for (name, value, unit) in &r.metrics {
                out.entry((workload.clone(), name.clone(), unit.clone()))
                    .or_default()
                    .push(*value);
            }
        }
        out
    };
    let (ga, gb) = (group(&ra), group(&rb));
    println!(
        "workload\tmetric\tunit\tn_a\tmedian_a\tspread_a\tn_b\tmedian_b\tspread_b\tchange_pct"
    );
    for (key, va) in &ga {
        let Some(vb) = gb.get(key) else {
            continue;
        };
        let (ma, mb) = (stats::median(va), stats::median(vb));
        println!(
            "{}\t{}\t{}\t{}\t{ma:.6}\t{:.4}\t{}\t{mb:.6}\t{:.4}\t{:.2}",
            key.0,
            key.1,
            key.2,
            va.len(),
            stats::spread(va),
            vb.len(),
            stats::spread(vb),
            (mb / ma - 1.0) * 100.0
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare(Path::new(&args[1]), Path::new(&args[2])),
        Some(_) => run(&parse_args(&args)),
        None => usage(),
    }
}
