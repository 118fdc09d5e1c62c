//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics when `--trace 0`, the per-layer metrics when
//! `--trace 1`. Exits 1 when an operation fails, a correctness gate
//! fails or a metric cannot be computed.

use perfbench::{run, Failure, Sizes, Workload};
use std::path::Path;
use std::process::ExitCode;

/// The end-to-end metrics (`--trace 0`), as `BENCHMARK.json` lists them.
const END_TO_END: &[&str] = &[
    "setup_s",
    "peak_rss_mb",
    "join_cold_s",
    "join_warm_s",
    "search_p50_ms",
    "search_p90_ms",
    "topk_p50_ms",
    "topk_p90_ms",
    "insert_p50_ms",
    "insert_p90_ms",
    "delete_p50_ms",
    "delete_p90_ms",
    "mixed_search_p50_ms",
    "compact_s",
    "recover_s",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value:?}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    // The engine's parallel sections (search and top-k verification,
    // preparation) run on one worker: on a small shared machine a second
    // worker would time the scheduler and the neighbours, not the engine.
    // `AU_THREADS` is read once, on the first parallel section, so it must
    // be set before any work; no other thread exists yet.
    std::env::set_var("AU_THREADS", "1");
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &Sizes::standard(),
        &root.join("work"),
    );
    if args.trace {
        let path =
            root.join("traces")
                .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        match out.tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                out.tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    out.metrics
        .retain(|name| END_TO_END.contains(&name) != args.trace);
    let failed = u64::from(matches!(out.failure, Some(Failure::Op(_))));
    if let Some(f) = &out.failure {
        eprintln!("perfbench: {} failed: {f:?}", args.workload.name());
    }
    if !out.metrics.samples.is_empty() {
        let counts: Vec<String> = out
            .metrics
            .samples
            .iter()
            .map(|(name, n)| format!("{name} {n}"))
            .collect();
        eprintln!("perfbench: samples: {}", counts.join(", "));
    }
    for name in &out.metrics.missing {
        eprintln!("perfbench: metric {name} could not be computed");
    }
    let correct = out.failure.is_none() && out.metrics.missing.is_empty();
    println!(
        "{}",
        out.metrics
            .result_line(correct, out.attempted.max(1), failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
