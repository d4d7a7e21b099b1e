//! Correctness-gated end-to-end benchmark of the sqbench serving path.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <aids_closed|dense_closed|aids_open_rw> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! is the separate traced run that reports the per-layer metrics and
//! writes its spans to `e2ebench/out/`. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`. A
//! wrong answer prints `"correct": false` and exits with code 1. See
//! `e2ebench/README.md` for the workloads and the metric map.

mod closed;
mod open;
mod report;
mod stats;
mod trace;
mod work;
mod workload;

use report::{Reconcile, Report};
use std::collections::BTreeSet;
use std::path::PathBuf;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(15),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let (seed, seconds) = (args.seed, args.seconds);
    match (args.workload, args.trace) {
        (Workload::AidsClosed, false) => closed::run(&workload::aids_closed(seed), seconds),
        (Workload::AidsClosed, true) => closed::run_traced(&workload::aids_closed(seed), seconds),
        (Workload::DenseClosed, false) => closed::run(&workload::dense_closed(seed), seconds),
        (Workload::DenseClosed, true) => closed::run_traced(&workload::dense_closed(seed), seconds),
        (Workload::AidsOpenRw, false) => open::run(&workload::aids_open_rw(seed), seconds, seed),
        (Workload::AidsOpenRw, true) => {
            open::run_traced(&workload::aids_open_rw(seed), seconds, seed)
        }
    }
}

fn fail(message: &str) -> ! {
    eprintln!("e2ebench: {message}");
    println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
    std::process::exit(1);
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("e2ebench: {e}");
        std::process::exit(2);
    });
    let label = args.workload.name();
    let report = run(&args).unwrap_or_else(|e| fail(&format!("{label}: answer check failed: {e}")));

    let expected: BTreeSet<String> = if args.trace {
        report::per_layer().into_iter().collect()
    } else {
        report::END_TO_END.iter().map(|s| s.to_string()).collect()
    };
    let reported: BTreeSet<String> = report.metrics.names().map(str::to_string).collect();
    assert_eq!(
        reported, expected,
        "the run must report exactly its metric set"
    );

    for note in &report.notes {
        println!("{label}: {note}");
    }
    report.metrics.print_lines(label);
    if let Some(tracer) = &report.tracer {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{label}-seed{}.tsv", args.seed));
        match tracer.write_tsv(&path) {
            Ok(()) => println!(
                "{label}: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => fail(&format!("writing {}: {e}", path.display())),
        }
    }
    if let Some(Reconcile { err, tolerance }) = report.reconcile {
        if err.abs() > tolerance {
            fail(&format!(
                "{label}: layer times miss the untraced latency by {:.1}% (tolerance {:.0}%)",
                err * 100.0,
                tolerance * 100.0
            ));
        }
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        report.metrics.to_json()
    );
}
