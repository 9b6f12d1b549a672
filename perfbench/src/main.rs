//! `bfl-perfbench`: seeded end-to-end and per-layer benchmark of the BFL
//! suite, run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile|whatif|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the named workload with tracing off, in ten passes
//! over its operation list, and reports its end-to-end metrics.
//! `--trace 1` reports every per-layer metric: it runs every workload in
//! turn (so `--workload` is optional), each one pass untraced and one
//! traced, so the difference is the tracing overhead. Spans are kept in
//! memory and written to `perfbench/out/` after each workload.
//!
//! Every workload runs a fixed, seeded list of operations sized by
//! `--seconds`, checks its answers outside the timed region, and ends
//! standard output with one JSON line: `correct`, `attempted`, `failed`
//! and `metrics`.

mod compile;
mod serve;
mod stats;
mod trace;
mod whatif;

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::sync::Mutex;

use stats::{cpu_ticks, nproc, Metrics, RunOutput};

const WORKLOADS: [&str; 3] = ["compile", "whatif", "serve"];
const USAGE: &str =
    "usage: bfl-perfbench --workload compile|whatif|serve --seed N --seconds S --trace 0|1
(--trace 1 runs every workload in turn; --workload is then optional and ignored)";

struct Args {
    /// Required with `--trace 0`.
    workload: Option<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let trace = trace.ok_or("--trace is required")?;
    if !trace && workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Passes over the operation list of an end-to-end run, each sized to a
/// tenth of `--seconds`. Repeating every operation at moments spread over
/// the run filters interference from other tenants of the host, which
/// comes and goes within seconds (see each workload for how the passes
/// combine). Each pass of a traced run is sized the same way.
const PASSES: u64 = 10;

fn run_workload(workload: &str, args: &Args, traced: bool, passes: u64) -> RunOutput {
    let (seed, pass_seconds) = (args.seed, args.seconds as f64 / PASSES as f64);
    match workload {
        "compile" => compile::run(seed, pass_seconds, traced, passes),
        "whatif" => whatif::run(seed, pass_seconds, traced, passes),
        _ => serve::run(seed, pass_seconds, traced, passes),
    }
}

/// Panics by message and location. Operations that panic are counted as
/// failed by the workload; the tally names the defect.
static PANICS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

fn install_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let message = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_default();
        let location = info.location().map_or(String::new(), |l| l.to_string());
        let key = format!("{message} at {location}");
        let mut panics = PANICS.lock().unwrap_or_else(|e| e.into_inner());
        let count = panics.entry(key.clone()).or_insert(0);
        if *count == 0 {
            eprintln!("panic: {key}");
        }
        *count += 1;
    }));
}

fn report_problems(workload: &str, out: &RunOutput) {
    for p in &out.problems {
        eprintln!("{workload}: {p}");
    }
    let panics = std::mem::take(&mut *PANICS.lock().unwrap_or_else(|e| e.into_inner()));
    for (what, count) in panics {
        eprintln!("{workload}: {count} operation(s) panicked: {what}");
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics.to_json()
    );
}

/// The revision under test: git's `HEAD`, or `unknown` outside a
/// repository.
fn revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// The traced run: every workload in turn, each one pass untraced and one
/// traced, its spans written to `perfbench/out/` and its per-layer
/// metrics merged into one table.
fn traced_run(args: &Args) {
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Metrics::default();
    for workload in WORKLOADS {
        let plain = run_workload(workload, args, false, 1);
        report_problems(workload, &plain);
        let mut traced = run_workload(workload, args, true, 1);
        report_problems(workload, &traced);
        if let Some(tr) = traced.tracer.take() {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
            let path = format!("{dir}/spans-{workload}-seed{}.json", args.seed);
            let doc = format!(
                "{{\"workload\":\"{workload}\",\"seed\":{},\"revision\":\"{}\",\"nproc\":{},\"spans\":{}}}\n",
                args.seed,
                revision(),
                nproc(),
                tr.spans_json()
            );
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
                eprintln!("could not write {path}: {e}");
            }
        }
        correct &= plain.correct && traced.correct;
        attempted += traced.attempted;
        failed += traced.failed;
        metrics.0.append(&mut traced.layers.0);
        metrics.put(
            format!("trace.overhead_pct.{workload}"),
            (traced.measured_s - plain.measured_s) / plain.measured_s * 100.0,
            "%",
        );
    }
    metrics.put("host.nproc", nproc() as f64, "count");
    println!(
        "# revision {} · nproc {} · seed {} · seconds {}",
        revision(),
        nproc(),
        args.seed,
        args.seconds
    );
    print_result(correct, attempted, failed, &metrics);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    install_panic_hook();
    let Some(workload) = args.workload.filter(|_| !args.trace) else {
        traced_run(&args);
        return;
    };
    let (total, steal) = cpu_ticks();
    let out = run_workload(workload, &args, false, PASSES);
    let (total_end, steal_end) = cpu_ticks();
    // Host contention explains most run-to-run spread; log it.
    eprintln!(
        "{workload}: host steal {:.1}% of CPU time during the run",
        100.0 * (steal_end - steal) as f64 / (total_end - total).max(1) as f64
    );
    report_problems(workload, &out);
    print_result(out.correct, out.attempted, out.failed, &out.end_to_end());
}
