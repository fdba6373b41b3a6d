//! Benchmark of record for flexdist.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scratch DIR]
//! perfbench self-test
//! ```
//!
//! Runs one workload, gates its outputs, and prints the metrics, one
//! human-readable line each, then one JSON result line. With `--trace
//! 0` the metrics are the end-to-end ones; with `--trace 1` they are
//! the per-layer ones, the run records spans around every layer call,
//! writes them to `DIR/spans-NAME-sN.json`, and prints each layer's
//! self time. Exits 1 when any correctness check failed.

mod factor;
mod gate;
mod metrics;
mod plan;
mod probes;
mod spans;
mod stats;

use metrics::Metrics;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] = [
    factor::LU_P5.name,
    factor::CHOL_P7.name,
    plan::NAME,
    factor::RECOVER_P7.name,
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key.to_string(), v.clone());
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".to_string());
    }
    Ok(Args {
        workload,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        scratch: PathBuf::from(kv.get("scratch").map_or(".", String::as_str)),
    })
}

/// Peak resident set of this process, MiB.
fn max_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Outcome of one workload run.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

fn run_workload(a: &Args) -> Result<Outcome, String> {
    let spec = match a.workload.as_str() {
        n if n == factor::LU_P5.name => &factor::LU_P5,
        n if n == factor::CHOL_P7.name => &factor::CHOL_P7,
        n if n == factor::RECOVER_P7.name => &factor::RECOVER_P7,
        _ => {
            let p = plan::run(a.seed, a.seconds, a.trace, &a.scratch)?;
            return Ok(Outcome {
                metrics: p.metrics,
                attempted: p.attempted,
                failed: p.failed,
                failures: p.gate.failures,
            });
        }
    };
    let run = factor::run(spec, a.seed, a.seconds, a.trace, &a.scratch)?;
    let mut m = Metrics::default();
    if a.trace {
        factor::layers(spec, a.seed, &run, &a.scratch, &mut m)?;
    } else {
        factor::end_to_end(spec, &run, &mut m);
    }
    Ok(Outcome {
        metrics: m,
        attempted: run.attempted,
        failed: run.failed_reps,
        failures: run.gate.failures,
    })
}

/// Print each span name's summed self time, and for each root name the
/// share of its time no child span accounts for. Returns the nesting
/// problems found.
fn report_spans(spans: &[spans::Span]) -> Vec<String> {
    let selfs = spans::self_times(spans);
    let mut by_name: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    let mut roots: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (s, st) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += st;
        e.1 += 1;
        if s.parent.is_none() {
            let r = roots.entry(s.name).or_default();
            r.0 += st;
            r.1 += s.end - s.start;
        }
    }
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, (st, _)) in &by_name {
        *by_layer
            .entry(name.split('.').next().unwrap_or(name))
            .or_default() += st;
    }
    println!("self time (span duration minus child coverage) by span:");
    for (name, (st, n)) in &by_name {
        println!("  {name:<34} {st:>12.6} s over {n} span(s)");
    }
    println!("self time by layer:");
    for (layer, st) in &by_layer {
        println!("  {layer:<34} {st:>12.6} s");
    }
    println!("unattributed share of each root span:");
    for (name, (st, dur)) in &roots {
        println!(
            "  {name:<34} {:>8.2} % of {dur:.4} s",
            100.0 * st / dur.max(1e-12)
        );
    }
    spans::check_nesting(spans, 1e-9)
}

fn workload_main(argv: &[String]) -> ExitCode {
    let a = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    spans::set_recording(a.trace);
    println!(
        "workload {} seed {} for {} s, trace {}, {} cores",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        factor::nproc()
    );
    let mut out = match run_workload(&a) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", a.workload);
            return ExitCode::from(1);
        }
    };
    spans::set_recording(false);
    if a.trace {
        let recorded = spans::take();
        let problems = report_spans(&recorded);
        for p in problems {
            out.failures.push(format!("span self-test: {p}"));
        }
        let path = a
            .scratch
            .join(format!("spans-{}-s{}.json", a.workload, a.seed));
        match std::fs::write(&path, spans::to_json(&recorded, &a.workload, a.seed)) {
            Ok(()) => println!("spans: wrote {} ({} spans)", path.display(), recorded.len()),
            Err(e) => out.failures.push(format!("write {}: {e}", path.display())),
        }
    } else {
        match max_rss_mb() {
            Some(mb) => out.metrics.set("max_rss_mb", mb, "MiB"),
            None => out.failures.push("cannot read VmHWM".to_string()),
        }
    }
    print!("{}", out.metrics.table());
    for f in &out.failures {
        println!("FAILED {f}");
    }
    let failed = if out.failures.is_empty() {
        out.failed
    } else {
        out.failed.max(1)
    };
    let correct = failed == 0;
    println!(
        "fail_ratio {failed}/{} = {}",
        out.attempted,
        failed as f64 / out.attempted.max(1) as f64
    );
    println!(
        "{}",
        out.metrics
            .result_json(correct, out.attempted.max(1), failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Checks of the benchmark itself: span nesting and self times, and a
/// gate that rejects a flipped element and a volume off by one.
fn self_test() -> ExitCode {
    let mut problems = Vec::new();
    spans::set_recording(true);
    spans::span("root", || {
        spans::span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans::span("b", || spans::span("c", || std::hint::black_box(7)));
    });
    spans::set_recording(false);
    let s = spans::take();
    problems.extend(spans::check_nesting(&s, 1e-9));
    if s.len() != 4 || s[3].parent != Some(2) {
        problems.push("recorded spans do not nest as called".to_string());
    }
    let spec = &factor::LU_P5;
    let a0 = flexdist_kernels::TiledMatrix::random_diag_dominant(4, 8, 1);
    let a = flexdist_dist::TileAssignment::extended(&flexdist_core::g2dbc::g2dbc(spec.p), 4);
    let tl = flexdist_factor::build_graph(
        spec.op,
        &a,
        &flexdist_kernels::KernelCostModel::uniform(8, factor::MODEL_GFLOPS),
    );
    let (m, _) = flexdist_factor::execute(&tl, a0, 1);
    problems.extend(gate::self_test(&m, &flexdist_dist::lu_comm_volume(&a)));
    for p in &problems {
        println!("FAILED {p}");
    }
    if problems.is_empty() {
        println!("self-test ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("self-test") {
        return self_test();
    }
    workload_main(&argv)
}
