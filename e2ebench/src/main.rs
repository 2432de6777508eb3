//! One run of one workload of the end-to-end benchmark. `run.py` builds and
//! drives this binary; see `README.md` for the workloads and metrics.
//!
//! ```text
//! vchain-e2ebench --workload <explorer|dashboard|subscribe> --seed <n>
//!                 [--seconds <s> | --ops <n>] [--trace <0|1>] [--setup-only]
//!                 [--work-dir <dir>] [--spans-out <file>]
//! ```
//!
//! The last line of standard output is one JSON object with the run's
//! metrics, exact counts and self-checks. The exit code is 0 only if every
//! operation verified, matched ground truth and every self-check held.

mod answers;
mod common;
mod dashboard;
mod explorer;
mod subscribe;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use common::{peak_rss_mib, Args, Report};
use trace::{Tracer, UNATTRIBUTED_BOUND};

/// The end-to-end metrics every workload reports, in the order of each
/// workload's own `e2e` list, which names them for that workload.
const E2E: [&str; 4] = ["latency_p50_ms", "latency_p90_ms", "server_ops_per_s", "wire_kib_per_op"];

const USAGE: &str = "usage: vchain-e2ebench --workload <explorer|dashboard|subscribe> --seed <n> \
     [--seconds <s> | --ops <n>] [--trace <0|1>] [--setup-only] [--work-dir <dir>] [--spans-out <file>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        ops: None,
        trace: false,
        setup_only: false,
        work_dir: PathBuf::from(".e2ebench-work"),
        spans_out: None,
    };
    let mut seed = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--ops" => args.ops = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(&value),
            "--spans-out" => args.spans_out = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    if !["explorer", "dashboard", "subscribe"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() {
    let started = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    std::fs::create_dir_all(&args.work_dir).expect("work directory can be created");
    let mut tr = Tracer::new(args.trace);
    let mut report = match args.workload.as_str() {
        "explorer" => explorer::run(&args, &mut tr, started),
        "dashboard" => dashboard::run(&args, &mut tr, started),
        _ => subscribe::run(&args, &mut tr, started),
    };
    let peak_rss = peak_rss_mib();
    let _ = std::fs::remove_dir_all(args.work_dir.join("store"));

    if args.trace && !args.setup_only {
        let a = tr.attribute();
        let wall = a.wall.as_secs_f64();
        for (layer, t) in &a.self_time {
            report.layers.insert(format!("share.{layer}"), t.as_secs_f64() / wall);
        }
        report.layers.insert("trace.op_ms".into(), tr.op_ms());
        report.layers.insert("trace.max_unattributed_pct".into(), a.max_unattributed * 100.0);
        report.layers.insert("trace.spans".into(), a.spans as f64);
        report.checks.push(("layer_times_add_up", a.violations == 0));
        if a.violations > 0 {
            eprintln!(
                "[trace] {} operations spent more than {:.0}% outside layer spans",
                a.violations,
                UNATTRIBUTED_BOUND * 100.0
            );
        }
        if let Some(path) = &args.spans_out {
            std::fs::write(path, tr.to_jsonl()).expect("spans file is writable");
        }
    }

    let correct = report.failed == 0 && report.checks.iter().all(|(_, ok)| *ok);
    println!("{}", to_json(&args, &report, peak_rss, tr.op_ms(), correct));
    if !correct || (!args.setup_only && report.attempted == 0) {
        std::process::exit(1);
    }
}

fn to_json(args: &Args, r: &Report, peak_rss: f64, op_ms: f64, correct: bool) -> String {
    let num = |v: f64| if v.is_finite() { format!("{v}") } else { "null".into() };
    let mut s = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"setup_s\":{},\"op_ms\":{}",
        args.workload,
        args.seed,
        args.trace,
        r.attempted,
        r.failed,
        num(r.setup_s),
        num(op_ms)
    );
    s.push_str(",\"e2e\":{");
    let failed_ratio = r.failed as f64 / r.attempted.max(1) as f64;
    let mut e2e: Vec<(&str, &str, f64, &str)> =
        E2E.iter().zip(&r.e2e).map(|(key, m)| (*key, m.name, m.value, m.unit)).collect();
    e2e.push(("setup_s", "setup_s", r.setup_s, "s"));
    e2e.push(("peak_rss_mb", "peak_rss_mb", peak_rss, "MiB"));
    e2e.push(("failed_ratio", "failed_ratio", failed_ratio, "fraction"));
    for (i, (key, label, value, unit)) in e2e.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\"{key}\":{{\"value\":{},\"unit\":\"{unit}\",\"label\":\"{label}\"}}",
            num(*value)
        );
    }
    s.push_str("},\"layers\":{");
    for (i, (name, v)) in r.layers.iter().enumerate() {
        let _ = write!(s, "{}\"{name}\":{}", if i == 0 { "" } else { "," }, num(*v));
    }
    s.push_str("},\"counts\":{");
    for (i, (k, v)) in r.counts.iter().enumerate() {
        let _ = write!(s, "{}\"{k}\":{v}", if i == 0 { "" } else { "," });
    }
    s.push_str("},\"checks\":{");
    for (i, (k, ok)) in r.checks.iter().enumerate() {
        let _ = write!(s, "{}\"{k}\":{ok}", if i == 0 { "" } else { "," });
    }
    s.push_str("},\"params\":{");
    for (i, (k, v)) in r.params.iter().enumerate() {
        let v = v.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = write!(s, "{}\"{k}\":\"{v}\"", if i == 0 { "" } else { "," });
    }
    s.push_str("}}");
    s
}
