//! One benchmark repetition per process, so each run's peak RSS is its
//! own. Prints one JSON line: the summary digest, any failed checks, and
//! every measured value by metric name.
//!
//! ```text
//! fleetbench --workload <name> --seed <n> [--small]
//!            [--trace-out <file> | --straight | --setup-only]
//! ```
//!
//! `--straight` runs the workload's config with plain `run()` and prints
//! only its digest (the reference crash-resume must reproduce).
//! `--setup-only` times the workload's setup and prints only `setup_s`:
//! how long a setup takes varies between processes, so its figure is
//! taken over many short ones.

use std::fmt::Write as _;
use std::process::ExitCode;

use fleetbench::{run_rep, setup_s, straight_digest, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    small: bool,
    trace_out: Option<String>,
    straight: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut small, mut trace_out, mut straight, mut setup_only) =
        (None, 42, false, None, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--trace-out" => trace_out = Some(value()?),
            "--small" => small = true,
            "--straight" => straight = true,
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        small,
        trace_out,
        straight,
        setup_only,
    })
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn run(args: &Args) -> Result<String, String> {
    if args.straight {
        let digest = straight_digest(args.workload, args.seed, args.small)?;
        return Ok(format!("{{\"digest\":\"{digest:016x}\"}}"));
    }
    if args.setup_only {
        let secs = setup_s(args.workload, args.seed, args.small);
        return Ok(format!("{{\"setup_s\":{secs:e}}}"));
    }
    let rep = run_rep(
        args.workload,
        args.seed,
        args.small,
        args.trace_out.is_some(),
    )?;
    if let (Some(path), Some(tracer)) = (&args.trace_out, &rep.tracer) {
        std::fs::write(path, tracer.chrome_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    let problems: Vec<String> = rep.problems.iter().map(|p| json_str(p)).collect();
    let mut values = String::new();
    for (i, (name, value)) in rep.values.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        match value {
            Some(v) if v.is_finite() => write!(values, "{sep}\"{name}\":{v:e}"),
            _ => write!(values, "{sep}\"{name}\":null"),
        }
        .expect("writing to a String cannot fail");
    }
    Ok(format!(
        "{{\"digest\":\"{:016x}\",\"problems\":[{}],\"values\":{{{values}}}}}",
        rep.digest,
        problems.join(",")
    ))
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("fleetbench: {err}");
            ExitCode::FAILURE
        }
    }
}
