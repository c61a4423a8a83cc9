//! Argument handling shared by the `run` and `trace` binaries.
//!
//! Driver form (one workload, one JSON line last on stdout):
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! Without `--workload`, every workload runs in a child process of its own
//! (so `VmHWM` and the process-wide `colstore`/`fault` counters are per
//! workload) and the results go to `benchmark/out/`.

use crate::harness::{self, RunResult, Workload};
use crate::workloads::{ooc::OocCount, plan_infer::PlanInfer, serve, tri};
use crate::{config, metrics, report};

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub runs: usize,
    pub rest: Vec<String>,
}

fn parse(argv: Vec<String>, trace_default: bool) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(config::RUN_SECONDS),
        trace: trace_default,
        runs: 1,
        rest: Vec::new(),
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => a.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                a.runs = value("--runs")?.parse().map_err(|e| format!("--runs: {e}"))?;
                if a.runs == 0 || a.runs > 100 {
                    return Err("--runs must be in 1..=100".into());
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.rest.push(arg),
        }
    }
    Ok(a)
}

/// `$f::<W>($args)` for the workload type `W` that `$name` names, or `None`.
/// The one table from workload names to their types.
macro_rules! for_workload {
    ($name:expr, $($f:ident)::+, $($arg:expr),*) => {
        match $name {
            "tri_count" => Some($($f)::+::<tri::TriCount>($($arg),*)),
            "tri_list" => Some($($f)::+::<tri::TriList>($($arg),*)),
            "plan_infer" => Some($($f)::+::<PlanInfer>($($arg),*)),
            "ooc_count" => Some($($f)::+::<OocCount>($($arg),*)),
            "serve_read" => Some($($f)::+::<serve::ServeRead>($($arg),*)),
            "serve_write" => Some($($f)::+::<serve::ServeWrite>($($arg),*)),
            _ => None,
        }
    };
}

fn unknown(name: &str) -> String {
    let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.0).collect();
    format!("unknown workload {name}; one of {}", names.join(", "))
}

/// Run one workload in this process.
pub fn run_workload(name: &str, a: &Args) -> Result<RunResult, String> {
    if a.trace {
        for_workload!(name, harness::run_traced, a.seed, a.seconds)
    } else {
        for_workload!(name, harness::run_untraced, a.seed, a.seconds)
    }
    .ok_or_else(|| unknown(name))
}

fn fingerprint_of<W: Workload>(seed: u64) -> u64 {
    W::fingerprint(seed)
}

/// The input digest of `workload` at `seed` (`tests/pins.rs` pins these).
pub fn fingerprint(workload: &str, seed: u64) -> Option<u64> {
    for_workload!(workload, fingerprint_of, seed)
}

fn dispatch(a: Args) -> Result<i32, String> {
    // Spill files and anything else the program puts in a temp directory stay
    // inside the checkout.
    std::env::set_var("TMPDIR", harness::out_dir());
    if let Some(name) = a.workload.clone() {
        let result = run_workload(&name, &a)?;
        result.print_table();
        println!("{}", result.to_json());
        return Ok(0);
    }
    match a.rest.first().map(String::as_str) {
        None if a.trace => report::trace_all(&a),
        None => report::run_all(&a),
        Some("compare") => match &a.rest[1..] {
            [old, new] => report::compare_files(old, new),
            _ => Err("usage: compare <a.json> <b.json>".into()),
        },
        Some("selfcheck") => report::selfcheck(&a),
        Some("spread") => report::spread(&a),
        Some("fingerprints") => {
            // The rows of `FINGERPRINTS` in tests/pins.rs, for a PR that
            // changes the benchmark's inputs on purpose.
            for (name, _) in metrics::WORKLOADS {
                let at = |seed| fingerprint(name, seed).expect("a workload");
                println!("    (\"{name}\", {:#018x}, {:#018x}),", at(1), at(config::HELD_OUT_SEED));
            }
            Ok(0)
        }
        Some("manifest") => {
            print!("{}", metrics::manifest(config::RUN_SECONDS));
            Ok(0)
        }
        Some(other) => Err(format!("unknown command {other}")),
    }
}

/// Entry point of the `allocs` binary: `--workload <name> --seed <n>`; prints
/// the allocation count of one sequential op.
pub fn allocs_main() -> ! {
    let count = parse(std::env::args().skip(1).collect(), false).and_then(|a| {
        std::env::set_var("TMPDIR", harness::out_dir());
        let name = a.workload.as_deref().ok_or("--workload is required")?;
        for_workload!(name, harness::count_allocs, a.seed).ok_or_else(|| unknown(name))
    });
    match count {
        Ok(n) => {
            println!("{n}");
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2)
        }
    }
}

/// Entry point of the `run` and `trace` binaries; `trace_default` is what `--trace` defaults to.
pub fn main(trace_default: bool) -> ! {
    let code = match parse(std::env::args().skip(1).collect(), trace_default).and_then(dispatch) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code)
}
