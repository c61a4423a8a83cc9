//! Run sets over all workloads, the result file, `compare` and `selfcheck`.

use crate::cli::Args;
use crate::harness::out_dir;
use crate::json::Json;
use crate::metrics::{self, Better, Metric};
use crate::{nproc, stats};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Values per metric per workload, one per run.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn host(a: &Args) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    // A checkout made by `git archive` has no repository; say so.
    let git_rev = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu", Json::Str(cpu)),
        ("git_rev", Json::Str(git_rev)),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds)),
    ])
}

/// Run `workload` once in a child process of this same binary; its last
/// stdout line is the result object.
fn child(workload: &str, a: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or(format!("{workload}: child printed nothing"))?;
    Json::parse(last).map_err(|e| format!("{workload}: {e}"))
}

/// `sets` run sets of `runs` runs of every workload, and whether every check
/// passed. The sets are interleaved run by run (A B A B …), so a slow stretch
/// of the host falls on all of them alike: the way two sides are to be
/// compared on a machine that drifts by tens of percent over minutes.
fn run_sets(a: &Args, trace: bool, sets: usize) -> Result<(Vec<Json>, bool), String> {
    let mut runs = vec![Vec::new(); sets];
    let mut all_correct = true;
    for (workload, _) in metrics::WORKLOADS {
        for _ in 0..a.runs {
            for set in &mut runs {
                let mut result = child(workload, a, trace)?;
                all_correct &= result.get("correct") == Some(&Json::Bool(true));
                if let Json::Obj(m) = &mut result {
                    m.insert("workload".into(), Json::Str(workload.into()));
                }
                set.push(result);
            }
        }
    }
    let docs = runs.into_iter().map(|r| Json::obj([("host", host(a)), ("runs", Json::Arr(r))]));
    Ok((docs.collect(), all_correct))
}

/// One run set: the document for the result file.
fn run_set(a: &Args, trace: bool) -> Result<(Json, bool), String> {
    let (mut docs, correct) = run_sets(a, trace, 1)?;
    Ok((docs.remove(0), correct))
}

fn write_out(name: &str, doc: &Json) -> Result<(), String> {
    let path = out_dir().join(name);
    std::fs::write(&path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn values(doc: &Json) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for run in doc.get("runs").and_then(Json::as_arr).ok_or("result file has no runs")? {
        let workload = run.get("workload").and_then(Json::as_str).ok_or("run without workload")?;
        let Some(Json::Obj(ms)) = run.get("metrics") else {
            return Err("run without metrics".into());
        };
        for (name, m) in ms {
            let v = m.get("value").and_then(Json::as_f64).ok_or("metric without value")?;
            set.entry(workload.into()).or_default().entry(name.clone()).or_default().push(v);
        }
    }
    Ok(set)
}

/// The one command: every workload, every end-to-end metric by name.
pub fn run_all(a: &Args) -> Result<i32, String> {
    let (doc, correct) = run_set(a, false)?;
    write_out("result.json", &doc)?;
    print_medians(&values(&doc)?);
    Ok(if correct { 0 } else { 1 })
}

fn print_medians(set: &RunSet) {
    println!("| workload | metric | median | unit | runs |");
    println!("|---|---|---:|---|---:|");
    for (workload, ms) in set {
        for (name, xs) in ms {
            let unit = metrics::find(name).map_or("", |m| m.unit);
            println!("| {workload} | {name} | {:.4} | {unit} | {} |", stats::median(xs), xs.len());
        }
    }
}

/// Every workload traced: per-layer metrics to `out/layers.json`, spans to
/// `out/trace-<workload>.json`, and the time-by-layer table on stdout.
pub fn trace_all(a: &Args) -> Result<i32, String> {
    let (doc, correct) = run_set(a, true)?;
    write_out("layers.json", &doc)?;
    let set = values(&doc)?;
    print_medians(&set);
    println!();
    print_time_by_layer(&set)?;
    Ok(if correct { 0 } else { 1 })
}

/// Probes that split a span further, per workload, in table order.
const SPLITS: [(&str, &[&str]); 4] = [
    ("tri_count", &["factor.build_ms", "factor.trie_build_ms", "core.eval_ms", "join.leapfrog_ms"]),
    (
        "plan_infer",
        &[
            "core.plan_ms",
            "core.width_ms",
            "core.linex_ms",
            "lp.solve_us",
            "core.prepare_ms",
            "core.eval_ms",
            "join.leapfrog_ms",
        ],
    ),
    (
        "ooc_count",
        &["core.eval_ms", "join.leapfrog_ms", "factor.spilled_vs_mem", "factor.chunk_reads_per_op"],
    ),
    (
        "serve_read",
        &[
            "serve.submit_us",
            "serve.reported_latency_ms_p50",
            "core.eval_ms",
            "serve.overhead_ms_p50",
            "driver.lateness_ms_p90",
        ],
    ),
];

/// Where one op of four workloads spends its time: its spans (with self
/// time = span − covered child time), then the probes that split them.
fn print_time_by_layer(set: &RunSet) -> Result<(), String> {
    println!("| workload | span or probe | count per op | time per op | self time per op |");
    println!("|---|---|---:|---:|---:|");
    for (workload, probes) in SPLITS {
        let path = out_dir().join(format!("trace-{workload}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text)?;
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "| {workload} | untraced op_ms_p50 | 1 | {:.3} ms | |",
            num(&doc, "op_ms_p50_untraced")
        );
        for row in doc.get("by_span").and_then(Json::as_arr).unwrap_or(&[]) {
            println!(
                "| {workload} | span `{}` | {:.2} | {:.3} ms | {:.3} ms |",
                row.get("span").and_then(Json::as_str).unwrap_or("?"),
                num(row, "per_op"),
                num(row, "ms_per_op"),
                num(row, "self_ms_per_op"),
            );
        }
        for &probe in probes {
            let unit = metrics::find(probe).map_or("", |m| m.unit);
            let v =
                set.get(workload).and_then(|m| m.get(probe)).map_or(0.0, |xs| stats::median(xs));
            println!("| {workload} | probe `{probe}` | | {v:.3} {unit} | |");
        }
    }
    Ok(())
}

/// `spread`: one run per seed for `runs` seeds from `--seed` up (ten by
/// default), then each end-to-end metric's quartile spread across them as a
/// share of its median, against its bound. This is the steadiness the driver
/// demands of the benchmark itself; exit 1 when a spread reaches its bound.
pub fn spread(a: &Args) -> Result<i32, String> {
    let seeds = if a.runs == 1 { 10 } else { a.runs.max(2) };
    let mut runs = Vec::new();
    for (workload, _) in metrics::WORKLOADS {
        for seed in a.seed..a.seed + seeds as u64 {
            let mut result = child(workload, &Args { seed, ..clone_args(a) }, false)?;
            if let Json::Obj(m) = &mut result {
                m.insert("workload".into(), Json::Str(workload.into()));
                m.insert("seed".into(), Json::Num(seed as f64));
            }
            runs.push(result);
        }
    }
    let doc = Json::obj([("host", host(a)), ("runs", Json::Arr(runs))]);
    write_out("spread.json", &doc)?;
    println!("| workload | metric | median | spread | bound | |");
    println!("|---|---|---:|---:|---:|---|");
    let mut steady = true;
    for (workload, ms) in &values(&doc)? {
        for m in &metrics::END_TO_END {
            let xs = &ms[m.name];
            let spread = stats::spread(xs);
            // The driver exempts `setup_s` from the spread rule.
            let ok = spread < m.bound || m.name == "setup_s";
            steady &= ok;
            println!(
                "| {workload} | {} | {:.4} {} | {:.1}% | {:.0}% | {} |",
                m.name,
                stats::median(xs),
                m.unit,
                spread * 100.0,
                m.bound * 100.0,
                if spread < m.bound / 3.0 {
                    "steady"
                } else if ok {
                    "within bound"
                } else {
                    "TOO WIDE"
                }
            );
        }
    }
    Ok(if steady { 0 } else { 1 })
}

fn clone_args(a: &Args) -> Args {
    Args { workload: None, rest: Vec::new(), ..*a }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// By how much of `base`'s median `new`'s median is worse (negative: better).
pub fn worsening(m: &Metric, base: &[f64], new: &[f64]) -> f64 {
    let (b, n) = (stats::median(base), stats::median(new));
    let d = if m.better == Better::Lower { n - b } else { b - n };
    d / b.abs().max(f64::MIN_POSITIVE)
}

/// The rule of the choosing-metrics guide: within the bound is `Ok`; where
/// either side's run-to-run spread is wider than the bound the pair is
/// `Unresolved` unless every run of `new` reads better than every run of
/// `base`; otherwise past the bound is `Regressed`.
pub fn verdict(m: &Metric, base: &[f64], new: &[f64]) -> Verdict {
    let spread = |xs: &[f64]| if xs.len() >= 2 { stats::spread(xs) } else { 0.0 };
    if spread(base).max(spread(new)) > m.bound {
        let better = |n: f64, b: f64| if m.better == Better::Lower { n < b } else { n > b };
        let all_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
        return if all_better { Verdict::Ok } else { Verdict::Unresolved };
    }
    if worsening(m, base, new) > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Print one row per (workload, end-to-end metric); the worst verdict.
fn compare(base: &RunSet, new: &RunSet) -> Verdict {
    println!(
        "| workload | metric | base median | new median | delta (of base) | bound | verdict |"
    );
    println!("|---|---|---:|---:|---:|---:|---|");
    let mut worst = Verdict::Ok;
    for (workload, _) in metrics::WORKLOADS {
        for m in &metrics::END_TO_END {
            let get = |s: &RunSet| s.get(workload).and_then(|ms| ms.get(m.name)).cloned();
            let (Some(b), Some(n)) = (get(base), get(new)) else { continue };
            let v = verdict(m, &b, &n);
            let delta = (stats::median(&n) - stats::median(&b))
                / stats::median(&b).abs().max(f64::MIN_POSITIVE);
            println!(
                "| {workload} | {} | {:.4} {} | {:.4} {} | {:+.2}% of {:.4} | {:.0}% | {} |",
                m.name,
                stats::median(&b),
                m.unit,
                stats::median(&n),
                m.unit,
                delta * 100.0,
                stats::median(&b),
                m.bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
            worst = match (worst, v) {
                (Verdict::Regressed, _) | (_, Verdict::Regressed) => Verdict::Regressed,
                (Verdict::Unresolved, _) | (_, Verdict::Unresolved) => Verdict::Unresolved,
                _ => Verdict::Ok,
            };
        }
    }
    worst
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare <a.json> <b.json>`: exit 1 on a regression.
pub fn compare_files(base: &str, new: &str) -> Result<i32, String> {
    let (base, new) = (load(base)?, load(new)?);
    let cores = |d: &Json| d.get("host").and_then(|h| h.get("nproc")).and_then(Json::as_f64);
    if cores(&base) != cores(&new) {
        return Err(format!(
            "refusing to compare runs from hosts with different nproc ({:?} vs {:?})",
            cores(&base),
            cores(&new)
        ));
    }
    for (label, d) in [("base", &base), ("new", &new)] {
        println!("{label}: {}", d.get("host").unwrap_or(&Json::Null));
    }
    Ok(if compare(&values(&base)?, &values(&new)?) == Verdict::Regressed { 1 } else { 0 })
}

/// Two interleaved run sets of this build must agree within every bound, in
/// both directions, and two traced runs must give identical exact counts.
pub fn selfcheck(a: &Args) -> Result<i32, String> {
    // One run per set would compare single runs; three give a median.
    let a = &Args { runs: if a.runs == 1 { 3 } else { a.runs }, ..clone_args(a) };
    let (sets, correct) = run_sets(a, false, 2)?;
    write_out("selfcheck-a.json", &sets[0])?;
    write_out("selfcheck-b.json", &sets[1])?;
    let (first, second) = (values(&sets[0])?, values(&sets[1])?);
    let forward = compare(&first, &second);
    let backward = compare(&second, &first);
    let mut ok = correct && forward == Verdict::Ok && backward == Verdict::Ok;

    let once = Args { runs: 1, ..clone_args(a) };
    let (traced, correct) = run_sets(&once, true, 2)?;
    ok &= correct;
    let (t1, t2) = (values(&traced[0])?, values(&traced[1])?);
    for (workload, _) in metrics::WORKLOADS {
        for m in metrics::PER_LAYER.iter().filter(|m| m.exact) {
            let get = |s: &RunSet| s.get(workload).and_then(|ms| ms.get(m.name)).map(|xs| xs[0]);
            let (x, y) = (get(&t1), get(&t2));
            let same = x == y;
            println!(
                "{workload} {}: {x:?} vs {y:?} {}",
                m.name,
                if same { "identical" } else { "DIFFER" }
            );
            ok &= same;
        }
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(if ok { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lower is better, bound 0.10.
    const P50: Metric = Metric { bound: 0.10, ..metrics::END_TO_END[0] };

    #[test]
    fn verdict_follows_the_guide() {
        let base = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(verdict(&P50, &base, &[10.5, 10.6, 10.4, 10.5]), Verdict::Ok);
        assert_eq!(verdict(&P50, &base, &[11.5, 11.6, 11.4, 11.5]), Verdict::Regressed);
        // Spread wider than the bound: unresolved, unless every run wins.
        assert_eq!(verdict(&P50, &base, &[9.0, 13.0, 8.0, 12.0]), Verdict::Unresolved);
        assert_eq!(verdict(&P50, &base, &[5.0, 9.0, 4.0, 8.0]), Verdict::Ok);
        assert!((worsening(&P50, &base, &[11.0]) - 0.1).abs() < 1e-9);
        let higher = Metric { bound: 0.10, ..metrics::END_TO_END[2] };
        assert_eq!(verdict(&higher, &[100.0, 101.0], &[80.0, 81.0]), Verdict::Regressed);
    }
}
