//! `sssj-perf`: the benchmark harness of this repository.
//!
//! ```text
//! sssj-perf [run] --workload W [--seed N] [--seconds S] [--trace 0|1]
//! sssj-perf trace --workload W          # the same as --trace 1
//! sssj-perf all   [--trace 0|1]         # every workload, a child process each
//! sssj-perf aa                          # `all` twice, compared against the bounds
//! ```
//!
//! Common options: `--seed N` (default 42), `--seconds S` (keep adding
//! reps until S seconds have gone by, at least three after the warm-up),
//! `--reps N` (that many measured reps instead), `--scale F` (multiply every record count; for
//! smoke tests), `--state-dir DIR` (where `durable=`/`history=` state
//! goes; default `bench/out/state-<pid>`).
//!
//! A run prints every metric by name with its unit, checks the output
//! against the brute-force oracle, writes `bench/out/<W>.json`, and ends
//! with the one-line result object of the benchmark contract. The
//! workload and metric catalogue is in `bench/README.md`.

mod json;
mod ladder;
mod pacer;
mod report;
mod run;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use run::RunOpts;
use stats::{iqr_pct, quartiles};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sssj-perf: {e}");
            ExitCode::from(2)
        }
    }
}

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    scale: f64,
    state_dir: Option<PathBuf>,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        command: "run".into(),
        workload: None,
        seed: 42,
        seconds: 32.0,
        reps: None,
        scale: 1.0,
        state_dir: None,
        trace: false,
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.next_if(|s| !s.starts_with("--")) {
        a.command = first.clone();
    }
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value.clone()),
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--reps" => a.reps = Some(value.parse().map_err(|e| bad(&e))?),
            "--scale" => a.scale = value.parse().map_err(|e| bad(&e))?,
            "--state-dir" => a.state_dir = Some(PathBuf::from(value)),
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if a.reps == Some(0) || !positive(a.scale) || !positive(a.seconds) {
        return Err("--reps, --scale and --seconds must be positive".into());
    }
    if a.command == "trace" {
        a.command = "run".into();
        a.trace = true;
    }
    Ok(a)
}

fn cli(args: &[String]) -> Result<bool, String> {
    let a = parse(args)?;
    match a.command.as_str() {
        "run" => one_workload(&a),
        "all" => Ok(all(&a, "all")?.iter().all(|c| c.ok)),
        "aa" => aa(&a),
        "crash-child" => {
            let w = workloads::find(a.workload.as_deref().ok_or("--workload is required")?)?;
            let dir = a
                .state_dir
                .as_deref()
                .ok_or("crash-child needs --state-dir")?;
            run::crash_child(&w.scaled(a.scale), a.seed, dir)?;
            unreachable!("the crash child aborts");
        }
        other => Err(format!(
            "unknown command {other:?} (run, trace, all, aa; see bench/README.md)"
        )),
    }
}

/// `run` / `trace`: one workload in this process.
fn one_workload(a: &Args) -> Result<bool, String> {
    let w = workloads::find(a.workload.as_deref().ok_or("--workload is required")?)?;
    let state_root = a
        .state_dir
        .clone()
        .unwrap_or_else(|| report::out_dir().join(format!("state-{}", std::process::id())));
    std::fs::create_dir_all(&state_root).map_err(|e| format!("{}: {e}", state_root.display()))?;
    let opts = RunOpts {
        seed: a.seed,
        seconds: a.seconds,
        reps: a.reps,
        scale: a.scale,
        state_root: state_root.clone(),
    };
    let mut detail = vec![
        ("workload", Json::str(w.name)),
        ("why", Json::str(w.why)),
        ("seed", Json::Num(a.seed as f64)),
        ("scale", Json::Num(a.scale)),
        ("traced", Json::Bool(a.trace)),
        ("environment", report::environment(&state_root)),
    ];
    println!(
        "workload {} seed {} scale {} traced {}",
        w.name, a.seed, a.scale, a.trace
    );

    let outcome = if a.trace {
        traced(&w, &opts, &mut detail)
    } else {
        untraced(&w, &opts, &mut detail)
    };
    // Whatever happened, no state is left behind.
    run::discard_state(&state_root);
    let Outcome {
        attempted,
        failed,
        failures,
        metrics,
    } = outcome?;

    for f in &failures {
        println!("  FAILED: {f}");
    }
    let declared = if a.trace {
        ladder::PER_LAYER.len()
    } else {
        run::END_TO_END.len()
    };
    if metrics.len() < declared {
        println!(
            "  note: {} of {declared} metrics not reported (too few samples for a percentile at this scale)",
            declared - metrics.len()
        );
    }
    let line = report::result_line(attempted, failed, &metrics);
    detail.push((
        "failures",
        Json::Arr(failures.into_iter().map(Json::Str).collect()),
    ));
    detail.push(("result", Json::parse(&line)?));
    let file = format!("{}{}.json", w.name, if a.trace { ".trace" } else { "" });
    let path = report::write_out(&file, &(Json::obj(detail).render() + "\n"))?;
    println!("  detail: {}", path.display());
    println!("{line}");
    Ok(failed == 0)
}

struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

type Detail = Vec<(&'static str, Json)>;

fn traced(w: &workloads::Workload, opts: &RunOpts, detail: &mut Detail) -> Result<Outcome, String> {
    let r = ladder::trace(w, opts)?;
    for (rung, secs) in &r.rungs {
        println!("  rung {rung:<12} {secs:?} s");
    }
    println!("  chrome trace: {}", r.trace_file);
    let metrics = ladder::PER_LAYER
        .iter()
        .filter_map(|&(name, unit)| {
            let v = *r.values.get(name)?;
            println!("  {name:<40} {v:>16.4} {unit}");
            Some((name.to_string(), v, unit))
        })
        .collect();
    detail.push(("pair_digest", Json::Str(r.digest.hex())));
    detail.push((
        "rung_seconds",
        Json::Obj(
            r.rungs
                .iter()
                .map(|(rung, secs)| (rung.to_string(), Json::nums(secs)))
                .collect(),
        ),
    ));
    Ok(Outcome {
        attempted: r.attempted,
        failed: r.failed,
        failures: r.failures,
        metrics,
    })
}

fn untraced(
    w: &workloads::Workload,
    opts: &RunOpts,
    detail: &mut Detail,
) -> Result<Outcome, String> {
    let r = run::run(w, opts)?;
    let mut per_metric = Vec::new();
    let mut row = |&(name, unit): &(&'static str, &'static str)| {
        let v = r.value(name)?;
        let reps = r.reps.get(name).map_or(&[][..], |v| v);
        let spread = if reps.len() >= 2 {
            let (q1, q3) = quartiles(reps);
            let min = reps.iter().copied().fold(f64::INFINITY, f64::min);
            per_metric.push((
                name,
                Json::obj([
                    ("reps", Json::nums(reps)),
                    ("min", Json::Num(min)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("bench.rep_iqr_pct", Json::Num(iqr_pct(reps))),
                ]),
            ));
            format!(
                "  rep IQR {:.1} % of median, n={}",
                iqr_pct(reps),
                reps.len()
            )
        } else {
            String::new()
        };
        println!("  {name:<24} {v:>16.4} {unit}{spread}");
        Some((name.to_string(), v, unit))
    };
    let metrics = run::END_TO_END.iter().filter_map(&mut row).collect();
    // Printed and filed, but not part of the contract's result line.
    run::DEMOTED.iter().filter_map(&mut row).count();
    println!(
        "  {:<24} {:>16.4} %  ({} of {} operations)",
        "fail_pct",
        100.0 * r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    println!(
        "  bench.sched_lag_p99_us per rep {:?}{}",
        r.sched_lag_p99_us,
        if r.late_generator.is_empty() {
            String::new()
        } else {
            format!("  late_generator in reps {:?}", r.late_generator)
        }
    );
    println!(
        "  bench.verify_s {:.3}  pair digest {}",
        r.verify_s,
        r.digest.hex()
    );
    detail.push(("reps", Json::obj(per_metric)));
    detail.push(("pair_digest", Json::Str(r.digest.hex())));
    detail.push(("bench.sched_lag_p99_us", Json::nums(&r.sched_lag_p99_us)));
    detail.push((
        "late_generator",
        Json::nums(
            &r.late_generator
                .iter()
                .map(|&i| i as f64)
                .collect::<Vec<_>>(),
        ),
    ));
    detail.push(("bench.verify_s", Json::Num(r.verify_s)));
    detail.push(("generator_pinned", Json::Bool(r.pinned)));
    Ok(Outcome {
        attempted: r.attempted,
        failed: r.failed,
        failures: r.failures,
        metrics,
    })
}

/// What one child of `all` reported.
struct Child {
    workload: &'static str,
    ok: bool,
    /// The child's result line, parsed.
    result: Json,
    /// `late_generator` of its detail file.
    late: Vec<f64>,
}

/// `all`: every workload, each in a child process of its own, so that
/// `peak_rss_mb` and allocator state do not leak between workloads.
fn all(a: &Args, label: &str) -> Result<Vec<Child>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut children = Vec::new();
    for w in workloads::catalogue() {
        let mut cmd = Command::new(&exe);
        cmd.arg("run")
            .args(["--workload", w.name])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--scale", &a.scale.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }]);
        if let Some(reps) = a.reps {
            cmd.args(["--reps", &reps.to_string()]);
        }
        if let Some(dir) = &a.state_dir {
            cmd.arg("--state-dir").arg(dir.join(w.name));
        }
        let out = cmd
            .stdout(Stdio::piped())
            .output()
            .map_err(|e| format!("spawning {}: {e}", w.name))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let result = text
            .lines()
            .last()
            .and_then(|l| Json::parse(l).ok())
            .unwrap_or(Json::Null);
        let suffix = if a.trace { ".trace" } else { "" };
        let late =
            std::fs::read_to_string(report::out_dir().join(format!("{}{suffix}.json", w.name)))
                .ok()
                .and_then(|t| Json::parse(&t).ok())
                .and_then(|d| d.get("late_generator").cloned())
                .map_or(Vec::new(), |l| {
                    l.as_arr().iter().filter_map(Json::as_f64).collect()
                });
        children.push(Child {
            workload: w.name,
            ok: out.status.success() && result.get("correct") == Some(&Json::Bool(true)),
            result,
            late,
        });
    }
    let summary = Json::Obj(
        children
            .iter()
            .map(|c| (c.workload.to_string(), c.result.clone()))
            .collect(),
    );
    report::write_out(&format!("{label}.json"), &(summary.render() + "\n"))?;
    Ok(children)
}

/// Direction and bound of every end-to-end metric, from `BENCHMARK.json`.
fn declared_bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let path = report::bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = Json::parse(&text)?;
    spec.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?
        .as_arr()
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed end_to_end entry in BENCHMARK.json".into())
}

/// `aa`: the same code measured twice. Passes when, for every workload
/// and end-to-end metric, the second median is not worse than the first
/// by more than the metric's bound — the rule a later change is held to,
/// applied to no change at all.
fn aa(a: &Args) -> Result<bool, String> {
    let bounds = declared_bounds()?;
    let first = all(a, "aa-1")?;
    let second = all(a, "aa-2")?;
    let value = |c: &Child, name: &str| {
        c.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    let mut ok = true;
    let mut rows = Vec::new();
    println!("\nA/A: two sets of runs of the same code, seed {}", a.seed);
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (x, y) in first.iter().zip(&second) {
        ok &= x.ok && y.ok;
        for (name, lower_is_better, bound) in &bounds {
            let (Some(p), Some(q)) = (value(x, name), value(y, name)) else {
                continue;
            };
            let worse = if *lower_is_better {
                (q - p) / p
            } else {
                (p - q) / p
            };
            let outside = worse > *bound;
            ok &= !outside;
            println!(
                "{:<14} {:<24} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{}",
                x.workload,
                name,
                p,
                q,
                100.0 * worse,
                100.0 * bound,
                if outside { "  OUTSIDE" } else { "" }
            );
            rows.push(Json::obj([
                ("workload", Json::str(x.workload)),
                ("metric", Json::str(name.as_str())),
                ("first", Json::Num(p)),
                ("second", Json::Num(q)),
                ("worse_by", Json::Num(worse)),
                ("bound", Json::Num(*bound)),
                ("outside", Json::Bool(outside)),
            ]));
        }
        for (set, c) in [(1, x), (2, y)] {
            if !c.late.is_empty() {
                println!(
                    "{:<14} late_generator: set {set}, reps {:?} (the generator, not the program, was late)",
                    c.workload, c.late
                );
            }
        }
    }
    let late = |cs: &[Child]| {
        Json::Obj(
            cs.iter()
                .map(|c| (c.workload.to_string(), Json::nums(&c.late)))
                .collect(),
        )
    };
    let path = report::write_out(
        "aa.json",
        &(Json::obj([
            ("seed", Json::Num(a.seed as f64)),
            ("rows", Json::Arr(rows)),
            ("late_generator_first", late(&first)),
            ("late_generator_second", late(&second)),
            ("within_bounds", Json::Bool(ok)),
        ])
        .render()
            + "\n"),
    )?;
    println!(
        "A/A {}: {}",
        if ok {
            "within bounds"
        } else {
            "OUTSIDE bounds"
        },
        path.display()
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The names the harness prints and the names `BENCHMARK.json`
    /// declares are the same sets, units included: nothing printed that
    /// is not declared, nothing declared that is not printed.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = report::bench_dir().join("../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> BTreeSet<(String, String)> {
            spec.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let printed = |table: &[(&str, &str)]| -> BTreeSet<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), printed(run::END_TO_END));
        assert_eq!(declared("per_layer"), printed(ladder::PER_LAYER));
        // No name is used twice across the two tables.
        assert_eq!(
            printed(run::END_TO_END).len() + printed(ladder::PER_LAYER).len(),
            run::END_TO_END.len() + ladder::PER_LAYER.len()
        );

        let workloads: Vec<String> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        let catalogue: Vec<String> = workloads::catalogue()
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(workloads, catalogue);

        // The contract's limits on the file itself.
        let bounds = declared_bounds().unwrap();
        assert!(bounds.iter().all(|(_, _, b)| *b > 0.0 && *b <= 0.25));
        let setup = bounds.iter().find(|(n, _, _)| n == "setup_s").unwrap();
        assert!(setup.1 && bounds.iter().all(|(_, _, b)| *b <= setup.2));
    }

    #[test]
    fn arguments_parse_in_the_driver_form_and_the_human_form() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse(&argv(
            "--workload serve-query --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.command.as_str(), a.seed, a.trace), ("run", 7, true));
        assert_eq!(a.workload.as_deref(), Some("serve-query"));
        let a = parse(&argv("trace --workload engine-dense --reps 2 --scale 0.5")).unwrap();
        assert_eq!(
            (a.command.as_str(), a.trace, a.reps),
            ("run", true, Some(2))
        );
        assert_eq!(parse(&argv("aa")).unwrap().command, "aa");
        for bad in ["--seed", "--trace 2", "--bogus 1", "--reps 0", "--scale -1"] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
