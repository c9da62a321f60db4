#![forbid(unsafe_code)]
//! The experiment harness: regenerates every table and figure of §7, and
//! every ablation and extension beyond it: the one way to reproduce them.
//!
//! ```sh
//! cargo run --release -p sssj-bench --bin harness -- all
//! cargo run --release -p sssj-bench --bin harness -- fig5 --scale 0.5
//! cargo run --release -p sssj-bench --bin harness -- table2 --out results
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use sssj_bench::Experiments;

const USAGE: &str = "usage: harness <experiment> [--scale S] [--out DIR | --no-csv]

experiments:
  table1   dataset statistics
  table2   success-within-budget fractions
  fig2     STR/MB entries-traversed ratio vs tau
  fig3     MB vs STR time, RCV1
  fig4     MB vs STR time, WebSpam
  fig5     STR index comparison (time), RCV1
  fig6     STR index comparison (entries), Tweets
  fig7     STR-L2 time vs lambda
  fig8     STR-L2 time vs theta
  fig9     time-vs-tau regression
  delay    reporting-delay comparison (beyond the paper)
  candidates  candidate/verification counts the paper omits
  speedup  STR-L2 vs brute-force baseline
  all      everything above
  latency  per-record latency quantiles (extension)
  decay    generalised decay models, window-max vs l2 bounds (extension)
  lsh      LSH recall/work trade-off (extension)
  scaling  sharded STR scaling, broadcast vs routed (extension)
  window   count-window fidelity (extension)
  dimorder dimension-order ablation (extension)
  jaccard  prefix-filtered Jaccard joins (extension)
  memory   peak index memory per algorithm (extension)
  ap       AP vs L2AP vs L2 (extension)
  ext      all extension experiments

options:
  --scale S   dataset scale factor (default 1.0)
  --out DIR   write CSVs into DIR (default: results/)
  --no-csv    write no CSVs";

/// The experiment `name` names, if any.
fn experiment(name: &str) -> Option<fn(&mut Experiments) -> String> {
    Some(match name {
        "table1" => Experiments::table1,
        "table2" => Experiments::table2,
        "fig2" => Experiments::fig2,
        "fig3" => Experiments::fig3,
        "fig4" => Experiments::fig4,
        "fig5" => Experiments::fig5,
        "fig6" => Experiments::fig6,
        "fig7" => Experiments::fig7,
        "fig8" => Experiments::fig8,
        "fig9" => Experiments::fig9,
        "delay" => Experiments::delay,
        "candidates" => Experiments::candidates,
        "speedup" => Experiments::speedup,
        "all" => Experiments::all,
        "latency" => Experiments::latency,
        "decay" => Experiments::decay,
        "lsh" => Experiments::lsh,
        "scaling" => Experiments::scaling,
        "window" => Experiments::window,
        "dimorder" => Experiments::dimorder,
        "jaccard" => Experiments::jaccard,
        "memory" => Experiments::memory,
        "ap" => Experiments::ap,
        "ext" => Experiments::ext,
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name: Option<String> = None;
    let mut scale = 1.0f64;
    let mut out: Option<PathBuf> = Some(PathBuf::from("results"));

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(s) if s > 0.0 => s,
                    _ => {
                        eprintln!("--scale needs a positive number");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => out = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("--out needs a directory");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--no-csv" => out = None,
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if name.is_none() => name = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let Some(name) = name else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(run) = experiment(&name) else {
        eprintln!("unknown experiment {name:?}\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut e = Experiments::new(scale, out).with_progress();
    let report = run(&mut e);
    eprintln!();
    println!("{report}");
    eprintln!("({} algorithm runs)", e.runs());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_is_dispatched() {
        let listed: Vec<&str> = USAGE
            .split("experiments:\n")
            .nth(1)
            .and_then(|rest| rest.split("\n\n").next())
            .expect("USAGE lists experiments")
            .lines()
            .filter_map(|line| line.split_whitespace().next())
            .collect();
        assert!(listed.len() > 20, "{listed:?}");
        for name in listed {
            assert!(
                experiment(name).is_some(),
                "{name} is listed but not dispatched"
            );
        }
        assert!(experiment("bogus").is_none());
    }
}
