#![forbid(unsafe_code)]
//! The experiment harness: regenerates every table and figure of §7.
//!
//! ```sh
//! cargo run --release -p sssj-bench --bin harness -- all
//! cargo run --release -p sssj-bench --bin harness -- fig5 --scale 0.5
//! cargo run --release -p sssj-bench --bin harness -- table2 --out results
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use sssj_bench::Experiments;

const USAGE: &str = "usage: harness <experiment> [--scale S] [--out DIR]

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
  decay    generalised decay models (extension)
  lsh      LSH recall/work trade-off (extension)
  scaling  sharded STR scaling (extension)
  window   count-window fidelity (extension)
  ext      all extension experiments

options:
  --scale S   dataset scale factor (default 1.0)
  --out DIR   write CSVs into DIR (default: results/)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment: Option<String> = None;
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
            other if experiment.is_none() => experiment = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let Some(experiment) = experiment else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };

    let mut e = Experiments::new(scale, out).with_progress();
    let report = match experiment.as_str() {
        "table1" => e.table1(),
        "table2" => e.table2(),
        "fig2" => e.fig2(),
        "fig3" => e.fig3(),
        "fig4" => e.fig4(),
        "fig5" => e.fig5(),
        "fig6" => e.fig6(),
        "fig7" => e.fig7(),
        "fig8" => e.fig8(),
        "fig9" => e.fig9(),
        "delay" => e.delay(),
        "candidates" => e.candidates(),
        "memory" => e.memory(),
        "ap" => e.ap(),
        "speedup" => e.speedup(),
        "all" => e.all(),
        "latency" => e.latency(),
        "decay" => e.decay(),
        "lsh" => e.lsh(),
        "scaling" => e.scaling(),
        "window" => e.window(),
        "ext" => e.ext(),
        other => {
            eprintln!("unknown experiment {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!();
    println!("{report}");
    eprintln!("({} algorithm runs)", e.runs());
    ExitCode::SUCCESS
}
