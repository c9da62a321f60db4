//! The four subcommands.

use std::path::PathBuf;

use sssj_core::{Framework, JoinSpec, SssjConfig};
use sssj_data::{preset, DatasetStats, Preset};
use sssj_index::IndexKind;
use sssj_metrics::Stopwatch;

use crate::args::parse;
use crate::io::{load, save};

/// Resolves the join pipeline for commands that accept either a full
/// `--spec` string or the classic `--framework/--index/--theta/--lambda`
/// flags. The two styles are mutually exclusive.
pub fn spec_from_args(p: &crate::args::Parsed) -> Result<JoinSpec, String> {
    if let Some(s) = p.get("spec") {
        for flag in ["framework", "index", "theta", "lambda"] {
            if p.get(flag).is_some() {
                return Err(format!("--spec and --{flag} are mutually exclusive"));
            }
        }
        return s.parse().map_err(|e| format!("--spec: {e}"));
    }
    let framework = match p.get("framework") {
        Some(name) => {
            Framework::parse(name).ok_or_else(|| format!("unknown framework {name:?}"))?
        }
        None => Framework::Streaming,
    };
    let kind = match p.get("index") {
        Some(name) => IndexKind::parse(name).ok_or_else(|| format!("unknown index {name:?}"))?,
        None => IndexKind::L2,
    };
    let theta: f64 = p.get_parsed("theta", 0.7)?;
    let lambda: f64 = p.get_parsed("lambda", 0.01)?;
    if !(0.0..=1.0).contains(&theta) || theta == 0.0 {
        return Err(format!("--theta must be in (0, 1], got {theta}"));
    }
    if lambda < 0.0 {
        return Err(format!("--lambda must be >= 0, got {lambda}"));
    }
    Ok(JoinSpec::classic(
        framework,
        kind,
        SssjConfig::new(theta, lambda),
    ))
}

/// `sssj generate --preset P --n N [--seed S] --out FILE`
pub fn generate(args: &[String]) -> Result<(), String> {
    let p = parse(args, &[])?;
    let which = match p.get("preset") {
        Some(name) => Preset::parse(name).ok_or_else(|| format!("unknown preset {name:?}"))?,
        None => Preset::Rcv1,
    };
    let n: usize = p.get_parsed("n", 10_000)?;
    let seed: u64 = p.get_parsed("seed", 42)?;
    let out = PathBuf::from(p.get("out").ok_or("--out is required")?);
    let config = preset(which, n).with_seed(seed);
    let records = generate_records(&config);
    save(&records, &out)?;
    eprintln!(
        "wrote {} records ({which} preset) to {}",
        records.len(),
        out.display()
    );
    Ok(())
}

fn generate_records(config: &sssj_data::DatasetConfig) -> Vec<sssj_types::StreamRecord> {
    sssj_data::generate(config)
}

/// `sssj convert IN OUT`
pub fn convert(args: &[String]) -> Result<(), String> {
    let p = parse(args, &[])?;
    let [input, output] = p.positional.as_slice() else {
        return Err("convert needs exactly two paths: <in> <out>".into());
    };
    let records = load(&PathBuf::from(input))?;
    save(&records, &PathBuf::from(output))?;
    eprintln!("converted {} records: {input} -> {output}", records.len());
    Ok(())
}

/// `sssj stats FILE`
pub fn stats(args: &[String]) -> Result<(), String> {
    let p = parse(args, &[])?;
    let [input] = p.positional.as_slice() else {
        return Err("stats needs exactly one path".into());
    };
    let records = load(&PathBuf::from(input))?;
    let s = DatasetStats::of(&records);
    println!("n         : {}", s.n);
    println!("m         : {}", s.m);
    println!("nnz       : {}", s.total_nnz);
    println!("density   : {:.4} %", s.density_pct);
    println!("avg |x|   : {:.2}", s.avg_nnz);
    println!("duration  : {:.1} s", s.duration);
    Ok(())
}

/// `sssj run FILE [--spec S | --framework F --index I --theta T
/// --lambda L] [--pairs] [--shard-stats]` — `--spec` reaches every
/// variant (see `sssj specs` for the grammar and one example per
/// variant); `--shard-stats` requires a `sharded?…` spec and prints the
/// per-shard load and routing-skip report after the run.
pub fn run(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["pairs", "shard-stats"])?;
    let [input] = p.positional.as_slice() else {
        return Err("run needs exactly one path".into());
    };
    let spec = spec_from_args(&p)?;
    let records = load(&PathBuf::from(input))?;
    if p.flag("shard-stats") {
        return run_shard_stats(&spec, &records, p.flag("pairs"));
    }
    let mut join = spec.build().map_err(|e| e.to_string())?;
    // A durable spec pointing at an existing store *resumes* it: skip
    // the prefix the store already ingested (re-feeding it would arrive
    // behind the recovered watermark), mirroring `sssj recover --input`.
    let skip = match sssj_core::StreamJoin::resume_point(&join) {
        Some((n, t)) => {
            if (records.len() as u64) < n {
                return Err(format!(
                    "{input} holds {} records but the durable store already \
                     ingested {n} — wrong stream?",
                    records.len()
                ));
            }
            eprintln!("resumed durable store: {n} records already ingested, watermark t={t:.3}");
            n as usize
        }
        None => 0,
    };
    let watch = Stopwatch::start();
    let mut out = Vec::new();
    for r in &records[skip..] {
        join.process(r, &mut out);
        if p.flag("pairs") {
            for pair in &out {
                println!("{pair}");
            }
            out.clear();
        }
    }
    join.finish(&mut out);
    if p.flag("pairs") {
        for pair in &out {
            println!("{pair}");
        }
    }
    let elapsed = watch.seconds();
    let s = join.stats();
    eprintln!("algorithm : {}", join.name());
    eprintln!("spec      : {spec}");
    let forgetting = match spec.decay_model() {
        Some(model) => format!("model: {model}"),
        None => format!("lambda: {}", spec.lambda),
    };
    eprintln!(
        "theta     : {}   {forgetting}   tau: {:.1}s",
        spec.theta,
        spec.horizon()
    );
    eprintln!("records   : {}", records.len());
    eprintln!("pairs     : {}", s.pairs_output);
    eprintln!("time      : {elapsed:.3} s");
    eprintln!("work      : {s}");
    Ok(())
}

/// The `--shard-stats` variant of `run`: drives the concrete
/// [`sssj_parallel::ShardedJoin`] (the type-erased factory output cannot
/// surface per-shard detail) and prints its routing/load report.
fn run_shard_stats(
    spec: &JoinSpec,
    records: &[sssj_types::StreamRecord],
    print_pairs: bool,
) -> Result<(), String> {
    use sssj_core::{run_stream, EngineSpec, StreamJoin};
    use sssj_parallel::ShardedJoin;
    if !matches!(spec.engine, EngineSpec::Sharded { .. }) {
        return Err(format!("--shard-stats requires a sharded spec, got {spec}"));
    }
    if !spec.wrappers.is_empty() {
        return Err("--shard-stats requires a bare sharded spec (no wrappers)".into());
    }
    let mut join = ShardedJoin::from_spec(spec).map_err(|e| e.to_string())?;
    let watch = Stopwatch::start();
    let pairs = run_stream(&mut join, records);
    let elapsed = watch.seconds();
    if print_pairs {
        for pair in &pairs {
            println!("{pair}");
        }
    }
    let report = join.shard_report().expect("run_stream calls finish");
    eprintln!("algorithm : {}", join.name());
    eprintln!("spec      : {spec}");
    eprintln!("records   : {}", records.len());
    eprintln!("pairs     : {}", report.stats.pairs_output);
    eprintln!("time      : {elapsed:.3} s");
    eprintln!(
        "routing   : {} — skip rate {:.1}% ({} of {} sends avoided)",
        if report.candidate_aware {
            "candidate-aware"
        } else {
            "broadcast (inner engine exposes no dimensions)"
        },
        100.0 * report.skip_rate(),
        report.skipped_sends,
        report.records * report.per_shard.len() as u64,
    );
    eprintln!(
        "{:>5} {:>10} {:>10} {:>12} {:>10}",
        "shard", "routed", "postings", "entries", "pairs"
    );
    for (w, load) in report.per_shard.iter().enumerate() {
        eprintln!(
            "{w:>5} {:>10} {:>10} {:>12} {:>10}",
            load.routed,
            load.stats.postings_added,
            load.stats.entries_traversed,
            load.stats.pairs_output
        );
    }
    Ok(())
}
