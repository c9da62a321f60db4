//! Extension subcommands: parameter sweeps, cross-algorithm comparison,
//! top-k, the LSH approximate join, sharded execution and generalised
//! decay models.

use std::path::PathBuf;

use sssj_baseline::brute_force_stream;
use sssj_core::{run_stream, EngineSpec, Framework, JoinSpec, SssjConfig, StreamJoin};
use sssj_index::IndexKind;
use sssj_lsh::{measure_accuracy, LshParams, VerifyMode};
use sssj_metrics::Stopwatch;
use sssj_parallel::{run_sharded, RoutingMode};
use sssj_types::{DecayModel, SimilarPair};

use crate::args::parse;
use crate::io::load;

fn parse_list(s: &str, name: &str) -> Result<Vec<f64>, String> {
    s.split(',')
        .map(|v| {
            v.trim()
                .parse::<f64>()
                .map_err(|_| format!("--{name}: cannot parse {v:?}"))
        })
        .collect()
}

fn sorted_keys(pairs: &[SimilarPair]) -> Vec<(u64, u64)> {
    let mut keys: Vec<_> = pairs.iter().map(|p| p.key()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// `sssj sweep FILE [--thetas a,b,..] [--lambdas a,b,..] [--framework F]
/// [--index I]` — grid over (θ, λ), CSV on stdout.
pub fn sweep(args: &[String]) -> Result<(), String> {
    let p = parse(args, &[])?;
    let [input] = p.positional.as_slice() else {
        return Err("sweep needs exactly one path".into());
    };
    let thetas = parse_list(
        p.get("thetas").unwrap_or("0.5,0.6,0.7,0.8,0.9,0.99"),
        "thetas",
    )?;
    let lambdas = parse_list(
        p.get("lambdas").unwrap_or("0.0001,0.001,0.01,0.1"),
        "lambdas",
    )?;
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
    let records = load(&PathBuf::from(input))?;
    println!("algorithm,theta,lambda,tau,pairs,time_s,entries,candidates,full_sims,peak_postings");
    for &theta in &thetas {
        for &lambda in &lambdas {
            if !(theta > 0.0 && theta <= 1.0) || lambda <= 0.0 {
                return Err(format!("invalid grid point θ={theta} λ={lambda}"));
            }
            let config = SssjConfig::new(theta, lambda);
            let mut join = JoinSpec::classic(framework, kind, config)
                .build()
                .map_err(|e| e.to_string())?;
            let watch = Stopwatch::start();
            let pairs = run_stream(join.as_mut(), &records);
            let elapsed = watch.seconds();
            let s = join.stats();
            println!(
                "{},{theta},{lambda},{:.4},{},{elapsed:.4},{},{},{},{}",
                join.name(),
                config.tau(),
                pairs.len(),
                s.entries_traversed,
                s.candidates,
                s.full_sims,
                s.peak_postings,
            );
        }
    }
    Ok(())
}

/// `sssj compare FILE --theta T --lambda L` — run every framework × index
/// combination and check each against the brute-force oracle.
pub fn compare(args: &[String]) -> Result<(), String> {
    let p = parse(args, &[])?;
    let [input] = p.positional.as_slice() else {
        return Err("compare needs exactly one path".into());
    };
    let theta: f64 = p.get_parsed("theta", 0.7)?;
    let lambda: f64 = p.get_parsed("lambda", 0.01)?;
    let records = load(&PathBuf::from(input))?;
    let config = SssjConfig::new(theta, lambda);

    let oracle = sorted_keys(&brute_force_stream(&records, theta, lambda));
    println!("oracle pairs: {}", oracle.len());
    println!(
        "{:<12} {:>10} {:>10} {:>8}",
        "algorithm", "pairs", "time_s", "oracle"
    );
    let mut all_match = true;
    for framework in Framework::ALL {
        for kind in IndexKind::ALL {
            let mut join = JoinSpec::classic(framework, kind, config)
                .build()
                .map_err(|e| e.to_string())?;
            let watch = Stopwatch::start();
            let pairs = run_stream(join.as_mut(), &records);
            let elapsed = watch.seconds();
            let ok = sorted_keys(&pairs) == oracle;
            all_match &= ok;
            println!(
                "{:<12} {:>10} {:>10.4} {:>8}",
                join.name(),
                pairs.len(),
                elapsed,
                if ok { "match" } else { "MISMATCH" }
            );
        }
    }
    if all_match {
        Ok(())
    } else {
        Err("at least one algorithm diverged from the oracle".into())
    }
}

/// `sssj topk FILE --k K [--theta T] [--lambda L] [--index I] [--pairs]`
pub fn topk(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["pairs"])?;
    let [input] = p.positional.as_slice() else {
        return Err("topk needs exactly one path".into());
    };
    let k: usize = p.get_parsed("k", 1)?;
    if k == 0 {
        return Err("--k must be positive".into());
    }
    let theta: f64 = p.get_parsed("theta", 0.5)?;
    let lambda: f64 = p.get_parsed("lambda", 0.01)?;
    let kind = match p.get("index") {
        Some(name) => IndexKind::parse(name).ok_or_else(|| format!("unknown index {name:?}"))?,
        None => IndexKind::L2,
    };
    let records = load(&PathBuf::from(input))?;
    let spec = JoinSpec {
        engine: EngineSpec::TopK(k as u32),
        index: kind,
        ..JoinSpec::new(theta, lambda)
    };
    let mut join = spec.build().map_err(|e| e.to_string())?;
    let watch = Stopwatch::start();
    let pairs = run_stream(join.as_mut(), &records);
    let elapsed = watch.seconds();
    if p.flag("pairs") {
        for pair in &pairs {
            println!("{pair}");
        }
    }
    eprintln!("algorithm : {}", join.name());
    eprintln!("spec      : {spec}");
    eprintln!("pairs     : {}", pairs.len());
    eprintln!("time      : {elapsed:.3} s");
    Ok(())
}

/// `sssj lsh FILE [--theta T] [--lambda L] [--bits B] [--bands N]
/// [--estimate]` — run the approximate join and report accuracy against
/// the exact output.
pub fn lsh(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["estimate"])?;
    let [input] = p.positional.as_slice() else {
        return Err("lsh needs exactly one path".into());
    };
    let theta: f64 = p.get_parsed("theta", 0.7)?;
    let lambda: f64 = p.get_parsed("lambda", 0.01)?;
    let bits: u32 = p.get_parsed("bits", 256)?;
    let bands: u32 = p.get_parsed("bands", 32)?;
    if bits == 0 || !bits.is_multiple_of(64) {
        return Err(format!(
            "--bits must be a positive multiple of 64, got {bits}"
        ));
    }
    if bands == 0 || !bits.is_multiple_of(bands) || bits / bands > 64 {
        return Err(format!(
            "--bands must divide --bits into rows of <= 64, got {bands}"
        ));
    }
    let params = LshParams {
        bits,
        bands,
        verify: if p.flag("estimate") {
            VerifyMode::Estimate
        } else {
            VerifyMode::Exact
        },
        ..LshParams::default()
    };
    let records = load(&PathBuf::from(input))?;
    let watch = Stopwatch::start();
    let reference = brute_force_stream(&records, theta, lambda);
    let exact_time = watch.seconds();
    let watch = Stopwatch::start();
    let report = measure_accuracy(&records, theta, lambda, params, &reference);
    let lsh_time = watch.seconds();
    println!("exact pairs     : {}", report.exact_pairs);
    println!("lsh pairs       : {}", report.lsh_pairs);
    println!("recall          : {:.4}", report.recall);
    println!("precision       : {:.4}", report.precision);
    println!("candidate checks: {}", report.candidate_checks);
    println!("exact time      : {exact_time:.3} s (brute force)");
    println!("lsh time        : {lsh_time:.3} s");
    Ok(())
}

/// `sssj shards FILE --shards N [--theta T] [--lambda L] [--index I]
/// [--broadcast]` — `--broadcast` disables candidate-aware routing (the
/// A/B reference).
pub fn shards(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["broadcast"])?;
    let [input] = p.positional.as_slice() else {
        return Err("shards needs exactly one path".into());
    };
    let n: usize = p.get_parsed("shards", 4)?;
    if n == 0 {
        return Err("--shards must be positive".into());
    }
    let theta: f64 = p.get_parsed("theta", 0.7)?;
    let lambda: f64 = p.get_parsed("lambda", 0.01)?;
    let kind = match p.get("index") {
        Some(name) => IndexKind::parse(name).ok_or_else(|| format!("unknown index {name:?}"))?,
        None => IndexKind::L2,
    };
    let records = load(&PathBuf::from(input))?;
    let spec = JoinSpec::new(theta, lambda)
        .with_engine(EngineSpec::Sharded {
            shards: n as u32,
            inner: sssj_core::ShardedInner::Streaming,
        })
        .with_index(kind);
    let mode = if p.flag("broadcast") {
        RoutingMode::Broadcast
    } else {
        RoutingMode::CandidateAware
    };
    let watch = Stopwatch::start();
    let out = run_sharded(&records, &spec, mode).map_err(|e| e.to_string())?;
    let elapsed = watch.seconds();
    println!("shards   : {n}");
    println!("pairs    : {}", out.pairs.len());
    println!("time     : {elapsed:.3} s");
    println!(
        "routing  : {} (skip rate {:.1}%)",
        if out.report.candidate_aware {
            "candidate-aware"
        } else {
            "broadcast"
        },
        100.0 * out.report.skip_rate()
    );
    for (i, load) in out.report.per_shard.iter().enumerate() {
        println!(
            "shard {i:>2} : routed={} postings={} entries={} pairs={}",
            load.routed,
            load.stats.postings_added,
            load.stats.entries_traversed,
            load.stats.pairs_output
        );
    }
    Ok(())
}

/// One canonical spec string per join variant the workspace advertises —
/// the surface `sssj specs` prints and CI smoke-builds.
pub const ADVERTISED_SPECS: &[&str] = &[
    "str-l2?theta=0.7&lambda=0.01",
    "str-l2ap?theta=0.7&lambda=0.01",
    "str-inv?theta=0.7&lambda=0.01",
    "str-ap?theta=0.7&lambda=0.01",
    "mb-l2?theta=0.7&lambda=0.01",
    "mb-l2ap?theta=0.7&lambda=0.01",
    "mb-inv?theta=0.7&lambda=0.01",
    "mb-ap?theta=0.7&lambda=0.01",
    "decay?theta=0.7&model=window:10",
    "decay?theta=0.7&model=linear:20",
    "decay?theta=0.7&model=poly:2:5",
    "decay?theta=0.7&model=window:10&bounds=l2",
    "topk-l2?theta=0.5&lambda=0.01&k=3",
    "lsh?theta=0.7&lambda=0.01&bits=256&bands=32&verify=exact",
    "lsh?theta=0.7&lambda=0.01&bits=256&bands=32&verify=est",
    "sharded?theta=0.7&lambda=0.01&shards=2&inner=str-l2",
    "sharded?theta=0.7&lambda=0.01&shards=2&inner=mb-l2ap",
    "sharded?theta=0.7&shards=2&inner=decay&model=window:10",
    "sharded?theta=0.7&lambda=0.01&shards=2&inner=lsh&bits=256&bands=32&verify=exact",
    "str-l2?theta=0.7&lambda=0.01&reorder=5",
    "str-l2?theta=0.7&lambda=0.01&checked",
    "str-l2?theta=0.7&lambda=0.01&graph",
    "decay?theta=0.7&model=window:10&graph",
    "sharded?theta=0.7&lambda=0.01&shards=2&inner=mb-l2ap&graph",
];

/// `sssj specs` — one line per advertised join variant: the canonical
/// spec string, a tab, and the `name()` of the join it builds. Every
/// line is built through the one `JoinSpec::build` factory, so this
/// doubles as the spec-grammar smoke check.
pub fn specs(args: &[String]) -> Result<(), String> {
    let p = parse(args, &[])?;
    if !p.positional.is_empty() {
        return Err("specs takes no arguments".into());
    }
    for s in ADVERTISED_SPECS {
        let spec: JoinSpec = s.parse().map_err(|e| format!("{s}: {e}"))?;
        let mut join = spec.build().map_err(|e| format!("{s}: {e}"))?;
        println!("{spec}\t{}", join.name());
        // Sharded joins spawn workers: run them down cleanly.
        join.finish(&mut Vec::new());
    }
    Ok(())
}

/// `sssj decay FILE --model exp:0.01|window:W|linear:W|poly:A:S
/// [--theta T] [--pairs]` — the generalised-decay join.
pub fn decay(args: &[String]) -> Result<(), String> {
    let p = parse(args, &["pairs"])?;
    let [input] = p.positional.as_slice() else {
        return Err("decay needs exactly one path".into());
    };
    let model_spec = p.get("model").unwrap_or("exp:0.01");
    let model = DecayModel::parse(model_spec)
        .ok_or_else(|| format!("cannot parse decay model {model_spec:?} (try exp:0.01, window:60, linear:60, poly:2:10)"))?;
    let theta: f64 = p.get_parsed("theta", 0.7)?;
    let records = load(&PathBuf::from(input))?;
    let spec = JoinSpec {
        engine: EngineSpec::GenericDecay(sssj_core::DecaySpec::new(model)),
        lambda: 0.0,
        ..JoinSpec::new(theta, 0.0)
    };
    let mut join = spec.build().map_err(|e| e.to_string())?;
    let watch = Stopwatch::start();
    let pairs = run_stream(join.as_mut(), &records);
    let elapsed = watch.seconds();
    if p.flag("pairs") {
        for pair in &pairs {
            println!("{pair}");
        }
    }
    eprintln!("algorithm : {}", join.name());
    eprintln!(
        "model     : {model}   horizon τ(θ): {:.2} s",
        model.horizon(theta)
    );
    eprintln!("pairs     : {}", pairs.len());
    eprintln!("time      : {elapsed:.3} s");
    eprintln!("work      : {}", join.stats());
    Ok(())
}
