#![forbid(unsafe_code)]
//! `sssj` — the command-line tool, mirroring the paper's released code.
//!
//! ```sh
//! sssj generate --preset tweets --n 10000 --out tweets.txt
//! sssj convert tweets.txt tweets.bin
//! sssj stats tweets.bin
//! sssj run tweets.bin --framework str --index l2 --theta 0.7 --lambda 0.01
//! sssj sweep tweets.bin --thetas 0.5,0.9 --lambdas 0.01,0.1
//! sssj compare tweets.bin --theta 0.7 --lambda 0.01
//! ```

use std::process::ExitCode;

mod args;
mod backfill_cmd;
mod commands;
mod commands_ext;
mod graph_cmd;
mod io;
mod net_cmd;
mod recover;
mod serve;

const USAGE: &str = "usage: sssj <command> [options]

commands:
  generate   synthesise a stream           (--preset, --n, --seed, --out)
  convert    convert text <-> binary       (<in> <out>)
  stats      print dataset statistics      (<file>)
  run        run a join over a stream      (<file>, --spec | --framework,
                                            --index, --theta, --lambda;
                                            --pairs, --shard-stats)
  specs      list every join variant as a buildable spec string
  sweep      (θ, λ) grid, CSV on stdout    (<file>, --thetas, --lambdas,
                                            --framework, --index)
  compare    all algorithms vs the oracle  (<file>, --theta, --lambda)
  topk       k best matches per arrival    (<file>, --k, --theta, --lambda,
                                            --index, --pairs)
  lsh        approximate join + accuracy   (<file>, --theta, --lambda,
                                            --bits, --bands, --estimate)
  shards     multi-threaded sharded run    (<file>, --shards, --theta,
                                            --lambda, --index, --broadcast)
  decay      generalised decay models      (<file>, --model, --theta,
                                            --pairs)
  graph      live similarity-graph queries (<file>, --spec, --query
                                            'topk N K; neighbors N;
                                            component N; stats';
                                            append `at=T` to a query for
                                            time travel (needs history=
                                            in the spec or --brute-force),
                                            --brute-force, --pairs)
  backfill   re-join an archived range     (<history-dir>, --spec,
                                            --from T, --to T, --pairs)
  serve      incremental join on stdin     (--spec | --theta, --lambda,
                                            --index; --tokenize, --quiet,
                                            --durable DIR,
                                            --metrics-log FILE
                                            [--metrics-log-max-bytes N],
                                            --trace-log FILE)
  recover    crash-recover a durable store (<dir>, --input FILE, --pairs)
  net-serve  TCP join service              (--listen, --spec | --theta,
                                            --lambda, --index, --framework;
                                            --shared serves ONE pipeline to
                                            every connection with real
                                            server-push SUBSCRIBE)
  net-send   stream a file to a service    (<file>, --connect, --spec,
                                            --theta, --lambda, --index,
                                            --quiet, --subscribe N,
                                            --query 'topk N K; ...',
                                            --no-finish to leave a shared
                                            pipeline open, --watch SECS to
                                            listen for pushed updates)
  metrics    scrape a server's METRICS     ([addr], one-shot Prometheus
                                            text; --watch SECS re-scrapes
                                            and annotates counters with
                                            deltas/sec, --count N stops
                                            after N reports)
  trace      dump a server's flight        ([addr] | --from-log FILE,
             recorder as Chrome JSON        --last N, --out FILE; load in
                                            Perfetto / chrome://tracing)

run options:
  --spec S                full pipeline spec, e.g. str-l2?theta=0.7&reorder=5
                          (run `sssj specs` for one example per variant;
                          sharded?shards=4&inner=mb-l2ap runs MB workers;
                          append durable=DIR for WAL + checkpoints — the
                          store resumes when DIR already holds a manifest;
                          append graph for a live similarity graph served
                          by `sssj graph` and the net QUERY/SUBSCRIBE verbs;
                          append history=DIR after durable= to compact
                          retired WAL segments and expired edges into an
                          immutable tier serving `QUERY … at=T` time travel
                          and `sssj backfill`)
  --framework mb|str      (default str)
  --index inv|ap|l2ap|l2  (default l2)
  --theta T               similarity threshold in (0,1]   (default 0.7)
  --lambda L              decay rate >= 0                 (default 0.01)
  --pairs                 print every similar pair
  --shard-stats           (sharded specs) per-shard load + routing skip rate

decay models (for `decay --model`):
  exp:LAMBDA   window:SECONDS   linear:SECONDS   poly:ALPHA:SCALE
";

fn main() -> ExitCode {
    // Make every engine spec-buildable before any command parses one.
    sssj_net::register_spec_builders();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `-h`/`--help` anywhere after a command asks for the usage, not for
    // an option that takes a value.
    if rest.iter().any(|a| a == "-h" || a == "--help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match command.as_str() {
        "generate" => commands::generate(rest),
        "convert" => commands::convert(rest),
        "stats" => commands::stats(rest),
        "run" => commands::run(rest),
        "specs" => commands_ext::specs(rest),
        "sweep" => commands_ext::sweep(rest),
        "compare" => commands_ext::compare(rest),
        "topk" => commands_ext::topk(rest),
        "lsh" => commands_ext::lsh(rest),
        "shards" => commands_ext::shards(rest),
        "decay" => commands_ext::decay(rest),
        "graph" => graph_cmd::graph(rest),
        "backfill" => backfill_cmd::backfill_cmd(rest),
        "serve" => serve::serve(rest),
        "recover" => recover::recover(rest),
        "net-serve" => net_cmd::net_serve(rest),
        "net-send" => net_cmd::net_send(rest),
        "metrics" => net_cmd::metrics_cmd(rest),
        "trace" => net_cmd::trace_cmd(rest),
        "-h" | "--help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("sssj: {message}");
            ExitCode::FAILURE
        }
    }
}
