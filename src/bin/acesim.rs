//! `acesim` — command-line driver for the ACE reproduction.
//!
//! ```console
//! $ acesim generate --kind two-level --nodes 2000 --seed 7 --out world.json
//! $ acesim analyze  --in world.json
//! $ acesim optimize --peers 400 --degree 6 --steps 10 --seed 7
//! $ acesim dynamic  --peers 300 --queries 2000 --seed 7 [--no-ace]
//! ```
//!
//! Every subcommand is seed-deterministic; `--help` lists the options.

use std::collections::HashMap;
use std::process::ExitCode;

use ace_core::experiments::{dynamic_run, static_run, DynamicConfig, ScenarioConfig, StaticConfig};
use ace_core::{AceConfig, ReplacePolicy};
use ace_topology::generate::{ba, two_level, BaConfig, TwoLevelConfig};
use ace_topology::{analysis, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str = "\
acesim — ACE (Adaptive Connection Establishment) simulator

USAGE:
  acesim generate --kind <two-level|ba> [--nodes N] [--seed S] [--out FILE]
  acesim analyze  --in FILE [--samples N]
  acesim optimize [--peers N] [--degree C] [--steps K] [--depth H]
                  [--policy <random|naive|closest>] [--seed S]
  acesim dynamic  [--peers N] [--queries N] [--window W] [--no-ace]
                  [--cache ITEMS] [--seed S]
  acesim help

All commands are deterministic for a given --seed (default 1).";

/// Flags that take no value.
const SWITCHES: [&str; 1] = ["no-ace"];

/// Minimal `--flag value` argument map over the flags a sub-command
/// `accepts`; switches get "true". Anything else — an unknown flag, a
/// bare word, a flag without its value — is an error, not a default.
fn parse_flags(args: &[String], accepts: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut args = args.iter();
    while let Some(a) = args.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument '{a}'"));
        };
        if !accepts.contains(&key) {
            return Err(format!(
                "unknown flag '{a}' (this command takes --{})",
                accepts.join(", --")
            ));
        }
        let value = if SWITCHES.contains(&key) {
            "true"
        } else {
            args.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{a} takes a value"))?
        };
        out.insert(key.to_string(), value.to_string());
    }
    Ok(out)
}

fn get_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid --{key} value '{v}'")),
    }
}

/// [`get_num`] for a count the simulator needs at least `min` of.
fn get_at_least(
    flags: &HashMap<String, String>,
    key: &str,
    default: usize,
    min: usize,
) -> Result<usize, String> {
    let n = get_num(flags, key, default)?;
    if n < min {
        return Err(format!("--{key} must be at least {min}, got {n}"));
    }
    Ok(n)
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let kind = flags.get("kind").map(String::as_str).unwrap_or("two-level");
    let nodes: usize = get_num(flags, "nodes", 2000)?;
    let seed: u64 = get_num(flags, "seed", 1)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let graph: Graph = match kind {
        "two-level" => {
            let per_as = (nodes / 10).max(3);
            two_level(
                &TwoLevelConfig {
                    as_count: 10,
                    nodes_per_as: per_as,
                },
                &mut rng,
            )
            .graph
        }
        "ba" => {
            let cfg = BaConfig::default();
            let nodes = get_at_least(flags, "nodes", nodes, cfg.seed_nodes)?;
            ba(&BaConfig { nodes, ..cfg }, &mut rng)
        }
        other => return Err(format!("unknown --kind '{other}'")),
    };
    println!(
        "generated {kind}: {} nodes, {} edges (seed {seed})",
        graph.node_count(),
        graph.edge_count()
    );
    if let Some(path) = flags.get("out") {
        let json = serde_json::to_string(&graph).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_analyze(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = flags.get("in").ok_or("analyze requires --in FILE")?;
    let samples: usize = get_num(flags, "samples", 200)?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let graph: Graph = serde_json::from_str(&json).map_err(|e| format!("{path}: {e}"))?;
    let mut rng = StdRng::seed_from_u64(0);
    println!("nodes            : {}", graph.node_count());
    println!("edges            : {}", graph.edge_count());
    println!("connected        : {}", graph.is_connected());
    println!("avg degree       : {:.2}", analysis::average_degree(&graph));
    println!(
        "clustering coeff : {:.4}",
        analysis::clustering_coefficient(&graph, samples, &mut rng)
    );
    println!(
        "avg path (hops)  : {:.2}",
        analysis::average_path_hops(&graph, samples, &mut rng)
    );
    println!(
        "avg path (delay) : {:.1}",
        analysis::average_path_delay(&graph, samples, &mut rng)
    );
    println!("diameter (est.)  : {}", analysis::diameter_estimate(&graph));
    match analysis::power_law_exponent(&graph) {
        Some(e) => println!("power-law (CCDF) : {e:.2}"),
        None => println!("power-law (CCDF) : n/a"),
    }
    match analysis::assortativity(&graph) {
        Some(r) => println!("assortativity    : {r:.3}"),
        None => println!("assortativity    : n/a"),
    }
    Ok(())
}

fn cmd_optimize(flags: &HashMap<String, String>) -> Result<(), String> {
    let peers = get_at_least(flags, "peers", 400, 2)?;
    let degree = get_at_least(flags, "degree", 6, 2)?;
    let steps: usize = get_num(flags, "steps", 10)?;
    let depth: u8 = get_num(flags, "depth", 1)?;
    let seed: u64 = get_num(flags, "seed", 1)?;
    let policy = match flags.get("policy").map(String::as_str).unwrap_or("random") {
        "random" => ReplacePolicy::Random,
        "naive" => ReplacePolicy::Naive,
        "closest" => ReplacePolicy::Closest,
        other => return Err(format!("unknown --policy '{other}'")),
    };
    let cfg = StaticConfig {
        scenario: ScenarioConfig {
            as_count: 10,
            nodes_per_as: (peers * 5 / 10).max(20),
            peers,
            avg_degree: degree,
            seed,
            ..ScenarioConfig::default()
        },
        ace: AceConfig {
            depth,
            policy,
            ..AceConfig::paper_default()
        },
        steps,
        query_samples: 48,
        ttl: 32,
    };
    println!("optimizing {peers} peers (C={degree}, h={depth}, {policy:?}, seed {seed})\n");
    println!("step  traffic/query  response ms   scope  replaced  added  overhead");
    let r = static_run(&cfg);
    for s in &r.steps {
        println!(
            "{:>4}  {:>13.0}  {:>11.1}  {:>6.1}  {:>8}  {:>5}  {:>8.0}",
            s.step,
            s.ace.traffic,
            s.ace.response_ms,
            s.ace.scope,
            s.replaced,
            s.added,
            s.overhead.total_cost()
        );
    }
    println!(
        "\ntraffic reduction {:.1}%  response reduction {:.1}%  min scope ratio {:.3}",
        r.traffic_reduction() * 100.0,
        r.response_reduction() * 100.0,
        r.min_scope_ratio()
    );
    Ok(())
}

fn cmd_dynamic(flags: &HashMap<String, String>) -> Result<(), String> {
    let peers = get_at_least(flags, "peers", 300, 2)?;
    let queries: u64 = get_num(flags, "queries", 2000)?;
    let window: u64 = get_num(flags, "window", 200)?;
    let seed: u64 = get_num(flags, "seed", 1)?;
    let ace = if flags.contains_key("no-ace") {
        None
    } else {
        Some(AceConfig::paper_default())
    };
    let cache = flags
        .contains_key("cache")
        .then(|| get_at_least(flags, "cache", 0, 1))
        .transpose()?;
    let scenario = ScenarioConfig {
        as_count: 8,
        nodes_per_as: (peers / 2).max(20),
        peers,
        seed,
        ..ScenarioConfig::default()
    };
    let mut cfg = DynamicConfig::paper_default(scenario, ace);
    cfg.total_queries = queries;
    cfg.window = window;
    cfg.index_cache = cache;
    println!(
        "dynamic run: {peers} peers, {queries} queries, ACE {}, cache {:?} (seed {seed})\n",
        if cfg.ace.is_some() { "on" } else { "off" },
        cache
    );
    println!("queries  traffic/query  response ms  scope%  success%");
    let r = dynamic_run(&cfg);
    for w in &r.windows {
        println!(
            "{:>7}  {:>13.0}  {:>11.1}  {:>5.1}  {:>7.1}",
            w.queries_done,
            w.traffic,
            w.response_ms,
            w.scope_frac * 100.0,
            w.success * 100.0
        );
    }
    println!(
        "\nchurn events {}  total ACE overhead {:.0}  simulated time {}",
        r.churn_events, r.total_overhead, r.sim_end
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    type Cmd = fn(&HashMap<String, String>) -> Result<(), String>;
    let (accepts, run): (&[&str], Cmd) = match args.first().map(String::as_str) {
        Some("generate") => (&["kind", "nodes", "seed", "out"], cmd_generate),
        Some("analyze") => (&["in", "samples"], cmd_analyze),
        Some("optimize") => (
            &["peers", "degree", "steps", "depth", "policy", "seed"],
            cmd_optimize,
        ),
        Some("dynamic") => (
            &["peers", "queries", "window", "no-ace", "cache", "seed"],
            cmd_dynamic,
        ),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => return usage_error(&format!("unknown command '{other}'")),
        None => return usage_error("no command given"),
    };
    match parse_flags(&args[1..], accepts).and_then(|flags| run(&flags)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => usage_error(&e),
    }
}

/// One-line error, then the usage, on stderr; exit code 2.
fn usage_error(e: &str) -> ExitCode {
    eprintln!("error: {e}\n\n{USAGE}");
    ExitCode::from(2)
}
