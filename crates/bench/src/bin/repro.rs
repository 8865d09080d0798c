//! `repro` — the one entry point of the reproduction harness: the
//! paper's tables and figures from [`ace_bench::figures::FIGURES`] (each
//! selected row runs **once** and emits the requested records), the
//! committed `BENCH_*.json` curves with their `--check` gates (the
//! rules are the `check` functions of `ace_bench::{scale, qps, matrix,
//! soak}`), and the three [`ace_bench::smoke::SMOKES`]. `USAGE` is the
//! reference; anything it does not list — an unknown sub-command, record
//! id or flag, a flag without its value, an unparsable value, an
//! unreadable baseline — is a one-line error plus the usage on stderr
//! and exit code 2.

use std::process::ExitCode;

use ace_bench::figures::FIGURES;
use ace_bench::matrix::{self, MatrixBench, MatrixWorld, WorldConfig, MATRIX_ROUNDS};
use ace_bench::qps::{self, QpsBench, QpsPoint, QPS_POINTS, QPS_ROUNDS};
use ace_bench::scale::{self, ScaleBench, SCALE_POINTS, SCALE_ROUNDS};
use ace_bench::smoke::SMOKES;
use ace_bench::soak::{self, ArmReport, SeverityReport, SoakBench, SoakParams};
use ace_bench::{emit, Scale};
use ace_overlay::ServeConfig;
use serde::{Deserialize, Serialize};

const USAGE: &str = "\
repro — regenerate the paper's tables and figures and the committed artifacts

USAGE:
  repro list                     record ids and what each reproduces
  repro all                      every record, each shared sweep run once
  repro <id>...                  the named records, e.g. `repro fig07 fig08`
  repro scale  [--point N [--workers W] [--json] [--check FILE]]
  repro qps    [--point N [--json] [--check FILE]]
  repro matrix [--slice] [--json] [--check FILE]
  repro soak   [--slice [--json] [--check FILE]]
  repro smoke fault|diff|chaos   rewrite FAULT_SMOKE / DIFFERENTIAL / CHAOS.json

Records are written to target/experiments/<id>.json at the scale picked by
QUICK=1 (smoke) or FULL=1 (the paper's 20k routers). Without --point / --slice
the bench commands measure the full curve and write BENCH_<name>.json in the
working directory; --check exits 1 when the measured subset fails its gate.";

/// Argv, parsed once.
#[derive(Default)]
struct Args {
    /// The sub-command, then its operands (record ids, the smoke name).
    words: Vec<String>,
    point: Option<usize>,
    workers: Option<usize>,
    slice: bool,
    json: bool,
    check: Option<String>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        while let Some(arg) = argv.next() {
            let mut value = |what: &str| {
                argv.next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{arg} takes {what}"))
            };
            let count = |v: String| {
                v.parse::<usize>()
                    .map_err(|_| format!("{arg} takes a number, not '{v}'"))
            };
            match arg.as_str() {
                "--point" => args.point = Some(count(value("a peer count")?)?),
                "--workers" => args.workers = Some(count(value("a thread count")?)?),
                "--check" => args.check = Some(value("a baseline file")?),
                "--slice" => args.slice = true,
                "--json" => args.json = true,
                flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
                _ => args.words.push(arg),
            }
        }
        Ok(args)
    }

    /// Rejects every given flag the sub-command (in this mode) does not
    /// take, and every operand beyond `operands`.
    fn accept(&self, allowed: &[&str], operands: usize) -> Result<(), String> {
        let cmd = &self.words[0];
        let given = [
            ("--point", self.point.is_some()),
            ("--workers", self.workers.is_some()),
            ("--slice", self.slice),
            ("--json", self.json),
            ("--check", self.check.is_some()),
        ];
        if let Some((flag, _)) = given.iter().find(|(f, on)| *on && !allowed.contains(f)) {
            return Err(format!("'{cmd}' does not take {flag} here"));
        }
        match self.words.get(1 + operands) {
            Some(extra) => Err(format!("'{cmd}': unexpected argument '{extra}'")),
            None => Ok(()),
        }
    }

    /// `--point`, which must name a population of the scale curve (the
    /// worlds are sized from that table).
    fn population(&self) -> Result<Option<usize>, String> {
        match self.point {
            Some(n) if !SCALE_POINTS.iter().any(|p| p.0 == n) => Err(format!(
                "--point takes one of {:?}, not {n}",
                SCALE_POINTS.map(|p| p.0)
            )),
            point => Ok(point),
        }
    }

    /// The committed artifact named by `--check`, if any — loaded before
    /// anything is measured, so a bad path fails in milliseconds.
    fn baseline<T: Deserialize>(&self) -> Result<Option<T>, String> {
        let Some(path) = &self.check else {
            return Ok(None);
        };
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let parsed = serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
        Ok(Some(parsed))
    }
}

fn save(path: &str, text: String) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("[saved {path}]");
    Ok(())
}

/// The shared tail of the four bench commands: print the `--check`
/// verdict, then the `--json` line. `false` (exit 1) when the gate failed.
fn finish<T: Serialize>(args: &Args, measured: &T, failures: Option<Vec<String>>) -> bool {
    let cmd = &args.words[0];
    if let Some(failures) = failures {
        for f in &failures {
            eprintln!("[repro {cmd}: CHECK FAILED — {f}]");
        }
        if !failures.is_empty() {
            return false;
        }
        let path = args.check.as_deref().unwrap_or_default();
        eprintln!("[repro {cmd}: check OK — every gate holds against {path}]");
    }
    if args.json {
        println!(
            "{}",
            serde_json::to_string(measured).expect("bench types serialize")
        );
    }
    true
}

fn figures(names: &[String]) -> Result<bool, String> {
    let all = names == ["all"];
    let wanted = |id: &str| all || names.iter().any(|n| n == id);
    if let Some(unknown) = names
        .iter()
        .find(|n| !all && !FIGURES.iter().any(|f| f.ids.contains(&n.as_str())))
    {
        return Err(format!("unknown sub-command or record id '{unknown}'"));
    }
    let scale = Scale::from_env();
    eprintln!("[repro at {scale:?} scale]");
    for fig in FIGURES.iter().filter(|f| f.ids.iter().any(|id| wanted(id))) {
        for (rec, tables) in (fig.run)(scale) {
            if wanted(&rec.id) {
                emit(&rec, &tables);
            }
        }
    }
    Ok(true)
}

fn scale_cmd(args: &Args) -> Result<bool, String> {
    let Some(peers) = args.population()? else {
        args.accept(&[], 0)?;
        let points = SCALE_POINTS
            .iter()
            .map(|&(peers, _, _)| {
                eprintln!("[repro scale: measuring {peers} peers]");
                scale::run_point_workers(peers, 0, true)
            })
            .collect();
        eprintln!("[repro scale: running 800-peer cross-plane band]");
        let band = scale::run_band();
        assert!(
            band.within_band,
            "hybrid plane fell outside the documented reduction band: {band:?}"
        );
        let bench = ScaleBench {
            rounds: SCALE_ROUNDS,
            points,
            band,
        };
        let json = serde_json::to_string_pretty(&bench).expect("bench types serialize");
        return save("BENCH_scale.json", json).map(|()| true);
    };
    args.accept(&["--point", "--workers", "--json", "--check"], 0)?;
    let baseline: Option<ScaleBench> = args.baseline()?;
    eprintln!("[repro scale: measuring {peers} peers]");
    // The CI smoke stays lean: no worker sweep under --check (the
    // sweep's digest-invariance claim is covered by the drift gate plus
    // the planned-schedule golden cells).
    let point = scale::run_point_workers(peers, args.workers.unwrap_or(0), baseline.is_none());
    eprintln!(
        "[repro scale: {peers} peers — state digest {:#018x}]",
        point.state_digest
    );
    let failures = baseline.map(|b| scale::check(&point, &b));
    Ok(finish(args, &point, failures))
}

fn qps_cmd(args: &Args) -> Result<bool, String> {
    let Some(peers) = args.population()? else {
        args.accept(&[], 0)?;
        let points = QPS_POINTS
            .iter()
            .map(|&peers| {
                eprintln!("[repro qps: measuring {peers} peers]");
                qps::run_point(peers)
            })
            .collect();
        let bench = QpsBench {
            rounds: QPS_ROUNDS,
            chunk: ServeConfig::default().chunk,
            points,
        };
        let json = serde_json::to_string_pretty(&bench).expect("bench types serialize");
        return save("BENCH_qps.json", json).map(|()| true);
    };
    args.accept(&["--point", "--json", "--check"], 0)?;
    let baseline: Option<QpsBench> = args.baseline()?;
    eprintln!("[repro qps: measuring {peers} peers]");
    let point: QpsPoint = qps::run_point(peers);
    eprintln!(
        "[repro qps: {} peers, {} queries — flood hop p50 {:.1} ms, p99 {:.1} ms vs ACE hop \
         p50 {:.1} ms, p99 {:.1} ms; traffic x{:.2}, scope x{:.2}]",
        point.peers,
        point.queries,
        point.flood.hop_p50_ms,
        point.flood.hop_p99_ms,
        point.ace.hop_p50_ms,
        point.ace.hop_p99_ms,
        point.traffic_ratio,
        point.scope_ratio
    );
    let failures = baseline.map(|b| qps::check(&point, &b));
    Ok(finish(args, &point, failures))
}

fn matrix_cmd(args: &Args) -> Result<bool, String> {
    args.accept(&["--slice", "--json", "--check"], 0)?;
    let baseline: Option<MatrixBench> = args.baseline()?;
    let cfg = WorldConfig::committed();
    let cells = if args.slice {
        matrix::slice_cells()
    } else {
        matrix::committed_cells()
    };
    eprintln!(
        "[repro matrix: building the {}-peer world, then {} cells]",
        cfg.peers,
        cells.len()
    );
    let world = MatrixWorld::build(&cfg);
    let bench = MatrixBench {
        peers: cfg.peers,
        queries_per_cell: cfg.queries,
        rounds: MATRIX_ROUNDS,
        cells: matrix::run_matrix(&world, &cells, 0),
    };
    eprintln!(
        "{:<9} {:>4} {:>2} {:>4} | {:>6} {:>9} {:>9} {:>8} {:>8}",
        "strategy", "zipf", "r", "ace", "recall", "traffic/q", "p95 ms", "link max", "msgs"
    );
    for c in &bench.cells {
        eprintln!(
            "{:<9} {:>4} {:>2} {:>4} | {:>6.3} {:>9.1} {:>9.1} {:>8} {:>8}",
            c.strategy.name(),
            c.zipf,
            c.replicas,
            if c.ace { "on" } else { "off" },
            c.recall,
            c.traffic_per_query,
            c.response_p95_ms,
            c.link_max_messages,
            c.messages,
        );
    }
    for (off, on) in bench.ace_pairs() {
        eprintln!(
            "[pair {} z={} r={}: ACE traffic ratio {:.3}]",
            off.strategy.name(),
            off.zipf,
            off.replicas,
            on.traffic_total / off.traffic_total.max(1e-9),
        );
    }
    let failures = baseline.map(|b| matrix::check(&bench, &b));
    if !finish(args, &bench, failures) {
        return Ok(false);
    }
    if !args.slice {
        let json = serde_json::to_string_pretty(&bench).expect("bench types serialize");
        save("BENCH_matrix.json", json + "\n")?;
    }
    Ok(true)
}

fn soak_cmd(args: &Args) -> Result<bool, String> {
    let params = SoakParams::committed();
    // Everything is simulated and seeded, so the slice (the churn+chaos
    // severity at the committed parameters) reproduces its committed
    // twin digest for digest, and the full run can go severity by
    // severity without wall clock contaminating anything.
    let run = |sev: &soak::SoakSeverity| {
        eprintln!(
            "[repro soak: severity {:?} — {} peers, {} simulated seconds per arm]",
            sev.name, params.peers, params.sim_secs
        );
        let report = soak::run_severity(&params, sev);
        print_severity(&report);
        report
    };
    if args.slice {
        args.accept(&["--slice", "--json", "--check"], 0)?;
        let baseline: Option<SoakBench> = args.baseline()?;
        let sev = soak::severity_named(soak::SLICE_SEVERITY).expect("slice severity on the grid");
        let report = run(&sev);
        let failures = baseline.map(|b| soak::check(&report, &b));
        return Ok(finish(args, &report, failures));
    }
    args.accept(&[], 0)?;
    let bench = SoakBench {
        peers: params.peers,
        sim_secs: params.sim_secs,
        window_secs: params.window_secs,
        queries_per_window: params.queries_per_window,
        severities: soak::severities().iter().map(run).collect(),
    };
    let json = serde_json::to_string_pretty(&bench).expect("bench types serialize");
    save("BENCH_soak.json", json + "\n").map(|()| true)
}

fn print_severity(r: &SeverityReport) {
    let arm = |a: &ArmReport, label: &str| {
        eprintln!(
            "  {label:<8} reduction mean {:.3} final {:.3} | overhead {:.0} | cycles {} | \
             interval {:.2}..{:.2} | soft state {} B (hwm {} B) | leaks {} | audit {}",
            a.reduction_mean,
            a.reduction_final,
            a.overhead_total,
            a.cycles_total,
            a.windows.last().map(|w| w.interval_min).unwrap_or(1.0),
            a.windows.last().map(|w| w.interval_max).unwrap_or(1.0),
            a.controller.soft_state_bytes,
            a.controller.high_water_bytes,
            a.leaked_entries,
            if a.invariants_ok { "ok" } else { "FAILED" },
        );
    };
    eprintln!(
        "[repro soak: {} — retention {:.3} (final {:.3}), overhead x{:.2}]",
        r.name, r.retention, r.retention_final, r.overhead_ratio
    );
    arm(&r.static_arm, "static");
    arm(&r.adaptive_arm, "adaptive");
}

fn smoke_cmd(args: &Args) -> Result<bool, String> {
    args.accept(&[], 1)?;
    let name = args.words.get(1).map(String::as_str).unwrap_or_default();
    let smoke = SMOKES
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("'smoke' takes fault, diff or chaos, not '{name}'"))?;
    save(smoke.artifact, (smoke.run)()).map(|()| true)
}

/// `Ok(false)` is a failed `--check` gate (exit 1); `Err` is a usage or
/// I/O error (exit 2).
fn run(args: &Args) -> Result<bool, String> {
    let cmd = args.words.first().ok_or("no sub-command given")?;
    match cmd.as_str() {
        "list" => {
            args.accept(&[], 0)?;
            for fig in &FIGURES {
                println!("{:<42} {}", fig.ids.join(" "), fig.about);
            }
            Ok(true)
        }
        "scale" => scale_cmd(args),
        "qps" => qps_cmd(args),
        "matrix" => matrix_cmd(args),
        "soak" => soak_cmd(args),
        "smoke" => smoke_cmd(args),
        _ => {
            args.accept(&[], args.words.len() - 1)?;
            figures(&args.words)
        }
    }
}

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)).and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("repro: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
