//! Scale curve of the hybrid distance plane — writes `BENCH_scale.json`.
//!
//! Modes:
//!
//! * no arguments — the full curve (800 → 100k peers). Each point runs in
//!   a child process (`--point N --json`) so its `VmHWM` peak-RSS reading
//!   covers exactly that population, then the parent adds the 800-peer
//!   cross-plane band and writes `BENCH_scale.json`.
//! * `--point N [--json]` — measure one population in this process;
//!   `--json` prints the point as JSON on stdout (the parent↔child wire).
//! * `--point N [--workers W] --check BENCH_scale.json` — CI smoke:
//!   measure `N` (at `W` worker threads; default one per core) and fail
//!   (exit 1) if its engine state digest drifted from the committed
//!   baseline's — rounds are seeded and worker-count invariant, so any
//!   drift is a behavior change, not noise. Mean round wall time is
//!   printed next to the baseline's but not gated: the baseline was
//!   written on another host, and wall-clock regressions are the repo
//!   benchmark's job (best-of-5 replay against declared bounds).

use ace_bench::scale::{self, ScaleBench, ScalePoint, SCALE_POINTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };

    if let Some(peers) = flag_value("--point") {
        let peers: usize = peers.parse().expect("--point takes a peer count");
        let workers: usize = flag_value("--workers")
            .map(|w| w.parse().expect("--workers takes a thread count"))
            .unwrap_or(0);
        let check = flag_value("--check");
        // CI smoke stays lean: no worker sweep under --check (the
        // sweep's digest-invariance claim is covered by the drift gate
        // plus the dirty-planning differential suite).
        let point = run_one(peers, workers, check.is_none());
        if let Some(baseline_path) = check {
            check_digest(&point, &baseline_path);
        }
        if args.iter().any(|a| a == "--json") {
            println!(
                "{}",
                serde_json::to_string(&point).expect("serialize point")
            );
        }
        return;
    }

    // Full curve: one child process per point for honest peak-RSS.
    let exe = std::env::current_exe().expect("own executable path");
    let mut points = Vec::new();
    for &(peers, _, _) in &SCALE_POINTS {
        eprintln!("[bench_scale: spawning {peers}-peer point]");
        let out = std::process::Command::new(&exe)
            .args(["--point", &peers.to_string(), "--json"])
            .output()
            .expect("spawn point subprocess");
        assert!(
            out.status.success(),
            "{peers}-peer point failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("point output is UTF-8");
        let json = stdout
            .lines()
            .find(|l| l.trim_start().starts_with('{'))
            .expect("point subprocess printed JSON");
        let point: ScalePoint = serde_json::from_str(json).expect("parse point JSON");
        eprintln!(
            "[bench_scale: {peers} peers — mean round {:.1} ms, peak RSS {} MiB, coord share {:.3}]",
            point.mean_round_ms,
            point.peak_rss_kb / 1024,
            point.tiers.coord_share
        );
        points.push(point);
    }

    eprintln!("[bench_scale: running 800-peer cross-plane band]");
    let band = scale::run_band();
    assert!(
        band.within_band,
        "hybrid plane fell outside the documented reduction band: {band:?}"
    );
    let bench = ScaleBench::assemble(points, band);
    for row in &bench.extrapolation {
        eprintln!(
            "[bench_scale: {} peers — naive exact {:.0} ms vs measured {:.0} ms ({:.0}x); \
             exact cache would need {:.0} MiB, hybrid peaked at {:.0} MiB]",
            row.peers,
            row.naive_exact_ms,
            row.measured_ms,
            row.advantage,
            row.exact_cache_mb,
            row.hybrid_peak_rss_mb
        );
    }
    let json = serde_json::to_string_pretty(&bench).expect("serialize scale bench");
    std::fs::write("BENCH_scale.json", json).expect("write BENCH_scale.json");
    eprintln!("[saved BENCH_scale.json]");
}

fn run_one(peers: usize, workers: usize, sweep: bool) -> ScalePoint {
    eprintln!("[bench_scale: measuring {peers} peers]");
    let point = scale::run_point_workers(peers, workers, sweep);
    eprintln!(
        "[bench_scale: {peers} peers — world {:.0} ms, oracle build {:.0} ms, mean round {:.1} ms, \
         plan-skip rate {:.3}, state digest {:#018x}]",
        point.world_ms,
        point.oracle_build_ms,
        point.mean_round_ms,
        point.plan_skip_rate,
        point.state_digest
    );
    for leg in &point.workers_sweep {
        eprintln!(
            "[bench_scale:   workers={} — mean round {:.1} ms, plan-skip rate {:.3} (digest ok)]",
            leg.workers, leg.mean_round_ms, leg.plan_skip_rate
        );
    }
    point
}

fn check_digest(point: &ScalePoint, baseline_path: &str) {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let baseline: ScaleBench = serde_json::from_str(&text).expect("parse baseline JSON");
    let base = baseline
        .point(point.peers)
        .unwrap_or_else(|| panic!("baseline has no {}-peer point", point.peers));
    // Informational only — like with like: a --workers run is printed
    // against the baseline's matching sweep leg when one exists.
    let base_mean = base
        .workers_sweep
        .iter()
        .find(|leg| leg.workers == point.workers)
        .map_or(base.mean_round_ms, |leg| leg.mean_round_ms);
    eprintln!(
        "[bench_scale: {} peers — measured {:.1} ms vs baseline {:.1} ms (not gated)]",
        point.peers, point.mean_round_ms, base_mean
    );
    // Digest drift: the rounds are fully seeded and worker-count
    // invariant, so the measured digest must equal the committed one
    // bit for bit. Baselines predating the field carry 0 — skip those.
    if base.state_digest != 0 && point.state_digest != base.state_digest {
        eprintln!(
            "[bench_scale: DIGEST DRIFT — measured {:#018x}, baseline {:#018x}; \
             round behavior changed]",
            point.state_digest, base.state_digest
        );
        std::process::exit(1);
    }
    eprintln!("[bench_scale: digest matches the baseline]");
}
