//! Integration tests for the `repro` command-line surface.

use std::process::Command;

/// Runs `repro` in a scratch working directory (records are written
/// relative to it) and returns `(exit code, stdout, stderr)`.
fn repro(args: &[&str]) -> (Option<i32>, String, String) {
    let cwd = std::env::temp_dir().join(format!("repro_cli_{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&cwd)
        .env("QUICK", "1")
        .env_remove("FULL")
        .output()
        .expect("repro binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

#[test]
fn list_prints_every_record_id() {
    let (code, stdout, _) = repro(&["list"]);
    assert_eq!(code, Some(0));
    let ids = stdout
        .split_whitespace()
        .filter(|w| {
            ["table", "fig", "ext_", "baseline_", "ablation_"]
                .iter()
                .any(|p| w.starts_with(p))
        })
        .count();
    assert_eq!(ids, 27, "{stdout}");
    assert!(stdout.contains("fig11 fig12 fig13 fig14 fig15 fig16"));
}

/// The §3.4 walk-through is scale-independent: `repro table01_02` prints
/// byte for byte what the one-figure binary it replaced printed.
#[test]
fn table01_02_prints_the_walk_through() {
    let (code, stdout, stderr) = repro(&["table01_02"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(stdout, include_str!("golden/table01_02.stdout"));
    assert_eq!(stdout.lines().count(), 40);
}

/// A row runs once and emits only the records asked for, in table order.
#[test]
fn named_records_select_from_their_shared_sweeps() {
    let (code, stdout, stderr) = repro(&["fig11", "fig08"]);
    assert_eq!(code, Some(0), "{stderr}");
    let headers: Vec<&str> = stdout.lines().filter(|l| l.starts_with("== ")).collect();
    assert_eq!(headers.len(), 2, "{stdout}");
    assert!(headers[0].starts_with("== fig08 "), "{stdout}");
    assert!(headers[1].starts_with("== fig11 "), "{stdout}");
    assert!(stdout.contains("[saved target/experiments/fig11.json]"));
}

#[test]
fn usage_errors_exit_2_with_one_line_and_the_usage() {
    for (line, what) in [
        ("", "no sub-command"),
        ("frobnicate", "unknown sub-command or record id 'frob"),
        ("fig07 fig99", "unknown sub-command or record id 'fig99'"),
        ("qps --frobnicate", "unknown flag '--frobnicate'"),
        ("scale --point", "--point takes a peer count"),
        ("scale --point abc", "--point takes a number, not 'abc'"),
        ("qps --point 7", "--point takes one of [800, 5000, 20000"),
        ("qps --point 800 --check", "--check takes a baseline file"),
        ("fig07 --slice", "'fig07' does not take --slice"),
        ("soak --check B.json", "'soak' does not take --check"),
        ("smoke flood", "not 'flood'"),
        ("qps --point 800 --check no/such.json", "read no/such.json"),
    ] {
        let args: Vec<&str> = line.split_whitespace().collect();
        let (code, stdout, stderr) = repro(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("repro: ") && first.contains(what),
            "{args:?}: {first}"
        );
        assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
