//! Integration tests for the `acesim` command-line tool.

use std::process::Command;

fn acesim(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_acesim"))
        .args(args)
        .output()
        .expect("acesim binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = acesim(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("optimize"));
}

#[test]
fn no_args_fails_with_usage() {
    let (ok, _, stderr) = acesim(&[]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let (ok, _, stderr) = acesim(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

/// A mistyped flag, a flag without its value, an unparsable or
/// out-of-range value, a stray word and a removed sub-command are errors
/// (exit 2, one line + usage), never a silent default or a panic.
#[test]
fn bad_flags_exit_2_with_usage() {
    for (line, what) in [
        ("optimize --stpes 5", "unknown flag '--stpes'"),
        ("optimize --window 5", "unknown flag '--window'"),
        ("optimize --steps", "--steps takes a value"),
        ("optimize --steps --seed 1", "--steps takes a value"),
        ("optimize --steps many", "invalid --steps value 'many'"),
        ("dynamic --no-ace 5", "unexpected argument '5'"),
        ("analyze", "analyze requires --in FILE"),
        ("generate --kind ba --nodes 0", "--nodes must be at least 3"),
        ("generate --kind ba --nodes 1", "--nodes must be at least 3"),
        ("optimize --peers 0", "--peers must be at least 2"),
        ("optimize --peers 1", "--peers must be at least 2"),
        ("dynamic --peers 0", "--peers must be at least 2"),
        ("dynamic --peers 1", "--peers must be at least 2"),
        ("optimize --degree 0", "--degree must be at least 2"),
        ("optimize --degree 1", "--degree must be at least 2"),
        ("dynamic --cache 0", "--cache must be at least 1"),
        (
            "generate --kind transit-stub",
            "unknown --kind 'transit-stub'",
        ),
        ("export --in world.json", "unknown command 'export'"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_acesim"))
            .args(line.split_whitespace())
            .output()
            .expect("acesim binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line}: printed results");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error: ") && first.contains(what),
            "{line}: {first}"
        );
        assert!(stderr.contains("USAGE"), "{line}: {stderr}");
        assert!(!stderr.contains("panicked"), "{line}: {stderr}");
    }
}

#[test]
fn generate_analyze_round_trip() {
    let path = std::env::temp_dir().join("acesim_test_world.json");
    let path_s = path.to_str().unwrap();
    let (ok, stdout, _) = acesim(&[
        "generate", "--kind", "ba", "--nodes", "300", "--seed", "5", "--out", path_s,
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("300 nodes"));

    let (ok, stdout, _) = acesim(&["analyze", "--in", path_s]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("connected        : true"));
    assert!(stdout.contains("avg degree"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn generate_is_seed_deterministic() {
    let p1 = std::env::temp_dir().join("acesim_det_1.json");
    let p2 = std::env::temp_dir().join("acesim_det_2.json");
    for p in [&p1, &p2] {
        let (ok, _, _) = acesim(&[
            "generate",
            "--kind",
            "two-level",
            "--nodes",
            "500",
            "--seed",
            "9",
            "--out",
            p.to_str().unwrap(),
        ]);
        assert!(ok);
    }
    let a = std::fs::read_to_string(&p1).unwrap();
    let b = std::fs::read_to_string(&p2).unwrap();
    assert_eq!(a, b, "same seed, same world");
    let _ = std::fs::remove_file(p1);
    let _ = std::fs::remove_file(p2);
}

#[test]
fn optimize_reports_reduction() {
    let (ok, stdout, _) = acesim(&[
        "optimize", "--peers", "100", "--degree", "6", "--steps", "3", "--seed", "2",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("traffic reduction"));
    assert!(stdout.contains("min scope ratio"));
}

#[test]
fn optimize_rejects_bad_policy() {
    let (ok, _, stderr) = acesim(&["optimize", "--policy", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown --policy"));
}

#[test]
fn dynamic_smoke_run() {
    let (ok, stdout, _) = acesim(&[
        "dynamic",
        "--peers",
        "80",
        "--queries",
        "200",
        "--window",
        "100",
        "--seed",
        "3",
        "--no-ace",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("churn events"));
}
