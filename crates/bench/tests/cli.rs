//! Integration tests for the `repro` command-line surface.

use std::process::Command;

use ace_bench::figures::FIGURES;

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
    assert_eq!(ids, 22, "{stdout}");
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
        (
            "baseline_ltm",
            "unknown sub-command or record id 'baseline_ltm'",
        ),
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

/// The docs' code spans: text between two equal runs of backticks, never
/// across a fenced block or a blank line. Fenced lines come back apart.
fn code_spans_and_fenced_lines(doc: &str) -> (Vec<String>, Vec<&str>) {
    let (mut spans, mut fenced, mut prose) = (Vec::new(), Vec::new(), Vec::new());
    let mut in_fence = false;
    for line in doc.lines().chain([""]) {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
        } else if in_fence {
            fenced.push(line);
            continue;
        } else if !line.trim().is_empty() {
            prose.push(line);
            continue;
        }
        let para = prose.join("\n");
        prose.clear();
        let b = para.as_bytes();
        let run = |i: usize| b[i..].iter().take_while(|&&c| c == b'`').count();
        let mut i = 0;
        while i < b.len() {
            if b[i] != b'`' {
                i += 1;
                continue;
            }
            let (ticks, start) = (run(i), i + run(i));
            let (mut j, mut close) = (start, None);
            while j < b.len() && close.is_none() {
                match run(j) {
                    0 => j += 1,
                    n if n == ticks => close = Some(j),
                    n => j += n,
                }
            }
            i = match close {
                Some(j) => {
                    spans.push(para[start..j].to_string());
                    j + ticks
                }
                None => start,
            };
        }
    }
    (spans, fenced)
}

/// The words given to `repro` after `tokens[at]`: up to a flag, a comment
/// or a shell operator, skipping `--` and placeholders (`<id>…`).
fn operands<'a>(tokens: &[&'a str], at: usize) -> Vec<&'a str> {
    tokens[at..]
        .iter()
        .skip_while(|&&t| t == "--")
        .take_while(|t| t.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '<' || c == '…'))
        .filter(|t| !t.contains('<') && !t.contains('…'))
        .copied()
        .collect()
}

/// Every word a doc passes to `repro`: after a `repro` token in a code
/// span, and after `--bin repro --` on a console line.
fn repro_words(doc: &str) -> Vec<String> {
    let (spans, fenced) = code_spans_and_fenced_lines(doc);
    let mut words = Vec::new();
    for span in &spans {
        let tokens: Vec<&str> = span.split_whitespace().collect();
        for (i, _) in tokens.iter().enumerate().filter(|(_, &t)| t == "repro") {
            words.extend(operands(&tokens, i + 1).into_iter().map(String::from));
        }
    }
    for line in fenced {
        if let Some((_, after)) = line.split_once("--bin repro --") {
            let tokens: Vec<&str> = after.split_whitespace().collect();
            words.extend(operands(&tokens, 0).into_iter().map(String::from));
        }
    }
    words
}

/// A doc may cite only a record that runs, and EXPERIMENTS.md names
/// every record. The sub-commands are read from `repro`'s own usage.
#[test]
fn docs_cite_only_records_that_run() {
    let (_, _, usage) = repro(&[]);
    let mut subs = Vec::new();
    for line in usage.lines().filter(|l| l.starts_with("  repro ")) {
        let synopsis = line.trim().split("  ").next().unwrap_or_default();
        let tokens: Vec<&str> = synopsis.split_whitespace().collect();
        subs.extend(operands(&tokens, 1).iter().flat_map(|w| w.split('|')));
    }
    let expected = [
        "list", "all", "scale", "qps", "matrix", "soak", "smoke", "fault", "diff", "chaos",
    ];
    assert_eq!(subs, expected, "{usage}");
    let known: Vec<&str> = FIGURES
        .iter()
        .flat_map(|f| f.ids)
        .copied()
        .chain(subs)
        .collect();
    let docs = [
        ("README.md", include_str!("../../../README.md")),
        ("DESIGN.md", include_str!("../../../DESIGN.md")),
        ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
    ];
    for (name, doc) in docs {
        let words = repro_words(doc);
        assert!(words.len() >= 5, "{name}: only {words:?}");
        for word in words {
            assert!(
                known.contains(&word.as_str()),
                "{name} cites `repro {word}`, which does not run"
            );
        }
    }
    let (spans, _) = code_spans_and_fenced_lines(docs[2].1);
    for id in FIGURES.iter().flat_map(|f| f.ids) {
        assert!(
            spans.iter().any(|s| s.split_whitespace().any(|w| w == *id)),
            "EXPERIMENTS.md never names `{id}`"
        );
    }
}
