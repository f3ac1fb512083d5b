//! Compiler-testsuite-style fixture corpus.
//!
//! Every `lint_fixtures/*.rs` file is linted as the virtual workspace path
//! named by its first-line `// otae-lint-fixture-path:` directive, and the
//! diagnostics must match the `//~ ERROR <rule>` markers exactly (line +
//! rule).

use otae_lint::lint_source;
use std::fs;
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("lint_fixtures")
}

fn virtual_path(src: &str) -> String {
    src.lines()
        .next()
        .and_then(|l| l.strip_prefix("// otae-lint-fixture-path:"))
        .map(|p| p.trim().to_string())
        .unwrap_or_else(|| "crates/fixture/src/lib.rs".to_string())
}

/// Parse `//~ ERROR <rule>` markers into (line, rule).
fn expected_markers(name: &str, src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        for part in line.split("//~").skip(1) {
            let part = part.trim_start();
            let rest = part
                .strip_prefix("ERROR")
                .unwrap_or_else(|| panic!("{name}: marker must be `//~ ERROR`"));
            let rule = rest
                .split_whitespace()
                .next()
                .unwrap_or_else(|| panic!("{name}: marker missing a rule name"))
                .to_string();
            out.push((idx as u32 + 1, rule));
        }
    }
    out.sort();
    out
}

fn fixture_sources() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in fs::read_dir(fixture_dir()).expect("fixture dir exists") {
        let path = entry.expect("dir entry").path();
        if path.is_file() && path.extension().is_some_and(|e| e == "rs") {
            let name = path.file_name().expect("file name").to_string_lossy().into_owned();
            out.push((name, fs::read_to_string(&path).expect("fixture readable")));
        }
    }
    out.sort();
    out
}

#[test]
fn fixtures_match_their_markers_exactly() {
    let fixtures = fixture_sources();
    assert!(fixtures.len() >= 12, "fixture corpus shrank: {} files", fixtures.len());
    let mut bad = 0;
    let mut good = 0;
    for (name, src) in &fixtures {
        let vpath = virtual_path(src);
        let mut got: Vec<(u32, String)> = lint_source(&vpath, src)
            .into_iter()
            .map(|d| (d.line, d.rule.name().to_string()))
            .collect();
        got.sort();
        let want = expected_markers(name, src);
        assert_eq!(got, want, "{name} (linted as {vpath}): diagnostics != markers");
        if name.starts_with("bad_") {
            assert!(!want.is_empty(), "{name}: bad_ fixtures must carry markers");
            bad += 1;
        }
        if name.starts_with("good_") {
            assert!(want.is_empty(), "{name}: good_ fixtures must be marker-free");
            good += 1;
        }
    }
    assert!(bad >= 6 && good >= 5, "corpus balance: {bad} bad, {good} good");
}

#[test]
fn every_enforced_rule_has_a_firing_fixture() {
    let mut fired: Vec<String> = Vec::new();
    for (name, src) in fixture_sources() {
        for (_, rule) in expected_markers(&name, &src) {
            fired.push(rule);
        }
    }
    for rule in otae_lint::ENFORCED {
        assert!(fired.iter().any(|r| r == rule.name()), "no fixture exercises {}", rule.name());
    }
}

#[test]
fn bad_fixtures_report_accurate_columns() {
    // Spot-check that positions point at real tokens, not line starts.
    let src = fs::read_to_string(fixture_dir().join("bad_wall_clock.rs")).expect("fixture");
    let diags = lint_source(&virtual_path(&src), &src);
    for d in &diags {
        let line = src.lines().nth(d.line as usize - 1).expect("diag line in range");
        assert!(
            d.col > 1 && (d.col as usize) <= line.len(),
            "column {} out of range for line {:?}",
            d.col,
            line
        );
    }
}

#[test]
fn cli_exit_codes_track_fixture_kind() {
    let exe = env!("CARGO_BIN_EXE_otae-lint");
    let dir = fixture_dir();
    for (name, _) in fixture_sources() {
        let status = std::process::Command::new(exe)
            .arg("--root")
            .arg(&dir)
            .arg(dir.join(&name))
            .stdout(std::process::Stdio::null())
            .status()
            .expect("run otae-lint");
        let code = status.code().expect("exit code");
        if name.starts_with("bad_") {
            assert_eq!(code, 1, "{name}: bad_ fixture must fail the lint");
        } else {
            assert_eq!(code, 0, "{name}: good_ fixture must exit clean");
        }
    }
}
