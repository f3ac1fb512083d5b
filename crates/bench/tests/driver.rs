//! The `otae-bench` driver at its surface: `--list` names every experiment
//! and a name that is not one is a usage error that says which are.

use otae_bench::experiments::REGISTRY;
use std::process::Command;

fn driver(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_otae-bench")).args(args).output().expect("driver runs")
}

#[test]
fn list_prints_every_registered_name() {
    let out = driver(&["--list"]);
    assert!(out.status.success());
    let listed: Vec<&str> = std::str::from_utf8(&out.stdout).expect("utf-8").lines().collect();
    let registered: Vec<&str> = REGISTRY.iter().map(|(n, _)| *n).collect();
    assert_eq!(listed, registered);
}

#[test]
fn an_unknown_name_exits_2_naming_the_valid_ones() {
    for args in [&["fig11_nothing"][..], &[], &["trace_stats", "extra"]] {
        let out = driver(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
    let out = driver(&["fig11_nothing"]);
    let message = String::from_utf8(out.stderr).expect("utf-8");
    assert!(message.contains("fig11_nothing"), "{message}");
    for (name, _) in REGISTRY {
        assert!(message.contains(name), "{name} missing from: {message}");
    }
}
