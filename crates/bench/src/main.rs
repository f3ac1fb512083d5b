//! `otae-bench <name> | all | --list`: run one experiment of
//! [`otae_bench::experiments::REGISTRY`], or all of them.
//! `otae-bench diff <fresh> <committed>` compares two results directories
//! ([`otae_bench::common::results_diff`]).
//!
//! Exit code 2 means the arguments named no experiment; the message lists
//! the names that do. `diff` exits 1 when a CSV differs.

use otae_bench::common::results_diff;
use otae_bench::experiments::{find, run_all, REGISTRY};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: otae-bench <name> | all | --list | diff <fresh> <committed>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = match args.as_slice() {
        [arg] => arg.as_str(),
        [cmd, fresh, committed] if cmd == "diff" => {
            return match results_diff(Path::new(fresh), Path::new(committed)) {
                Ok(diff) if diff.is_empty() => ExitCode::SUCCESS,
                Ok(diff) => {
                    diff.iter().for_each(|line| eprintln!("{line}"));
                    eprintln!("otae-bench diff: {} differences from {committed}", diff.len());
                    ExitCode::from(1)
                }
                Err(e) => {
                    eprintln!("otae-bench diff: {e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match arg {
        "--list" => REGISTRY.iter().for_each(|(name, _)| println!("{name}")),
        "all" => run_all(),
        name => match find(name) {
            Some(run) => run(),
            None => {
                let names: Vec<&str> = REGISTRY.iter().map(|(n, _)| *n).collect();
                eprintln!(
                    "otae-bench: unknown experiment {name:?}; valid names: all, {}",
                    names.join(", ")
                );
                return ExitCode::from(2);
            }
        },
    }
    ExitCode::SUCCESS
}
