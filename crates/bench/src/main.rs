//! `otae-bench <name> | all | --list`: run one experiment of
//! [`otae_bench::experiments::REGISTRY`], or all of them.
//!
//! Exit code 2 means the argument named no experiment; the message lists
//! the names that do.

use otae_bench::experiments::{find, run_all, REGISTRY};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(arg), None) = (args.next(), args.next()) else {
        eprintln!("usage: otae-bench <name> | all | --list");
        return ExitCode::from(2);
    };
    match arg.as_str() {
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
