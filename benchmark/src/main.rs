//! Command line of the benchmark; `run.sh` builds and calls it.
//!
//! ```text
//! otae-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//!                [--out-dir DIR] [--record FILE] [--commit C] [--rustc V]
//! otae-benchmark --list-workloads | --print-spec
//! otae-benchmark compare A.jsonl [B.jsonl]
//! ```
//!
//! A run prints every metric by name and unit on stderr and, as the last
//! line of stdout, the result object. Exit code 0 means every output check
//! held; 1 means the run was incorrect; 2 is a usage error.

use otae_benchmark::compare::{self, RunSet};
use otae_benchmark::host::RunFacts;
use otae_benchmark::{run_workload, spec};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: otae-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] \
                     [--smoke] [--out-dir DIR] [--record FILE] [--commit C] [--rustc V]\n       \
                     otae-benchmark --list-workloads | --print-spec\n       \
                     otae-benchmark compare A.jsonl [B.jsonl]";

struct Args {
    facts: RunFacts,
    out_dir: Option<PathBuf>,
    record: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut facts = RunFacts {
        workload: String::new(),
        seed: 42,
        seconds: f64::from(spec::RUN_SECONDS),
        traced: false,
        smoke: false,
        commit: "unknown".into(),
        rustc: "unknown".into(),
    };
    let (mut out_dir, mut record) = (None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => facts.workload = value()?.clone(),
            "--seed" => {
                facts.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                facts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or("--seconds takes a number from 0 to 600")?;
            }
            "--trace" => {
                facts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--smoke" => facts.smoke = true,
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            "--record" => record = Some(PathBuf::from(value()?)),
            "--commit" => facts.commit = value()?.clone(),
            "--rustc" => facts.rustc = value()?.clone(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if facts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if facts.smoke {
        facts.seconds = 0.0;
    }
    Ok(Args { facts, out_dir, record })
}

fn run(args: &Args) -> Result<bool, String> {
    let facts = &args.facts;
    let outcome = run_workload(facts)?;
    let out = &outcome.output;
    eprintln!(
        "== {} seed={} trace={} {} ({} hw threads, {} needed) ==",
        facts.workload,
        facts.seed,
        u8::from(facts.traced),
        if facts.smoke { "SMOKE" } else { "full" },
        otae_benchmark::host::hw_threads(),
        outcome.threads_needed,
    );
    eprint!("{}", out.table());
    eprintln!("  attempted {}  failed {}", out.attempted, out.failed);
    for note in &out.notes {
        eprintln!("  NOTE: {note}");
    }
    for failure in &out.failures {
        eprintln!("  CHECK FAILED: {failure}");
    }

    let record = out.record(facts, outcome.threads_needed);
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let prefix = if facts.smoke { "smoke-" } else { "" };
        let write = |name: String, body: String| {
            let path = dir.join(name);
            std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
        };
        match &outcome.tracer {
            Some(tracer) => {
                let mut header = facts.to_members(outcome.threads_needed);
                header.push((
                    "metrics".into(),
                    record.get("metrics").cloned().unwrap_or(otae_benchmark::json::Json::Null),
                ));
                let body = tracer.to_json(&facts.workload, header).render_pretty();
                write(format!("{prefix}trace-{}.json", facts.workload), body)?;
            }
            None => {
                write(format!("{prefix}result-{}.json", facts.workload), record.render_pretty())?
            }
        }
    }
    if let Some(path) = &args.record {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", record.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", out.result_line());
    Ok(out.correct())
}

fn compare_sets(paths: &[String]) -> Result<bool, String> {
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        RunSet::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = match paths {
        [a] => (load(a)?, None),
        [a, b] => (load(a)?, Some(load(b)?)),
        _ => return Err("compare takes one or two record files".into()),
    };
    let (table, bad) = compare::report(&a, b.as_ref());
    print!("{table}");
    Ok(!bad)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("--list-workloads") => {
            for w in &spec::WORKLOADS {
                println!("{}", w.name);
            }
            return ExitCode::SUCCESS;
        }
        Some("--print-spec") => {
            print!("{}", spec::benchmark_json().render_pretty());
            return ExitCode::SUCCESS;
        }
        Some("compare") => compare_sets(&argv[1..]),
        Some(_) => parse_args(&argv).and_then(|args| run(&args)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
