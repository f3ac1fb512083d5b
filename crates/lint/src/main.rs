//! CLI for otae-lint.
//!
//! ```text
//! cargo run -p otae-lint                 # lint the whole workspace
//! cargo run -p otae-lint -- --list-rules
//! cargo run -p otae-lint -- path/a.rs   # lint specific files only
//! ```
//!
//! Prints the diagnostics, then the lock acquisition graph, then a summary.
//! Exit code 0 when no rule fired; 1 otherwise; 2 on usage or I/O errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use otae_lint::{lint_workspace, walk, SourceFile, ENFORCED};

struct Cli {
    list_rules: bool,
    root: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli { list_rules: false, root: None, paths: Vec::new() };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list-rules" => cli.list_rules = true,
            "--root" => {
                let v = args.next().ok_or("--root requires a directory argument")?;
                cli.root = Some(PathBuf::from(v));
            }
            "-h" | "--help" => {
                println!(
                    "otae-lint: workspace static analysis\n\n\
                     usage: otae-lint [--list-rules] [--root DIR] [FILES…]\n\n\
                     With no FILES, lints every first-party .rs file in the workspace.\n\
                     --list-rules  print the rule catalogue with scopes and allowlists\n\
                     --root DIR    the workspace root FILES are relative to"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}` (try --help)"));
            }
            file => cli.paths.push(PathBuf::from(file)),
        }
    }
    Ok(cli)
}

fn list_rules() {
    for rule in ENFORCED {
        println!("{}", rule.name());
        println!("  invariant: {}", rule.invariant());
        let applies = rule.applies_to();
        if applies.is_empty() {
            println!("  scope: entire workspace");
        } else {
            println!("  scope: {}", applies.join(", "));
        }
        if rule.checks_tests() {
            println!("  also enforced in test code");
        }
        for (path, why) in rule.allowlist() {
            println!("  allow {path}: {why}");
        }
    }
}

/// Load one file for linting under its workspace-relative rule path.
fn load_file(root: &Path, rel: &Path) -> Result<SourceFile, String> {
    let abs = root.join(rel);
    let src = std::fs::read_to_string(&abs)
        .map_err(|e| format!("{}: cannot read: {e}", abs.display()))?;
    // Fixtures (and only fixtures) carry a first-line directive naming the
    // virtual workspace path they should be linted as, so path-scoped rules
    // are exercisable from files living elsewhere.
    let path = src
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("// otae-lint-fixture-path:"))
        .map(|p| p.trim().to_string())
        .unwrap_or_else(|| walk::rule_path(rel));
    Ok(SourceFile { path, src })
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("otae-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.list_rules {
        list_rules();
        return ExitCode::SUCCESS;
    }

    let root = walk::workspace_root(cli.root.as_deref());
    let files: Vec<PathBuf> = if cli.paths.is_empty() {
        walk::collect(&root)
    } else {
        // Explicit files may be given relative to the CWD or the root.
        cli.paths
            .iter()
            .map(|p| match p.strip_prefix(&root) {
                Ok(rel) => rel.to_path_buf(),
                Err(_) => p.clone(),
            })
            .collect()
    };

    let mut sources: Vec<SourceFile> = Vec::new();
    let mut io_error = false;
    for rel in &files {
        match load_file(&root, rel) {
            Ok(sf) => sources.push(sf),
            Err(e) => {
                eprintln!("otae-lint: {e}");
                io_error = true;
            }
        }
    }
    let report = lint_workspace(&sources);
    for d in &report.diags {
        println!("{}\n", d.render());
    }
    print!("{}", report.lock_graph);
    let errors = report.diags.len();
    println!(
        "otae-lint: {} file{} checked, {errors} error{}",
        files.len(),
        if files.len() == 1 { "" } else { "s" },
        if errors == 1 { "" } else { "s" },
    );
    if io_error {
        ExitCode::from(2)
    } else if errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
