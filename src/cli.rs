//! Command-line interface logic for the `otae` binary.
//!
//! Subcommands:
//!
//! * `generate` — produce a calibrated synthetic trace (binary codec);
//! * `stats` — characterise a trace (§2.2 numbers, Figure-3 type shares);
//! * `sample` — the paper's 1:100 object sampling (§5.1);
//! * `simulate` — run a policy × admission-mode simulation on a trace;
//! * `serve-bench` — replay a trace through the sharded concurrent service
//!   (`otae-serve`) and report throughput and tail latency;
//! * `convert` — export the binary trace as line-per-request text.
//!
//! Parsing is hand-rolled (no CLI crate on the offline allowlist) and lives
//! here, separated from `main.rs`, so it is unit-testable.

use otae_core::{run, Mode, PolicyKind, RunConfig};
use otae_serve::{serve_trace, LoadConfig, ServeConfig, StoreMode, TrainerMode};
use otae_trace::codec::{read_binary, read_text, write_binary, write_text};
use otae_trace::diurnal::DAY;
use otae_trace::{generate, sample_objects, Trace, TraceConfig, TS_LIMIT};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter};

/// CLI failure with a user-facing message.
#[derive(Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
pub const USAGE: &str = "\
otae — one-time-access-exclusion SSD cache simulator (ICPP 2018 reproduction)

USAGE:
  otae generate --out <trace.bin> [--objects N] [--seed S] [--days D] [--text <trace.txt>]
  otae stats <trace.bin>
  otae sample <trace.bin> --out <sampled.bin> [--rate R] [--seed S]
  otae simulate <trace.bin> [--eviction lru|fifo|lfu|s3lru|arc|lirs|2q|gdsf|belady]
                            [--mode original|proposal|ideal|second-hit|
                                    tinylfu|rejectx|coinflip[:P]]
                            [--policy ...] (either an eviction or an admission name)
                            [--capacity-frac F | --capacity-mb MB]
  otae serve-bench <trace.bin> [--shards N] [--workers K] [--clients M]
                               [--qps Q] [--duration-s S]
                               [--eviction ...] [--mode ...] [--policy ...]
                               [--trainer inline|background]
                               [--store none|memory|disk[:DIR]]
                               [--store-group-records N] [--store-group-bytes B]
                               [--capacity-frac F | --capacity-mb MB]
  otae convert <trace.bin> --out <trace.txt>
  otae import <trace.txt> --out <trace.bin>

Defaults: objects=50000, seed=42, days=9, rate=0.01, eviction=lru,
mode=proposal, capacity-frac=0.02 (fraction of unique bytes),
shards=4, workers=4, clients=2, qps=0 (unthrottled), trainer=background,
(each worker owns whole shards, so at most one worker per shard runs; the
topology line reports the number that did), store=none (memory = deterministic in-RAM segment store; disk:DIR =
real segment files under DIR, default ./otae-store-data).
store-group-records/store-group-bytes bound the store's group-commit
batches (records and bytes per coalesced write; defaults 128 / 256 KiB —
1 record disables batching and reproduces the per-record write path).
--policy takes either kind of name: an eviction policy (back-compat) or an
admission policy from the zoo (original|proposal|ideal|second-hit|tinylfu|
rejectx|coinflip[:P], where P is the coin's admit probability, default 0.5).";

/// Simple `--key value` argument map with positional support.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| err(format!("--{key} requires a value")))?;
                flags.push((key.to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Self { positional, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| err(format!("invalid value for --{key}: {v}"))),
        }
    }

    fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key).ok_or_else(|| err(format!("missing required --{key}")))
    }
}

fn load_trace(path: &str) -> Result<Trace, CliError> {
    let file = File::open(path).map_err(|e| err(format!("cannot open {path}: {e}")))?;
    read_binary(BufReader::new(file)).map_err(|e| err(format!("cannot parse {path}: {e}")))
}

fn save_trace(trace: &Trace, path: &str) -> Result<(), CliError> {
    let file = File::create(path).map_err(|e| err(format!("cannot create {path}: {e}")))?;
    write_binary(trace, BufWriter::new(file)).map_err(|e| err(format!("cannot write {path}: {e}")))
}

fn parse_policy(s: &str) -> Result<PolicyKind, CliError> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "lru" => PolicyKind::Lru,
        "fifo" => PolicyKind::Fifo,
        "lfu" => PolicyKind::Lfu,
        "s3lru" => PolicyKind::S3Lru,
        "arc" => PolicyKind::Arc,
        "lirs" => PolicyKind::Lirs,
        "2q" | "twoq" => PolicyKind::TwoQ,
        "gdsf" => PolicyKind::Gdsf,
        "belady" => PolicyKind::Belady,
        other => return Err(err(format!("unknown policy: {other}"))),
    })
}

fn parse_store(s: &str) -> Result<StoreMode, CliError> {
    let lower = s.to_ascii_lowercase();
    Ok(match lower.as_str() {
        "none" => StoreMode::None,
        "memory" => StoreMode::Memory,
        "disk" => StoreMode::Disk("otae-store-data".into()),
        _ => match s.split_once(':') {
            Some((kind, dir)) if kind.eq_ignore_ascii_case("disk") && !dir.is_empty() => {
                StoreMode::Disk(dir.into())
            }
            _ => return Err(err(format!("unknown store: {s} (none|memory|disk[:DIR])"))),
        },
    })
}

/// Parse an admission-policy name: a [`Mode`], plus the coin's admit
/// probability when spelled `coinflip:P`.
fn parse_mode(s: &str) -> Result<(Mode, Option<f32>), CliError> {
    let lower = s.to_ascii_lowercase();
    let mode = match lower.as_str() {
        "original" => Mode::Original,
        "proposal" => Mode::Proposal,
        "ideal" => Mode::Ideal,
        "second-hit" | "secondhit" => Mode::SecondHit,
        "tinylfu" | "tiny-lfu" => Mode::TinyLfu,
        "rejectx" | "reject-x" => Mode::RejectX,
        "coinflip" | "coin-flip" => Mode::CoinFlip,
        _ => match lower.split_once(':') {
            Some(("coinflip" | "coin-flip", p)) => {
                let p: f32 =
                    p.parse().map_err(|_| err(format!("invalid coinflip probability: {p}")))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(err("coinflip probability must be in [0,1]"));
                }
                return Ok((Mode::CoinFlip, Some(p)));
            }
            _ => return Err(err(format!("unknown mode: {s}"))),
        },
    };
    Ok((mode, None))
}

/// Resolve the eviction policy and admission mode shared by `simulate` and
/// `serve-bench`.
///
/// `--eviction` names the replacement policy and `--mode` the admission
/// policy; `--policy` accepts either vocabulary — it predates the admission
/// zoo, when "policy" could only mean eviction — and routes the name to
/// whichever side recognises it. Returns `(eviction, mode, coin_p)`.
fn parse_policies(args: &Args) -> Result<(PolicyKind, Mode, f32), CliError> {
    let mut eviction = parse_policy(args.get("eviction").unwrap_or("lru"))?;
    let mut mode = Mode::Proposal;
    let mut coin_p = 0.5f32;
    if let Some(m) = args.get("mode") {
        let (parsed, p) = parse_mode(m)?;
        mode = parsed;
        coin_p = p.unwrap_or(coin_p);
    }
    if let Some(name) = args.get("policy") {
        if let Ok(kind) = parse_policy(name) {
            eviction = kind;
        } else {
            let (parsed, p) = parse_mode(name).map_err(|_| {
                err(format!(
                    "unknown policy: {name} (eviction: lru|fifo|lfu|s3lru|arc|lirs|2q|gdsf|\
                     belady; admission: original|proposal|ideal|second-hit|tinylfu|rejectx|\
                     coinflip[:P])"
                ))
            })?;
            mode = parsed;
            coin_p = p.unwrap_or(coin_p);
        }
    }
    Ok((eviction, mode, coin_p))
}

/// Execute a CLI invocation (without the program name). Returns the text to
/// print on success.
pub fn execute(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Err(err(USAGE));
    };
    let rest = Args::parse(&args[1..])?;
    match command.as_str() {
        "generate" => cmd_generate(&rest),
        "stats" => cmd_stats(&rest),
        "sample" => cmd_sample(&rest),
        "simulate" => cmd_simulate(&rest),
        "serve-bench" => cmd_serve_bench(&rest),
        "convert" => cmd_convert(&rest),
        "import" => cmd_import(&rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(err(format!("unknown command: {other}\n\n{USAGE}"))),
    }
}

fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let out = args.require("out")?;
    let cfg = TraceConfig {
        n_objects: args.get_parsed("objects", 50_000usize)?,
        seed: args.get_parsed("seed", 42u64)?,
        days: args.get_parsed("days", 9u32)?,
        ..Default::default()
    };
    if cfg.window() > TS_LIMIT {
        return Err(err(format!(
            "--days {}: the window may not exceed {} days",
            cfg.days,
            TS_LIMIT / DAY
        )));
    }
    let trace = generate(&cfg);
    save_trace(&trace, out)?;
    if let Some(text_path) = args.get("text") {
        let file =
            File::create(text_path).map_err(|e| err(format!("cannot create {text_path}: {e}")))?;
        write_text(&trace, BufWriter::new(file))
            .map_err(|e| err(format!("cannot write {text_path}: {e}")))?;
    }
    Ok(format!(
        "generated {} requests over {} objects ({} days, seed {}) -> {out}",
        trace.len(),
        trace.meta.len(),
        cfg.days,
        cfg.seed
    ))
}

fn cmd_stats(args: &Args) -> Result<String, CliError> {
    let path = args.positional.first().ok_or_else(|| err("stats needs a trace path"))?;
    let trace = load_trace(path)?;
    let s = trace.characterize();
    let mut out = String::new();
    let _ = writeln!(out, "requests              {}", s.accesses);
    let _ = writeln!(out, "distinct objects      {}", s.objects);
    let _ = writeln!(out, "one-time objects      {:.1}%", s.one_time_object_fraction * 100.0);
    let _ = writeln!(out, "max hit rate          {:.1}%", s.max_hit_rate * 100.0);
    let _ = writeln!(out, "mean accesses/object  {:.2}", s.mean_accesses_per_object);
    let _ = writeln!(out, "mean object size      {:.1} KB", s.mean_object_size / 1024.0);
    let _ = writeln!(out, "dominant type         {}", s.dominant_type().label());
    let _ = writeln!(out, "type shares:");
    for (label, share) in s.type_share_rows() {
        let _ = writeln!(out, "  {label}  {:.1}%", share * 100.0);
    }
    Ok(out)
}

fn cmd_sample(args: &Args) -> Result<String, CliError> {
    let path = args.positional.first().ok_or_else(|| err("sample needs a trace path"))?;
    let out = args.require("out")?;
    let rate: f64 = args.get_parsed("rate", 0.01)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(err("--rate must be in [0,1]"));
    }
    let seed: u64 = args.get_parsed("seed", 42)?;
    let trace = load_trace(path)?;
    let sampled = sample_objects(&trace, rate, seed);
    let n = sampled.requests.len();
    save_trace(&sampled, out)?;
    Ok(format!("sampled {}/{} requests at rate {rate} -> {out}", n, trace.len()))
}

/// Resolve `--capacity-mb` / `--capacity-frac` against a trace (shared by
/// `simulate` and `serve-bench`).
fn parse_capacity(args: &Args, trace: &Trace) -> Result<u64, CliError> {
    let capacity = if let Some(mb) = args.get("capacity-mb") {
        let mb: f64 =
            mb.parse().map_err(|_| err(format!("invalid value for --capacity-mb: {mb}")))?;
        (mb * 1e6) as u64
    } else {
        let frac: f64 = args.get_parsed("capacity-frac", 0.02)?;
        (trace.unique_bytes() as f64 * frac) as u64
    };
    if capacity == 0 {
        return Err(err("capacity must be positive"));
    }
    Ok(capacity)
}

fn cmd_simulate(args: &Args) -> Result<String, CliError> {
    let path = args.positional.first().ok_or_else(|| err("simulate needs a trace path"))?;
    let trace = load_trace(path)?;
    if trace.is_empty() {
        return Err(err("trace has no requests"));
    }
    let (policy, mode, coin_p) = parse_policies(args)?;
    let capacity = parse_capacity(args, &trace)?;
    let mut run_cfg = RunConfig::new(policy, mode, capacity);
    run_cfg.coin_p = coin_p;
    let result = run(&trace, &run_cfg);
    let mut out = String::new();
    let _ = writeln!(out, "policy            {}", policy.name());
    let _ = writeln!(out, "admission         {}", mode.name());
    let _ = writeln!(out, "capacity          {:.1} MB", capacity as f64 / 1e6);
    let _ = writeln!(out, "one-time M        {}", result.criteria.m);
    let _ = writeln!(out, "file hit rate     {:.4}", result.stats.file_hit_rate());
    let _ = writeln!(out, "byte hit rate     {:.4}", result.stats.byte_hit_rate());
    let _ = writeln!(out, "file write rate   {:.4}", result.stats.file_write_rate());
    let _ = writeln!(out, "byte write rate   {:.4}", result.stats.byte_write_rate());
    let _ = writeln!(out, "ssd bytes written {}", result.stats.bytes_written);
    let _ = writeln!(out, "mean latency      {:.1} us", result.mean_latency_us);
    if let Some(report) = &result.classifier {
        let _ = writeln!(
            out,
            "classifier        precision {:.3}, recall {:.3}, accuracy {:.3} ({} trainings)",
            report.overall.precision(),
            report.overall.recall(),
            report.overall.accuracy(),
            report.trainings
        );
    }
    Ok(out)
}

fn cmd_serve_bench(args: &Args) -> Result<String, CliError> {
    let path = args.positional.first().ok_or_else(|| err("serve-bench needs a trace path"))?;
    let trace = load_trace(path)?;
    if trace.is_empty() {
        return Err(err("trace has no requests"));
    }
    let (policy, mode, coin_p) = parse_policies(args)?;
    let capacity = parse_capacity(args, &trace)?;

    let shards: usize = args.get_parsed("shards", 4)?;
    if shards == 0 {
        return Err(err("--shards must be at least 1"));
    }
    let workers: usize = args.get_parsed("workers", 4)?;
    if workers == 0 {
        return Err(err("--workers must be at least 1"));
    }
    let clients: usize = args.get_parsed("clients", 2)?;
    if clients == 0 {
        return Err(err("--clients must be at least 1"));
    }
    let qps: f64 = args.get_parsed("qps", 0.0)?;
    if !qps.is_finite() || qps < 0.0 {
        return Err(err("--qps must be a non-negative number (0 = unthrottled)"));
    }
    let duration = match args.get("duration-s") {
        None => None,
        Some(v) => {
            let secs: f64 =
                v.parse().map_err(|_| err(format!("invalid value for --duration-s: {v}")))?;
            if !secs.is_finite() || secs <= 0.0 {
                return Err(err("--duration-s must be a positive number of seconds"));
            }
            Some(std::time::Duration::from_secs_f64(secs))
        }
    };
    let trainer = match args.get("trainer").unwrap_or("background").to_ascii_lowercase().as_str() {
        "inline" => TrainerMode::Inline,
        "background" => TrainerMode::Background,
        other => return Err(err(format!("unknown trainer: {other} (inline|background)"))),
    };

    let store = parse_store(args.get("store").unwrap_or("none"))?;

    let mut cfg = ServeConfig::new(policy, mode, capacity);
    cfg.shards = shards;
    cfg.workers = workers;
    cfg.trainer = trainer;
    cfg.store = store;
    cfg.store_config.group_records =
        args.get_parsed("store-group-records", cfg.store_config.group_records)?;
    cfg.store_config.group_bytes =
        args.get_parsed("store-group-bytes", cfg.store_config.group_bytes)?;
    if cfg.store_config.group_records == 0 || cfg.store_config.group_bytes == 0 {
        return Err(err("--store-group-records and --store-group-bytes must be at least 1"));
    }
    cfg.coin_p = coin_p;
    let load = LoadConfig { clients, target_qps: qps, duration };
    let r = serve_trace(&trace, &cfg, &load);

    let s = &r.snapshot.stats;
    let mut out = String::new();
    // The workers that ran: a worker owns a run of shards, so `--workers`
    // above `--shards` spawns no more than one per shard.
    let _ = writeln!(
        out,
        "topology          {shards} shards x {} workers, {clients} clients",
        r.workers
    );
    let _ = writeln!(out, "policy            {}", policy.name());
    let _ = writeln!(out, "admission         {}", mode.name());
    let _ = writeln!(out, "capacity          {:.1} MB", capacity as f64 / 1e6);
    let _ = writeln!(out, "one-time M        {}", r.criteria.m);
    let _ =
        writeln!(out, "replayed          {} requests in {:.3} s", r.replayed, r.wall.as_secs_f64());
    let _ = writeln!(out, "throughput        {:.0} req/s", r.throughput_rps);
    let _ = writeln!(out, "file hit rate     {:.4}", s.file_hit_rate());
    let _ = writeln!(out, "byte hit rate     {:.4}", s.byte_hit_rate());
    let _ = writeln!(out, "file write rate   {:.4}", s.file_write_rate());
    let _ = writeln!(out, "byte write rate   {:.4}", s.byte_write_rate());
    let _ = writeln!(out, "latency p50       {:.1} us", r.latency_p50_us);
    let _ = writeln!(out, "latency p99       {:.1} us", r.latency_p99_us);
    let _ = writeln!(out, "latency p999      {:.1} us", r.latency_p999_us);
    let _ = writeln!(out, "model swaps       {}", r.model_swaps);
    let _ = writeln!(out, "trainings         {}", r.trainings);
    // What the prepare pass held for the replay: request records, feature
    // rows (Proposal) and model schedule entries.
    let _ = writeln!(out, "prepared bytes    {}", r.prepared_bytes);
    // Background trainer only: how long its fits ran on after the last
    // request was served.
    let _ = writeln!(out, "retrain tail      {:.3} s", r.retrain_tail.as_secs_f64());
    // Requests accepted under the old model while a fit ran (background
    // trainer only): how far installs lagged the replay, largest and summed.
    let _ = writeln!(
        out,
        "install backlog   max {} / total {} requests",
        r.install_backlog_max, r.install_backlog_total
    );
    // The client -> worker handoff, over every worker's queue: how often a
    // side slept, how many requests a worker stole per lock, how full a
    // queue got.
    let h = r.handoff;
    let per_1k = |parks: u64| parks as f64 * 1000.0 / h.pushes.max(1) as f64;
    let _ = writeln!(out, "client parks      {:.2} per 1k requests", per_1k(h.producer_parks));
    let _ = writeln!(out, "worker parks      {:.2} per 1k requests", per_1k(h.consumer_parks));
    let _ = writeln!(
        out,
        "mean batch        {:.1} requests",
        h.pushes as f64 / h.batches.max(1) as f64
    );
    let _ = writeln!(out, "queue high water  {}", h.high_water);
    if let Some(store) = r.snapshot.store.as_ref() {
        let _ = writeln!(out, "store puts        {}", store.stats.acked_puts);
        let _ = writeln!(out, "store host bytes  {}", store.stats.host_bytes);
        let _ = writeln!(out, "store gc bytes    {}", store.stats.gc_bytes);
        let _ = writeln!(out, "store gc read bytes {}", store.stats.gc_read_bytes);
        let _ = writeln!(out, "store compactions {}", store.stats.compactions);
        let _ = writeln!(out, "store measured WA {:.4}", store.write_amplification());
        let _ = writeln!(out, "store errors      {}", store.errors);
    }
    // The shard stores' caller -> writer intakes, merged: how often a
    // caller waited on a full intake and a writer on an empty one, and how
    // many commands a writer took per lock.
    if let Some(si) = r.store_intake {
        let per_1k = |parks: u64| parks as f64 * 1000.0 / si.pushes.max(1) as f64;
        let _ =
            writeln!(out, "store caller parks {:.2} per 1k commands", per_1k(si.producer_parks));
        let _ =
            writeln!(out, "store writer parks {:.2} per 1k commands", per_1k(si.consumer_parks));
        let mean = si.pushes as f64 / si.batches.max(1) as f64;
        let _ = writeln!(out, "store mean batch  {mean:.1} commands");
        let _ = writeln!(out, "store intake high water {}", si.high_water);
    }
    let _ = writeln!(out, "per-shard (accesses / hit rate / write rate):");
    for (i, ps) in r.snapshot.per_shard.iter().enumerate() {
        let _ = writeln!(
            out,
            "  shard {i:>2}  {:>9}  {:.4}  {:.4}",
            ps.accesses,
            ps.file_hit_rate(),
            ps.file_write_rate()
        );
    }
    Ok(out)
}

fn cmd_import(args: &Args) -> Result<String, CliError> {
    let path = args.positional.first().ok_or_else(|| err("import needs a text trace path"))?;
    let out = args.require("out")?;
    let file = File::open(path).map_err(|e| err(format!("cannot open {path}: {e}")))?;
    let trace =
        read_text(BufReader::new(file)).map_err(|e| err(format!("cannot parse {path}: {e}")))?;
    save_trace(&trace, out)?;
    Ok(format!("imported {} requests over {} objects -> {out}", trace.len(), trace.meta.len()))
}

fn cmd_convert(args: &Args) -> Result<String, CliError> {
    let path = args.positional.first().ok_or_else(|| err("convert needs a trace path"))?;
    let out = args.require("out")?;
    let trace = load_trace(path)?;
    let file = File::create(out).map_err(|e| err(format!("cannot create {out}: {e}")))?;
    write_text(&trace, BufWriter::new(file))
        .map_err(|e| err(format!("cannot write {out}: {e}")))?;
    Ok(format!("wrote {} text lines -> {out}", trace.len()))
}

/// Helper for tests: a unique temp path.
#[cfg(test)]
fn temp_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("otae-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{}", std::process::id())).to_string_lossy().into_owned()
}

#[cfg(test)]
pub(crate) fn exists(path: &str) -> bool {
    std::path::Path::new(path).exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(args: &[&str]) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        execute(&owned)
    }

    #[test]
    fn no_args_prints_usage() {
        let e = run_cli(&[]).unwrap_err();
        assert!(e.0.contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let e = run_cli(&["frobnicate"]).unwrap_err();
        assert!(e.0.contains("unknown command"));
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_cli(&["help"]).unwrap().contains("USAGE"));
    }

    #[test]
    fn generate_stats_sample_simulate_round_trip() {
        let bin = temp_path("trace.bin");
        let out = run_cli(&["generate", "--out", &bin, "--objects", "2000", "--seed", "7"])
            .expect("generate");
        assert!(out.contains("2000 objects") || out.contains("objects"));
        assert!(exists(&bin));

        let stats = run_cli(&["stats", &bin]).expect("stats");
        assert!(stats.contains("one-time objects"));
        assert!(stats.contains("l5"));

        let sampled = temp_path("sampled.bin");
        let s = run_cli(&["sample", &bin, "--out", &sampled, "--rate", "0.5"]).expect("sample");
        assert!(s.contains("sampled"));
        assert!(exists(&sampled));

        let sim = run_cli(&[
            "simulate",
            &bin,
            "--policy",
            "lru",
            "--mode",
            "ideal",
            "--capacity-frac",
            "0.02",
        ])
        .expect("simulate");
        assert!(sim.contains("file hit rate"));
        assert!(sim.contains("one-time M"));

        let text = temp_path("trace.txt");
        let c = run_cli(&["convert", &bin, "--out", &text]).expect("convert");
        assert!(c.contains("text lines"));
        assert!(exists(&text));
    }

    #[test]
    fn import_round_trips_through_text() {
        let bin = temp_path("imp.bin");
        run_cli(&["generate", "--out", &bin, "--objects", "800"]).expect("generate");
        let text = temp_path("imp.txt");
        run_cli(&["convert", &bin, "--out", &text]).expect("convert");
        let back = temp_path("imp2.bin");
        let msg = run_cli(&["import", &text, "--out", &back]).expect("import");
        assert!(msg.contains("imported"));
        // Imported trace simulates fine.
        let sim = run_cli(&["simulate", &back, "--mode", "ideal"]).expect("simulate");
        assert!(sim.contains("file hit rate"));
    }

    #[test]
    fn timestamps_past_the_limit_are_refused_at_the_boundary() {
        let text = temp_path("far.txt");
        let bin = temp_path("far.bin");
        std::fs::write(&text, "0 0 0 l5 1000 0 1\n1000000000000000000 1 0 l5 1000 0 1\n")
            .expect("write text trace");
        let e = run_cli(&["import", &text, "--out", &bin]).unwrap_err();
        assert!(e.0.contains("timestamp 1000000000000000000"), "{}", e.0);
        // A trace ending one second inside the bound imports and simulates.
        std::fs::write(&text, format!("0 0 0 l5 1000 0 1\n{} 1 0 l5 1000 0 1\n", TS_LIMIT - 1))
            .expect("write text trace");
        run_cli(&["import", &text, "--out", &bin]).expect("import");
        for mode in ["original", "proposal"] {
            let sim = run_cli(&["simulate", &bin, "--mode", mode]).expect("simulate");
            assert!(sim.contains("file hit rate"), "{sim}");
        }
        let days = (TS_LIMIT / DAY + 1).to_string();
        let e = run_cli(&["generate", "--out", &bin, "--days", &days]).unwrap_err();
        assert!(e.0.contains("--days"), "{}", e.0);
    }

    #[test]
    fn simulate_reports_classifier_in_proposal_mode() {
        let bin = temp_path("trace2.bin");
        run_cli(&["generate", "--out", &bin, "--objects", "3000"]).expect("generate");
        let sim = run_cli(&["simulate", &bin, "--mode", "proposal"]).expect("simulate");
        assert!(sim.contains("classifier"), "proposal mode must report classifier metrics");
    }

    #[test]
    fn invalid_policy_and_mode_are_rejected() {
        let bin = temp_path("trace3.bin");
        run_cli(&["generate", "--out", &bin, "--objects", "500"]).expect("generate");
        assert!(run_cli(&["simulate", &bin, "--policy", "bogus"]).is_err());
        assert!(run_cli(&["simulate", &bin, "--mode", "bogus"]).is_err());
        assert!(run_cli(&["simulate", &bin, "--eviction", "bogus"]).is_err());
        assert!(run_cli(&["sample", &bin, "--out", "/tmp/x", "--rate", "2.0"]).is_err());
    }

    #[test]
    fn policy_flag_accepts_both_vocabularies() {
        let bin = temp_path("zoo.bin");
        run_cli(&["generate", "--out", &bin, "--objects", "1500", "--seed", "5"])
            .expect("generate");
        // Back-compat: --policy with an eviction name still selects eviction.
        let sim = run_cli(&["simulate", &bin, "--policy", "arc", "--mode", "ideal"])
            .expect("eviction via --policy");
        assert!(sim.contains("policy            ARC"), "unexpected:\n{sim}");
        // --policy with an admission name selects the admission mode.
        for (name, label) in [
            ("tinylfu", "TinyLFU"),
            ("rejectx", "RejectX"),
            ("second-hit", "SecondHit"),
            ("coinflip:0.25", "CoinFlip"),
        ] {
            let sim = run_cli(&["simulate", &bin, "--policy", name]).expect(name);
            assert!(sim.contains(label), "--policy {name} should report {label}:\n{sim}");
        }
        // --eviction + admission --policy compose.
        let sim = run_cli(&["simulate", &bin, "--eviction", "s3lru", "--policy", "tinylfu"])
            .expect("eviction + admission");
        assert!(sim.contains("S3LRU"));
        assert!(sim.contains("TinyLFU"));
    }

    #[test]
    fn coinflip_probability_parses_and_validates() {
        assert_eq!(parse_mode("coinflip").unwrap(), (Mode::CoinFlip, None));
        assert_eq!(parse_mode("coinflip:0.3").unwrap(), (Mode::CoinFlip, Some(0.3)));
        assert_eq!(parse_mode("coin-flip:1.0").unwrap(), (Mode::CoinFlip, Some(1.0)));
        assert!(parse_mode("coinflip:1.5").unwrap_err().0.contains("[0,1]"));
        assert!(parse_mode("coinflip:maybe").unwrap_err().0.contains("invalid"));
        assert_eq!(parse_mode("tiny-lfu").unwrap(), (Mode::TinyLfu, None));
        assert_eq!(parse_mode("reject-x").unwrap(), (Mode::RejectX, None));
    }

    #[test]
    fn serve_bench_runs_zoo_policies() {
        let bin = temp_path("serve-zoo.bin");
        run_cli(&["generate", "--out", &bin, "--objects", "1500", "--seed", "13"])
            .expect("generate");
        for name in ["tinylfu", "rejectx", "coinflip:0.5"] {
            let out =
                run_cli(&["serve-bench", &bin, "--shards", "2", "--policy", name]).expect(name);
            assert!(out.contains("throughput"), "--policy {name} failed:\n{out}");
            assert!(out.contains("model swaps       0"), "zoo policies never swap:\n{out}");
        }
    }

    #[test]
    fn missing_files_and_flags_are_reported() {
        assert!(run_cli(&["stats", "/nonexistent/trace.bin"]).is_err());
        assert!(run_cli(&["generate"]).unwrap_err().0.contains("--out"));
        assert!(run_cli(&["generate", "--out"]).unwrap_err().0.contains("requires a value"));
        assert!(run_cli(&["sample"]).is_err());
    }

    #[test]
    fn flag_values_parse_or_fail_loudly() {
        let e = run_cli(&["generate", "--out", "/tmp/x.bin", "--objects", "many"]).unwrap_err();
        assert!(e.0.contains("invalid value"));
    }

    #[test]
    fn usage_documents_serve_bench() {
        assert!(USAGE.contains("serve-bench"));
        for flag in [
            "--shards",
            "--workers",
            "--qps",
            "--duration-s",
            "--store",
            "--store-group-records",
            "--store-group-bytes",
        ] {
            assert!(USAGE.contains(flag), "USAGE must document {flag}");
        }
    }

    #[test]
    fn store_flag_parses_all_forms() {
        assert_eq!(parse_store("none").unwrap(), StoreMode::None);
        assert_eq!(parse_store("memory").unwrap(), StoreMode::Memory);
        assert_eq!(parse_store("MEMORY").unwrap(), StoreMode::Memory);
        assert_eq!(parse_store("disk").unwrap(), StoreMode::Disk("otae-store-data".into()));
        assert_eq!(parse_store("disk:/tmp/segs").unwrap(), StoreMode::Disk("/tmp/segs".into()));
        assert!(parse_store("disk:").is_err());
        assert!(parse_store("cloud").is_err());
    }

    #[test]
    fn serve_bench_with_memory_store_reports_store_lines() {
        let bin = temp_path("serve-store.bin");
        run_cli(&["generate", "--out", &bin, "--objects", "1500", "--seed", "11"])
            .expect("generate");
        let out = run_cli(&[
            "serve-bench",
            &bin,
            "--shards",
            "2",
            "--mode",
            "ideal",
            "--store",
            "memory",
            "--store-group-records",
            "32",
            "--store-group-bytes",
            "65536",
        ])
        .expect("serve-bench with store");
        assert!(out.contains("store puts"), "store lines expected:\n{out}");
        assert!(out.contains("store gc read bytes"));
        assert!(out.contains("store measured WA"));
        assert!(out.contains("store errors      0"));
        // The store intake's counters: parks per 1 k commands on both
        // sides, the mean batch and the high water (default depth 64).
        let value = |prefix: &str| -> f64 {
            out.lines()
                .find_map(|l| l.strip_prefix(prefix)?.split_whitespace().next()?.parse().ok())
                .unwrap_or_else(|| panic!("no {prefix} line:\n{out}"))
        };
        for parks in ["store caller parks", "store writer parks"] {
            assert!(value(parks) >= 0.0);
            let line = out.lines().find(|l| l.starts_with(parks)).expect("parks line");
            assert!(line.ends_with(" per 1k commands"), "{line}");
        }
        assert!(value("store mean batch") >= 1.0, "{out}");
        assert!((1.0..=64.0).contains(&value("store intake high water")), "{out}");
        // Without the flag the store lines must not appear.
        let plain =
            run_cli(&["serve-bench", &bin, "--mode", "ideal"]).expect("storeless serve-bench");
        assert!(!plain.contains("store puts"));
        assert!(!plain.contains("store caller parks") && !plain.contains("store intake"));
        let e = run_cli(&["serve-bench", &bin, "--store", "floppy"]).unwrap_err();
        assert!(e.0.contains("unknown store"));
        let e = run_cli(&["serve-bench", &bin, "--store", "memory", "--store-group-records", "0"])
            .unwrap_err();
        assert!(e.0.contains("at least 1"));
        let e = run_cli(&["serve-bench", &bin, "--store-group-bytes", "lots"]).unwrap_err();
        assert!(e.0.contains("invalid value"));
    }

    #[test]
    fn serve_bench_replays_trace_and_reports() {
        let bin = temp_path("serve.bin");
        run_cli(&["generate", "--out", &bin, "--objects", "2000", "--seed", "9"])
            .expect("generate");
        let out = run_cli(&[
            "serve-bench",
            &bin,
            "--shards",
            "2",
            "--workers",
            "2",
            "--clients",
            "2",
            "--mode",
            "ideal",
        ])
        .expect("serve-bench");
        assert!(out.contains("2 shards x 2 workers"));
        assert!(out.contains("throughput"));
        assert!(out.contains("latency p99"));
        assert!(out.contains("install backlog   max 0 / total 0"), "no retrainer in ideal mode");
        let replayed: u64 = out
            .lines()
            .find_map(|l| l.strip_prefix("replayed")?.split_whitespace().next()?.parse().ok())
            .expect("replayed line");
        // No model in ideal mode: one 24-byte record a request, nothing else.
        assert!(out.contains(&format!("prepared bytes    {}\n", 24 * replayed)), "{out}");
        assert!(out.contains("shard  0"), "per-shard breakdown expected:\n{out}");
        assert!(out.contains("shard  1"));
    }

    /// The handoff lines: client and worker parks per 1 k requests, the
    /// mean batch a worker stole and the highest a queue got.
    #[test]
    fn serve_bench_reports_the_handoff() {
        let bin = temp_path("serve-handoff.bin");
        run_cli(&["generate", "--out", &bin, "--objects", "2000", "--seed", "4"])
            .expect("generate");
        let out = run_cli(&[
            "serve-bench",
            &bin,
            "--shards",
            "1",
            "--workers",
            "1",
            "--clients",
            "1",
            "--mode",
            "original",
        ])
        .expect("serve-bench");
        let value = |prefix: &str| -> f64 {
            out.lines()
                .find_map(|l| l.strip_prefix(prefix)?.split_whitespace().next()?.parse().ok())
                .unwrap_or_else(|| panic!("no {prefix} line:\n{out}"))
        };
        for parks in ["client parks", "worker parks"] {
            assert!(value(parks) >= 0.0);
            let line = out.lines().find(|l| l.starts_with(parks)).expect("parks line");
            assert!(line.ends_with(" per 1k requests"), "{line}");
        }
        assert!((1.0..=64.0).contains(&value("mean batch")), "1..=64 a lock:\n{out}");
        assert!((1.0..=1024.0).contains(&value("queue high water")), "default depth:\n{out}");
    }

    #[test]
    fn serve_bench_reports_the_workers_that_ran() {
        let bin = temp_path("serve4.bin");
        run_cli(&["generate", "--out", &bin, "--objects", "1000", "--seed", "5"])
            .expect("generate");
        // Default --workers 4 over two shards: two workers would own nothing.
        let out = run_cli(&["serve-bench", &bin, "--shards", "2", "--mode", "original"])
            .expect("serve-bench");
        assert!(out.contains("2 shards x 2 workers"), "{out}");
        let out = run_cli(&[
            "serve-bench",
            &bin,
            "--shards",
            "5",
            "--workers",
            "3",
            "--mode",
            "original",
        ])
        .expect("serve-bench");
        assert!(out.contains("5 shards x 3 workers"), "{out}");
    }

    #[test]
    fn serve_bench_duration_cap_and_qps_throttle() {
        let bin = temp_path("serve2.bin");
        run_cli(&["generate", "--out", &bin, "--objects", "1500", "--seed", "3"])
            .expect("generate");
        let out = run_cli(&[
            "serve-bench",
            &bin,
            "--mode",
            "original",
            "--qps",
            "500",
            "--duration-s",
            "0.05",
        ])
        .expect("serve-bench");
        assert!(out.contains("replayed"));
    }

    #[test]
    fn serve_bench_rejects_bad_topology_and_rates() {
        let bin = temp_path("serve3.bin");
        run_cli(&["generate", "--out", &bin, "--objects", "500"]).expect("generate");
        let e = run_cli(&["serve-bench", &bin, "--shards", "0"]).unwrap_err();
        assert!(e.0.contains("--shards"));
        let e = run_cli(&["serve-bench", &bin, "--workers", "0"]).unwrap_err();
        assert!(e.0.contains("--workers"));
        let e = run_cli(&["serve-bench", &bin, "--clients", "0"]).unwrap_err();
        assert!(e.0.contains("--clients"));
        let e = run_cli(&["serve-bench", &bin, "--qps", "-5"]).unwrap_err();
        assert!(e.0.contains("--qps"));
        let e = run_cli(&["serve-bench", &bin, "--qps", "fast"]).unwrap_err();
        assert!(e.0.contains("invalid value for --qps"));
        let e = run_cli(&["serve-bench", &bin, "--duration-s", "0"]).unwrap_err();
        assert!(e.0.contains("--duration-s"));
        let e = run_cli(&["serve-bench", &bin, "--trainer", "psychic"]).unwrap_err();
        assert!(e.0.contains("unknown trainer"));
        assert!(run_cli(&["serve-bench", "/nonexistent.bin"]).is_err());
        assert!(run_cli(&["serve-bench"]).unwrap_err().0.contains("trace path"));
    }
}
