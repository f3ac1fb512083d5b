//! `clippy.toml` is the only owner of two bans: unbounded
//! `std::sync::mpsc::channel` and the SipHash-only `HashMap`/`HashSet`
//! constructors (otae-lint's `no-siphash` sees only their spellings, clippy
//! resolves the names). Clippy does not run under `cargo test`, so this pins
//! the configuration itself: dropping one of those lines fails here.

use std::path::PathBuf;

/// The `path = "…"` entries of `clippy.toml`'s `disallowed-methods` list.
fn disallowed_methods() -> Vec<String> {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let toml = std::fs::read_to_string(manifest.join("../../clippy.toml")).expect("clippy.toml");
    let mut in_list = false;
    let mut paths = Vec::new();
    for line in toml.lines().map(str::trim).filter(|l| !l.starts_with('#')) {
        if line.starts_with("disallowed-methods") {
            in_list = true;
        } else if in_list && line.starts_with(']') {
            break;
        }
        if let Some(rest) = line.split("path = \"").nth(1).filter(|_| in_list) {
            paths.push(rest.split('"').next().unwrap_or_default().to_string());
        }
    }
    paths
}

#[test]
fn clippy_still_bans_unbounded_channels_and_siphash_constructors() {
    let banned = disallowed_methods();
    for path in [
        "std::sync::mpsc::channel",
        "std::collections::HashMap::new",
        "std::collections::HashMap::with_capacity",
        "std::collections::HashSet::new",
        "std::collections::HashSet::with_capacity",
    ] {
        assert!(
            banned.iter().any(|b| b == path),
            "clippy.toml no longer bans `{path}`: {banned:?}"
        );
    }
}
