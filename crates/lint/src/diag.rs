//! Diagnostics: rustc-style rendering and stable ordering.

use crate::config::Rule;

/// One violation of an enforced rule.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: Rule,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based position of the offending token.
    pub line: u32,
    pub col: u32,
    /// What was found, e.g. "`Instant::now` call".
    pub message: String,
}

impl Diagnostic {
    /// Render in the `file:line:col` shape editors and CI both parse.
    pub fn render(&self) -> String {
        format!(
            "error[{rule}]: {msg}\n  --> {path}:{line}:{col}\n  = note: {inv}",
            rule = self.rule.name(),
            msg = self.message,
            path = self.path,
            line = self.line,
            col = self.col,
            inv = self.rule.invariant(),
        )
    }
}

/// Order diagnostics for stable output: path, then position, then rule.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule.name()).cmp(&(
            b.path.as_str(),
            b.line,
            b.col,
            b.rule.name(),
        ))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_rustc_shaped() {
        let d = Diagnostic {
            rule: Rule::NoWallClock,
            path: "crates/serve/src/service.rs".into(),
            line: 213,
            col: 17,
            message: "`Instant::now` call".into(),
        };
        let text = d.render();
        assert!(text.starts_with("error[no-wall-clock]:"), "{text}");
        assert!(text.contains("--> crates/serve/src/service.rs:213:17"), "{text}");
    }
}
