//! Diagnostics: severities, individual findings, and mergeable reports with
//! human and JSON renderers.

use std::fmt;

use rr_sim::telemetry::json_string;

use crate::catalog::CodeInfo;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but runnable; rejected only under `--deny-warnings`.
    Warn,
    /// Ill-formed: loaders must refuse to run this configuration.
    Deny,
}

impl Severity {
    /// The lowercase name used by both renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a catalog entry plus the instance-specific location and
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The catalog entry this finding instantiates (code, severity, hint).
    pub info: &'static CodeInfo,
    /// Span-like path into the offending node, e.g.
    /// `mercury/R_[fedr,pbcom]/R_fedr`, `policy.backoff`, or `script:3`.
    pub path: String,
    /// Instance-specific explanation of what is wrong here.
    pub message: String,
}

impl Diagnostic {
    /// Builds a finding for a catalog entry.
    pub fn new(
        info: &'static CodeInfo,
        path: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            info,
            path: path.into(),
            message: message.into(),
        }
    }

    /// The stable diagnostic code, e.g. `RRL001`.
    pub fn code(&self) -> &'static str {
        self.info.code
    }

    /// The finding's severity (fixed per code).
    pub fn severity(&self) -> Severity {
        self.info.severity
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}[{}]: {} ({})",
            self.info.severity, self.info.code, self.message, self.info.name
        )?;
        writeln!(f, "  --> {}", self.path)?;
        write!(f, "  = help: {}", self.info.hint)
    }
}

/// A collection of diagnostics from one or more lint passes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Adds a finding.
    pub fn push(&mut self, diag: Diagnostic) {
        self.diags.push(diag);
    }

    /// Appends every finding of `other`.
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// Builder-style [`merge`](Self::merge).
    #[must_use]
    pub fn merged(mut self, other: Report) -> Report {
        self.merge(other);
        self
    }

    /// Re-roots every finding's path under `prefix` (`prefix::path`), so
    /// findings from different configurations, variants or files stay
    /// distinguishable once merged into one report.
    #[must_use]
    pub fn prefixed(mut self, prefix: &str) -> Report {
        for d in &mut self.diags {
            d.path = format!("{prefix}::{}", d.path);
        }
        self
    }

    /// The findings, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Consumes the report, yielding its findings.
    pub fn into_diagnostics(self) -> Vec<Diagnostic> {
        self.diags
    }

    /// `true` when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// `true` when at least one deny-severity finding is present — loaders
    /// must refuse to run.
    pub fn has_deny(&self) -> bool {
        self.diags.iter().any(|d| d.severity() == Severity::Deny)
    }

    /// Number of deny-severity findings.
    fn deny_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity() == Severity::Deny)
            .count()
    }

    /// Number of warn-severity findings.
    fn warn_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity() == Severity::Warn)
            .count()
    }

    /// The codes fired, in emission order (with repeats).
    pub fn codes(&self) -> Vec<&'static str> {
        self.diags.iter().map(|d| d.code()).collect()
    }

    /// `true` if any finding carries `code`.
    pub fn fired(&self, code: &str) -> bool {
        self.diags.iter().any(|d| d.code() == code)
    }

    /// Renders every finding as human-readable text, one block per finding,
    /// followed by a summary line. Returns `"clean\n"` for an empty report.
    pub fn to_human(&self) -> String {
        if self.diags.is_empty() {
            return "clean\n".to_string();
        }
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} deny, {} warn\n",
            self.deny_count(),
            self.warn_count()
        ));
        out
    }

    /// Renders the report as a JSON document:
    ///
    /// ```json
    /// {"deny":1,"warn":0,"diagnostics":[{"code":"RRL002","name":"...",
    ///  "severity":"deny","path":"...","message":"...","hint":"..."}]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"deny\":{},\"warn\":{},\"diagnostics\":[",
            self.deny_count(),
            self.warn_count()
        ));
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":{},\"name\":{},\"severity\":{},\"path\":{},\"message\":{},\"hint\":{}}}",
                json_string(d.info.code),
                json_string(d.info.name),
                json_string(d.severity().as_str()),
                json_string(&d.path),
                json_string(&d.message),
                json_string(d.info.hint)
            ));
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_human())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn sample() -> Report {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            &catalog::TREE_NO_COMPONENTS,
            "root",
            "no components anywhere",
        ));
        r.push(Diagnostic::new(
            &catalog::TREE_EMPTY_LEAF,
            "root/R_ghost",
            "leaf cell \"R_ghost\" is empty",
        ));
        r
    }

    #[test]
    fn counts_and_gating() {
        let r = sample();
        assert!(r.has_deny());
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.warn_count(), 1);
        assert!(!r.is_clean());
        assert!(r.fired("RRL002"));
        assert!(!r.fired("RRL999"));
        assert_eq!(r.codes(), vec!["RRL002", "RRL003"]);
    }

    #[test]
    fn human_rendering_contains_code_path_and_hint() {
        let text = sample().to_human();
        assert!(text.contains("deny[RRL002]"));
        assert!(text.contains("warn[RRL003]"));
        assert!(text.contains("--> root/R_ghost"));
        assert!(text.contains("= help:"));
        assert!(text.contains("1 deny, 1 warn"));
        assert_eq!(Report::new().to_human(), "clean\n");
        let rerooted = sample().prefixed("paper/tree-I").to_human();
        assert!(rerooted.contains("--> paper/tree-I::root/R_ghost"));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let json = sample().to_json();
        assert!(json.starts_with("{\"deny\":1,\"warn\":1,"));
        assert!(json.contains("\"code\":\"RRL002\""));
        assert!(json.contains("\"severity\":\"deny\""));
        assert!(json.ends_with("]}"));
        // Escaping: a message with quotes and newlines survives.
        let mut r = Report::new();
        r.push(Diagnostic::new(
            &catalog::TREE_NO_COMPONENTS,
            "a\"b",
            "line\nbreak\tand \\slash",
        ));
        let j = r.to_json();
        assert!(j.contains("a\\\"b"));
        assert!(j.contains("line\\nbreak\\tand \\\\slash"));
    }

    #[test]
    fn merge_concatenates() {
        let mut a = sample();
        a.merge(sample());
        assert_eq!(a.diagnostics().len(), 4);
        let b = Report::new().merged(sample());
        assert_eq!(b.diagnostics().len(), 2);
    }
}
