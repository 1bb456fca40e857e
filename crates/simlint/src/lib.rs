//! simlint: the workspace determinism / fast-path / concurrency-
//! readiness analyzer, as a library.
//!
//! Two layers feed the rules:
//!
//! 1. the **line scanner** ([`scanner`]) strips comments and strings,
//!    tracks `#[cfg(test)]` regions and `// simlint: allow(...)`
//!    markers — the D/F rules pattern-match on its stripped lines;
//! 2. the **token/item layer** ([`token`], [`items`], [`index`]) lexes
//!    the original source and extracts fn/struct/enum/impl items with
//!    spans — the C/G rules walk tokens and items, and the J-rule
//!    cross-checks the journal schema through the workspace
//!    [`index::SymbolIndex`].
//!
//! [`analyze`] runs both layers over a set of files; [`render_json`]
//! emits the machine-readable report; warn-tier findings are matched
//! against a committed [`baseline`].

pub mod baseline;
pub mod config;
pub mod index;
pub mod items;
pub mod rules;
pub mod scanner;
pub mod token;

use config::Config;
use index::SymbolIndex;
use rules::{Severity, Violation};
use telemetry::json::Str;

/// Runs every rule over `(path, text)` pairs: builds the symbol index
/// in one pass, applies the per-file rules, then the cross-file
/// journal check. Findings come back sorted by (path, line, col, rule).
pub fn analyze(files: &[(String, String)], cfg: &Config) -> Vec<Violation> {
    let index = SymbolIndex::build(files);
    let mut violations = Vec::new();
    for file in &index.files {
        violations.extend(rules::check_file(&file.path, file, cfg));
    }
    rules::check_journal(&index, cfg, &mut violations);
    violations
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    violations
}

/// True when the findings should fail the build: any deny-tier
/// finding, or a warn-tier finding the baseline does not cover.
pub fn gates(violations: &[Violation]) -> bool {
    violations
        .iter()
        .any(|v| v.severity == Severity::Deny || !v.baselined)
}

/// Renders the findings as a JSON array (one object per finding, with
/// rule, family, severity, position, message, fix hint, snippet, and
/// whether the baseline covers it).
pub fn render_json(violations: &[Violation]) -> String {
    let mut out = String::from("[\n");
    for (i, v) in violations.iter().enumerate() {
        let comma = if i + 1 < violations.len() { "," } else { "" };
        out.push_str(&format!(
            "  {{\"rule\":\"{}\",\"family\":\"{}\",\"severity\":\"{}\",\"path\":{},\
             \"line\":{},\"col\":{},\"message\":{},\"hint\":{},\"snippet\":{},\
             \"baselined\":{}}}{comma}\n",
            v.rule,
            v.family,
            v.severity.as_str(),
            Str(&v.path),
            v.line,
            v.col,
            Str(&v.msg),
            Str(v.hint),
            Str(&v.snippet),
            v.baselined
        ));
    }
    out.push_str("]\n");
    out
}

/// Renders the findings for a terminal, with a one-line summary.
pub fn render_human(violations: &[Violation], files_scanned: usize) -> String {
    let mut out = String::new();
    let mut gating = 0usize;
    let mut baselined = 0usize;
    for v in violations {
        if v.baselined {
            baselined += 1;
            continue;
        }
        gating += 1;
        let level = match v.severity {
            Severity::Deny => "error",
            Severity::Warn => "warning",
        };
        out.push_str(&format!("{level}[{}]: {}\n", v.rule, v.msg));
        out.push_str(&format!("  --> {}:{}:{}\n", v.path, v.line, v.col));
        out.push_str(&format!("  help: {}\n\n", v.hint));
    }
    if gating == 0 {
        out.push_str(&format!(
            "simlint: clean — {files_scanned} files scanned, 0 gating findings\
             {}\n",
            if baselined > 0 {
                format!(" ({baselined} baselined)")
            } else {
                String::new()
            }
        ));
    } else {
        out.push_str(&format!(
            "simlint: {gating} gating finding(s) in {files_scanned} file(s) scanned\
             {}\n",
            if baselined > 0 {
                format!(" ({baselined} baselined)")
            } else {
                String::new()
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_is_valid() {
        let v = Violation {
            rule: "D1",
            family: "determinism",
            severity: Severity::Deny,
            path: "a\"b\\c\nd.rs".into(),
            line: 1,
            col: 2,
            msg: "tab\there".into(),
            hint: "fix",
            snippet: "\u{1}".into(),
            baselined: false,
        };
        let json = render_json(&[v]);
        assert!(json.contains(r#""path":"a\"b\\c\nd.rs""#), "{json}");
        let item = telemetry::json::parse(&json).unwrap().as_arr().unwrap()[0].clone();
        assert_eq!(item.str("path").unwrap(), "a\"b\\c\nd.rs");
        assert_eq!(item.str("message").unwrap(), "tab\there");
        assert_eq!(item.str("snippet").unwrap(), "\u{1}");
    }

    #[test]
    fn analyze_runs_both_layers() {
        let files = vec![(
            "crates/netsim/src/x.rs".to_string(),
            "pub fn f() { let c = RefCell::new(0u32); let _ = c; }\n".to_string(),
        )];
        let vs = analyze(&files, &Config::default());
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, "C1");
        assert!(gates(&vs));
    }

    #[test]
    fn baselined_warns_do_not_gate() {
        let files = vec![(
            "crates/netsim/src/x.rs".to_string(),
            "pub fn f(seq: u64) -> usize { seq as usize }\n".to_string(),
        )];
        let mut vs = analyze(&files, &Config::default());
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, "G3");
        assert!(gates(&vs));
        let entries = baseline::parse(&baseline::render(&vs)).unwrap();
        let stale = baseline::apply(&mut vs, &entries);
        assert!(stale.is_empty());
        assert!(!gates(&vs));
    }
}
