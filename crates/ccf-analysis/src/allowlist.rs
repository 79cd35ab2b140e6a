//! The allowlist: deliberate, justified exceptions to lint rules.
//!
//! Format (one entry per line, `#` comments, blank lines ignored):
//!
//! ```text
//! RULE-ID  path-prefix  line-substring -- justification
//! ```
//!
//! * `RULE-ID` — the rule being excepted, e.g. `CCF-L002`.
//! * `path-prefix` — workspace-relative path prefix; `crates/ccf-shard/src/`
//!   covers a directory, a full file path covers one file.
//! * `line-substring` — text the *raw* source line must contain for the entry to
//!   apply, so entries survive line-number drift; `*` matches any line. May
//!   contain spaces — it extends to the ` -- ` separator.
//! * `justification` — required free text after ` -- `; an entry without one is
//!   a parse error, because an unexplained exception is indistinguishable from a
//!   silenced bug.
//!
//! An entry that suppresses nothing in a lint run is itself a finding
//! (`CCF-L006 ccf-lint.allow:LINE`): a stale exception would silently excuse the
//! next violation that happens to match it.

use crate::report::Finding;

/// One parsed allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: String,
    pub path_prefix: String,
    pub line_substring: String,
    pub justification: String,
    /// 1-indexed line in the allowlist file (for error reporting).
    pub source_line: usize,
}

/// A parsed allowlist.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    pub entries: Vec<AllowEntry>,
    /// Where the entries came from, as stale-entry findings name it
    /// ([`crate::DEFAULT_ALLOWLIST`] unless the caller says otherwise).
    pub path: String,
}

/// A malformed allowlist line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowlistParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for AllowlistParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "allowlist line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AllowlistParseError {}

impl Allowlist {
    /// An empty allowlist (suppresses nothing).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Parse allowlist text.
    pub fn parse(text: &str) -> Result<Self, AllowlistParseError> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (spec, justification) = match line.split_once(" -- ") {
                Some((s, j)) if !j.trim().is_empty() => (s.trim(), j.trim()),
                _ => {
                    return Err(AllowlistParseError {
                        line: line_no,
                        message: "missing ` -- justification` (every exception must say why)"
                            .to_string(),
                    })
                }
            };
            let mut parts = spec.splitn(3, char::is_whitespace);
            let (rule, path, substring) = match (parts.next(), parts.next(), parts.next()) {
                (Some(r), Some(p), Some(s)) if !s.trim().is_empty() => (r, p, s.trim()),
                _ => {
                    return Err(AllowlistParseError {
                        line: line_no,
                        message: "expected `RULE-ID path-prefix line-substring -- justification`"
                            .to_string(),
                    })
                }
            };
            if crate::lints::rule(rule).is_none() {
                return Err(AllowlistParseError {
                    line: line_no,
                    message: format!("unknown rule ID `{rule}`"),
                });
            }
            entries.push(AllowEntry {
                rule: rule.to_string(),
                path_prefix: path.replace('\\', "/"),
                line_substring: substring.to_string(),
                justification: justification.to_string(),
                source_line: line_no,
            });
        }
        Ok(Allowlist {
            entries,
            path: crate::DEFAULT_ALLOWLIST.to_string(),
        })
    }

    /// Does any entry suppress this finding?
    pub fn suppresses(&self, finding: &Finding) -> bool {
        self.suppressor(finding).is_some()
    }

    /// The index of the first entry that suppresses this finding.
    pub fn suppressor(&self, finding: &Finding) -> Option<usize> {
        self.entries.iter().position(|e| {
            e.rule == finding.rule
                && finding.path.starts_with(&e.path_prefix)
                && (e.line_substring == "*" || finding.raw_line.contains(&e.line_substring))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, raw: &str) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line: 10,
            message: "m".to_string(),
            raw_line: raw.to_string(),
        }
    }

    #[test]
    fn parses_and_suppresses() {
        let a = Allowlist::parse(
            "# comment\n\
             CCF-L002 crates/ccf-shard/src/ expect(POISONED) -- poisoning propagates a panic\n\
             CCF-L002 crates/ccf-bench/src/ * -- harness crate\n",
        )
        .expect("valid allowlist");
        assert_eq!(a.entries.len(), 2);
        assert!(a.suppresses(&finding(
            "CCF-L002",
            "crates/ccf-shard/src/service.rs",
            "let g = self.shards[s].read().expect(POISONED);"
        )));
        assert!(a.suppresses(&finding(
            "CCF-L002",
            "crates/ccf-bench/src/fpr_experiments.rs",
            "x.unwrap();"
        )));
        // Different rule, same line: not suppressed.
        assert!(!a.suppresses(&finding(
            "CCF-L001",
            "crates/ccf-shard/src/service.rs",
            "let g = self.shards[s].read().expect(POISONED);"
        )));
        // Path outside the prefix: not suppressed.
        assert!(!a.suppresses(&finding(
            "CCF-L002",
            "crates/ccf-core/src/plain.rs",
            "x.expect(POISONED)"
        )));
    }

    #[test]
    fn justification_is_mandatory() {
        let err = Allowlist::parse("CCF-L002 crates/x/src/ *\n").expect_err("must be rejected");
        assert_eq!(err.line, 1);
        assert!(err.message.contains("justification"));
    }

    #[test]
    fn unknown_rule_is_rejected() {
        let err = Allowlist::parse("CCF-L999 crates/x/src/ * -- why\n").expect_err("bad rule");
        assert!(err.message.contains("CCF-L999"));
    }
}
