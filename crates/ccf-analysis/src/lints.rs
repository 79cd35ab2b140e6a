//! The lint rules and the engine that runs them.
//!
//! Every rule is a repo invariant with a machine-readable ID, a one-line
//! summary and a fix-it hint. Findings are emitted in the stable format
//! `RULE-ID file:line message` (see [`crate::report`]); deliberate exceptions
//! live in the workspace allowlist (see [`crate::allowlist`]), never in the
//! rule code.

use crate::allowlist::{AllowEntry, Allowlist};
use crate::report::Finding;
use crate::source::{Line, SourceFile};

/// Static description of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    /// Machine-readable ID, e.g. `CCF-L001`. Stable: CI annotations and editor
    /// integrations key on it.
    pub id: &'static str,
    /// Short name (kebab-case).
    pub name: &'static str,
    /// What the rule enforces.
    pub summary: &'static str,
    /// How to fix a finding.
    pub hint: &'static str,
}

/// The rule catalog, in ID order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "CCF-L001",
        name: "flooring-millis-cast",
        summary: "load-factor/millis expressions must not be floored with `as u32`/`as u64`; \
                  rounding goes through `.round()` (the blessed constructors `TableFull::at` and \
                  `InsertFailure::kicks_exhausted_at` already do)",
        hint: "call .round() before the cast, or build the value via TableFull::at / \
               InsertFailure::kicks_exhausted_at",
    },
    RuleInfo {
        id: "CCF-L002",
        name: "lib-panic-path",
        summary: "non-test, non-bin library code must not call unwrap()/expect()/panic!; typed \
                  errors only (the PR 3/4 convention). The documented panicking-facade idiom \
                  `try_x().unwrap_or_else(|e| panic!(…))` is blessed",
        hint: "return a typed error (ParamsError / InsertFailure / CcfError / …), restructure \
               so the invariant is expressed without a panic, or add an allowlist entry with a \
               justification",
    },
    RuleInfo {
        id: "CCF-L003",
        name: "unsafe-without-safety",
        summary: "every `#[allow(unsafe_code)]` must be preceded by a `// SAFETY:` comment \
                  explaining why the unsafe block is sound",
        hint: "add a `// SAFETY: …` (or doc comment containing `SAFETY:`) in the comment block \
               directly above the attribute",
    },
    RuleInfo {
        id: "CCF-L004",
        name: "salt-collision",
        summary: "hash-purpose constants (`pub mod purpose`) must be pairwise distinct — two \
                  components sharing a salt index would draw correlated hashers",
        hint: "pick an unused index; scalar purposes are small integers, ATTRIBUTE_BASE and \
               BLOOM_BASE anchor disjoint ranges",
    },
    RuleInfo {
        id: "CCF-L005",
        name: "instrument-name",
        summary: "telemetry instrument names must follow the documented layer_noun_unit \
                  convention: snake_case with a known layer prefix; counters end in `_total`, \
                  histograms in a unit suffix (_ns/_seconds/_bytes/_depth/_keys), gauges in a \
                  unit that is not `_total`",
        hint: "rename the series (see the README instrument catalog) or extend the documented \
               convention first",
    },
    RuleInfo {
        id: "CCF-L006",
        name: "stale-allow-entry",
        summary: "every allowlist entry must suppress at least one finding of the run; an \
                  entry that suppresses nothing would silently excuse the next violation that \
                  happens to match it",
        hint: "delete the entry, or fix its path-prefix/line-substring if the code it excuses \
               moved",
    },
];

/// Look up a rule by ID.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Outcome of linting a set of files.
#[derive(Debug, Clone)]
pub struct LintRun {
    /// Findings that survived the allowlist, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Findings suppressed by allowlist entries.
    pub suppressed: usize,
}

/// Lint a set of scanned files against the full rule catalog. An allowlist entry
/// that suppresses nothing in these files is a CCF-L006 finding, so a gating run
/// passes the whole workspace.
pub fn lint_sources(files: &[SourceFile], allowlist: &Allowlist) -> LintRun {
    let mut findings = Vec::new();
    for file in files {
        check_flooring_cast(file, &mut findings);
        check_lib_panic(file, &mut findings);
        check_unsafe_safety(file, &mut findings);
        check_salt_collision(file, &mut findings);
        check_instrument_names(file, &mut findings);
    }
    let total = findings.len();
    let mut used = vec![false; allowlist.entries.len()];
    let mut findings: Vec<Finding> = findings
        .into_iter()
        .filter(|f| match allowlist.suppressor(f) {
            Some(i) => {
                used[i] = true;
                false
            }
            None => true,
        })
        .collect();
    let suppressed = total - findings.len();
    findings.extend(
        allowlist
            .entries
            .iter()
            .zip(used)
            .filter(|(_, used)| !used)
            .map(|(e, _)| stale_entry(&allowlist.path, e)),
    );
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    LintRun {
        suppressed,
        files_scanned: files.len(),
        findings,
    }
}

/// The CCF-L006 finding for an allowlist entry that suppressed nothing.
fn stale_entry(path: &str, e: &AllowEntry) -> Finding {
    Finding {
        rule: "CCF-L006",
        path: path.to_string(),
        line: e.source_line,
        message: format!(
            "allowlist entry `{} {} {}` suppresses nothing — delete it",
            e.rule, e.path_prefix, e.line_substring
        ),
        raw_line: String::new(),
    }
}

fn push(
    findings: &mut Vec<Finding>,
    rule: &'static RuleInfo,
    file: &SourceFile,
    line_no: usize,
    message: String,
) {
    findings.push(Finding {
        rule: rule.id,
        path: file.path.clone(),
        line: line_no,
        message,
        raw_line: file
            .lines
            .get(line_no.saturating_sub(1))
            .map(|l| l.raw.clone())
            .unwrap_or_default(),
    });
}

/// CCF-L001 — flooring `as u32`/`as u64` casts on load-factor/millis expressions.
///
/// The class of bug this pins down recurred twice (PR 2 and PR 6): a
/// `(x * 1000.0) as u32` silently floors, so 1/16 = 62.5 millis reports as 62.
/// Any line that casts to `u32`/`u64` while mentioning a `1000.0` scale, a
/// `load_factor` or a `millis` value must round explicitly.
fn check_flooring_cast(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.kind.is_test_context {
        return;
    }
    let r = &RULES[0];
    for (n, line) in file.numbered() {
        if line.in_test_region {
            continue;
        }
        let code = &line.code;
        let casts = code.contains(" as u32") || code.contains(" as u64");
        let millis_expr =
            code.contains("1000.0") || code.contains("load_factor") || code.contains("millis");
        if casts && millis_expr && !code.contains(".round(") {
            push(
                findings,
                r,
                file,
                n,
                "flooring integer cast on a load-factor/millis expression (use .round() or a \
                 blessed rounding constructor)"
                    .to_string(),
            );
        }
    }
}

/// CCF-L002 — `unwrap()` / `expect()` / `panic!` in non-test, non-bin library code.
fn check_lib_panic(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.kind.is_test_context || file.kind.is_bin {
        return;
    }
    let r = &RULES[1];
    for (n, line) in file.numbered() {
        if line.in_test_region {
            continue;
        }
        let code = &line.code;
        // Blessed idiom: a fallible `try_` core with a one-line documented
        // panicking facade — `.unwrap_or_else(|e| panic!("{e}"))` and friends.
        let facade = code.contains("unwrap_or_else") && code.contains("panic!(");
        if facade {
            continue;
        }
        for token in [".unwrap()", ".expect(", "panic!("] {
            if code.contains(token) {
                push(
                    findings,
                    r,
                    file,
                    n,
                    format!("`{token}` in library code — typed errors only"),
                );
            }
        }
    }
}

/// CCF-L003 — `#[allow(unsafe_code)]` requires a `SAFETY:` comment directly above.
fn check_unsafe_safety(file: &SourceFile, findings: &mut Vec<Finding>) {
    let r = &RULES[2];
    for (n, line) in file.numbered() {
        if !line.code.contains("allow(unsafe_code)") {
            continue;
        }
        // Walk upward through the contiguous block of comments, attributes and
        // blank lines; one of them must carry SAFETY:.
        let mut justified = false;
        for prev in file.lines[..n - 1].iter().rev() {
            let is_annotation = prev.raw.trim().is_empty()
                || prev.comment.trim() != ""
                || prev.code.trim_start().starts_with("#[")
                || prev.code.trim_start().starts_with("#![");
            if !is_annotation {
                break;
            }
            if prev.comment.contains("SAFETY:") || prev.raw.contains("SAFETY:") {
                justified = true;
                break;
            }
        }
        if !justified {
            push(
                findings,
                r,
                file,
                n,
                "#[allow(unsafe_code)] without a preceding // SAFETY: comment".to_string(),
            );
        }
    }
}

/// A parsed `pub const NAME: u64 = <literal>;` from a `mod purpose` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaltConst {
    pub name: String,
    pub value: u64,
    pub line: usize,
}

/// Extract the salt constants of every `mod purpose { … }` block in `file`.
///
/// Public so the cross-check test can compare the parse against
/// `ccf_hash::purpose::ALL` — if this parser ever rots and sees nothing, that
/// test fails rather than the rule silently passing.
pub fn parse_purpose_salts(file: &SourceFile) -> Vec<SaltConst> {
    let mut out = Vec::new();
    let mut in_purpose = false;
    let mut depth: i64 = 0;
    for (n, line) in file.numbered() {
        let code = &line.code;
        if !in_purpose {
            if code.contains("mod purpose") && code.contains('{') {
                in_purpose = true;
                depth = net_braces(code);
                if depth <= 0 {
                    in_purpose = false;
                }
            }
            continue;
        }
        depth += net_braces(code);
        if let Some(c) = parse_const_line(code, n) {
            out.push(c);
        }
        if depth <= 0 {
            in_purpose = false;
        }
    }
    out
}

fn net_braces(code: &str) -> i64 {
    let mut d = 0i64;
    for ch in code.chars() {
        match ch {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

fn parse_const_line(code: &str, line: usize) -> Option<SaltConst> {
    let rest = code.trim_start();
    let rest = rest.strip_prefix("pub const ")?;
    let (name, rest) = rest.split_once(':')?;
    let (ty, rest) = rest.split_once('=')?;
    if ty.trim() != "u64" {
        return None;
    }
    let literal = rest.trim().trim_end_matches(';').trim().replace('_', "");
    let value = if let Some(hex) = literal.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()?
    } else {
        literal.parse().ok()?
    };
    Some(SaltConst {
        name: name.trim().to_string(),
        value,
        line,
    })
}

/// CCF-L004 — pairwise-distinct hash-purpose salts.
fn check_salt_collision(file: &SourceFile, findings: &mut Vec<Finding>) {
    let r = &RULES[3];
    let consts = parse_purpose_salts(file);
    for (i, b) in consts.iter().enumerate() {
        if let Some(a) = consts[..i].iter().find(|a| a.value == b.value) {
            push(
                findings,
                r,
                file,
                b.line,
                format!(
                    "hash salt {} = {} collides with {} (line {})",
                    b.name, b.value, a.name, a.line
                ),
            );
        }
    }
}

/// Layer prefixes the instrument convention recognizes (README "Observability").
const LAYER_PREFIXES: &[&str] = &["ccf", "cuckoo", "loadgen", "loopback"];
/// Unit suffixes a histogram name may end with.
const HISTOGRAM_UNITS: &[&str] = &["_ns", "_seconds", "_bytes", "_depth", "_keys"];

/// CCF-L005 — telemetry instrument names follow `layer_noun_unit`.
///
/// Scans for `.counter("…`, `.gauge("…`, `.histogram("…` call sites whose first
/// argument is a string literal (registrations *and* snapshot lookups — both
/// must agree on the catalog). Calls whose name is a variable are skipped: the
/// convention is enforced where names are written down.
fn check_instrument_names(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.kind.is_test_context {
        return;
    }
    let r = &RULES[4];
    for (n, line) in file.numbered() {
        if line.in_test_region {
            continue;
        }
        for (method, kind) in [
            (".counter(", InstrumentKind::Counter),
            (".gauge(", InstrumentKind::Gauge),
            (".histogram(", InstrumentKind::Histogram),
        ] {
            let mut from = 0usize;
            while let Some(pos) = line.code[from..].find(method) {
                let after = from + pos + method.len();
                from = after;
                // The name must be a string literal opening on the same line.
                if let Some(name) = leading_string_literal(line, after) {
                    check_instrument_name(file, findings, r, n, kind, &name);
                }
            }
        }
        // Multi-line registration: rustfmt breaks long calls so the literal sits
        // alone on the line after one ending with `.counter(` / `.gauge(` /
        // `.histogram(`.
        if n >= 2 {
            let prev = &file.lines[n - 2];
            for (method, kind) in [
                (".counter(", InstrumentKind::Counter),
                (".gauge(", InstrumentKind::Gauge),
                (".histogram(", InstrumentKind::Histogram),
            ] {
                if prev.code.trim_end().ends_with(method) && !prev.in_test_region {
                    let indent = line.raw.len() - line.raw.trim_start().len();
                    if let Some(name) = leading_string_literal(line, indent) {
                        check_instrument_name(file, findings, r, n, kind, &name);
                    }
                }
            }
        }
    }
}

/// If a string literal opens at or after byte `at` (skipping spaces), return its
/// content. The quote must be genuine string text, not a quote inside a comment
/// — comment bytes show up in the line's `comment` projection.
fn leading_string_literal(line: &Line, at: usize) -> Option<String> {
    let bytes = line.raw.as_bytes();
    let mut i = at;
    while i < bytes.len() && bytes[i] == b' ' {
        i += 1;
    }
    if i >= bytes.len() || bytes[i] != b'"' {
        return None;
    }
    if line.comment.as_bytes().get(i) == Some(&b'"') {
        return None; // commented-out call site
    }
    line.raw[i + 1..].split('"').next().map(|s| s.to_string())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstrumentKind {
    Counter,
    Gauge,
    Histogram,
}

fn check_instrument_name(
    file: &SourceFile,
    findings: &mut Vec<Finding>,
    r: &'static RuleInfo,
    line_no: usize,
    kind: InstrumentKind,
    name: &str,
) {
    let mut problems: Vec<String> = Vec::new();
    let snake = !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    if !snake {
        problems.push("not lower_snake_case".to_string());
    } else {
        let layer = name.split('_').next().unwrap_or_default();
        if !LAYER_PREFIXES.contains(&layer) {
            problems.push(format!(
                "unknown layer prefix `{layer}` (expected one of {LAYER_PREFIXES:?})"
            ));
        }
        match kind {
            InstrumentKind::Counter => {
                if !name.ends_with("_total") {
                    problems.push("counter names end in `_total`".to_string());
                }
            }
            InstrumentKind::Histogram => {
                if !HISTOGRAM_UNITS.iter().any(|u| name.ends_with(u)) {
                    problems.push(format!(
                        "histogram names end in a unit suffix {HISTOGRAM_UNITS:?}"
                    ));
                }
            }
            InstrumentKind::Gauge => {
                if name.ends_with("_total") {
                    problems.push("gauge names must not end in `_total`".to_string());
                }
            }
        }
    }
    if !problems.is_empty() {
        push(
            findings,
            r,
            file,
            line_no,
            format!("instrument name `{name}`: {}", problems.join("; ")),
        );
    }
}
