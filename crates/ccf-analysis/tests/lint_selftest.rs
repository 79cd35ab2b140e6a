//! Per-rule self-tests: every rule must fire on a seeded violation fixture and
//! stay silent on the fixed form. A rule without both halves is untrusted —
//! a scanner regression could silently stop it from ever firing.

use ccf_analysis::{lint_sources, Allowlist, SourceFile};

fn lint_one(path: &str, src: &str) -> Vec<(String, usize, String)> {
    let file = SourceFile::parse(path, src);
    lint_sources(std::slice::from_ref(&file), &Allowlist::empty())
        .findings
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line, f.message))
        .collect()
}

fn rules_fired(path: &str, src: &str) -> Vec<String> {
    let mut rules: Vec<String> = lint_one(path, src).into_iter().map(|(r, _, _)| r).collect();
    rules.dedup();
    rules
}

// ---- CCF-L001: flooring-millis-cast ----------------------------------------

#[test]
fn l001_fires_on_flooring_millis_cast() {
    let findings = lint_one(
        "crates/x/src/lib.rs",
        "fn f(elapsed_secs: f64) -> u32 {\n    (elapsed_secs * 1000.0) as u32\n}\n",
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].0, "CCF-L001");
    assert_eq!(findings[0].1, 2);
}

#[test]
fn l001_fires_on_load_factor_cast() {
    let fired = rules_fired(
        "crates/x/src/lib.rs",
        "fn g(lf: f64) -> u64 { (lf * load_factor_scale()) as u64 }\nfn load_factor_scale() -> f64 { 100.0 }\n",
    );
    assert!(fired.contains(&"CCF-L001".to_string()), "{fired:?}");
}

#[test]
fn l001_silent_on_rounded_form() {
    let findings = lint_one(
        "crates/x/src/lib.rs",
        "fn f(elapsed_secs: f64) -> u32 {\n    (elapsed_secs * 1000.0).round() as u32\n}\n",
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l001_silent_in_tests_and_cfg_test() {
    assert!(lint_one(
        "crates/x/tests/t.rs",
        "fn f(s: f64) -> u32 { (s * 1000.0) as u32 }\n"
    )
    .is_empty());
    assert!(lint_one(
        "crates/x/src/lib.rs",
        "#[cfg(test)]\nmod tests {\n    fn f(s: f64) -> u32 { (s * 1000.0) as u32 }\n}\n"
    )
    .is_empty());
}

// ---- CCF-L002: lib-panic-path ----------------------------------------------

#[test]
fn l002_fires_on_unwrap_expect_panic() {
    let src = "fn f() {\n    let v = std::env::var(\"X\").unwrap();\n    \
               let w = std::env::var(\"Y\").expect(\"set Y\");\n    \
               if v == w { panic!(\"equal\"); }\n}\n";
    let findings = lint_one("crates/x/src/lib.rs", src);
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().all(|f| f.0 == "CCF-L002"));
    assert_eq!(
        findings.iter().map(|f| f.1).collect::<Vec<_>>(),
        vec![2, 3, 4]
    );
}

#[test]
fn l002_silent_on_typed_error_form() {
    let src = "fn f() -> Result<String, std::env::VarError> {\n    std::env::var(\"X\")\n}\n";
    assert!(lint_one("crates/x/src/lib.rs", src).is_empty());
}

#[test]
fn l002_silent_in_tests_bins_and_cfg_test() {
    let panicky = "fn f() { None::<u8>.unwrap(); }\n";
    assert!(lint_one("crates/x/tests/t.rs", panicky).is_empty());
    assert!(lint_one("crates/x/benches/b.rs", panicky).is_empty());
    assert!(lint_one("crates/x/src/bin/tool.rs", panicky).is_empty());
    assert!(lint_one("crates/x/src/main.rs", panicky).is_empty());
    assert!(lint_one(
        "crates/x/src/lib.rs",
        "#[cfg(test)]\nmod tests {\n    fn f() { None::<u8>.unwrap(); }\n}\n"
    )
    .is_empty());
}

#[test]
fn l002_silent_on_comments_strings_and_facade() {
    // Doc comments, strings and the documented panicking-facade idiom.
    let src = "/// Calls `.unwrap()` — panic!(no it doesn't).\n\
               fn f(msg: &str) {\n    let _ = \"panic!(in a string).unwrap()\";\n}\n\
               fn facade(x: Result<u8, String>) -> u8 {\n    \
               x.unwrap_or_else(|e| panic!(\"{e}\"))\n}\n";
    let findings = lint_one("crates/x/src/lib.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l002_unwrap_or_variants_are_not_unwrap() {
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n\
               fn g(x: Option<u8>) -> u8 { x.unwrap_or_default() }\n";
    assert!(lint_one("crates/x/src/lib.rs", src).is_empty());
}

// ---- CCF-L003: unsafe-without-safety ---------------------------------------

#[test]
fn l003_fires_on_unjustified_unsafe_optin() {
    let src =
        "#[allow(unsafe_code)]\nfn fast() { unsafe { core::hint::unreachable_unchecked() } }\n";
    let findings = lint_one("crates/x/src/lib.rs", src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].0, "CCF-L003");
    assert_eq!(findings[0].1, 1);
}

#[test]
fn l003_silent_with_safety_comment() {
    let src = "// SAFETY: the index is bounds-checked above; the intrinsic only\n\
               // prefetches, it never dereferences.\n\
               #[allow(unsafe_code)]\nfn fast() {}\n";
    assert!(lint_one("crates/x/src/lib.rs", src).is_empty());
}

#[test]
fn l003_safety_comment_may_sit_above_other_attributes() {
    let src =
        "// SAFETY: sound because of X.\n#[inline(always)]\n#[allow(unsafe_code)]\nfn fast() {}\n";
    assert!(lint_one("crates/x/src/lib.rs", src).is_empty());
}

#[test]
fn l003_unrelated_code_breaks_the_comment_block() {
    let src = "// SAFETY: this comment belongs to the item above.\nfn other() {}\n\n\
               #[allow(unsafe_code)]\nfn fast() {}\n";
    let findings = lint_one("crates/x/src/lib.rs", src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].1, 4);
}

// ---- CCF-L004: salt-collision ----------------------------------------------

#[test]
fn l004_fires_on_duplicate_salt() {
    let src = "pub mod purpose {\n    pub const KEY_BUCKET: u64 = 0;\n    \
               pub const KEY_FINGERPRINT: u64 = 1;\n    pub const CHAIN: u64 = 1;\n}\n";
    let findings = lint_one("crates/x/src/lib.rs", src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].0, "CCF-L004");
    assert_eq!(findings[0].1, 4);
    assert!(findings[0].2.contains("CHAIN") && findings[0].2.contains("KEY_FINGERPRINT"));
}

#[test]
fn l004_silent_on_distinct_salts_and_outside_purpose() {
    let distinct =
        "pub mod purpose {\n    pub const A: u64 = 0;\n    pub const B: u64 = 0x10;\n}\n";
    assert!(lint_one("crates/x/src/lib.rs", distinct).is_empty());
    // Equal consts outside a `mod purpose` are not salts.
    let unrelated = "pub const X: u64 = 7;\npub const Y: u64 = 7;\n";
    assert!(lint_one("crates/x/src/lib.rs", unrelated).is_empty());
}

#[test]
fn l004_parses_hex_and_underscored_literals() {
    let src = "pub mod purpose {\n    pub const A: u64 = 0x10;\n    pub const B: u64 = 1_6;\n}\n";
    let findings = lint_one("crates/x/src/lib.rs", src);
    assert_eq!(findings.len(), 1, "0x10 and 1_6 are both 16: {findings:?}");
}

// ---- CCF-L005: instrument-name ---------------------------------------------

#[test]
fn l005_fires_on_bad_names() {
    let src = "fn f(t: &Telemetry) {\n    \
               let _ = t.counter(\"ccf_inserts\", \"h\", &[]);\n    \
               let _ = t.gauge(\"queue_depth_total\", \"h\", &[]);\n    \
               let _ = t.histogram(\"ccf_latency\", \"h\", &[], &[]);\n    \
               let _ = t.counter(\"CCF_OPS_TOTAL\", \"h\", &[]);\n}\n";
    let findings = lint_one("crates/x/src/lib.rs", src);
    assert_eq!(findings.len(), 4, "{findings:?}");
    assert!(findings.iter().all(|f| f.0 == "CCF-L005"));
    assert!(findings[0].2.contains("_total"), "{}", findings[0].2);
    assert!(findings[1].2.contains("layer prefix"), "{}", findings[1].2);
    assert!(findings[2].2.contains("unit suffix"), "{}", findings[2].2);
    assert!(findings[3].2.contains("snake_case"), "{}", findings[3].2);
}

#[test]
fn l005_silent_on_conforming_names() {
    let src = "fn f(t: &Telemetry) {\n    \
               let _ = t.counter(\"ccf_inserts_total\", \"h\", &[]);\n    \
               let _ = t.gauge(\"loadgen_inflight_rows\", \"h\", &[]);\n    \
               let _ = t.histogram(\"cuckoo_kick_depth\", \"h\", &[], &[]);\n    \
               let _ = t.histogram(\"loopback_rtt_ns\", \"h\", &[], &[]);\n}\n";
    assert!(lint_one("crates/x/src/lib.rs", src).is_empty());
}

#[test]
fn l005_checks_rustfmt_multiline_registrations() {
    let bad = "fn f(t: &Telemetry) {\n    let _ = t.histogram(\n        \"ccf_latency\",\n        \"h\",\n    );\n}\n";
    let fired = rules_fired("crates/x/src/lib.rs", bad);
    assert_eq!(fired, vec!["CCF-L005".to_string()], "{fired:?}");
    let good = "fn f(t: &Telemetry) {\n    let _ = t.histogram(\n        \"ccf_latency_ns\",\n        \"h\",\n    );\n}\n";
    assert!(lint_one("crates/x/src/lib.rs", good).is_empty());
}

#[test]
fn l005_skips_variables_and_commented_calls() {
    let src = "fn f(t: &Telemetry, name: &str) {\n    \
               let _ = t.counter(name, \"h\", &[]);\n    \
               // let _ = t.counter(\"bad name\", \"h\", &[]);\n}\n";
    assert!(lint_one("crates/x/src/lib.rs", src).is_empty());
}

// ---- Allowlist integration --------------------------------------------------

#[test]
fn allowlist_suppresses_and_counts() {
    let file = SourceFile::parse(
        "crates/x/src/lib.rs",
        "fn f() { None::<u8>.expect(\"invariant: always present\"); }\n",
    );
    let allow = Allowlist::parse(
        "CCF-L002 crates/x/src/ expect(\"invariant -- the invariant is documented on f()\n",
    )
    .expect("valid allowlist");
    let run = lint_sources(std::slice::from_ref(&file), &allow);
    assert!(run.findings.is_empty(), "{:?}", run.findings);
    assert_eq!(run.suppressed, 1);
}

// ---- CCF-L006: stale-allow-entry --------------------------------------------

#[test]
fn l006_flags_an_allowlist_entry_that_suppresses_nothing() {
    let file = SourceFile::parse(
        "crates/x/src/lib.rs",
        "fn f() { None::<u8>.expect(\"invariant: always present\"); }\n",
    );
    let allow = Allowlist::parse(
        "CCF-L002 crates/x/src/ expect(\"invariant -- the invariant is documented on f()\n\
         CCF-L002 crates/x/src/ expect(\"moved away -- planted stale entry\n",
    )
    .expect("valid allowlist");
    let run = lint_sources(std::slice::from_ref(&file), &allow);
    assert_eq!(run.suppressed, 1);
    let rendered: Vec<String> = run.findings.iter().map(|f| f.render()).collect();
    assert_eq!(rendered.len(), 1, "{rendered:?}");
    assert!(
        rendered[0].starts_with("CCF-L006 ccf-lint.allow:2 "),
        "{rendered:?}"
    );
}

#[test]
fn every_rule_has_fixture_coverage() {
    // The catalog and this file must grow together: each rule ID appears in at
    // least one firing fixture above. Compile-time completeness via exhaustive
    // match is impossible for data, so pin the count.
    assert_eq!(ccf_analysis::RULES.len(), 6);
    for r in ccf_analysis::RULES {
        assert!(r.id.starts_with("CCF-L"), "{}", r.id);
        assert!(!r.summary.is_empty() && !r.hint.is_empty());
    }
}
