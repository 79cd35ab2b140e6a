//! End-to-end smoke tests for the `ccf-lint` binary: stable output format,
//! stable exit codes, rule listing.

use std::path::PathBuf;
use std::process::Command;

fn lint_bin() -> &'static str {
    env!("CARGO_BIN_EXE_ccf-lint")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

/// A scratch workspace under the target temp dir, cleaned up on drop.
struct ScratchWorkspace {
    root: PathBuf,
}

impl ScratchWorkspace {
    fn new(tag: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("ccf-lint-smoke-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("crates/demo/src")).expect("mkdir scratch");
        std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
        ScratchWorkspace { root }
    }

    fn write(&self, rel: &str, text: &str) {
        let path = self.root.join(rel);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("mkdir");
        }
        std::fs::write(path, text).expect("write scratch file");
    }
}

impl Drop for ScratchWorkspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn real_workspace_is_clean_with_exit_zero() {
    let out = Command::new(lint_bin())
        .args(["--root"])
        .arg(workspace_root())
        .output()
        .expect("run ccf-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "ccf-lint found problems:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.trim().is_empty(),
        "clean run prints no findings: {stdout}"
    );
}

#[test]
fn planted_violation_exits_one_with_stable_format() {
    let ws = ScratchWorkspace::new("violation");
    ws.write(
        "crates/demo/src/lib.rs",
        "pub fn f() {\n    let v: Option<u8> = None;\n    v.unwrap();\n}\n",
    );
    let out = Command::new(lint_bin())
        .args(["--root"])
        .arg(&ws.root)
        .output()
        .expect("run ccf-lint");
    assert_eq!(out.status.code(), Some(1), "findings exit with code 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "one finding, one line: {stdout}");
    // Stable format: `RULE-ID file:line message`.
    assert!(
        lines[0].starts_with("CCF-L002 crates/demo/src/lib.rs:3 "),
        "unexpected finding line: {}",
        lines[0]
    );
}

#[test]
fn allowlist_suppresses_planted_violation() {
    let ws = ScratchWorkspace::new("allowlisted");
    ws.write(
        "crates/demo/src/lib.rs",
        "pub fn f() {\n    let v: Option<u8> = None;\n    v.unwrap();\n}\n",
    );
    ws.write(
        "ccf-lint.allow",
        "CCF-L002 crates/demo/src/ v.unwrap() -- smoke-test fixture exercising suppression\n",
    );
    let out = Command::new(lint_bin())
        .args(["--root"])
        .arg(&ws.root)
        .output()
        .expect("run ccf-lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("1 suppressed"),
        "summary reports suppression: {stderr}"
    );
}

#[test]
fn stale_allowlist_entry_exits_one_with_stable_format() {
    let ws = ScratchWorkspace::new("stale");
    ws.write("crates/demo/src/lib.rs", "pub fn f() {}\n");
    ws.write(
        "ccf-lint.allow",
        "# header\nCCF-L002 crates/demo/src/ v.unwrap() -- fixture whose violation is gone\n",
    );
    let out = Command::new(lint_bin())
        .args(["--root"])
        .arg(&ws.root)
        .output()
        .expect("run ccf-lint");
    assert_eq!(out.status.code(), Some(1), "stale entries fail the gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "one finding, one line: {stdout}");
    assert!(
        lines[0].starts_with("CCF-L006 ccf-lint.allow:2 "),
        "unexpected finding line: {}",
        lines[0]
    );
}

#[test]
fn malformed_allowlist_exits_two() {
    let ws = ScratchWorkspace::new("badallow");
    ws.write("crates/demo/src/lib.rs", "pub fn f() {}\n");
    ws.write(
        "ccf-lint.allow",
        "CCF-L002 crates/demo/src/ * no separator\n",
    );
    let out = Command::new(lint_bin())
        .args(["--root"])
        .arg(&ws.root)
        .output()
        .expect("run ccf-lint");
    assert_eq!(out.status.code(), Some(2), "parse errors exit with code 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("justification"));
}

#[test]
fn unknown_flag_exits_two() {
    let out = Command::new(lint_bin())
        .arg("--frobnicate")
        .output()
        .expect("run ccf-lint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn rules_listing_names_all_five() {
    let out = Command::new(lint_bin())
        .arg("--rules")
        .output()
        .expect("run ccf-lint");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in ["CCF-L001", "CCF-L002", "CCF-L003", "CCF-L004", "CCF-L005"] {
        assert!(stdout.contains(id), "--rules omits {id}: {stdout}");
    }
    assert!(stdout.contains("fix:"), "--rules includes fix-it hints");
}
