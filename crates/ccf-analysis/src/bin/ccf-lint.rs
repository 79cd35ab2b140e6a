//! `ccf-lint` — the workspace's custom lint pass.
//!
//! ```text
//! ccf-lint [--root DIR] [--allowlist FILE] [--rules] [--quiet]
//! ```
//!
//! Output: one line per finding, `RULE-ID file:line message`, sorted by
//! (file, line, rule). Exit codes: 0 clean, 1 findings, 2 usage/IO error.

use std::path::PathBuf;

use ccf_analysis::{exit_code, lint_workspace, load_allowlist, AnalysisError, RULES};

struct Options {
    root: Option<PathBuf>,
    allowlist: Option<PathBuf>,
    list_rules: bool,
    quiet: bool,
}

fn usage() -> &'static str {
    "usage: ccf-lint [--root DIR] [--allowlist FILE] [--rules] [--quiet]\n\
     \n\
     --root DIR        workspace root to lint (default: nearest ancestor with [workspace])\n\
     --allowlist FILE  allowlist file (default: <root>/ccf-lint.allow if present)\n\
     --rules           list the rule catalog and exit\n\
     --quiet           suppress the summary line (findings only)\n\
     \n\
     exit codes: 0 clean, 1 findings, 2 error"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        allowlist: None,
        list_rules: false,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(v) => opts.root = Some(PathBuf::from(v)),
                None => return Err("--root requires a directory argument".to_string()),
            },
            "--allowlist" => match it.next() {
                Some(v) => opts.allowlist = Some(PathBuf::from(v)),
                None => return Err("--allowlist requires a file argument".to_string()),
            },
            "--rules" => opts.list_rules = true,
            "--quiet" | "-q" => opts.quiet = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<i32, AnalysisError> {
    let root = match &opts.root {
        Some(r) => r.clone(),
        None => {
            let cwd = std::env::current_dir().map_err(|e| AnalysisError::Io {
                path: ".".to_string(),
                message: e.to_string(),
            })?;
            ccf_analysis::find_workspace_root(&cwd)?
        }
    };
    let run = match &opts.allowlist {
        Some(path) => {
            // An explicitly-requested allowlist must exist.
            if !path.is_file() {
                return Err(AnalysisError::Io {
                    path: path.display().to_string(),
                    message: "allowlist file not found".to_string(),
                });
            }
            let mut allowlist = load_allowlist(path)?;
            allowlist.path = path.display().to_string();
            let files = ccf_analysis::collect_sources(&root)?;
            ccf_analysis::lint_sources(&files, &allowlist)
        }
        None => lint_workspace(&root)?,
    };
    for finding in &run.findings {
        println!("{}", finding.render());
    }
    if !opts.quiet {
        eprintln!(
            "ccf-lint: {} file(s) scanned, {} finding(s), {} suppressed by allowlist",
            run.files_scanned,
            run.findings.len(),
            run.suppressed
        );
    }
    Ok(if run.findings.is_empty() {
        exit_code::CLEAN
    } else {
        exit_code::FINDINGS
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                std::process::exit(exit_code::CLEAN);
            }
            eprintln!("ccf-lint: {msg}");
            eprintln!("{}", usage());
            std::process::exit(exit_code::ERROR);
        }
    };
    if opts.list_rules {
        for r in RULES {
            println!("{}  {}  {}", r.id, r.name, r.summary);
            println!("         fix: {}", r.hint);
        }
        std::process::exit(exit_code::CLEAN);
    }
    match run(&opts) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("ccf-lint: {e}");
            std::process::exit(exit_code::ERROR);
        }
    }
}
