//! Documentation link checker: every relative link in the repo's
//! markdown files must resolve to a real file or directory.
//!
//! Walks the tree from the current directory (skipping `target/`,
//! `vendor/`, and `.git/`), extracts inline markdown links
//! (`[text](destination)`) from every `*.md`, and verifies each
//! relative destination — minus any `#fragment` — exists on disk,
//! resolved against the linking file's directory. Absolute URLs
//! (`http:`, `https:`, `mailto:`) are skipped. Exits 1 listing every
//! broken link.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::cli::{Args, Gate};

fn collect_markdown(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name == ".git" || name == "node_modules" {
                continue;
            }
            collect_markdown(&path, out);
        } else if name.ends_with(".md") {
            out.push(path);
        }
    }
}

/// Extracts inline link destinations: for every `](dest)` occurrence,
/// the text between the marker and its closing parenthesis. Fenced code
/// blocks are skipped — they quote link syntax without asserting the
/// target exists.
fn link_destinations(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i + 1 < bytes.len() {
            if bytes[i] == b']' && bytes[i + 1] == b'(' {
                if let Some(close) = line[i + 2..].find(')') {
                    out.push(line[i + 2..i + 2 + close].to_owned());
                    i += 2 + close;
                    continue;
                }
            }
            i += 1;
        }
    }
    out
}

fn is_external(dest: &str) -> bool {
    dest.starts_with("http://")
        || dest.starts_with("https://")
        || dest.starts_with("mailto:")
        || dest.starts_with('#')
}

pub(crate) fn run(_: &Args) -> ExitCode {
    let mut files = Vec::new();
    collect_markdown(Path::new("."), &mut files);
    files.sort();
    let mut gate = Gate::default();
    gate.check(!files.is_empty(), || {
        "no markdown files found — run from the repo root".to_owned()
    });

    let mut checked = 0usize;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                gate.fail(format!("read {}: {e}", file.display()));
                continue;
            }
        };
        let dir = file.parent().unwrap_or(Path::new("."));
        for dest in link_destinations(&text) {
            let path_part = dest.split('#').next().unwrap_or("");
            if is_external(&dest) || path_part.is_empty() {
                continue;
            }
            checked += 1;
            let target = dir.join(path_part);
            gate.check(target.exists(), || {
                format!(
                    "{}: [{}] does not resolve ({})",
                    file.display(),
                    dest,
                    target.display()
                )
            });
        }
    }

    eprintln!(
        "doclinks: {} markdown files, {checked} relative links checked",
        files.len()
    );
    gate.finish()
}
