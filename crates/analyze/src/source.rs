//! The needle-based source scanner shared by the two lints ([`crate::lint`] and
//! [`crate::concurrency`]): plain `std::fs` and byte offsets, no parser.  String and
//! character content is skipped only at the double-quote level — enough for the
//! workspace's real sources.

use std::path::{Path, PathBuf};
use std::{fs, io};

use crate::finding::{AnalysisReport, Finding, FindingClass, Tier};

/// Reports a violation of `rule` at `location` as a convention-class finding of the
/// lint `tier`.
pub(crate) fn flag(
    report: &mut AnalysisReport,
    tier: Tier,
    rule: &str,
    location: String,
    detail: String,
) {
    report.findings.push(Finding {
        tier,
        class: FindingClass::Convention,
        action: rule.to_owned(),
        location,
        field_path: String::new(),
        effect_bits: String::new(),
        detail,
        estimated_lost_pruning: 0,
    });
}

/// The sources of every `crates/*/src` tree under the workspace `root`: per crate (in
/// directory order), each file's `/`-separated path relative to `root` — what finding
/// locations print — and its content, in path order.  Unreadable files are skipped.
pub(crate) fn workspace_sources(root: &Path) -> io::Result<Vec<Vec<(String, String)>>> {
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    crate_dirs.sort();
    let load = |path: &PathBuf| {
        let rel = path.strip_prefix(root).unwrap_or(path).display();
        Some((
            rel.to_string().replace('\\', "/"),
            fs::read_to_string(path).ok()?,
        ))
    };
    let sources = |crate_dir: &PathBuf| {
        let mut files = Vec::new();
        collect_rs_files(&crate_dir.join("src"), &mut files);
        files.sort();
        files.iter().filter_map(load).collect()
    };
    Ok(crate_dirs.iter().map(sources).collect())
}

/// Appends every `.rs` file under `dir` (recursively) to `out`; an unreadable
/// directory contributes nothing.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    for entry in rd.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// 1-indexed line of a byte offset.
pub(crate) fn line_of(source: &str, offset: usize) -> usize {
    source.as_bytes()[..offset]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// Byte offsets of every occurrence of `needle`.
pub(crate) fn occurrences<'a>(
    source: &'a str,
    needle: &'a str,
) -> impl Iterator<Item = usize> + 'a {
    source.match_indices(needle).map(|(i, _)| i)
}

/// The offset of the `"` closing the string literal whose opening `"` is at `open`
/// (`bytes.len()` when it never closes).
fn string_end(bytes: &[u8], open: usize) -> usize {
    let mut i = open + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 1,
            b'"' => return i,
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// Byte offset just past the `(`-balanced span starting at `open` (the offset of the
/// opening parenthesis), skipping double-quoted string content.  Returns `None` when
/// the span never closes (malformed source).
pub(crate) fn balanced_span_end(source: &str, open: usize) -> Option<usize> {
    let bytes = source.as_bytes();
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => i = string_end(bytes, i),
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// The top-level arguments of the call whose `(` is at `open`, each trimmed, split at
/// the commas outside any bracket, string or closure parameter list (`|a, b|` at the
/// start of an argument); `None` when the call never closes.
pub(crate) fn call_args(source: &str, open: usize) -> Option<Vec<&str>> {
    let end = balanced_span_end(source, open)? - 1;
    let bytes = source.as_bytes();
    let mut args = Vec::new();
    let (mut depth, mut start, mut i) = (0usize, open + 1, open + 1);
    while i < end {
        match bytes[i] {
            b'"' => i = string_end(bytes, i),
            b'|' if depth == 0
                && matches!(source[start..i].trim(), "" | "move" | "&mut" | "&mut move") =>
            {
                i += source[i + 1..end]
                    .find('|')
                    .map_or(end - i, |close| close + 1);
            }
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                args.push(source[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    let last = source[start..end].trim();
    if !last.is_empty() {
        args.push(last);
    }
    Some(args)
}
