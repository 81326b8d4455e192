#![deny(missing_docs)]
//! # rtr-lint — workspace invariant linter
//!
//! Syn-free, line/token-level checks over the workspace source tree,
//! run as a blocking CI step next to fmt and clippy
//! (`cargo run -p rtr-lint`). The rules encode invariants the compiler
//! cannot see:
//!
//! 1. **ordering-comment** — every atomic `Ordering::` use in a `src/`
//!    tree carries an adjacent `// ordering:` comment naming why that
//!    ordering is correct (same line or within the 4 preceding lines).
//! 2. **invariant-expect** — no `unwrap()`/`expect()` in non-test
//!    library code of serve/cache/distributed/obs/graph/core/net/topk unless
//!    documented with an adjacent `// invariant:` comment. Bench
//!    binaries and test modules are exempt.
//! 3. **hot-path-collections** — no `std` `HashMap`/`HashSet` in the
//!    per-query compute layer (core/topk/graph/distributed src): the PR-2
//!    regression class that `SparseMap` exists to prevent, and the two
//!    per-block hash maps that were the `dist_cold` budget before PR 18.
//! 4. **missing-docs-attr** — every first-party library crate root
//!    carries `#![deny(missing_docs)]`.
//! 5. **shim-parity** — every `pub` item the vendored `loom-shim`
//!    exports is actually referenced somewhere in the workspace; dead
//!    shim surface must be deleted (escape hatch:
//!    `// lint: allow(unused-shim)` on the line above a deliberate
//!    implicit-only export).
//! 6. **safety-comment** — every `unsafe` in non-test code carries an
//!    adjacent `// SAFETY:` comment, in rule 1's window.
//!
//! Every rule works on `(path, lines)` pairs so the unit tests can feed
//! seeded in-memory violations without touching the real tree.

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a file location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number (0 for whole-file rules).
    pub line: usize,
    /// Stable rule identifier (e.g. `ordering-comment`).
    pub rule: &'static str,
    /// Human-readable explanation with the offending token.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rtr-lint: {}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Crates whose non-test library code must justify every
/// `unwrap()`/`expect()` with an `// invariant:` comment. `bench`,
/// `datagen`, `eval` and the test/lint crates are deliberately absent —
/// the allowlist for harness code the issue carves out.
pub const EXPECT_CRATES: &[&str] = &[
    "serve",
    "cache",
    "distributed",
    "obs",
    "graph",
    "core",
    "net",
    "topk",
];

/// Crates whose src trees form the per-query hot path where `std`
/// hash collections are banned in favor of `SparseMap`/dense layouts.
pub const HOT_PATH_CRATES: &[&str] = &["core", "topk", "graph", "distributed"];

/// How many preceding lines an `// ordering:` / `// invariant:` marker
/// may sit above its annotated line (multi-line comments included).
pub const MARKER_WINDOW: usize = 4;

const ATOMIC_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

fn is_comment_line(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("#!")
}

/// `true` when `marker` appears on `lines[i]` or within the
/// [`MARKER_WINDOW`] lines above it.
fn has_adjacent_marker(lines: &[&str], i: usize, marker: &str) -> bool {
    let lo = i.saturating_sub(MARKER_WINDOW);
    lines[lo..=i].iter().any(|l| l.contains(marker))
}

/// Per-line mask of `#[cfg(test)]` items (gated modules/functions),
/// computed by brace tracking from each `#[cfg(test)]` attribute to the
/// close of the item it gates.
pub fn test_mask(lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim_start().starts_with("#[cfg(test)]") {
            let mut depth: i64 = 0;
            let mut started = false;
            let mut j = i;
            while j < lines.len() {
                mask[j] = true;
                for c in lines[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            started = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if started && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Rule 1: atomic `Ordering::` uses need an adjacent `// ordering:`
/// comment. Applies to every line of a src file, inline test modules
/// included — memory-ordering reasoning is documented everywhere.
pub fn check_ordering_comments(file: &str, lines: &[&str], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        if is_comment_line(line) {
            continue;
        }
        if !ATOMIC_ORDERINGS.iter().any(|o| line.contains(o)) {
            continue;
        }
        if !has_adjacent_marker(lines, i, "ordering:") {
            out.push(Violation {
                file: file.to_owned(),
                line: i + 1,
                rule: "ordering-comment",
                msg: format!(
                    "atomic Ordering:: use without an `// ordering:` comment \
                     within {MARKER_WINDOW} lines: `{}`",
                    line.trim()
                ),
            });
        }
    }
}

/// Rules 2 and 6: every line outside test items that `hits` needs
/// `marker` on it or within the [`MARKER_WINDOW`] lines above it.
fn check_marked_outside_tests(
    file: &str,
    lines: &[&str],
    out: &mut Vec<Violation>,
    rule: &'static str,
    marker: &str,
    hits: impl Fn(&str) -> bool,
) {
    let mask = test_mask(lines);
    for (i, line) in lines.iter().enumerate() {
        if mask[i] || is_comment_line(line) || !hits(line) {
            continue;
        }
        if !has_adjacent_marker(lines, i, marker) {
            out.push(Violation {
                file: file.to_owned(),
                line: i + 1,
                rule,
                msg: format!(
                    "no `// {marker}` comment within {MARKER_WINDOW} lines: `{}`",
                    line.trim()
                ),
            });
        }
    }
}

/// Rule 2: `unwrap()`/`expect()` in non-test library code needs an
/// adjacent `// invariant:` comment stating why it cannot fire.
pub fn check_invariant_expects(file: &str, lines: &[&str], out: &mut Vec<Violation>) {
    check_marked_outside_tests(file, lines, out, "invariant-expect", "invariant:", |l| {
        l.contains(".unwrap()") || l.contains(".expect(")
    });
}

/// Rule 6: `unsafe` in non-test code needs an adjacent `// SAFETY:`
/// comment stating why the unsafe contract holds.
pub fn check_safety_comments(file: &str, lines: &[&str], out: &mut Vec<Violation>) {
    check_marked_outside_tests(file, lines, out, "safety-comment", "SAFETY:", |l| {
        token_in_line(l, "unsafe")
    });
}

/// Rule 3: `HashMap`/`HashSet` are banned in hot-path (per-query
/// compute) modules outside test code — use `SparseMap` or dense
/// layouts instead.
pub fn check_hot_path_collections(file: &str, lines: &[&str], out: &mut Vec<Violation>) {
    let mask = test_mask(lines);
    for (i, line) in lines.iter().enumerate() {
        if mask[i] || is_comment_line(line) {
            continue;
        }
        for banned in ["HashMap", "HashSet"] {
            if token_in_line(line, banned) {
                out.push(Violation {
                    file: file.to_owned(),
                    line: i + 1,
                    rule: "hot-path-collections",
                    msg: format!(
                        "{banned} in a hot-path module (use SparseMap or a \
                         dense layout): `{}`",
                        line.trim()
                    ),
                });
            }
        }
    }
}

/// Rule 4: a library crate root must carry `#![deny(missing_docs)]`.
pub fn check_missing_docs_attr(file: &str, lines: &[&str], out: &mut Vec<Violation>) {
    if !lines.iter().any(|l| l.contains("#![deny(missing_docs)]")) {
        out.push(Violation {
            file: file.to_owned(),
            line: 1,
            rule: "missing-docs-attr",
            msg: "library crate root lacks `#![deny(missing_docs)]`".to_owned(),
        });
    }
}

/// `true` when `name` appears in `line` as a standalone token (not as a
/// substring of a longer identifier).
fn token_in_line(line: &str, name: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(name) {
        let start = from + pos;
        let end = start + name.len();
        let pre_ok = start == 0 || {
            let c = bytes[start - 1] as char;
            !c.is_alphanumeric() && c != '_'
        };
        let post_ok = end >= bytes.len() || {
            let c = bytes[end] as char;
            !c.is_alphanumeric() && c != '_'
        };
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

/// A `pub` name exported by the vendored shim, with its declaration
/// site and whether it carries the `// lint: allow(unused-shim)`
/// escape.
#[derive(Debug, Clone)]
pub struct ShimExport {
    /// The exported identifier.
    pub name: String,
    /// File it was collected from.
    pub file: String,
    /// 1-based declaration line.
    pub line: usize,
    /// `true` when the declaration (or the line above it) opts out of
    /// the parity check.
    pub allowed: bool,
}

/// Collect the shim's exported names from its source lines: leaf names
/// of every `pub use …;` plus column-0 `pub fn`/`pub struct`/`pub enum`
/// declarations. Items inside `mod checked` duplicate the re-exported
/// names, so per-name de-duplication happens in the caller.
pub fn collect_shim_exports(file: &str, lines: &[&str], out: &mut Vec<ShimExport>) {
    for (i, line) in lines.iter().enumerate() {
        let allowed = line.contains("lint: allow(unused-shim)")
            || (i > 0 && lines[i - 1].contains("lint: allow(unused-shim)"));
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("pub use ") {
            let rest = rest.trim_end_matches([';', ' ']);
            // `a::b::{X, Y}` → X, Y; `a::b::C` → C; skip globs/self.
            let leaves: Vec<&str> = if let Some(open) = rest.find('{') {
                rest[open + 1..rest.rfind('}').unwrap_or(rest.len())]
                    .split(',')
                    .map(str::trim)
                    .collect()
            } else {
                vec![rest.rsplit("::").next().unwrap_or(rest)]
            };
            for leaf in leaves {
                // `x as Alias` exports the alias name.
                let name = leaf.rsplit(" as ").next().unwrap_or(leaf).trim();
                if name.is_empty() || name == "self" || name == "*" || name.starts_with('$') {
                    continue;
                }
                out.push(ShimExport {
                    name: name.to_owned(),
                    file: file.to_owned(),
                    line: i + 1,
                    allowed,
                });
            }
        } else if !line.starts_with(' ') && !line.starts_with('\t') {
            for prefix in [
                "pub fn ",
                "pub struct ",
                "pub enum ",
                "pub trait ",
                "pub const ",
            ] {
                if let Some(rest) = t.strip_prefix(prefix) {
                    let name: String = rest
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if !name.is_empty() {
                        out.push(ShimExport {
                            name,
                            file: file.to_owned(),
                            line: i + 1,
                            allowed,
                        });
                    }
                }
            }
        }
    }
}

/// Rule 5: every shim export must be referenced (as a token, outside
/// comments) somewhere in the usage corpus. `exports` come from
/// [`collect_shim_exports`]; `corpus` is `(path, contents)` of every
/// workspace file allowed to count as usage.
pub fn check_shim_parity(
    exports: &[ShimExport],
    corpus: &[(String, String)],
    out: &mut Vec<Violation>,
) {
    let mut seen: Vec<&str> = Vec::new();
    for e in exports {
        if seen.contains(&e.name.as_str()) {
            continue;
        }
        seen.push(&e.name);
        if exports.iter().any(|x| x.name == e.name && x.allowed) {
            continue;
        }
        let used = corpus.iter().any(|(_, content)| {
            content
                .lines()
                .any(|l| !is_comment_line(l) && token_in_line(l, &e.name))
        });
        if !used {
            out.push(Violation {
                file: e.file.clone(),
                line: e.line,
                rule: "shim-parity",
                msg: format!(
                    "shim export `{}` is unused by the workspace — delete it \
                     or annotate with `// lint: allow(unused-shim)`",
                    e.name
                ),
            });
        }
    }
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .into_owned()
}

fn read(path: &Path) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// First-party library crate roots that must deny missing docs: every
/// `crates/*/src/lib.rs` plus the vendored shim (third-party vendor
/// stand-ins keep their upstream doc posture).
fn doc_lib_roots(root: &Path) -> Vec<PathBuf> {
    let mut roots = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            let lib = d.join("src/lib.rs");
            if lib.is_file() {
                roots.push(lib);
            }
        }
    }
    let shim = root.join("vendor/loom-shim/src/lib.rs");
    if shim.is_file() {
        roots.push(shim);
    }
    roots
}

/// Run every rule over the tree rooted at `root`, print violations to
/// stdout, and return the process exit code (0 clean, 1 violations,
/// 2 tree unreadable).
pub fn run(root: &Path) -> i32 {
    let mut violations = Vec::new();

    // Rules 1–3 and 6 over the src trees.
    let mut src_files = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in &dirs {
            walk_rs(&d.join("src"), &mut src_files);
        }
    }
    for v in ["loom-shim", "crossbeam"] {
        walk_rs(&root.join("vendor").join(v).join("src"), &mut src_files);
    }
    if src_files.is_empty() {
        eprintln!("rtr-lint: no source files found under {}", root.display());
        return 2;
    }
    for path in &src_files {
        let Some(content) = read(path) else { continue };
        let lines: Vec<&str> = content.lines().collect();
        let file = rel(root, path);
        // The linter's own sources carry the rule patterns as string
        // literals; a line-level scanner cannot tell those from real
        // uses, so the lint crate checks itself via its unit tests.
        if file.starts_with("crates/lint/") {
            continue;
        }
        check_ordering_comments(&file, &lines, &mut violations);
        let in_crates = |set: &[&str]| {
            set.iter()
                .any(|c| file.starts_with(&format!("crates/{c}/src")))
        };
        if in_crates(EXPECT_CRATES) {
            check_invariant_expects(&file, &lines, &mut violations);
        }
        if in_crates(HOT_PATH_CRATES) {
            check_hot_path_collections(&file, &lines, &mut violations);
        }
        check_safety_comments(&file, &lines, &mut violations);
    }

    // Rule 4 over library crate roots.
    for lib in doc_lib_roots(root) {
        let Some(content) = read(&lib) else { continue };
        let lines: Vec<&str> = content.lines().collect();
        check_missing_docs_attr(&rel(root, &lib), &lines, &mut violations);
    }

    // Rule 5: shim exports vs. the workspace usage corpus (everything
    // under crates/ plus crossbeam's shim-consuming internals and the
    // shim's own contract tests).
    let mut exports = Vec::new();
    let mut shim_src = Vec::new();
    walk_rs(&root.join("vendor/loom-shim/src"), &mut shim_src);
    for path in &shim_src {
        let Some(content) = read(path) else { continue };
        let lines: Vec<&str> = content.lines().collect();
        collect_shim_exports(&rel(root, path), &lines, &mut exports);
    }
    let mut corpus_files = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in &dirs {
            walk_rs(d, &mut corpus_files);
        }
    }
    walk_rs(&root.join("vendor/crossbeam/src"), &mut corpus_files);
    walk_rs(&root.join("vendor/loom-shim/tests"), &mut corpus_files);
    let corpus: Vec<(String, String)> = corpus_files
        .iter()
        .filter_map(|p| read(p).map(|c| (rel(root, p), c)))
        .collect();
    check_shim_parity(&exports, &corpus, &mut violations);

    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        println!(
            "rtr-lint: clean — {} files checked, {} shim exports verified",
            src_files.len(),
            exports.len()
        );
        0
    } else {
        println!("rtr-lint: {} violation(s)", violations.len());
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(s: &str) -> Vec<&str> {
        s.lines().collect()
    }

    #[test]
    fn ordering_without_comment_fails() {
        let src = "fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Acquire)\n}\n";
        let mut out = Vec::new();
        check_ordering_comments("x.rs", &lines(src), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "ordering-comment");
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn ordering_with_adjacent_comment_passes() {
        let src = "fn f(a: &AtomicU64) -> u64 {\n    // ordering: Acquire — pairs with the Release store in g().\n    a.load(Ordering::Acquire)\n}\n";
        let mut out = Vec::new();
        check_ordering_comments("x.rs", &lines(src), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn ordering_comment_beyond_window_fails() {
        let src = "// ordering: too far away\n\n\n\n\nlet v = a.load(Ordering::Relaxed);\n";
        let mut out = Vec::new();
        check_ordering_comments("x.rs", &lines(src), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn expect_without_invariant_fails_and_test_code_is_exempt() {
        let src = "pub fn f(m: &Mutex<u32>) -> u32 {\n    *m.lock().expect(\"poisoned\")\n}\n#[cfg(test)]\nmod tests {\n    fn g() {\n        foo().unwrap();\n    }\n}\n";
        let mut out = Vec::new();
        check_invariant_expects("x.rs", &lines(src), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn documented_expect_passes() {
        let src = "pub fn f(m: &Mutex<u32>) -> u32 {\n    // invariant: no user code runs under this lock.\n    *m.lock().expect(\"poisoned\")\n}\n";
        let mut out = Vec::new();
        check_invariant_expects("x.rs", &lines(src), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hot_path_hashmap_fails_but_comments_and_tests_pass() {
        let src = "use std::collections::HashMap;\n// a HashMap in a comment is fine\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        let mut out = Vec::new();
        check_hot_path_collections("x.rs", &lines(src), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn hashmap_substring_of_identifier_is_not_flagged() {
        let src = "struct MyHashMapLike;\nlet x = NotAHashMap2::new();\n";
        let mut out = Vec::new();
        check_hot_path_collections("x.rs", &lines(src), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unsafe_needs_an_adjacent_safety_comment_outside_tests() {
        let src = "fn g(p: *const u8) -> u8 {\n    unsafe { *p }\n}\nfn f(p: *const u8) -> u8 {\n    // SAFETY: the caller passes a live pointer.\n    unsafe { *p }\n}\n#[cfg(test)]\nmod tests {\n    unsafe impl Send for X {}\n}\n";
        let mut out = Vec::new();
        check_safety_comments("x.rs", &lines(src), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "safety-comment");
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn missing_docs_attr_detected() {
        let mut out = Vec::new();
        check_missing_docs_attr("lib.rs", &lines("//! docs\npub fn f() {}\n"), &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        check_missing_docs_attr(
            "lib.rs",
            &lines("#![deny(missing_docs)]\n//! docs\n"),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn unused_shim_export_is_flagged_and_allow_escape_works() {
        let shim = "pub use std::sync::{Arc, Mutex};\n// lint: allow(unused-shim)\npub fn internal_only() {}\npub fn dead_fn() {}\n";
        let mut exports = Vec::new();
        collect_shim_exports("shim.rs", &lines(shim), &mut exports);
        let names: Vec<&str> = exports.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["Arc", "Mutex", "internal_only", "dead_fn"]);
        let corpus = vec![(
            "user.rs".to_owned(),
            "use shim::Arc;\nfn f() { let _ = Mutex::new(0); }\n// dead_fn mentioned in a comment only\n"
                .to_owned(),
        )];
        let mut out = Vec::new();
        check_shim_parity(&exports, &corpus, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "shim-parity");
        assert!(out[0].msg.contains("dead_fn"));
    }

    #[test]
    fn pub_use_leaf_and_alias_parsing() {
        let shim = "pub use a::b::Leaf;\npub use c::d as Renamed;\npub use e::{self, X};\n";
        let mut exports = Vec::new();
        collect_shim_exports("shim.rs", &lines(shim), &mut exports);
        let names: Vec<&str> = exports.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["Leaf", "Renamed", "X"]);
    }

    #[test]
    fn run_is_clean_on_this_workspace() {
        // The linter's own acceptance check: the real tree passes.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(run(&root), 0);
    }
}
