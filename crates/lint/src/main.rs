//! `tss-lint` — the static side of the tss-verify layer (DESIGN.md §10).
//!
//! The model checker (`vendor/shuttle`) explores what the code *does*
//! under weak memory; this binary pins down what the code *says*:
//!
//! 1. **SAFETY discipline** — every `unsafe` token must be preceded by
//!    a `// SAFETY:` comment (same line, or the comment/attribute block
//!    directly above; chained `unsafe impl` lines may share one).
//! 2. **Relaxed rationales** — every `Ordering::Relaxed` in first-party
//!    code must carry a `// relaxed: <rationale>` comment, found by the
//!    same adjacency walk as check 1: on its own line, or in the
//!    comment block directly above its statement (a multi-line
//!    statement, or a run of sibling lines, shares one). A tag with no
//!    `Relaxed` under it is an error too, so a rationale cannot outlive
//!    its site — and moving code moves its rationale with it.
//! 3. **Facade rule** — inside the execution core (`crates/exec/src/*`
//!    except the facade itself, plus `crates/core/src/fabric.rs`),
//!    atomics/Mutex/Condvar must come from `crate::sync` /
//!    `tss_exec::sync`, never `std::sync` directly — otherwise the
//!    model checker silently loses sight of them (DESIGN.md §10.1).
//! 4. **Citation integrity** — every `DESIGN.md §N[.M]` reference in a
//!    source comment must resolve to a real heading in DESIGN.md.
//! 5. **Crate hygiene** — every crate root carries
//!    `#![forbid(unsafe_code)]`, or (for a crate with an audited unsafe
//!    surface: `tss-exec`'s deque buffers, `tss-obs`'s one
//!    `clock_gettime` call) `#![deny(unsafe_op_in_unsafe_fn)]`.
//! 6. **Join discipline** — production code must not `.unwrap()` /
//!    `.expect(` a `JoinHandle` result (`.join().unwrap()` et al.): a
//!    panicking worker must surface as a structured failure
//!    (`TaskFailure` / `ExecError::WorkerPanic`, DESIGN.md §11), never
//!    re-panic in the joiner. Test code (`/tests/`, a `model_tests.rs`
//!    its parent gates, and `#[cfg(test)]`-gated regions) is exempt —
//!    there a panic *is* the failure report.
//! 7. **Timing facade** — production code in `crates/exec/src/` must
//!    not call `std::time::Instant::now()` directly: all wall-clock
//!    reads go through `tss_obs::clock::Stamp` (DESIGN.md §12.1), so
//!    the observability layer sees every timestamp source and the
//!    noop/ring builds cannot drift in timing semantics. Test regions
//!    are exempt, as in check 6.
//! 8. **Socket discipline** — production code in the service crates
//!    (`crates/proto`, `crates/server`, `crates/client`) must not
//!    `.unwrap()` / `.expect(` a socket I/O result (read/write/flush/
//!    accept/connect/shutdown and the setsockopt-style setters): a
//!    peer can sever the connection at any byte, so I/O failure must
//!    become a structured session error (DESIGN.md §14.2), never a
//!    server-side panic. Test regions are exempt, as in check 6.
//!
//! All checks run on a comment/string-stripped view of the source where
//! that matters (so `"unsafe"` in a string or `Relaxed` in a doc
//! comment never trips a check), while SAFETY/citation scanning reads
//! the raw text (that is where the comments live). Exit status is
//! nonzero iff any violation is found — CI's `verify` job gates on it.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One lint finding, pointing at `file:line` (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Violation {
    file: String,
    line: usize,
    msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.msg)
    }
}

// ---------------------------------------------------------------------
// Source stripping
// ---------------------------------------------------------------------

/// Replaces the *contents* of comments, string literals, and char
/// literals with spaces, preserving every newline so line numbers in
/// the stripped text match the raw text. Handles nested block
/// comments, escapes, raw strings (`r"..."`, `r#"..."#`, `br"..."`),
/// byte strings, and tells lifetimes (`'a`) apart from char literals.
fn strip_code(src: &str) -> String {
    strip_code_opts(src, false)
}

/// Like [`strip_code`], but keeps comment text (the citation check
/// reads comments while still ignoring string literals, so a bogus
/// section token inside a test-fixture string is not a citation).
fn strip_strings(src: &str) -> String {
    strip_code_opts(src, true)
}

fn strip_code_opts(src: &str, keep_comments: bool) -> String {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    // Pushes a char as-is if it's a newline, else a space.
    fn blank(out: &mut String, c: char) {
        out.push(if c == '\n' { '\n' } else { ' ' });
    }
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    while i < n {
        let c = b[i];
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                if keep_comments {
                    out.push(b[i]);
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            continue;
        }
        // Block comment (nesting).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 0;
            while i < n {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    if keep_comments {
                        out.push('/');
                        out.push('*');
                    } else {
                        out.push(' ');
                        out.push(' ');
                    }
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    if keep_comments {
                        out.push('*');
                        out.push('/');
                    } else {
                        out.push(' ');
                        out.push(' ');
                    }
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if keep_comments {
                        out.push(b[i]);
                    } else {
                        blank(&mut out, b[i]);
                    }
                    i += 1;
                }
            }
            continue;
        }
        // Raw / byte string starts, unless `r`/`b` is part of an identifier.
        let prev_ident = i > 0 && ident(b[i - 1]);
        if !prev_ident && (c == 'r' || c == 'b') {
            let mut j = i;
            if b[j] == 'b' && j + 1 < n && b[j + 1] == 'r' {
                j += 1;
            }
            let mut k = j + 1;
            let mut hashes = 0;
            while b[j] == 'r' && k < n && b[k] == '#' {
                hashes += 1;
                k += 1;
            }
            if k < n && b[k] == '"' {
                // Emit the prefix + opening quote literally.
                for &p in &b[i..=k] {
                    out.push(p);
                }
                i = k + 1;
                // Raw strings have no escapes; plain `b"` does.
                let raw = b[j] == 'r';
                while i < n {
                    if b[i] == '"' {
                        if raw {
                            let close = (1..=hashes).all(|h| i + h < n && b[i + h] == '#');
                            if close {
                                out.push('"');
                                for _ in 0..hashes {
                                    out.push('#');
                                }
                                i += 1 + hashes;
                                break;
                            }
                            blank(&mut out, b[i]);
                            i += 1;
                        } else {
                            out.push('"');
                            i += 1;
                            break;
                        }
                    } else if !raw && b[i] == '\\' && i + 1 < n {
                        blank(&mut out, b[i]);
                        blank(&mut out, b[i + 1]);
                        i += 2;
                    } else {
                        blank(&mut out, b[i]);
                        i += 1;
                    }
                }
                continue;
            }
        }
        // Plain string literal.
        if c == '"' {
            out.push('"');
            i += 1;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    blank(&mut out, b[i]);
                    blank(&mut out, b[i + 1]);
                    i += 2;
                } else if b[i] == '"' {
                    out.push('"');
                    i += 1;
                    break;
                } else {
                    blank(&mut out, b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let escaped = i + 1 < n && b[i + 1] == '\\';
            let closed = i + 2 < n && b[i + 2] == '\'';
            if escaped {
                out.push('\'');
                i += 1;
                while i < n && b[i] != '\'' {
                    blank(&mut out, b[i]);
                    i += 1;
                }
                if i < n {
                    out.push('\'');
                    i += 1;
                }
                continue;
            }
            if closed {
                out.push('\'');
                blank(&mut out, b[i + 1]);
                out.push('\'');
                i += 3;
                continue;
            }
            // Lifetime — leave as-is.
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Whether `line` contains `word` bounded by non-identifier chars.
fn has_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !ident(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !ident(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

// ---------------------------------------------------------------------
// Check 1: SAFETY comments on unsafe
// ---------------------------------------------------------------------

/// The adjacency walk checks 1 and 2 share: the line whose comment
/// `tagged` accepts and that covers line `i` — line `i` itself, or a
/// line of the comment/attribute block directly above it, walking over
/// code lines that `chained` says belong with line `i`. Anything else
/// (a blank line, unrelated code) ends the walk.
fn covering_comment(
    raw: &[&str],
    i: usize,
    tagged: impl Fn(usize) -> bool,
    chained: impl Fn(usize) -> bool,
) -> Option<usize> {
    if tagged(i) {
        return Some(i);
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = raw[j].trim_start();
        let comment = t.starts_with("//") || t.starts_with("/*") || t.starts_with('*') || t == "*/";
        if comment {
            if tagged(j) {
                return Some(j);
            }
            continue;
        }
        if t.starts_with("#[") || t.starts_with("#![") || chained(j) {
            continue;
        }
        break;
    }
    None
}

/// Every line whose *stripped* text contains the `unsafe` keyword must
/// carry a `SAFETY:` justification: on the same raw line, or in the
/// comment/attribute block directly above (walking over chained
/// `unsafe impl` lines so a pair of Send/Sync impls can share one).
fn check_unsafe_documented(file: &str, raw: &[&str], stripped: &[&str]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, s) in stripped.iter().enumerate() {
        if !has_word(s, "unsafe") {
            continue;
        }
        let documented = covering_comment(
            raw,
            i,
            |j| raw[j].contains("SAFETY:"),
            |j| has_word(stripped[j], "unsafe"),
        );
        if documented.is_none() {
            out.push(Violation {
                file: file.to_string(),
                line: i + 1,
                msg: "`unsafe` without a preceding `// SAFETY:` comment".into(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Check 2: Ordering::Relaxed rationales at the site
// ---------------------------------------------------------------------

const RELAXED_TAG: &str = "// relaxed:";

/// The rationale of the `// relaxed:` tag on one line, if the line has
/// one. `commented` is the line with string literals blanked, `code`
/// the same line with comments blanked too: the tag must *open* a line
/// comment (everything before it is code), so a doc sentence that
/// quotes the syntax is not a tag.
fn relaxed_tag<'a>(commented: &'a str, code: &str) -> Option<&'a str> {
    let at = commented.find(RELAXED_TAG)?;
    (commented[..at].trim() == code.trim()).then(|| commented[at + RELAXED_TAG.len()..].trim())
}

/// Every `Ordering::Relaxed` must be covered by a `// relaxed:` tag
/// with a rationale, and every tag must cover one. A code line above
/// the site belongs to the same statement (or to a run of siblings —
/// struct fields, match arms, call arguments) unless it ends one with
/// `;`, `{` or `}`. Returns the number of sites next to the findings.
fn check_relaxed(
    file: &str,
    raw: &[&str],
    commented: &[&str],
    stripped: &[&str],
) -> (usize, Vec<Violation>) {
    let tag = |j: usize| relaxed_tag(commented[j], stripped[j]);
    let violation = |line: usize, msg: &str| Violation {
        file: file.to_string(),
        line: line + 1,
        msg: msg.into(),
    };

    let mut out = Vec::new();
    let mut sites = 0;
    let mut used = BTreeSet::new();
    for i in (0..stripped.len()).filter(|&i| stripped[i].contains("Ordering::Relaxed")) {
        sites += 1;
        let same_statement = |j: usize| {
            let code = stripped[j].trim_end();
            !code.is_empty() && !code.ends_with([';', '{', '}'])
        };
        match covering_comment(raw, i, |j| tag(j).is_some(), same_statement) {
            Some(j) => {
                used.insert(j);
            }
            None => out.push(violation(
                i,
                "`Ordering::Relaxed` without a `// relaxed: <rationale>` comment on its line \
                 or directly above its statement (say why no ordering is needed here, or \
                 strengthen it)",
            )),
        }
    }
    for j in 0..commented.len() {
        match tag(j) {
            Some("") => out.push(violation(j, "`// relaxed:` tag without a rationale")),
            Some(_) if !used.contains(&j) => out.push(violation(
                j,
                "`// relaxed:` tag with no `Ordering::Relaxed` under it (a rationale that \
                 outlived its site)",
            )),
            _ => {}
        }
    }
    (sites, out)
}

// ---------------------------------------------------------------------
// Check 3: sync facade
// ---------------------------------------------------------------------

/// Whether `file` (repo-relative, `/`-separated) is inside the facade
/// boundary: all of `crates/exec/src/` except the facade itself, plus
/// the fabric (which shares the model-checked claim protocol).
fn facade_scoped(file: &str) -> bool {
    (file.starts_with("crates/exec/src/") && file != "crates/exec/src/sync.rs")
        || file == "crates/core/src/fabric.rs"
}

fn check_facade(file: &str, stripped: &[&str]) -> Vec<Violation> {
    if !facade_scoped(file) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, s) in stripped.iter().enumerate() {
        let direct = s.contains("std::sync::atomic")
            || s.contains("std::sync::Mutex")
            || s.contains("std::sync::Condvar");
        let grouped = s.contains("std::sync::{")
            && (s.contains("Mutex") || s.contains("Condvar") || s.contains("atomic"));
        if direct || grouped {
            out.push(Violation {
                file: file.to_string(),
                line: i + 1,
                msg: "atomics/locks must be imported via the sync facade \
                      (`crate::sync` / `tss_exec::sync`), not `std::sync` — \
                      the model checker cannot see std primitives (DESIGN.md §10.1)"
                    .into(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Check 4: DESIGN.md § citations
// ---------------------------------------------------------------------

/// Extracts every `§N[.M[...]]` token from `text`, not consuming a
/// trailing `.` that ends a sentence (`…DESIGN.md §4.` cites §4).
fn section_tokens(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (li, line) in text.lines().enumerate() {
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            if chars[i] != '§' {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            let mut tok = String::new();
            while j < chars.len() && chars[j].is_ascii_digit() {
                tok.push(chars[j]);
                j += 1;
            }
            // Dotted components, only when a digit follows the dot.
            while j + 1 < chars.len() && chars[j] == '.' && chars[j + 1].is_ascii_digit() {
                tok.push('.');
                j += 1;
                while j < chars.len() && chars[j].is_ascii_digit() {
                    tok.push(chars[j]);
                    j += 1;
                }
            }
            if !tok.is_empty() {
                out.push((li + 1, tok));
            }
            i = j.max(i + 1);
        }
    }
    out
}

/// Headings defined in DESIGN.md: every `§` token on a markdown
/// heading line (`#`…).
fn design_headings(design: &str) -> BTreeSet<String> {
    design
        .lines()
        .filter(|l| l.starts_with('#'))
        .flat_map(|l| section_tokens(l).into_iter().map(|(_, t)| t))
        .collect()
}

fn check_citations(file: &str, raw_text: &str, headings: &BTreeSet<String>) -> Vec<Violation> {
    section_tokens(raw_text)
        .into_iter()
        .filter(|(_, tok)| !headings.contains(tok))
        .map(|(line, tok)| Violation {
            file: file.to_string(),
            line,
            msg: format!("citation §{tok} does not match any DESIGN.md heading"),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Check 5: crate hygiene
// ---------------------------------------------------------------------

fn check_hygiene(file: &str, raw_text: &str) -> Vec<Violation> {
    let ok = raw_text.contains("#![forbid(unsafe_code)]")
        || raw_text.contains("#![deny(unsafe_op_in_unsafe_fn)]");
    if ok {
        Vec::new()
    } else {
        vec![Violation {
            file: file.to_string(),
            line: 1,
            msg: "crate root lacks `#![forbid(unsafe_code)]` (or, for an audited \
                  unsafe surface, `#![deny(unsafe_op_in_unsafe_fn)]`)"
                .into(),
        }]
    }
}

// ---------------------------------------------------------------------
// Check 6: JoinHandle results must not be unwrapped in production code
// ---------------------------------------------------------------------

/// Marks the lines covered by a `#[cfg(...test...)]` attribute: the
/// attribute itself, any stacked attributes/comments, and the gated
/// item's whole brace block (tracked by depth). A brace-less gated item
/// (e.g. `#[cfg(test)] use ...;`) ends at its semicolon.
fn test_region_mask(stripped: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; stripped.len()];
    let mut i = 0;
    while i < stripped.len() {
        let t = stripped[i].trim_start();
        if t.starts_with("#[cfg(") && has_word(t, "test") {
            let mut depth = 0usize;
            let mut opened = false;
            let mut j = i;
            while j < stripped.len() {
                mask[j] = true;
                let mut ended = false;
                for c in stripped[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth = depth.saturating_sub(1);
                            if opened && depth == 0 {
                                ended = true;
                            }
                        }
                        ';' if !opened && depth == 0 => ended = true,
                        _ => {}
                    }
                }
                if ended {
                    break;
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Whether `file` (repo-relative) is test-only by location.
fn test_scoped_path(file: &str) -> bool {
    file.split('/').any(|seg| seg == "tests" || seg == "model_tests.rs")
}

/// Flags `.join().unwrap()` / `.join().expect(` outside test regions.
/// Line-based on stripped source: the ban is on the *idiom* of joining
/// and re-panicking in one breath — a split chain that stashes the
/// `Result` first is exactly the structured handling we want.
fn check_join_discipline(file: &str, stripped: &[&str]) -> Vec<Violation> {
    if test_scoped_path(file) {
        return Vec::new();
    }
    let mask = test_region_mask(stripped);
    let mut out = Vec::new();
    for (i, s) in stripped.iter().enumerate() {
        if mask[i] {
            continue;
        }
        if s.contains(".join().unwrap()") || s.contains(".join().expect(") {
            out.push(Violation {
                file: file.to_string(),
                line: i + 1,
                msg: "JoinHandle result unwrapped in production code — a dead worker \
                      must become a structured failure (TaskFailure / \
                      ExecError::WorkerPanic, DESIGN.md §11), not a joiner panic"
                    .into(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Check 7: wall-clock reads go through the timing facade
// ---------------------------------------------------------------------

/// Flags `Instant::now` in execution-core production code. The obs
/// sink selection (DESIGN.md §12.1) hinges on every executor timestamp
/// flowing through `tss_obs::clock::Stamp`; a stray raw read would
/// give the noop and ring builds different timing sources. Matches the
/// bare token, so `std::time::Instant::now()` and an imported
/// `Instant::now()` are both caught.
fn check_instant_discipline(file: &str, stripped: &[&str]) -> Vec<Violation> {
    if !file.starts_with("crates/exec/src/") || test_scoped_path(file) {
        return Vec::new();
    }
    let mask = test_region_mask(stripped);
    let mut out = Vec::new();
    for (i, s) in stripped.iter().enumerate() {
        if mask[i] {
            continue;
        }
        if s.contains("Instant::now") {
            out.push(Violation {
                file: file.to_string(),
                line: i + 1,
                msg: "raw `Instant::now()` in the execution core — route the read \
                      through `tss_obs::clock::Stamp` (DESIGN.md §12.1) so both \
                      sink builds share one timing facade"
                    .into(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Check 8: socket I/O results become structured errors, not panics
// ---------------------------------------------------------------------

/// Socket-facing call tokens whose `Result` must never be unwrapped in
/// the service crates. Matches the std I/O surface plus this repo's
/// framed-wire wrappers; a lock `.expect("poisoned")` on the same line
/// as none of these is untouched.
const SOCKET_CALLS: [&str; 12] = [
    ".read(",
    ".read_exact(",
    ".read_to_end(",
    ".write(",
    ".write_all(",
    ".flush(",
    ".accept(",
    ".shutdown(",
    ".set_read_timeout(",
    "TcpStream::connect",
    "read_frame(",
    "write_frame(",
];

/// Whether `file` (repo-relative) is service-crate production source.
fn socket_scoped_path(file: &str) -> bool {
    file.starts_with("crates/proto/src/")
        || file.starts_with("crates/server/src/")
        || file.starts_with("crates/client/src/")
}

/// Flags `.unwrap()` / `.expect(` on a line that performs socket I/O
/// in `crates/proto`, `crates/server`, or `crates/client`. A peer can
/// sever the connection at any byte, so an I/O failure there is an
/// expected event: it must become a structured session error
/// (DESIGN.md §14.2) that isolates the one session, never a panic that
/// can take a server thread — and the graphs it owes replies for —
/// down with it. Test regions are exempt, as in check 6.
fn check_socket_unwrap(file: &str, stripped: &[&str]) -> Vec<Violation> {
    if !socket_scoped_path(file) || test_scoped_path(file) {
        return Vec::new();
    }
    let mask = test_region_mask(stripped);
    let mut out = Vec::new();
    for (i, s) in stripped.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let unwraps = s.contains(".unwrap()") || s.contains(".expect(");
        if unwraps && SOCKET_CALLS.iter().any(|tok| s.contains(tok)) {
            out.push(Violation {
                file: file.to_string(),
                line: i + 1,
                msg: "socket I/O result unwrapped in a service crate — a severed \
                      peer is an expected event, so it must become a structured \
                      session error (DESIGN.md §14.2), not a server panic"
                    .into(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = rd.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if name != "target" && !name.starts_with('.') {
                walk_rs(&p, out);
            }
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root).unwrap_or(p).to_string_lossy().replace('\\', "/")
}

struct LoadedFile {
    rel: String,
    raw: String,
    /// String literals blanked, comments kept (checks 2 and 4).
    commented: String,
    /// Comments blanked too: code only.
    stripped: String,
}

fn load_files(root: &Path, dirs: &[&str]) -> Vec<LoadedFile> {
    let mut paths = Vec::new();
    for d in dirs {
        walk_rs(&root.join(d), &mut paths);
    }
    paths
        .into_iter()
        .filter_map(|p| {
            let raw = fs::read_to_string(&p).ok()?;
            let (commented, stripped) = (strip_strings(&raw), strip_code(&raw));
            Some(LoadedFile { rel: rel(root, &p), raw, commented, stripped })
        })
        .collect()
}

fn run(root: &Path) -> ExitCode {
    // First-party production + test code: checks 1–4.
    let core = load_files(root, &["src", "crates"]);
    // The vendored model checker is ours too: checks 1 and 4 (its own
    // mirror-store Relaxed uses are instrumentation, not protocol, so
    // check 2 doesn't cover it).
    let aux = load_files(root, &["vendor/shuttle/src"]);

    let mut violations = Vec::new();

    for f in core.iter().chain(aux.iter()) {
        let raw: Vec<&str> = f.raw.lines().collect();
        let stripped: Vec<&str> = f.stripped.lines().collect();
        violations.extend(check_unsafe_documented(&f.rel, &raw, &stripped));
    }

    let mut relaxed_sites = 0;
    for f in &core {
        let raw: Vec<&str> = f.raw.lines().collect();
        let commented: Vec<&str> = f.commented.lines().collect();
        let stripped: Vec<&str> = f.stripped.lines().collect();
        let (sites, found) = check_relaxed(&f.rel, &raw, &commented, &stripped);
        relaxed_sites += sites;
        violations.extend(found);
        violations.extend(check_facade(&f.rel, &stripped));
        violations.extend(check_join_discipline(&f.rel, &stripped));
        violations.extend(check_instant_discipline(&f.rel, &stripped));
        violations.extend(check_socket_unwrap(&f.rel, &stripped));
    }

    match fs::read_to_string(root.join("DESIGN.md")) {
        Ok(design) => {
            let headings = design_headings(&design);
            for f in core.iter().chain(aux.iter()) {
                violations.extend(check_citations(&f.rel, &f.commented, &headings));
            }
        }
        Err(_) => violations.push(Violation {
            file: "DESIGN.md".into(),
            line: 1,
            msg: "missing — citation check cannot run".into(),
        }),
    }

    let mut roots: Vec<PathBuf> =
        vec![root.join("src/lib.rs"), root.join("vendor/shuttle/src/lib.rs")];
    if let Ok(rd) = fs::read_dir(root.join("crates")) {
        for e in rd.flatten() {
            roots.push(e.path().join("src/lib.rs"));
        }
    }
    roots.sort();
    for p in roots {
        if let Ok(text) = fs::read_to_string(&p) {
            violations.extend(check_hygiene(&rel(root, &p), &text));
        }
    }

    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    for v in &violations {
        eprintln!("error: {v}");
    }
    if violations.is_empty() {
        eprintln!(
            "tss-lint: clean ({} files, {relaxed_sites} Relaxed sites annotated)",
            core.len() + aux.len(),
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("tss-lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => {
                    eprintln!("error: --root needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "tss-lint [--root DIR]\n\
                     Static checks for the tss execution core (DESIGN.md §10):\n\
                     SAFETY comments, `// relaxed:` rationales on every\n\
                     Ordering::Relaxed, the sync facade boundary, DESIGN.md\n\
                     citation integrity, crate hygiene attributes, the\n\
                     JoinHandle unwrap ban (DESIGN.md §11), the Instant::now\n\
                     timing-facade ban (DESIGN.md §12.1), and the socket-unwrap\n\
                     ban in the service crates (DESIGN.md §14.2). Exits nonzero on\n\
                     any violation."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    run(&root)
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(s: &str) -> Vec<&str> {
        s.lines().collect()
    }

    #[test]
    fn strip_blanks_comments_and_strings_but_keeps_lines() {
        let src = "let a = \"unsafe\"; // unsafe here\n/* unsafe\nstill */ let b = 'x';\n";
        let out = strip_code(src);
        assert_eq!(out.lines().count(), src.lines().count());
        assert!(!out.contains("unsafe"));
        assert!(out.contains("let a = "));
        assert!(out.contains("let b = "));
    }

    #[test]
    fn strip_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let s = r#\"Ordering::Relaxed \"quoted\"\"#; }";
        let out = strip_code(src);
        assert!(!out.contains("Relaxed"));
        assert!(out.contains("fn f<'a>(x: &'a str)"));
    }

    #[test]
    fn strip_handles_nested_block_comments_and_escapes() {
        let src = "/* outer /* inner */ still comment */ let c = '\\n'; let s = \"a\\\"unsafe\";";
        let out = strip_code(src);
        assert!(!out.contains("unsafe"));
        assert!(!out.contains("comment"));
        assert!(out.contains("let c ="));
    }

    #[test]
    fn word_boundaries_exclude_identifiers() {
        assert!(has_word("unsafe {", "unsafe"));
        assert!(has_word("x = unsafe;", "unsafe"));
        assert!(!has_word("unsafe_op_in_unsafe_fn", "unsafe"));
        assert!(!has_word("deny(unsafe_code)", "unsafe"));
    }

    #[test]
    fn documented_unsafe_passes() {
        let src = "\
// SAFETY: ptr is valid, see grow().
let x = unsafe { *p };
";
        let stripped = strip_code(src);
        let v = check_unsafe_documented("f.rs", &lines(src), &lines(&stripped));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn chained_unsafe_impls_share_one_comment() {
        let src = "\
// SAFETY: cells are atomics; cross-thread reads are validated.
unsafe impl Send for T {}
unsafe impl Sync for T {}
";
        let stripped = strip_code(src);
        let v = check_unsafe_documented("f.rs", &lines(src), &lines(&stripped));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn undocumented_unsafe_fails_even_behind_attr() {
        let src = "\
// just a comment, not the magic word
#[inline]
unsafe fn f() {}

let y = unsafe { g() };
";
        let stripped = strip_code(src);
        let v = check_unsafe_documented("f.rs", &lines(src), &lines(&stripped));
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert_eq!(v[1].line, 5);
    }

    #[test]
    fn unsafe_in_strings_and_comments_is_ignored() {
        let src = "let m = \"unsafe soup\"; // unsafe? no.\n";
        let stripped = strip_code(src);
        let v = check_unsafe_documented("f.rs", &lines(src), &lines(&stripped));
        assert!(v.is_empty(), "{v:?}");
    }

    /// Check 2 over one fixture file.
    fn relaxed(src: &str) -> (usize, Vec<Violation>) {
        let (commented, stripped) = (strip_strings(src), strip_code(src));
        check_relaxed("f.rs", &lines(src), &lines(&commented), &lines(&stripped))
    }

    #[test]
    fn relaxed_on_a_continuation_line_is_covered_by_the_tag_above_its_statement() {
        let src = "\
fn f() {
    other();
    // relaxed: CAS failure ordering; nothing is read on a lost race
    match self.top.compare_exchange(
        t,
        t + 1,
        Ordering::SeqCst,
        Ordering::Relaxed,
    ) {
        Ok(_) => {}
    }
    let len = b.load(Ordering::Relaxed)
        .wrapping_sub(t.load(Ordering::Relaxed));
}
";
        let (sites, v) = relaxed(src);
        assert_eq!(sites, 3);
        // The `len` statement sits below a `}`: nothing above covers it,
        // and its own continuation line does not either.
        let at: Vec<usize> = v.iter().map(|x| x.line).collect();
        assert_eq!(at, vec![12, 13], "{v:?}");
    }

    #[test]
    fn relaxed_tags_survive_line_shifts() {
        let src = "\
fn f() {
    let a = x.load(Ordering::Relaxed); // relaxed: advisory snapshot
    // relaxed: statistic, read after every worker joined;
    // the join is the happens-before edge
    #[allow(clippy::let_and_return)]
    let b = y.load(Ordering::Relaxed);
}
";
        assert_eq!(relaxed(src), (2, Vec::new()));
        // What the path:line-keyed list could not survive.
        let shifted = format!("\n\n\nuse a::b;\n\n{src}");
        assert_eq!(relaxed(&shifted), (2, Vec::new()), "a rationale moves with its site");
    }

    #[test]
    fn relaxed_flags_both_directions() {
        let src = "\
fn f() {
    // relaxed: counter only
    n.fetch_add(1, Ordering::Relaxed);

    m.fetch_add(1, Ordering::Relaxed);
    // relaxed: the load this explained was strengthened
    k.load(Ordering::Acquire);
    // relaxed:
    j.load(Ordering::Relaxed);
}
";
        let (sites, v) = relaxed(src);
        assert_eq!(sites, 3);
        let found: Vec<String> = v.iter().map(|x| x.to_string()).collect();
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(found[0].starts_with("f.rs:5: `Ordering::Relaxed` without"), "{found:?}");
        assert!(found[1].starts_with("f.rs:6: `// relaxed:` tag with no"), "{found:?}");
        assert!(found[2].starts_with("f.rs:8: `// relaxed:` tag without a rationale"), "{found:?}");
    }

    #[test]
    fn relaxed_in_comments_does_not_count() {
        let src = "\
// Ordering::Relaxed would be wrong here
//! Sites carry a `// relaxed: <rationale>` comment.
let fixture = \"// relaxed: in a string\";
x.load(Ordering::Acquire);
";
        let (sites, v) = relaxed(src);
        assert_eq!(sites, 0);
        assert!(v.is_empty(), "neither a site nor a tag: {v:?}");
    }

    #[test]
    fn facade_scope_is_exact() {
        assert!(facade_scoped("crates/exec/src/deque.rs"));
        assert!(facade_scoped("crates/exec/src/executor/mod.rs"));
        assert!(facade_scoped("crates/core/src/fabric.rs"));
        assert!(!facade_scoped("crates/exec/src/sync.rs"));
        assert!(!facade_scoped("crates/core/src/lib.rs"));
        assert!(!facade_scoped("vendor/shuttle/src/sync.rs"));
    }

    #[test]
    fn facade_catches_std_sync_imports() {
        let src = "\
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex};
use std::sync::Arc;
use crate::sync::atomic::AtomicU32;
";
        let stripped = strip_code(src);
        let v = check_facade("crates/exec/src/deque.rs", &lines(&stripped));
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!((v[0].line, v[1].line), (1, 2));
    }

    #[test]
    fn citation_tokens_trim_sentence_periods() {
        let toks = section_tokens("see DESIGN.md §4. Also §9.2. And §10.1, §3");
        let vals: Vec<&str> = toks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(vals, vec!["4", "9.2", "10.1", "3"]);
    }

    #[test]
    fn citations_resolve_against_headings() {
        let design = "# DESIGN\n## §1 Intro\n### §1.1 Sub\n## §2 More\nbody §99 not a heading\n";
        let headings = design_headings(design);
        assert!(headings.contains("1.1") && !headings.contains("99"));
        let v = check_citations("f.rs", "// §1.1 ok\n// §2 ok\n// §9.9 nope\n", &headings);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert!(v[0].msg.contains("§9.9"));
    }

    #[test]
    fn citations_in_string_literals_are_not_citations() {
        let src = "// real cite §1\nlet fixture = \"fake cite §99\";\n";
        let kept = strip_strings(src);
        let toks: Vec<String> = section_tokens(&kept).into_iter().map(|(_, t)| t).collect();
        assert_eq!(toks, vec!["1"]);
    }

    #[test]
    fn join_unwrap_outside_tests_is_flagged() {
        let src = "\
fn joiner(h: std::thread::JoinHandle<()>) {
    h.join().unwrap();
}
fn expecter(h: std::thread::JoinHandle<()>) {
    h.join().expect(\"worker died\");
}
fn structured(h: std::thread::JoinHandle<()>) -> bool {
    h.join().is_err()
}
";
        let stripped = strip_code(src);
        let v = check_join_discipline("crates/exec/src/executor/mod.rs", &lines(&stripped));
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!((v[0].line, v[1].line), (2, 5));
        assert!(v[0].msg.contains("WorkerPanic"));
    }

    #[test]
    fn join_unwrap_inside_cfg_test_regions_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn f(h: std::thread::JoinHandle<()>) {
        h.join().unwrap();
    }
}
fn prod(h: std::thread::JoinHandle<()>) {
    h.join().unwrap();
}
";
        let stripped = strip_code(src);
        let v = check_join_discipline("crates/exec/src/deque.rs", &lines(&stripped));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 8);
    }

    #[test]
    fn join_unwrap_in_test_paths_and_unwrap_or_else_are_exempt() {
        let src = "h.join().unwrap();\n";
        let stripped = strip_code(src);
        assert!(check_join_discipline("crates/exec/tests/chaos.rs", &lines(&stripped)).is_empty());
        assert!(check_join_discipline("crates/exec/src/deque/model_tests.rs", &lines(&stripped))
            .is_empty());
        // The structured fallback is the idiom we *want*; it must not match.
        let ok = "let r = h.join().unwrap_or_else(|p| handle(p));\n";
        let stripped = strip_code(ok);
        assert!(
            check_join_discipline("crates/exec/src/executor/mod.rs", &lines(&stripped)).is_empty()
        );
    }

    #[test]
    fn instant_now_in_exec_production_code_is_flagged() {
        let src = "\
fn timer() {
    let t0 = std::time::Instant::now();
    let t1 = Instant::now();
    let s = tss_obs::clock::Stamp::now();
}
";
        let stripped = strip_code(src);
        let v = check_instant_discipline("crates/exec/src/executor/mod.rs", &lines(&stripped));
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!((v[0].line, v[1].line), (2, 3));
        assert!(v[0].msg.contains("Stamp"), "must point at the facade: {}", v[0].msg);
        // The facade's own `Stamp::now()` never matches.
        assert!(!v.iter().any(|x| x.line == 4), "{v:?}");
    }

    #[test]
    fn instant_now_outside_the_exec_core_or_in_tests_is_exempt() {
        let src = "let t0 = Instant::now();\n";
        let stripped = strip_code(src);
        // Other crates keep their own timing (harnesses time whole runs).
        assert!(
            check_instant_discipline("crates/bench/src/bin/exec.rs", &lines(&stripped)).is_empty()
        );
        assert!(check_instant_discipline("crates/obs/src/clock.rs", &lines(&stripped)).is_empty());
        // Integration tests of the exec crate are exempt by path.
        assert!(
            check_instant_discipline("crates/exec/tests/chaos.rs", &lines(&stripped)).is_empty()
        );
        // #[cfg(test)] regions inside the core are exempt by mask.
        let gated = "#[cfg(test)]\nmod tests {\n    fn f() { Instant::now(); }\n}\n";
        let stripped = strip_code(gated);
        assert!(check_instant_discipline("crates/exec/src/executor/mod.rs", &lines(&stripped))
            .is_empty());
        // Comments and strings never count.
        let doc = "// Instant::now() is banned here\nlet s = \"Instant::now\";\n";
        let stripped = strip_code(doc);
        assert!(
            check_instant_discipline("crates/exec/src/payload.rs", &lines(&stripped)).is_empty()
        );
    }

    #[test]
    fn socket_unwrap_in_service_production_code_is_flagged() {
        let src = "\
fn f(s: &mut TcpStream, buf: &[u8]) {
    s.write_all(buf).unwrap();
    s.read_exact(&mut hdr).expect(\"short read\");
    let frame = read_frame(s).unwrap();
    s.write_all(buf)?;
}
";
        let stripped = strip_code(src);
        let v = check_socket_unwrap("crates/server/src/session.rs", &lines(&stripped));
        assert_eq!(v.len(), 3, "{v:?}");
        assert_eq!((v[0].line, v[1].line, v[2].line), (2, 3, 4));
        assert!(v[0].msg.contains("structured"), "points at session errors: {}", v[0].msg);
        // The same code in the client crate is equally in scope.
        assert_eq!(check_socket_unwrap("crates/client/src/lib.rs", &lines(&stripped)).len(), 3);
    }

    #[test]
    fn socket_unwrap_spares_locks_tests_and_other_crates() {
        // A poisoned-lock expect is a deliberate invariant, not socket I/O.
        let lock = "let st = self.state.lock().expect(\"pool state poisoned\");\n";
        let stripped = strip_code(lock);
        assert!(check_socket_unwrap("crates/server/src/runner.rs", &lines(&stripped)).is_empty());

        let bad = "s.write_all(buf).unwrap();\n";
        let stripped = strip_code(bad);
        // Integration tests of the service crates are exempt by path...
        assert!(check_socket_unwrap("crates/server/tests/chaos.rs", &lines(&stripped)).is_empty());
        // ...and so is everything outside proto/server/client entirely.
        assert!(check_socket_unwrap("crates/bench/src/bin/serve.rs", &lines(&stripped)).is_empty());
        assert!(
            check_socket_unwrap("crates/exec/src/executor/mod.rs", &lines(&stripped)).is_empty()
        );

        // #[cfg(test)] regions inside a service crate are exempt by mask.
        let gated = "#[cfg(test)]\nmod tests {\n    fn f() { s.write_all(b).unwrap(); }\n}\n";
        let stripped = strip_code(gated);
        assert!(check_socket_unwrap("crates/proto/src/wire.rs", &lines(&stripped)).is_empty());
    }

    #[test]
    fn test_region_mask_handles_braceless_items_and_cfg_attrs() {
        let src = "\
#[cfg(test)]
use std::thread;
fn prod() {}
#[cfg(all(test, feature = \"x\"))]
fn gated() {
    inner();
}
fn after() {}
";
        let stripped = strip_code(src);
        let mask = test_region_mask(&lines(&stripped));
        assert_eq!(mask, vec![true, true, false, true, true, true, true, false]);
    }

    #[test]
    fn hygiene_accepts_either_attr_rejects_neither() {
        assert!(check_hygiene("a.rs", "#![forbid(unsafe_code)]\n").is_empty());
        assert!(check_hygiene("a.rs", "#![deny(unsafe_op_in_unsafe_fn)]\n").is_empty());
        assert_eq!(check_hygiene("a.rs", "pub fn f() {}\n").len(), 1);
    }
}
