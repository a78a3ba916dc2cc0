//! `tsjlint`: in-tree static analysis enforcing the runtime's invariants.
//!
//! The container has no crates.io access, so this is a hand-rolled pass,
//! not a `syn` AST walk: [`clean_source`] blanks comments, string /
//! raw-string / char literals (preserving newlines, so line numbers map
//! 1:1 to the original file) and parses `tsjlint:allow` directives;
//! [`strip_cfg_test`] blanks `#[cfg(test)]` items (balanced-brace
//! skipping, so nested test modules vanish wholesale); [`parse`] builds a
//! structural layer over the cleaned token stream — matched delimiters,
//! an item tree (mod / impl / fn boundaries with signatures), `let`
//! bindings with their type / initializer / scope extents, and
//! receiver-chain walking — and the rule pack in `rules` runs over that
//! structure, scoped per module class:
//!
//! | rule | scope | forbids |
//! |------|-------|---------|
//! | `no-panic-in-data-plane` | `crates/mapreduce/src/**` | `unwrap()`, `expect(`, `panic!`, `unreachable!`, `todo!` |
//! | `no-ambient-env` | every crate's `src/**` except `crates/shims`, `crates/bench` | `env::var*`, `env::temp_dir`, `env::set_var`, `env::remove_var` outside `crates/mapreduce/src/env.rs` |
//! | `no-wallclock-in-deterministic` | `dag*`, `dataset.rs`, `merge.rs`, `spill.rs` of `crates/mapreduce/src` | `Instant::now`, `SystemTime::now` |
//! | `no-lossy-cast-on-wire-paths` | `protocol.rs`, `spill.rs`, `transport.rs` | truncating `as` casts to a narrower integer without `try_from`, a mask, or a bound |
//! | `no-unbounded-alloc-from-wire` | `crates/netshuffle/src/**`, `spill.rs` | allocations sized from wire-decoded integers with no dominating bounds check |
//! | `no-lock-across-io` | `crates/netshuffle/src/**`, `pool.rs` | lock guards held across socket/file I/O or a foreign `Condvar::wait` |
//! | `no-silent-result-drop` | `crates/mapreduce/src/**`, `crates/netshuffle/src/**` | `let _ =` / bare-statement discards of `Result`-returning calls |
//! | `no-hashmap-iter-in-output-path` | `crates/netshuffle/src/**`, output-feeding `mapreduce` modules | iterating std `HashMap`/`HashSet` where order reaches output or the wire |
//!
//! Scope note for `no-wallclock-in-deterministic`: `pool.rs` and
//! `cluster.rs` sit deliberately *outside* the rule. The scheduler's
//! straggler detection (`SchedulerConfig::speculate_after`, the queue-wait
//! and wall-clock observability counters) is real-time *by design* — it
//! reacts to how long tasks actually run. Those readings never feed the
//! simulated cluster statistics, which stay pure functions of the data
//! and configuration; the planning/merge modules in scope are where a
//! wall-clock read could silently break that determinism.
//!
//! The same reasoning keeps `crates/netshuffle/src` outside
//! `no-wallclock-in-deterministic`: the run-fetch service is real
//! network code, and its deadlines, idle timeouts, and retry backoff are
//! wall-clock *by design* — a fetch that cannot time out is a hang, not
//! a determinism win. What the network layer observes (retries, stalls)
//! surfaces only through the wall-clock-class `JobStats` fetch counters;
//! the bytes it moves are the same spill-format runs every transport
//! ships, so job *output* stays deterministic without the rule.
//! `netshuffle` remains fully inside `no-ambient-env`: its knobs arrive
//! through `FetchConfig` / `FaultConfig` values constructed by
//! the runtime's knob table (`crates/mapreduce/src/env.rs`), never from
//! ambient `env::var` reads.
//!
//! Escape hatch: a `// tsjlint:allow(<rule>) <reason>` line comment
//! suppresses the *next* violation of `<rule>` on its own line or within
//! the following [`ALLOW_WINDOW_LINES`] lines (one violation per
//! directive — a window, not a region, so rustfmt reflowing a statement
//! across lines cannot detach the suppression). A directive with an
//! unknown rule or no written reason is itself a `malformed-allow`
//! diagnostic, and a well-formed one that suppresses nothing — its code
//! was fixed or deleted, or its rule does not apply to the file — is an
//! `unused-allow`. Neither can be suppressed. Directives are recognized in
//! `//` comments only and must start the comment body (prose that merely
//! mentions the syntax is not a suppression).
//!
//! Diagnostics are machine-readable `file:line:rule` triples. Nothing is
//! grandfathered: a finding is fixed or carries a written allow.

pub mod parse;
mod rules;

use std::io;
use std::path::{Path, PathBuf};

/// Forbids process-killing panics in the job path: the runtime's contract
/// (PR 5) is that worker failures surface as structured `JobError`s.
pub const RULE_NO_PANIC: &str = "no-panic-in-data-plane";
/// Forbids ambient environment reads outside the runtime's knob table
/// (`crates/mapreduce/src/env.rs`), which owns the loud-fallback
/// discipline.
pub const RULE_NO_AMBIENT_ENV: &str = "no-ambient-env";
/// Forbids wall-clock reads in the deterministic planning/merge modules
/// (measurement belongs to the cluster's timed task paths).
pub const RULE_NO_WALLCLOCK: &str = "no-wallclock-in-deterministic";
/// Forbids truncating `as` casts to narrower integer widths on the wire
/// codec paths; a silently wrapped length corrupts frames where an
/// explicit `try_from` would refuse.
pub const RULE_LOSSY_CAST: &str = "no-lossy-cast-on-wire-paths";
/// Forbids allocations sized from wire-decoded integers that are not
/// dominated by a bounds check — the classic length-prefix
/// memory-exhaustion shape.
pub const RULE_WIRE_ALLOC: &str = "no-unbounded-alloc-from-wire";
/// Forbids holding a lock guard across socket/file I/O or a foreign
/// `Condvar::wait` — the deadlock/convoy shape.
pub const RULE_LOCK_IO: &str = "no-lock-across-io";
/// Forbids silently discarding `Result`-returning calls (`let _ =`, bare
/// statements) in the data-plane crates.
pub const RULE_RESULT_DROP: &str = "no-silent-result-drop";
/// Forbids iterating std `HashMap`/`HashSet` in modules that feed reduce
/// output or wire encoding — hash order is arbitrary, and every
/// byte-identity test depends on deterministic output.
pub const RULE_HASHMAP_ITER: &str = "no-hashmap-iter-in-output-path";
/// A `tsjlint:allow` directive that names an unknown rule or carries no
/// reason.
pub const RULE_MALFORMED_ALLOW: &str = "malformed-allow";
/// A well-formed `tsjlint:allow` directive that suppresses no violation.
pub const RULE_UNUSED_ALLOW: &str = "unused-allow";

/// Every suppressible rule (what `tsjlint:allow(...)` accepts).
pub const RULES: [&str; 8] = [
    RULE_NO_PANIC,
    RULE_NO_AMBIENT_ENV,
    RULE_NO_WALLCLOCK,
    RULE_LOSSY_CAST,
    RULE_WIRE_ALLOC,
    RULE_LOCK_IO,
    RULE_RESULT_DROP,
    RULE_HASHMAP_ITER,
];

/// How many lines below its own an allow directive still covers (one
/// violation max). Wide enough that rustfmt reflowing the annotated
/// statement — or a multi-line reason comment — cannot detach it, narrow
/// enough that the suppression stays local.
pub const ALLOW_WINDOW_LINES: usize = 10;

/// One finding: `file:line:rule` plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-based line in the original source.
    pub line: usize,
    /// Rule code (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// What fired and why it matters.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed `tsjlint:allow` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line of the directive comment.
    pub line: usize,
    /// The rule it suppresses (always one of [`RULES`]).
    pub rule: String,
}

/// [`clean_source`]'s output: the blanked text plus everything the
/// comment scan extracted on the way.
#[derive(Debug)]
pub struct Cleaned {
    /// Source with comments and literal contents replaced by spaces;
    /// newlines (and therefore line numbers) are preserved exactly.
    pub text: String,
    /// Well-formed allow directives, in line order.
    pub allows: Vec<Allow>,
    /// `(line, message)` for malformed directives.
    pub malformed: Vec<(usize, String)>,
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Parses the body of a `//` comment for a `tsjlint:allow` directive.
/// The directive must *start* the comment (after `//`/`//!`/`///` and
/// whitespace) so that prose merely mentioning the syntax — like this
/// file's docs — is not mistaken for a suppression.
fn parse_allow(
    comment: &str,
    line: usize,
    allows: &mut Vec<Allow>,
    bad: &mut Vec<(usize, String)>,
) {
    let lead = comment.trim_start_matches(['!', '/', ' ', '\t']);
    let Some(rest) = lead.strip_prefix("tsjlint:allow") else {
        return;
    };
    let Some(open) = rest.strip_prefix('(') else {
        bad.push((line, "expected `(` after `tsjlint:allow`".to_owned()));
        return;
    };
    let Some(close) = open.find(')') else {
        bad.push((line, "unterminated `tsjlint:allow(` directive".to_owned()));
        return;
    };
    let rule = open[..close].trim();
    if !RULES.contains(&rule) {
        bad.push((line, format!("unknown rule `{rule}` in tsjlint:allow")));
        return;
    }
    let reason = open[close + 1..].trim();
    if reason.is_empty() {
        bad.push((
            line,
            format!("tsjlint:allow({rule}) carries no reason; every suppression must say why"),
        ));
        return;
    }
    allows.push(Allow {
        line,
        rule: rule.to_owned(),
    });
}

/// Blanks comments and string/char literal *contents* (delimiters stay, so
/// tokens cannot merge), preserving every newline; parses `tsjlint:allow`
/// directives out of `//` comments as it goes. Handles line comments,
/// nested block comments, string escapes, raw/byte/C strings (`r"`,
/// `r#"…"#`, `b"`, `br#"`, `c"`, `cr#"`), byte chars (`b'x'`), and the
/// char-literal vs lifetime ambiguity (`'a'` vs `'a`).
pub fn clean_source(src: &str) -> Cleaned {
    let chars: Vec<char> = src.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(chars.len());
    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Blank `n` chars starting at `i` into `out`, preserving newlines and
    // advancing the line counter.
    macro_rules! blank {
        ($n:expr) => {{
            for k in 0..$n {
                let c = chars[i + k];
                if c == '\n' {
                    line += 1;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            i += $n;
        }};
    }
    macro_rules! keep {
        ($n:expr) => {{
            for k in 0..$n {
                let c = chars[i + k];
                if c == '\n' {
                    line += 1;
                }
                out.push(c);
            }
            i += $n;
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        // ---- line comment (directive host) ---------------------------
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let end = chars[i..]
                .iter()
                .position(|&c| c == '\n')
                .map(|p| i + p)
                .unwrap_or(chars.len());
            let body: String = chars[i + 2..end].iter().collect();
            parse_allow(&body, line, &mut allows, &mut malformed);
            blank!(end - i);
            continue;
        }
        // ---- block comment (nested) ----------------------------------
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            let mut j = i;
            while j < chars.len() {
                if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                    depth -= 1;
                    j += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    j += 1;
                }
            }
            blank!(j - i);
            continue;
        }
        // ---- identifiers (may prefix a literal) ----------------------
        if is_ident_char(c) {
            let mut j = i;
            while j < chars.len() && is_ident_char(chars[j]) {
                j += 1;
            }
            let ident: String = chars[i..j].iter().collect();
            keep!(j - i);
            // String prefix? (`r`, `b`, `br`, `c`, `cr` directly followed
            // by `"` or `#…"`; anything else is a plain identifier.)
            let raw_capable = matches!(ident.as_str(), "r" | "br" | "cr");
            let plain_capable = matches!(ident.as_str(), "b" | "c");
            if raw_capable {
                let mut k = i;
                while chars.get(k) == Some(&'#') {
                    k += 1;
                }
                if chars.get(k) == Some(&'"') {
                    let hashes = k - i;
                    keep!(hashes + 1); // the #s and the opening quote
                    blank_raw_string(&chars, &mut i, &mut line, &mut out, hashes);
                    continue;
                }
            }
            if (plain_capable || raw_capable) && chars.get(i) == Some(&'"') {
                keep!(1);
                blank_plain_string(&chars, &mut i, &mut line, &mut out);
                continue;
            }
            if ident == "b" && chars.get(i) == Some(&'\'') {
                keep!(1);
                blank_char_literal(&chars, &mut i, &mut line, &mut out);
                continue;
            }
            continue;
        }
        // ---- plain string --------------------------------------------
        if c == '"' {
            keep!(1);
            blank_plain_string(&chars, &mut i, &mut line, &mut out);
            continue;
        }
        // ---- char literal vs lifetime --------------------------------
        if c == '\'' {
            let next = chars.get(i + 1).copied();
            let is_char = match next {
                Some('\\') => true,
                Some(n) if n != '\'' => chars.get(i + 2) == Some(&'\''),
                _ => false,
            };
            keep!(1);
            if is_char {
                blank_char_literal(&chars, &mut i, &mut line, &mut out);
            }
            continue;
        }
        keep!(1);
    }

    Cleaned {
        text: out.into_iter().collect(),
        allows,
        malformed,
    }
}

/// Blanks a plain (escaped) string's contents up to and including the
/// closing quote; `i` sits just past the opening quote.
fn blank_plain_string(chars: &[char], i: &mut usize, line: &mut usize, out: &mut Vec<char>) {
    while *i < chars.len() {
        let c = chars[*i];
        if c == '\\' && *i + 1 < chars.len() {
            for k in 0..2 {
                if chars[*i + k] == '\n' {
                    *line += 1;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            *i += 2;
            continue;
        }
        if c == '"' {
            out.push('"');
            *i += 1;
            return;
        }
        if c == '\n' {
            *line += 1;
            out.push('\n');
        } else {
            out.push(' ');
        }
        *i += 1;
    }
}

/// Blanks a raw string's contents up to and including its `"##…`
/// terminator; `i` sits just past the opening quote, `hashes` is the
/// delimiter's `#` count.
fn blank_raw_string(
    chars: &[char],
    i: &mut usize,
    line: &mut usize,
    out: &mut Vec<char>,
    hashes: usize,
) {
    while *i < chars.len() {
        if chars[*i] == '"' && chars[*i + 1..].iter().take_while(|&&c| c == '#').count() >= hashes {
            out.push('"');
            *i += 1;
            for _ in 0..hashes {
                out.push('#');
                *i += 1;
            }
            return;
        }
        if chars[*i] == '\n' {
            *line += 1;
            out.push('\n');
        } else {
            out.push(' ');
        }
        *i += 1;
    }
}

/// Blanks a char (or byte-char) literal's contents up to and including the
/// closing quote; `i` sits just past the opening quote.
fn blank_char_literal(chars: &[char], i: &mut usize, line: &mut usize, out: &mut Vec<char>) {
    while *i < chars.len() {
        let c = chars[*i];
        if c == '\\' && *i + 1 < chars.len() {
            out.push(' ');
            out.push(' ');
            *i += 2;
            continue;
        }
        if c == '\'' {
            out.push('\'');
            *i += 1;
            return;
        }
        if c == '\n' {
            *line += 1;
            out.push('\n');
        } else {
            out.push(' ');
        }
        *i += 1;
    }
}

/// Blanks every `#[cfg(test)]`-annotated item (attribute through the end
/// of the following braced block or `;`-terminated item) in
/// already-cleaned text. Nested test modules disappear with their parent
/// (balanced-brace skip). Newlines are preserved.
pub fn strip_cfg_test(cleaned: &str) -> String {
    let chars: Vec<char> = cleaned.chars().collect();
    let mut out = chars.clone();
    let mut i = 0usize;
    while i < chars.len() {
        let Some(after_attr) = match_cfg_test(&chars, i) else {
            i += 1;
            continue;
        };
        let mut j = after_attr;
        // Skip whitespace and any further attributes on the item.
        loop {
            while j < chars.len() && chars[j].is_whitespace() {
                j += 1;
            }
            if chars.get(j) == Some(&'#') {
                let mut k = j + 1;
                while k < chars.len() && chars[k].is_whitespace() {
                    k += 1;
                }
                if chars.get(k) == Some(&'[') {
                    let mut depth = 0usize;
                    while k < chars.len() {
                        match chars[k] {
                            '[' => depth += 1,
                            ']' => {
                                depth -= 1;
                                if depth == 0 {
                                    k += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    j = k;
                    continue;
                }
            }
            break;
        }
        // The item body: through the matching `}` of its first brace
        // block, or through a `;` reached before any brace opens.
        let mut depth = 0usize;
        while j < chars.len() {
            match chars[j] {
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                ';' if depth == 0 => {
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        for slot in out.iter_mut().take(j).skip(i) {
            if *slot != '\n' {
                *slot = ' ';
            }
        }
        i = j;
    }
    out.into_iter().collect()
}

/// Matches `#[cfg(test)]` (whitespace-tolerant) at `i`; returns the index
/// just past the closing `]`.
fn match_cfg_test(chars: &[char], i: usize) -> Option<usize> {
    if chars.get(i) != Some(&'#') {
        return None;
    }
    let mut j = i + 1;
    let mut eat = |expected: &str| -> bool {
        while j < chars.len() && chars[j].is_whitespace() {
            j += 1;
        }
        let got: String = chars[j..].iter().take(expected.chars().count()).collect();
        if got == expected {
            j += expected.chars().count();
            true
        } else {
            false
        }
    };
    for part in ["[", "cfg", "(", "test", ")", "]"] {
        if !eat(part) {
            return None;
        }
    }
    Some(j)
}

/// Applies allow directives: each directive suppresses the first
/// violation of its rule on its own line or within the next
/// [`ALLOW_WINDOW_LINES`] lines. Returns the surviving diagnostics plus
/// one [`RULE_UNUSED_ALLOW`] finding per directive that suppressed
/// nothing.
fn apply_allows(path: &str, mut diags: Vec<Diagnostic>, allows: &[Allow]) -> Vec<Diagnostic> {
    diags.sort_by_key(|d| d.line);
    let mut used: Vec<bool> = vec![false; allows.len()];
    diags.retain(|d| {
        for (k, a) in allows.iter().enumerate() {
            if used[k] || a.rule != d.rule {
                continue;
            }
            if d.line >= a.line && d.line <= a.line + ALLOW_WINDOW_LINES {
                used[k] = true;
                return false;
            }
        }
        true
    });
    for (a, _) in allows.iter().zip(used).filter(|&(_, used)| !used) {
        diags.push(Diagnostic {
            file: path.to_owned(),
            line: a.line,
            rule: RULE_UNUSED_ALLOW,
            message: format!(
                "`tsjlint:allow({})` suppresses nothing: no such violation on its line \
                 or the next {ALLOW_WINDOW_LINES}; delete the directive",
                a.rule
            ),
        });
    }
    diags
}

/// Lints one file's source text. `path` is the repo-relative path
/// (forward slashes) — it selects which rules apply.
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let scope = rules::scope_of(path);
    let cleaned = clean_source(src);
    let mut diags: Vec<Diagnostic> = cleaned
        .malformed
        .iter()
        .map(|(line, message)| Diagnostic {
            file: path.to_owned(),
            line: *line,
            rule: RULE_MALFORMED_ALLOW,
            message: message.clone(),
        })
        .collect();
    let found = if scope.any() {
        let stripped = strip_cfg_test(&cleaned.text);
        let toks = parse::tokenize(&stripped);
        rules::scan(path, &toks, &scope)
    } else {
        Vec::new()
    };
    diags.extend(apply_allows(path, found, &cleaned.allows));
    diags.sort_by_key(|d| d.line);
    diags
}

/// Walks the workspace's `src/` trees (every `crates/*/src/**/*.rs` plus
/// the root crate's `src/`, skipping `crates/shims`) and lints each file.
/// Files come back in sorted path order.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let dir = entry?.path();
            if dir.file_name().is_some_and(|n| n == "shims") {
                continue;
            }
            collect_rs(&dir.join("src"), &mut files)?;
        }
    }
    files.sort();
    let mut diags = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        diags.extend(lint_source(&rel, &src));
    }
    Ok(diags)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- cleaning -----------------------------------------------------

    #[test]
    fn line_comments_are_blanked_but_lines_kept() {
        let src = "let a = 1; // unwrap() here is prose\nlet b = 2;\n";
        let c = clean_source(src);
        assert!(!c.text.contains("unwrap"));
        assert_eq!(c.text.matches('\n').count(), src.matches('\n').count());
        assert!(c.text.contains("let b = 2;"));
    }

    #[test]
    fn nested_block_comments_are_blanked() {
        let src = "a /* outer /* inner panic! */ still outer */ b";
        let c = clean_source(src);
        assert!(!c.text.contains("panic"));
        assert!(c.text.contains('a') && c.text.contains('b'));
    }

    #[test]
    fn string_contents_are_blanked_delimiters_kept() {
        let src = r#"let s = "call unwrap() now \" quoted"; after"#;
        let c = clean_source(src);
        assert!(!c.text.contains("unwrap"));
        assert!(c.text.contains("after"));
        assert_eq!(c.text.matches('"').count(), 2);
    }

    #[test]
    fn raw_and_byte_strings_are_blanked() {
        let src = "let r = r#\"panic! \"inner\" \"#; let b = b\"todo!\"; let br = br##\"x\"##; end";
        let c = clean_source(src);
        assert!(!c.text.contains("panic"));
        assert!(!c.text.contains("todo"));
        assert!(c.text.contains("end"));
    }

    #[test]
    fn char_literals_blank_but_lifetimes_survive() {
        let src = "fn f<'a>(x: &'a str) { let q = '\"'; let z = 'z'; let esc = '\\''; }";
        let c = clean_source(src);
        // The lifetime name must survive (it is not a char literal)...
        assert!(c.text.contains("<'a>"));
        assert!(c.text.contains("&'a str"));
        // ...while char contents are blanked: the double-quote char cannot
        // open a string (nothing after it gets blanked).
        assert!(c.text.contains("let z ="));
        assert!(!c.text.contains("'z'"));
    }

    #[test]
    fn multiline_strings_keep_line_numbers() {
        let src = "let s = \"line one\nline two\";\nunwrap_marker";
        let c = clean_source(src);
        assert_eq!(c.text.matches('\n').count(), 2);
        assert!(c.text.contains("unwrap_marker"));
    }

    // ---- allow parsing ------------------------------------------------

    #[test]
    fn wellformed_allow_is_recorded() {
        let src = "// tsjlint:allow(no-panic-in-data-plane) heap invariant\nx.unwrap();";
        let c = clean_source(src);
        assert_eq!(
            c.allows,
            vec![Allow {
                line: 1,
                rule: RULE_NO_PANIC.to_owned()
            }]
        );
        assert!(c.malformed.is_empty());
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let c = clean_source("// tsjlint:allow(no-panic-in-data-plane)\n");
        assert!(c.allows.is_empty());
        assert_eq!(c.malformed.len(), 1);
        assert!(c.malformed[0].1.contains("no reason"));
    }

    #[test]
    fn allow_with_unknown_rule_is_malformed() {
        let c = clean_source("// tsjlint:allow(no-such-rule) because\n");
        assert!(c.allows.is_empty());
        assert_eq!(c.malformed.len(), 1);
        assert!(c.malformed[0].1.contains("unknown rule"));
    }

    // ---- cfg(test) stripping -----------------------------------------

    #[test]
    fn cfg_test_module_is_stripped() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn also_live() {}\n";
        let stripped = strip_cfg_test(&clean_source(src).text);
        assert!(!stripped.contains("unwrap"));
        assert!(stripped.contains("live"));
        assert!(stripped.contains("also_live"));
        assert_eq!(stripped.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn nested_cfg_test_modules_strip_with_parent() {
        let src = "#[cfg(test)]\nmod outer {\n  #[cfg(test)]\n  mod inner { fn t() { panic!(\"x\") } }\n  fn u() { y.expect(\"z\"); }\n}\nfn live() {}\n";
        let stripped = strip_cfg_test(&clean_source(src).text);
        assert!(!stripped.contains("panic"));
        assert!(!stripped.contains("expect"));
        assert!(stripped.contains("live"));
    }

    #[test]
    fn cfg_test_with_extra_attribute_and_semicolon_item() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nfn helper() { a.unwrap() }\n#[cfg(test)]\nmod tests;\nfn live() {}\n";
        let stripped = strip_cfg_test(&clean_source(src).text);
        assert!(!stripped.contains("unwrap"));
        assert!(!stripped.contains("mod tests"));
        assert!(stripped.contains("live"));
    }

    // ---- rules --------------------------------------------------------

    const JOB_PATH: &str = "crates/mapreduce/src/cluster.rs";

    #[test]
    fn no_panic_catches_all_five_forms() {
        let src = "fn f() { a.unwrap(); b.expect(\"m\"); panic!(\"x\"); unreachable!(); todo!() }";
        let diags = lint_source(JOB_PATH, src);
        assert_eq!(diags.len(), 5, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == RULE_NO_PANIC));
    }

    #[test]
    fn no_panic_ignores_lookalike_identifiers() {
        let src =
            "fn f() { a.unwrap_or_else(g); unwrap_all(x); b.expect_err(\"m\"); panic_message(p); }";
        assert!(lint_source(JOB_PATH, src).is_empty());
    }

    #[test]
    fn no_panic_out_of_scope_elsewhere() {
        let src = "fn f() { a.unwrap(); }";
        assert!(lint_source("crates/core/src/joiner.rs", src).is_empty());
    }

    #[test]
    fn trailing_allow_suppresses_same_line() {
        let src = "fn f() { a.unwrap(); } // tsjlint:allow(no-panic-in-data-plane) test fixture\n";
        assert!(lint_source(JOB_PATH, src).is_empty());
    }

    #[test]
    fn preceding_allow_suppresses_within_window() {
        let src = "// tsjlint:allow(no-panic-in-data-plane) spans the reflowed\n// statement below\nfn f() {\n    a\n        .unwrap();\n}\n";
        assert!(lint_source(JOB_PATH, src).is_empty());
    }

    #[test]
    fn one_allow_covers_one_violation() {
        let src = "// tsjlint:allow(no-panic-in-data-plane) only the first\nfn f() { a.unwrap(); b.unwrap(); }";
        let diags = lint_source(JOB_PATH, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn allow_outside_window_does_not_suppress() {
        let filler = "\n".repeat(ALLOW_WINDOW_LINES + 1);
        let src = format!(
            "// tsjlint:allow(no-panic-in-data-plane) too far away{filler}fn f() {{ a.unwrap(); }}"
        );
        let rules: Vec<&str> = lint_source(JOB_PATH, &src).iter().map(|d| d.rule).collect();
        // The stranded directive suppresses nothing, so it is reported too.
        assert_eq!(rules, [RULE_UNUSED_ALLOW, RULE_NO_PANIC]);
    }

    #[test]
    fn allow_that_suppresses_nothing_is_unused() {
        let src = "fn f() {\n    // tsjlint:allow(no-panic-in-data-plane) its unwrap was deleted\n    a.unwrap_or(0);\n}\n";
        let diags = lint_source(JOB_PATH, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].rule, diags[0].line), (RULE_UNUSED_ALLOW, 2));
        assert!(diags[0].message.contains("no-panic-in-data-plane"));
        // The finding itself cannot be allowed away: that directive names
        // no suppressible rule.
        let src = "// tsjlint:allow(unused-allow) keep it\nfn f() {}\n";
        let rules: Vec<&str> = lint_source(JOB_PATH, src).iter().map(|d| d.rule).collect();
        assert_eq!(rules, [RULE_MALFORMED_ALLOW]);
    }

    #[test]
    fn allow_outside_its_rules_scope_is_unused() {
        // `no-panic-in-data-plane` does not apply to `crates/core`, so the
        // directive has nothing to suppress — even over a real unwrap.
        let src = "// tsjlint:allow(no-panic-in-data-plane) out of scope\nfn f() { a.unwrap(); }";
        let diags = lint_source("crates/core/src/joiner.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].rule, diags[0].line), (RULE_UNUSED_ALLOW, 1));
        // Same in a file no rule applies to at all.
        let diags = lint_source("crates/shims/rand/src/lib.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_UNUSED_ALLOW);
    }

    #[test]
    fn wallclock_banned_in_deterministic_modules_only() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        let diags = lint_source("crates/mapreduce/src/merge.rs", src);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.rule == RULE_NO_WALLCLOCK));
        // cluster.rs measures real task time on purpose.
        assert!(lint_source(JOB_PATH, src).is_empty());
    }

    #[test]
    fn netshuffle_is_real_time_but_not_ambient_env() {
        // The network layer's deadlines and backoff are wall-clock by
        // design (see the module-docs scope note) — but its knobs must
        // still arrive through config values, not ambient env reads.
        let clock = "fn f() { let t = Instant::now(); }";
        assert!(lint_source("crates/netshuffle/src/client.rs", clock).is_empty());
        let env = "fn f() { let v = std::env::var(\"TSJ_NET_FAULT_DROP_NTH\"); }";
        let diags = lint_source("crates/netshuffle/src/client.rs", env);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_NO_AMBIENT_ENV);
        // Panics are also out of scope here: netshuffle surfaces
        // structured errors by API contract, not by lint.
        assert!(
            lint_source("crates/netshuffle/src/server.rs", "fn f() { a.unwrap(); }").is_empty()
        );
    }

    #[test]
    fn env_reads_flagged_outside_the_knob_table() {
        let src = "fn f() { let v = std::env::var(\"X\"); }";
        let diags = lint_source("crates/core/src/config.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_NO_AMBIENT_ENV);
    }

    #[test]
    fn env_reads_allowed_in_the_knob_table_file_only() {
        let src = "fn ambient() { f(std::env::vars_os()); g(std::env::var_os(\"Y\")); }";
        assert!(lint_source("crates/mapreduce/src/env.rs", src).is_empty());
        assert_eq!(lint_source("crates/mapreduce/src/shuffle.rs", src).len(), 2);
        assert_eq!(lint_source("crates/netshuffle/src/env.rs", src).len(), 2);
    }

    #[test]
    fn a_constructor_name_exempts_nothing() {
        let src = "impl C {\n fn from_env() -> Self { Self::from_lookup(|n| std::env::var_os(n)) }\n fn from_lookup(f: F) -> Self { let _ = std::env::var(\"Y\"); todo() }\n}";
        let diags = lint_source("crates/core/src/config.rs", src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!((diags[0].line, diags[1].line), (2, 3));
    }

    #[test]
    fn env_rule_skips_shims_and_bench() {
        let src = "fn f() { let v = std::env::var(\"X\"); }";
        assert!(lint_source("crates/shims/rand/src/lib.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn violations_in_test_code_are_ignored() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { a.unwrap(); panic!(\"x\"); } }";
        assert!(lint_source(JOB_PATH, src).is_empty());
    }

    #[test]
    fn malformed_allow_is_reported_with_location() {
        let src = "fn f() {}\n// tsjlint:allow(no-panic-in-data-plane)\n";
        let diags = lint_source(JOB_PATH, src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_MALFORMED_ALLOW);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn diagnostic_renders_machine_readable_triple() {
        let diags = lint_source(JOB_PATH, "fn f() { a.unwrap(); }");
        let rendered = diags[0].to_string();
        assert!(
            rendered.starts_with("crates/mapreduce/src/cluster.rs:1:no-panic-in-data-plane:"),
            "{rendered}"
        );
    }

    // ---- no-lossy-cast-on-wire-paths ---------------------------------

    const WIRE_PATH: &str = "crates/netshuffle/src/protocol.rs";

    #[test]
    fn lossy_cast_flags_narrowing_as() {
        let src = "fn f(len: usize) -> u32 { len as u32 }";
        let diags = lint_source(WIRE_PATH, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_LOSSY_CAST);
    }

    #[test]
    fn lossy_cast_ignores_widening_bounded_and_masked_operands() {
        let src = "fn f(n: u32, v: u64, x: usize) {\n\
                   let wide = n as u64;\n\
                   let size = n as usize;\n\
                   let bounded = x.min(65535) as u16;\n\
                   let masked = (v & 0x7f) as u8 | 0x80;\n\
                   let literal = 200 as u8;\n\
                   }";
        assert!(lint_source(WIRE_PATH, src).is_empty());
    }

    #[test]
    fn lossy_cast_exempts_self_and_respects_scope() {
        let src = "impl Tag { fn wire(&self) -> u8 { *self as u8 } }";
        assert!(lint_source(WIRE_PATH, src).is_empty());
        // Same narrowing cast outside the wire paths is out of scope.
        let narrowing = "fn f(len: usize) -> u32 { len as u32 }";
        assert!(lint_source("crates/netshuffle/src/client.rs", narrowing).is_empty());
    }

    #[test]
    fn lossy_cast_allow_suppresses() {
        let src = "fn f(len: usize) -> u32 {\n\
                   // tsjlint:allow(no-lossy-cast-on-wire-paths) len is capped by the caller\n\
                   len as u32\n}";
        assert!(lint_source(WIRE_PATH, src).is_empty());
    }

    // ---- no-unbounded-alloc-from-wire --------------------------------

    #[test]
    fn wire_sized_alloc_without_check_is_flagged() {
        let src = "fn f(raw: [u8; 4]) -> Vec<u8> {\n\
                   let len = u32::from_le_bytes(raw) as usize;\n\
                   let v = vec![0u8; len];\n\
                   v\n}";
        let diags = lint_source(WIRE_PATH, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_WIRE_ALLOC);
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn wire_sized_with_capacity_and_read_exact_are_flagged() {
        let src = "fn f(buf: &mut B, r: &mut R) {\n\
                   let count = get_u32(buf) as usize;\n\
                   let specs = Vec::with_capacity(count);\n\
                   let n = read_varint(buf) as usize;\n\
                   r.read_exact(&mut scratch[..n]);\n\
                   }";
        let diags = lint_source(WIRE_PATH, src);
        let rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(
            rules,
            vec![RULE_WIRE_ALLOC, RULE_WIRE_ALLOC, RULE_RESULT_DROP],
            "{diags:?}"
        );
    }

    #[test]
    fn dominating_bounds_check_exempts_the_alloc() {
        let src = "fn f(raw: [u8; 4]) -> Option<Vec<u8>> {\n\
                   let len = u32::from_le_bytes(raw) as usize;\n\
                   if len > MAX_FETCH {\n\
                       return None;\n\
                   }\n\
                   Some(vec![0u8; len])\n}";
        assert!(lint_source(WIRE_PATH, src).is_empty());
    }

    #[test]
    fn clamped_sizes_are_exempt_at_decode_or_use() {
        let src = "fn f(buf: &mut B) {\n\
                   let hint = read_varint(buf).min(1024);\n\
                   let a = Vec::with_capacity(hint);\n\
                   let raw = read_varint(buf);\n\
                   let b = Vec::with_capacity(raw.min(1024));\n\
                   }";
        assert!(lint_source(WIRE_PATH, src).is_empty());
    }

    #[test]
    fn non_wire_sizes_are_not_flagged() {
        let src = "fn f(records: &[R]) {\n\
                   let len = records.len();\n\
                   let v = Vec::with_capacity(len);\n\
                   }";
        assert!(lint_source(WIRE_PATH, src).is_empty());
    }

    // ---- no-lock-across-io -------------------------------------------

    const POOL_PATH: &str = "crates/mapreduce/src/pool.rs";

    #[test]
    fn guard_held_across_file_io_is_flagged() {
        let src = "fn f(s: &S) {\n\
                   let q = s.state.lock();\n\
                   let r = s.file.write_all(b\"x\");\n\
                   consume(q, r);\n}";
        let diags = lint_source(POOL_PATH, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_LOCK_IO);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn dropping_the_guard_before_io_is_clean() {
        let src = "fn f(s: &S) {\n\
                   let q = s.state.lock();\n\
                   let n = q.front();\n\
                   drop(q);\n\
                   let r = s.file.write_all(data);\n\
                   consume(n, r);\n}";
        assert!(lint_source(POOL_PATH, src).is_empty());
    }

    #[test]
    fn extractor_chains_do_not_bind_a_guard() {
        let src = "fn f(s: &S) {\n\
                   let server = s.server.lock().take();\n\
                   let r = s.file.write_all(data);\n\
                   consume(server, r);\n}";
        assert!(lint_source(POOL_PATH, src).is_empty());
    }

    #[test]
    fn condvar_wait_consuming_its_own_guard_is_clean() {
        let src = "fn f(s: &S) {\n\
                   let mut coord = s.coord.lock();\n\
                   while coord.pending {\n\
                       coord = s.ready.wait(coord);\n\
                   }\n}";
        assert!(lint_source(POOL_PATH, src).is_empty());
    }

    #[test]
    fn condvar_wait_under_a_foreign_guard_is_flagged() {
        let src = "fn f(s: &S) {\n\
                   let own = s.own.lock();\n\
                   let coord = s.coord.lock();\n\
                   consume(own, s.ready.wait(coord));\n}";
        let diags = lint_source(POOL_PATH, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_LOCK_IO);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn lock_rule_respects_scope() {
        let src = "fn f(s: &S) {\n\
                   let q = s.state.lock();\n\
                   let r = s.file.write_all(b\"x\");\n\
                   consume(q, r);\n}";
        assert!(lint_source("crates/mapreduce/src/merge.rs", src).is_empty());
    }

    // ---- no-silent-result-drop ---------------------------------------

    #[test]
    fn let_underscore_discard_is_flagged() {
        let src = "fn f(h: H) { let _ = h.join(); }";
        let diags = lint_source(JOB_PATH, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_RESULT_DROP);
    }

    #[test]
    fn bare_result_statement_is_flagged() {
        let src = "fn f(w: &mut W) { w.flush(); }";
        let diags = lint_source(JOB_PATH, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_RESULT_DROP);
    }

    #[test]
    fn handled_results_are_clean() {
        let src = "fn f(w: &mut W, h: H) -> io::Result<()> {\n\
                   w.flush()?;\n\
                   let r = w.flush();\n\
                   if h.join().is_err() {\n\
                       log();\n\
                   }\n\
                   r\n}";
        assert!(lint_source(JOB_PATH, src).is_empty());
    }

    #[test]
    fn catch_unwind_discard_is_exempt() {
        let src = "fn f() { let _ = catch_unwind(AssertUnwindSafe(run)); }";
        assert!(lint_source(JOB_PATH, src).is_empty());
    }

    #[test]
    fn result_drop_allow_suppresses() {
        let src = "fn f(a: A) {\n\
                   // tsjlint:allow(no-silent-result-drop) best-effort wakeup poke\n\
                   let _ = connect(a);\n}";
        assert!(lint_source("crates/netshuffle/src/server.rs", src).is_empty());
    }

    // ---- no-hashmap-iter-in-output-path ------------------------------

    #[test]
    fn hashmap_for_loop_in_output_path_is_flagged() {
        let src = "fn emit(rows: &[R]) {\n\
                   let mut groups: HashMap<u64, u32> = HashMap::default();\n\
                   for r in rows {\n\
                       groups.insert(r.k, r.v);\n\
                   }\n\
                   for (k, v) in &groups {\n\
                       out(k, v);\n\
                   }\n}";
        let diags = lint_source(JOB_PATH, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_HASHMAP_ITER);
        assert_eq!(diags[0].line, 6);
    }

    #[test]
    fn hashset_method_iteration_is_flagged() {
        let src = "fn f() -> Vec<u64> {\n\
                   let seen = HashSet::new();\n\
                   seen.iter().copied().collect()\n}";
        // The `HashSet` marker must appear in the type or initializer.
        let typed = "fn f() -> Vec<u64> {\n\
                   let seen: HashSet<u64> = Default::default();\n\
                   seen.iter().copied().collect()\n}";
        for src in [src, typed] {
            let diags = lint_source(JOB_PATH, src);
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].rule, RULE_HASHMAP_ITER);
        }
    }

    #[test]
    fn ordered_containers_and_point_lookups_are_clean() {
        let src = "fn f(rows: &[R]) {\n\
                   let mut index: BTreeMap<u64, u32> = BTreeMap::new();\n\
                   for (k, v) in &index { out(k, v); }\n\
                   let mut cache: HashMap<u64, u32> = HashMap::new();\n\
                   cache.insert(1, 2);\n\
                   let hit = cache.get(&1);\n\
                   consume(rows, hit);\n}";
        assert!(lint_source(JOB_PATH, src).is_empty());
    }

    #[test]
    fn same_named_field_access_is_not_the_binding() {
        let src = "fn f(task: &T) {\n\
                   let groups: HashMap<u64, u32> = HashMap::new();\n\
                   let n = task.groups.iter().count();\n\
                   consume(groups, n);\n}";
        assert!(lint_source(JOB_PATH, src).is_empty());
    }

    #[test]
    fn hashmap_iter_allow_suppresses() {
        let src = "fn f() {\n\
                   let groups: HashMap<u64, u32> = HashMap::new();\n\
                   // tsjlint:allow(no-hashmap-iter-in-output-path) sorted by position before emit\n\
                   for (k, v) in &groups { out(k, v); }\n}";
        assert!(lint_source(JOB_PATH, src).is_empty());
    }
}
