//! The v2 rule pack, running over the structural layer in [`crate::parse`].
//!
//! Every rule receives the cleaned, test-stripped token stream plus the
//! item tree and reports [`Diagnostic`]s; scoping (which rules see which
//! files) is decided once per file by [`scope_of`]. The rules are
//! heuristic by design — call *shapes*, not resolved types — and each
//! one's exemptions are chosen so the in-tree negatives (bounds-checked
//! allocations, `Condvar::wait` consuming its own guard, panic
//! containment via `catch_unwind`) stay silent without suppressions.

use crate::parse::{
    expr_start, for_each_fn, innermost_fn, let_bindings, match_delims, parse_items, Item, Tok,
};
use crate::{
    Diagnostic, RULE_HASHMAP_ITER, RULE_LOCK_IO, RULE_LOSSY_CAST, RULE_NO_AMBIENT_ENV,
    RULE_NO_PANIC, RULE_NO_WALLCLOCK, RULE_RESULT_DROP, RULE_WIRE_ALLOC,
};
use std::ops::Range;

/// Which rules apply to a repo-relative path (forward slashes).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Scope {
    pub no_panic: bool,
    pub no_env: bool,
    pub no_wallclock: bool,
    pub lossy_cast: bool,
    pub wire_alloc: bool,
    pub lock_io: bool,
    pub result_drop: bool,
    pub hashmap_iter: bool,
}

impl Scope {
    pub(crate) fn any(&self) -> bool {
        self.no_panic
            || self.no_env
            || self.no_wallclock
            || self.lossy_cast
            || self.wire_alloc
            || self.lock_io
            || self.result_drop
            || self.hashmap_iter
    }
}

pub(crate) fn scope_of(path: &str) -> Scope {
    let mapreduce = path.starts_with("crates/mapreduce/src/");
    let netshuffle = path.starts_with("crates/netshuffle/src/");
    let deterministic = matches!(
        path,
        "crates/mapreduce/src/dag.rs"
            | "crates/mapreduce/src/dataset.rs"
            | "crates/mapreduce/src/merge.rs"
            | "crates/mapreduce/src/spill.rs"
    ) || path.starts_with("crates/mapreduce/src/dag/");
    Scope {
        no_panic: mapreduce,
        no_env: !path.starts_with("crates/shims/")
            && !path.starts_with("crates/bench/")
            && path != ENV_BOUNDARY,
        no_wallclock: deterministic,
        lossy_cast: matches!(
            path,
            "crates/netshuffle/src/protocol.rs"
                | "crates/mapreduce/src/spill.rs"
                | "crates/mapreduce/src/transport.rs"
        ),
        wire_alloc: netshuffle || path == "crates/mapreduce/src/spill.rs",
        lock_io: netshuffle || path == "crates/mapreduce/src/pool.rs",
        result_drop: mapreduce || netshuffle,
        hashmap_iter: netshuffle
            || matches!(
                path,
                "crates/mapreduce/src/cluster.rs"
                    | "crates/mapreduce/src/merge.rs"
                    | "crates/mapreduce/src/shuffle.rs"
                    | "crates/mapreduce/src/transport.rs"
                    | "crates/mapreduce/src/spill.rs"
            ),
    }
}

/// Runs every in-scope rule over one file's token stream.
pub(crate) fn scan(path: &str, toks: &[Tok], scope: &Scope) -> Vec<Diagnostic> {
    let delims = match_delims(toks);
    let items = parse_items(toks, &delims);
    let mut diags = Vec::new();
    if scope.no_panic {
        rule_no_panic(path, toks, &mut diags);
    }
    if scope.no_wallclock {
        rule_no_wallclock(path, toks, &mut diags);
    }
    if scope.no_env {
        rule_no_env(path, toks, &mut diags);
    }
    if scope.lossy_cast {
        rule_lossy_cast(path, toks, &delims, &mut diags);
    }
    if scope.wire_alloc {
        rule_wire_alloc(path, toks, &delims, &items, &mut diags);
    }
    if scope.lock_io {
        rule_lock_io(path, toks, &delims, &items, &mut diags);
    }
    if scope.result_drop {
        rule_result_drop(path, toks, &delims, &items, &mut diags);
    }
    if scope.hashmap_iter {
        rule_hashmap_iter(path, toks, &delims, &items, &mut diags);
    }
    diags
}

/// Whether token `idx` belongs to `f` directly (not to a fn item nested
/// inside it). Per-function rules filter bindings through this so a
/// nested fn — whose tokens sit inside its parent's body range — is
/// analyzed exactly once, in its own walk.
fn owned_by(items: &[Item], f: &Item, idx: usize) -> bool {
    innermost_fn(items, idx).is_none_or(|g| std::ptr::eq(g, f))
}

fn diag(path: &str, line: usize, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        file: path.to_owned(),
        line,
        rule,
        message,
    }
}

// ---- no-panic-in-data-plane ------------------------------------------

fn rule_no_panic(path: &str, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    for (idx, tok) in toks.iter().enumerate() {
        let Some(ident) = tok.ident() else { continue };
        let line = tok.line();
        if matches!(ident, "unwrap" | "expect") && toks.get(idx + 1).is_some_and(|t| t.is_sym('('))
        {
            diags.push(diag(
                path,
                line,
                RULE_NO_PANIC,
                format!(
                    "`{ident}(` can kill a worker; propagate a JobError/SpillError instead \
                     (or justify with tsjlint:allow)"
                ),
            ));
        }
        if matches!(ident, "panic" | "unreachable" | "todo")
            && toks.get(idx + 1).is_some_and(|t| t.is_sym('!'))
        {
            diags.push(diag(
                path,
                line,
                RULE_NO_PANIC,
                format!(
                    "`{ident}!` can kill a worker; propagate a JobError/SpillError instead \
                     (or justify with tsjlint:allow)"
                ),
            ));
        }
    }
}

// ---- no-wallclock-in-deterministic -----------------------------------

fn rule_no_wallclock(path: &str, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    for (idx, tok) in toks.iter().enumerate() {
        let Some(ident) = tok.ident() else { continue };
        if matches!(ident, "Instant" | "SystemTime")
            && toks.get(idx + 1).is_some_and(|t| t.is_sym(':'))
            && toks.get(idx + 2).is_some_and(|t| t.is_sym(':'))
            && toks.get(idx + 3).is_some_and(|t| t.is_ident("now"))
        {
            diags.push(diag(
                path,
                tok.line(),
                RULE_NO_WALLCLOCK,
                format!(
                    "`{ident}::now` in a deterministic module; timing belongs to the \
                     cluster's measured task paths"
                ),
            ));
        }
    }
}

// ---- no-ambient-env ---------------------------------------------------

const ENV_BANNED: [&str; 7] = [
    "var",
    "var_os",
    "vars",
    "vars_os",
    "temp_dir",
    "set_var",
    "remove_var",
];

/// The one file that may read the environment: the runtime's knob table,
/// which owns the loud-fallback discipline. Exempt by path, not by what a
/// function is called — any fn could be named `from_env`.
const ENV_BOUNDARY: &str = "crates/mapreduce/src/env.rs";

fn rule_no_env(path: &str, toks: &[Tok], diags: &mut Vec<Diagnostic>) {
    for (idx, tok) in toks.iter().enumerate() {
        if !tok.is_ident("env")
            || !toks.get(idx + 1).is_some_and(|t| t.is_sym(':'))
            || !toks.get(idx + 2).is_some_and(|t| t.is_sym(':'))
        {
            continue;
        }
        let Some(callee) = toks.get(idx + 3).and_then(Tok::ident) else {
            continue;
        };
        if ENV_BANNED.contains(&callee) {
            diags.push(diag(
                path,
                tok.line(),
                RULE_NO_AMBIENT_ENV,
                format!(
                    "`env::{callee}` outside {ENV_BOUNDARY}; take configuration as \
                     values from the knob table"
                ),
            ));
        }
    }
}

// ---- no-lossy-cast-on-wire-paths -------------------------------------

/// Cast targets narrower than the wire's native widths, with their max
/// values for the mask-fit exemption.
const NARROW_TARGETS: [(&str, u128); 6] = [
    ("u8", u8::MAX as u128),
    ("u16", u16::MAX as u128),
    ("u32", u32::MAX as u128),
    ("i8", i8::MAX as u128),
    ("i16", i16::MAX as u128),
    ("i32", i32::MAX as u128),
];

/// Parses an integer literal token (`0x7f`, `0b1010`, `123`, suffixes
/// tolerated and ignored).
fn literal_value(s: &str) -> Option<u128> {
    if !s.starts_with(|c: char| c.is_ascii_digit()) {
        return None;
    }
    let t = s.replace('_', "");
    let (digits, radix) = if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        (h.to_owned(), 16)
    } else if let Some(b) = t.strip_prefix("0b") {
        (b.to_owned(), 2)
    } else if let Some(o) = t.strip_prefix("0o") {
        (o.to_owned(), 8)
    } else {
        (t.clone(), 10)
    };
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    if end == 0 {
        return None;
    }
    u128::from_str_radix(&digits[..end], radix).ok()
}

fn rule_lossy_cast(path: &str, toks: &[Tok], delims: &[usize], diags: &mut Vec<Diagnostic>) {
    for idx in 1..toks.len() {
        if !toks[idx].is_ident("as") {
            continue;
        }
        let Some(target) = toks.get(idx + 1).and_then(Tok::ident) else {
            continue;
        };
        let Some(&(_, max)) = NARROW_TARGETS.iter().find(|(t, _)| *t == target) else {
            continue;
        };
        let start = expr_start(toks, delims, idx - 1);
        let operand = &toks[start..idx];
        // `*self as u8` in a codec impl converts the receiver's own value
        // domain, not wire data.
        if operand.iter().any(|t| t.is_ident("self")) {
            continue;
        }
        // Already bounded or converted: `x.min(cap) as u16`,
        // `u32::try_from(x).unwrap_or(..) as ..`.
        if operand
            .iter()
            .any(|t| matches!(t.ident(), Some("min" | "clamp" | "try_from")))
        {
            continue;
        }
        // A lone literal that fits cannot truncate.
        if operand.len() == 1 {
            if let Some(v) = operand[0].ident().and_then(literal_value) {
                if v <= max {
                    continue;
                }
            }
        }
        // Mask-fit: `(v & 0x7f) as u8` — some `&`-mask in the operand
        // whose literal fits the target width.
        let masked = operand.iter().any(|t| t.is_sym('&'))
            && operand
                .iter()
                .filter_map(|t| t.ident().and_then(literal_value))
                .any(|v| v <= max);
        if masked {
            continue;
        }
        diags.push(diag(
            path,
            toks[idx].line(),
            RULE_LOSSY_CAST,
            format!(
                "truncating `as {target}` cast on a wire path; convert with try_from or \
                 mask the operand to the target width (or justify with tsjlint:allow)"
            ),
        ));
    }
}

// ---- no-unbounded-alloc-from-wire ------------------------------------

/// Initializer identifiers that mark a binding as wire-decoded.
const WIRE_MARKERS: [&str; 6] = [
    "from_le_bytes",
    "from_be_bytes",
    "read_varint",
    "get_u32",
    "get_u64",
    "decode",
];

/// Callees whose argument sizes an allocation (or a sized read).
const ALLOC_CALLEES: [&str; 5] = [
    "with_capacity",
    "with_capacity_and_hasher",
    "resize",
    "reserve",
    "read_exact",
];

fn has_ident(toks: &[Tok], range: Range<usize>, name: &str) -> bool {
    toks[range].iter().any(|t| t.is_ident(name))
}

fn rule_wire_alloc(
    path: &str,
    toks: &[Tok],
    delims: &[usize],
    items: &[Item],
    diags: &mut Vec<Diagnostic>,
) {
    for_each_fn(items, &mut |f| {
        let Some(body) = f.body.clone() else { return };
        let lets = let_bindings(toks, delims, body.clone());
        // (name, index its value exists from) for wire-decoded bindings.
        // A `.min(..)` / `.clamp(..)` in the initializer already bounds
        // the value; `try_from` alone converts without bounding.
        let tainted: Vec<(&str, usize)> = lets
            .iter()
            .filter(|b| owned_by(items, f, b.stmt_end))
            .filter(|b| {
                toks[b.init.clone()]
                    .iter()
                    .any(|t| matches!(t.ident(), Some(m) if WIRE_MARKERS.contains(&m)))
                    && !toks[b.init.clone()]
                        .iter()
                        .any(|t| matches!(t.ident(), Some("min" | "clamp")))
            })
            .map(|b| (b.name.as_str(), b.stmt_end))
            .collect();
        if tainted.is_empty() {
            return;
        }
        // Allocation sites: sized calls and `vec![.. ; n]`.
        let mut sites: Vec<(usize, Range<usize>, &'static str)> = Vec::new();
        for idx in body.clone() {
            if let Some(callee) = toks[idx].ident() {
                if let Some(&known) = ALLOC_CALLEES.iter().find(|&&c| c == callee) {
                    if toks.get(idx + 1).is_some_and(|t| t.is_sym('(')) && delims[idx + 1] > idx + 1
                    {
                        sites.push((idx, idx + 2..delims[idx + 1], known));
                    }
                }
                if callee == "vec"
                    && toks.get(idx + 1).is_some_and(|t| t.is_sym('!'))
                    && toks.get(idx + 2).is_some_and(|t| t.is_sym('['))
                    && delims[idx + 2] > idx + 2
                {
                    let close = delims[idx + 2];
                    // `vec![elem; n]`: the size expression follows the
                    // top-level `;`.
                    let mut depth = 0i32;
                    for (j, t) in toks.iter().enumerate().take(close).skip(idx + 3) {
                        match t {
                            Tok::Sym('(' | '[' | '{', _) => depth += 1,
                            Tok::Sym(')' | ']' | '}', _) => depth -= 1,
                            Tok::Sym(';', _) if depth == 0 => {
                                sites.push((idx, j + 1..close, "vec![_; n]"));
                                break;
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        for (site, size, what) in sites {
            for &(name, decl_end) in &tainted {
                if decl_end >= site || !has_ident(toks, size.clone(), name) {
                    continue;
                }
                // Bounded at the use site.
                if toks[size.clone()]
                    .iter()
                    .any(|t| matches!(t.ident(), Some("min" | "clamp")))
                {
                    continue;
                }
                // Dominating bounds check: an earlier `if` in this
                // function whose condition mentions the tainted name.
                if dominated_by_check(toks, body.start, site, name) {
                    continue;
                }
                diags.push(diag(
                    path,
                    toks[site].line(),
                    RULE_WIRE_ALLOC,
                    format!(
                        "`{what}` sized from wire-decoded `{name}` with no dominating bounds \
                         check; compare against a named cap (or clamp) before allocating"
                    ),
                ));
            }
        }
    });
}

/// Whether an `if` condition mentioning `name` appears between
/// `from` and `site` — the shape of a reject-before-allocate guard.
fn dominated_by_check(toks: &[Tok], from: usize, site: usize, name: &str) -> bool {
    for idx in from..site {
        if !toks[idx].is_ident("if") {
            continue;
        }
        let mut depth = 0i32;
        for t in toks.iter().take(site).skip(idx + 1) {
            match t {
                Tok::Sym('(' | '[', _) => depth += 1,
                Tok::Sym(')' | ']', _) => depth -= 1,
                Tok::Sym('{', _) if depth == 0 => break,
                Tok::Ident(s, _) if s == name => return true,
                _ => {}
            }
        }
    }
    false
}

// ---- no-lock-across-io -----------------------------------------------

/// Blocking or I/O calls a live lock guard must not enclose.
const IO_CALLS: [&str; 12] = [
    "read_frame",
    "write_frame",
    "connect",
    "accept",
    "read_exact",
    "read_exact_at",
    "read_to_end",
    "write_all",
    "flush",
    "sync_all",
    "sync_data",
    "sleep",
];

/// Chain-level calls that consume the guard within the statement — the
/// binding holds an extracted value, not the guard.
const GUARD_EXTRACTORS: [&str; 12] = [
    "take",
    "clone",
    "cloned",
    "copied",
    "len",
    "is_empty",
    "contains_key",
    "remove",
    "insert",
    "push",
    "pop",
    "get",
];

fn rule_lock_io(
    path: &str,
    toks: &[Tok],
    delims: &[usize],
    items: &[Item],
    diags: &mut Vec<Diagnostic>,
) {
    for_each_fn(items, &mut |f| {
        let Some(body) = f.body.clone() else { return };
        for b in let_bindings(toks, delims, body.clone()) {
            if !owned_by(items, f, b.stmt_end) {
                continue;
            }
            // A guard: the initializer calls `lock(`, either as a method
            // or through a free helper.
            let Some(lock_at) = b.init.clone().find(|&i| {
                toks[i].is_ident("lock") && toks.get(i + 1).is_some_and(|t| t.is_sym('('))
            }) else {
                continue;
            };
            // `.lock()...take()` chains extract a value and drop the
            // guard with the statement.
            let mut depth = 0i32;
            let mut extracted = false;
            for i in b.init.clone() {
                match &toks[i] {
                    Tok::Sym('(' | '[' | '{', _) => depth += 1,
                    Tok::Sym(')' | ']' | '}', _) => depth -= 1,
                    Tok::Ident(m, _)
                        if depth == 0
                            && i > lock_at
                            && i > b.init.start
                            && toks[i - 1].is_sym('.')
                            && toks.get(i + 1).is_some_and(|t| t.is_sym('('))
                            && GUARD_EXTRACTORS.contains(&m.as_str()) =>
                    {
                        extracted = true;
                    }
                    _ => {}
                }
            }
            if extracted {
                continue;
            }
            // The guard lives from its statement to its block's end —
            // or to an explicit `drop(name)`.
            let mut scope = b.stmt_end + 1..b.scope_end.min(body.end);
            for i in scope.clone() {
                if toks[i].is_ident("drop")
                    && toks.get(i + 1).is_some_and(|t| t.is_sym('('))
                    && toks.get(i + 2).is_some_and(|t| t.is_ident(&b.name))
                    && toks.get(i + 3).is_some_and(|t| t.is_sym(')'))
                {
                    scope.end = i;
                    break;
                }
            }
            for i in scope {
                let Some(callee) = toks[i].ident() else {
                    continue;
                };
                let called = toks.get(i + 1).is_some_and(|t| t.is_sym('('));
                if !called {
                    continue;
                }
                let blocking = IO_CALLS.contains(&callee);
                // `Condvar::wait(guard)` blocks every *other* live guard;
                // the one it consumes is its designed companion.
                let waits = matches!(callee, "wait" | "wait_timeout")
                    && delims[i + 1] > i + 1
                    && !has_ident(toks, i + 2..delims[i + 1], &b.name);
                if blocking || waits {
                    diags.push(diag(
                        path,
                        b.line,
                        RULE_LOCK_IO,
                        format!(
                            "lock guard `{}` is still held across `{callee}` on line {}; \
                             narrow the guard's scope or drop it before blocking",
                            b.name,
                            toks[i].line()
                        ),
                    ));
                    break;
                }
            }
        }
    });
}

// ---- no-silent-result-drop -------------------------------------------

/// Callees known to return `Result` whose bare-statement discard loses
/// the error (heuristic: call shape, not type resolution).
const RESULT_FNS: [&str; 13] = [
    "write_all",
    "read_exact",
    "flush",
    "sync_all",
    "sync_data",
    "remove_file",
    "remove_dir_all",
    "create_dir_all",
    "set_read_timeout",
    "set_write_timeout",
    "set_nodelay",
    "set_deadlines",
    "join",
];

fn rule_result_drop(
    path: &str,
    toks: &[Tok],
    delims: &[usize],
    items: &[Item],
    diags: &mut Vec<Diagnostic>,
) {
    // Form 1: `let _ = call(..);` — an explicit discard of a call's
    // return. `catch_unwind` is exempt: the Err *is* the contained panic
    // payload, and dropping it is the containment.
    for_each_fn(items, &mut |f| {
        let Some(body) = f.body.clone() else { return };
        for b in let_bindings(toks, delims, body) {
            if b.name != "_" || b.init.is_empty() || !owned_by(items, f, b.stmt_end) {
                continue;
            }
            let has_call = b.init.clone().any(|i| {
                toks[i].ident().is_some() && toks.get(i + 1).is_some_and(|t| t.is_sym('('))
            });
            if !has_call || has_ident(toks, b.init.clone(), "catch_unwind") {
                continue;
            }
            diags.push(diag(
                path,
                b.line,
                RULE_RESULT_DROP,
                "`let _ =` silently discards the call's Result; handle or log the error \
                 (or justify with tsjlint:allow)"
                    .to_owned(),
            ));
        }
    });
    // Form 2: a bare `receiver.known_result_fn(..);` statement.
    for (idx, tok) in toks.iter().enumerate() {
        let Some(callee) = tok.ident() else { continue };
        if !RESULT_FNS.contains(&callee) || !toks.get(idx + 1).is_some_and(|t| t.is_sym('(')) {
            continue;
        }
        let close = delims[idx + 1];
        if close <= idx + 1 || !toks.get(close + 1).is_some_and(|t| t.is_sym(';')) {
            continue;
        }
        let start = expr_start(toks, delims, close);
        let statement_position =
            start == 0 || matches!(&toks[start - 1], Tok::Sym(';' | '{' | '}', _));
        if statement_position {
            diags.push(diag(
                path,
                tok.line(),
                RULE_RESULT_DROP,
                format!(
                    "bare `{callee}(..);` statement discards its Result; `?`-propagate, \
                     handle, or log the error (or justify with tsjlint:allow)"
                ),
            ));
        }
    }
}

// ---- no-hashmap-iter-in-output-path ----------------------------------

/// Methods that observe a hash container in iteration order.
const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

fn rule_hashmap_iter(
    path: &str,
    toks: &[Tok],
    delims: &[usize],
    items: &[Item],
    diags: &mut Vec<Diagnostic>,
) {
    for_each_fn(items, &mut |f| {
        let Some(body) = f.body.clone() else { return };
        let lets = let_bindings(toks, delims, body.clone());
        for b in &lets {
            if !owned_by(items, f, b.stmt_end) {
                continue;
            }
            let hashy = toks[b.ty.clone()]
                .iter()
                .chain(toks[b.init.clone()].iter())
                .any(|t| matches!(t.ident(), Some("HashMap" | "HashSet")));
            if !hashy {
                continue;
            }
            let scope = b.stmt_end..b.scope_end.min(body.end);
            for i in scope {
                // A mention of the binding (not a same-named field).
                if !toks[i].is_ident(&b.name) || (i > 0 && toks[i - 1].is_sym('.')) {
                    continue;
                }
                // `name.iter()` / `name.into_iter()` / ...
                let method_iter = toks.get(i + 1).is_some_and(|t| t.is_sym('.'))
                    && toks
                        .get(i + 2)
                        .and_then(Tok::ident)
                        .is_some_and(|m| ITER_METHODS.contains(&m));
                // `for x in name` / `for x in &name`.
                let for_head = in_for_head(toks, i);
                if method_iter || for_head {
                    diags.push(diag(
                        path,
                        toks[i].line(),
                        RULE_HASHMAP_ITER,
                        format!(
                            "iterating std HashMap/HashSet `{}` in an output-feeding module; \
                             hash order is arbitrary — sort before emitting or use an ordered \
                             structure (or justify with tsjlint:allow)",
                            b.name
                        ),
                    ));
                    break;
                }
            }
        }
    });
}

/// Whether token `i` sits inside a `for .. in <head>` head (between `in`
/// and the loop's opening `{`).
fn in_for_head(toks: &[Tok], i: usize) -> bool {
    // Walk back to an `in` with a `for` before it, without crossing
    // statement boundaries or the loop body's `{`.
    let mut saw_in = false;
    let mut j = i;
    while j > 0 {
        j -= 1;
        match &toks[j] {
            Tok::Ident(s, _) if s == "in" => saw_in = true,
            Tok::Ident(s, _) if s == "for" => return saw_in,
            Tok::Sym('{' | '}' | ';', _) => return false,
            _ => {}
        }
    }
    false
}
