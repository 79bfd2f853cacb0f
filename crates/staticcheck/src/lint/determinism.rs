//! The determinism rule family.
//!
//! The workspace's load-bearing guarantee is *replayability*: byte-
//! identical results — including every `f64` sum — at any thread count,
//! on any host. These rules statically fence the four ways source code
//! can leak nondeterminism into that contract:
//!
//! * [`unordered_collection`] / [`unordered_iter`] — `HashMap`/`HashSet`
//!   declarations and iteration. Hash iteration order varies per process
//!   (`RandomState`) and so must never reach serve order, metrics or
//!   serialized output. Keyed lookups are legal; a declaration passes
//!   via a justified allowlist entry arguing keyed-only access, or by
//!   conversion to `BTreeMap`/`BTreeSet`.
//! * [`float_sum`] — floating-point `sum`/`product`/`fold` reductions.
//!   IEEE addition is not associative, so a float reduction is only
//!   deterministic when its iteration order is pinned. The blessed
//!   homes (`telemetry`'s submission-order `merge_ordered` and the
//!   tally module) are exempted by the driver; everything else
//!   needs a justification naming the order its iterator guarantees.
//!   `fold`s over `f64::max`/`f64::min` are exempt — those operators
//!   are commutative and associative, so order cannot matter.
//! * [`wall_clock`] — `Instant::now`/`SystemTime` reads. Wall-clock
//!   values are nondeterministic by definition; only `telemetry`'s span
//!   module (exempted by the driver) may observe them, and only into
//!   span fields that the determinism contract explicitly excludes.
//! * [`entropy`] — nondeterministic randomness (`thread_rng`,
//!   `from_entropy`, `OsRng`, `rand::random`). All simulation
//!   randomness must flow from seeded `StdRng`-style constructors so
//!   runs replay exactly.
//!
//! Rules operate on the token stream of [`super::ast`] — receiver names,
//! binding sites and statement windows — rather than raw substrings, and
//! skip `#[cfg(test)]` spans entirely.

use super::ast::{self, Kind, MethodCall, Tok};
use super::lexer::Scrubbed;
use super::rules::Finding;

/// Method names whose call iterates a collection.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

fn finding(rule: &'static str, s: &Scrubbed, off: usize) -> Finding {
    let line = s.line_of(off);
    Finding {
        rule,
        line,
        excerpt: s.line_text(line).trim().to_string(),
    }
}

/// `det-unordered-collection`: every `HashMap`/`HashSet` occurrence in
/// non-test code outside `use` declarations, one finding per line.
/// Convert to a `BTreeMap`/`BTreeSet`, or justify keyed-only access.
pub fn unordered_collection(s: &Scrubbed, toks: &[Tok<'_>]) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        if s.in_test_code(t.off) || ast::in_use_decl(toks, i) {
            continue;
        }
        let f = finding("det-unordered-collection", s, t.off);
        if out.last().is_none_or(|last| last.line != f.line) {
            out.push(f);
        }
    }
    out
}

/// `det-unordered-iter`: iteration (method or `for` loop) over a name
/// this file binds to a `HashMap`/`HashSet`.
pub fn unordered_iter(s: &Scrubbed, toks: &[Tok<'_>]) -> Vec<Finding> {
    let names = ast::hash_bound_names(toks);
    if names.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for call in ast::method_calls(toks) {
        if !ITER_METHODS.contains(&call.name) {
            continue;
        }
        let Some(recv) = call.receiver else { continue };
        if names.iter().any(|n| n == recv) && !s.in_test_code(call.off) {
            out.push(finding("det-unordered-iter", s, call.off));
        }
    }
    for l in ast::for_loops(toks) {
        if names.iter().any(|n| n == l.base) && !s.in_test_code(l.off) {
            out.push(finding("det-unordered-iter", s, l.off));
        }
    }
    out.sort_by_key(|f| f.line);
    out
}

/// Tokens of the argument list starting at the `(` token `open`,
/// truncated at the matching close paren (bounded walk).
fn arg_tokens<'a>(toks: &'a [Tok<'a>], open: usize) -> &'a [Tok<'a>] {
    let mut depth = 0i32;
    for (n, t) in toks[open..].iter().enumerate().take(256) {
        match t.kind {
            Kind::Punct(b'(') => depth += 1,
            Kind::Punct(b')') => {
                depth -= 1;
                if depth == 0 {
                    return &toks[open + 1..open + n];
                }
            }
            _ => {}
        }
    }
    &toks[open + 1..(open + 256).min(toks.len())]
}

/// Whether a token window mentions floating point: an `f64`/`f32`
/// identifier, a float literal, or a `_ms`-suffixed timing identifier.
fn window_is_floaty(window: &[Tok<'_>]) -> bool {
    window.iter().any(|t| match t.kind {
        Kind::Num { float } => float,
        Kind::Ident => {
            t.text == "f64" || t.text == "f32" || t.text.ends_with("_ms")
        }
        _ => false,
    })
}

/// Whether the fold arguments reduce through `f64::max`/`f64::min`
/// (commutative and associative — order-independent by construction).
fn fold_is_minmax(args: &[Tok<'_>]) -> bool {
    args.windows(4).any(|w| {
        w[0].is_ident("f64")
            && w[1].is_punct(b':')
            && w[2].is_punct(b':')
            && (w[3].is_ident("max") || w[3].is_ident("min"))
    })
}

/// The turbofish tokens between a method name and its argument list.
fn turbofish<'a>(toks: &'a [Tok<'a>], call: &MethodCall<'a>) -> &'a [Tok<'a>] {
    &toks[call.name_idx + 1..call.args_open]
}

/// Start of the float-context window for a reduction at token `i`: one
/// past the previous `;` or `}`. Unlike [`ast::stmt_start`] this walks
/// through `{`, so a reduction that is a function's whole body still
/// sees the signature's types (`fn total(&self) -> f64 { …sum() }`).
fn window_start(toks: &[Tok<'_>], i: usize) -> usize {
    let mut j = i;
    while j > 0 {
        match toks[j - 1].kind {
            Kind::Punct(b';') | Kind::Punct(b'}') => return j,
            _ => j -= 1,
        }
    }
    0
}

/// The primitive integer type names, for ascription checks.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Whether the statement window carries an explicit integer type
/// ascription (`let n: u64 = …`) — authoritative evidence that the
/// reduction is integral even when the enclosing function's signature
/// mentions floats.
fn has_int_ascription(window: &[Tok<'_>]) -> bool {
    window.windows(3).any(|w| {
        w[0].is_punct(b':')
            && w[1].kind == Kind::Ident
            && INT_TYPES.contains(&w[1].text)
            && w[2].is_punct(b'=')
    })
}

/// Float-context decision for a reduction call: the turbofish/argument
/// window first, then the statement (which can overrule with an integer
/// ascription), then the wider window reaching the enclosing signature.
fn reduction_is_floaty(toks: &[Tok<'_>], call: &MethodCall<'_>, near: &[Tok<'_>]) -> bool {
    let stmt = &toks[ast::stmt_start(toks, call.name_idx)..call.name_idx];
    if window_is_floaty(near) || window_is_floaty(stmt) {
        return true;
    }
    if has_int_ascription(stmt) {
        return false;
    }
    window_is_floaty(&toks[window_start(toks, call.name_idx)..call.name_idx])
}

/// `det-float-sum`: floating-point `sum`/`product`/`fold` reductions.
pub fn float_sum(s: &Scrubbed, toks: &[Tok<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    for call in ast::method_calls(toks) {
        if s.in_test_code(call.off) {
            continue;
        }
        let floaty = match call.name {
            "sum" | "product" => {
                let fish = turbofish(toks, &call);
                let int_fish = fish.iter().any(|t| {
                    t.kind == Kind::Ident
                        && (t.text.starts_with('u') || t.text.starts_with('i'))
                        && t.text != "if"
                });
                !int_fish && reduction_is_floaty(toks, &call, fish)
            }
            "fold" => {
                let args = arg_tokens(toks, call.args_open);
                !fold_is_minmax(args) && reduction_is_floaty(toks, &call, args)
            }
            _ => false,
        };
        if floaty {
            out.push(finding("det-float-sum", s, call.off));
        }
    }
    out
}

/// `det-wall-clock`: `Instant::now`, `SystemTime::now` and `UNIX_EPOCH`
/// reads (as calls or as function references).
pub fn wall_clock(s: &Scrubbed, toks: &[Tok<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if s.in_test_code(t.off) {
            continue;
        }
        let hit = if t.is_ident("Instant") || t.is_ident("SystemTime") {
            ast::pair(toks, i + 1, b':', b':')
                && toks.get(i + 3).is_some_and(|n| n.is_ident("now"))
        } else {
            t.is_ident("UNIX_EPOCH")
        };
        if hit {
            out.push(finding("det-wall-clock", s, t.off));
        }
    }
    out
}

/// `det-entropy`: nondeterministic randomness sources.
pub fn entropy(s: &Scrubbed, toks: &[Tok<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != Kind::Ident || s.in_test_code(t.off) {
            continue;
        }
        let hit = match t.text {
            "thread_rng" | "ThreadRng" | "from_entropy" | "OsRng" => true,
            "random" => {
                // `rand::random` — a path through the rand crate.
                i >= 3
                    && toks[i - 3].is_ident("rand")
                    && ast::pair(toks, i - 2, b':', b':')
            }
            _ => false,
        };
        if hit {
            out.push(finding("det-entropy", s, t.off));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rule: fn(&Scrubbed, &[Tok<'_>]) -> Vec<Finding>, src: &str) -> Vec<usize> {
        let s = Scrubbed::new(src);
        let toks = ast::tokenize(&s);
        rule(&s, &toks).iter().map(|f| f.line).collect()
    }

    #[test]
    fn collection_decls_flagged_outside_use_and_tests() {
        let src = "use std::collections::HashMap;\n\
                   struct S { m: HashMap<u64, u32> }\n\
                   #[cfg(test)]\nmod t { fn f() { let h = std::collections::HashMap::<u8, u8>::new(); } }\n";
        assert_eq!(run(unordered_collection, src), [1]);
    }

    #[test]
    fn iteration_over_bound_hash_names_flagged() {
        let src = "struct S { m: HashMap<u64, u32> }\n\
                   impl S {\n\
                   fn bad(&self) -> Vec<u64> { self.m.keys().copied().collect() }\n\
                   fn good(&self, k: u64) -> Option<&u32> { self.m.get(&k) }\n\
                   fn loops(&self) { for (k, v) in &self.m { drop((k, v)); } }\n\
                   }\n";
        assert_eq!(run(unordered_iter, src), [2, 4]);
    }

    #[test]
    fn vec_iteration_is_not_flagged() {
        let src = "struct S { v: Vec<u64> }\n\
                   impl S { fn ok(&self) -> u64 { self.v.iter().sum() } }\n";
        assert!(run(unordered_iter, src).is_empty());
    }

    #[test]
    fn float_sums_flagged_int_sums_not() {
        let src = "fn a(xs: &[f64]) -> f64 { xs.iter().sum() }\n\
                   fn b(xs: &[u64]) -> u64 { xs.iter().sum() }\n\
                   fn c(xs: &[f64]) -> f64 { xs.iter().copied().fold(0.0, |a, b| a + b) }\n\
                   fn d(xs: &[f64]) -> f64 { xs.iter().copied().fold(f64::NEG_INFINITY, f64::max) }\n\
                   fn e(ts: &[T]) -> f64 { ts.iter().map(|t| t.total_ms()).sum() }\n\
                   fn g(xs: &[u32]) -> u64 { xs.iter().map(|&c| c as u64).sum::<u64>() }\n";
        assert_eq!(run(float_sum, src), [0, 2, 4]);
    }

    #[test]
    fn int_ascription_overrules_a_floaty_signature() {
        // The signature mentions f64, but the binding is ascribed u64 —
        // an integral product, not a float reduction.
        let src = "fn score(k: &[u64], r: f64) -> Option<(u64, f64)> {\n\
                   let prod: u64 = k.iter().product();\n\
                   let v: f64 = r * prod as f64;\n\
                   let s: f64 = k.iter().map(|&x| x as f64).sum();\n\
                   Some((prod, v + s)) }\n";
        assert_eq!(run(float_sum, src), [3]);
    }

    #[test]
    fn wall_clock_reads_flagged() {
        let src = "use std::time::Instant;\n\
                   fn t() -> Instant { Instant::now() }\n\
                   fn r(timed: bool) -> Option<Instant> { timed.then(Instant::now) }\n";
        assert_eq!(run(wall_clock, src), [1, 2]);
    }

    #[test]
    fn entropy_sources_flagged_seeded_rng_not() {
        let src = "fn a() -> u64 { rand::random() }\n\
                   fn b() { let mut r = rand::thread_rng(); drop(r); }\n\
                   fn c() { let r = StdRng::seed_from_u64(7); drop(r); }\n";
        assert_eq!(run(entropy, src), [0, 1]);
    }
}
