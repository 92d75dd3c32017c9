//! Source printing (`to_source`) and span-insensitive AST comparison.
//!
//! The printer is the inverse of the parser: for every AST the emitted
//! text parses back to a structurally identical AST (up to spans and
//! freshly generated `_`-binder names). That round-trip property is what
//! the `algst-conform` fuzzer checks on random types and programs, and
//! what the precedence table in this module's tests pins down case by
//! case.
//!
//! Parenthesization mirrors the parser's precedence levels exactly:
//!
//! * types — `forall`/`->` (top) > session prefixes `!`/`?` (seq) >
//!   atoms; message payloads and name-application arguments print at
//!   atom level, `Dual`/`-` take an atom and are themselves atoms;
//! * expressions — `\`/`let`/`if`/`match` (top) > `||` > `&&` >
//!   comparisons (non-associative) > `+`/`-` > `*`/`/`/`%` >
//!   application > atoms.
//!
//! Declarations print one per line, so the column-1 layout rule is
//! satisfied by construction.

use crate::ast::*;
use algst_core::expr::Lit;
use algst_core::symbol::Symbol;
use std::fmt::Write;

// ---------------------------------------------------------------- types

/// Parser precedence levels for types, loosest to tightest.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum TPrec {
    /// `forall (a:k). T` and `T -> U`.
    Top,
    /// `!T.S` / `?T.S` (also where bare name applications live).
    Seq,
    /// Parenthesized/self-delimiting forms; payloads and arguments.
    Atom,
}

/// Renders type `t` of `arena` as parseable source.
pub fn type_to_source(arena: &Arena, t: TyId) -> String {
    let mut out = String::new();
    fmt_stype(arena, t, &mut out, TPrec::Top);
    out
}

fn fmt_stype(arena: &Arena, t: TyId, out: &mut String, prec: TPrec) {
    let paren = |out: &mut String, needed: bool, body: &dyn Fn(&mut String)| {
        if needed {
            out.push('(');
            body(out);
            out.push(')');
        } else {
            body(out);
        }
    };
    let ty = |t: TyId, out: &mut String, prec: TPrec| fmt_stype(arena, t, out, prec);
    match arena.ty(t) {
        SType::Unit => out.push_str("Unit"),
        SType::Var(v) => out.push_str(v.as_str()),
        SType::EndIn => out.push_str("End?"),
        SType::EndOut => out.push_str("End!"),
        SType::Name(n, args) => {
            if args.is_empty() {
                out.push_str(n.as_str());
            } else {
                // A *bare* applied name is complete at seq level; inside
                // an atom slot it needs parentheses (the parser does not
                // curry applications through argument positions).
                paren(out, prec >= TPrec::Atom, &|out| {
                    out.push_str(n.as_str());
                    for a in arena.tys(args) {
                        out.push(' ');
                        ty(a, out, TPrec::Atom);
                    }
                });
            }
        }
        SType::Arrow(a, b) => paren(out, prec > TPrec::Top, &|out| {
            ty(a, out, TPrec::Seq);
            out.push_str(" -> ");
            ty(b, out, TPrec::Top);
        }),
        SType::Pair(a, b) => {
            out.push('(');
            ty(a, out, TPrec::Top);
            out.push_str(", ");
            ty(b, out, TPrec::Top);
            out.push(')');
        }
        SType::Forall(v, k, body) => paren(out, prec > TPrec::Top, &|out| {
            let _ = write!(out, "forall ({v}:{k}). ");
            ty(body, out, TPrec::Top);
        }),
        SType::In(p, s) => paren(out, prec > TPrec::Seq, &|out| {
            out.push('?');
            ty(p, out, TPrec::Atom);
            out.push('.');
            ty(s, out, TPrec::Seq);
        }),
        SType::Out(p, s) => paren(out, prec > TPrec::Seq, &|out| {
            out.push('!');
            ty(p, out, TPrec::Atom);
            out.push('.');
            ty(s, out, TPrec::Seq);
        }),
        // `Dual` and `-` each take one atom and are atoms themselves, so
        // they never need surrounding parentheses.
        SType::Dual(inner) => {
            out.push_str("Dual ");
            ty(inner, out, TPrec::Atom);
        }
        SType::Neg(inner) => {
            out.push('-');
            // `--` would lex as a line comment, so a nested negation is
            // always parenthesized.
            paren(out, matches!(arena.ty(inner), SType::Neg(..)), &|out| {
                ty(inner, out, TPrec::Atom);
            });
        }
    }
}

// ---------------------------------------------------------- expressions

/// Parser precedence levels for expressions, loosest to tightest.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum EPrec {
    /// `\… ->`, `let`, `if`, `match` and everything below.
    Expr,
    Or,
    And,
    /// `==` `/=` `<` `<=` `>` `>=` — non-associative.
    Cmp,
    Add,
    Mul,
    App,
    Atom,
}

/// Renders expression `e` of `arena` as parseable source.
pub fn expr_to_source(arena: &Arena, e: ExprId) -> String {
    let mut out = String::new();
    fmt_sexpr(arena, e, &mut out, EPrec::Expr);
    out
}

/// Binder occurrences the parser generated for `_` carry fresh `%`-names
/// that are not valid source; print them back as `_`.
fn push_binder(out: &mut String, s: Symbol) {
    if s.as_str().contains('%') {
        out.push('_');
    } else {
        out.push_str(s.as_str());
    }
}

fn op_prec(op: Symbol) -> EPrec {
    match op.as_str() {
        "||" => EPrec::Or,
        "&&" => EPrec::And,
        "==" | "/=" | "<" | "<=" | ">" | ">=" => EPrec::Cmp,
        "+" | "-" => EPrec::Add,
        _ => EPrec::Mul, // "*", "/", "%"
    }
}

fn fmt_sexpr(arena: &Arena, e: ExprId, out: &mut String, prec: EPrec) {
    let paren = |out: &mut String, needed: bool, body: &dyn Fn(&mut String)| {
        if needed {
            out.push('(');
            body(out);
            out.push(')');
        } else {
            body(out);
        }
    };
    let expr = |e: ExprId, out: &mut String, prec: EPrec| fmt_sexpr(arena, e, out, prec);
    match arena.expr(e) {
        SExpr::Lit(l, _) => fmt_lit(l, out),
        SExpr::Var(x, _) => out.push_str(x.as_str()),
        SExpr::Con(c, _) => out.push_str(c.as_str()),
        SExpr::Select(tag, _) => {
            let _ = write!(out, "select {tag}");
        }
        SExpr::Lambda(params, body, _) => paren(out, prec > EPrec::Expr, &|out| {
            out.push('\\');
            for p in arena.names(*params) {
                push_binder(out, *p);
                out.push(' ');
            }
            out.push_str("-> ");
            expr(*body, out, EPrec::Expr);
        }),
        SExpr::Let(pat, bound, body, _) => paren(out, prec > EPrec::Expr, &|out| {
            out.push_str("let ");
            match pat {
                Pattern::Var(x) => out.push_str(x.as_str()),
                Pattern::Pair(x, y) => {
                    let _ = write!(out, "({x}, {y})");
                }
                Pattern::Unit => out.push_str("()"),
                Pattern::Wild => out.push('_'),
            }
            out.push_str(" = ");
            expr(*bound, out, EPrec::Expr);
            out.push_str(" in ");
            expr(*body, out, EPrec::Expr);
        }),
        SExpr::If(c, t, f, _) => paren(out, prec > EPrec::Expr, &|out| {
            out.push_str("if ");
            expr(*c, out, EPrec::Expr);
            out.push_str(" then ");
            expr(*t, out, EPrec::Expr);
            out.push_str(" else ");
            expr(*f, out, EPrec::Expr);
        }),
        SExpr::Case(scrutinee, arms, _) => paren(out, prec > EPrec::Expr, &|out| {
            out.push_str("match ");
            // The parser reads the scrutinee at pipe level.
            expr(*scrutinee, out, EPrec::Or);
            out.push_str(" with { ");
            for (i, arm) in arena.arms(*arms).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(arm.tag.as_str());
                for b in arena.names(arm.binders) {
                    out.push(' ');
                    push_binder(out, *b);
                }
                out.push_str(" -> ");
                expr(arm.body, out, EPrec::Expr);
            }
            out.push_str(" }");
        }),
        SExpr::BinOp(op, lhs, rhs, _) => {
            let level = op_prec(*op);
            paren(out, prec > level, &|out| {
                // Left-associative chains reuse their own level on the
                // left; comparisons are non-associative, so both sides
                // drop to the next-tighter level.
                let (lp, rp) = match level {
                    EPrec::Or => (EPrec::Or, EPrec::And),
                    EPrec::And => (EPrec::And, EPrec::Cmp),
                    EPrec::Cmp => (EPrec::Add, EPrec::Add),
                    EPrec::Add => (EPrec::Add, EPrec::Mul),
                    _ => (EPrec::Mul, EPrec::App),
                };
                expr(*lhs, out, lp);
                let _ = write!(out, " {op} ");
                expr(*rhs, out, rp);
            });
        }
        SExpr::App(f, a, _) => paren(out, prec > EPrec::App, &|out| {
            expr(*f, out, EPrec::App);
            out.push(' ');
            expr(*a, out, EPrec::Atom);
        }),
        SExpr::TApp(f, tys, _) => paren(out, prec > EPrec::App, &|out| {
            expr(*f, out, EPrec::App);
            out.push_str(" [");
            for (i, t) in arena.tys(*tys).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                fmt_stype(arena, t, out, TPrec::Top);
            }
            out.push(']');
        }),
        SExpr::Pair(a, b, _) => {
            out.push('(');
            expr(*a, out, EPrec::Expr);
            out.push_str(", ");
            expr(*b, out, EPrec::Expr);
            out.push(')');
        }
    }
}

fn fmt_lit(l: &Lit, out: &mut String) {
    match l {
        Lit::Unit => out.push_str("()"),
        // A negative literal has no source form (`-` lexes as an
        // operator); render it as a constant expression instead. The
        // result still evaluates identically but does not round-trip to
        // the same AST — generators avoid negative literals.
        Lit::Int(n) if *n < 0 => {
            let _ = write!(out, "(0 - {})", n.unsigned_abs());
        }
        Lit::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Lit::Bool(true) => out.push_str("True"),
        Lit::Bool(false) => out.push_str("False"),
        Lit::Char(c) => match c {
            '\n' => out.push_str("'\\n'"),
            '\t' => out.push_str("'\\t'"),
            '\\' => out.push_str("'\\\\'"),
            '\'' => out.push_str("'\\''"),
            c => {
                let _ = write!(out, "'{c}'");
            }
        },
        Lit::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
    }
}

// --------------------------------------------------------- declarations

/// Renders a declaration as one line of parseable source.
pub fn decl_to_source(d: &Decl) -> String {
    let mut out = String::new();
    let arena = &d.arena;
    match &d.kind {
        DeclKind::Protocol(td) | DeclKind::Data(td) => {
            out.push_str(if matches!(d.kind, DeclKind::Protocol(_)) {
                "protocol "
            } else {
                "data "
            });
            out.push_str(td.name.as_str());
            for p in &td.params {
                let _ = write!(out, " {p}");
            }
            out.push_str(" =");
            for (i, c) in td.ctors.iter().enumerate() {
                out.push_str(if i == 0 { " " } else { " | " });
                out.push_str(c.name.as_str());
                for a in arena.tys(c.args) {
                    out.push(' ');
                    fmt_stype(arena, a, &mut out, TPrec::Atom);
                }
            }
        }
        DeclKind::Alias(a) => {
            let _ = write!(out, "type {}", a.name);
            for p in &a.params {
                let _ = write!(out, " {p}");
            }
            out.push_str(" = ");
            fmt_stype(arena, a.body, &mut out, TPrec::Top);
        }
        DeclKind::Signature(s) => {
            let _ = write!(out, "{} : ", s.name);
            fmt_stype(arena, s.ty, &mut out, TPrec::Top);
        }
        DeclKind::Binding(b) => {
            out.push_str(b.name.as_str());
            for p in &b.params {
                out.push(' ');
                match p {
                    Param::Term(x) => out.push_str(x.as_str()),
                    Param::Wild => out.push('_'),
                    Param::Types(vs) => {
                        out.push('[');
                        for (i, v) in vs.iter().enumerate() {
                            if i > 0 {
                                out.push_str(", ");
                            }
                            out.push_str(v.as_str());
                        }
                        out.push(']');
                    }
                }
            }
            out.push_str(" = ");
            fmt_sexpr(arena, b.body, &mut out, EPrec::Expr);
        }
    }
    out
}

/// Renders a whole program, one declaration per line (so the column-1
/// layout rule holds by construction).
pub fn program_to_source(p: &Program) -> String {
    let mut out = String::new();
    for d in &p.decls {
        out.push_str(&decl_to_source(d));
        out.push('\n');
    }
    out
}

// ------------------------------------------- span-insensitive equality
//
// Each side is read through its own arena, so nodes compare by shape,
// never by id.

/// Structural type equality across arenas.
pub fn ty_eq(a: &Arena, x: TyId, b: &Arena, y: TyId) -> bool {
    let eq = |x, y| ty_eq(a, x, b, y);
    match (a.ty(x), b.ty(y)) {
        (SType::Unit, SType::Unit)
        | (SType::EndIn, SType::EndIn)
        | (SType::EndOut, SType::EndOut) => true,
        (SType::Name(n, xs), SType::Name(m, ys)) => {
            n == m && xs.len() == ys.len() && a.tys(xs).zip(b.tys(ys)).all(|(x, y)| eq(x, y))
        }
        (SType::Var(v), SType::Var(w)) => v == w,
        (SType::Arrow(x1, x2), SType::Arrow(y1, y2))
        | (SType::Pair(x1, x2), SType::Pair(y1, y2))
        | (SType::In(x1, x2), SType::In(y1, y2))
        | (SType::Out(x1, x2), SType::Out(y1, y2)) => eq(x1, y1) && eq(x2, y2),
        (SType::Forall(v, k, x), SType::Forall(w, l, y)) => v == w && k == l && eq(x, y),
        (SType::Dual(x), SType::Dual(y)) | (SType::Neg(x), SType::Neg(y)) => eq(x, y),
        _ => false,
    }
}

/// Binder names compare equal when identical, or when both are
/// parser-generated fresh names for `_` (the numeric suffix differs on
/// every reparse).
fn binder_eq(a: Symbol, b: Symbol) -> bool {
    a == b || (a.as_str().contains('%') && b.as_str().contains('%'))
}

fn binders_eq(xs: &[Symbol], ys: &[Symbol]) -> bool {
    xs.len() == ys.len() && xs.iter().zip(ys).all(|(p, q)| binder_eq(*p, *q))
}

fn tys_eq(a: &Arena, xs: TyList, b: &Arena, ys: TyList) -> bool {
    xs.len() == ys.len() && a.tys(xs).zip(b.tys(ys)).all(|(x, y)| ty_eq(a, x, b, y))
}

/// Structural expression equality across arenas, ignoring spans (and
/// fresh `_` binder suffixes).
pub fn expr_eq(a: &Arena, x: ExprId, b: &Arena, y: ExprId) -> bool {
    let eq = |x: &ExprId, y: &ExprId| expr_eq(a, *x, b, *y);
    match (a.expr(x), b.expr(y)) {
        (SExpr::Lit(x, _), SExpr::Lit(y, _)) => x == y,
        (SExpr::Var(x, _), SExpr::Var(y, _))
        | (SExpr::Con(x, _), SExpr::Con(y, _))
        | (SExpr::Select(x, _), SExpr::Select(y, _)) => x == y,
        (SExpr::App(f, x, _), SExpr::App(g, y, _)) => eq(f, g) && eq(x, y),
        (SExpr::TApp(f, ts, _), SExpr::TApp(g, us, _)) => eq(f, g) && tys_eq(a, *ts, b, *us),
        (SExpr::Lambda(ps, x, _), SExpr::Lambda(qs, y, _)) => {
            binders_eq(a.names(*ps), b.names(*qs)) && eq(x, y)
        }
        (SExpr::BinOp(o, l1, r1, _), SExpr::BinOp(p, l2, r2, _)) => {
            o == p && eq(l1, l2) && eq(r1, r2)
        }
        (SExpr::Pair(a1, b1, _), SExpr::Pair(a2, b2, _)) => eq(a1, a2) && eq(b1, b2),
        (SExpr::Let(p, x1, x2, _), SExpr::Let(q, y1, y2, _)) => p == q && eq(x1, y1) && eq(x2, y2),
        (SExpr::Case(s1, arms1, _), SExpr::Case(s2, arms2, _)) => {
            eq(s1, s2)
                && arms1.len() == arms2.len()
                && a.arms(*arms1).zip(b.arms(*arms2)).all(|(x, y)| {
                    x.tag == y.tag
                        && binders_eq(a.names(x.binders), b.names(y.binders))
                        && eq(&x.body, &y.body)
                })
        }
        (SExpr::If(c1, t1, f1, _), SExpr::If(c2, t2, f2, _)) => {
            eq(c1, c2) && eq(t1, t2) && eq(f1, f2)
        }
        _ => false,
    }
}

/// Structural declaration equality ignoring spans.
pub fn decl_eq(a: &Decl, b: &Decl) -> bool {
    let (ta, tb) = (&a.arena, &b.arena);
    let type_decl_eq = |x: &TypeDecl, y: &TypeDecl| {
        x.name == y.name
            && x.params == y.params
            && x.ctors.len() == y.ctors.len()
            && x.ctors
                .iter()
                .zip(&y.ctors)
                .all(|(c, d)| c.name == d.name && tys_eq(ta, c.args, tb, d.args))
    };
    match (&a.kind, &b.kind) {
        (DeclKind::Protocol(x), DeclKind::Protocol(y)) | (DeclKind::Data(x), DeclKind::Data(y)) => {
            type_decl_eq(x, y)
        }
        (DeclKind::Alias(x), DeclKind::Alias(y)) => {
            x.name == y.name && x.params == y.params && ty_eq(ta, x.body, tb, y.body)
        }
        (DeclKind::Signature(x), DeclKind::Signature(y)) => {
            x.name == y.name && ty_eq(ta, x.ty, tb, y.ty)
        }
        (DeclKind::Binding(x), DeclKind::Binding(y)) => {
            x.name == y.name
                && x.params.len() == y.params.len()
                && x.params.iter().zip(&y.params).all(|(p, q)| match (p, q) {
                    (Param::Term(s), Param::Term(t)) => s == t,
                    (Param::Wild, Param::Wild) => true,
                    (Param::Types(vs), Param::Types(ws)) => vs == ws,
                    _ => false,
                })
                && expr_eq(ta, x.body, tb, y.body)
        }
        _ => false,
    }
}

/// Structural program equality ignoring spans.
pub fn program_eq(a: &Program, b: &Program) -> bool {
    a.decls.len() == b.decls.len() && a.decls.iter().zip(&b.decls).all(|(x, y)| decl_eq(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program, parse_type};

    fn roundtrip_type(src: &str) {
        let t = parse_type(src).unwrap_or_else(|e| panic!("cannot parse {src}: {e}"));
        let printed = t.to_string();
        let back =
            parse_type(&printed).unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
        assert!(
            ty_eq(&t.arena, t.root, &back.arena, back.root),
            "type round-trip changed the AST:\n  source:  {src}\n  printed: {printed}"
        );
    }

    /// The precedence round-trip table: one entry per operator-nesting
    /// shape the grammar allows. Each entry must print to text that
    /// parses back to the identical AST.
    #[test]
    fn type_precedence_round_trip_table() {
        for src in [
            // arrows: right-associative, domain parenthesized
            "Unit -> Unit -> Unit",
            "(Unit -> Unit) -> Unit",
            // arrow under session prefix needs parentheses
            "!Int.(Unit -> Unit)",
            "?Int.(forall (s:S). s)",
            // session prefix on the left of an arrow does not
            "!Int.End! -> Unit",
            "?Int.s -> s",
            // nested session prefixes associate to the right
            "!Int.?Bool.End!",
            "?(?Int.End!).End?",
            // applied names: bare at seq level, parenthesized as atoms
            "Repeat Int",
            "!(Repeat Int).End!",
            "Stream (Repeat Int) Bool",
            // Dual / Neg take one atom
            "Dual (Repeat Int)",
            "Dual (!Int.End!)",
            "-(Repeat Int)",
            "?-a.s",
            "!-(-Int).End!",
            "Stream -a",
            // pairs are self-delimiting
            "(Int, End!)",
            "!(Char, End!).End!",
            "((Unit -> Unit), ?Int.End?)",
            // forall
            "forall (s:S). ?Int.s -> s",
            "(forall (s:S). s) -> Unit",
            "forall (a:P). !a.End!",
            // mixtures
            "Dual (Dual End!)",
            "!Repeat (Int, Bool).?Neg Char.End?",
            "forall (s:S). Dual s -> (Int, s)",
        ] {
            roundtrip_type(src);
        }
    }

    #[test]
    fn expr_precedence_round_trip_table() {
        for src in [
            "1 + 2 * 3 == 7",
            "(1 + 2) * 3",
            "1 - 2 - 3",
            "1 - (2 - 3)",
            "a && b || c",
            "a && (b || c)",
            "f x y",
            "f (g x)",
            "f x [Int, End!] y",
            "select Next [Int, End!] c",
            "x |> f |> g",
            "\\x y -> x + y",
            "f (\\x -> x)",
            "let (x, c) = receive [Int, s] c in (x, c)",
            "let _ = printInt 3 in ()",
            "if x == 0 then f x else g x",
            "match c with { A c -> c, B x c -> f x c }",
            "(f x, g y)",
            "(let x = 1 in x) + 2",
            "'a'",
            "\"hi\\n\"",
            "0 - 3",
        ] {
            let e = parse_expr(src).unwrap_or_else(|er| panic!("cannot parse {src}: {er}"));
            let printed = e.to_string();
            let back = parse_expr(&printed)
                .unwrap_or_else(|er| panic!("reparse of `{printed}` failed: {er}"));
            assert!(
                expr_eq(&e.arena, e.root, &back.arena, back.root),
                "expr round-trip changed the AST:\n  source:  {src}\n  printed: {printed}"
            );
        }
    }

    #[test]
    fn program_round_trip() {
        let src = r#"
protocol Arith = NegA Int -Int | AddA Int Int -Int
data IntList = NilL | ConsL Int IntList
type Service a = forall (s:S). ?a.s -> s

serveArith : forall (s:S). ?Arith.s -> s
serveArith [s] c = match c with {
  NegA c -> let (x, c) = receive [Int, !Int.s] c in
            send [Int, s] (0 - x) c,
  AddA c -> let (x, c) = receive [Int, ?Int.!Int.s] c in
            let (y, c) = receive [Int, !Int.s] c in
            send [Int, s] (x + y) c }

use_ : Unit
use_ = let u = \_ -> () in u ()
"#;
        let p = parse_program(src).unwrap();
        let printed = program_to_source(&p);
        let back = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- printed ---\n{printed}"));
        assert!(
            program_eq(&p, &back),
            "program round-trip changed the AST:\n{printed}"
        );
    }

    #[test]
    fn wild_binders_print_as_underscore() {
        let e = parse_expr("\\_ x -> x").unwrap();
        assert_eq!(e.to_string(), "\\_ x -> x");
        let e = parse_expr("match c with { A _ c -> c }").unwrap();
        assert_eq!(e.to_string(), "match c with { A _ c -> c }");
    }

    #[test]
    fn negative_literals_render_as_constant_expressions() {
        use crate::span::Span;
        let mut arena = Arena::default();
        let e = arena.push_expr(SExpr::Lit(Lit::Int(-3), Span::default()));
        assert_eq!(expr_to_source(&arena, e), "(0 - 3)");
        // The rendering parses (to a different, equivalent AST).
        assert!(parse_expr(&expr_to_source(&arena, e)).is_ok());
    }
}
