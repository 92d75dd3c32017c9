//! A small-step reducer for the *pure* (session-free) fragment of the
//! expression LTS (paper Fig. 6 / supplement Fig. 11).
//!
//! The big-step interpreter ([`crate::interp`]) realizes the semantics
//! efficiently; this module realizes it *literally*, one labelled
//! transition at a time, so the metatheory can be tested:
//!
//! * **Preservation** (Theorem 4): each β-step preserves the synthesized
//!   type up to `≡_A`.
//! * **Progress** (Theorem 5): a well-typed pure expression is a value or
//!   steps.
//!
//! Session and I/O actions are not reduced here — they are reported as
//! [`Step::Action`], corresponding to the non-β labels of the LTS.

use algst_core::expr::{Builtin, Const, Expr, Lit};
use algst_core::symbol::Symbol;
use algst_core::Session;
use std::collections::HashMap;
use std::sync::Arc;

/// Result of attempting one reduction step.
#[derive(Clone, Debug)]
pub enum Step {
    /// The expression is a value (no transitions).
    Value,
    /// One β-labelled step (rules Act-App, Act-TApp, Act-Let, Act-Let*,
    /// Act-Rec, plus the extensions: if, data case, pure builtins).
    Next(Expr),
    /// The redex is a session/effect action (`send`, `receive`, `fork`,
    /// `new`, `select`, `match` on a channel, `wait`, `terminate`,
    /// printing) — a non-β label the pure reducer does not consume.
    Action(&'static str),
    /// The expression is stuck: not a value, no rule applies. Cannot
    /// happen for well-typed expressions (Theorem 5).
    Stuck(String),
}

/// Attempts one small step of `e`, whose type annotations are ids of
/// `session`. Free variables are resolved through `globals` (module-level
/// definitions behave like unrestricted `rec`-bindings: a reference
/// unfolds to its definition).
pub fn step(session: &mut Session, globals: &HashMap<Symbol, Arc<Expr>>, e: &Expr) -> Step {
    if e.is_value() && !matches!(e, Expr::Var(_)) {
        // Variables referring to globals unfold below; all other values
        // have no transitions.
        if let Some(s) = step_inside_value(globals, e) {
            return s;
        }
        return Step::Value;
    }
    match e {
        Expr::Var(x) => match globals.get(x) {
            Some(def) => Step::Next((**def).clone()),
            None => Step::Stuck(format!("unbound variable {x}")),
        },
        Expr::App(f, a) => {
            if !f.is_value() {
                return map_next(step(session, globals, f), |f2| Expr::app(f2, (**a).clone()));
            }
            if !a.is_value() {
                return map_next(step(session, globals, a), |a2| Expr::app((**f).clone(), a2));
            }
            apply(globals, f, a)
        }
        Expr::TApp(f, t) => {
            if !f.is_value() {
                return map_next(step(session, globals, f), |f2| Expr::TApp(Arc::new(f2), *t));
            }
            match &**f {
                // Act-TApp: (Λα:κ.v)[T] → v[T/α]
                Expr::TAbs(alpha, _, v) => Step::Next(v.subst_tyvar(session, *alpha, *t)),
                // new [T] creates a channel — a ν-labelled action.
                Expr::Const(Const::New) => Step::Action("new"),
                // Module-level definitions unfold like rec-bindings.
                Expr::Var(x) => match globals.get(x) {
                    Some(def) => Step::Next(Expr::TApp(Arc::new((**def).clone()), *t)),
                    None => Step::Stuck(format!("type application of unbound {x}")),
                },
                // Partial constants absorb type arguments silently; the
                // application node is already a value, handled above.
                _ => Step::Stuck("type application of a non-Λ value".into()),
            }
        }
        // Act-Let*: let * = * in e → e
        Expr::LetUnit(e1, e2) => {
            if !e1.is_value() {
                return map_next(step(session, globals, e1), |n| {
                    Expr::let_unit(n, (**e2).clone())
                });
            }
            match &**e1 {
                Expr::Lit(Lit::Unit) => Step::Next((**e2).clone()),
                other => Step::Stuck(format!("let * bound to non-unit {other:?}")),
            }
        }
        // Act-Let: let ⟨x,y⟩ = ⟨u,v⟩ in e → e[u/x][v/y]
        Expr::LetPair(x, y, e1, e2) => {
            if !e1.is_value() {
                return map_next(step(session, globals, e1), |n| {
                    Expr::LetPair(*x, *y, Arc::new(n), e2.clone())
                });
            }
            match &**e1 {
                Expr::Pair(u, v) => Step::Next(e2.subst_var(*x, u).subst_var(*y, v)),
                other => Step::Stuck(format!("let-pair bound to non-pair {other:?}")),
            }
        }
        Expr::Let(x, e1, e2) => {
            if !e1.is_value() {
                return map_next(step(session, globals, e1), |n| {
                    Expr::Let(*x, Arc::new(n), e2.clone())
                });
            }
            Step::Next(e2.subst_var(*x, e1))
        }
        Expr::If(c, t, f) => {
            if !c.is_value() {
                return map_next(step(session, globals, c), |n| {
                    Expr::if_(n, (**t).clone(), (**f).clone())
                });
            }
            match &**c {
                Expr::Lit(Lit::Bool(true)) => Step::Next((**t).clone()),
                Expr::Lit(Lit::Bool(false)) => Step::Next((**f).clone()),
                other => Step::Stuck(format!("if on non-boolean {other:?}")),
            }
        }
        Expr::Pair(a, b) => {
            if !a.is_value() {
                return map_next(step(session, globals, a), |n| Expr::pair(n, (**b).clone()));
            }
            map_next(step(session, globals, b), |n| Expr::pair((**a).clone(), n))
        }
        Expr::Con(tag, args) => {
            for (i, arg) in args.iter().enumerate() {
                if !arg.is_value() {
                    let tag = *tag;
                    let args = args.clone();
                    return map_next(step(session, globals, arg), move |n| {
                        let mut args = args.clone();
                        args[i] = n;
                        Expr::Con(tag, args)
                    });
                }
            }
            Step::Value
        }
        Expr::Case(s, arms) => {
            if !s.is_value() {
                let arms = arms.clone();
                return map_next(step(session, globals, s), move |n| {
                    Expr::case(n, arms.clone())
                });
            }
            match &**s {
                // Data case: Con v̄ selects its arm.
                Expr::Con(tag, fields) => {
                    let Some(arm) = arms.iter().find(|a| a.tag == *tag) else {
                        return Step::Stuck(format!("no arm for {tag}"));
                    };
                    let mut body = arm.body.clone();
                    for (b, v) in arm.binders.iter().zip(fields) {
                        body = body.subst_var(*b, v);
                    }
                    Step::Next(body)
                }
                // Act-Match on a channel: an external action. A global
                // variable unfolds first.
                Expr::Var(x) => match globals.get(x) {
                    Some(def) => {
                        let arms = arms.clone();
                        Step::Next(Expr::case((**def).clone(), arms))
                    }
                    None => Step::Action("match"),
                },
                other => Step::Stuck(format!("case on {other:?}")),
            }
        }
        other => Step::Stuck(format!("no rule for {other:?}")),
    }
}

/// Values never step — except that a *global* variable buried in value
/// position must unfold for evaluation to continue (module references are
/// unrestricted rec-bindings). Returns `None` for genuine values.
fn step_inside_value(globals: &HashMap<Symbol, Arc<Expr>>, e: &Expr) -> Option<Step> {
    match e {
        Expr::Var(x) => globals.get(x).map(|d| Step::Next((**d).clone())),
        _ => None,
    }
}

fn apply(globals: &HashMap<Symbol, Arc<Expr>>, f: &Expr, a: &Expr) -> Step {
    match f {
        // Act-App
        Expr::Abs(x, _, body) | Expr::AbsU(x, body) => Step::Next(body.subst_var(*x, a)),
        // Act-Rec: (rec x:T.v) u → (v[rec x:T.v / x]) u
        Expr::Rec(x, t, v) => {
            let unfolded = v.subst_var(*x, &Expr::Rec(*x, *t, v.clone()));
            Step::Next(Expr::app(unfolded, a.clone()))
        }
        Expr::Var(x) => match globals.get(x) {
            Some(def) => Step::Next(Expr::app((**def).clone(), a.clone())),
            None => Step::Stuck(format!("applying unbound {x}")),
        },
        // Saturating a constant or builtin.
        _ => {
            let (head, mut args) = spine(f);
            args.push(a.clone());
            match head {
                Expr::Builtin(b) => {
                    if args.len() < b.arity() {
                        return Step::Value; // still partial — value
                    }
                    run_builtin(*b, &args)
                }
                Expr::Const(c) => match c {
                    Const::Fork => Step::Action("fork"),
                    Const::Send if args.len() >= 2 => Step::Action("send"),
                    Const::Send => Step::Value,
                    Const::Receive => Step::Action("receive"),
                    Const::Wait => Step::Action("wait"),
                    Const::Terminate => Step::Action("terminate"),
                    Const::Select(_) => Step::Action("select"),
                    Const::New => Step::Stuck("new applied to a term".into()),
                },
                other => Step::Stuck(format!("cannot apply {other:?}")),
            }
        }
    }
}

/// Decomposes nested (type-)applications into head and term arguments.
fn spine(e: &Expr) -> (&Expr, Vec<Expr>) {
    match e {
        Expr::App(f, a) => {
            let (h, mut args) = spine(f);
            args.push((**a).clone());
            (h, args)
        }
        Expr::TApp(f, _) => spine(f),
        _ => (e, Vec::new()),
    }
}

fn run_builtin(b: Builtin, args: &[Expr]) -> Step {
    use Builtin::*;
    let int = |e: &Expr| match e {
        Expr::Lit(Lit::Int(n)) => Some(*n),
        _ => None,
    };
    let boolean = |e: &Expr| match e {
        Expr::Lit(Lit::Bool(x)) => Some(*x),
        _ => None,
    };
    let lit = |l: Lit| Step::Next(Expr::Lit(l));
    match b {
        PrintInt | PrintStr => Step::Action("print"),
        IntToStr => match int(&args[0]) {
            Some(n) => lit(Lit::Str(n.to_string())),
            None => Step::Stuck("intToStr on non-int".into()),
        },
        Negate => match int(&args[0]) {
            Some(n) => lit(Lit::Int(-n)),
            None => Step::Stuck("negate on non-int".into()),
        },
        Not => match boolean(&args[0]) {
            Some(x) => lit(Lit::Bool(!x)),
            None => Step::Stuck("not on non-bool".into()),
        },
        And | Or => match (boolean(&args[0]), boolean(&args[1])) {
            (Some(x), Some(y)) => lit(Lit::Bool(if b == And { x && y } else { x || y })),
            _ => Step::Stuck("boolean builtin on non-bools".into()),
        },
        _ => match (int(&args[0]), int(&args[1])) {
            (Some(x), Some(y)) => match b {
                Add => lit(Lit::Int(x.wrapping_add(y))),
                Sub => lit(Lit::Int(x.wrapping_sub(y))),
                Mul => lit(Lit::Int(x.wrapping_mul(y))),
                Div if y != 0 => lit(Lit::Int(x / y)),
                Mod if y != 0 => lit(Lit::Int(x % y)),
                Div | Mod => Step::Stuck("division by zero".into()),
                Eq => lit(Lit::Bool(x == y)),
                Neq => lit(Lit::Bool(x != y)),
                Lt => lit(Lit::Bool(x < y)),
                Leq => lit(Lit::Bool(x <= y)),
                Gt => lit(Lit::Bool(x > y)),
                Geq => lit(Lit::Bool(x >= y)),
                _ => unreachable!("arity-2 integer builtins covered"),
            },
            _ => Step::Stuck("arithmetic on non-ints".into()),
        },
    }
}

fn map_next(s: Step, f: impl FnOnce(Expr) -> Expr) -> Step {
    match s {
        Step::Next(e) => Step::Next(f(e)),
        other => other,
    }
}

/// Runs `e` to a value by repeated [`step`]s (with a fuel bound).
///
/// # Errors
/// Returns the [`Step`] that stopped evaluation (action, stuck, or fuel
/// exhaustion reported as `Stuck`).
pub fn run_pure(
    session: &mut Session,
    globals: &HashMap<Symbol, Arc<Expr>>,
    e: &Expr,
    fuel: usize,
) -> Result<Expr, Step> {
    let mut current = e.clone();
    for _ in 0..fuel {
        match step(session, globals, &current) {
            Step::Value => return Ok(current),
            Step::Next(n) => current = n,
            other => return Err(other),
        }
    }
    Err(Step::Stuck("fuel exhausted".into()))
}
