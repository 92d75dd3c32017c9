//! Machine-checked instances of the paper's metatheory on the pure
//! fragment:
//!
//! * **Preservation (Theorem 4)**: along every β-reduction sequence, the
//!   synthesized type stays `≡_A`-equal.
//! * **Progress (Theorem 5)**: a well-typed closed pure expression is a
//!   value or steps (never `Stuck`).
//! * **Semantic agreement**: the literal small-step reducer and the
//!   efficient big-step interpreter compute the same results.

use algst_check::{check_source_in, Checker, Ctx, Module};
use algst_core::expr::{Expr, Lit};
use algst_core::symbol::Symbol;
use algst_core::types::Type;
use algst_core::Session;
use algst_runtime::step::{run_pure, step, Step};
use algst_runtime::{Interp, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Pure programs (no channels): each `probe : Int` definition is reduced
/// step by step.
const PURE_PROGRAMS: &[&str] = &[
    // arithmetic and let-chains
    r#"
probe : Int
probe = let x = 3 + 4 in
        let y = x * x in
        let (a, b) = (y - 1, y + 1) in
        a + b
"#,
    // recursion through a module-level definition
    r#"
fact : Int -> Int
fact n = if n == 0 then 1 else n * fact (n - 1)

probe : Int
probe = fact 6
"#,
    // mutual recursion
    r#"
isEven : Int -> Bool
isEven n = if n == 0 then True else isOdd (n - 1)

isOdd : Int -> Bool
isOdd n = if n == 0 then False else isEven (n - 1)

probe : Int
probe = if isEven 10 then 1 else 0
"#,
    // datatypes and case analysis (§2.1's Ast evaluator)
    r#"
data AstM = ConM Int | AddM AstM AstM

eval : AstM -> Int
eval t = case t of {
  ConM x -> x,
  AddM l r -> eval l + eval r }

probe : Int
probe = eval (AddM (AddM (ConM 1) (ConM 2)) (AddM (ConM 3) (ConM 4)))
"#,
    // polymorphism: type abstraction and application
    r#"
twice : forall (a:T). (a -> a) -> a -> a
twice [a] f x = f (f x)

probe : Int
probe = twice [Int] (\n -> n * 3) 2
"#,
    // higher-order functions and unit-lets
    r#"
compose : forall (a:T). (a -> a) -> (a -> a) -> a -> a
compose [a] f g x = f (g x)

probe : Int
probe = let _ = () in compose [Int] (\n -> n + 1) (\n -> n * 10) 4
"#,
];

fn globals_of(module: &Module) -> HashMap<Symbol, Arc<Expr>> {
    module.globals()
}

/// Steps `probe` to a value, checking the synthesized type after every
/// transition.
fn check_preservation(src: &str) -> (Expr, usize) {
    let mut session = Session::new();
    let module =
        check_source_in(&mut session, src).unwrap_or_else(|e| panic!("does not check: {e}"));
    let globals = globals_of(&module);
    let mut current: Expr = (**module.def("probe").expect("probe defined")).clone();

    // Typing context: all module definitions as unrestricted globals.
    let fresh_ctx = |session: &mut Session| {
        let mut ctx = Ctx::new();
        for (name, _) in module.defs() {
            if let Some(sig) = module.sig_id(name.as_str()) {
                ctx.push_unrestricted(name, session.nrm(sig));
            }
        }
        ctx
    };

    let expected = session.nrm(module.sig_id("probe").expect("signature"));
    let mut steps = 0usize;
    loop {
        // Theorem 4.2: the *checking* judgment is preserved (reducts may
        // contain unannotated lambdas, which only check — exactly why the
        // theorem is stated for both judgments).
        let mut ctx = fresh_ctx(&mut session);
        let mut checker = Checker::new(&module.decls, &mut session);
        checker
            .check(&mut ctx, &current, expected)
            .unwrap_or_else(|e| {
                panic!("reduct no longer checks after {steps} steps: {e}\n  {current:?}")
            });

        match step(&mut session, &globals, &current) {
            Step::Value => return (current, steps),
            Step::Next(n) => {
                current = n;
                steps += 1;
                assert!(steps < 100_000, "divergence in a test program");
            }
            Step::Action(a) => panic!("pure program performed action {a}"),
            Step::Stuck(msg) => panic!("progress violated after {steps} steps: {msg}"),
        }
    }
}

#[test]
fn preservation_along_all_reduction_sequences() {
    for (i, src) in PURE_PROGRAMS.iter().enumerate() {
        let (value, steps) = check_preservation(src);
        assert!(steps > 0, "program {i} should actually reduce");
        assert!(value.is_value(), "program {i} must end in a value");
    }
}

#[test]
fn small_step_agrees_with_big_step() {
    let expected = [98i64, 720, 1, 10, 18, 41];
    for (src, want) in PURE_PROGRAMS.iter().zip(expected) {
        let mut session = Session::new();
        let module = check_source_in(&mut session, src).unwrap();
        let globals = globals_of(&module);
        let probe = module.def("probe").unwrap();

        let small = run_pure(&mut session, &globals, probe, 1_000_000)
            .unwrap_or_else(|s| panic!("small-step failed: {s:?}"));
        assert_eq!(small, Expr::Lit(Lit::Int(want)), "small-step result");

        let interp = Interp::new(&module);
        let big = interp
            .run_timeout("probe", Duration::from_secs(10))
            .unwrap();
        match big {
            Value::Int(n) => assert_eq!(n, want, "big-step result"),
            other => panic!("big-step returned {other:?}"),
        }
    }
}

#[test]
fn session_redexes_report_actions_not_stuck() {
    // Progress for the impure fragment: the pure reducer classifies
    // session operations as actions (the σ labels of Fig. 6), never as
    // stuck terms.
    let mut session = Session::new();
    let module = check_source_in(
        &mut session,
        r#"
probe : Unit
probe =
  let (a, b) = new [End!] in
  let _ = fork (\u -> wait b) in
  terminate a
"#,
    )
    .unwrap();
    let globals = globals_of(&module);
    let mut current: Expr = (**module.def("probe").unwrap()).clone();
    for _ in 0..1000 {
        match step(&mut session, &globals, &current) {
            Step::Next(n) => current = n,
            Step::Action(label) => {
                assert_eq!(label, "new", "first action of the program is ν");
                return;
            }
            Step::Value => panic!("should reach the ν action first"),
            Step::Stuck(m) => panic!("stuck instead of action: {m}"),
        }
    }
    panic!("never reached an action");
}

#[test]
fn act_rec_unfolds_like_the_rule() {
    // (rec f: Int -> Int. λn. n) 5 → (λn.n)[rec/f] 5 → 5
    let f = Symbol::intern("frec");
    let mut session = Session::new();
    let body = Expr::abs("n", session.intern(&Type::int()), Expr::var("n"));
    let rec = Expr::rec(
        f,
        session.intern(&Type::arrow(Type::int(), Type::int())),
        body,
    );
    let e = Expr::app(rec, Expr::int(5));
    let globals = HashMap::new();
    let v = run_pure(&mut session, &globals, &e, 100).unwrap();
    assert_eq!(v, Expr::int(5));
}

#[test]
fn stuck_terms_are_detected() {
    // `if 3 then … else …` is ill-typed and stuck — the reducer reports
    // it rather than looping (the checker would reject it; this guards
    // the reducer's own totality).
    let e = Expr::if_(Expr::int(3), Expr::unit(), Expr::unit());
    let globals = HashMap::new();
    match step(&mut Session::new(), &globals, &e) {
        Step::Stuck(_) => {}
        other => panic!("expected stuck, got {other:?}"),
    }
}
