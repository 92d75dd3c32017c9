//! Error-path conformance: every dynamic failure mode the interpreter
//! can hit must surface as a *typed* error — never a panic. These are
//! the paths the `algst-conform` runtime oracle relies on when it
//! asserts "a generated program either terminates or hits its budget,
//! and anything else is a reportable error".

use algst_core::expr::{Arm, Const, Expr};
use algst_core::symbol::Symbol;
use algst_core::types::Type;
use algst_core::Session;
use algst_runtime::channel::{channel_pair, ChanError};
use algst_runtime::interp::{Interp, RuntimeError};
use algst_runtime::step::{run_pure, step, Step};
use algst_runtime::value::{Env, Value};
use std::collections::HashMap;
use std::time::Duration;

/// An interpreter over the empty module (globals resolved to nothing).
fn interp() -> Interp {
    let module = algst_check::check_source("main : Unit\nmain = ()").expect("trivial module");
    Interp::new(&module)
}

// ------------------------------------------------------- step budgets

#[test]
fn step_budget_exhaustion_is_a_typed_stuck_not_a_panic() {
    // Ω = (rec f. \x. f x) () — diverges; the fuel bound must stop it.
    let f = Symbol::intern("f");
    let x = Symbol::intern("x");
    let mut session = Session::new();
    let omega = Expr::app(
        Expr::rec(
            f,
            session.intern(&Type::arrow(Type::Unit, Type::Unit)),
            Expr::abs_u(x, Expr::app(Expr::var("f"), Expr::var("x"))),
        ),
        Expr::unit(),
    );
    let globals = HashMap::new();
    match run_pure(&mut session, &globals, &omega, 1_000) {
        Err(Step::Stuck(reason)) => assert!(
            reason.contains("fuel"),
            "expected fuel exhaustion, got {reason}"
        ),
        other => panic!("diverging term must exhaust fuel, got {other:?}"),
    }
}

#[test]
fn wallclock_budget_exhaustion_is_a_timeout_error() {
    let module = algst_check::check_source(
        // A self-deadlock that still satisfies linearity: both endpoints
        // are (nominally) consumed downstream, but the rendezvous send
        // blocks forever because its receiver lives on the same thread.
        "main : Unit\nmain = let (p, q) = new [!Int.End!] in \
         let p2 = sendInt [End!] 1 p in \
         let (x, q2) = receiveInt [End?] q in \
         let _ = terminate p2 in let _ = printInt x in wait q2",
    )
    .expect("deadlocking program still type checks");
    let interp = Interp::new(&module);
    match interp.run_timeout("main", Duration::from_millis(200)) {
        Err(RuntimeError::Timeout) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
}

// ------------------------------------------- mismatched branch labels

#[test]
fn mismatched_branch_label_is_no_such_arm() {
    let it = interp();
    let (a, b) = channel_pair(1);
    // Peer selects a tag the receiving match does not offer.
    a.send_tag(Symbol::intern("NotAnArm")).unwrap();
    let arms = vec![Arm {
        tag: Symbol::intern("OnlyArm"),
        binders: vec![Symbol::intern("c")],
        body: Expr::unit(),
    }];
    let scrutinee = Expr::case(Expr::var("ch"), arms);
    let env = Env::empty().bind(Symbol::intern("ch"), Value::Chan(b));
    match it.eval(&env, &scrutinee) {
        Err(RuntimeError::NoSuchArm(tag)) => {
            assert_eq!(tag, Symbol::intern("NotAnArm"));
        }
        other => panic!("expected NoSuchArm, got {other:?}"),
    }
}

#[test]
fn wrong_message_kind_is_a_protocol_violation() {
    let it = interp();
    let (a, b) = channel_pair(1);
    // Peer sends a value where a tag is expected by `match`.
    a.send_val(Value::Int(1)).unwrap();
    let scrutinee = Expr::case(
        Expr::var("ch"),
        vec![Arm {
            tag: Symbol::intern("AnyArm"),
            binders: vec![Symbol::intern("c")],
            body: Expr::unit(),
        }],
    );
    let env = Env::empty().bind(Symbol::intern("ch"), Value::Chan(b));
    match it.eval(&env, &scrutinee) {
        Err(RuntimeError::Channel(ChanError::ProtocolViolation { expected, found })) => {
            assert_eq!(expected, "a selector tag");
            assert_eq!(found, "a value");
        }
        other => panic!("expected ProtocolViolation, got {other:?}"),
    }
}

// ------------------------------------------------ closed-channel sends

#[test]
fn send_on_a_closed_channel_is_disconnected() {
    let it = interp();
    let (a, b) = channel_pair(0);
    drop(b); // peer endpoint gone
    let env = Env::empty().bind(Symbol::intern("ch"), Value::Chan(a));
    // send [T,S] 7 ch — the saturated Send constant hits the dead peer.
    let send = Expr::apps(Expr::Const(Const::Send), [Expr::int(7), Expr::var("ch")]);
    match it.eval(&env, &send) {
        Err(RuntimeError::Channel(ChanError::Disconnected)) => {}
        other => panic!("expected Disconnected, got {other:?}"),
    }
}

#[test]
fn select_and_terminate_on_a_closed_channel_are_disconnected() {
    let it = interp();
    for make in [
        |tag: Symbol| Expr::Const(Const::Select(tag)),
        |_| Expr::Const(Const::Terminate),
    ] {
        let (a, b) = channel_pair(0);
        drop(b);
        let env = Env::empty().bind(Symbol::intern("ch"), Value::Chan(a));
        let expr = Expr::app(make(Symbol::intern("SomeTag")), Expr::var("ch"));
        match it.eval(&env, &expr) {
            Err(RuntimeError::Channel(ChanError::Disconnected)) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }
}

#[test]
fn peer_thread_death_surfaces_as_disconnected_not_a_panic() {
    // The forked client drops its endpoint immediately; the server's
    // receive must observe Disconnected (wrapped in a thread error),
    // not crash the process.
    let module = algst_check::check_source(
        "drops : !Int.End! -> Unit\ndrops c = ()\n\
         main : Unit\nmain = let (p, q) = new [!Int.End!] in \
         let _ = fork (\\u -> drops p) in \
         let (x, c) = receiveInt [End?] q in wait c",
    );
    // Linearity may reject `drops` (it discards a linear channel); if
    // the checker is strict about that, exercise the runtime directly.
    let outcome = match module {
        Ok(module) => Interp::new(&module).run_timeout("main", Duration::from_secs(5)),
        Err(_) => {
            let it = interp();
            let (a, b) = channel_pair(0);
            drop(a);
            let env = Env::empty().bind(Symbol::intern("ch"), Value::Chan(b));
            it.eval(
                &env,
                &Expr::app(Expr::Const(Const::Receive), Expr::var("ch")),
            )
        }
    };
    match outcome {
        Err(RuntimeError::Channel(ChanError::Disconnected)) | Err(RuntimeError::Timeout) => {}
        other => panic!("expected Disconnected (or a rendezvous timeout), got {other:?}"),
    }
}

// -------------------------------------------------- assorted dynamics

#[test]
fn division_by_zero_is_typed() {
    let module = algst_check::check_source("main : Int\nmain = 1 / 0").expect("checks");
    match Interp::new(&module).run("main") {
        Err(RuntimeError::DivisionByZero) => {}
        other => panic!("expected DivisionByZero, got {other:?}"),
    }
}

#[test]
fn missing_entry_point_is_typed() {
    let module = algst_check::check_source("main : Unit\nmain = ()").expect("checks");
    match Interp::new(&module).run("not_main") {
        Err(RuntimeError::NoSuchGlobal(name)) => {
            assert_eq!(name, Symbol::intern("not_main"));
        }
        other => panic!("expected NoSuchGlobal, got {other:?}"),
    }
}

#[test]
fn pure_stepper_reports_session_actions_not_stuckness() {
    // `receive c` on an (unbound) channel variable is an Action for the
    // pure fragment, not Stuck — the step budget machinery depends on
    // the distinction.
    let globals = HashMap::new();
    let e = Expr::app(Expr::Const(Const::Receive), Expr::var("c"));
    match step(&mut Session::new(), &globals, &e) {
        Step::Action(label) => assert_eq!(label, "receive"),
        other => panic!("expected Action(receive), got {other:?}"),
    }
}
