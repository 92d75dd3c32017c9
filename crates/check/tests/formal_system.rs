//! Tests of the formal typing rules on *core* terms (bypassing the
//! surface language): value restriction, E-Rec, leftover threading,
//! constants, and the E-Match continuation types.

use algst_check::{Checker, Ctx, TypeError};
use algst_core::expr::{Arm, Const, Expr};
use algst_core::kind::Kind;
use algst_core::normalize::nrm_pos;
use algst_core::protocol::{Ctor, Declarations, ProtocolDecl};
use algst_core::store::TypeId;
use algst_core::symbol::Symbol;
use algst_core::terms::Terms;
use algst_core::types::Type;
use algst_core::Session;

fn decls() -> Declarations {
    let mut d = Declarations::new();
    // protocol FArith = FNeg Int -Int | FAdd Int Int -Int
    d.add_protocol(ProtocolDecl {
        name: Symbol::intern("FArith"),
        params: vec![],
        ctors: vec![
            Ctor::new("FNeg", vec![Type::int(), Type::neg(Type::int())]),
            Ctor::new(
                "FAdd",
                vec![Type::int(), Type::int(), Type::neg(Type::int())],
            ),
        ],
    })
    .unwrap();
    d.validate().unwrap();
    d
}

fn synth(
    s: &mut Session,
    decls: &Declarations,
    ctx: &mut Ctx,
    e: &Expr,
) -> Result<Type, TypeError> {
    let mut terms = Terms::new();
    let e = terms.push_expr(e);
    let t = Checker::new(decls, s).synth(ctx, &terms, e)?;
    Ok(s.extract(t))
}

#[test]
fn identity_synthesizes() {
    let d = decls();
    let mut s = Session::new();
    let id = Expr::abs("x", s.intern(&Type::int()), Expr::var("x"));
    let t = synth(&mut s, &d, &mut Ctx::new(), &id).unwrap();
    assert_eq!(t.to_string(), "Int -> Int");
}

#[test]
fn tabs_value_restriction() {
    let d = decls();
    let mut s = Session::new();
    // Λα:S. ((λx:Unit.x) ()) — body not a value.
    let bad = Expr::tabs(
        "a",
        Kind::Session,
        Expr::app(
            Expr::abs("x", s.intern(&Type::Unit), Expr::var("x")),
            Expr::unit(),
        ),
    );
    assert!(matches!(
        synth(&mut s, &d, &mut Ctx::new(), &bad),
        Err(TypeError::TAbsNotValue)
    ));
}

#[test]
fn unannotated_lambda_has_no_synthesis_rule() {
    let d = decls();
    let mut s = Session::new();
    let e = Expr::abs_u("x", Expr::var("x"));
    assert!(matches!(
        synth(&mut s, &d, &mut Ctx::new(), &e),
        Err(TypeError::NeedsAnnotation)
    ));
    // But it checks against an arrow (E-Abs').
    let mut ctx = Ctx::new();
    let goal = s.intern(&Type::arrow(Type::int(), Type::int()));
    let mut terms = Terms::new();
    let e = terms.push_expr(&e);
    Checker::new(&d, &mut s)
        .check(&mut ctx, &terms, e, goal)
        .unwrap();
}

#[test]
fn rec_requires_arrow_annotation() {
    let d = decls();
    let mut s = Session::new();
    let bad = Expr::rec("f", s.intern(&Type::int()), Expr::int(3));
    assert!(matches!(
        synth(&mut s, &d, &mut Ctx::new(), &bad),
        Err(TypeError::RecNotArrow(_))
    ));
}

#[test]
fn rec_cannot_capture_linear_variables() {
    let d = decls();
    let mut s = Session::new();
    // rec f: Unit -> Unit. λu:Unit. let * = terminate c in u — captures c.
    let body = Expr::abs(
        "u",
        s.intern(&Type::Unit),
        Expr::let_unit(
            Expr::app(Expr::Const(Const::Terminate), Expr::var("c")),
            Expr::var("u"),
        ),
    );
    let rec = Expr::rec("f", s.intern(&Type::arrow(Type::Unit, Type::Unit)), body);
    let mut ctx = Ctx::new();
    let ty = s.intern(&Type::EndOut);
    ctx.push_linear(Symbol::intern("c"), ty);
    assert!(matches!(
        synth(&mut s, &d, &mut ctx, &rec),
        Err(TypeError::LinearInRecursive { .. })
    ));
}

#[test]
fn local_rec_function_applies() {
    let d = decls();
    let mut s = Session::new();
    // (rec f: Int -> Int. λn:Int. if n == 0 then 0 else f (n - 1)) 3 ⇒ Int
    let body = Expr::abs(
        "n",
        s.intern(&Type::int()),
        Expr::if_(
            Expr::apps(
                Expr::Builtin(algst_core::expr::Builtin::Eq),
                [Expr::var("n"), Expr::int(0)],
            ),
            Expr::int(0),
            Expr::app(
                Expr::var("f"),
                Expr::apps(
                    Expr::Builtin(algst_core::expr::Builtin::Sub),
                    [Expr::var("n"), Expr::int(1)],
                ),
            ),
        ),
    );
    let e = Expr::app(
        Expr::rec("f", s.intern(&Type::arrow(Type::int(), Type::int())), body),
        Expr::int(3),
    );
    let t = synth(&mut s, &d, &mut Ctx::new(), &e).unwrap();
    assert_eq!(t, Type::int());
}

#[test]
fn leftover_threading_through_pairs() {
    // ⟨terminate c, 1⟩ consumes c from the context.
    let d = decls();
    let mut s = Session::new();
    let mut ctx = Ctx::new();
    let ty = s.intern(&Type::EndOut);
    ctx.push_linear(Symbol::intern("c"), ty);
    let e = Expr::pair(
        Expr::app(Expr::Const(Const::Terminate), Expr::var("c")),
        Expr::int(1),
    );
    let t = synth(&mut s, &d, &mut ctx, &e).unwrap();
    assert_eq!(t.to_string(), "(Unit, Int)");
    assert!(!ctx.contains(Symbol::intern("c")));
}

#[test]
fn match_pushes_continuations_with_polarity() {
    // match c with {FNeg c -> …, FAdd c -> …} where c : ?FArith.End?
    // FNeg arm: c : ?Int.!Int.End? ; FAdd arm: c : ?Int.?Int.!Int.End?
    let d = decls();
    let mut s = Session::new();
    let int = s.intern(&Type::int());
    let recv_int = |cont_ty: TypeId, chan: &str| {
        Expr::app(
            Expr::tapps(Expr::Const(Const::Receive), [int, cont_ty]),
            Expr::var(chan),
        )
    };
    let send_and_wait = |cont_after: TypeId, val: Expr, chan: &str| {
        // send val chan then wait
        Expr::app(
            Expr::Const(Const::Wait),
            Expr::apps(
                Expr::tapps(Expr::Const(Const::Send), [int, cont_after]),
                [val, Expr::var(chan)],
            ),
        )
    };
    let out_int_end_in = s.intern(&Type::output(Type::int(), Type::EndIn));
    let end_in = s.intern(&Type::EndIn);

    let neg_arm = Arm {
        tag: Symbol::intern("FNeg"),
        binders: vec![Symbol::intern("c")],
        body: Expr::let_pair(
            "x",
            "c",
            recv_int(out_int_end_in, "c"),
            send_and_wait(end_in, Expr::var("x"), "c"),
        ),
    };
    let add_arm = Arm {
        tag: Symbol::intern("FAdd"),
        binders: vec![Symbol::intern("c")],
        body: Expr::let_pair(
            "x",
            "c",
            recv_int(
                s.intern(&Type::input(
                    Type::int(),
                    Type::output(Type::int(), Type::EndIn),
                )),
                "c",
            ),
            Expr::let_pair(
                "y",
                "c",
                recv_int(out_int_end_in, "c"),
                send_and_wait(end_in, Expr::var("y"), "c"),
            ),
        ),
    };
    let e = Expr::case(Expr::var("ch"), vec![neg_arm, add_arm]);
    let mut ctx = Ctx::new();
    let ty = s.intern(&nrm_pos(&Type::input(
        Type::proto("FArith", vec![]),
        Type::EndIn,
    )));
    ctx.push_linear(Symbol::intern("ch"), ty);
    let t = synth(&mut s, &d, &mut ctx, &e).unwrap();
    assert_eq!(t, Type::Unit);
}

#[test]
fn match_with_wrong_arm_type_fails() {
    let d = decls();
    let mut s = Session::new();
    // FNeg arm treats the continuation as if it were ?Int.?Int…
    let bad_arm = Arm {
        tag: Symbol::intern("FNeg"),
        binders: vec![Symbol::intern("c")],
        body: Expr::app(Expr::Const(Const::Wait), Expr::var("c")),
    };
    let other = Arm {
        tag: Symbol::intern("FAdd"),
        binders: vec![Symbol::intern("c")],
        body: Expr::app(Expr::Const(Const::Wait), Expr::var("c")),
    };
    let e = Expr::case(Expr::var("ch"), vec![bad_arm, other]);
    let mut ctx = Ctx::new();
    let ty = s.intern(&nrm_pos(&Type::input(
        Type::proto("FArith", vec![]),
        Type::EndIn,
    )));
    ctx.push_linear(Symbol::intern("ch"), ty);
    assert!(synth(&mut s, &d, &mut ctx, &e).is_err());
}

#[test]
fn select_then_send_roundtrip_types() {
    // select FNeg [End!] ch ⇒ !Int.?Int.End!
    let d = decls();
    let mut s = Session::new();
    let e = Expr::app(
        Expr::tapp(Expr::select("FNeg"), s.intern(&Type::EndOut)),
        Expr::var("ch"),
    );
    let mut ctx = Ctx::new();
    let ty = s.intern(&Type::output(Type::proto("FArith", vec![]), Type::EndOut));
    ctx.push_linear(Symbol::intern("ch"), ty);
    let t = synth(&mut s, &d, &mut ctx, &e).unwrap();
    assert_eq!(t.to_string(), "!Int.?Int.End!");
}

#[test]
fn new_returns_dual_endpoints() {
    let d = decls();
    let mut s = Session::new();
    let e = Expr::tapp(
        Expr::Const(Const::New),
        s.intern(&Type::output(Type::int(), Type::EndOut)),
    );
    let t = synth(&mut s, &d, &mut Ctx::new(), &e).unwrap();
    assert_eq!(t.to_string(), "(!Int.End!, ?Int.End?)");
}

#[test]
fn branches_must_agree_on_leftovers() {
    let d = decls();
    let mut s = Session::new();
    // if b then terminate c else () — one branch leaks c.
    let e = Expr::if_(
        Expr::var("b"),
        Expr::app(Expr::Const(Const::Terminate), Expr::var("c")),
        Expr::unit(),
    );
    let mut ctx = Ctx::new();
    let ty = s.intern(&Type::bool());
    ctx.push_unrestricted(Symbol::intern("b"), ty);
    let ty = s.intern(&Type::EndOut);
    ctx.push_linear(Symbol::intern("c"), ty);
    assert!(matches!(
        synth(&mut s, &d, &mut ctx, &e),
        Err(TypeError::BranchContextMismatch { .. })
    ));
}
