//! Application spines `g [T] x₁ … xₙ`: each argument is checked against
//! a domain of `g`'s signature opened at `T`, so the instantiated
//! signature itself is never interned. Well-typed spines of every shape
//! still check; the ill-typed ones keep their error text in
//! `golden/errors.txt` (the `spine/` cases).

use algst_check::check_source_in;
use algst_core::types::Type;
use algst_core::Session;
use std::sync::Arc;

fn checks(src: &str) {
    if let Err(e) = check_source_in(&mut Session::new(), src) {
        panic!("expected to check, got: {e}\n{src}");
    }
}

#[test]
fn a_partial_spine_checks() {
    // `send [Int, s] 1` without its channel: the rest of the signature,
    // `!Int.s -> s`, is the spine's type.
    checks("f : forall (s:S). !Int.s -> s\nf [s] = send [Int, s] 1\n");
}

#[test]
fn a_forall_body_that_becomes_an_arrow_checks() {
    checks("use : (forall (a:T). a) -> Int\nuse x = x [Int -> Int] 5\n");
}

#[test]
fn a_spine_past_the_signatures_arrows_checks() {
    checks(
        "id : forall (a:T). a -> a\nid [a] x = x\n\
         f : Int\nf = id [Int -> Int] (\\y -> y + 1) 2\n",
    );
}

#[test]
fn a_full_spine_interns_no_instantiated_arrow() {
    let mut session = Session::new();
    check_source_in(
        &mut session,
        "g : !Int.End! -> End!\ng c = sendInt [End!] 1 c\n",
    )
    .expect("checks");
    // `sendInt [End!]` would be `Int -> !Int.End! -> End!`; its inner
    // arrow is `g`'s own signature, its outer one exists nowhere.
    let sig = Type::Arrow(
        Arc::new(Type::output(Type::int(), Type::EndOut)),
        Arc::new(Type::EndOut),
    );
    let inst = Type::Arrow(Arc::new(Type::int()), Arc::new(sig.clone()));
    let before = session.store().len();
    session.intern(&sig);
    assert_eq!(session.store().len(), before, "the signature is interned");
    session.intern(&inst);
    assert_eq!(
        session.store().len(),
        before + 1,
        "the instantiation is interned"
    );
}

#[test]
fn a_partial_constructor_inside_another_checks() {
    // Both constructors miss their second argument, a linear channel:
    // the two η-expansion binders must not shadow one another.
    checks(
        "data D = K Int (!Int.End!)\n\
         data E = M (!Int.End! -> D) (!Int.End!)\n\
         g : !Int.End! -> E\ng = M (K 1)\n",
    );
    // The same with unrestricted missing fields.
    checks(
        "data D = K Int Int\n\
         data E = M (Int -> D) Int\n\
         g : Int -> E\ng = M (K 1)\n",
    );
}
