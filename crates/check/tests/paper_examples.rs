//! Every program example from the paper, type-checked.
//!
//! Section 2.1: AST transmission (`sendAst`/`recvAst`).
//! Section 2.2: the arithmetic server with polarities.
//! Section 2.3: parameterized protocols, generic and active servers,
//!              the toolbox (`Seq`/`Either`/`Repeat`).
//! Appendix A.2: negated recursion (`Flipper`).
//! Appendix A.3: mutual recursion (`Flip`/`Flop`).
//! Appendix A.5: recursion and duality (`µX.!X.X`).
//! Appendix B:   `repeat` generic server.
//!
//! Plus negative tests: programs the type system must reject.

use algst_check::{check_source, CheckError, TypeError};
use algst_core::terms::Terms;

/// Checks `src`, and sends each definition's tree, converted from the
/// checked arena, back through an arena: it comes out unchanged.
fn assert_checks(src: &str) {
    let module =
        check_source(src).unwrap_or_else(|e| panic!("expected program to type check, got: {e}"));
    for (name, def) in module.defs() {
        let mut terms = Terms::new();
        let root = terms.push_expr(def);
        assert_eq!(terms.to_expr(root), **def, "{name} changed in a round trip");
    }
}

fn assert_type_error(src: &str) -> TypeError {
    match check_source(src) {
        Ok(_) => panic!("expected a type error, but the program checked"),
        Err(CheckError::Type(t)) => t,
        Err(other) => panic!("expected a type error, got: {other}"),
    }
}

// ---------------------------------------------------------------- §2.1

const AST_DECLS: &str = r#"
data Ast = Con Int | Add Ast Ast
protocol AstP = ConP Int | AddP AstP AstP
"#;

#[test]
fn send_ast_checks() {
    assert_checks(&format!(
        "{AST_DECLS}
sendAst : Ast -> forall (s:S). !AstP.s -> s
sendAst t [s] c = case t of {{
  Con x -> select ConP [s] c |> sendInt [s] x,
  Add l r -> select AddP [s] c |> sendAst l [!AstP.s] |> sendAst r [s] }}
"
    ));
}

#[test]
fn recv_ast_checks() {
    assert_checks(&format!(
        "{AST_DECLS}
recvAst : forall (s:S). ?AstP.s -> (Ast, s)
recvAst [s] c = match c with {{
  ConP c -> let (x, c) = receiveInt [s] c in (Con x, c),
  AddP c -> let (tl, c) = recvAst [?AstP.s] c in
            let (tr, c) = recvAst [s] c in (Add tl tr, c) }}
"
    ));
}

#[test]
fn select_conp_has_expected_continuation() {
    // select ConP [s] : !AstP.s → !Int.s ; wrong continuation must fail.
    let err = assert_type_error(&format!(
        "{AST_DECLS}
bad : forall (s:S). !AstP.s -> s
bad [s] c = select ConP [s] c |> sendBool [s] True
"
    ));
    assert!(matches!(err, TypeError::Mismatch { .. }));
}

// ---------------------------------------------------------------- §2.2

const ARITH: &str = r#"
protocol Arith = Neg Int -Int | Add2 Int Int -Int
"#;

#[test]
fn serve_arith_checks() {
    assert_checks(&format!(
        "{ARITH}
serveArith : forall (s:S). ?Arith.s -> s
serveArith [s] c = match c with {{
  Neg c -> let (x, c) = receiveInt [!Int.s] c in
           sendInt [s] (0 - x) c,
  Add2 c -> let (x, c) = receiveInt [?Int.!Int.s] c in
            let (y, c) = receiveInt [!Int.s] c in
            sendInt [s] (x + y) c }}
"
    ));
}

#[test]
fn arith_client_checks() {
    // The paper leaves the client to the reader: select Neg, send an Int,
    // receive the result.
    assert_checks(&format!(
        "{ARITH}
negate7 : forall (s:S). !Arith.s -> (Int, s)
negate7 [s] c =
  let c = select Neg [s] c in
  let c = sendInt [?Int.s] 7 c in
  receiveInt [s] c
"
    ));
}

#[test]
fn polarity_direction_matters() {
    // Writing the server against the un-negated protocol must fail:
    // after Neg, the server RECEIVES an Int and then SENDS one; sending
    // first is a protocol violation.
    let err = assert_type_error(&format!(
        "{ARITH}
bad : forall (s:S). ?Arith.s -> s
bad [s] c = match c with {{
  Neg c -> let (x, c) = receiveInt [?Int.s] c in
           let (y, c) = receiveInt [s] c in c,
  Add2 c -> let (x, c) = receiveInt [?Int.!Int.s] c in
            let (y, c) = receiveInt [!Int.s] c in
            sendInt [s] (x + y) c }}
"
    ));
    assert!(matches!(
        err,
        TypeError::Mismatch { .. } | TypeError::NotMatchable(_)
    ));
}

// ---------------------------------------------------------------- §2.3

const STREAM: &str = r#"
protocol Stream a = Next a (Stream a)
type Service a = forall (s:S). ?a.s -> s
"#;

#[test]
fn ones_checks() {
    assert_checks(&format!(
        "{STREAM}
ones : !Stream Int.End! -> Unit
ones c = select Next [Int, End!] c |> sendInt [!Stream Int.End!] 1 |> ones
"
    ));
}

#[test]
fn generic_stream_server_checks() {
    assert_checks(&format!(
        "{STREAM}{ARITH}
serveArith : forall (s:S). ?Arith.s -> s
serveArith [s] c = match c with {{
  Neg c -> let (x, c) = receiveInt [!Int.s] c in
           sendInt [s] (0 - x) c,
  Add2 c -> let (x, c) = receiveInt [?Int.!Int.s] c in
            let (y, c) = receiveInt [!Int.s] c in
            sendInt [s] (x + y) c }}

stream : forall (a:P). Service a -> ?Stream a.End! -> Unit
stream [a] serve c = match c with {{
  Next c -> serve [?Stream a.End!] c |> stream [a] serve }}

streamArith : ?Stream Arith.End! -> Unit
streamArith = stream [Arith] serveArith
"
    ));
}

#[test]
fn active_server_needs_negated_parameter() {
    // streamAct: the active server runs on !Stream -a (paper discussion).
    assert_checks(&format!(
        "{STREAM}
streamAct : forall (a:P). Service a -> !Stream -a.End! -> Unit
streamAct [a] svc c =
  select Next [-a, End!] c |> svc [!Stream -a.End!] |> streamAct [a] svc
"
    ));
}

#[test]
fn stream_act_ones_double_negation() {
    // streamActOnes = streamAct [-Int] (sendInt 1) : !Stream Int.End! → Unit
    // works because Stream -(-Int) ≡ Stream Int.
    assert_checks(&format!(
        "{STREAM}
streamAct : forall (a:P). Service a -> !Stream -a.End! -> Unit
streamAct [a] svc c =
  select Next [-a, End!] c |> svc [!Stream -a.End!] |> streamAct [a] svc

sendOne : Service -Int
sendOne [s] c = sendInt [s] 1 c

streamActOnes : !Stream Int.End! -> Unit
streamActOnes = streamAct [-Int] sendOne
"
    ));
}

#[test]
fn toolbox_checks() {
    // The Seq/Either/Repeat toolbox with generic servers and the composed
    // arithmetic server (paper §2.3 "A toolbox for generic servers").
    assert_checks(
        r#"
protocol Seq a b = SeqC a b
protocol Either a b = Left a | Right b
protocol Repeat a = More a (Repeat a) | Quit

type Service a = forall (s:S). ?a.s -> s

type NegT = Seq Int -Int
type AddT = Seq Int (Seq Int -Int)
type ArithT = Either NegT AddT

either : forall (a:P). Service a -> forall (b:P). Service b -> Service (Either a b)
either [a] sa [b] sb [s] c = match c with {
  Left c -> sa [s] c,
  Right c -> sb [s] c }

repeat : forall (p:P). Service p -> Service (Repeat p)
repeat [p] serveP [s] c = match c with {
  Quit c -> c,
  More c -> serveP [?Repeat p.s] c |> repeat [p] serveP [s] }

serveNeg : Service NegT
serveNeg [s] c = match c with {
  SeqC c -> let (x, c) = receiveInt [!Int.s] c in
            sendInt [s] (0 - x) c }

serveAdd : Service AddT
serveAdd [s] c = match c with {
  SeqC c -> let (x, c) = receiveInt [?Seq Int -Int.s] c in
            match c with {
              SeqC c -> let (y, c) = receiveInt [!Int.s] c in
                        sendInt [s] (x + y) c }}

serveArith : Service ArithT
serveArith = either [NegT] serveNeg [AddT] serveAdd

serveAriths : Service (Repeat ArithT)
serveAriths = repeat [ArithT] serveArith
"#,
    );
}

// ------------------------------------------------------------ App. A.2

#[test]
fn flipper_negated_recursion_checks() {
    assert_checks(
        r#"
protocol Flipper = FlipT -Int -Flipper

flipper : !Flipper.End! -> Unit
flipper c = let c = select FlipT [End!] c in
            let (x, c) = receiveInt [?Flipper.End!] c in
            match c with {
              FlipT c -> sendInt [!Flipper.End!] x c |> flipper }
"#,
    );
}

// ------------------------------------------------------------ App. A.3

#[test]
fn mutual_recursion_flip_flop_checks() {
    assert_checks(
        r#"
protocol Flip = FlipC -Int Flop
protocol Flop = FlopC Int Flip

flip : !Flip.End! -> Unit
flip c = select FlipC [End!] c |> receiveInt [!Flop.End!] |> flop

flop : (Int, !Flop.End!) -> Unit
flop p = let (x, c) = p in
         select FlopC [End!] c |> sendInt [!Flip.End!] x |> flip
"#,
    );
}

// ------------------------------------------------------------ App. A.5

#[test]
fn recursion_and_duality_mu_example() {
    // protocol X = Mu T X ; type T = !X.End!
    // selectMu unfolds T; matchMu unfolds Dual T; dualT is an identity.
    assert_checks(
        r#"
protocol X = Mu T X

type T = !X.End!

selectMu : T -> !T.T
selectMu c = select Mu [End!] c

dualT : Dual T -> ?X.End?
dualT c = c

matchMu : Dual T -> ?T.Dual T
matchMu d = match d with { Mu d -> d }
"#,
    );
}

// ------------------------------------------------------------ App. B

#[test]
fn repeat_arith_composition() {
    assert_checks(&format!(
        "{ARITH}
protocol Repeat x = More x (Repeat x) | Quit
type Service a = forall (s:S). ?a.s -> s

serveArith : Service Arith
serveArith [s] c = match c with {{
  Neg c -> let (x, c) = receiveInt [!Int.s] c in
           sendInt [s] (0 - x) c,
  Add2 c -> let (x, c) = receiveInt [?Int.!Int.s] c in
            let (y, c) = receiveInt [!Int.s] c in
            sendInt [s] (x + y) c }}

repeat : forall (p:P). Service p -> Service (Repeat p)
repeat [p] serveP [s] c = match c with {{
  Quit c -> c,
  More c -> serveP [?Repeat p.s] c |> repeat [p] serveP [s] }}

repeatArith : Service (Repeat Arith)
repeatArith = repeat [Arith] serveArith
"
    ));
}

// ------------------------------------------------------- negative tests

#[test]
fn unused_channel_is_rejected() {
    let err = assert_type_error(
        r#"
leak : End! -> Unit
leak c = ()
"#,
    );
    assert!(matches!(err, TypeError::UnusedLinear(_)));
}

#[test]
fn double_use_of_channel_is_rejected() {
    let err = assert_type_error(
        r#"
dup : End! -> Unit
dup c = let _ = terminate c in terminate c
"#,
    );
    assert!(matches!(err, TypeError::UnboundVariable(_)));
}

#[test]
fn nonexhaustive_match_is_rejected() {
    let err = assert_type_error(&format!(
        "{AST_DECLS}
partial : forall (s:S). ?AstP.s -> s
partial [s] c = match c with {{
  ConP c -> let (x, c) = receiveInt [s] c in c }}
"
    ));
    assert!(matches!(err, TypeError::BadCoverage { .. }));
}

#[test]
fn foreign_tag_is_rejected() {
    let err = assert_type_error(&format!(
        "{AST_DECLS}{ARITH}
confused : forall (s:S). ?Arith.s -> s
confused [s] c = match c with {{
  Neg c -> let (x, c) = receiveInt [!Int.s] c in sendInt [s] x c,
  ConP c -> let (x, c) = receiveInt [!Int.s] c in sendInt [s] x c }}
"
    ));
    assert!(matches!(err, TypeError::BadCoverage { .. }));
}

#[test]
fn wrong_direction_send_is_rejected() {
    let err = assert_type_error(
        r#"
wrong : ?Int.End? -> Unit
wrong c = sendInt [End?] 1 c |> wait
"#,
    );
    assert!(matches!(err, TypeError::Mismatch { .. }));
}

#[test]
fn terminate_on_input_end_is_rejected() {
    let err = assert_type_error(
        r#"
wrong : End? -> Unit
wrong c = terminate c
"#,
    );
    assert!(matches!(err, TypeError::Mismatch { .. }));
}

#[test]
fn branch_context_mismatch_is_rejected() {
    // One branch consumes the channel, the other leaks it.
    let err = assert_type_error(
        r#"
bad : Bool -> End! -> Unit
bad b c = if b then terminate c else ()
"#,
    );
    assert!(matches!(
        err,
        TypeError::BranchContextMismatch { .. } | TypeError::UnusedLinear(_)
    ));
}

#[test]
fn missing_signature_is_rejected() {
    let err = assert_type_error("f x = x\n");
    assert!(matches!(err, TypeError::MissingSignature(_)));
}

#[test]
fn missing_definition_is_rejected() {
    let err = assert_type_error("f : Unit\n");
    assert!(matches!(err, TypeError::MissingDefinition(_)));
}

#[test]
fn protocol_cannot_classify_values() {
    // A protocol type is not a value type: using it as a function domain
    // must fail kind checking.
    let err = assert_type_error(&format!(
        "{ARITH}
bad : Arith -> Unit
bad x = ()
"
    ));
    assert!(matches!(err, TypeError::Kind(_)));
}

#[test]
fn equivalence_used_by_checker_is_nominal() {
    // Two protocols with identical structure are NOT interchangeable.
    let err = assert_type_error(
        r#"
protocol P1 = TagA Int
protocol P2 = TagB Int

coerce : forall (s:S). !P1.s -> !P2.s
coerce [s] c = c
"#,
    );
    assert!(matches!(err, TypeError::Mismatch { .. }));
}

#[test]
fn dual_types_accepted_via_normalization() {
    // Checker identifies Dual(!Int.End!) with ?Int.End? (C-DualOut etc).
    assert_checks(
        r#"
deal : Dual (!Int.End!) -> Unit
deal c = let (x, c) = receiveInt [End?] c in wait c
"#,
    );
}

#[test]
fn double_negation_accepted_via_normalization() {
    assert_checks(
        r#"
dd : !(-(-Int)).End! -> Unit
dd c = sendInt [End!] 1 c |> terminate
"#,
    );
}
