//! Section 2.1 of the paper: transmit abstract syntax trees — a protocol
//! **beyond regular session types** (the recursion is not tail recursion),
//! yet type checked here in linear time thanks to nominal algebraic
//! protocols.
//!
//! ```text
//! cargo run --example ast_transmission
//! ```

use algst::check::check_source_in;
use algst::runtime::Interp;
use algst::Session;
use std::time::Duration;

const PROGRAM: &str = r#"
data Ast = Con Int | Add Ast Ast
protocol AstP = ConP Int | AddP AstP AstP

sendAst : Ast -> forall (s:S). !AstP.s -> s
sendAst t [s] c = case t of {
  Con x -> select ConP [s] c |> sendInt [s] x,
  Add l r -> select AddP [s] c |> sendAst l [!AstP.s] |> sendAst r [s] }

recvAst : forall (s:S). ?AstP.s -> (Ast, s)
recvAst [s] c = match c with {
  ConP c -> let (x, c) = receiveInt [s] c in (Con x, c),
  AddP c -> let (tl, c) = recvAst [?AstP.s] c in
            let (tr, c) = recvAst [s] c in (Add tl tr, c) }

eval : Ast -> Int
eval t = case t of {
  Con x -> x,
  Add l r -> eval l + eval r }

-- ((1+2)+(3+4)) + 5
sample : Ast
sample = Add (Add (Add (Con 1) (Con 2)) (Add (Con 3) (Con 4))) (Con 5)

main : Unit
main =
  let (tx, rx) = new [!AstP.End!] in
  let _ = fork (\u -> sendAst sample [End!] tx |> terminate) in
  let (tree, rx) = recvAst [End?] rx in
  let _ = printInt (eval tree) in
  wait rx
"#;

fn main() {
    // The module's types are ids of the session that checked it.
    let mut session = Session::new();
    let module = check_source_in(&mut session, PROGRAM).unwrap_or_else(|e| {
        eprintln!("type error: {e}");
        std::process::exit(1);
    });
    println!(
        "sendAst : {}",
        module.sig(&mut session, "sendAst").expect("declared")
    );
    println!(
        "recvAst : {}",
        module.sig(&mut session, "recvAst").expect("declared")
    );
    let interp = Interp::new(&module).echo(true);
    interp
        .run_timeout("main", Duration::from_secs(10))
        .unwrap_or_else(|e| {
            eprintln!("runtime error: {e}");
            std::process::exit(1);
        });
    println!("expected: 15");
    println!(
        "(every AddP tag pushes *two* subtree transmissions on the channel type — \
         non-tail recursion in the protocol)"
    );
}
