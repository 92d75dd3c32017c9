//! Quickstart: declare an algebraic protocol, type check a program
//! against it, and run it on the thread-and-channel runtime.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use algst::check::check_source_in;
use algst::runtime::Interp;
use algst::Session;
use std::time::Duration;

const PROGRAM: &str = r#"
-- The introduction's IntList protocol: a finite sequence of integers.
protocol IntListP = Nil | Cons Int IntListP

-- Sender: counts n down to 1 over the channel.
sendRange : Int -> forall (s:S). !IntListP.s -> s
sendRange n [s] c =
  if n == 0 then select Nil [s] c
  else select Cons [s] c |> sendInt [!IntListP.s] n |> sendRange (n - 1) [s]

-- Receiver: sums the sequence.
sumList : Int -> forall (s:S). ?IntListP.s -> (Int, s)
sumList acc [s] c = match c with {
  Nil c -> (acc, c),
  Cons c -> let (x, c) = receiveInt [?IntListP.s] c in
            sumList (acc + x) [s] c }

main : Unit
main =
  let (tx, rx) = new [!IntListP.End!] in
  let _ = fork (\u -> sendRange 10 [End!] tx |> terminate) in
  let (total, rx) = sumList 0 [End?] rx in
  let _ = printInt total in
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
        "type of sendRange: {}",
        module.sig(&mut session, "sendRange").expect("declared")
    );
    println!(
        "type of sumList:   {}",
        module.sig(&mut session, "sumList").expect("declared")
    );

    let interp = Interp::new(&module).echo(true);
    match interp.run_timeout("main", Duration::from_secs(10)) {
        Ok(_) => println!("done: 10+9+…+1 = 55 expected above"),
        Err(e) => {
            eprintln!("runtime error: {e}");
            std::process::exit(1);
        }
    }
}
