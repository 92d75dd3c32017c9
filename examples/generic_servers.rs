//! Section 2.3 of the paper: **parameterized protocols and modularity**.
//! Builds the toolbox (`Seq`, `Either`, `Repeat`), composes the
//! arithmetic service out of generic parts, and runs a `Repeat Arith`
//! session end-to-end — including the polarity trick (`Service -Int`)
//! behind active servers.
//!
//! ```text
//! cargo run --example generic_servers
//! ```

use algst::check::check_source_in;
use algst::runtime::Interp;
use algst::Session;
use std::time::Duration;

const PROGRAM: &str = r#"
protocol Seq a b = SeqC a b                      -- product
protocol Either a b = Left a | Right b           -- sum
protocol Repeat a = More a (Repeat a) | Quit     -- iteration

type Service a = forall (s:S). ?a.s -> s

type NegT = Seq Int -Int
type AddT = Seq Int (Seq Int -Int)
type ArithT = Either NegT AddT

-- Generic sum-of-services.
either : forall (a:P). Service a -> forall (b:P). Service b -> Service (Either a b)
either [a] sa [b] sb [s] c = match c with {
  Left c -> sa [s] c,
  Right c -> sb [s] c }

-- Generic iteration.
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

-- Client: two adds, one neg, quit. Note the tag overhead the paper
-- discusses in App. A.6: More, Right, Seq, Seq … per request.
askAdd : Int -> Int -> !Repeat ArithT.End! -> (Int, !Repeat ArithT.End!)
askAdd x y c =
  let c = select More [ArithT, End!] c in
  let c = select Right [NegT, AddT, !Repeat ArithT.End!] c in
  let c = select SeqC [Int, Seq Int -Int, !Repeat ArithT.End!] c in
  let c = sendInt [!Seq Int -Int.!Repeat ArithT.End!] x c in
  let c = select SeqC [Int, -Int, !Repeat ArithT.End!] c in
  let c = sendInt [?Int.!Repeat ArithT.End!] y c in
  receiveInt [!Repeat ArithT.End!] c

askNeg : Int -> !Repeat ArithT.End! -> (Int, !Repeat ArithT.End!)
askNeg x c =
  let c = select More [ArithT, End!] c in
  let c = select Left [NegT, AddT, !Repeat ArithT.End!] c in
  let c = select SeqC [Int, -Int, !Repeat ArithT.End!] c in
  let c = sendInt [?Int.!Repeat ArithT.End!] x c in
  receiveInt [!Repeat ArithT.End!] c

main : Unit
main =
  let (client, srv) = new [!Repeat ArithT.End!] in
  let _ = fork (\u -> serveAriths [End?] srv |> wait) in
  let (a, client) = askAdd 20 22 client in
  let _ = printInt a in
  let (b, client) = askNeg a client in
  let _ = printInt b in
  let (s, client) = askAdd a b client in
  let _ = printInt s in
  select Quit [ArithT, End!] client |> terminate
"#;

fn main() {
    // The module's types are ids of the session that checked it.
    let mut session = Session::new();
    let module = check_source_in(&mut session, PROGRAM).unwrap_or_else(|e| {
        eprintln!("type error: {e}");
        std::process::exit(1);
    });
    println!("generic servers type-checked:");
    for name in ["either", "repeat", "serveArith", "serveAriths"] {
        println!(
            "  {name} : {}",
            module.sig(&mut session, name).expect("declared")
        );
    }
    let interp = Interp::new(&module).echo(true);
    interp
        .run_timeout("main", Duration::from_secs(10))
        .unwrap_or_else(|e| {
            eprintln!("runtime error: {e}");
            std::process::exit(1);
        });
    let stats = interp.stats();
    println!("expected: 42, -42, 0");
    println!(
        "tag messages: {} (the App. A.6 overhead of composing generic parts)",
        stats.tags_sent.load(std::sync::atomic::Ordering::Relaxed)
    );
}
