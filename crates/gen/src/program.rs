//! Random *program* generation: whole well-typed AlgST modules that
//! exercise every layer — lexer, parser, elaborator, checker, and the
//! channel runtime — not just the type language.
//!
//! Each generated module is a client/server pair over one channel: a
//! random session spine of base-type messages (optionally guarded by a
//! binary protocol choice), a `main` that forks the client and runs the
//! server, and a deterministic expected output (the server prints every
//! `Int` it receives; rendezvous on a single channel makes the print
//! order unique). The `algst-conform` fuzzer uses these programs for
//! three oracles: the checker must accept them, metamorphic surface
//! transformations must preserve the checker's verdict, and running
//! `main` must terminate with the expected output — or hit the step
//! budget — but never panic.
//!
//! With [`ProgConfig::damage`] the client *signature* gets one payload
//! type flipped while the body keeps using the original send/receive
//! helper, producing a module that is ill-typed by construction (the
//! negative side of the metamorphic oracle).

use algst_core::expr::Lit;
use rand::Rng;
use std::fmt::Write;

/// Parameters for [`generate_program`].
#[derive(Clone, Debug)]
pub struct ProgConfig {
    /// Number of messages on the channel (≥ 1).
    pub spine: usize,
    /// Upper bound on `select`/`match` choice points woven into the
    /// spine. Each candidate position is taken with probability ½, so
    /// `choices: 2` yields zero, one, or two — possibly *nested* —
    /// choices (every `match` duplicates its whole continuation into
    /// both arms, so nesting grows the server body exponentially; keep
    /// this small).
    pub choices: usize,
    /// Route `Int` traffic through generated `forall (s:S).` forwarder
    /// declarations instead of calling `sendInt`/`receiveInt` directly,
    /// exercising user-defined polymorphic session functions on both
    /// ends of the channel.
    pub poly: bool,
    /// Flip one payload type in the client signature, making the module
    /// ill-typed while leaving it parseable.
    pub damage: bool,
}

impl Default for ProgConfig {
    fn default() -> ProgConfig {
        ProgConfig {
            spine: 4,
            choices: 1,
            poly: false,
            damage: false,
        }
    }
}

/// A generated module plus everything an oracle needs to judge a run.
#[derive(Clone, Debug)]
pub struct GenProgram {
    /// The module source (one declaration per line).
    pub source: String,
    /// Whether the module type checks, by construction.
    pub well_typed: bool,
    /// Lines `main` prints when run (only meaningful when well-typed).
    pub expected_output: Vec<String>,
    /// The entry point (always `main`).
    pub entry: &'static str,
}

/// A base-type message payload with the concrete value the sending side
/// transmits.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Payload {
    Int(i64),
    Bool(bool),
    Char(char),
}

impl Payload {
    fn ty(self) -> &'static str {
        match self {
            Payload::Int(_) => "Int",
            Payload::Bool(_) => "Bool",
            Payload::Char(_) => "Char",
        }
    }

    fn helper(self, send: bool) -> &'static str {
        match (self, send) {
            (Payload::Int(_), true) => "sendInt",
            (Payload::Int(_), false) => "receiveInt",
            (Payload::Bool(_), true) => "sendBool",
            (Payload::Bool(_), false) => "receiveBool",
            (Payload::Char(_), true) => "sendChar",
            (Payload::Char(_), false) => "receiveChar",
        }
    }

    fn literal(self) -> String {
        match self {
            Payload::Int(n) => n.to_string(),
            Payload::Bool(true) => "True".into(),
            Payload::Bool(false) => "False".into(),
            Payload::Char(c) => format!("'{c}'"),
        }
    }
}

/// One step of the spine, from the *client's* perspective.
#[derive(Copy, Clone, Debug)]
enum Step {
    /// Client sends the payload.
    Send(Payload),
    /// Server sends the payload (client receives).
    Recv(Payload),
    /// Client selects one of the two protocol tags (`0` or `1`).
    Choice(usize),
}

fn random_payload<R: Rng>(rng: &mut R) -> Payload {
    match rng.gen_range(0..4) {
        0 => Payload::Bool(rng.gen_range(0..2) == 0),
        1 => Payload::Char((b'a' + rng.gen_range(0..26u8)) as char),
        _ => Payload::Int(rng.gen_range(0..1000)),
    }
}

/// Generates one module (see the module docs for its shape).
pub fn generate_program<R: Rng>(rng: &mut R, cfg: &ProgConfig) -> GenProgram {
    let stamp: u32 = rng.gen();
    let proto = format!("PgP{stamp}");
    let tags = [format!("PgA{stamp}"), format!("PgB{stamp}")];
    let client = format!("pgClient{stamp}");
    let server = format!("pgServer{stamp}");
    let fwd_send = format!("pgFwdS{stamp}");
    let fwd_recv = format!("pgFwdR{stamp}");

    // ---------------------------------------------------------- the spine
    let mut steps = Vec::new();
    for _ in 0..cfg.spine.max(1) {
        let payload = random_payload(rng);
        steps.push(if rng.gen_range(0..2) == 0 {
            Step::Send(payload)
        } else {
            Step::Recv(payload)
        });
    }
    for _ in 0..cfg.choices {
        if rng.gen_range(0..2) == 0 {
            let at = rng.gen_range(0..=steps.len());
            steps.insert(at, Step::Choice(rng.gen_range(0..2)));
        }
    }
    let has_choice = steps.iter().any(|s| matches!(s, Step::Choice(_)));
    // The client actively closes half the time, otherwise it waits.
    let client_closes = rng.gen_range(0..2) == 0;

    // ----------------------------------------------- session type suffixes
    // `client_ty[k]` / `server_ty[k]` is the channel type *after* the
    // first k steps, from each side's perspective.
    let suffix = |view_client: bool| -> Vec<String> {
        let mut tys = vec![if view_client == client_closes {
            "End!".to_owned()
        } else {
            "End?".to_owned()
        }];
        for step in steps.iter().rev() {
            let rest = tys.last().expect("seeded").clone();
            let prefix = match (step, view_client) {
                (Step::Send(p), true) | (Step::Recv(p), false) => format!("!{}", p.ty()),
                (Step::Send(p), false) | (Step::Recv(p), true) => format!("?{}", p.ty()),
                (Step::Choice(_), true) => format!("!{proto}"),
                (Step::Choice(_), false) => format!("?{proto}"),
            };
            tys.push(format!("{prefix}.{rest}"));
        }
        tys.reverse();
        tys
    };
    let client_ty = suffix(true);
    let server_ty = suffix(false);

    // -------------------------------------------------------------- bodies
    // With `poly`, `Int` traffic on both ends goes through the generated
    // `forall` forwarders; everything else calls the builtins directly.
    let helper = |p: Payload, send: bool| -> String {
        if cfg.poly && matches!(p, Payload::Int(_)) {
            if send {
                fwd_send.clone()
            } else {
                fwd_recv.clone()
            }
        } else {
            p.helper(send).to_owned()
        }
    };
    let mut client_body = String::new();
    for (k, step) in steps.iter().enumerate() {
        let rest = &client_ty[k + 1];
        match step {
            Step::Send(p) => {
                let _ = write!(
                    client_body,
                    "let c = {} [{rest}] {} c in ",
                    helper(*p, true),
                    p.literal()
                );
            }
            Step::Recv(p) => {
                let _ = write!(
                    client_body,
                    "let (x{k}, c) = {} [{rest}] c in ",
                    helper(*p, false)
                );
            }
            Step::Choice(sel) => {
                let _ = write!(client_body, "let c = select {} [{rest}] c in ", tags[*sel]);
            }
        }
    }
    client_body.push_str(if client_closes {
        "terminate c"
    } else {
        "wait c"
    });

    // The server prints every Int it receives; built back-to-front so a
    // `match` can duplicate the whole continuation into both arms.
    let mut server_body = if client_closes {
        "wait c".to_owned()
    } else {
        "terminate c".to_owned()
    };
    for (k, step) in steps.iter().enumerate().rev() {
        let rest = &server_ty[k + 1];
        server_body = match step {
            Step::Send(p) => {
                let recv = format!("let (y{k}, c) = {} [{rest}] c in ", helper(*p, false));
                if matches!(p, Payload::Int(_)) {
                    format!("{recv}let _ = printInt y{k} in {server_body}")
                } else {
                    format!("{recv}{server_body}")
                }
            }
            Step::Recv(p) => format!(
                "let c = {} [{rest}] {} c in {server_body}",
                helper(*p, true),
                p.literal()
            ),
            Step::Choice(_) => format!(
                "match c with {{ {} c -> {server_body}, {} c -> {server_body} }}",
                tags[0], tags[1]
            ),
        };
    }

    // ------------------------------------------------- optional signature damage
    // Flip one message payload type in the *client signature* only; the
    // body still uses the helper for the original type, so checking must
    // fail while parsing succeeds.
    let mut client_sig = client_ty[0].clone();
    let well_typed = if cfg.damage {
        let target = steps.iter().enumerate().find_map(|(k, s)| match s {
            Step::Send(p) | Step::Recv(p) => Some((k, *p)),
            Step::Choice(_) => None,
        });
        match target {
            Some((_, p)) => {
                let from = p.ty();
                let to = match p {
                    Payload::Int(_) => "Bool",
                    Payload::Bool(_) => "Char",
                    Payload::Char(_) => "Int",
                };
                client_sig = client_sig.replacen(from, to, 1);
                false
            }
            None => true, // a pure-choice spine has no payload to damage
        }
    } else {
        true
    };

    // ------------------------------------------------------------- assembly
    let mut source = String::new();
    if has_choice {
        let _ = writeln!(source, "protocol {proto} = {} | {}", tags[0], tags[1]);
    }
    if cfg.poly {
        let _ = writeln!(source, "{fwd_send} : forall (s:S). Int -> !Int.s -> s");
        let _ = writeln!(source, "{fwd_send} [s] n c = sendInt [s] n c");
        let _ = writeln!(source, "{fwd_recv} : forall (s:S). ?Int.s -> (Int, s)");
        let _ = writeln!(source, "{fwd_recv} [s] c = receiveInt [s] c");
    }
    let _ = writeln!(source, "{client} : {client_sig} -> Unit");
    let _ = writeln!(source, "{client} c = {client_body}");
    let _ = writeln!(source, "{server} : {} -> Unit", server_ty[0]);
    let _ = writeln!(source, "{server} c = {server_body}");
    let _ = writeln!(source, "main : Unit");
    let _ = writeln!(
        source,
        "main = let (p, q) = new [{}] in let _ = fork (\\u -> {client} p) in {server} q",
        client_ty[0]
    );

    let expected_output = steps
        .iter()
        .filter_map(|s| match s {
            Step::Send(Payload::Int(n)) => Some(n.to_string()),
            _ => None,
        })
        .collect();

    GenProgram {
        source,
        well_typed,
        expected_output,
        entry: "main",
    }
}

// ------------------------------------------------ recomputed expectation

/// Recomputes the expected output of a generated module *from its
/// source alone*: the `Int` literals the forked client sends, in
/// program order (the server prints exactly those, and rendezvous on a
/// single channel makes the order unique).
///
/// This is what lets runtime counterexamples shrink: after
/// [`reduce_program`](../../algst_conform) drops declarations, the
/// original [`GenProgram::expected_output`] no longer describes the
/// candidate, but the candidate's own client body still does. Returns
/// `None` when the module does not have the generated shape (no
/// parseable `main`, no `fork`ed client, or no client binding) — such a
/// candidate cannot be judged and must not count as failing.
pub fn expected_output_of(source: &str) -> Option<Vec<String>> {
    use algst_syntax::ast::{Arena, DeclKind, ExprId, Program, SExpr};

    let program: Program = algst_syntax::parse_program(source).ok()?;
    let binding = |name: &str| {
        program.decls.iter().find_map(|d| match &d.kind {
            DeclKind::Binding(b) if b.name.as_str() == name => Some((&d.arena, b.body)),
            _ => None,
        })
    };

    // `main = let (p, q) = new [T] in let _ = fork (\u -> client p) in …`
    // — find the lambda handed to `fork` and take its head variable.
    fn forked_client(a: &Arena, e: ExprId) -> Option<&'static str> {
        let go = |e: &ExprId| forked_client(a, *e);
        match a.expr(e) {
            SExpr::App(f, x, _) => {
                if let SExpr::Var(name, _) = a.expr(spine_head(a, *f)) {
                    if name.as_str() == "fork" {
                        if let SExpr::Lambda(_, body, _) = a.expr(*x) {
                            if let SExpr::Var(callee, _) = a.expr(spine_head(a, *body)) {
                                return Some(callee.as_str());
                            }
                        }
                    }
                }
                go(f).or_else(|| go(x))
            }
            SExpr::TApp(f, _, _) | SExpr::Lambda(_, f, _) => go(f),
            SExpr::Let(_, rhs, body, _) => go(rhs).or_else(|| go(body)),
            SExpr::Pair(l, r, _) | SExpr::BinOp(_, l, r, _) => go(l).or_else(|| go(r)),
            SExpr::If(c, t, f, _) => go(c).or_else(|| go(t)).or_else(|| go(f)),
            SExpr::Case(scrut, arms, _) => {
                go(scrut).or_else(|| a.arms(*arms).find_map(|arm| go(&arm.body)))
            }
            _ => None,
        }
    }

    /// The variable (or other atom) at the head of an application spine.
    fn spine_head(a: &Arena, e: ExprId) -> ExprId {
        match a.expr(e) {
            SExpr::App(f, _, _) | SExpr::TApp(f, _, _) => spine_head(a, *f),
            _ => e,
        }
    }

    let (main_arena, main_body) = binding("main")?;
    let client = forked_client(main_arena, main_body)?;

    // Int-sending functions: `sendInt` itself plus any binding that
    // bottoms out in one (the generated `forall` forwarders are a single
    // level deep, but close transitively for safety).
    let mut senders: Vec<&str> = vec!["sendInt"];
    loop {
        let before = senders.len();
        for d in &program.decls {
            if let DeclKind::Binding(b) = &d.kind {
                if let SExpr::Var(head, _) = d.arena.expr(spine_head(&d.arena, b.body)) {
                    if senders.contains(&head.as_str()) && !senders.contains(&b.name.as_str()) {
                        senders.push(b.name.as_str());
                    }
                }
            }
        }
        if senders.len() == before {
            break;
        }
    }

    // Collect the literal `Int` arguments of maximal application spines
    // headed by an Int-sender, left to right. Only spine roots are
    // inspected, so `((sendInt [T]) 5) c` counts once.
    fn collect(a: &Arena, e: ExprId, senders: &[&str], out: &mut Vec<String>) {
        if let SExpr::App(..) | SExpr::TApp(..) = a.expr(e) {
            let mut args = Vec::new();
            let mut head = e;
            loop {
                match a.expr(head) {
                    SExpr::App(f, x, _) => {
                        args.push(*x);
                        head = *f;
                    }
                    SExpr::TApp(f, _, _) => head = *f,
                    _ => break,
                }
            }
            args.reverse();
            if let SExpr::Var(name, _) = a.expr(head) {
                if senders.contains(&name.as_str()) {
                    for x in &args {
                        if let SExpr::Lit(Lit::Int(n), _) = a.expr(*x) {
                            out.push(n.to_string());
                        }
                    }
                }
            } else {
                collect(a, head, senders, out);
            }
            for x in args {
                collect(a, x, senders, out);
            }
            return;
        }
        let mut go = |e: &ExprId| collect(a, *e, senders, out);
        match a.expr(e) {
            SExpr::Lambda(_, b, _) => go(b),
            SExpr::Let(_, rhs, body, _) => {
                go(rhs);
                go(body);
            }
            SExpr::Pair(l, r, _) | SExpr::BinOp(_, l, r, _) => {
                go(l);
                go(r);
            }
            SExpr::If(c, t, f, _) => {
                go(c);
                go(t);
                go(f);
            }
            SExpr::Case(scrut, arms, _) => {
                go(scrut);
                for arm in a.arms(*arms) {
                    go(&arm.body);
                }
            }
            _ => {}
        }
    }

    let (client_arena, client_body) = binding(client)?;
    let mut out = Vec::new();
    collect(client_arena, client_body, &senders, &mut out);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_programs_type_check() {
        let mut rng = StdRng::seed_from_u64(41);
        for i in 0..30 {
            let cfg = ProgConfig {
                spine: 1 + i % 6,
                choices: i % 3,
                poly: i % 2 == 0,
                damage: false,
            };
            let p = generate_program(&mut rng, &cfg);
            assert!(p.well_typed);
            algst_check::check_source(&p.source)
                .unwrap_or_else(|e| panic!("generated program ill-typed: {e}\n{}", p.source));
        }
    }

    #[test]
    fn damaged_programs_fail_to_check() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut damaged = 0;
        for i in 0..30 {
            let cfg = ProgConfig {
                spine: 1 + i % 6,
                choices: 0,
                poly: i % 2 == 0,
                damage: true,
            };
            let p = generate_program(&mut rng, &cfg);
            if !p.well_typed {
                damaged += 1;
                assert!(
                    algst_check::check_source(&p.source).is_err(),
                    "damaged program still checks:\n{}",
                    p.source
                );
            }
        }
        assert!(damaged >= 25, "only {damaged}/30 runs produced damage");
    }

    #[test]
    fn generated_programs_run_to_the_expected_output() {
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..10 {
            let p = generate_program(&mut rng, &ProgConfig::default());
            let module = algst_check::check_source(&p.source).expect("well-typed");
            let interp = algst_runtime::Interp::new(&module);
            interp
                .run_timeout(p.entry, std::time::Duration::from_secs(20))
                .unwrap_or_else(|e| panic!("runtime error: {e}\n{}", p.source));
            assert_eq!(interp.output(), p.expected_output, "\n{}", p.source);
        }
    }

    #[test]
    fn nested_choice_and_poly_programs_run_to_the_expected_output() {
        let mut rng = StdRng::seed_from_u64(44);
        for i in 0..12 {
            let cfg = ProgConfig {
                spine: 1 + i % 4,
                choices: 3,
                poly: true,
                damage: false,
            };
            let p = generate_program(&mut rng, &cfg);
            let module = algst_check::check_source(&p.source).unwrap_or_else(|e| {
                panic!("poly/nested-choice program ill-typed: {e}\n{}", p.source)
            });
            let interp = algst_runtime::Interp::new(&module);
            interp
                .run_timeout(p.entry, std::time::Duration::from_secs(20))
                .unwrap_or_else(|e| panic!("runtime error: {e}\n{}", p.source));
            assert_eq!(interp.output(), p.expected_output, "\n{}", p.source);
        }
    }

    #[test]
    fn expected_output_is_recomputable_from_source() {
        let mut rng = StdRng::seed_from_u64(45);
        for i in 0..40 {
            let cfg = ProgConfig {
                spine: 1 + i % 6,
                choices: i % 3,
                poly: i % 2 == 0,
                damage: false,
            };
            let p = generate_program(&mut rng, &cfg);
            assert_eq!(
                expected_output_of(&p.source).as_ref(),
                Some(&p.expected_output),
                "recomputed expectation diverged from the generator's\n{}",
                p.source
            );
        }
    }

    #[test]
    fn expected_output_of_rejects_shapeless_modules() {
        assert_eq!(expected_output_of("not a ( program"), None);
        assert_eq!(expected_output_of("f : Unit\nf = ()"), None);
        // A `main` that forks nothing still has no client to read.
        assert_eq!(expected_output_of("main : Unit\nmain = ()"), None);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_program(&mut StdRng::seed_from_u64(7), &ProgConfig::default());
        let b = generate_program(&mut StdRng::seed_from_u64(7), &ProgConfig::default());
        assert_eq!(a.source, b.source);
        assert_eq!(a.expected_output, b.expected_output);
    }
}
