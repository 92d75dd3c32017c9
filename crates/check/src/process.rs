//! Process typing (paper Fig. 8).
//!
//! ```text
//! P-Exp:  ·|Γ ⊢ e ⇐ Unit|·        ⟹  Γ ⊢ ⟨e⟩
//! P-Par:  Γ₁ ⊢ p   Γ₂ ⊢ q         ⟹  Γ₁,Γ₂ ⊢ p | q
//! P-New:  Γ, x:nrm⁺(T), y:nrm⁻(T) ⊢ p  ⟹  Γ ⊢ (νxy)p
//! ```
//!
//! P-Par's context split is "guessed" in the paper; algorithmically we
//! thread the leftover of the first component into the second, which
//! realizes the existential split.

use crate::check::Checker;
use crate::context::Ctx;
use crate::error::TypeError;
use algst_core::expr::Process;
use algst_core::kind::Kind;
use algst_core::kindcheck::KindCtx;
use algst_core::protocol::Declarations;
use algst_core::store::{StoreOps, TNode};
use algst_core::Session;

/// Checks `Γ ⊢ p` with `ctx` threaded through the process tree, against
/// the caller's `session`: the one whose ids annotate `p`.
pub fn check_process(
    session: &mut Session,
    decls: &Declarations,
    ctx: &mut Ctx,
    p: &Process,
) -> Result<(), TypeError> {
    match p {
        Process::Thread(e) => {
            let unit = session.mk_node(TNode::Unit);
            Checker::new(decls, session).check(ctx, e, unit)
        }
        Process::Par(p1, p2) => {
            check_process(session, decls, ctx, p1)?;
            check_process(session, decls, ctx, p2)
        }
        Process::New(x, y, ty, body) => {
            KindCtx::new(decls).check_id(session.local(), *ty, Kind::Session)?;
            ctx.push_linear(*x, session.nrm(*ty));
            ctx.push_linear(*y, session.nrm_neg(*ty));
            check_process(session, decls, ctx, body)?;
            ctx.expect_consumed(*y)?;
            ctx.expect_consumed(*x)
        }
    }
}

/// Checks a closed process: no free linear resources before or after.
pub fn check_process_closed(
    session: &mut Session,
    decls: &Declarations,
    p: &Process,
) -> Result<(), TypeError> {
    let mut ctx = Ctx::new();
    check_process(session, decls, &mut ctx, p)?;
    if let Some(stray) = ctx.linear_names().first() {
        return Err(TypeError::UnusedLinear(*stray));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use algst_core::expr::{Const, Expr};
    use algst_core::types::Type;

    #[test]
    fn closed_thread_checks() {
        let decls = Declarations::new();
        let p = Process::thread(Expr::unit());
        check_process_closed(&mut Session::new(), &decls, &p).unwrap();
    }

    #[test]
    fn new_channel_split_between_threads() {
        // (νxy : End!) ( ⟨terminate x⟩ | ⟨wait y⟩ )
        let decls = Declarations::new();
        let mut s = Session::new();
        let p = Process::new_chan(
            "x",
            "y",
            s.intern(&Type::EndOut),
            Process::par(
                Process::thread(Expr::app(Expr::Const(Const::Terminate), Expr::var("x"))),
                Process::thread(Expr::app(Expr::Const(Const::Wait), Expr::var("y"))),
            ),
        );
        check_process_closed(&mut s, &decls, &p).unwrap();
    }

    #[test]
    fn unused_channel_end_is_an_error() {
        let decls = Declarations::new();
        let mut s = Session::new();
        let p = Process::new_chan(
            "x",
            "y",
            s.intern(&Type::EndOut),
            Process::thread(Expr::app(Expr::Const(Const::Terminate), Expr::var("x"))),
        );
        assert!(matches!(
            check_process_closed(&mut s, &decls, &p),
            Err(TypeError::UnusedLinear(_))
        ));
    }

    #[test]
    fn channel_typed_with_dual_ends() {
        // (νxy : !Int.End!) (⟨send 1 x |> terminate⟩ | ⟨…receive…⟩)
        let decls = Declarations::new();
        let mut s = Session::new();
        let [int, end_out, end_in] = [Type::int(), Type::EndOut, Type::EndIn].map(|t| s.intern(&t));
        let send_side = Expr::app(
            Expr::Const(Const::Terminate),
            Expr::apps(
                Expr::tapps(Expr::Const(Const::Send), [int, end_out]),
                [Expr::int(1), Expr::var("x")],
            ),
        );
        let recv_side = Expr::let_pair(
            "v",
            "y2",
            Expr::app(
                Expr::tapps(Expr::Const(Const::Receive), [int, end_in]),
                Expr::var("y"),
            ),
            Expr::let_unit(
                Expr::app(Expr::Const(Const::Wait), Expr::var("y2")),
                Expr::let_(
                    "ignored",
                    Expr::var("v"),
                    Expr::let_unit(
                        Expr::apps(
                            Expr::Builtin(algst_core::expr::Builtin::PrintInt),
                            [Expr::var("ignored")],
                        ),
                        Expr::unit(),
                    ),
                ),
            ),
        );
        let p = Process::new_chan(
            "x",
            "y",
            s.intern(&Type::output(Type::int(), Type::EndOut)),
            Process::par(Process::thread(send_side), Process::thread(recv_side)),
        );
        check_process_closed(&mut s, &decls, &p).unwrap();
    }
}
