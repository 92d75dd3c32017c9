//! Types for constants (paper Fig. 4).
//!
//! ```text
//! typeof(fork)      = (Unit → Unit) → Unit
//! typeof(new)       = ∀α:S. α ⊗ Dual α
//! typeof(receive)   = ∀α:T.∀β:S. ?α.β → α ⊗ β
//! typeof(send)      = ∀α:T.∀β:S. α → !α.β → β
//! typeof(wait)      = End? → Unit
//! typeof(terminate) = End! → Unit
//! typeof(select Cₖ) = ∀ᾱ:P.∀β:S. !(ρ ᾱ).β → §(+(T̄ₖ)).β
//!                                  (protocol ρ ᾱ = {Cᵢ T̄ᵢ}, k ∈ I)
//! ```
//!
//! All returned types are interned normal forms, as the typing rules
//! require: `select`'s payloads are normalized before they are
//! materialized, and the rest are normal as written. Binders are nameless; extraction names them `a`, `b`, …,
//! except that `select` names its parameter binders after the protocol's.

use crate::check::FieldTypes;
use crate::error::TypeError;
use algst_core::expr::Const;
use algst_core::kind::Kind;
use algst_core::protocol::Declarations;
use algst_core::store::{StoreOps, TNode, TypeId};
use algst_core::Session;

/// Computes `typeof(c)` in `s`; `fields` interns the protocol field
/// types `select` reads.
///
/// # Errors
/// Fails only for `select C` when `C` is not a declared protocol tag.
pub fn type_of_const(
    s: &mut Session,
    decls: &Declarations,
    fields: &mut FieldTypes,
    c: Const,
) -> Result<TypeId, TypeError> {
    let unit = s.mk_node(TNode::Unit);
    // The de-Bruijn index of the innermost binder (0) or the one outside it.
    let bound = |s: &mut Session, i| s.mk_node(TNode::Bound(i));
    // Each type below is built in normal form.
    let t = match c {
        Const::Fork => {
            let thunk = s.mk_node(TNode::Arrow(unit, unit));
            s.mk_node(TNode::Arrow(thunk, unit))
        }
        Const::New => {
            let b0 = bound(s, 0);
            let dual = s.mk_node(TNode::Dual(b0));
            let pair = s.mk_node(TNode::Pair(b0, dual));
            s.mk_node(TNode::Forall(Kind::Session, pair))
        }
        Const::Receive => {
            let (b0, b1) = (bound(s, 0), bound(s, 1));
            let input = s.mk_node(TNode::In(b1, b0));
            let pair = s.mk_node(TNode::Pair(b1, b0));
            let arrow = s.mk_node(TNode::Arrow(input, pair));
            let inner = s.mk_node(TNode::Forall(Kind::Session, arrow));
            s.mk_node(TNode::Forall(Kind::Value, inner))
        }
        Const::Send => {
            let (b0, b1) = (bound(s, 0), bound(s, 1));
            let output = s.mk_node(TNode::Out(b1, b0));
            let cont = s.mk_node(TNode::Arrow(output, b0));
            let arrow = s.mk_node(TNode::Arrow(b1, cont));
            let inner = s.mk_node(TNode::Forall(Kind::Session, arrow));
            s.mk_node(TNode::Forall(Kind::Value, inner))
        }
        Const::Wait => {
            let end = s.mk_node(TNode::EndIn);
            s.mk_node(TNode::Arrow(end, unit))
        }
        Const::Terminate => {
            let end = s.mk_node(TNode::EndOut);
            s.mk_node(TNode::Arrow(end, unit))
        }
        Const::Select(tag) => {
            let (decl, k) = decls
                .protocol_of_tag(tag)
                .ok_or(TypeError::UnboundTag(tag))?;
            // Under ∀β:S the continuation β is index 0; the parameters
            // stay free until `close` binds them outside it.
            let b0 = bound(s, 0);
            let params: Vec<TypeId> = decl
                .params
                .iter()
                .map(|p| s.mk_node(TNode::Free(*p)))
                .collect();
            let proto = s.mk_node(TNode::Proto(decl.name, params));
            let domain = s.mk_node(TNode::Out(proto, b0));
            // §(+(T̄ₖ)).β
            let mut codomain = b0;
            for &field in fields.of(s, &decl.ctors[k]).iter().rev() {
                let payload = s.nrm(field);
                let payload = s.dir_pos(payload);
                codomain = s.materialize(payload, codomain);
            }
            let arrow = s.mk_node(TNode::Arrow(domain, codomain));
            let mut ty = s.mk_node(TNode::Forall(Kind::Session, arrow));
            for p in decl.params.iter().rev() {
                ty = s.close(*p, Kind::Protocol, ty);
            }
            ty
        }
    };
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use algst_core::protocol::{Ctor, ProtocolDecl};
    use algst_core::symbol::Symbol;
    use algst_core::types::Type;

    /// `typeof(c)` as a tree, through a fresh session.
    fn type_of(d: &Declarations, c: Const) -> Result<Type, TypeError> {
        let mut s = Session::new();
        let id = type_of_const(&mut s, d, &mut FieldTypes::default(), c)?;
        Ok(s.extract(id))
    }

    fn decls() -> Declarations {
        let mut d = Declarations::new();
        // protocol ArithC = NegC Int -Int | AddC Int Int -Int
        d.add_protocol(ProtocolDecl {
            name: Symbol::intern("ArithC"),
            params: vec![],
            ctors: vec![
                Ctor::new("NegC", vec![Type::int(), Type::neg(Type::int())]),
                Ctor::new(
                    "AddC",
                    vec![Type::int(), Type::int(), Type::neg(Type::int())],
                ),
            ],
        })
        .unwrap();
        // protocol StreamC a = NextC a (StreamC a)
        d.add_protocol(ProtocolDecl {
            name: Symbol::intern("StreamC"),
            params: vec![Symbol::intern("a")],
            ctors: vec![Ctor::new(
                "NextC",
                vec![Type::var("a"), Type::proto("StreamC", vec![Type::var("a")])],
            )],
        })
        .unwrap();
        d.validate().unwrap();
        d
    }

    #[test]
    fn constants_have_paper_types() {
        let d = Declarations::new();
        assert_eq!(
            type_of(&d, Const::Fork).unwrap().to_string(),
            "(Unit -> Unit) -> Unit"
        );
        assert_eq!(
            type_of(&d, Const::New).unwrap().to_string(),
            "forall (a:S). (a, Dual a)"
        );
        assert_eq!(
            type_of(&d, Const::Wait).unwrap().to_string(),
            "End? -> Unit"
        );
        assert_eq!(
            type_of(&d, Const::Terminate).unwrap().to_string(),
            "End! -> Unit"
        );
    }

    #[test]
    fn select_neg_pushes_fields_with_polarity() {
        // select NegC : ∀β:S. !ArithC.β → !Int.?Int.β  (paper Section 2.2)
        let d = decls();
        let t = type_of(&d, Const::Select(Symbol::intern("NegC"))).unwrap();
        let Type::Forall(_, Kind::Session, body) = &t else {
            panic!("expected ∀β:S, got {t}")
        };
        let Type::Arrow(dom, cod) = &**body else {
            panic!("expected arrow, got {body}")
        };
        assert!(dom.to_string().starts_with("!ArithC."));
        assert!(cod.to_string().starts_with("!Int.?Int."));
    }

    #[test]
    fn select_add_sends_two_receives_one() {
        let d = decls();
        let t = type_of(&d, Const::Select(Symbol::intern("AddC"))).unwrap();
        let Type::Forall(_, _, body) = &t else {
            panic!()
        };
        let Type::Arrow(_, cod) = &**body else {
            panic!()
        };
        assert!(cod.to_string().starts_with("!Int.!Int.?Int."));
    }

    #[test]
    fn select_parameterized_freshens_params() {
        // select NextC : ∀a:P.∀β:S. !(StreamC a).β → §(+(a, StreamC a)).β
        let d = decls();
        let t = type_of(&d, Const::Select(Symbol::intern("NextC"))).unwrap();
        let Type::Forall(a1, Kind::Protocol, body) = &t else {
            panic!("expected ∀a:P, got {t}")
        };
        let Type::Forall(_, Kind::Session, inner) = &**body else {
            panic!()
        };
        let Type::Arrow(dom, _) = &**inner else {
            panic!()
        };
        let Type::Out(payload, _) = &**dom else {
            panic!()
        };
        let Type::Proto(_, args) = &**payload else {
            panic!()
        };
        assert_eq!(args[0], Type::Var(*a1));
    }

    #[test]
    fn select_unknown_tag_errors() {
        let d = decls();
        assert!(matches!(
            type_of(&d, Const::Select(Symbol::intern("NoSuchTag"))),
            Err(TypeError::UnboundTag(_))
        ));
    }

    #[test]
    fn constant_types_are_normal() {
        let d = decls();
        for c in [
            Const::Fork,
            Const::New,
            Const::Receive,
            Const::Send,
            Const::Wait,
            Const::Terminate,
            Const::Select(Symbol::intern("NegC")),
            Const::Select(Symbol::intern("NextC")),
        ] {
            let t = type_of(&d, c).unwrap();
            assert!(
                algst_core::normalize::is_normal(&t),
                "typeof({c:?}) not normal: {t}"
            );
            let mut s = Session::new();
            let id = type_of_const(&mut s, &d, &mut FieldTypes::default(), c).unwrap();
            assert_eq!(s.nrm(id), id, "typeof({c:?}) is not its own nrm");
        }
    }
}
