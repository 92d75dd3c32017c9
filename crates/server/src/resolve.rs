//! Standalone type resolution for `equiv` requests.
//!
//! The checker's elaborator resolves surface types against a module's
//! protocol/data/alias declarations. A bare equivalence query has no
//! module, and does not need one: the paper's equivalence is *nominal*
//! in protocol names — `P ā ≡ P b̄` iff the arguments are equivalent
//! pointwise — so any unknown applied uppercase name can be treated as
//! an (undeclared) protocol reference without changing any verdict.
//! Builtins (`Int`, `Bool`, `Char`, `String`, `Unit`) resolve as usual;
//! lowercase names are type variables.
//!
//! Resolution happens while parsing. The parser's type productions are
//! generic over a [`TypeBuilder`], and the two builders here resolve each
//! node as the parser recognises it: [`type_from_str`] builds a core
//! [`Type`], and [`intern_type_str`] hash-conses straight into a
//! session's store, so the server's cold path goes from source to
//! [`TypeId`] without any intermediate tree.

use algst_core::kind::Kind;
use algst_core::store::{StoreOps, TNode};
use algst_core::types::{BaseType, Type};
use algst_core::{Session, Symbol, TypeId};
use algst_syntax::{parse_type_with, TypeBuilder};
use std::sync::Arc;

/// Parses the surface syntax of a single type (e.g. `!Int.End!` or
/// `forall (s:S). ?Neg Int.s`) into a core [`Type`].
pub fn type_from_str(src: &str) -> Result<Type, String> {
    parse_type_with(src, &mut Types).map_err(|e| e.to_string())
}

/// Parses a single type straight into `session`'s store: the id
/// `session.intern(&type_from_str(src)?)` would return, without building
/// the tree. On a parse error, nodes interned before the error stay in
/// the store as unreferenced garbage; they change no verdict.
pub fn intern_type_str(session: &mut Session, src: &str) -> Result<TypeId, String> {
    let mut ids = Ids {
        session,
        binders: Vec::new(),
    };
    parse_type_with(src, &mut ids).map_err(|e| e.to_string())
}

/// The builtin base type a name with no arguments denotes, if any.
/// Compares pre-interned symbols, never the names' text.
fn base_type(name: Symbol) -> Option<BaseType> {
    match name {
        Symbol::INT => Some(BaseType::Int),
        Symbol::BOOL => Some(BaseType::Bool),
        Symbol::CHAR => Some(BaseType::Char),
        Symbol::STRING => Some(BaseType::Str),
        _ => None,
    }
}

/// Builds core [`Type`] trees.
struct Types;

impl TypeBuilder for Types {
    type Out = Type;

    fn unit(&mut self) -> Type {
        Type::Unit
    }
    fn name(&mut self, name: Symbol, args: Vec<Type>) -> Type {
        match base_type(name) {
            Some(base) if args.is_empty() => Type::Base(base),
            _ => Type::Proto(name, args),
        }
    }
    fn var(&mut self, var: Symbol) -> Type {
        Type::Var(var)
    }
    fn arrow(&mut self, dom: Type, cod: Type) -> Type {
        Type::Arrow(Arc::new(dom), Arc::new(cod))
    }
    fn pair(&mut self, fst: Type, snd: Type) -> Type {
        Type::Pair(Arc::new(fst), Arc::new(snd))
    }
    fn forall(&mut self, var: Symbol, kind: Kind, body: Type) -> Type {
        Type::Forall(var, kind, Arc::new(body))
    }
    fn input(&mut self, payload: Type, cont: Type) -> Type {
        Type::In(Arc::new(payload), Arc::new(cont))
    }
    fn output(&mut self, payload: Type, cont: Type) -> Type {
        Type::Out(Arc::new(payload), Arc::new(cont))
    }
    fn end_in(&mut self) -> Type {
        Type::EndIn
    }
    fn end_out(&mut self) -> Type {
        Type::EndOut
    }
    fn dual(&mut self, s: Type) -> Type {
        Type::Dual(Arc::new(s))
    }
    fn neg(&mut self, t: Type) -> Type {
        Type::Neg(Arc::new(t))
    }
}

/// Hash-conses each node into a session's store as it is parsed, with
/// de Bruijn binders exactly as `Session::intern` assigns them.
struct Ids<'s> {
    session: &'s mut Session,
    /// Enclosing `forall` binders, innermost last.
    binders: Vec<Symbol>,
}

impl TypeBuilder for Ids<'_> {
    type Out = TypeId;

    fn unit(&mut self) -> TypeId {
        self.session.mk_node(TNode::Unit)
    }
    fn name(&mut self, name: Symbol, args: Vec<TypeId>) -> TypeId {
        let node = match base_type(name) {
            Some(base) if args.is_empty() => TNode::Base(base),
            _ => TNode::Proto(name, args),
        };
        self.session.mk_node(node)
    }
    fn var(&mut self, var: Symbol) -> TypeId {
        let node = match self.binders.iter().rposition(|b| *b == var) {
            Some(ix) => TNode::Bound((self.binders.len() - 1 - ix) as u32),
            None => TNode::Free(var),
        };
        self.session.mk_node(node)
    }
    fn arrow(&mut self, dom: TypeId, cod: TypeId) -> TypeId {
        self.session.mk_node(TNode::Arrow(dom, cod))
    }
    fn pair(&mut self, fst: TypeId, snd: TypeId) -> TypeId {
        self.session.mk_node(TNode::Pair(fst, snd))
    }
    fn bind(&mut self, var: Symbol) {
        self.binders.push(var);
    }
    fn forall(&mut self, var: Symbol, kind: Kind, body: TypeId) -> TypeId {
        self.binders.pop();
        let id = self.session.mk_node(TNode::Forall(kind, body));
        self.session.note_binder_hint(id, var);
        id
    }
    fn input(&mut self, payload: TypeId, cont: TypeId) -> TypeId {
        self.session.mk_node(TNode::In(payload, cont))
    }
    fn output(&mut self, payload: TypeId, cont: TypeId) -> TypeId {
        self.session.mk_node(TNode::Out(payload, cont))
    }
    fn end_in(&mut self) -> TypeId {
        self.session.mk_node(TNode::EndIn)
    }
    fn end_out(&mut self) -> TypeId {
        self.session.mk_node(TNode::EndOut)
    }
    fn dual(&mut self, s: TypeId) -> TypeId {
        self.session.mk_node(TNode::Dual(s))
    }
    fn neg(&mut self, t: TypeId) -> TypeId {
        self.session.mk_node(TNode::Neg(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algst_core::Session;

    fn equivalent(t: &Type, u: &Type) -> bool {
        Session::new().equivalent(t, u)
    }

    #[test]
    fn parses_session_types() {
        let t = type_from_str("!Int.End!").unwrap();
        assert_eq!(t, Type::output(Type::int(), Type::EndOut));
        let u = type_from_str("Dual (?Int.End?)").unwrap();
        assert!(equivalent(&t, &u));
    }

    #[test]
    fn unknown_names_resolve_nominally() {
        let t = type_from_str("?Repeat Int.End?").unwrap();
        let u = type_from_str("?Repeat Int.End?").unwrap();
        assert!(equivalent(&t, &u));
        let v = type_from_str("?Repeat Bool.End?").unwrap();
        assert!(!equivalent(&t, &v));
    }

    #[test]
    fn forall_and_variables() {
        let t = type_from_str("forall (s:S). !Int.s -> s").unwrap();
        let u = type_from_str("forall (r:S). !Int.r -> r").unwrap();
        assert!(equivalent(&t, &u));
    }

    #[test]
    fn display_round_trips() {
        for src in [
            "!Int.End!",
            "?(-Int).End?",
            "forall (s:S). Dual s -> (Int, s)",
            "!Repeat (Int, Bool).?Neg Char.End?",
        ] {
            let t = type_from_str(src).unwrap();
            let back = type_from_str(&t.to_string())
                .unwrap_or_else(|e| panic!("reparse of `{t}` failed: {e}"));
            assert!(equivalent(&t, &back), "{src} changed through display");
        }
    }

    #[test]
    fn reports_parse_errors() {
        assert!(type_from_str("!Int.").is_err());
        assert!(type_from_str("").is_err());
        assert!(intern_type_str(&mut Session::new(), "!Int.").is_err());
    }

    #[test]
    fn interning_while_parsing_matches_interning_the_tree() {
        let mut session = Session::new();
        for src in [
            "Unit",
            "!Int.End!",
            "?(-Int).End?",
            "forall (s:S). Dual s -> (Int, s)",
            "forall (a:T). forall (b:T). (a, b) -> forall (a:T). (a, b)",
            "!Repeat (Int, Bool).?Neg Char.End?",
            "(Repeat) Int",
            "x -> String",
        ] {
            let tree = type_from_str(src).unwrap();
            let id = intern_type_str(&mut session, src).unwrap();
            assert_eq!(id, session.intern(&tree), "{src}");
        }
    }
}
