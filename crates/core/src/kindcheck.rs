//! Algorithmic type formation (paper Fig. 1).
//!
//! The judgment `Δ ⊢ T ⇒ κ` *synthesizes* the minimal kind of `T`; the
//! judgment `Δ ⊢ T ⇐ κ` checks that the synthesized kind is a subkind of
//! the expected one (rule T-Sub).

use crate::kind::Kind;
use crate::protocol::Declarations;
use crate::store::{MixState, NodeRead, TNode, TypeId};
use crate::symbol::Symbol;
use crate::types::Type;
use std::collections::HashMap;
use std::fmt;

/// A kind-checking error, pointing at the offending subterm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KindError {
    UnboundVar(Symbol),
    UnboundProtocol(Symbol),
    UnboundData(Symbol),
    ArityMismatch {
        name: Symbol,
        expected: usize,
        found: usize,
    },
    /// `Δ ⊢ T ⇒ κ` but `κ ≰ κ'`.
    NotSubkind {
        ty: Type,
        found: Kind,
        expected: Kind,
    },
}

impl fmt::Display for KindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KindError::UnboundVar(v) => write!(f, "unbound type variable {v}"),
            KindError::UnboundProtocol(p) => write!(f, "unbound protocol {p}"),
            KindError::UnboundData(d) => write!(f, "unbound datatype {d}"),
            KindError::ArityMismatch {
                name,
                expected,
                found,
            } => write!(f, "{name} expects {expected} argument(s) but got {found}"),
            KindError::NotSubkind {
                ty,
                found,
                expected,
            } => write!(
                f,
                "type {ty} has kind {found}, which is not a subkind of the expected {expected}"
            ),
        }
    }
}

impl std::error::Error for KindError {}

/// A kind context `Δ`: global declarations plus a scoped stack of type
/// variable bindings `α : κ`.
#[derive(Clone)]
pub struct KindCtx<'d> {
    decls: &'d Declarations,
    vars: Vec<(Symbol, Kind)>,
    /// The kinds the id judgments synthesized under this `Δ`, for ids
    /// outside every binder: each distinct type is walked once, however
    /// often a spine's type applications restate it. Only successes are
    /// kept, and changing `Δ` clears it.
    kinds: HashMap<TypeId, Kind, MixState>,
    /// Nodes the id judgments have visited, memo hits included.
    #[cfg(test)]
    visits: u64,
}

impl<'d> KindCtx<'d> {
    pub fn new(decls: &'d Declarations) -> KindCtx<'d> {
        KindCtx {
            decls,
            vars: Vec::new(),
            kinds: HashMap::default(),
            #[cfg(test)]
            visits: 0,
        }
    }

    pub fn decls(&self) -> &'d Declarations {
        self.decls
    }

    pub fn push_var(&mut self, var: Symbol, kind: Kind) {
        self.vars.push((var, kind));
        self.kinds.clear();
    }

    pub fn pop_var(&mut self) {
        self.vars.pop();
        self.kinds.clear();
    }

    pub fn lookup_var(&self, var: Symbol) -> Option<Kind> {
        self.vars
            .iter()
            .rev()
            .find(|(v, _)| *v == var)
            .map(|(_, k)| *k)
    }

    /// Runs `f` with `var : kind` in scope.
    pub fn with_var<R>(&mut self, var: Symbol, kind: Kind, f: impl FnOnce(&mut Self) -> R) -> R {
        self.push_var(var, kind);
        let r = f(self);
        self.pop_var();
        r
    }

    /// `Δ ⊢ T ⇒ κ`: synthesizes the minimal kind of `T`.
    pub fn synth(&mut self, ty: &Type) -> Result<Kind, KindError> {
        match ty {
            // T-Unit (and base types, by extension)
            Type::Unit | Type::Base(_) => Ok(Kind::Value),
            // T-Arrow
            Type::Arrow(a, b) => {
                self.check(a, Kind::Value)?;
                self.check(b, Kind::Value)?;
                Ok(Kind::Value)
            }
            // T-Pair
            Type::Pair(a, b) => {
                self.check(a, Kind::Value)?;
                self.check(b, Kind::Value)?;
                Ok(Kind::Value)
            }
            // T-Poly
            Type::Forall(v, k, body) => {
                self.with_var(*v, *k, |ctx| ctx.check(body, Kind::Value))?;
                Ok(Kind::Value)
            }
            // T-Var
            Type::Var(v) => self.lookup_var(*v).ok_or(KindError::UnboundVar(*v)),
            // T-In / T-Out
            Type::In(p, s) | Type::Out(p, s) => {
                self.check(p, Kind::Protocol)?;
                self.check(s, Kind::Session)?;
                Ok(Kind::Session)
            }
            // T-End? / T-End!
            Type::EndIn | Type::EndOut => Ok(Kind::Session),
            // T-Dual
            Type::Dual(s) => {
                self.check(s, Kind::Session)?;
                Ok(Kind::Session)
            }
            // T-Protocol
            Type::Proto(name, args) => {
                let decl = self
                    .decls
                    .protocol(*name)
                    .ok_or(KindError::UnboundProtocol(*name))?;
                if decl.params.len() != args.len() {
                    return Err(KindError::ArityMismatch {
                        name: *name,
                        expected: decl.params.len(),
                        found: args.len(),
                    });
                }
                for a in args {
                    self.check(a, Kind::Protocol)?;
                }
                Ok(Kind::Protocol)
            }
            // T-MsgNeg
            Type::Neg(t) => {
                self.check(t, Kind::Protocol)?;
                Ok(Kind::Protocol)
            }
            // Datatypes (extension): kind T, arguments of kind T.
            Type::Data(name, args) => {
                let decl = self
                    .decls
                    .data(*name)
                    .ok_or(KindError::UnboundData(*name))?;
                if decl.params.len() != args.len() {
                    return Err(KindError::ArityMismatch {
                        name: *name,
                        expected: decl.params.len(),
                        found: args.len(),
                    });
                }
                for a in args {
                    self.check(a, Kind::Value)?;
                }
                Ok(Kind::Value)
            }
        }
    }

    /// `Δ ⊢ T ⇐ κ`: checks `T` against an expected kind (rule T-Sub).
    pub fn check(&mut self, ty: &Type, expected: Kind) -> Result<(), KindError> {
        let found = self.synth(ty)?;
        if found.is_subkind_of(expected) {
            Ok(())
        } else {
            Err(KindError::NotSubkind {
                ty: ty.clone(),
                found,
                expected,
            })
        }
    }

    /// `Δ ⊢ T ⇒ κ` on an interned id: the same judgment as
    /// [`KindCtx::synth`], but walking [`TNode`]s directly. Binder kinds
    /// of the nameless `∀`s are tracked in a de-Bruijn stack; free
    /// variables resolve through the named bindings of this context.
    /// `id` must be binder-closed. On failure the tree judgment runs on
    /// the extracted type, so the error names the offending subterm with
    /// the binder names it was written with. Kinds found are memoized by
    /// id until `Δ` changes, so every call on a context must read one
    /// store (and one epoch of it).
    pub fn synth_id<S: NodeRead>(&mut self, store: &S, id: TypeId) -> Result<Kind, KindError> {
        let mut bound = Vec::new();
        self.synth_id_under(store, id, &mut bound)
            .map_err(|e| self.synth(&store.extract(id)).err().unwrap_or(e))
    }

    /// [`KindCtx::synth_id`] `bound.len()` binders deep, memoized
    /// outside every binder.
    fn synth_id_under<S: NodeRead>(
        &mut self,
        store: &S,
        id: TypeId,
        bound: &mut Vec<Kind>,
    ) -> Result<Kind, KindError> {
        #[cfg(test)]
        {
            self.visits += 1;
        }
        if !bound.is_empty() {
            return self.synth_node(store, id, bound);
        }
        if let Some(&k) = self.kinds.get(&id) {
            return Ok(k);
        }
        let k = self.synth_node(store, id, bound)?;
        self.kinds.insert(id, k);
        Ok(k)
    }

    fn synth_node<S: NodeRead>(
        &mut self,
        store: &S,
        id: TypeId,
        bound: &mut Vec<Kind>,
    ) -> Result<Kind, KindError> {
        match store.node(id) {
            TNode::Unit | TNode::Base(_) => Ok(Kind::Value),
            TNode::Arrow(a, b) | TNode::Pair(a, b) => {
                self.check_id_under(store, *a, Kind::Value, bound)?;
                self.check_id_under(store, *b, Kind::Value, bound)?;
                Ok(Kind::Value)
            }
            TNode::Forall(k, body) => {
                bound.push(*k);
                let r = self.check_id_under(store, *body, Kind::Value, bound);
                bound.pop();
                r?;
                Ok(Kind::Value)
            }
            TNode::Free(v) => self.lookup_var(*v).ok_or(KindError::UnboundVar(*v)),
            TNode::Bound(i) => Ok(bound[bound.len() - 1 - *i as usize]),
            TNode::In(p, s) | TNode::Out(p, s) => {
                self.check_id_under(store, *p, Kind::Protocol, bound)?;
                self.check_id_under(store, *s, Kind::Session, bound)?;
                Ok(Kind::Session)
            }
            TNode::EndIn | TNode::EndOut => Ok(Kind::Session),
            TNode::Dual(s) => {
                self.check_id_under(store, *s, Kind::Session, bound)?;
                Ok(Kind::Session)
            }
            TNode::Proto(name, args) => {
                let decl = self
                    .decls
                    .protocol(*name)
                    .ok_or(KindError::UnboundProtocol(*name))?;
                if decl.params.len() != args.len() {
                    return Err(KindError::ArityMismatch {
                        name: *name,
                        expected: decl.params.len(),
                        found: args.len(),
                    });
                }
                for &a in args {
                    self.check_id_under(store, a, Kind::Protocol, bound)?;
                }
                Ok(Kind::Protocol)
            }
            TNode::Neg(t) => {
                self.check_id_under(store, *t, Kind::Protocol, bound)?;
                Ok(Kind::Protocol)
            }
            TNode::Data(name, args) => {
                let decl = self
                    .decls
                    .data(*name)
                    .ok_or(KindError::UnboundData(*name))?;
                if decl.params.len() != args.len() {
                    return Err(KindError::ArityMismatch {
                        name: *name,
                        expected: decl.params.len(),
                        found: args.len(),
                    });
                }
                for &a in args {
                    self.check_id_under(store, a, Kind::Value, bound)?;
                }
                Ok(Kind::Value)
            }
        }
    }

    /// `Δ ⊢ T ⇐ κ` on an interned id (rule T-Sub), with errors named as
    /// in [`KindCtx::synth_id`].
    pub fn check_id<S: NodeRead>(
        &mut self,
        store: &S,
        id: TypeId,
        expected: Kind,
    ) -> Result<(), KindError> {
        let mut bound = Vec::new();
        self.check_id_under(store, id, expected, &mut bound)
            .map_err(|e| self.check(&store.extract(id), expected).err().unwrap_or(e))
    }

    fn check_id_under<S: NodeRead>(
        &mut self,
        store: &S,
        id: TypeId,
        expected: Kind,
        bound: &mut Vec<Kind>,
    ) -> Result<(), KindError> {
        let found = self.synth_id_under(store, id, bound)?;
        if found.is_subkind_of(expected) {
            Ok(())
        } else {
            // A subterm under a binder cannot be extracted on its own;
            // the public entry points re-derive the error from the tree.
            Err(KindError::NotSubkind {
                ty: Type::Unit,
                found,
                expected,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Ctor, ProtocolDecl};
    use crate::store::TypeStore;

    fn decls_with_stream() -> Declarations {
        let mut d = Declarations::new();
        d.add_protocol(ProtocolDecl {
            name: Symbol::intern("StreamK"),
            params: vec![Symbol::intern("a")],
            ctors: vec![Ctor::new(
                "NextK",
                vec![Type::var("a"), Type::proto("StreamK", vec![Type::var("a")])],
            )],
        })
        .unwrap();
        d.validate().unwrap();
        d
    }

    /// A spine `sendInt [T₁] … |> sendInt [T₂] …` restates each
    /// continuation: kind-checking the n suffixes of an n-message
    /// protocol walks each node once, not O(n²) nodes.
    #[test]
    fn restated_continuations_are_walked_once() {
        let d = Declarations::new();
        let visits = |n: usize| {
            let mut s = TypeStore::new();
            let mut suffixes = vec![s.intern(&Type::EndOut)];
            for _ in 0..n {
                let t = s.intern(&Type::output(Type::int(), s.extract(suffixes[0])));
                suffixes.insert(0, t);
            }
            let mut ctx = KindCtx::new(&d);
            for &t in &suffixes {
                ctx.check_id(&s, t, Kind::Session).unwrap();
            }
            ctx.visits
        };
        let (n, twice) = (visits(40), visits(80));
        assert!(
            twice <= 2 * n + 4,
            "{n} visits for 40 messages, {twice} for 80"
        );
    }

    #[test]
    fn unit_has_kind_value() {
        let d = Declarations::new();
        let mut ctx = KindCtx::new(&d);
        assert_eq!(ctx.synth(&Type::Unit).unwrap(), Kind::Value);
        // and checks against P by subsumption
        ctx.check(&Type::Unit, Kind::Protocol).unwrap();
        assert!(ctx.check(&Type::Unit, Kind::Session).is_err());
    }

    #[test]
    fn session_types_synthesize_session() {
        let d = decls_with_stream();
        let mut ctx = KindCtx::new(&d);
        let t = Type::output(Type::proto("StreamK", vec![Type::int()]), Type::EndOut);
        assert_eq!(ctx.synth(&t).unwrap(), Kind::Session);
    }

    #[test]
    fn message_payload_must_be_protocol_kinded() {
        // Everything lifts into P, so even a function type is fine as a
        // payload; but a payload with an unbound protocol is not.
        let d = Declarations::new();
        let mut ctx = KindCtx::new(&d);
        let ok = Type::output(Type::arrow(Type::int(), Type::int()), Type::EndIn);
        assert_eq!(ctx.synth(&ok).unwrap(), Kind::Session);
        let bad = Type::output(Type::proto("Nope", vec![]), Type::EndIn);
        assert!(matches!(
            ctx.synth(&bad),
            Err(KindError::UnboundProtocol(_))
        ));
    }

    #[test]
    fn continuation_must_be_session() {
        let d = Declarations::new();
        let mut ctx = KindCtx::new(&d);
        let bad = Type::output(Type::int(), Type::int());
        assert!(matches!(ctx.synth(&bad), Err(KindError::NotSubkind { .. })));
    }

    #[test]
    fn neg_requires_protocol_kind_argument() {
        let d = Declarations::new();
        let mut ctx = KindCtx::new(&d);
        // -Int is fine (Int lifts to P); kind is P.
        assert_eq!(ctx.synth(&Type::neg(Type::int())).unwrap(), Kind::Protocol);
        // But -T cannot be used where a session is expected.
        assert!(ctx.check(&Type::neg(Type::int()), Kind::Session).is_err());
    }

    #[test]
    fn dual_requires_session() {
        let d = Declarations::new();
        let mut ctx = KindCtx::new(&d);
        assert!(ctx.synth(&Type::dual(Type::int())).is_err());
        assert_eq!(ctx.synth(&Type::dual(Type::EndIn)).unwrap(), Kind::Session);
    }

    #[test]
    fn protocol_arity_checked() {
        let d = decls_with_stream();
        let mut ctx = KindCtx::new(&d);
        let bad = Type::proto("StreamK", vec![]);
        assert!(matches!(
            ctx.synth(&bad),
            Err(KindError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn forall_scopes_variables() {
        let d = Declarations::new();
        let mut ctx = KindCtx::new(&d);
        let t = Type::forall(
            "s",
            Kind::Session,
            Type::arrow(Type::var("s"), Type::var("s")),
        );
        assert_eq!(ctx.synth(&t).unwrap(), Kind::Value);
        // Variable escapes its scope:
        assert!(ctx.synth(&Type::var("s")).is_err());
    }

    #[test]
    fn id_level_kind_checking_agrees_with_trees() {
        let d = decls_with_stream();
        let mut ctx = KindCtx::new(&d);
        let mut store = TypeStore::new();
        let samples = [
            Type::forall(
                "s",
                Kind::Session,
                Type::output(Type::proto("StreamK", vec![Type::int()]), Type::var("s")),
            ),
            Type::neg(Type::int()),
            Type::input(Type::arrow(Type::int(), Type::int()), Type::EndIn),
        ];
        for t in samples {
            let id = store.intern(&t);
            assert_eq!(
                ctx.synth_id(&store, id).unwrap(),
                ctx.synth(&t).unwrap(),
                "kind mismatch on {t}"
            );
        }
        // Errors agree too: Dual of a non-session, unbound names.
        let bad = store.intern(&Type::dual(Type::int()));
        assert!(matches!(
            ctx.synth_id(&store, bad),
            Err(KindError::NotSubkind { .. })
        ));
        let unbound = store.intern(&Type::var("loose"));
        assert!(matches!(
            ctx.synth_id(&store, unbound),
            Err(KindError::UnboundVar(_))
        ));
    }

    #[test]
    fn paper_example_stack_formation() {
        // Example 1 (supplement C): protocol Stack a = Pop -a | Push a (Stack a) (Stack a)
        let mut d = Declarations::new();
        d.add_protocol(ProtocolDecl {
            name: Symbol::intern("StackK"),
            params: vec![Symbol::intern("a")],
            ctors: vec![
                Ctor::new("PopK", vec![Type::neg(Type::var("a"))]),
                Ctor::new(
                    "PushK",
                    vec![
                        Type::var("a"),
                        Type::proto("StackK", vec![Type::var("a")]),
                        Type::proto("StackK", vec![Type::var("a")]),
                    ],
                ),
            ],
        })
        .unwrap();
        d.validate().unwrap();
    }
}
