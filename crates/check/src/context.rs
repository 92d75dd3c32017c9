//! Linear typing contexts with leftover threading (paper Section 4).
//!
//! Judgments have the shape `Δ | Γ₁ ⊢ e ⇒ T | Γ₂` where `Γ₂` is the part
//! of `Γ₁` *not consumed* by `e`. We implement the thread by mutating a
//! single [`Ctx`] in place: using a linear entry removes it; unrestricted
//! entries (`x :⋆ T`, used for recursive bindings, globals and builtins)
//! survive lookup.
//!
//! Entries are interned [`TypeId`]s in normal form, exactly what the
//! checker produces and consumes. Because ids are α-canonical,
//! comparing the outgoing contexts of branches ([`Ctx::same_linear`],
//! rule E-Match's `Γ₃ =α Γᵢ` side condition) is a per-entry integer
//! comparison, and cloning a context for a branch copies small ids.
//!
//! Ids are only meaningful in the session (and its siblings) that
//! created them. A `Ctx` never touches a store itself, except to
//! extract the types a branch-mismatch diagnostic shows, from the
//! `&mut Session` the caller passes in.

use crate::error::TypeError;
use algst_core::store::TypeId;
use algst_core::symbol::Symbol;
use algst_core::Session;

/// How an entry may be used.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Usage {
    /// `x : T` — must be consumed exactly once.
    Linear,
    /// `x :⋆ T` — may be used any number of times (rule E-Var⋆).
    Unrestricted,
}

/// One context entry.
#[derive(Copy, Clone, Debug)]
pub struct Entry {
    pub name: Symbol,
    /// The entry's type, interned in the thread-shared store.
    pub ty: TypeId,
    pub usage: Usage,
}

/// A typing context `Γ`. Entries form a stack; lookup finds the most
/// recent binding, so local shadowing behaves as expected.
#[derive(Clone, Debug, Default)]
pub struct Ctx {
    entries: Vec<Entry>,
}

impl Ctx {
    pub fn new() -> Ctx {
        Ctx::default()
    }

    pub fn push_linear(&mut self, name: Symbol, ty: TypeId) {
        self.entries.push(Entry {
            name,
            ty,
            usage: Usage::Linear,
        });
    }

    pub fn push_unrestricted(&mut self, name: Symbol, ty: TypeId) {
        self.entries.push(Entry {
            name,
            ty,
            usage: Usage::Unrestricted,
        });
    }

    /// Looks up `name`, applying the use discipline: a linear entry is
    /// removed (consumed, rule E-Var); an unrestricted entry is kept
    /// (rule E-Var⋆).
    pub fn use_var(&mut self, name: Symbol) -> Option<TypeId> {
        let ix = self.entries.iter().rposition(|e| e.name == name)?;
        match self.entries[ix].usage {
            Usage::Linear => Some(self.entries.remove(ix).ty),
            Usage::Unrestricted => Some(self.entries[ix].ty),
        }
    }

    /// True if `name` is still present (most recent binding).
    pub fn contains(&self, name: Symbol) -> bool {
        self.entries.iter().any(|e| e.name == name)
    }

    /// Removes the most recent entry for `name`, regardless of usage.
    /// Used to pop unrestricted binders at scope exit.
    pub fn remove(&mut self, name: Symbol) -> Option<Entry> {
        let ix = self.entries.iter().rposition(|e| e.name == name)?;
        Some(self.entries.remove(ix))
    }

    /// Checks the side condition `x ∉ Γ₂` of the binder rules: after the
    /// body of a `λ`/`let`/`match` the bound linear variable must be gone.
    /// Removes leftover *unrestricted* entries silently (they are scoped).
    pub fn expect_consumed(&mut self, name: Symbol) -> Result<(), TypeError> {
        if let Some(ix) = self.entries.iter().rposition(|e| e.name == name) {
            match self.entries[ix].usage {
                Usage::Linear => return Err(TypeError::UnusedLinear(name)),
                Usage::Unrestricted => {
                    self.entries.remove(ix);
                }
            }
        }
        Ok(())
    }

    /// A stable fingerprint of the linear entries, used to compare the
    /// outgoing contexts of `match`/`if` branches (rule E-Match requires
    /// `Γ₃ =α Γᵢ`) and to enforce E-Rec's "no linear captures".
    pub fn linear_names(&self) -> Vec<Symbol> {
        self.entries
            .iter()
            .filter(|e| e.usage == Usage::Linear)
            .map(|e| e.name)
            .collect()
    }

    /// Compares the linear parts of two contexts. Entry types are
    /// α-canonical ids, so the whole comparison is name + integer
    /// equality per entry — O(1) per entry, no tree traversal. Reports a
    /// human-readable diff on mismatch (`s` only extracts types for the
    /// diagnostic; the comparison itself never touches the store).
    pub fn same_linear(&self, other: &Ctx, s: &mut Session) -> Result<(), String> {
        let a = self.linear_entries();
        let b = other.linear_entries();
        if a.len() != b.len() {
            return Err(diff_message(s, &a, &b));
        }
        for (ea, eb) in a.iter().zip(&b) {
            if ea.name != eb.name || ea.ty != eb.ty {
                return Err(diff_message(s, &a, &b));
            }
        }
        Ok(())
    }

    fn linear_entries(&self) -> Vec<&Entry> {
        self.entries
            .iter()
            .filter(|e| e.usage == Usage::Linear)
            .collect()
    }
}

fn diff_message(s: &mut Session, a: &[&Entry], b: &[&Entry]) -> String {
    let mut show = |es: &[&Entry]| {
        if es.is_empty() {
            "(none)".to_owned()
        } else {
            es.iter()
                .map(|e| format!("{}: {}", e.name, s.extract(e.ty)))
                .collect::<Vec<_>>()
                .join(", ")
        }
    };
    let left = show(a);
    format!("one branch leaves [{left}], another [{}]", show(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use algst_core::types::Type;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn linear_use_consumes() {
        let mut s = Session::new();
        let mut ctx = Ctx::new();
        ctx.push_linear(sym("c"), s.intern(&Type::EndOut));
        assert!(ctx.use_var(sym("c")).is_some());
        assert!(ctx.use_var(sym("c")).is_none());
    }

    #[test]
    fn unrestricted_use_persists() {
        let mut s = Session::new();
        let mut ctx = Ctx::new();
        ctx.push_unrestricted(sym("f"), s.intern(&Type::arrow(Type::Unit, Type::Unit)));
        assert!(ctx.use_var(sym("f")).is_some());
        assert!(ctx.use_var(sym("f")).is_some());
    }

    #[test]
    fn shadowing_uses_innermost() {
        let mut s = Session::new();
        let mut ctx = Ctx::new();
        ctx.push_linear(sym("x"), s.intern(&Type::int()));
        ctx.push_linear(sym("x"), s.intern(&Type::bool()));
        let t = ctx.use_var(sym("x")).unwrap();
        assert_eq!(s.extract(t), Type::bool());
        let t = ctx.use_var(sym("x")).unwrap();
        assert_eq!(s.extract(t), Type::int());
    }

    #[test]
    fn expect_consumed_flags_leftover_linear() {
        let mut s = Session::new();
        let mut ctx = Ctx::new();
        ctx.push_linear(sym("c"), s.intern(&Type::EndOut));
        assert!(matches!(
            ctx.expect_consumed(sym("c")),
            Err(TypeError::UnusedLinear(_))
        ));
        // Unrestricted leftovers are popped silently.
        let mut ctx = Ctx::new();
        ctx.push_unrestricted(sym("g"), s.intern(&Type::Unit));
        ctx.expect_consumed(sym("g")).unwrap();
        assert!(!ctx.contains(sym("g")));
    }

    #[test]
    fn same_linear_ignores_unrestricted() {
        let mut s = Session::new();
        let mut a = Ctx::new();
        a.push_unrestricted(sym("f"), s.intern(&Type::Unit));
        a.push_linear(sym("c"), s.intern(&Type::EndIn));
        let mut b = Ctx::new();
        b.push_linear(sym("c"), s.intern(&Type::EndIn));
        a.same_linear(&b, &mut s).unwrap();
        b.use_var(sym("c"));
        assert!(a.same_linear(&b, &mut s).is_err());
    }

    #[test]
    fn same_linear_is_alpha_insensitive() {
        use algst_core::kind::Kind;
        // Entries interned to the same id despite different binder names.
        let mut s = Session::new();
        let mut a = Ctx::new();
        a.push_linear(
            sym("h"),
            s.intern(&Type::forall("x", Kind::Session, Type::var("x"))),
        );
        let mut b = Ctx::new();
        b.push_linear(
            sym("h"),
            s.intern(&Type::forall("y", Kind::Session, Type::var("y"))),
        );
        a.same_linear(&b, &mut s).unwrap();
    }
}
