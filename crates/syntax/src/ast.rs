//! The surface abstract syntax tree.
//!
//! Surface types and expressions keep *unresolved* names: an uppercase
//! name application `Stream Int` may refer to a protocol, a datatype or a
//! type alias — resolution happens during elaboration (`algst-check`),
//! which has the full declaration table. Expressions and declarations
//! keep their source spans; types are shared nodes without spans (see
//! [`SType`]).

use crate::span::Span;
use algst_core::expr::Lit;
use algst_core::kind::Kind;
use algst_core::symbol::Symbol;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A parsed source file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    pub decls: Vec<Decl>,
}

/// A top-level declaration.
#[derive(Clone, Debug, PartialEq)]
pub enum Decl {
    /// `protocol P a b = C1 T… | C2 T…`
    Protocol(TypeDecl),
    /// `data D a b = C1 T… | C2 T…`
    Data(TypeDecl),
    /// `type A a b = T`
    Alias(AliasDecl),
    /// `f : T`
    Signature(SignatureDecl),
    /// `f p1 p2 … = e`
    Binding(BindingDecl),
}

impl Decl {
    pub fn span(&self) -> Span {
        match self {
            Decl::Protocol(d) | Decl::Data(d) => d.span,
            Decl::Alias(d) => d.span,
            Decl::Signature(d) => d.span,
            Decl::Binding(d) => d.span,
        }
    }
}

/// Shared shape of `protocol` and `data` declarations.
#[derive(Clone, Debug, PartialEq)]
pub struct TypeDecl {
    pub name: Symbol,
    pub params: Vec<Symbol>,
    pub ctors: Vec<CtorDecl>,
    pub span: Span,
}

#[derive(Clone, Debug, PartialEq)]
pub struct CtorDecl {
    pub name: Symbol,
    pub args: Vec<SType>,
    pub span: Span,
}

#[derive(Clone, Debug, PartialEq)]
pub struct AliasDecl {
    pub name: Symbol,
    pub params: Vec<Symbol>,
    pub body: SType,
    pub span: Span,
}

#[derive(Clone, Debug, PartialEq)]
pub struct SignatureDecl {
    pub name: Symbol,
    pub ty: SType,
    pub span: Span,
}

#[derive(Clone, Debug, PartialEq)]
pub struct BindingDecl {
    pub name: Symbol,
    pub params: Vec<Param>,
    pub body: SExpr,
    pub span: Span,
}

/// A parameter of a function equation: `x`, `_`, or a bracketed list of
/// type parameters `[s, t]` (paper notation `sendAst t [s] c = …`).
#[derive(Clone, Debug, PartialEq)]
pub enum Param {
    Term(Symbol),
    Wild,
    Types(Vec<Symbol>),
}

/// A surface type: a cheap handle to an immutable node. The parser
/// hash-conses within each parse, so every occurrence of one type in a
/// program is a single node — a clone is a reference-count bump, and
/// [`SType::as_ptr`] names a distinct type for the length of that
/// parse. Equality is structural (identical handles compare in O(1)).
/// Type nodes carry no span: diagnostics point at tokens and
/// declarations.
#[derive(Clone, PartialEq, Eq)]
pub struct SType(Arc<STypeNode>);

/// The shape of a surface type (see [`SType`]).
#[derive(Debug, PartialEq, Eq)]
pub enum STypeNode {
    Unit,
    /// Uppercase name, possibly applied: protocol, datatype, alias, or a
    /// builtin (`Int`, `Bool`, `Char`, `String`).
    Name(Symbol, Vec<SType>),
    /// Lowercase type variable.
    Var(Symbol),
    Arrow(SType, SType),
    Pair(SType, SType),
    Forall(Symbol, Kind, SType),
    /// `?T.S`
    In(SType, SType),
    /// `!T.S`
    Out(SType, SType),
    EndIn,
    EndOut,
    Dual(SType),
    /// `-T`
    Neg(SType),
}

impl SType {
    /// A new node of its own, shared with nothing built before it.
    pub fn new(node: STypeNode) -> SType {
        SType(Arc::new(node))
    }

    /// The node's address: the same for every handle to it.
    pub fn as_ptr(&self) -> *const STypeNode {
        Arc::as_ptr(&self.0)
    }

    /// Whether `self` and `other` are handles to one node.
    pub fn ptr_eq(&self, other: &SType) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for SType {
    type Target = STypeNode;

    fn deref(&self) -> &STypeNode {
        &self.0
    }
}

impl fmt::Debug for SType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Displays as parseable source. Delegates to the precedence-aware
/// printer ([`crate::printer::type_to_source`]); the old ad-hoc
/// parenthesizer emitted text that reparsed differently for arrows and
/// quantifiers in continuation position.
impl fmt::Display for SType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::type_to_source(self))
    }
}

/// Displays as parseable source (see [`crate::printer::expr_to_source`]).
impl fmt::Display for SExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::expr_to_source(self))
    }
}

/// Displays as one line of parseable source.
impl fmt::Display for Decl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::decl_to_source(self))
    }
}

/// Displays as parseable source, one declaration per line.
impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::program_to_source(self))
    }
}

/// A surface expression.
#[derive(Clone, Debug, PartialEq)]
pub enum SExpr {
    Lit(Lit, Span),
    /// Lowercase variable (or builtin / constant name, resolved later).
    Var(Symbol, Span),
    /// Uppercase name: a data constructor.
    Con(Symbol, Span),
    /// `select C`
    Select(Symbol, Span),
    App(Box<SExpr>, Box<SExpr>, Span),
    /// `e [T, U, …]`
    TApp(Box<SExpr>, Vec<SType>, Span),
    /// `\x y -> e`
    Lambda(Vec<Symbol>, Box<SExpr>, Span),
    /// Binary operator application, e.g. `x + y`.
    BinOp(Symbol, Box<SExpr>, Box<SExpr>, Span),
    Pair(Box<SExpr>, Box<SExpr>, Span),
    /// `let pat = e in e`
    Let(Pattern, Box<SExpr>, Box<SExpr>, Span),
    /// `case e of { … }` or `match e with { … }` — same construct, the
    /// scrutinee's type disambiguates (paper Section 5: the artifact
    /// overloads `case` as `match`).
    Case(Box<SExpr>, Vec<SArm>, Span),
    If(Box<SExpr>, Box<SExpr>, Box<SExpr>, Span),
}

impl SExpr {
    pub fn span(&self) -> Span {
        match self {
            SExpr::Lit(_, s)
            | SExpr::Var(_, s)
            | SExpr::Con(_, s)
            | SExpr::Select(_, s)
            | SExpr::App(_, _, s)
            | SExpr::TApp(_, _, s)
            | SExpr::Lambda(_, _, s)
            | SExpr::BinOp(_, _, _, s)
            | SExpr::Pair(_, _, s)
            | SExpr::Let(_, _, _, s)
            | SExpr::Case(_, _, s)
            | SExpr::If(_, _, _, s) => *s,
        }
    }
}

/// One arm of a `case`/`match`: `C x̄ -> e`.
#[derive(Clone, Debug, PartialEq)]
pub struct SArm {
    pub tag: Symbol,
    pub binders: Vec<Symbol>,
    pub body: SExpr,
    pub span: Span,
}

/// Patterns allowed on the left of `let` and in equation parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum Pattern {
    Var(Symbol),
    Pair(Symbol, Symbol),
    Unit,
    Wild,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stype_display() {
        let name = |n: &str, args| SType::new(STypeNode::Name(Symbol::intern(n), args));
        let t = SType::new(STypeNode::Out(
            name("Stream", vec![name("Int", vec![])]),
            SType::new(STypeNode::EndOut),
        ));
        assert_eq!(t.to_string(), "!(Stream Int).End!");
    }

    #[test]
    fn arrow_display_parenthesizes_domain() {
        let unit = || SType::new(STypeNode::Unit);
        let inner = SType::new(STypeNode::Arrow(unit(), unit()));
        let t = SType::new(STypeNode::Arrow(inner, unit()));
        assert_eq!(t.to_string(), "(Unit -> Unit) -> Unit");
    }

    #[test]
    fn equality_is_structural() {
        let unit = || SType::new(STypeNode::Unit);
        let (a, b) = (unit(), unit());
        assert!(!a.ptr_eq(&b));
        assert_eq!(a, b);
        assert_ne!(a, SType::new(STypeNode::EndIn));
    }
}
