//! The surface abstract syntax tree, stored flat.
//!
//! Surface types and expressions keep *unresolved* names: an uppercase
//! name application `Stream Int` may refer to a protocol, a datatype or a
//! type alias — resolution happens during elaboration (`algst-check`),
//! which has the full declaration table.
//!
//! Every [`Decl`] owns one [`Arena`] that holds its surface nodes, types
//! and expressions alike. A node names its children by `u32` ids into
//! the same arena ([`TyId`], [`ExprId`]), and a list of children — a
//! name's arguments, a type application's types, a case's arms — is a
//! range of a side vector. Types are hash-consed within their arena, so
//! a type written twice in one declaration is one node and one id.
//! Expressions and declarations keep their source spans; types carry
//! none (diagnostics point at tokens and declarations). A declaration
//! is self-contained: it can move into another [`Program`] with its
//! arena.

use crate::span::Span;
use algst_core::expr::Lit;
use algst_core::kind::Kind;
use algst_core::symbol::Symbol;
use std::fmt;

/// A parsed source file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    pub decls: Vec<Decl>,
}

/// A top-level declaration with the arena its nodes live in.
#[derive(Clone, Debug, PartialEq)]
pub struct Decl {
    pub kind: DeclKind,
    pub arena: Arena,
}

/// The shape of a top-level declaration; its ids point into the
/// declaration's [`Arena`].
#[derive(Clone, Debug, PartialEq)]
pub enum DeclKind {
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
        match &self.kind {
            DeclKind::Protocol(d) | DeclKind::Data(d) => d.span,
            DeclKind::Alias(d) => d.span,
            DeclKind::Signature(d) => d.span,
            DeclKind::Binding(d) => d.span,
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
    pub args: TyList,
    pub span: Span,
}

#[derive(Clone, Debug, PartialEq)]
pub struct AliasDecl {
    pub name: Symbol,
    pub params: Vec<Symbol>,
    pub body: TyId,
    pub span: Span,
}

#[derive(Clone, Debug, PartialEq)]
pub struct SignatureDecl {
    pub name: Symbol,
    pub ty: TyId,
    pub span: Span,
}

#[derive(Clone, Debug, PartialEq)]
pub struct BindingDecl {
    pub name: Symbol,
    pub params: Vec<Param>,
    pub body: ExprId,
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

/// A type in its [`Arena`]. Within one arena, equal ids are equal types.
/// The parser builds each distinct type of a declaration once, so among
/// its types distinct ids are distinct types too, but for the rare node
/// whose 64-bit key hash another node holds (it stays unshared).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TyId(u32);

/// An expression in its [`Arena`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ExprId(u32);

impl TyId {
    pub(crate) fn from_raw(id: u32) -> TyId {
        TyId(id)
    }

    /// The id's position in its arena: below [`Arena::len`], so a dense
    /// table indexed by it covers every type of the arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A range of an arena's side vector: the ids of a list of types.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TyList(ListRange);

/// A range of an arena's side vector: the arms of a `case`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Arms(ListRange);

/// A range of an arena's names: lambda parameters or arm binders.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Names(ListRange);

#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
struct ListRange {
    start: u32,
    len: u32,
}

impl ListRange {
    fn of(start: usize, end: usize) -> ListRange {
        ListRange {
            start: u32::try_from(start).expect("an arena list starts below u32::MAX"),
            len: u32::try_from(end - start).expect("an arena list is shorter than u32::MAX"),
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

impl TyList {
    pub fn len(self) -> usize {
        self.0.len as usize
    }

    pub fn is_empty(self) -> bool {
        self.0.len == 0
    }
}

impl Names {
    pub fn len(self) -> usize {
        self.0.len as usize
    }

    pub fn is_empty(self) -> bool {
        self.0.len == 0
    }
}

impl Arms {
    pub fn len(self) -> usize {
        self.0.len as usize
    }

    pub fn is_empty(self) -> bool {
        self.0.len == 0
    }
}

/// The shape of a surface type. Children are ids in the same arena.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SType {
    Unit,
    /// Uppercase name, possibly applied: protocol, datatype, alias, or a
    /// builtin (`Int`, `Bool`, `Char`, `String`).
    Name(Symbol, TyList),
    /// Lowercase type variable.
    Var(Symbol),
    Arrow(TyId, TyId),
    Pair(TyId, TyId),
    Forall(Symbol, Kind, TyId),
    /// `?T.S`
    In(TyId, TyId),
    /// `!T.S`
    Out(TyId, TyId),
    EndIn,
    EndOut,
    Dual(TyId),
    /// `-T`
    Neg(TyId),
}

/// A surface expression. Children are ids in the same arena.
#[derive(Clone, Debug, PartialEq)]
pub enum SExpr {
    Lit(Lit, Span),
    /// Lowercase variable (or builtin / constant name, resolved later).
    Var(Symbol, Span),
    /// Uppercase name: a data constructor.
    Con(Symbol, Span),
    /// `select C`
    Select(Symbol, Span),
    App(ExprId, ExprId, Span),
    /// `e [T, U, …]`
    TApp(ExprId, TyList, Span),
    /// `\x y -> e`
    Lambda(Names, ExprId, Span),
    /// Binary operator application, e.g. `x + y`.
    BinOp(Symbol, ExprId, ExprId, Span),
    Pair(ExprId, ExprId, Span),
    /// `let pat = e in e`
    Let(Pattern, ExprId, ExprId, Span),
    /// `case e of { … }` or `match e with { … }` — same construct, the
    /// scrutinee's type disambiguates (paper Section 5: the artifact
    /// overloads `case` as `match`).
    Case(ExprId, Arms, Span),
    If(ExprId, ExprId, ExprId, Span),
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
    pub binders: Names,
    pub body: ExprId,
    pub span: Span,
}

/// Patterns allowed on the left of `let` and in equation parameters.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Pattern {
    Var(Symbol),
    Pair(Symbol, Symbol),
    Unit,
    Wild,
}

/// A node of an arena.
#[derive(Clone, Debug, PartialEq)]
enum Node {
    Type(SType),
    Expr(SExpr),
    Arm(SArm),
}

/// The nodes of one declaration (or of one standalone type or
/// expression, see [`Tree`]), addressed by id.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Arena {
    nodes: Vec<Node>,
    /// Lists of node ids: names' arguments, type applications' types
    /// and cases' arms.
    lists: Vec<u32>,
    /// Lists of names: lambda parameters and arm binders.
    names: Vec<Symbol>,
}

impl Arena {
    /// Nodes in the arena: every id of it is below this.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The type `id` names.
    pub fn ty(&self, id: TyId) -> SType {
        match &self.nodes[id.index()] {
            Node::Type(t) => *t,
            other => unreachable!("type id names {other:?}"),
        }
    }

    /// The expression `id` names.
    pub fn expr(&self, id: ExprId) -> &SExpr {
        match &self.nodes[id.0 as usize] {
            Node::Expr(e) => e,
            other => unreachable!("expression id names {other:?}"),
        }
    }

    /// The expression `id` names, to rewrite in place.
    pub fn expr_mut(&mut self, id: ExprId) -> &mut SExpr {
        match &mut self.nodes[id.0 as usize] {
            Node::Expr(e) => e,
            other => unreachable!("expression id names {other:?}"),
        }
    }

    /// The types of `list`, in order.
    pub fn tys(&self, list: TyList) -> impl ExactSizeIterator<Item = TyId> + '_ {
        self.lists[list.0.range()].iter().map(|&id| TyId(id))
    }

    /// The arms of `list`, in order.
    pub fn arms(&self, list: Arms) -> impl ExactSizeIterator<Item = &SArm> + '_ {
        self.lists[list.0.range()]
            .iter()
            .map(|&id| match &self.nodes[id as usize] {
                Node::Arm(arm) => arm,
                other => unreachable!("arm id names {other:?}"),
            })
    }

    /// The names of `list`, in order.
    pub fn names(&self, list: Names) -> &[Symbol] {
        &self.names[list.0.range()]
    }

    /// The names of `list`, to rename in place.
    pub fn names_mut(&mut self, list: Names) -> &mut [Symbol] {
        &mut self.names[list.0.range()]
    }

    /// Appends `t` as a node of its own, shared with nothing already in
    /// the arena. Rewrites use it to build new types next to the old.
    pub fn push_ty(&mut self, t: SType) -> TyId {
        TyId(self.push(Node::Type(t)))
    }

    /// Appends a list of types.
    pub fn push_tys(&mut self, tys: impl IntoIterator<Item = TyId>) -> TyList {
        TyList(self.push_list(tys.into_iter().map(|t| t.0)))
    }

    pub(crate) fn push_expr(&mut self, e: SExpr) -> ExprId {
        ExprId(self.push(Node::Expr(e)))
    }

    /// Appends `arm` as a node; the id goes into its case's [`Arms`].
    pub(crate) fn push_arm(&mut self, arm: SArm) -> u32 {
        self.push(Node::Arm(arm))
    }

    /// Appends the arm ids `ids` as one case's arms.
    pub(crate) fn push_arms(&mut self, ids: impl IntoIterator<Item = u32>) -> Arms {
        Arms(self.push_list(ids))
    }

    pub(crate) fn push_name(&mut self, name: Symbol) {
        self.names.push(name);
    }

    /// Names pushed so far: where the next list of names starts.
    pub(crate) fn names_len(&self) -> usize {
        self.names.len()
    }

    /// The names pushed since there were `start`.
    pub(crate) fn names_since(&self, start: usize) -> Names {
        Names(ListRange::of(start, self.names.len()))
    }

    /// The raw ids of `list`.
    pub(crate) fn list_ids(&self, list: TyList) -> &[u32] {
        &self.lists[list.0.range()]
    }

    /// Makes room for `nodes` nodes, `lists` list entries and `names`
    /// names.
    pub(crate) fn reserve(&mut self, nodes: usize, lists: usize, names: usize) {
        self.nodes.reserve(nodes);
        self.lists.reserve(lists);
        self.names.reserve(names);
    }

    /// Moves the contents out into an arena of exactly their size,
    /// leaving `self` empty with its capacity.
    pub(crate) fn take_exact(&mut self) -> Arena {
        Arena {
            nodes: self.nodes.drain(..).collect(),
            lists: self.lists.drain(..).collect(),
            names: self.names.drain(..).collect(),
        }
    }

    fn push_list(&mut self, ids: impl IntoIterator<Item = u32>) -> ListRange {
        let start = self.lists.len();
        self.lists.extend(ids);
        ListRange::of(start, self.lists.len())
    }

    fn push(&mut self, node: Node) -> u32 {
        let id = u32::try_from(self.nodes.len()).expect("an arena holds fewer than u32::MAX nodes");
        self.nodes.push(node);
        id
    }
}

/// A standalone type or expression with the arena that holds it, as
/// [`parse_type`](crate::parse_type) and [`parse_expr`](crate::parse_expr)
/// return them.
#[derive(Clone, Debug, PartialEq)]
pub struct Tree<Id> {
    pub arena: Arena,
    pub root: Id,
}

impl Tree<TyId> {
    /// The root's shape.
    pub fn node(&self) -> SType {
        self.arena.ty(self.root)
    }
}

impl Tree<ExprId> {
    /// The root's shape.
    pub fn node(&self) -> &SExpr {
        self.arena.expr(self.root)
    }
}

/// Displays as parseable source (see [`crate::printer::type_to_source`]).
impl fmt::Display for Tree<TyId> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::type_to_source(&self.arena, self.root))
    }
}

/// Displays as parseable source (see [`crate::printer::expr_to_source`]).
impl fmt::Display for Tree<ExprId> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::expr_to_source(&self.arena, self.root))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(build: impl FnOnce(&mut Arena) -> TyId) -> Tree<TyId> {
        let mut arena = Arena::default();
        let root = build(&mut arena);
        Tree { arena, root }
    }

    #[test]
    fn stype_display() {
        let t = tree(|a| {
            let int = a.push_ty(SType::Name(Symbol::intern("Int"), TyList::default()));
            let args = a.push_tys([int]);
            let stream = a.push_ty(SType::Name(Symbol::intern("Stream"), args));
            let end = a.push_ty(SType::EndOut);
            a.push_ty(SType::Out(stream, end))
        });
        assert_eq!(t.to_string(), "!(Stream Int).End!");
    }

    #[test]
    fn arrow_display_parenthesizes_domain() {
        let t = tree(|a| {
            let unit = a.push_ty(SType::Unit);
            let inner = a.push_ty(SType::Arrow(unit, unit));
            a.push_ty(SType::Arrow(inner, unit))
        });
        assert_eq!(t.to_string(), "(Unit -> Unit) -> Unit");
    }

    #[test]
    fn equality_is_structural() {
        use crate::printer::ty_eq;
        let mut a = Arena::default();
        let (x, y) = (a.push_ty(SType::Unit), a.push_ty(SType::Unit));
        let end = a.push_ty(SType::EndIn);
        assert_ne!(x, y);
        assert!(ty_eq(&a, x, &a, y));
        assert!(!ty_eq(&a, x, &a, end));
        // Across arenas, by shape alone.
        let t = tree(|b| {
            b.push_ty(SType::EndOut);
            b.push_ty(SType::Unit)
        });
        assert!(ty_eq(&a, x, &t.arena, t.root));
    }
}
