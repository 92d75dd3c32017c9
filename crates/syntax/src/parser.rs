//! Recursive-descent parser for the AlgST surface language.
//!
//! The concrete syntax follows the paper's examples (Haskell-flavoured):
//!
//! ```text
//! protocol Arith = Neg Int -Int | Add Int Int -Int
//! type Service a = forall (s:S). ?a.s -> s
//!
//! serveArith : forall (s:S). ?Arith.s -> s
//! serveArith [s] c = match c with {
//!   Neg c -> let (x, c) = receive [Int, !Int.s] c in
//!            send [Int, s] (0 - x) c,
//!   Add c -> let (x, c) = receive [Int, ?Int.!Int.s] c in
//!            let (y, c) = receive [Int, !Int.s] c in
//!            send [Int, s] (x + y) c }
//! ```
//!
//! **Layout rule:** a top-level declaration starts at column 1; any token
//! at column 1 terminates the expression or type being parsed. This
//! replaces Haskell's layout algorithm with the one convention the paper's
//! examples already follow.
//!
//! The parser pulls tokens from the lexer one at a time and keeps only
//! the current one and the span of the one before. Each declaration's
//! nodes are built in one scratch [`Arena`] and moved out at the
//! declaration's end into an arena of exactly their size. A lex error
//! anywhere in the source wins over a parse error, as if the whole
//! source had been lexed first: on a parse error the parser lexes the
//! rest of the source before it reports.

use crate::ast::*;
use crate::lexer::{LexError, Lexer};
use crate::span::Span;
use crate::token::{Tok, Token};
use algst_core::expr::Lit;
use algst_core::kind::Kind;
use algst_core::store::{MixHasher, MixState};
use algst_core::symbol::Symbol;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};

/// A parse error with location information.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            message: e.message,
            span: e.span,
        }
    }
}

type PResult<T> = Result<T, ParseError>;

/// Parses a full program (a sequence of declarations).
pub fn parse_program(src: &str) -> PResult<Program> {
    let mut p = Parser::new(src);
    p.surface.reserve();
    let parsed = p.program();
    p.finish(parsed)
}

/// Parses a single type, e.g. for tests and tooling. Repeated subtypes
/// are one node, as in each declaration of [`parse_program`].
pub fn parse_type(src: &str) -> PResult<Tree<TyId>> {
    let mut surface = Surface::default();
    let root = parse_type_with(src, &mut surface)?;
    Ok(Tree {
        arena: surface.arena,
        root,
    })
}

/// Parses a single type with `builder` building each node as the parser
/// recognises it — the same grammar and errors as [`parse_type`],
/// without an intermediate arena unless the builder makes one.
pub fn parse_type_with<B: TypeBuilder>(src: &str, builder: &mut B) -> PResult<B::Out> {
    let mut p = Parser::new(src);
    let parsed = p.ty(builder).and_then(|t| {
        let t = t.build(builder);
        p.expect_eof().map(|()| t)
    });
    p.finish(parsed)
}

/// Parses a single expression.
pub fn parse_expr(src: &str) -> PResult<Tree<ExprId>> {
    let mut p = Parser::new(src);
    let parsed = p.expr().and_then(|(root, _)| {
        p.expect_eof()?;
        Ok(Tree {
            arena: p.surface.arena.take_exact(),
            root,
        })
    });
    p.finish(parsed)
}

/// How deeply a type may nest. Every type constructor and every pair of
/// parentheses opens one level, so `Dual (Dual (End!))` is 4 deep. Each
/// level costs a bounded number of stack frames here and in every later
/// pass over the type (interning, normalization, checking, printing);
/// the bound keeps a hostile string from overflowing a thread's stack.
pub const MAX_TYPE_DEPTH: usize = 2048;

/// How deeply an expression may nest: the height of the tree the parser
/// builds, where every node is one level above its tallest child —
/// application and operator spines, `let` and lambda bodies included —
/// and every pair of parentheses opens one more. Elaboration, checking
/// and evaluation recurse along that tree; the bound keeps a hostile
/// program from overflowing a thread's stack.
pub const MAX_EXPR_DEPTH: usize = 2048;

/// An expression with the height of its tree (see [`MAX_EXPR_DEPTH`]).
type Node = (ExprId, usize);

/// What the type productions build, one call per recognised node.
/// Children are built before their parent, in source order.
///
/// Uppercase names are left unresolved: [`TypeBuilder::name`] receives
/// every applied or bare name except `Unit`, and the builder decides what
/// it denotes.
pub trait TypeBuilder {
    type Out;

    /// `Unit`
    fn unit(&mut self) -> Self::Out;
    /// An uppercase name with its arguments (possibly none).
    fn name(&mut self, name: Symbol, args: Vec<Self::Out>) -> Self::Out;
    /// A lowercase type variable.
    fn var(&mut self, var: Symbol) -> Self::Out;
    /// `T -> U`
    fn arrow(&mut self, dom: Self::Out, cod: Self::Out) -> Self::Out;
    /// `(T, U)`
    fn pair(&mut self, fst: Self::Out, snd: Self::Out) -> Self::Out;
    /// Entering the body of `forall (var:κ).`; the matching
    /// [`TypeBuilder::forall`] call leaves it. Builders that resolve
    /// variables against their binders track the scope here.
    fn bind(&mut self, _var: Symbol) {}
    /// `forall (var:kind). body`
    fn forall(&mut self, var: Symbol, kind: Kind, body: Self::Out) -> Self::Out;
    /// `?T.S`
    fn input(&mut self, payload: Self::Out, cont: Self::Out) -> Self::Out;
    /// `!T.S`
    fn output(&mut self, payload: Self::Out, cont: Self::Out) -> Self::Out;
    /// `End?`
    fn end_in(&mut self) -> Self::Out;
    /// `End!`
    fn end_out(&mut self) -> Self::Out;
    /// `Dual S`
    fn dual(&mut self, s: Self::Out) -> Self::Out;
    /// `-T`
    fn neg(&mut self, t: Self::Out) -> Self::Out;
}

/// The arena under construction and the [`TypeBuilder`] of its types.
/// Types are hash-consed within the arena: a node is keyed by its kind,
/// its names and the ids of its children, which are already shared, so
/// a type written twice — every explicit type application restates the
/// rest of a protocol — is built once and its id handed out again.
#[derive(Default)]
struct Surface {
    arena: Arena,
    /// The id built for each key, by the key's hash. A node whose hash
    /// is taken by a different node stays unshared.
    types: HashMap<u64, TyId, MixState>,
    /// Hashes the keys.
    seed: MixState,
    /// Ids of the lists being parsed — the types of type applications
    /// and the arms of cases, innermost last — until each list is
    /// complete and moves into the arena in one piece.
    pending: Vec<u32>,
}

impl Surface {
    /// The id of `node` — for a name, with the arguments `args` in place
    /// of its (empty) list — added to the arena unless it is there.
    fn share(&mut self, node: SType, args: &[TyId]) -> TyId {
        use SType::*;
        let mut h = self.seed.build_hasher();
        let child = |h: &mut MixHasher, t: TyId| h.write_u32(t.index() as u32);
        std::mem::discriminant(&node).hash(&mut h);
        match node {
            Unit | EndIn | EndOut => {}
            Name(name, _) => {
                name.hash(&mut h);
                args.iter().for_each(|&a| child(&mut h, a));
            }
            Var(v) => v.hash(&mut h),
            Arrow(a, b) | Pair(a, b) | In(a, b) | Out(a, b) => {
                child(&mut h, a);
                child(&mut h, b);
            }
            Forall(v, k, body) => {
                v.hash(&mut h);
                k.hash(&mut h);
                child(&mut h, body);
            }
            Dual(t) | Neg(t) => child(&mut h, t),
        }
        let arena = &mut self.arena;
        match self.types.entry(h.finish()) {
            Entry::Occupied(e) if same_node(arena, arena.ty(*e.get()), node, args) => *e.get(),
            Entry::Occupied(_) => push_node(arena, node, args),
            Entry::Vacant(e) => *e.insert(push_node(arena, node, args)),
        }
    }

    /// Sizes the scratch space for a module's declarations at once, so
    /// that it seldom grows: most declarations of a generated module
    /// have fewer than 32 nodes, and few more than 256.
    fn reserve(&mut self) {
        self.arena.reserve(256, 64, 16);
        self.types.reserve(64);
        self.pending.reserve(32);
    }

    /// Moves the finished declaration's nodes out and starts the next
    /// declaration's arena, keeping the scratch capacity.
    fn finish(&mut self) -> Arena {
        self.types.clear();
        self.arena.take_exact()
    }
}

/// Appends `node`, a name with the arguments `args` or any other node,
/// to `arena` as a node of its own.
fn push_node(arena: &mut Arena, node: SType, args: &[TyId]) -> TyId {
    match node {
        SType::Name(name, _) => {
            let args = arena.push_tys(args.iter().copied());
            arena.push_ty(SType::Name(name, args))
        }
        other => arena.push_ty(other),
    }
}

/// `old` (in `arena`) and `new`, with the name arguments `args`, have
/// the same kind, names and children.
fn same_node(arena: &Arena, old: SType, new: SType, args: &[TyId]) -> bool {
    use SType::*;
    match (old, new) {
        (Name(n, xs), Name(m, _)) => {
            n == m
                && arena
                    .list_ids(xs)
                    .iter()
                    .copied()
                    .eq(args.iter().map(|a| a.index() as u32))
        }
        _ => old == new,
    }
}

impl TypeBuilder for Surface {
    type Out = TyId;

    fn unit(&mut self) -> TyId {
        self.share(SType::Unit, &[])
    }
    fn name(&mut self, name: Symbol, args: Vec<TyId>) -> TyId {
        self.share(SType::Name(name, TyList::default()), &args)
    }
    fn var(&mut self, var: Symbol) -> TyId {
        self.share(SType::Var(var), &[])
    }
    fn arrow(&mut self, dom: TyId, cod: TyId) -> TyId {
        self.share(SType::Arrow(dom, cod), &[])
    }
    fn pair(&mut self, fst: TyId, snd: TyId) -> TyId {
        self.share(SType::Pair(fst, snd), &[])
    }
    fn forall(&mut self, var: Symbol, kind: Kind, body: TyId) -> TyId {
        self.share(SType::Forall(var, kind, body), &[])
    }
    fn input(&mut self, payload: TyId, cont: TyId) -> TyId {
        self.share(SType::In(payload, cont), &[])
    }
    fn output(&mut self, payload: TyId, cont: TyId) -> TyId {
        self.share(SType::Out(payload, cont), &[])
    }
    fn end_in(&mut self) -> TyId {
        self.share(SType::EndIn, &[])
    }
    fn end_out(&mut self) -> TyId {
        self.share(SType::EndOut, &[])
    }
    fn dual(&mut self, s: TyId) -> TyId {
        self.share(SType::Dual(s), &[])
    }
    fn neg(&mut self, t: TyId) -> TyId {
        self.share(SType::Neg(t), &[])
    }
}

/// A type production's result. An uppercase name without arguments
/// stays `Bare`, so that `ty_app` can still apply it.
enum Parsed<O> {
    Bare(Symbol),
    Built(O),
}

impl<O> Parsed<O> {
    fn build<B: TypeBuilder<Out = O>>(self, b: &mut B) -> O {
        match self {
            Parsed::Bare(name) => b.name(name, Vec::new()),
            Parsed::Built(out) => out,
        }
    }
}

struct Parser<'s> {
    lexer: Lexer<'s>,
    /// The current token; `None` at the end of the input, and from the
    /// first lex error on.
    tok: Option<Token>,
    /// The span of the last token consumed (the default before any).
    last: Span,
    /// The first lex error, which ends the token stream.
    lex_error: Option<LexError>,
    /// The current declaration's nodes.
    surface: Surface,
    /// Current type nesting, bounded by [`MAX_TYPE_DEPTH`].
    depth: usize,
    /// Current expression recursion, bounded by [`MAX_EXPR_DEPTH`].
    expr_depth: usize,
}

impl<'s> Parser<'s> {
    fn new(src: &'s str) -> Parser<'s> {
        let mut p = Parser {
            lexer: Lexer::new(src),
            tok: None,
            last: Span::default(),
            lex_error: None,
            surface: Surface::default(),
            depth: 0,
            expr_depth: 0,
        };
        p.advance();
        p
    }

    /// Pulls the next token into `tok`. Out of line, with the lexer
    /// inlined into it once, rather than into every `bump`.
    #[inline(never)]
    fn advance(&mut self) {
        if self.lex_error.is_some() {
            return;
        }
        self.tok = self.lexer.next_token().unwrap_or_else(|e| {
            self.lex_error = Some(e);
            None
        });
    }

    /// The outcome of a parse that ended with `parsed`. A lex error
    /// anywhere in the source wins, so a parse error first lexes the
    /// rest of the source.
    fn finish<T>(&mut self, parsed: PResult<T>) -> PResult<T> {
        if parsed.is_err() {
            while self.tok.is_some() {
                self.advance();
            }
        }
        match self.lex_error.take() {
            Some(e) => Err(e.into()),
            None => parsed,
        }
    }

    // ---------------------------------------------------------- utilities

    fn peek(&self) -> Option<&Token> {
        self.tok.as_ref()
    }

    fn peek_tok(&self) -> Option<&Tok> {
        self.peek().map(|t| &t.tok)
    }

    /// Peek, but refuse tokens at column 1 (they belong to the next
    /// top-level declaration). Use for *optional* continuations.
    fn cont(&self) -> Option<&Token> {
        self.peek().filter(|t| t.span.col > 1)
    }

    fn cont_tok(&self) -> Option<&Tok> {
        self.cont().map(|t| &t.tok)
    }

    fn last_span(&self) -> Span {
        self.last
    }

    fn here(&self) -> Span {
        self.peek()
            .map(|t| t.span)
            .unwrap_or_else(|| self.last_span())
    }

    /// Consumes the next token and returns its span (at end of input,
    /// consumes nothing).
    fn bump(&mut self) -> Span {
        let span = self.here();
        if self.tok.is_some() {
            self.last = span;
            self.advance();
        }
        span
    }

    fn error<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            message: message.into(),
            span: self.here(),
        })
    }

    fn expect(&mut self, tok: Tok) -> PResult<Span> {
        match self.peek() {
            Some(t) if t.tok == tok => Ok(self.bump()),
            Some(t) => {
                let found = t.tok.clone();
                self.error(format!("expected `{tok}`, found `{found}`"))
            }
            None => self.error(format!("expected `{tok}`, found end of input")),
        }
    }

    fn expect_eof(&mut self) -> PResult<()> {
        match self.peek() {
            None => Ok(()),
            Some(t) => {
                let found = t.tok.clone();
                self.error(format!("expected end of input, found `{found}`"))
            }
        }
    }

    fn lident(&mut self) -> PResult<(Symbol, Span)> {
        match self.peek() {
            Some(Token {
                tok: Tok::LIdent(s),
                span,
            }) => {
                let r = (*s, *span);
                self.bump();
                Ok(r)
            }
            _ => self.error("expected a lowercase identifier"),
        }
    }

    fn uident(&mut self) -> PResult<(Symbol, Span)> {
        match self.peek() {
            Some(Token {
                tok: Tok::UIdent(s),
                span,
            }) => {
                let r = (*s, *span);
                self.bump();
                Ok(r)
            }
            _ => self.error("expected an uppercase identifier"),
        }
    }

    /// A type of a declaration or an expression, in the declaration's
    /// arena.
    fn surface_ty(&mut self) -> PResult<TyId> {
        self.with_types(Self::ty)
    }

    /// Runs a type production with the declaration's [`Surface`] as
    /// its builder.
    fn with_types(
        &mut self,
        production: fn(&mut Self, &mut Surface) -> PResult<Parsed<TyId>>,
    ) -> PResult<TyId> {
        let mut surface = std::mem::take(&mut self.surface);
        let parsed = production(self, &mut surface).map(|t| t.build(&mut surface));
        self.surface = surface;
        parsed
    }

    fn arena(&mut self) -> &mut Arena {
        &mut self.surface.arena
    }

    fn span_of(&self, e: ExprId) -> Span {
        self.surface.arena.expr(e).span()
    }

    // ------------------------------------------------------- declarations

    fn program(&mut self) -> PResult<Program> {
        let mut decls = Vec::new();
        while self.tok.is_some() {
            decls.push(self.decl()?);
        }
        Ok(Program { decls })
    }

    fn decl(&mut self) -> PResult<Decl> {
        let kind = match self.peek_tok() {
            Some(Tok::Protocol) => self.type_decl(true),
            Some(Tok::Data) => self.type_decl(false),
            Some(Tok::TypeKw) => self.alias_decl(),
            Some(Tok::LIdent(_)) => self.signature_or_binding(),
            Some(other) => self.error(format!(
                "expected a declaration (protocol/data/type/definition), found `{other}`"
            )),
            None => self.error("expected a declaration"),
        }?;
        Ok(Decl {
            kind,
            arena: self.surface.finish(),
        })
    }

    fn type_decl(&mut self, is_protocol: bool) -> PResult<DeclKind> {
        let start = self.bump(); // protocol/data
        let (name, _) = self.uident()?;
        let mut params = Vec::new();
        while let Some(Tok::LIdent(p)) = self.cont_tok() {
            params.push(*p);
            self.bump();
        }
        self.expect(Tok::Equals)?;
        let mut ctors = vec![self.ctor_decl()?];
        while self.cont_tok() == Some(&Tok::Bar) {
            self.bump();
            ctors.push(self.ctor_decl()?);
        }
        let span = start.to(self.last_span());
        let d = TypeDecl {
            name,
            params,
            ctors,
            span,
        };
        Ok(if is_protocol {
            DeclKind::Protocol(d)
        } else {
            DeclKind::Data(d)
        })
    }

    fn ctor_decl(&mut self) -> PResult<CtorDecl> {
        let (name, start) = self.uident()?;
        let mark = self.surface.pending.len();
        while self.starts_type_atom() {
            let arg = self.with_types(Self::ty_atom)?;
            self.surface.pending.push(arg.index() as u32);
        }
        let args = self.take_tys(mark);
        Ok(CtorDecl {
            name,
            args,
            span: start.to(self.last_span()),
        })
    }

    /// The types pending since `mark`, moved into the arena as one list.
    fn take_tys(&mut self, mark: usize) -> TyList {
        let Surface { arena, pending, .. } = &mut self.surface;
        arena.push_tys(pending.drain(mark..).map(TyId::from_raw))
    }

    fn alias_decl(&mut self) -> PResult<DeclKind> {
        let start = self.bump(); // type
        let (name, _) = self.uident()?;
        let mut params = Vec::new();
        while let Some(Tok::LIdent(p)) = self.cont_tok() {
            params.push(*p);
            self.bump();
        }
        self.expect(Tok::Equals)?;
        let body = self.surface_ty()?;
        Ok(DeclKind::Alias(AliasDecl {
            name,
            params,
            body,
            span: start.to(self.last_span()),
        }))
    }

    fn signature_or_binding(&mut self) -> PResult<DeclKind> {
        let (name, start) = self.lident()?;
        if self.cont_tok() == Some(&Tok::Colon) {
            self.bump();
            let ty = self.surface_ty()?;
            return Ok(DeclKind::Signature(SignatureDecl {
                name,
                ty,
                span: start.to(self.last_span()),
            }));
        }
        // Binding: parameters until `=`.
        let mut params = Vec::new();
        loop {
            match self.cont_tok() {
                Some(Tok::Equals) => break,
                Some(Tok::LIdent(x)) => {
                    params.push(Param::Term(*x));
                    self.bump();
                }
                Some(Tok::Underscore) => {
                    params.push(Param::Wild);
                    self.bump();
                }
                Some(Tok::LBracket) => {
                    self.bump();
                    let mut vars = Vec::new();
                    loop {
                        let (v, _) = self.lident()?;
                        vars.push(v);
                        if self.peek_tok() == Some(&Tok::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.expect(Tok::RBracket)?;
                    params.push(Param::Types(vars));
                }
                _ => return self.error("expected a parameter or `=` in definition"),
            }
        }
        self.expect(Tok::Equals)?;
        let (body, _) = self.expr()?;
        Ok(DeclKind::Binding(BindingDecl {
            name,
            params,
            body,
            span: start.to(self.last_span()),
        }))
    }
    // --------------------------------------------------------------- types
    //
    // One grammar for every consumer: the productions are generic over
    // the [`TypeBuilder`] that turns each recognised node into a value.

    fn ty<B: TypeBuilder>(&mut self, b: &mut B) -> PResult<Parsed<B::Out>> {
        if self.peek_tok() == Some(&Tok::Forall) {
            self.bump();
            self.expect(Tok::LParen)?;
            let (var, _) = self.lident()?;
            self.expect(Tok::Colon)?;
            let kind = self.kind()?;
            self.expect(Tok::RParen)?;
            self.expect(Tok::Dot)?;
            b.bind(var);
            let body = self.nested(|p| p.ty(b))?.build(b);
            return Ok(Parsed::Built(b.forall(var, kind, body)));
        }
        self.ty_arrow(b)
    }

    fn kind(&mut self) -> PResult<Kind> {
        let (name, _) = self.uident()?;
        let s = name.as_str();
        if s.len() == 1 {
            if let Some(k) = Kind::from_letter(s.chars().next().expect("len checked")) {
                return Ok(k);
            }
        }
        self.error(format!("expected a kind (S, T or P), found `{s}`"))
    }

    fn ty_arrow<B: TypeBuilder>(&mut self, b: &mut B) -> PResult<Parsed<B::Out>> {
        let lhs = self.ty_seq(b)?;
        if self.cont_tok() == Some(&Tok::Arrow) {
            self.bump();
            let rhs = self.nested(|p| p.ty(b))?; // right-associative
            let (lhs, rhs) = (lhs.build(b), rhs.build(b));
            return Ok(Parsed::Built(b.arrow(lhs, rhs)));
        }
        Ok(lhs)
    }

    /// Session-prefix level: `!T.S`, `?T.S`, otherwise an application type.
    fn ty_seq<B: TypeBuilder>(&mut self, b: &mut B) -> PResult<Parsed<B::Out>> {
        let out = match self.peek_tok() {
            Some(Tok::Bang) => true,
            Some(Tok::Quest) => false,
            _ => return self.ty_app(b),
        };
        self.bump();
        let payload = self.nested(|p| p.ty_msg(b))?.build(b);
        self.expect(Tok::Dot)?;
        let cont = self.nested(|p| p.ty_seq(b))?.build(b);
        Ok(Parsed::Built(if out {
            b.output(payload, cont)
        } else {
            b.input(payload, cont)
        }))
    }

    /// Message payload: an application type, optionally negated.
    fn ty_msg<B: TypeBuilder>(&mut self, b: &mut B) -> PResult<Parsed<B::Out>> {
        if self.peek_tok() == Some(&Tok::Dash) {
            self.bump();
            let inner = self.nested(|p| p.ty_msg(b))?.build(b);
            return Ok(Parsed::Built(b.neg(inner)));
        }
        self.ty_app(b)
    }

    fn ty_app<B: TypeBuilder>(&mut self, b: &mut B) -> PResult<Parsed<B::Out>> {
        // Only *bare* named heads can be applied. A name that already
        // carries arguments came out of parentheses — e.g. the payload
        // in `!(Repeat Int).End!` — and is complete as it stands
        // (application is not curried through parens).
        let head = self.ty_atom(b)?;
        let Parsed::Bare(name) = head else {
            return Ok(head);
        };
        let mut args = Vec::new();
        while self.starts_type_atom() {
            args.push(self.nested(|p| p.ty_atom(b))?.build(b));
        }
        // Still bare without arguments, so enclosing parentheses keep it
        // applicable: `(F) A` parses like `F A`.
        if args.is_empty() {
            return Ok(Parsed::Bare(name));
        }
        Ok(Parsed::Built(b.name(name, args)))
    }

    fn starts_type_atom(&self) -> bool {
        matches!(
            self.cont_tok(),
            Some(
                Tok::LParen
                    | Tok::UIdent(_)
                    | Tok::LIdent(_)
                    | Tok::EndBang
                    | Tok::EndQuest
                    | Tok::DualKw
                    | Tok::Dash
            )
        )
    }

    fn ty_atom<B: TypeBuilder>(&mut self, b: &mut B) -> PResult<Parsed<B::Out>> {
        let Some(token) = self.peek() else {
            return self.error("expected a type");
        };
        let atom = match token.tok {
            Tok::LParen => {
                self.bump();
                return self.nested(|p| {
                    let first = p.ty(b)?;
                    if p.peek_tok() == Some(&Tok::Comma) {
                        p.bump();
                        let second = p.ty(b)?;
                        p.expect(Tok::RParen)?;
                        let (first, second) = (first.build(b), second.build(b));
                        Ok(Parsed::Built(b.pair(first, second)))
                    } else {
                        p.expect(Tok::RParen)?;
                        Ok(first)
                    }
                });
            }
            Tok::UIdent(Symbol::UNIT) => b.unit(),
            Tok::UIdent(name) => {
                self.bump();
                return Ok(Parsed::Bare(name));
            }
            Tok::LIdent(name) => b.var(name),
            Tok::EndBang => b.end_out(),
            Tok::EndQuest => b.end_in(),
            Tok::DualKw | Tok::Dash => {
                let dual = token.tok == Tok::DualKw;
                self.bump();
                let inner = self.nested(|p| p.ty_atom(b))?.build(b);
                return Ok(Parsed::Built(if dual {
                    b.dual(inner)
                } else {
                    b.neg(inner)
                }));
            }
            _ => return self.error("expected a type"),
        };
        self.bump();
        Ok(Parsed::Built(atom))
    }

    /// Parses one nesting level deeper, refusing to go past
    /// [`MAX_TYPE_DEPTH`].
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        if self.depth >= MAX_TYPE_DEPTH {
            return self.error(format!("type nests deeper than {MAX_TYPE_DEPTH} levels"));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    // --------------------------------------------------------- expressions
    //
    // Every production returns its expression with the height of the
    // tree built for it (see [`MAX_EXPR_DEPTH`]). The recursive
    // productions also go through `nested_expr`, which bounds the
    // parser's own recursion before any height is known.

    fn expr(&mut self) -> PResult<Node> {
        match self.peek_tok() {
            Some(Tok::Backslash) => self.lambda(),
            Some(Tok::Let) => self.let_expr(),
            Some(Tok::If) => self.if_expr(),
            Some(Tok::Case) => self.case_expr(Tok::Of),
            Some(Tok::Match) => self.case_expr(Tok::With),
            _ => self.pipe_expr(),
        }
    }

    /// An expression one nesting level down.
    fn sub_expr(&mut self) -> PResult<Node> {
        self.nested_expr(Self::expr)
    }

    /// Parses one expression nesting level deeper, refusing to go past
    /// [`MAX_EXPR_DEPTH`].
    fn nested_expr(&mut self, parse: fn(&mut Self) -> PResult<Node>) -> PResult<Node> {
        if self.expr_depth >= MAX_EXPR_DEPTH {
            return self.expr_too_deep();
        }
        self.expr_depth += 1;
        let parsed = parse(self);
        self.expr_depth -= 1;
        parsed
    }

    /// `expr`, one level above children of height at most `height`,
    /// added to the arena.
    fn node(&mut self, expr: SExpr, height: usize) -> PResult<Node> {
        if height >= MAX_EXPR_DEPTH {
            return self.expr_too_deep();
        }
        Ok((self.arena().push_expr(expr), height + 1))
    }

    /// A leaf expression, added to the arena.
    fn leaf(&mut self, expr: SExpr) -> Node {
        (self.arena().push_expr(expr), 1)
    }

    fn expr_too_deep<T>(&self) -> PResult<T> {
        self.error(format!(
            "expression nests deeper than {MAX_EXPR_DEPTH} levels"
        ))
    }

    fn lambda(&mut self) -> PResult<Node> {
        let start = self.bump(); // backslash
        let first = self.arena().names_len();
        loop {
            match self.peek_tok() {
                Some(&Tok::LIdent(x)) => {
                    self.arena().push_name(x);
                    self.bump();
                }
                Some(Tok::Underscore) => {
                    self.arena().push_name(Symbol::fresh("_wild"));
                    self.bump();
                }
                Some(Tok::Arrow) => break,
                _ => return self.error("expected a lambda parameter or `->`"),
            }
        }
        let params = self.arena().names_since(first);
        if params.is_empty() {
            return self.error("lambda needs at least one parameter");
        }
        self.expect(Tok::Arrow)?;
        let (body, height) = self.sub_expr()?;
        let span = start.to(self.span_of(body));
        self.node(SExpr::Lambda(params, body, span), height)
    }

    fn let_expr(&mut self) -> PResult<Node> {
        let start = self.bump(); // let
        let pat = self.pattern()?;
        self.expect(Tok::Equals)?;
        let (bound, h1) = self.sub_expr()?;
        self.expect(Tok::In)?;
        let (body, h2) = self.sub_expr()?;
        let span = start.to(self.span_of(body));
        self.node(SExpr::Let(pat, bound, body, span), h1.max(h2))
    }

    fn pattern(&mut self) -> PResult<Pattern> {
        match self.peek_tok() {
            Some(&Tok::LIdent(x)) => {
                self.bump();
                Ok(Pattern::Var(x))
            }
            Some(Tok::Underscore) => {
                self.bump();
                Ok(Pattern::Wild)
            }
            Some(Tok::Star) => {
                self.bump();
                Ok(Pattern::Unit)
            }
            Some(Tok::LParen) => {
                self.bump();
                if self.peek_tok() == Some(&Tok::RParen) {
                    self.bump();
                    return Ok(Pattern::Unit);
                }
                let (x, _) = self.lident()?;
                self.expect(Tok::Comma)?;
                let (y, _) = self.lident()?;
                self.expect(Tok::RParen)?;
                Ok(Pattern::Pair(x, y))
            }
            _ => self.error("expected a pattern (x, (x, y), _, * or ())"),
        }
    }

    fn if_expr(&mut self) -> PResult<Node> {
        let start = self.bump(); // if
        let (cond, h1) = self.sub_expr()?;
        self.expect(Tok::Then)?;
        let (thn, h2) = self.sub_expr()?;
        self.expect(Tok::Else)?;
        let (els, h3) = self.sub_expr()?;
        let span = start.to(self.span_of(els));
        self.node(SExpr::If(cond, thn, els, span), h1.max(h2).max(h3))
    }

    /// `case e of { arms }` / `match e with { arms }`.
    fn case_expr(&mut self, separator: Tok) -> PResult<Node> {
        let start = self.bump(); // case/match
        let (scrutinee, mut height) = self.nested_expr(Self::pipe_expr)?;
        self.expect(separator)?;
        self.expect(Tok::LBrace)?;
        let mark = self.surface.pending.len();
        loop {
            let (arm, h) = self.arm()?;
            self.surface.pending.push(arm);
            height = height.max(h);
            match self.peek_tok() {
                Some(Tok::Comma) => {
                    self.bump();
                    // allow trailing comma
                    if self.peek_tok() == Some(&Tok::RBrace) {
                        break;
                    }
                }
                Some(Tok::RBrace) => break,
                _ => return self.error("expected `,` or `}` after case arm"),
            }
        }
        let end = self.expect(Tok::RBrace)?;
        let Surface { arena, pending, .. } = &mut self.surface;
        let arms = arena.push_arms(pending.drain(mark..));
        self.node(SExpr::Case(scrutinee, arms, start.to(end)), height)
    }

    /// A case arm, added to the arena, with the height of its body.
    fn arm(&mut self) -> PResult<(u32, usize)> {
        let (tag, start) = self.uident()?;
        let first = self.arena().names_len();
        loop {
            match self.peek_tok() {
                Some(&Tok::LIdent(x)) => {
                    self.arena().push_name(x);
                    self.bump();
                }
                Some(Tok::Underscore) => {
                    self.arena().push_name(Symbol::fresh("_wild"));
                    self.bump();
                }
                _ => break,
            }
        }
        let binders = self.arena().names_since(first);
        self.expect(Tok::Arrow)?;
        let (body, height) = self.sub_expr()?;
        let span = start.to(self.span_of(body));
        let arm = SArm {
            tag,
            binders,
            body,
            span,
        };
        Ok((self.arena().push_arm(arm), height))
    }

    /// `e |> f |> g` — reverse application, lowest precedence,
    /// left-associative: `x |> f |> g` is `g (f x)`.
    fn pipe_expr(&mut self) -> PResult<Node> {
        let (mut lhs, mut height) = self.or_expr()?;
        while self.cont_tok() == Some(&Tok::PipeGt) {
            self.bump();
            // The right operand of |> may itself be a lambda/let/etc.
            let (rhs, h) = match self.peek_tok() {
                Some(Tok::Backslash) => self.lambda()?,
                _ => self.or_expr()?,
            };
            let span = self.span_of(lhs).to(self.span_of(rhs));
            (lhs, height) = self.node(SExpr::App(rhs, lhs, span), height.max(h))?;
        }
        Ok((lhs, height))
    }

    fn or_expr(&mut self) -> PResult<Node> {
        self.left_assoc(
            |t| matches!(t, Tok::OrOr).then_some(Symbol::OP_OR),
            Self::and_expr,
        )
    }

    fn and_expr(&mut self) -> PResult<Node> {
        self.left_assoc(
            |t| matches!(t, Tok::AndAnd).then_some(Symbol::OP_AND),
            Self::cmp_expr,
        )
    }

    fn cmp_expr(&mut self) -> PResult<Node> {
        let lhs = self.add_expr()?;
        let op = match self.cont_tok() {
            Some(Tok::EqEq) => Symbol::OP_EQ,
            Some(Tok::Neq) => Symbol::OP_NEQ,
            Some(Tok::Lt) => Symbol::OP_LT,
            Some(Tok::Le) => Symbol::OP_LEQ,
            Some(Tok::Gt) => Symbol::OP_GT,
            Some(Tok::Ge) => Symbol::OP_GEQ,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        self.binop(op, lhs, rhs)
    }

    fn add_expr(&mut self) -> PResult<Node> {
        self.left_assoc(
            |t| match t {
                Tok::Plus => Some(Symbol::OP_ADD),
                Tok::Dash => Some(Symbol::OP_SUB),
                _ => None,
            },
            Self::mul_expr,
        )
    }

    fn mul_expr(&mut self) -> PResult<Node> {
        self.left_assoc(
            |t| match t {
                Tok::Star => Some(Symbol::OP_MUL),
                Tok::Slash => Some(Symbol::OP_DIV),
                Tok::Percent => Some(Symbol::OP_MOD),
                _ => None,
            },
            Self::app_expr,
        )
    }

    /// A left-associative chain of `operand`s joined by the operators
    /// that `op` maps to their pre-interned symbols.
    fn left_assoc(
        &mut self,
        op: fn(&Tok) -> Option<Symbol>,
        operand: fn(&mut Self) -> PResult<Node>,
    ) -> PResult<Node> {
        let mut lhs = operand(self)?;
        while let Some(op) = self.cont_tok().and_then(op) {
            self.bump();
            let rhs = operand(self)?;
            lhs = self.binop(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn binop(&mut self, op: Symbol, (lhs, h1): Node, (rhs, h2): Node) -> PResult<Node> {
        let span = self.span_of(lhs).to(self.span_of(rhs));
        self.node(SExpr::BinOp(op, lhs, rhs, span), h1.max(h2))
    }

    fn app_expr(&mut self) -> PResult<Node> {
        let (mut head, mut height) = self.atom()?;
        loop {
            if self.starts_expr_atom() {
                let (arg, h) = self.atom()?;
                let span = self.span_of(head).to(self.span_of(arg));
                (head, height) = self.node(SExpr::App(head, arg, span), height.max(h))?;
            } else if self.cont_tok() == Some(&Tok::LBracket) {
                self.bump();
                let mark = self.surface.pending.len();
                loop {
                    let t = self.surface_ty()?;
                    self.surface.pending.push(t.index() as u32);
                    if self.peek_tok() != Some(&Tok::Comma) {
                        break;
                    }
                    self.bump();
                }
                let end = self.expect(Tok::RBracket)?;
                let tys = self.take_tys(mark);
                let span = self.span_of(head).to(end);
                (head, height) = self.node(SExpr::TApp(head, tys, span), height)?;
            } else {
                break;
            }
        }
        Ok((head, height))
    }

    fn starts_expr_atom(&self) -> bool {
        matches!(
            self.cont_tok(),
            Some(
                Tok::LIdent(_)
                    | Tok::UIdent(_)
                    | Tok::IntLit(_)
                    | Tok::CharLit(_)
                    | Tok::StrLit(_)
                    | Tok::LParen
                    | Tok::SelectKw
            )
        )
    }

    fn atom(&mut self) -> PResult<Node> {
        let leaf = match self.peek_tok() {
            Some(&Tok::IntLit(n)) => SExpr::Lit(Lit::Int(n), self.bump()),
            Some(&Tok::CharLit(c)) => SExpr::Lit(Lit::Char(c), self.bump()),
            Some(Tok::StrLit(s)) => SExpr::Lit(Lit::Str(s.clone()), self.bump()),
            Some(&Tok::LIdent(x)) => SExpr::Var(x, self.bump()),
            Some(&Tok::UIdent(c)) => {
                let span = self.bump();
                match c {
                    Symbol::TRUE => SExpr::Lit(Lit::Bool(true), span),
                    Symbol::FALSE => SExpr::Lit(Lit::Bool(false), span),
                    _ => SExpr::Con(c, span),
                }
            }
            Some(Tok::SelectKw) => {
                let start = self.bump();
                let (tag, end) = self.uident()?;
                SExpr::Select(tag, start.to(end))
            }
            Some(Tok::LParen) => {
                let start = self.bump();
                if self.peek_tok() == Some(&Tok::RParen) {
                    let end = self.bump();
                    return Ok(self.leaf(SExpr::Lit(Lit::Unit, start.to(end))));
                }
                // Parentheses open a level of their own, so deep
                // nesting is refused even where it builds no node.
                let (first, h1) = self.sub_expr()?;
                if self.peek_tok() == Some(&Tok::Comma) {
                    self.bump();
                    let (second, h2) = self.sub_expr()?;
                    let end = self.expect(Tok::RParen)?;
                    let pair = SExpr::Pair(first, second, start.to(end));
                    return self.node(pair, h1.max(h2));
                }
                self.expect(Tok::RParen)?;
                if h1 >= MAX_EXPR_DEPTH {
                    return self.expr_too_deep();
                }
                return Ok((first, h1 + 1));
            }
            _ => return self.error("expected an expression"),
        };
        Ok(self.leaf(leaf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The only declaration of `src`.
    fn only_decl(src: &str) -> Decl {
        let mut p = parse_program(src).unwrap();
        assert_eq!(p.decls.len(), 1);
        p.decls.pop().unwrap()
    }

    #[test]
    fn parses_protocol_decl() {
        let d = only_decl("protocol IntListP = Nil | Cons Int IntListP");
        let DeclKind::Protocol(td) = &d.kind else {
            panic!("expected protocol")
        };
        assert_eq!(td.name.as_str(), "IntListP");
        assert_eq!(td.ctors.len(), 2);
        assert_eq!(td.ctors[1].args.len(), 2);
    }

    #[test]
    fn parses_parameterized_protocol() {
        let d = only_decl("protocol Stream a = Next a (Stream a)");
        let DeclKind::Protocol(td) = &d.kind else {
            panic!()
        };
        assert_eq!(td.params.len(), 1);
        let arg = d.arena.tys(td.ctors[0].args).nth(1).unwrap();
        let SType::Name(n, args) = d.arena.ty(arg) else {
            panic!()
        };
        assert_eq!(n.as_str(), "Stream");
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn parenthesized_applied_name_keeps_its_arguments() {
        // Regression: `(Repeat Int)` as a message payload used to trip a
        // debug assertion in `ty_app` (and silently dropped the
        // arguments in release builds).
        let t = parse_type("!(Repeat Int).End!").unwrap();
        let SType::Out(payload, _) = t.node() else {
            panic!("expected an output type")
        };
        let SType::Name(n, args) = t.arena.ty(payload) else {
            panic!("expected an applied name")
        };
        assert_eq!(n.as_str(), "Repeat");
        assert_eq!(args.len(), 1);
        // A parenthesized application is complete: a trailing atom is a
        // parse error, not a curried application.
        assert!(parse_type("(Repeat Int) Bool").is_err());
    }

    #[test]
    fn a_repeated_type_is_one_shared_node() {
        let p = parse_program(
            "f : forall (s:S). !Int.?Bool.s -> s\n\
             f [s] c = c |> g [?Bool.s] |> g [s] |> g [?Bool.s]\n",
        )
        .unwrap();
        let (sig, binding) = (&p.decls[0], &p.decls[1]);
        let (DeclKind::Signature(f), DeclKind::Binding(b)) = (&sig.kind, &binding.kind) else {
            panic!("expected a signature and a binding")
        };
        // Within the signature, the continuation `s` is one node: the
        // codomain and the tail of the domain.
        let a = &sig.arena;
        let SType::Forall(_, _, body) = a.ty(f.ty) else {
            panic!("expected a forall")
        };
        let SType::Arrow(dom, s) = a.ty(body) else {
            panic!("expected an arrow")
        };
        let SType::Out(_, rest) = a.ty(dom) else {
            panic!("expected an output")
        };
        let SType::In(_, tail) = a.ty(rest) else {
            panic!("expected an input")
        };
        assert_eq!(tail, s);
        // In the binding, the two `g [?Bool.s]` are one id.
        let a = &binding.arena;
        let mut tapps = Vec::new();
        let mut e = b.body;
        while let SExpr::App(f, x, _) = a.expr(e) {
            let SExpr::TApp(_, tys, _) = a.expr(*f) else {
                panic!("expected a type application")
            };
            tapps.push(a.tys(*tys).next().unwrap());
            e = *x;
        }
        assert_eq!(tapps.len(), 3);
        assert_eq!(tapps[0], tapps[2]);
        assert_ne!(tapps[0], tapps[1]);
    }

    #[test]
    fn parse_type_shares_repeats() {
        let t = parse_type("(!Int.End!, !Int.End!) -> !Int.End!").unwrap();
        let SType::Arrow(pair, cod) = t.node() else {
            panic!("expected an arrow")
        };
        let SType::Pair(a, b) = t.arena.ty(pair) else {
            panic!("expected a pair")
        };
        assert!(a == b && b == cod);
        // `Int`, `End!`, `!Int.End!`, the pair and the arrow.
        assert_eq!(t.arena.len(), 5);
        // Different types stay different nodes.
        let u = parse_type("(!Int.End!, ?Int.End!)").unwrap();
        let SType::Pair(a, b) = u.node() else {
            panic!("expected a pair")
        };
        assert_ne!(a, b);
    }

    #[test]
    fn applied_names_share_by_their_arguments() {
        let t = parse_type("(Stream Int, (Stream Int, Stream Bool))").unwrap();
        let SType::Pair(a, rest) = t.node() else {
            panic!("expected a pair")
        };
        let SType::Pair(b, c) = t.arena.ty(rest) else {
            panic!("expected a pair")
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn parses_polarity_in_ctor_args() {
        let d = only_decl("protocol Arith = Neg Int -Int | Add Int Int -Int");
        let DeclKind::Protocol(td) = &d.kind else {
            panic!()
        };
        let arg = d.arena.tys(td.ctors[0].args).nth(1).unwrap();
        assert!(matches!(d.arena.ty(arg), SType::Neg(..)));
        assert_eq!(td.ctors[1].args.len(), 3);
    }

    #[test]
    fn parses_signature_with_forall() {
        let d = only_decl("sendAst : Ast -> forall (s:S). !AstP.s -> s");
        assert_eq!(d.to_string(), "sendAst : Ast -> forall (s:S). !AstP.s -> s");
    }

    #[test]
    fn parses_session_types() {
        let t = parse_type("?Repeat Int . !(Char, End!) . End!").unwrap();
        assert_eq!(t.to_string(), "?(Repeat Int).!(Char, End!).End!");
        let t = parse_type("Dual (!Repeat Int. ?(Char, End!). Dual End!)").unwrap();
        assert!(matches!(t.node(), SType::Dual(..)));
    }

    #[test]
    fn parses_negated_payloads() {
        let t = parse_type("?-a.s").unwrap();
        let SType::In(p, _) = t.node() else { panic!() };
        assert!(matches!(t.arena.ty(p), SType::Neg(..)));
        let t = parse_type("! Stream -a .End!").unwrap();
        let SType::Out(p, _) = t.node() else { panic!() };
        let SType::Name(_, args) = t.arena.ty(p) else {
            panic!()
        };
        let first = t.arena.tys(args).next().unwrap();
        assert!(matches!(t.arena.ty(first), SType::Neg(..)));
    }

    #[test]
    fn parses_match_with_arms() {
        let e =
            parse_expr("match c with { ConP c -> recvInt [s] c, AddP c -> recvAst [?AstP.s] c }")
                .unwrap();
        let SExpr::Case(_, arms, _) = e.node() else {
            panic!()
        };
        assert_eq!(arms.len(), 2);
        let first = e.arena.arms(*arms).next().unwrap();
        assert_eq!(e.arena.names(first.binders).len(), 1);
    }

    #[test]
    fn parses_pipe_as_reverse_application() {
        // x |> f |> g  ==  g (f x)
        let e = parse_expr("x |> f |> g").unwrap();
        let a = &e.arena;
        let SExpr::App(g, fx, _) = e.node() else {
            panic!()
        };
        assert!(matches!(a.expr(*g), SExpr::Var(..)));
        let SExpr::App(f, x, _) = a.expr(*fx) else {
            panic!()
        };
        assert!(matches!(a.expr(*f), SExpr::Var(..)));
        assert!(matches!(a.expr(*x), SExpr::Var(..)));
    }

    #[test]
    fn parses_type_application_lists() {
        let e = parse_expr("select Next [Int, End!] c").unwrap();
        // select Next [Int,End!] c = App(TApp(Select, [Int, End!]), c)
        let SExpr::App(f, _, _) = e.node() else {
            panic!()
        };
        let SExpr::TApp(sel, tys, _) = e.arena.expr(*f) else {
            panic!()
        };
        assert!(matches!(e.arena.expr(*sel), SExpr::Select(..)));
        assert_eq!(tys.len(), 2);
    }

    #[test]
    fn parses_let_pair() {
        let e = parse_expr("let (x, c) = receive [Int, s] c in (x, c)").unwrap();
        assert!(matches!(e.node(), SExpr::Let(Pattern::Pair(..), ..)));
    }

    #[test]
    fn parses_operators_with_precedence() {
        // 1 + 2 * 3 == 7  parses as  (1 + (2*3)) == 7
        let e = parse_expr("1 + 2 * 3 == 7").unwrap();
        let SExpr::BinOp(eq, lhs, _, _) = e.node() else {
            panic!()
        };
        assert_eq!(eq.as_str(), "==");
        let SExpr::BinOp(plus, _, rhs, _) = e.arena.expr(*lhs) else {
            panic!()
        };
        assert_eq!(plus.as_str(), "+");
        assert!(matches!(e.arena.expr(*rhs), SExpr::BinOp(..)));
    }

    #[test]
    fn layout_separates_declarations() {
        let src = "ones : Unit\nones = ()\nmain : Unit\nmain = ()";
        let p = parse_program(src).unwrap();
        assert_eq!(p.decls.len(), 4);
    }

    #[test]
    fn continuation_lines_are_part_of_definition() {
        let src = "f x =\n  let y = x in\n  y";
        let p = parse_program(src).unwrap();
        assert_eq!(p.decls.len(), 1);
    }

    #[test]
    fn paper_serve_arith_parses() {
        let src = r#"
serveArith : forall (s:S). ?Arith.s -> s
serveArith [s] c = match c with {
  Neg c -> let (x, c) = receive [Int, !Int.s] c in
           send [Int, s] (0 - x) c,
  Add c -> let (x, c) = receive [Int, ?Int.!Int.s] c in
           let (y, c) = receive [Int, !Int.s] c in
           send [Int, s] (x + y) c }
"#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.decls.len(), 2);
        let DeclKind::Binding(b) = &p.decls[1].kind else {
            panic!()
        };
        assert_eq!(b.params.len(), 2); // [s] and c
    }

    #[test]
    fn error_reports_location() {
        let err = parse_program("protocol = Nil").unwrap_err();
        assert!(err.message.contains("uppercase"));
        assert_eq!(err.span.line, 1);
    }

    #[test]
    fn a_later_lex_error_wins_over_an_earlier_parse_error() {
        let err = parse_program("main = let in ()\nf = # x").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at 2:5: unexpected character '#'"
        );
        // After a complete declaration, too.
        let err = parse_program("main = ()\n#").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at 2:1: unexpected character '#'"
        );
        let err = parse_type("!Int #").unwrap_err();
        assert_eq!(err.message, "unexpected character '#'");
        let err = parse_expr("(x #").unwrap_err();
        assert_eq!(err.message, "unexpected character '#'");
    }

    #[test]
    fn trailing_comma_in_arms_ok() {
        let e = parse_expr("match c with { A c -> c, B c -> c, }").unwrap();
        let SExpr::Case(_, arms, _) = e.node() else {
            panic!()
        };
        assert_eq!(arms.len(), 2);
    }
}
