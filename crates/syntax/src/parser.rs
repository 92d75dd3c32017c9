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

use crate::ast::*;
use crate::lexer::{lex, LexError};
use crate::span::Span;
use crate::token::{Tok, Token};
use algst_core::expr::Lit;
use algst_core::kind::Kind;
use algst_core::symbol::Symbol;
use std::fmt;

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
    let mut p = Parser::new(src)?;
    let mut decls = Vec::new();
    while p.pos < p.tokens.len() {
        decls.push(p.decl()?);
    }
    Ok(Program { decls })
}

/// Parses a single type, e.g. for tests and tooling.
pub fn parse_type(src: &str) -> PResult<SType> {
    parse_type_with(src, &mut Surface)
}

/// Parses a single type with `builder` building each node as the parser
/// recognises it — the same grammar, spans and errors as [`parse_type`],
/// without an intermediate [`SType`] unless the builder makes one.
pub fn parse_type_with<B: TypeBuilder>(src: &str, builder: &mut B) -> PResult<B::Out> {
    let mut p = Parser::new(src)?;
    let t = p.ty(builder)?.build(builder);
    p.expect_eof()?;
    Ok(t)
}

/// Parses a single expression.
pub fn parse_expr(src: &str) -> PResult<SExpr> {
    let mut p = Parser::new(src)?;
    let (e, _) = p.expr()?;
    p.expect_eof()?;
    Ok(e)
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
type Node = (SExpr, usize);

/// What the type productions build, one call per recognised node, each
/// with the node's span. Children are built before their parent, in
/// source order.
///
/// Uppercase names are left unresolved: [`TypeBuilder::name`] receives
/// every applied or bare name except `Unit`, and the builder decides what
/// it denotes.
pub trait TypeBuilder {
    type Out;

    /// `Unit`
    fn unit(&mut self, span: Span) -> Self::Out;
    /// An uppercase name with its arguments (possibly none).
    fn name(&mut self, name: Symbol, args: Vec<Self::Out>, span: Span) -> Self::Out;
    /// A lowercase type variable.
    fn var(&mut self, var: Symbol, span: Span) -> Self::Out;
    /// `T -> U`
    fn arrow(&mut self, dom: Self::Out, cod: Self::Out, span: Span) -> Self::Out;
    /// `(T, U)`
    fn pair(&mut self, fst: Self::Out, snd: Self::Out, span: Span) -> Self::Out;
    /// Entering the body of `forall (var:κ).`; the matching
    /// [`TypeBuilder::forall`] call leaves it. Builders that resolve
    /// variables against their binders track the scope here.
    fn bind(&mut self, _var: Symbol) {}
    /// `forall (var:kind). body`
    fn forall(&mut self, var: Symbol, kind: Kind, body: Self::Out, span: Span) -> Self::Out;
    /// `?T.S`
    fn input(&mut self, payload: Self::Out, cont: Self::Out, span: Span) -> Self::Out;
    /// `!T.S`
    fn output(&mut self, payload: Self::Out, cont: Self::Out, span: Span) -> Self::Out;
    /// `End?`
    fn end_in(&mut self, span: Span) -> Self::Out;
    /// `End!`
    fn end_out(&mut self, span: Span) -> Self::Out;
    /// `Dual S`
    fn dual(&mut self, s: Self::Out, span: Span) -> Self::Out;
    /// `-T`
    fn neg(&mut self, t: Self::Out, span: Span) -> Self::Out;
}

/// The [`TypeBuilder`] of the surface AST.
struct Surface;

impl TypeBuilder for Surface {
    type Out = SType;

    fn unit(&mut self, span: Span) -> SType {
        SType::Unit(span)
    }
    fn name(&mut self, name: Symbol, args: Vec<SType>, span: Span) -> SType {
        SType::Name(name, args, span)
    }
    fn var(&mut self, var: Symbol, span: Span) -> SType {
        SType::Var(var, span)
    }
    fn arrow(&mut self, dom: SType, cod: SType, span: Span) -> SType {
        SType::Arrow(Box::new(dom), Box::new(cod), span)
    }
    fn pair(&mut self, fst: SType, snd: SType, span: Span) -> SType {
        SType::Pair(Box::new(fst), Box::new(snd), span)
    }
    fn forall(&mut self, var: Symbol, kind: Kind, body: SType, span: Span) -> SType {
        SType::Forall(var, kind, Box::new(body), span)
    }
    fn input(&mut self, payload: SType, cont: SType, span: Span) -> SType {
        SType::In(Box::new(payload), Box::new(cont), span)
    }
    fn output(&mut self, payload: SType, cont: SType, span: Span) -> SType {
        SType::Out(Box::new(payload), Box::new(cont), span)
    }
    fn end_in(&mut self, span: Span) -> SType {
        SType::EndIn(span)
    }
    fn end_out(&mut self, span: Span) -> SType {
        SType::EndOut(span)
    }
    fn dual(&mut self, s: SType, span: Span) -> SType {
        SType::Dual(Box::new(s), span)
    }
    fn neg(&mut self, t: SType, span: Span) -> SType {
        SType::Neg(Box::new(t), span)
    }
}

/// A type production's result with its span. An uppercase name without
/// arguments stays `Bare`, so that `ty_app` can still apply it.
enum Parsed<O> {
    Bare(Symbol, Span),
    Built(O, Span),
}

impl<O> Parsed<O> {
    fn span(&self) -> Span {
        match self {
            Parsed::Bare(_, span) | Parsed::Built(_, span) => *span,
        }
    }

    fn build<B: TypeBuilder<Out = O>>(self, b: &mut B) -> O {
        match self {
            Parsed::Bare(name, span) => b.name(name, Vec::new(), span),
            Parsed::Built(out, _) => out,
        }
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current type nesting, bounded by [`MAX_TYPE_DEPTH`].
    depth: usize,
    /// Current expression recursion, bounded by [`MAX_EXPR_DEPTH`].
    expr_depth: usize,
}

impl Parser {
    fn new(src: &str) -> PResult<Parser> {
        Ok(Parser {
            tokens: lex(src)?,
            pos: 0,
            depth: 0,
            expr_depth: 0,
        })
    }

    // ---------------------------------------------------------- utilities

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
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
        if self.pos == 0 {
            Span::default()
        } else {
            self.tokens[self.pos - 1].span
        }
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
        if self.pos < self.tokens.len() {
            self.pos += 1;
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

    /// A type of a declaration or an expression, as surface AST.
    fn surface_ty(&mut self) -> PResult<SType> {
        Ok(self.ty(&mut Surface)?.build(&mut Surface))
    }

    // ------------------------------------------------------- declarations

    fn decl(&mut self) -> PResult<Decl> {
        match self.peek().map(|t| t.tok.clone()) {
            Some(Tok::Protocol) => self.type_decl(true),
            Some(Tok::Data) => self.type_decl(false),
            Some(Tok::TypeKw) => self.alias_decl(),
            Some(Tok::LIdent(_)) => self.signature_or_binding(),
            Some(other) => self.error(format!(
                "expected a declaration (protocol/data/type/definition), found `{other}`"
            )),
            None => self.error("expected a declaration"),
        }
    }

    fn type_decl(&mut self, is_protocol: bool) -> PResult<Decl> {
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
            Decl::Protocol(d)
        } else {
            Decl::Data(d)
        })
    }

    fn ctor_decl(&mut self) -> PResult<CtorDecl> {
        let (name, start) = self.uident()?;
        let mut args = Vec::new();
        while self.starts_type_atom() {
            args.push(self.ty_atom(&mut Surface)?.build(&mut Surface));
        }
        Ok(CtorDecl {
            name,
            args,
            span: start.to(self.last_span()),
        })
    }

    fn alias_decl(&mut self) -> PResult<Decl> {
        let start = self.bump(); // type
        let (name, _) = self.uident()?;
        let mut params = Vec::new();
        while let Some(Tok::LIdent(p)) = self.cont_tok() {
            params.push(*p);
            self.bump();
        }
        self.expect(Tok::Equals)?;
        let body = self.surface_ty()?;
        Ok(Decl::Alias(AliasDecl {
            name,
            params,
            body,
            span: start.to(self.last_span()),
        }))
    }

    fn signature_or_binding(&mut self) -> PResult<Decl> {
        let (name, start) = self.lident()?;
        if self.cont_tok() == Some(&Tok::Colon) {
            self.bump();
            let ty = self.surface_ty()?;
            return Ok(Decl::Signature(SignatureDecl {
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
                        if self.peek().map(|t| &t.tok) == Some(&Tok::Comma) {
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
        Ok(Decl::Binding(BindingDecl {
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
    // Every node carries the span the surface AST gives it, so the
    // `SType` builder sees exactly what a tree-building parser would.

    fn ty<B: TypeBuilder>(&mut self, b: &mut B) -> PResult<Parsed<B::Out>> {
        if self.peek().map(|t| &t.tok) == Some(&Tok::Forall) {
            let start = self.bump();
            self.expect(Tok::LParen)?;
            let (var, _) = self.lident()?;
            self.expect(Tok::Colon)?;
            let kind = self.kind()?;
            self.expect(Tok::RParen)?;
            self.expect(Tok::Dot)?;
            b.bind(var);
            let body = self.nested(|p| p.ty(b))?;
            let span = start.to(body.span());
            let body = body.build(b);
            return Ok(Parsed::Built(b.forall(var, kind, body, span), span));
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
            let span = lhs.span().to(rhs.span());
            let (lhs, rhs) = (lhs.build(b), rhs.build(b));
            return Ok(Parsed::Built(b.arrow(lhs, rhs, span), span));
        }
        Ok(lhs)
    }

    /// Session-prefix level: `!T.S`, `?T.S`, otherwise an application type.
    fn ty_seq<B: TypeBuilder>(&mut self, b: &mut B) -> PResult<Parsed<B::Out>> {
        let out = match self.peek().map(|t| &t.tok) {
            Some(Tok::Bang) => true,
            Some(Tok::Quest) => false,
            _ => return self.ty_app(b),
        };
        let start = self.bump();
        let payload = self.nested(|p| p.ty_msg(b))?.build(b);
        self.expect(Tok::Dot)?;
        let cont = self.nested(|p| p.ty_seq(b))?;
        let span = start.to(cont.span());
        let cont = cont.build(b);
        Ok(Parsed::Built(
            if out {
                b.output(payload, cont, span)
            } else {
                b.input(payload, cont, span)
            },
            span,
        ))
    }

    /// Message payload: an application type, optionally negated.
    fn ty_msg<B: TypeBuilder>(&mut self, b: &mut B) -> PResult<Parsed<B::Out>> {
        if self.peek().map(|t| &t.tok) == Some(&Tok::Dash) {
            let start = self.bump();
            let inner = self.nested(|p| p.ty_msg(b))?;
            let span = start.to(inner.span());
            let inner = inner.build(b);
            return Ok(Parsed::Built(b.neg(inner, span), span));
        }
        self.ty_app(b)
    }

    fn ty_app<B: TypeBuilder>(&mut self, b: &mut B) -> PResult<Parsed<B::Out>> {
        // Only *bare* named heads can be applied. A name that already
        // carries arguments came out of parentheses — e.g. the payload
        // in `!(Repeat Int).End!` — and is complete as it stands
        // (application is not curried through parens).
        let head = self.ty_atom(b)?;
        let Parsed::Bare(name, start) = head else {
            return Ok(head);
        };
        let mut args = Vec::new();
        while self.starts_type_atom() {
            args.push(self.nested(|p| p.ty_atom(b))?.build(b));
        }
        // Still bare without arguments, so enclosing parentheses keep it
        // applicable: `(F) A` parses like `F A`.
        let span = start.to(self.last_span());
        if args.is_empty() {
            return Ok(Parsed::Bare(name, span));
        }
        Ok(Parsed::Built(b.name(name, args, span), span))
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
        let span = token.span;
        let atom = match token.tok {
            Tok::LParen => {
                self.bump();
                return self.nested(|p| {
                    let first = p.ty(b)?;
                    if p.peek().map(|t| &t.tok) == Some(&Tok::Comma) {
                        p.bump();
                        let second = p.ty(b)?;
                        let end = p.expect(Tok::RParen)?;
                        let span = span.to(end);
                        let (first, second) = (first.build(b), second.build(b));
                        Ok(Parsed::Built(b.pair(first, second, span), span))
                    } else {
                        p.expect(Tok::RParen)?;
                        Ok(first)
                    }
                });
            }
            Tok::UIdent(Symbol::UNIT) => b.unit(span),
            Tok::UIdent(name) => {
                self.bump();
                return Ok(Parsed::Bare(name, span));
            }
            Tok::LIdent(name) => b.var(name, span),
            Tok::EndBang => b.end_out(span),
            Tok::EndQuest => b.end_in(span),
            Tok::DualKw | Tok::Dash => {
                let dual = token.tok == Tok::DualKw;
                self.bump();
                let inner = self.nested(|p| p.ty_atom(b))?;
                let span = span.to(inner.span());
                let inner = inner.build(b);
                let node = if dual {
                    b.dual(inner, span)
                } else {
                    b.neg(inner, span)
                };
                return Ok(Parsed::Built(node, span));
            }
            _ => return self.error("expected a type"),
        };
        self.bump();
        Ok(Parsed::Built(atom, span))
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
        match self.peek().map(|t| t.tok.clone()) {
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

    /// `expr` one level above children of height at most `height`.
    fn node(&self, expr: SExpr, height: usize) -> PResult<Node> {
        if height >= MAX_EXPR_DEPTH {
            return self.expr_too_deep();
        }
        Ok((expr, height + 1))
    }

    fn expr_too_deep<T>(&self) -> PResult<T> {
        self.error(format!(
            "expression nests deeper than {MAX_EXPR_DEPTH} levels"
        ))
    }

    fn lambda(&mut self) -> PResult<Node> {
        let start = self.bump(); // backslash
        let mut params = Vec::new();
        loop {
            match self.peek().map(|t| t.tok.clone()) {
                Some(Tok::LIdent(x)) => {
                    params.push(x);
                    self.bump();
                }
                Some(Tok::Underscore) => {
                    params.push(Symbol::fresh("_wild"));
                    self.bump();
                }
                Some(Tok::Arrow) => break,
                _ => return self.error("expected a lambda parameter or `->`"),
            }
        }
        if params.is_empty() {
            return self.error("lambda needs at least one parameter");
        }
        self.expect(Tok::Arrow)?;
        let (body, height) = self.sub_expr()?;
        let span = start.to(body.span());
        self.node(SExpr::Lambda(params, Box::new(body), span), height)
    }

    fn let_expr(&mut self) -> PResult<Node> {
        let start = self.bump(); // let
        let pat = self.pattern()?;
        self.expect(Tok::Equals)?;
        let (bound, h1) = self.sub_expr()?;
        self.expect(Tok::In)?;
        let (body, h2) = self.sub_expr()?;
        let span = start.to(body.span());
        self.node(
            SExpr::Let(pat, Box::new(bound), Box::new(body), span),
            h1.max(h2),
        )
    }

    fn pattern(&mut self) -> PResult<Pattern> {
        match self.peek().map(|t| t.tok.clone()) {
            Some(Tok::LIdent(x)) => {
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
                if self.peek().map(|t| &t.tok) == Some(&Tok::RParen) {
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
        let span = start.to(els.span());
        self.node(
            SExpr::If(Box::new(cond), Box::new(thn), Box::new(els), span),
            h1.max(h2).max(h3),
        )
    }

    /// `case e of { arms }` / `match e with { arms }`.
    fn case_expr(&mut self, separator: Tok) -> PResult<Node> {
        let start = self.bump(); // case/match
        let (scrutinee, mut height) = self.nested_expr(Self::pipe_expr)?;
        self.expect(separator)?;
        self.expect(Tok::LBrace)?;
        let mut arms = Vec::new();
        loop {
            let (arm, h) = self.arm()?;
            arms.push(arm);
            height = height.max(h);
            match self.peek().map(|t| t.tok.clone()) {
                Some(Tok::Comma) => {
                    self.bump();
                    // allow trailing comma
                    if self.peek().map(|t| &t.tok) == Some(&Tok::RBrace) {
                        break;
                    }
                }
                Some(Tok::RBrace) => break,
                _ => return self.error("expected `,` or `}` after case arm"),
            }
        }
        let end = self.expect(Tok::RBrace)?;
        self.node(
            SExpr::Case(Box::new(scrutinee), arms, start.to(end)),
            height,
        )
    }

    /// A case arm with the height of its body.
    fn arm(&mut self) -> PResult<(SArm, usize)> {
        let (tag, start) = self.uident()?;
        let mut binders = Vec::new();
        loop {
            match self.peek().map(|t| t.tok.clone()) {
                Some(Tok::LIdent(x)) => {
                    binders.push(x);
                    self.bump();
                }
                Some(Tok::Underscore) => {
                    binders.push(Symbol::fresh("_wild"));
                    self.bump();
                }
                _ => break,
            }
        }
        self.expect(Tok::Arrow)?;
        let (body, height) = self.sub_expr()?;
        let span = start.to(body.span());
        let arm = SArm {
            tag,
            binders,
            body,
            span,
        };
        Ok((arm, height))
    }

    /// `e |> f |> g` — reverse application, lowest precedence,
    /// left-associative: `x |> f |> g` is `g (f x)`.
    fn pipe_expr(&mut self) -> PResult<Node> {
        let (mut lhs, mut height) = self.or_expr()?;
        while self.cont_tok() == Some(&Tok::PipeGt) {
            self.bump();
            // The right operand of |> may itself be a lambda/let/etc.
            let (rhs, h) = match self.peek().map(|t| t.tok.clone()) {
                Some(Tok::Backslash) => self.lambda()?,
                _ => self.or_expr()?,
            };
            let span = lhs.span().to(rhs.span());
            (lhs, height) = self.node(
                SExpr::App(Box::new(rhs), Box::new(lhs), span),
                height.max(h),
            )?;
        }
        Ok((lhs, height))
    }

    fn or_expr(&mut self) -> PResult<Node> {
        self.left_assoc(&[(Tok::OrOr, "||")], Self::and_expr)
    }

    fn and_expr(&mut self) -> PResult<Node> {
        self.left_assoc(&[(Tok::AndAnd, "&&")], Self::cmp_expr)
    }

    fn cmp_expr(&mut self) -> PResult<Node> {
        let lhs = self.add_expr()?;
        let op = match self.cont_tok() {
            Some(Tok::EqEq) => "==",
            Some(Tok::Neq) => "/=",
            Some(Tok::Lt) => "<",
            Some(Tok::Le) => "<=",
            Some(Tok::Gt) => ">",
            Some(Tok::Ge) => ">=",
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        self.binop(op, lhs, rhs)
    }

    fn add_expr(&mut self) -> PResult<Node> {
        self.left_assoc(&[(Tok::Plus, "+"), (Tok::Dash, "-")], Self::mul_expr)
    }

    fn mul_expr(&mut self) -> PResult<Node> {
        self.left_assoc(
            &[(Tok::Star, "*"), (Tok::Slash, "/"), (Tok::Percent, "%")],
            Self::app_expr,
        )
    }

    /// A left-associative chain of `operand`s joined by any of `ops`.
    fn left_assoc(
        &mut self,
        ops: &[(Tok, &str)],
        operand: fn(&mut Self) -> PResult<Node>,
    ) -> PResult<Node> {
        let mut lhs = operand(self)?;
        while let Some(&(_, op)) = ops.iter().find(|(tok, _)| self.cont_tok() == Some(tok)) {
            self.bump();
            let rhs = operand(self)?;
            lhs = self.binop(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn binop(&self, op: &str, (lhs, h1): Node, (rhs, h2): Node) -> PResult<Node> {
        let span = lhs.span().to(rhs.span());
        self.node(
            SExpr::BinOp(Symbol::intern(op), Box::new(lhs), Box::new(rhs), span),
            h1.max(h2),
        )
    }

    fn app_expr(&mut self) -> PResult<Node> {
        let (mut head, mut height) = self.atom()?;
        loop {
            if self.starts_expr_atom() {
                let (arg, h) = self.atom()?;
                let span = head.span().to(arg.span());
                (head, height) = self.node(
                    SExpr::App(Box::new(head), Box::new(arg), span),
                    height.max(h),
                )?;
            } else if self.cont_tok() == Some(&Tok::LBracket) {
                self.bump();
                let mut tys = vec![self.surface_ty()?];
                while self.peek().map(|t| &t.tok) == Some(&Tok::Comma) {
                    self.bump();
                    tys.push(self.surface_ty()?);
                }
                let end = self.expect(Tok::RBracket)?;
                let span = head.span().to(end);
                (head, height) = self.node(SExpr::TApp(Box::new(head), tys, span), height)?;
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
        let leaf = match self.peek().map(|t| t.tok.clone()) {
            Some(Tok::IntLit(n)) => SExpr::Lit(Lit::Int(n), self.bump()),
            Some(Tok::CharLit(c)) => SExpr::Lit(Lit::Char(c), self.bump()),
            Some(Tok::StrLit(s)) => SExpr::Lit(Lit::Str(s), self.bump()),
            Some(Tok::LIdent(x)) => SExpr::Var(x, self.bump()),
            Some(Tok::UIdent(c)) => {
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
                if self.peek().map(|t| &t.tok) == Some(&Tok::RParen) {
                    let end = self.bump();
                    return Ok((SExpr::Lit(Lit::Unit, start.to(end)), 1));
                }
                // Parentheses open a level of their own, so deep
                // nesting is refused even where it builds no node.
                let (first, h1) = self.sub_expr()?;
                if self.peek().map(|t| &t.tok) == Some(&Tok::Comma) {
                    self.bump();
                    let (second, h2) = self.sub_expr()?;
                    let end = self.expect(Tok::RParen)?;
                    let pair = SExpr::Pair(Box::new(first), Box::new(second), start.to(end));
                    return self.node(pair, h1.max(h2));
                }
                self.expect(Tok::RParen)?;
                return self.node(first, h1);
            }
            _ => return self.error("expected an expression"),
        };
        Ok((leaf, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_decl() {
        let p = parse_program("protocol IntListP = Nil | Cons Int IntListP").unwrap();
        assert_eq!(p.decls.len(), 1);
        let Decl::Protocol(d) = &p.decls[0] else {
            panic!("expected protocol")
        };
        assert_eq!(d.name.as_str(), "IntListP");
        assert_eq!(d.ctors.len(), 2);
        assert_eq!(d.ctors[1].args.len(), 2);
    }

    #[test]
    fn parses_parameterized_protocol() {
        let p = parse_program("protocol Stream a = Next a (Stream a)").unwrap();
        let Decl::Protocol(d) = &p.decls[0] else {
            panic!()
        };
        assert_eq!(d.params.len(), 1);
        let SType::Name(n, args, _) = &d.ctors[0].args[1] else {
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
        let SType::Out(payload, _, _) = t else {
            panic!("expected an output type")
        };
        let SType::Name(n, args, _) = *payload else {
            panic!("expected an applied name")
        };
        assert_eq!(n.as_str(), "Repeat");
        assert_eq!(args.len(), 1);
        // A parenthesized application is complete: a trailing atom is a
        // parse error, not a curried application.
        assert!(parse_type("(Repeat Int) Bool").is_err());
    }

    #[test]
    fn parses_polarity_in_ctor_args() {
        let p = parse_program("protocol Arith = Neg Int -Int | Add Int Int -Int").unwrap();
        let Decl::Protocol(d) = &p.decls[0] else {
            panic!()
        };
        assert!(matches!(d.ctors[0].args[1], SType::Neg(..)));
        assert_eq!(d.ctors[1].args.len(), 3);
    }

    #[test]
    fn parses_signature_with_forall() {
        let p = parse_program("sendAst : Ast -> forall (s:S). !AstP.s -> s").unwrap();
        let Decl::Signature(sig) = &p.decls[0] else {
            panic!()
        };
        assert_eq!(sig.ty.to_string(), "Ast -> forall (s:S). !AstP.s -> s");
    }

    #[test]
    fn parses_session_types() {
        let t = parse_type("?Repeat Int . !(Char, End!) . End!").unwrap();
        assert_eq!(t.to_string(), "?(Repeat Int).!(Char, End!).End!");
        let t = parse_type("Dual (!Repeat Int. ?(Char, End!). Dual End!)").unwrap();
        assert!(matches!(t, SType::Dual(..)));
    }

    #[test]
    fn parses_negated_payloads() {
        let t = parse_type("?-a.s").unwrap();
        let SType::In(p, _, _) = t else { panic!() };
        assert!(matches!(*p, SType::Neg(..)));
        let t = parse_type("! Stream -a .End!").unwrap();
        let SType::Out(p, _, _) = t else { panic!() };
        let SType::Name(_, args, _) = *p else {
            panic!()
        };
        assert!(matches!(args[0], SType::Neg(..)));
    }

    #[test]
    fn parses_match_with_arms() {
        let e =
            parse_expr("match c with { ConP c -> recvInt [s] c, AddP c -> recvAst [?AstP.s] c }")
                .unwrap();
        let SExpr::Case(_, arms, _) = e else { panic!() };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].binders.len(), 1);
    }

    #[test]
    fn parses_pipe_as_reverse_application() {
        // x |> f |> g  ==  g (f x)
        let e = parse_expr("x |> f |> g").unwrap();
        let SExpr::App(g, fx, _) = e else { panic!() };
        assert!(matches!(*g, SExpr::Var(..)));
        let SExpr::App(f, x, _) = *fx else { panic!() };
        assert!(matches!(*f, SExpr::Var(..)));
        assert!(matches!(*x, SExpr::Var(..)));
    }

    #[test]
    fn parses_type_application_lists() {
        let e = parse_expr("select Next [Int, End!] c").unwrap();
        // select Next [Int,End!] c = App(TApp(Select, [Int, End!]), c)
        let SExpr::App(f, _, _) = e else { panic!() };
        let SExpr::TApp(sel, tys, _) = *f else {
            panic!()
        };
        assert!(matches!(*sel, SExpr::Select(..)));
        assert_eq!(tys.len(), 2);
    }

    #[test]
    fn parses_let_pair() {
        let e = parse_expr("let (x, c) = receive [Int, s] c in (x, c)").unwrap();
        let SExpr::Let(Pattern::Pair(..), _, _, _) = e else {
            panic!()
        };
    }

    #[test]
    fn parses_operators_with_precedence() {
        // 1 + 2 * 3 == 7  parses as  (1 + (2*3)) == 7
        let e = parse_expr("1 + 2 * 3 == 7").unwrap();
        let SExpr::BinOp(eq, lhs, _, _) = e else {
            panic!()
        };
        assert_eq!(eq.as_str(), "==");
        let SExpr::BinOp(plus, _, rhs, _) = *lhs else {
            panic!()
        };
        assert_eq!(plus.as_str(), "+");
        assert!(matches!(*rhs, SExpr::BinOp(..)));
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
        let Decl::Binding(b) = &p.decls[1] else {
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
    fn trailing_comma_in_arms_ok() {
        let e = parse_expr("match c with { A c -> c, B c -> c, }").unwrap();
        let SExpr::Case(_, arms, _) = e else { panic!() };
        assert_eq!(arms.len(), 2);
    }
}
