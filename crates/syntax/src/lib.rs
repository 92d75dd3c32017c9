//! # algst-syntax
//!
//! Concrete syntax for the AlgST language of *Parameterized Algebraic
//! Protocols* (PLDI 2023): lexer, recursive-descent parser and surface AST.
//!
//! The syntax follows the paper's Haskell-inspired examples. A program is a
//! sequence of declarations:
//!
//! ```text
//! protocol Stream a = Next a (Stream a)
//! type Service a = forall (s:S). ?a.s -> s
//!
//! ones : !Stream Int.End! -> Unit
//! ones c = select Next [Int, End!] c |> send [Int, !Stream Int.End!] 1 |> ones
//! ```
//!
//! Parse with [`parser::parse_program`]; resolution and type checking live
//! in the `algst-check` crate.
//!
//! ```
//! let program = algst_syntax::parser::parse_program(
//!     "protocol IntListP = Nil | Cons Int IntListP",
//! ).expect("parses");
//! assert_eq!(program.decls.len(), 1);
//! ```

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod span;
pub mod token;

pub use ast::{Arena, Decl, DeclKind, ExprId, Program, SExpr, SType, Tree, TyId};
pub use parser::{
    parse_expr, parse_program, parse_type, parse_type_with, ParseError, TypeBuilder,
    MAX_EXPR_DEPTH, MAX_TYPE_DEPTH,
};
pub use printer::{
    decl_to_source, expr_eq, expr_to_source, program_eq, program_to_source, type_to_source,
};
pub use span::Span;
