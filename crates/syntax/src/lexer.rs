//! The AlgST lexer.
//!
//! Hand-written, with line/column tracking (the parser uses a simple layout
//! rule: top-level declarations start at column 1). Supports `--` line
//! comments and `{- … -}` block comments (nestable), and a few Unicode
//! aliases for the paper's notation: `→` for `->`, `λ` for `\`, `∀` for
//! `forall`, `▷` for `|>`. The paper's pair type `T ⊗ U` is not among
//! them: `⊗` is rejected as an unexpected character, and pair types are
//! written as tuples, `(T, U)`.
//!
//! The lexer scans bytes and decodes a char only where the input is not
//! ASCII. Keywords and builtin names are matched on bytes and come out
//! as pre-interned symbols, so only other identifiers take the symbol
//! interner's lock.

use crate::span::Span;
use crate::token::{Tok, Token};
use algst_core::symbol::Symbol;
use std::fmt;

/// A lexical error with its location.
#[derive(Clone, Debug, PartialEq)]
pub struct LexError {
    pub message: String,
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

struct Lexer<'s> {
    src: &'s str,
    /// Byte offset of the next unread character.
    pos: usize,
    line: u32,
    col: u32,
}

/// Tokenizes `src`.
///
/// # Errors
/// Returns a [`LexError`] on unterminated literals/comments or unexpected
/// characters.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let mut lx = Lexer {
        src,
        pos: 0,
        line: 1,
        col: 1,
    };
    lx.run()
}

/// Number of chars in `bytes`: every byte that is not a UTF-8
/// continuation byte starts one.
fn char_count(bytes: &[u8]) -> u32 {
    bytes.iter().filter(|&&b| b & 0xC0 != 0x80).count() as u32
}

impl<'s> Lexer<'s> {
    fn byte_at(&self, offset: usize) -> Option<u8> {
        self.src.as_bytes().get(self.pos + offset).copied()
    }

    /// The next char: ASCII straight from its byte, anything else decoded.
    fn peek(&self) -> Option<char> {
        match self.byte_at(0)? {
            b if b.is_ascii() => Some(char::from(b)),
            _ => self.src[self.pos..].chars().next(),
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Steps over `n` bytes known to be ASCII other than a newline.
    fn skip_ascii(&mut self, n: usize) {
        self.pos += n;
        self.col += n as u32;
    }

    fn error(&self, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            span: Span::new(self.pos, self.pos, self.line, self.col),
        }
    }

    fn run(&mut self) -> Result<Vec<Token>, LexError> {
        // Type strings run at about one token per two bytes.
        let mut out = Vec::with_capacity(self.src.len() / 2 + 1);
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            let (line, col) = (self.line, self.col);
            let Some(b) = self.byte_at(0) else { break };
            let tok = self.next_tok(b)?;
            out.push(Token {
                tok,
                span: Span::new(start, self.pos, line, col),
            });
        }
        Ok(out)
    }

    /// Skips whitespace and comments.
    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.byte_at(0) {
                Some(b'\n') => {
                    self.bump();
                }
                Some(b) if b.is_ascii() && char::from(b).is_whitespace() => self.skip_ascii(1),
                Some(b'-') if self.byte_at(1) == Some(b'-') => {
                    let rest = &self.src.as_bytes()[self.pos..];
                    let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
                    self.col += char_count(&rest[..len]);
                    self.pos += len;
                }
                Some(b'{') if self.byte_at(1) == Some(b'-') => self.block_comment()?,
                Some(b) if !b.is_ascii() && self.peek().is_some_and(char::is_whitespace) => {
                    self.bump();
                }
                _ => return Ok(()),
            }
        }
    }

    fn block_comment(&mut self) -> Result<(), LexError> {
        self.skip_ascii(2); // {-
        let mut depth = 1usize;
        while depth > 0 {
            match self.byte_at(0) {
                None => return Err(self.error("unterminated block comment")),
                Some(b'{') if self.byte_at(1) == Some(b'-') => {
                    self.skip_ascii(2);
                    depth += 1;
                }
                Some(b'-') if self.byte_at(1) == Some(b'}') => {
                    self.skip_ascii(2);
                    depth -= 1;
                }
                Some(b'\n') => {
                    self.bump();
                }
                Some(b) => {
                    self.pos += 1;
                    self.col += char_count(&[b]);
                }
            }
        }
        Ok(())
    }

    fn next_tok(&mut self, b: u8) -> Result<Tok, LexError> {
        match b {
            b'(' => self.single(Tok::LParen),
            b')' => self.single(Tok::RParen),
            b'[' => self.single(Tok::LBracket),
            b']' => self.single(Tok::RBracket),
            b'{' => self.single(Tok::LBrace),
            b'}' => self.single(Tok::RBrace),
            b'.' => self.single(Tok::Dot),
            b',' => self.single(Tok::Comma),
            b':' => self.single(Tok::Colon),
            b'!' => self.single(Tok::Bang),
            b'?' => self.single(Tok::Quest),
            b'+' => self.single(Tok::Plus),
            b'*' => self.single(Tok::Star),
            b'%' => self.single(Tok::Percent),
            b'\\' => self.single(Tok::Backslash),
            b'_' => self.single(Tok::Underscore),
            b'=' => self.one_or_two(b'=', Tok::Equals, Tok::EqEq),
            b'-' => self.one_or_two(b'>', Tok::Dash, Tok::Arrow),
            b'/' => self.one_or_two(b'=', Tok::Slash, Tok::Neq),
            b'<' => self.one_or_two(b'=', Tok::Lt, Tok::Le),
            b'>' => self.one_or_two(b'=', Tok::Gt, Tok::Ge),
            b'&' => {
                self.skip_ascii(1);
                if self.byte_at(0) == Some(b'&') {
                    self.skip_ascii(1);
                    Ok(Tok::AndAnd)
                } else {
                    Err(self.error("expected `&&`"))
                }
            }
            b'|' => {
                self.skip_ascii(1);
                match self.byte_at(0) {
                    Some(b'>') => self.single(Tok::PipeGt),
                    Some(b'|') => self.single(Tok::OrOr),
                    _ => Ok(Tok::Bar),
                }
            }
            b'\'' => self.char_lit(),
            b'"' => self.string_lit(),
            b if b.is_ascii_digit() => self.int_lit(),
            b if b.is_ascii_alphabetic() => Ok(self.ident()),
            b if b.is_ascii() => {
                Err(self.error(format!("unexpected character {:?}", char::from(b))))
            }
            _ => {
                let c = self.peek().expect("non-ASCII byte starts a char");
                match c {
                    'λ' => self.single(Tok::Backslash),
                    '→' => self.single(Tok::Arrow),
                    '▷' => self.single(Tok::PipeGt),
                    '∀' => self.single(Tok::Forall),
                    c if c.is_alphabetic() => Ok(self.ident()),
                    other => Err(self.error(format!("unexpected character {other:?}"))),
                }
            }
        }
    }

    /// Consumes the one-char token just peeked (ASCII or not).
    fn single(&mut self, t: Tok) -> Result<Tok, LexError> {
        self.bump();
        Ok(t)
    }

    fn one_or_two(&mut self, second: u8, one: Tok, two: Tok) -> Result<Tok, LexError> {
        self.skip_ascii(1);
        if self.byte_at(0) == Some(second) {
            self.skip_ascii(1);
            Ok(two)
        } else {
            Ok(one)
        }
    }

    fn int_lit(&mut self) -> Result<Tok, LexError> {
        let start = self.pos;
        while self.byte_at(0).is_some_and(|b| b.is_ascii_digit()) {
            self.skip_ascii(1);
        }
        let text = &self.src[start..self.pos];
        text.parse::<i64>()
            .map(Tok::IntLit)
            .map_err(|_| self.error(format!("integer literal out of range: {text}")))
    }

    fn char_lit(&mut self) -> Result<Tok, LexError> {
        self.bump(); // opening quote
        let c = match self.bump() {
            Some('\\') => match self.bump() {
                Some('n') => '\n',
                Some('t') => '\t',
                Some('\\') => '\\',
                Some('\'') => '\'',
                _ => return Err(self.error("invalid escape in character literal")),
            },
            Some(c) => c,
            None => return Err(self.error("unterminated character literal")),
        };
        match self.bump() {
            Some('\'') => Ok(Tok::CharLit(c)),
            _ => Err(self.error("unterminated character literal")),
        }
    }

    fn string_lit(&mut self) -> Result<Tok, LexError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string literal")),
                Some('"') => return Ok(Tok::StrLit(s)),
                Some('\\') => match self.bump() {
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('\\') => s.push('\\'),
                    Some('"') => s.push('"'),
                    _ => return Err(self.error("invalid escape in string literal")),
                },
                Some(c) => s.push(c),
            }
        }
    }

    fn ident(&mut self) -> Tok {
        let start = self.pos;
        let upper = match self.byte_at(0) {
            Some(b) if b.is_ascii() => b.is_ascii_uppercase(),
            _ => self.peek().is_some_and(char::is_uppercase),
        };
        let ascii_len = self.src.as_bytes()[start..]
            .iter()
            .take_while(|&&b| b.is_ascii_alphanumeric() || b == b'_' || b == b'\'')
            .count();
        self.skip_ascii(ascii_len);
        if self.byte_at(0).is_some_and(|b| !b.is_ascii()) {
            while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_' || c == '\'') {
                self.bump();
            }
        }
        let text = &self.src[start..self.pos];
        // Keywords and builtin names are matched on bytes, so they never
        // reach the interner's lock.
        match text.as_bytes() {
            // `End!` / `End?` fuse with an immediately following bang/quest.
            b"End" if self.byte_at(0) == Some(b'!') => self.single_ascii(Tok::EndBang),
            b"End" if self.byte_at(0) == Some(b'?') => self.single_ascii(Tok::EndQuest),
            b"protocol" => Tok::Protocol,
            b"data" => Tok::Data,
            b"type" => Tok::TypeKw,
            b"forall" => Tok::Forall,
            b"let" => Tok::Let,
            b"in" => Tok::In,
            b"case" => Tok::Case,
            b"of" => Tok::Of,
            b"match" => Tok::Match,
            b"with" => Tok::With,
            b"if" => Tok::If,
            b"then" => Tok::Then,
            b"else" => Tok::Else,
            b"Dual" => Tok::DualKw,
            b"select" => Tok::SelectKw,
            b"Int" => Tok::UIdent(Symbol::INT),
            b"Bool" => Tok::UIdent(Symbol::BOOL),
            b"Char" => Tok::UIdent(Symbol::CHAR),
            b"String" => Tok::UIdent(Symbol::STRING),
            b"Unit" => Tok::UIdent(Symbol::UNIT),
            b"True" => Tok::UIdent(Symbol::TRUE),
            b"False" => Tok::UIdent(Symbol::FALSE),
            _ if upper => Tok::UIdent(Symbol::intern(text)),
            _ => Tok::LIdent(Symbol::intern(text)),
        }
    }

    fn single_ascii(&mut self, t: Tok) -> Tok {
        self.skip_ascii(1);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_protocol_declaration() {
        let ts = toks("protocol IntListP = Nil | Cons Int IntListP");
        assert_eq!(ts[0], Tok::Protocol);
        assert_eq!(ts[1], Tok::UIdent(Symbol::intern("IntListP")));
        assert_eq!(ts[2], Tok::Equals);
        assert!(ts.contains(&Tok::Bar));
    }

    #[test]
    fn lexes_session_type() {
        let ts = toks("!Int.End! -> ?AstP.End?");
        assert_eq!(
            ts,
            vec![
                Tok::Bang,
                Tok::UIdent(Symbol::intern("Int")),
                Tok::Dot,
                Tok::EndBang,
                Tok::Arrow,
                Tok::Quest,
                Tok::UIdent(Symbol::intern("AstP")),
                Tok::Dot,
                Tok::EndQuest,
            ]
        );
    }

    #[test]
    fn end_requires_adjacency() {
        // `End !` with a space is an identifier followed by Bang.
        let ts = toks("End !");
        assert_eq!(ts, vec![Tok::UIdent(Symbol::intern("End")), Tok::Bang]);
    }

    #[test]
    fn pipes_and_operators() {
        let ts = toks("x |> f || y && z | w /= v");
        assert!(ts.contains(&Tok::PipeGt));
        assert!(ts.contains(&Tok::OrOr));
        assert!(ts.contains(&Tok::AndAnd));
        assert!(ts.contains(&Tok::Bar));
        assert!(ts.contains(&Tok::Neq));
    }

    #[test]
    fn comments_are_skipped() {
        let ts = toks("a -- comment\nb {- block {- nested -} -} c");
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn pair_symbol_is_rejected() {
        let err = lex("(Int ⊗ Bool)").unwrap_err();
        assert_eq!(err.message, "unexpected character '⊗'");
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(lex("{- oops").is_err());
    }

    #[test]
    fn literals() {
        let ts = toks("42 'x' \"hi\\n\" True");
        assert_eq!(ts[0], Tok::IntLit(42));
        assert_eq!(ts[1], Tok::CharLit('x'));
        assert_eq!(ts[2], Tok::StrLit("hi\n".into()));
        assert_eq!(ts[3], Tok::UIdent(Symbol::intern("True")));
    }

    #[test]
    fn tracks_columns_for_layout() {
        let tokens = lex("abc\n  def\nghi").unwrap();
        assert_eq!(tokens[0].span.col, 1);
        assert_eq!(tokens[1].span.col, 3);
        assert_eq!(tokens[1].span.line, 2);
        assert_eq!(tokens[2].span.col, 1);
        assert_eq!(tokens[2].span.line, 3);
    }

    #[test]
    fn arrow_vs_dash() {
        assert_eq!(toks("- ->"), vec![Tok::Dash, Tok::Arrow]);
        assert_eq!(
            toks("-Int"),
            vec![Tok::Dash, Tok::UIdent(Symbol::intern("Int"))]
        );
    }

    #[test]
    fn unicode_aliases() {
        assert_eq!(toks("→"), vec![Tok::Arrow]);
        assert_eq!(toks("λ"), vec![Tok::Backslash]);
        assert_eq!(toks("∀"), vec![Tok::Forall]);
        assert_eq!(toks("▷"), vec![Tok::PipeGt]);
    }
}
