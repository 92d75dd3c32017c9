//! Interned identifiers.
//!
//! All names in the system — type variables, protocol names, constructor
//! tags, term variables — are interned [`Symbol`]s, so comparison and
//! hashing are O(1). The interner is global and leaks its strings, which is
//! the standard trade-off for compiler-style workloads. Each thread keeps
//! a bounded cache of the names it has interned in front of it, so the
//! lexer's identifier tokens do not all take the global lock: concurrent
//! parses (a server's workers) would contend on it.

use crate::store::MixState;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned string. Cheap to copy, compare and hash.
///
/// ```
/// use algst_core::symbol::Symbol;
/// let a = Symbol::intern("Cons");
/// let b = Symbol::intern("Cons");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "Cons");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    names: Vec<&'static str>,
    map: HashMap<&'static str, u32>,
    fresh: u32,
}

/// Declares the pre-interned names: each `NAME = "text"` becomes the
/// constant `Symbol::NAME`, interned at a fixed index before anything
/// else, so the lexer and the elaborator compare against it without
/// touching the interner's lock.
macro_rules! pre_interned {
    ($($name:ident = $text:literal,)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        #[repr(u32)]
        enum Pre { $($name),* }

        /// The names behind the pre-interned constants, in index order.
        const BUILTINS: &[&str] = &[$($text),*];

        impl Symbol {
            $(pub const $name: Symbol = Symbol(Pre::$name as u32);)*
        }
    };
}

pre_interned! {
    // Builtin type and constructor names.
    INT = "Int",
    BOOL = "Bool",
    CHAR = "Char",
    STRING = "String",
    UNIT = "Unit",
    TRUE = "True",
    FALSE = "False",
    // Session constants (paper Fig. 4).
    FORK = "fork",
    NEW = "new",
    RECEIVE = "receive",
    SEND = "send",
    WAIT = "wait",
    TERMINATE = "terminate",
    // Named builtins.
    NEGATE = "negate",
    NOT = "not",
    PRINT_INT = "printInt",
    PRINT_STR = "printStr",
    INT_TO_STR = "intToStr",
    // Binary operators.
    OP_ADD = "+",
    OP_SUB = "-",
    OP_MUL = "*",
    OP_DIV = "/",
    OP_MOD = "%",
    OP_EQ = "==",
    OP_NEQ = "/=",
    OP_LT = "<",
    OP_LEQ = "<=",
    OP_GT = ">",
    OP_GEQ = ">=",
    OP_AND = "&&",
    OP_OR = "||",
    // The binder every `_` parameter or pattern stands for: the `%`
    // keeps it apart from source identifiers, and the printer shows it
    // as `_`. Nothing can refer to it, so all wildcards share it.
    WILD = "_%",
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            names: BUILTINS.to_vec(),
            map: (0u32..)
                .zip(BUILTINS.iter().copied())
                .map(|(i, s)| (s, i))
                .collect(),
            fresh: 0,
        })
    })
}

/// Names a thread's cache holds before it starts over (about 50 KiB): a
/// generated module brings a few new names, and the common ones come
/// back after a start-over at one lock each.
const NEAR_CAP: usize = 1024;

thread_local! {
    /// The names this thread interned most recently, with their symbols.
    static NEAR: RefCell<HashMap<&'static str, Symbol, MixState>> = RefCell::default();
}

impl Symbol {
    /// Interns `name`, returning the canonical symbol for it.
    pub fn intern(name: &str) -> Symbol {
        if let Ok(Some(sym)) = NEAR.try_with(|near| near.borrow().get(name).copied()) {
            return sym;
        }
        let (text, sym) = {
            let mut i = interner().lock().expect("interner poisoned");
            match i.map.get_key_value(name) {
                Some((&text, &id)) => (text, Symbol(id)),
                None => {
                    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
                    let id = i.names.len() as u32;
                    i.names.push(leaked);
                    i.map.insert(leaked, id);
                    (leaked, Symbol(id))
                }
            }
        };
        // A thread being torn down has no cache left to fill.
        let _ = NEAR.try_with(|near| {
            let mut near = near.borrow_mut();
            if near.len() >= NEAR_CAP {
                near.clear();
            }
            near.insert(text, sym);
        });
        sym
    }

    /// Returns a fresh symbol guaranteed to be distinct from every symbol
    /// interned so far. Used for capture-avoiding substitution.
    ///
    /// The name is derived from `base` for readability in error messages.
    pub fn fresh(base: &str) -> Symbol {
        let n = {
            let mut i = interner().lock().expect("interner poisoned");
            i.fresh += 1;
            i.fresh
        };
        // '%' cannot appear in source identifiers, so no collision with
        // user-written names is possible.
        Symbol::intern(&format!("{base}%{n}"))
    }

    /// How many names the process has interned: none is ever freed.
    pub fn interned() -> usize {
        interner().lock().expect("interner poisoned").names.len()
    }

    /// The string this symbol stands for.
    pub fn as_str(&self) -> &'static str {
        let i = interner().lock().expect("interner poisoned");
        i.names[self.0 as usize]
    }

    /// Strips the freshness suffix, if any, for user-facing display.
    pub fn base_name(&self) -> &'static str {
        let s = self.as_str();
        match s.find('%') {
            Some(ix) => &s[..ix],
            None => s,
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(Symbol::intern("x"), Symbol::intern("x"));
        assert_ne!(Symbol::intern("x"), Symbol::intern("y"));
    }

    #[test]
    fn builtin_constants_are_interned() {
        for (sym, name) in [
            (Symbol::INT, "Int"),
            (Symbol::FALSE, "False"),
            (Symbol::FORK, "fork"),
            (Symbol::INT_TO_STR, "intToStr"),
            (Symbol::OP_ADD, "+"),
            (Symbol::OP_OR, "||"),
        ] {
            assert_eq!(Symbol::intern(name), sym);
            assert_eq!(sym.as_str(), name);
        }
        for (i, name) in BUILTINS.iter().enumerate() {
            assert_eq!(Symbol::intern(name), Symbol(i as u32));
        }
    }

    #[test]
    fn threads_agree_past_their_caches() {
        let first = Symbol::intern("near-first");
        // Overflow this thread's cache: it starts over, and every name
        // still maps to its one symbol.
        let names: Vec<String> = (0..NEAR_CAP + 10).map(|i| format!("near-{i}")).collect();
        let syms: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        assert_eq!(Symbol::intern("near-first"), first);
        let other = std::thread::spawn(move || {
            assert_eq!(Symbol::intern("near-first"), first);
            names.iter().map(|n| Symbol::intern(n)).collect::<Vec<_>>()
        });
        assert_eq!(other.join().unwrap(), syms);
        assert_eq!(syms[7].as_str(), "near-7");
    }

    #[test]
    fn fresh_symbols_are_distinct() {
        let a = Symbol::fresh("x");
        let b = Symbol::fresh("x");
        assert_ne!(a, b);
        assert_eq!(a.base_name(), "x");
    }

    #[test]
    fn display_roundtrip() {
        let s = Symbol::intern("Stream");
        assert_eq!(s.to_string(), "Stream");
        assert_eq!(format!("{s:?}"), "`Stream`");
    }
}
