//! Checking a module interns no name that its source does not spell:
//! every `_` binder is one pre-interned name, and the binders that
//! η-expansion of a partial constructor supplies are numbered within
//! their binding and interned once per number. Names are never freed, so a long-running server
//! on `check` traffic would otherwise grow with every request.
//!
//! One test in a binary of its own: no other test interns meanwhile.

use algst_check::cache::ModuleCache;
use algst_check::check_source_in;
use algst_core::symbol::Symbol;
use algst_core::Session;

/// Wildcard parameters of a lambda, of an equation and of a case arm,
/// and a constructor missing two arguments.
const SRC: &str = r#"
data Tree = Leaf | Node Tree Int Tree

konst : Int -> Int
konst = \_ -> 7

first : Int -> Unit -> Int
first x _ = x

depth : Tree -> Int
depth t = case t of { Leaf -> 0, Node _ n _ -> n }

grow : Tree -> Int -> Tree -> Tree
grow = Node

graft : Int -> Tree -> Tree
graft = Node Leaf

main : Int
main = first (konst (depth (graft 1 Leaf))) ()
"#;

#[test]
fn checking_a_module_again_interns_no_name() {
    let mut session = Session::new();
    let check = |session: &mut Session| {
        check_source_in(session, SRC).expect("the module checks");
        let (verdict, hit) = ModuleCache::new().check_source(session, SRC);
        assert_eq!(verdict, Ok(()));
        assert!(!hit);
    };
    check(&mut session);
    let names = Symbol::interned();
    for _ in 0..1000 {
        check(&mut session);
    }
    assert_eq!(Symbol::interned(), names, "checking again interned names");
}
