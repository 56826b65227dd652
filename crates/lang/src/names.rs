//! The name table: the lexer interns every identifier once, and the
//! phases after it compare, hash and index names as `u32`s.
//!
//! A handful of names the phases ask about by meaning — the builtins,
//! the primitive type names, `_`, `borrow` and `bool`'s constructors —
//! are interned first, at fixed [`Sym`]s, so no phase looks at text.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// An interned name: an index into the [`Names`] of its program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// The builtin `println`; the builtins are `Sym(0)` to `Sym(5)`.
    pub const PRINTLN: Sym = Sym(0);
    /// `ref`: the builtin that allocates a reference, and the type name.
    pub const REF: Sym = Sym(1);
    pub const TSHARE: Sym = Sym(2);
    pub const NOT: Sym = Sym(3);
    pub const MIN: Sym = Sym(4);
    pub const MAX: Sym = Sym(5);
    /// `_`, the wildcard pattern.
    pub const WILDCARD: Sym = Sym(6);
    pub const INT: Sym = Sym(7);
    pub const UNIT: Sym = Sym(8);
    pub const BOOL: Sym = Sym(9);
    /// `borrow`, the soft keyword of a borrowed parameter.
    pub const BORROW: Sym = Sym(10);
    pub const FALSE: Sym = Sym(11);
    pub const TRUE: Sym = Sym(12);
}

/// The text of the names at the fixed [`Sym`]s, in order.
const PRELUDE: [&str; 13] = [
    "println", "ref", "tshare", "not", "min", "max", "_", "int", "unit", "bool", "borrow", "False",
    "True",
];

/// Every name of one source, each stored once.
#[derive(Debug, Clone)]
pub struct Names {
    texts: Vec<Arc<str>>,
    /// The `Sym` of each text. Names come from sources the daemon takes
    /// from outside, so the map keeps std's keyed hash.
    index: HashMap<Arc<str>, Sym>,
}

impl Default for Names {
    fn default() -> Self {
        Names::new()
    }
}

impl Names {
    /// A table holding the fixed names only.
    pub fn new() -> Self {
        static PRELUDE_TEXTS: OnceLock<Vec<Arc<str>>> = OnceLock::new();
        let prelude = PRELUDE_TEXTS.get_or_init(|| PRELUDE.iter().map(|&t| Arc::from(t)).collect());
        // The suite programs have 40 names each besides these.
        let mut names = Names {
            texts: Vec::with_capacity(64),
            index: HashMap::with_capacity(64),
        };
        for text in prelude {
            names.insert(text.clone());
        }
        names
    }

    /// The name spelled `text`, added if new.
    pub fn intern(&mut self, text: &str) -> Sym {
        match self.index.get(text) {
            Some(&s) => s,
            None => self.insert(Arc::from(text)),
        }
    }

    fn insert(&mut self, text: Arc<str>) -> Sym {
        let s = Sym(self.texts.len() as u32);
        self.texts.push(text.clone());
        self.index.insert(text, s);
        s
    }

    /// The name spelled `text`, if the table holds it.
    pub fn lookup(&self, text: &str) -> Option<Sym> {
        self.index.get(text).copied()
    }

    /// The text of `s`.
    pub fn text(&self, s: Sym) -> &str {
        &self.texts[s.0 as usize]
    }

    /// The text of `s` as the table holds it, for the core program's
    /// names and variable hints to share.
    pub fn shared(&self, s: Sym) -> &Arc<str> {
        &self.texts[s.0 as usize]
    }

    /// The number of names; every `Sym` of the table is below it.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// Always false: the fixed names are always present.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }
}

/// What each name means at a point of a body: a per-[`Sym`] table of the
/// innermost binding. Binding logs what it replaced, so a scope is left
/// by rewinding the log to the length it had on entry.
pub(crate) struct Scope<T> {
    current: Vec<Option<T>>,
    undo: Vec<(Sym, Option<T>)>,
}

impl<T> Scope<T> {
    /// An empty scope over the names of a table of `names` entries.
    pub(crate) fn new(names: usize) -> Self {
        Scope {
            current: std::iter::repeat_with(|| None).take(names).collect(),
            undo: Vec::new(),
        }
    }

    /// The innermost binding of `s`.
    pub(crate) fn get(&self, s: Sym) -> Option<&T> {
        self.current[s.0 as usize].as_ref()
    }

    /// Binds `s` to `v`, shadowing its binding until the scope is left.
    pub(crate) fn bind(&mut self, s: Sym, v: T) {
        let old = self.current[s.0 as usize].replace(v);
        self.undo.push((s, old));
    }

    /// The point to [`leave`](Self::leave) back to.
    pub(crate) fn enter(&self) -> usize {
        self.undo.len()
    }

    /// Undoes every binding made since `mark` was entered.
    pub(crate) fn leave(&mut self, mark: usize) {
        while self.undo.len() > mark {
            let (s, old) = self.undo.pop().expect("longer than mark");
            self.current[s.0 as usize] = old;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_names_are_interned_first() {
        let mut names = Names::new();
        for (i, text) in PRELUDE.iter().enumerate() {
            assert_eq!(names.intern(text), Sym(i as u32));
        }
        assert_eq!(names.text(Sym::BORROW), "borrow");
        let xs = names.intern("xs");
        assert_eq!(names.intern("xs"), xs);
        assert_eq!(names.lookup("xs"), Some(xs));
        assert_eq!(names.lookup("ys"), None);
        assert_eq!(names.len(), PRELUDE.len() + 1);
        // Past the table's first capacity, every name is still found.
        let syms: Vec<Sym> = (0..1_000).map(|i| names.intern(&format!("n{i}"))).collect();
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(names.lookup(&format!("n{i}")), Some(*s));
            assert_eq!(names.text(*s), format!("n{i}"));
        }
        assert_eq!(names.lookup("xs"), Some(xs));
    }

    #[test]
    fn scopes_shadow_and_rewind() {
        let mut names = Names::new();
        let (x, y) = (names.intern("x"), names.intern("y"));
        let mut scope = Scope::new(names.len());
        scope.bind(x, 1);
        let mark = scope.enter();
        scope.bind(x, 2);
        scope.bind(y, 3);
        assert_eq!((scope.get(x), scope.get(y)), (Some(&2), Some(&3)));
        scope.leave(mark);
        assert_eq!((scope.get(x), scope.get(y)), (Some(&1), None));
    }
}
