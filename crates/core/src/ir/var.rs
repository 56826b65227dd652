//! Variables and small ordered variable sets.
//!
//! Variables are identified by a `u32` id that is unique within a
//! [`Program`](crate::ir::Program); the textual `hint` is carried only for
//! diagnostics and pretty printing and takes no part in equality or
//! hashing.

use std::fmt;
use std::sync::Arc;

/// A variable of the core language.
///
/// Equality and hashing are by [`id`](Var::id) only — two variables with
/// the same id are the same variable regardless of their display hint.
#[derive(Clone)]
pub struct Var {
    id: u32,
    hint: Arc<str>,
}

impl Var {
    /// Creates a variable with the given unique id and display hint.
    pub fn new(id: u32, hint: impl Into<Arc<str>>) -> Self {
        Var {
            id,
            hint: hint.into(),
        }
    }

    /// The unique id of this variable.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The display hint (the source-level name, when one exists).
    pub fn hint(&self) -> &str {
        &self.hint
    }
}

impl PartialEq for Var {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Var {}

impl PartialOrd for Var {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Var {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}

impl std::hash::Hash for Var {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.hint, self.id)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hint.is_empty() {
            write!(f, "_v{}", self.id)
        } else if self.hint.starts_with('_') {
            // Generated temporaries get their id so printouts stay
            // unambiguous.
            write!(f, "{}{}", self.hint, self.id)
        } else {
            write!(f, "{}", self.hint)
        }
    }
}

/// A fresh-variable generator.
///
/// Every pass that introduces variables threads a `VarGen` so that ids stay
/// unique across the whole program. The front end records the next free id
/// in [`Program::var_gen`](crate::ir::Program).
#[derive(Debug, Clone, Default)]
pub struct VarGen {
    next: u32,
}

impl VarGen {
    /// A generator whose first id is `next`.
    pub fn starting_at(next: u32) -> Self {
        VarGen { next }
    }

    /// Returns a fresh variable with the given hint.
    pub fn fresh(&mut self, hint: &str) -> Var {
        self.fresh_shared(hint.into())
    }

    /// Returns a fresh variable whose hint is `hint` itself: a copy of
    /// the pointer, not of the text.
    pub fn fresh_shared(&mut self, hint: Arc<str>) -> Var {
        let id = self.next;
        self.next += 1;
        Var { id, hint }
    }

    /// Returns a fresh variable with `v`'s hint, shared with `v`.
    pub fn fresh_like(&mut self, v: &Var) -> Var {
        self.fresh_shared(v.hint.clone())
    }

    /// The next id that would be handed out.
    pub fn peek(&self) -> u32 {
        self.next
    }

    /// Makes sure the generator will never produce an id `<= id`.
    pub fn reserve(&mut self, id: u32) {
        if self.next <= id {
            self.next = id + 1;
        }
    }
}

/// An ordered set of variables.
///
/// Environments in the Perceus rules (Δ and Γ of Fig. 8) are small — a
/// handful of live variables — so the set is a sorted `Vec`, which is both
/// faster than hashing at this size and gives deterministic iteration
/// order (important for reproducible output code).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct VarSet {
    items: Vec<Var>,
}

impl VarSet {
    /// The empty set.
    pub fn new() -> Self {
        VarSet::default()
    }

    /// Returns true if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Membership test.
    pub fn contains(&self, v: &Var) -> bool {
        self.items.binary_search(v).is_ok()
    }

    /// Inserts `v`; returns true if it was newly added.
    pub fn insert(&mut self, v: Var) -> bool {
        match self.items.binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.items.insert(pos, v);
                true
            }
        }
    }

    /// Removes `v`; returns true if it was present.
    pub fn remove(&mut self, v: &Var) -> bool {
        match self.items.binary_search(v) {
            Ok(pos) => {
                self.items.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates the variables in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = &Var> + '_ {
        self.items.iter()
    }

    /// Set union.
    pub fn union(&self, other: &VarSet) -> VarSet {
        let mut out = self.clone();
        for v in other.iter() {
            out.insert(v.clone());
        }
        out
    }

    /// Set intersection.
    pub fn intersect(&self, other: &VarSet) -> VarSet {
        VarSet {
            items: self
                .items
                .iter()
                .filter(|v| other.contains(v))
                .cloned()
                .collect(),
        }
    }

    /// Set difference `self - other`.
    pub fn difference(&self, other: &VarSet) -> VarSet {
        VarSet {
            items: self
                .items
                .iter()
                .filter(|v| !other.contains(v))
                .cloned()
                .collect(),
        }
    }

    /// Removes and returns all elements as a vector (ascending id order).
    pub fn into_vec(self) -> Vec<Var> {
        self.items
    }
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.items.iter()).finish()
    }
}

impl FromIterator<Var> for VarSet {
    fn from_iter<T: IntoIterator<Item = Var>>(iter: T) -> Self {
        let mut s = VarSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl<'a> IntoIterator for &'a VarSet {
    type Item = &'a Var;
    type IntoIter = std::slice::Iter<'a, Var>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(id: u32) -> Var {
        Var::new(id, format!("x{id}"))
    }

    #[test]
    fn var_equality_is_by_id() {
        assert_eq!(Var::new(1, "a"), Var::new(1, "b"));
        assert_ne!(Var::new(1, "a"), Var::new(2, "a"));
    }

    #[test]
    fn var_display_uses_hint() {
        assert_eq!(Var::new(3, "xs").to_string(), "xs");
        assert_eq!(Var::new(3, "").to_string(), "_v3");
    }

    #[test]
    fn vargen_produces_distinct_ids() {
        let mut g = VarGen::default();
        let a = g.fresh("a");
        let b = g.fresh("a");
        assert_ne!(a, b);
        assert_eq!(g.peek(), 2);
    }

    #[test]
    fn vargen_reserve_skips_ids() {
        let mut g = VarGen::default();
        g.reserve(10);
        assert_eq!(g.fresh("x").id(), 11);
        g.reserve(5); // no-op, already past
        assert_eq!(g.fresh("x").id(), 12);
    }

    #[test]
    fn varset_insert_remove_contains() {
        let mut s = VarSet::new();
        assert!(s.insert(v(2)));
        assert!(s.insert(v(1)));
        assert!(!s.insert(v(2)));
        assert!(s.contains(&v(1)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(&v(1)));
        assert!(!s.remove(&v(1)));
        assert!(!s.contains(&v(1)));
    }

    #[test]
    fn varset_is_ordered() {
        let s: VarSet = [v(3), v(1), v(2)].into_iter().collect();
        let ids: Vec<u32> = s.iter().map(Var::id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn varset_algebra() {
        let a: VarSet = [v(1), v(2), v(3)].into_iter().collect();
        let b: VarSet = [v(2), v(4)].into_iter().collect();
        let u: Vec<u32> = a.union(&b).iter().map(Var::id).collect();
        let i: Vec<u32> = a.intersect(&b).iter().map(Var::id).collect();
        let d: Vec<u32> = a.difference(&b).iter().map(Var::id).collect();
        assert_eq!(u, vec![1, 2, 3, 4]);
        assert_eq!(i, vec![2]);
        assert_eq!(d, vec![1, 3]);
    }
}
