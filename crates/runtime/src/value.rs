//! Runtime values.
//!
//! Following Koka's data representation, integers and unit are
//! unboxed, arity-0 constructors are tagged immediates ("singletons" —
//! `Nil`, `Leaf`, `True` never allocate), and everything else is a
//! reference into the [`Heap`](crate::heap::Heap).
//!
//! A [`Value`] is a 16-byte enum: that is its form in registers, on the
//! machine's value stack and in every signature. A block's fields are
//! stored as 9-byte [`Field`]s instead — a tag byte and a 64-bit
//! payload, which keeps a full-width `Int` and an address's 32-bit
//! generation — so the heap spends 9 bytes per field where a `Value`
//! spends 16.

use perceus_core::ir::{CtorId, FunId};
use std::fmt;

/// A generation-checked heap address.
///
/// The generation is bumped every time a cell is freed, so a stale
/// address can never be confused with the cell's next tenant. Every heap
/// operation validates the generation, which turns any use-after-free in
/// generated code into a deterministic runtime error instead of silent
/// corruption — the dynamic counterpart of the paper's soundness theorem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Addr {
    pub(crate) index: u32,
    pub(crate) gen: u32,
}

impl Addr {
    /// High bit of `index`: set for blocks in the thread-shared segment
    /// ([`crate::heap::shared::SharedHeap`]); clear for thread-local
    /// blocks. The two segments therefore share one address space and
    /// one `Value::Ref` representation, and the fast/slow split of
    /// §2.7.2 is a single branch on this bit plus the header sign.
    pub(crate) const SHARED_BIT: u32 = 1 << 31;

    /// The slot index (for diagnostics).
    pub fn index(self) -> u32 {
        self.index
    }

    /// True when this address points into the thread-shared segment.
    pub fn is_shared(self) -> bool {
        self.index & Self::SHARED_BIT != 0
    }

    /// Builds a shared-segment address for `slot`, stamped with the
    /// slot's generation (bumped when the slot's storage is reclaimed,
    /// so a stale shared address fails deterministically even across a
    /// hypothetical slot reuse).
    pub(crate) fn shared(slot: u32, gen: u32) -> Addr {
        debug_assert!(slot & Self::SHARED_BIT == 0, "shared segment overflow");
        Addr {
            index: slot | Self::SHARED_BIT,
            gen,
        }
    }

    /// The slot index within the shared segment.
    pub(crate) fn shared_slot(self) -> usize {
        (self.index & !Self::SHARED_BIT) as usize
    }

    /// `index | gen << 32`: the payload of a stored reference.
    #[inline(always)]
    const fn to_bits(self) -> u64 {
        self.index as u64 | (self.gen as u64) << 32
    }

    #[inline(always)]
    const fn from_bits(bits: u64) -> Addr {
        Addr {
            index: bits as u32,
            gen: (bits >> 32) as u32,
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_shared() {
            write!(f, "0x{:x}s", self.shared_slot())
        } else {
            write!(f, "0x{:x}g{}", self.index, self.gen)
        }
    }
}

/// A machine value: 16 bytes in registers and frames (a block stores
/// it as a 9-byte [`Field`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Value {
    /// The unit value.
    #[default]
    Unit,
    /// Unboxed integer.
    Int(i64),
    /// A singleton (arity-0) constructor — an immediate, never counted.
    Enum(CtorId),
    /// A heap block: constructor, closure, or mutable reference.
    Ref(Addr),
    /// A top-level function used as a value (globals are not counted).
    Global(FunId),
    /// A reuse token (§2.4): memory to build into, or null.
    Token(Option<Addr>),
    /// A weak reference to a *shared-segment* block (the CIRC-style
    /// `Weak` of §2.7.3's cycle scenario): owns one weak count, never
    /// keeps the block alive, and upgrades to a strong reference only
    /// while the block still lives — deterministically failing once it
    /// is dead. The runtime mints these via
    /// [`crate::heap::SharedHeap::downgrade`]; surface programs never
    /// construct them.
    Weak(Addr),
    /// The hole of a constructor recursion compiled as a loop (tail
    /// recursion modulo cons): the block whose last field the loop's
    /// next value fills. Not a reference and not counted — the block is
    /// owned through the chain from the context's root — so it is never
    /// a root, and it is never stored in a block.
    Hole(Addr),
}

impl Value {
    /// True for values that participate in reference counting.
    pub fn is_ref(&self) -> bool {
        matches!(self, Value::Ref(_))
    }

    /// The address, if this is a heap reference.
    pub fn addr(&self) -> Option<Addr> {
        match self {
            Value::Ref(a) => Some(*a),
            _ => None,
        }
    }

    /// Interprets the value as a boolean (the built-in `bool` type).
    pub fn as_bool(&self) -> Option<bool> {
        use perceus_core::ir::TypeTable;
        match self {
            Value::Enum(c) if *c == TypeTable::TRUE => Some(true),
            Value::Enum(c) if *c == TypeTable::FALSE => Some(false),
            _ => None,
        }
    }

    /// Interprets the value as an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => f.write_str("()"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Enum(c) => write!(f, "#{}", c.0),
            Value::Ref(a) => write!(f, "@{a}"),
            Value::Global(g) => write!(f, "fun{}", g.0),
            Value::Token(Some(a)) => write!(f, "ru@{a}"),
            Value::Token(None) => f.write_str("ru@NULL"),
            Value::Weak(a) => write!(f, "weak@{a}"),
            Value::Hole(a) => write!(f, "hole@{a}"),
        }
    }
}

/// A block field as the heap stores it: a tag byte and a 64-bit
/// payload, packed into 9 bytes. References (`Ref`, `Token(Some)`,
/// `Weak`, and `Hole`, which no block holds) store `index | gen << 32`,
/// `Int` its full 64 bits, `Enum` and `Global` their ids; `Unit` and
/// `Token(None)` store only the tag (payload 0, so equal values have
/// equal fields). Encoding is lossless: `Field::new(v).value() == v`
/// for every `v`.
///
/// The struct is packed, so its payload is read by value, never by
/// reference.
#[repr(C, packed)]
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Field {
    tag: u8,
    bits: u64,
}

const _: () = assert!(std::mem::size_of::<Field>() == 9);
const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Field {
    const REF: u8 = 0;
    const INT: u8 = 1;
    const ENUM: u8 = 2;
    const GLOBAL: u8 = 3;
    const UNIT: u8 = 4;
    const TOKEN_NONE: u8 = 5;
    const TOKEN_SOME: u8 = 6;
    const WEAK: u8 = 7;
    const HOLE: u8 = 8;

    /// Encodes `v` (losslessly).
    #[inline(always)]
    pub const fn new(v: Value) -> Field {
        let (tag, bits) = match v {
            Value::Ref(a) => (Self::REF, a.to_bits()),
            Value::Int(i) => (Self::INT, i as u64),
            Value::Enum(c) => (Self::ENUM, c.0 as u64),
            Value::Global(g) => (Self::GLOBAL, g.0 as u64),
            Value::Unit => (Self::UNIT, 0),
            Value::Token(None) => (Self::TOKEN_NONE, 0),
            Value::Token(Some(a)) => (Self::TOKEN_SOME, a.to_bits()),
            Value::Weak(a) => (Self::WEAK, a.to_bits()),
            Value::Hole(a) => (Self::HOLE, a.to_bits()),
        };
        Field { tag, bits }
    }

    /// Decodes the stored value. Every branch is inline, so the value
    /// is built in registers and stored straight into its destination:
    /// a branch left out of line returns it through a stack temporary,
    /// and reloading 16 bytes just written as narrower stores stalls
    /// store forwarding on every field (measured 15–40 % slower on the
    /// match-heavy suite programs).
    #[inline(always)]
    pub fn value(&self) -> Value {
        let bits = self.bits;
        match self.tag {
            Self::REF => Value::Ref(Addr::from_bits(bits)),
            Self::INT => Value::Int(bits as i64),
            Self::ENUM => Value::Enum(CtorId(bits as u32)),
            Self::GLOBAL => Value::Global(FunId(bits as u32)),
            Self::UNIT => Value::Unit,
            Self::TOKEN_NONE => Value::Token(None),
            Self::TOKEN_SOME => Value::Token(Some(Addr::from_bits(bits))),
            Self::WEAK => Value::Weak(Addr::from_bits(bits)),
            Self::HOLE => Value::Hole(Addr::from_bits(bits)),
            tag => unreachable!("field tag {tag} is never encoded"),
        }
    }

    /// The address, if this field holds a (strong) heap reference.
    #[inline(always)]
    pub fn addr(&self) -> Option<Addr> {
        let bits = self.bits;
        (self.tag == Self::REF).then_some(Addr::from_bits(bits))
    }

    /// The address, if this field holds a weak reference.
    #[inline(always)]
    pub fn weak(&self) -> Option<Addr> {
        let bits = self.bits;
        (self.tag == Self::WEAK).then_some(Addr::from_bits(bits))
    }
}

impl fmt::Debug for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.value(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perceus_core::ir::TypeTable;

    #[test]
    fn every_value_round_trips_through_a_field() {
        let addrs = [
            Addr { index: 0, gen: 0 },
            Addr {
                index: 7,
                gen: u32::MAX,
            },
            Addr::shared(5, 3),
            Addr {
                index: u32::MAX,
                gen: u32::MAX,
            },
        ];
        let mut values = vec![
            Value::Unit,
            Value::Token(None),
            Value::Enum(CtorId(0)),
            Value::Enum(CtorId(u32::MAX)),
            Value::Global(FunId(0)),
            Value::Global(FunId(u32::MAX)),
        ];
        for i in [i64::MIN, -1, 0, 1, i64::MAX] {
            values.push(Value::Int(i));
        }
        for a in addrs {
            values.extend([
                Value::Ref(a),
                Value::Token(Some(a)),
                Value::Weak(a),
                Value::Hole(a),
            ]);
        }
        for &v in &values {
            let f = Field::new(v);
            assert_eq!(f.value(), v, "{v:?}");
            assert_eq!(f.addr(), v.addr(), "{v:?}");
            let weak = match v {
                Value::Weak(a) => Some(a),
                _ => None,
            };
            assert_eq!(f.weak(), weak, "{v:?}");
        }
        // Distinct values encode to distinct fields, so comparing
        // fields compares values.
        for (i, &a) in values.iter().enumerate() {
            for &b in &values[i + 1..] {
                assert_ne!(Field::new(a), Field::new(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn bool_interpretation() {
        assert_eq!(Value::Enum(TypeTable::TRUE).as_bool(), Some(true));
        assert_eq!(Value::Enum(TypeTable::FALSE).as_bool(), Some(false));
        assert_eq!(Value::Int(1).as_bool(), None);
    }

    #[test]
    fn only_refs_are_counted() {
        assert!(Value::Ref(Addr { index: 0, gen: 0 }).is_ref());
        assert!(!Value::Int(3).is_ref());
        assert!(!Value::Enum(CtorId(4)).is_ref());
        assert!(!Value::Global(FunId(0)).is_ref());
    }
}
