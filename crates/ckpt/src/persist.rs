//! [`Persist`]: one definition per state type, serving save, restore and
//! the state hash alike.
//!
//! A type's checkpoint layout is its ordered field list, written once
//! with [`persist!`](crate::persist!) (structs) or
//! [`persist_enum!`](crate::persist_enum!) (tagged enums). The macros
//! emit both directions from that list through an exhaustive
//! `let Self { … } = self` destructure, so a field that is neither
//! listed nor named in the `skip` list — with its reason — fails to
//! compile. The impls below cover the leaf and container types the
//! state is built from: fixed-width little-endian scalars, `u64` length
//! prefixes for sequences and maps, and one-byte presence flags and
//! enum tags.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use crate::{intern, CkptError, Dec, Enc};

/// Upper bound on capacity reserved from a decoded length prefix, so a
/// corrupt length cannot allocate unboundedly before the decode fails.
const MAX_PREALLOC: usize = 65_536;

/// A checkpointed state type: appends itself to an [`Enc`], and loads
/// itself back in place from a [`Dec`]. Loading in place keeps whatever
/// the type deliberately does not persist (configuration, shared
/// handles), which the restoring side rebuilt from the same config.
pub trait Persist {
    /// Append this value's state.
    fn save(&self, enc: &mut Enc);
    /// Overwrite this value's state with the next encoded value.
    fn load(&mut self, dec: &mut Dec) -> Result<(), CkptError>;
}

/// A [`Persist`] type that decodes from bytes alone, with no prior
/// value — what container elements and optional values need.
pub trait Decode: Persist + Sized {
    /// Decode the next value.
    fn decode(dec: &mut Dec) -> Result<Self, CkptError>;
}

/// `Persist` + `Decode` for a type decoded by value: `load` replaces.
macro_rules! by_value {
    ($ty:ty, |$s:ident, $e:ident| $save:expr, |$d:ident| $decode:expr) => {
        impl Persist for $ty {
            #[inline]
            fn save(&self, $e: &mut Enc) {
                let $s = self;
                $save
            }
            #[inline]
            fn load(&mut self, dec: &mut Dec) -> Result<(), CkptError> {
                *self = Self::decode(dec)?;
                Ok(())
            }
        }
        impl Decode for $ty {
            #[inline]
            fn decode($d: &mut Dec) -> Result<Self, CkptError> {
                $decode
            }
        }
    };
}

by_value!(u8, |v, e| e.u8(*v), |d| d.u8());
by_value!(u32, |v, e| e.u32(*v), |d| d.u32());
by_value!(u64, |v, e| e.u64(*v), |d| d.u64());
by_value!(usize, |v, e| e.usize(*v), |d| d.usize());
by_value!(f64, |v, e| e.f64(*v), |d| d.f64());
by_value!(bool, |v, e| e.bool(*v), |d| d.bool());
by_value!(String, |v, e| e.str(v), |d| d.str());
// Label vocabularies come back through the process-wide interner.
by_value!(&'static str, |v, e| e.str(v), |d| Ok(intern(d.str_ref()?)));

impl<T: Decode> Persist for Option<T> {
    fn save(&self, enc: &mut Enc) {
        match self {
            Some(v) => {
                enc.bool(true);
                v.save(enc);
            }
            None => enc.bool(false),
        }
    }
    fn load(&mut self, dec: &mut Dec) -> Result<(), CkptError> {
        *self = Self::decode(dec)?;
        Ok(())
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(dec: &mut Dec) -> Result<Self, CkptError> {
        Ok(if dec.bool()? {
            Some(T::decode(dec)?)
        } else {
            None
        })
    }
}

/// Length-prefixed sequences: `Vec` and `VecDeque` share one layout.
macro_rules! sequence {
    ($seq:ident, $push:ident) => {
        impl<T: Decode> Persist for $seq<T> {
            fn save(&self, enc: &mut Enc) {
                enc.usize(self.len());
                for v in self {
                    v.save(enc);
                }
            }
            fn load(&mut self, dec: &mut Dec) -> Result<(), CkptError> {
                let n = dec.usize()?;
                self.clear();
                self.reserve(n.min(MAX_PREALLOC));
                for _ in 0..n {
                    self.$push(T::decode(dec)?);
                }
                Ok(())
            }
        }
        impl<T: Decode> Decode for $seq<T> {
            fn decode(dec: &mut Dec) -> Result<Self, CkptError> {
                let mut v = $seq::new();
                v.load(dec)?;
                Ok(v)
            }
        }
    };
}

sequence!(Vec, push);
sequence!(VecDeque, push_back);

impl<K: Decode + Ord, V: Decode> Persist for BTreeMap<K, V> {
    fn save(&self, enc: &mut Enc) {
        enc.usize(self.len());
        for (k, v) in self {
            k.save(enc);
            v.save(enc);
        }
    }
    fn load(&mut self, dec: &mut Dec) -> Result<(), CkptError> {
        let n = dec.usize()?;
        self.clear();
        for _ in 0..n {
            let k = K::decode(dec)?;
            self.insert(k, V::decode(dec)?);
        }
        Ok(())
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(dec: &mut Dec) -> Result<Self, CkptError> {
        let mut m = BTreeMap::new();
        m.load(dec)?;
        Ok(m)
    }
}

impl<T: Decode + Ord> Persist for BTreeSet<T> {
    fn save(&self, enc: &mut Enc) {
        enc.usize(self.len());
        for v in self {
            v.save(enc);
        }
    }
    fn load(&mut self, dec: &mut Dec) -> Result<(), CkptError> {
        let n = dec.usize()?;
        self.clear();
        for _ in 0..n {
            self.insert(T::decode(dec)?);
        }
        Ok(())
    }
}

impl<T: Decode + Ord> Decode for BTreeSet<T> {
    fn decode(dec: &mut Dec) -> Result<Self, CkptError> {
        let mut s = BTreeSet::new();
        s.load(dec)?;
        Ok(s)
    }
}

/// Fixed-size arrays carry no length prefix: the type fixes it.
impl<T: Persist, const N: usize> Persist for [T; N] {
    fn save(&self, enc: &mut Enc) {
        for v in self {
            v.save(enc);
        }
    }
    fn load(&mut self, dec: &mut Dec) -> Result<(), CkptError> {
        for v in self {
            v.load(dec)?;
        }
        Ok(())
    }
}

impl<T: Decode + Copy + Default, const N: usize> Decode for [T; N] {
    fn decode(dec: &mut Dec) -> Result<Self, CkptError> {
        let mut a = [T::default(); N];
        a.load(dec)?;
        Ok(a)
    }
}

macro_rules! tuple {
    ($($t:ident),+) => {
        impl<$($t: Decode),+> Persist for ($($t,)+) {
            #[expect(non_snake_case, reason = "the tuple's type parameters name its elements")]
            fn save(&self, enc: &mut Enc) {
                let ($($t,)+) = self;
                $($t.save(enc);)+
            }
            fn load(&mut self, dec: &mut Dec) -> Result<(), CkptError> {
                *self = Self::decode(dec)?;
                Ok(())
            }
        }
        impl<$($t: Decode),+> Decode for ($($t,)+) {
            fn decode(dec: &mut Dec) -> Result<Self, CkptError> {
                Ok(($($t::decode(dec)?,)+))
            }
        }
    };
}

tuple!(A, B);
tuple!(A, B, C);

/// A shared handle loads into the shared value, so every clone of the
/// handle observes the restored state.
impl<T: Persist> Persist for Rc<RefCell<T>> {
    fn save(&self, enc: &mut Enc) {
        self.borrow().save(enc);
    }
    fn load(&mut self, dec: &mut Dec) -> Result<(), CkptError> {
        self.borrow_mut().load(dec)
    }
}

/// Field codec for an `Option` whose presence the configuration fixes
/// (an optional subsystem): the encoded presence flag must match the
/// live value's, and a present value loads in place, keeping its
/// configuration. Use as `field with dcmaint_ckpt::gated` in
/// [`persist!`](crate::persist!).
pub mod gated {
    use super::*;

    /// Presence flag, then the value when present.
    pub fn save<T: Persist>(v: &Option<T>, enc: &mut Enc) {
        enc.bool(v.is_some());
        if let Some(v) = v {
            v.save(enc);
        }
    }

    /// Inverse of [`save`]; a presence mismatch is a `BadTag`.
    pub fn load<T: Persist>(v: &mut Option<T>, dec: &mut Dec) -> Result<(), CkptError> {
        let present = dec.bool()?;
        match (v, present) {
            (Some(v), true) => v.load(dec),
            (None, false) => Ok(()),
            _ => Err(CkptError::BadTag("presence", u64::from(present))),
        }
    }
}

/// Field codec for a table whose length the configuration fixes (one
/// entry per link, say): a length prefix that must match the live
/// table's, then each element loaded in place. Use as
/// `field with dcmaint_ckpt::fixed_len`.
pub mod fixed_len {
    use super::*;

    /// Length prefix, then every element in order.
    pub fn save<T: Persist>(v: &[T], enc: &mut Enc) {
        enc.usize(v.len());
        super::unprefixed::save(v, enc);
    }

    /// Inverse of [`save`]; a length mismatch is a `BadTag`.
    pub fn load<T: Persist>(v: &mut [T], dec: &mut Dec) -> Result<(), CkptError> {
        let n = dec.usize()?;
        if n != v.len() {
            return Err(CkptError::BadTag("table-length", n as u64));
        }
        super::unprefixed::load(v, dec)
    }
}

/// Field codec for a table that shares an earlier table's length
/// prefix: elements only, each loaded in place over the live table's
/// own length. Use as `field with dcmaint_ckpt::unprefixed`.
pub mod unprefixed {
    use super::*;

    /// Every element, in order.
    pub fn save<T: Persist>(v: &[T], enc: &mut Enc) {
        for x in v {
            x.save(enc);
        }
    }

    /// Inverse of [`save`].
    pub fn load<T: Persist>(v: &mut [T], dec: &mut Dec) -> Result<(), CkptError> {
        for x in v {
            x.load(dec)?;
        }
        Ok(())
    }
}

/// Implement [`Persist`] for a struct from its ordered field list — the
/// checkpoint layout, written once:
///
/// ```text
/// persist!(Ticket { id, link, trigger, priority, created, state, closed, attempts });
/// persist!(TicketBoard { next_id, tickets, open_by_link }
///     skip { journal: "event sink; the engine attaches its own" });
/// persist!(TraceStore { enabled, traces }
///     skip { by_ticket: "derived index" } then reindex);
/// persist!(SimTime(us));
/// ```
///
/// Fields save and load in list order; `field with path::to::codec`
/// routes one field through `codec::save`/`codec::load` instead (see
/// [`gated`], [`fixed_len`], [`unprefixed`]). Every field must appear in the list or in
/// `skip`, with the reason it is not state — the impl destructures
/// `Self` exhaustively, so an unlisted field is a compile error.
/// `then method` runs `self.method()` after a load (rebuilding derived
/// indexes). A type with no `skip` list and no `with` fields also gets
/// [`Decode`]: every field is state, so the bytes alone rebuild it.
#[macro_export]
macro_rules! persist {
    (@save $enc:ident $f:ident) => {
        $crate::Persist::save($f, $enc)
    };
    (@save $enc:ident $f:ident $($codec:ident)::+) => {
        $($codec)::+::save($f, $enc)
    };
    (@load $dec:ident $f:ident) => {
        $crate::Persist::load($f, $dec)?
    };
    (@load $dec:ident $f:ident $($codec:ident)::+) => {
        $($codec)::+::load($f, $dec)?
    };
    // Tuple struct: positional fields, named for the destructure.
    ($ty:ident ( $($f:ident),+ $(,)? )) => {
        impl $crate::Persist for $ty {
            #[inline]
            fn save(&self, enc: &mut $crate::Enc) {
                let $ty($($f),+) = self;
                $($crate::Persist::save($f, enc);)+
            }
            #[inline]
            fn load(&mut self, dec: &mut $crate::Dec) -> Result<(), $crate::CkptError> {
                let $ty($($f),+) = self;
                $($crate::Persist::load($f, dec)?;)+
                Ok(())
            }
        }
        impl $crate::Decode for $ty {
            #[inline]
            fn decode(dec: &mut $crate::Dec) -> Result<Self, $crate::CkptError> {
                Ok($ty($({
                    let $f = $crate::Decode::decode(dec)?;
                    $f
                }),+))
            }
        }
    };
    // All fields are state: also decodable from bytes alone.
    ($ty:ident { $($f:ident),+ $(,)? }) => {
        $crate::persist!($ty { $($f),+ } skip {});
        impl $crate::Decode for $ty {
            fn decode(dec: &mut $crate::Dec) -> Result<Self, $crate::CkptError> {
                // Struct-literal fields evaluate in the order written.
                Ok($ty { $($f: $crate::Decode::decode(dec)?),+ })
            }
        }
    };
    ($ty:ident { $($f:ident $(with $($codec:ident)::+)?),+ $(,)? }
        $(skip { $($s:ident: $why:literal),* $(,)? })?
        $(then $fix:ident)?
    ) => {
        impl $crate::Persist for $ty {
            fn save(&self, enc: &mut $crate::Enc) {
                let $ty { $($f,)+ $($($s: _,)*)? } = self;
                $($crate::persist!(@save enc $f $($($codec)::+)?);)+
            }
            fn load(&mut self, dec: &mut $crate::Dec) -> Result<(), $crate::CkptError> {
                let $ty { $($f,)+ $($($s: _,)*)? } = self;
                $($crate::persist!(@load dec $f $($($codec)::+)?);)+
                $(self.$fix();)?
                Ok(())
            }
        }
    };
}

/// Implement [`Persist`] and [`Decode`] for an enum from a table of
/// one-byte tags — unit, tuple and struct variants alike:
///
/// ```text
/// persist_enum!(LinkHealth: "link-health" { 0 => Up, 1 => Degraded, 2 => Flapping, 3 => Down });
/// persist_enum!(Ev: "event" { 0 => Fault, 1 => SelfHeal { link, epoch }, /* … */ });
/// persist_enum!(Detail: "trace-detail" { 0 => Plain(note), 1 => HandsOn { executor, travel, phases, residue } });
/// ```
///
/// The tag precedes the variant's fields, which save and load in the
/// order listed. The save side matches exhaustively, so a new variant
/// without a tag fails to compile; an unknown tag on decode is
/// `CkptError::BadTag(name, tag)`.
#[macro_export]
macro_rules! persist_enum {
    (@pat $v:ident) => { Self::$v };
    (@pat $v:ident { $($f:ident),* }) => { Self::$v { $($f),* } };
    (@pat $v:ident ( $($f:ident),* )) => { Self::$v ( $($f),* ) };
    (@new $dec:ident $v:ident) => { Self::$v };
    (@new $dec:ident $v:ident { $($f:ident),* }) => {
        Self::$v { $($f: $crate::Decode::decode($dec)?),* }
    };
    (@new $dec:ident $v:ident ( $($f:ident),* )) => {
        Self::$v ($({
            let $f = $crate::Decode::decode($dec)?;
            $f
        }),*)
    };
    ($ty:ident: $name:literal {
        $($tag:literal => $v:ident $({ $($sf:ident),* $(,)? })? $(( $($tf:ident),* $(,)? ))?),+ $(,)?
    }) => {
        impl $crate::Persist for $ty {
            #[inline]
            fn save(&self, enc: &mut $crate::Enc) {
                match self {
                    $($crate::persist_enum!(@pat $v $({ $($sf),* })? $(( $($tf),* ))?) => {
                        enc.u8($tag);
                        $($($crate::Persist::save($sf, enc);)*)?
                        $($($crate::Persist::save($tf, enc);)*)?
                    })+
                }
            }
            #[inline]
            fn load(&mut self, dec: &mut $crate::Dec) -> Result<(), $crate::CkptError> {
                *self = <Self as $crate::Decode>::decode(dec)?;
                Ok(())
            }
        }
        impl $crate::Decode for $ty {
            #[inline]
            fn decode(dec: &mut $crate::Dec) -> Result<Self, $crate::CkptError> {
                Ok(match dec.u8()? {
                    $($tag => $crate::persist_enum!(@new dec $v $({ $($sf),* })? $(( $($tf),* ))?),)+
                    t => return Err($crate::CkptError::BadTag($name, u64::from(t))),
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shape {
        Dot,
        Line(u32),
        Box { w: u32, h: u32 },
    }

    crate::persist_enum!(Shape: "shape" {
        0 => Dot,
        1 => Line(len),
        2 => Box { w, h },
    });

    #[derive(Debug, PartialEq)]
    struct Item {
        name: &'static str,
        shape: Shape,
        tags: Vec<u64>,
    }

    crate::persist!(Item { shape, name, tags });

    #[derive(Debug, PartialEq)]
    struct Holder {
        cfg: u32,
        items: BTreeMap<u64, Item>,
        extra: Option<Item>,
        table: Vec<f64>,
    }

    crate::persist!(Holder {
        items,
        extra with crate::gated,
        table with crate::fixed_len,
    } skip { cfg: "configuration" });

    fn encode(v: &impl Persist) -> Vec<u8> {
        let mut enc = Enc::new();
        v.save(&mut enc);
        enc.into_bytes()
    }

    fn holder(cfg: u32) -> Holder {
        let item = |n, s| Item {
            name: n,
            shape: s,
            tags: vec![1, 2],
        };
        Holder {
            cfg,
            items: [(3, item("a", Shape::Dot)), (9, item("b", Shape::Line(4)))]
                .into_iter()
                .collect(),
            extra: Some(item("c", Shape::Box { w: 2, h: 5 })),
            table: vec![0.5, -1.0],
        }
    }

    #[test]
    fn field_list_round_trips_and_keeps_skipped_fields() {
        let src = holder(1);
        let bytes = encode(&src);
        let mut dst = Holder {
            cfg: 7,
            items: BTreeMap::new(),
            extra: Some(Item {
                name: "",
                shape: Shape::Dot,
                tags: vec![],
            }),
            table: vec![0.0; 2],
        };
        let mut dec = Dec::new(&bytes);
        dst.load(&mut dec).unwrap();
        assert!(dec.is_exhausted());
        assert_eq!(dst.cfg, 7, "skipped fields keep the live value");
        assert_eq!((dst.items, dst.extra, dst.table), {
            let h = holder(7);
            (h.items, h.extra, h.table)
        });
    }

    #[test]
    fn field_order_is_the_list_order() {
        let item = Item {
            name: "x",
            shape: Shape::Line(7),
            tags: vec![],
        };
        let mut want = Enc::new();
        want.u8(1);
        want.u32(7);
        want.str("x");
        want.usize(0);
        assert_eq!(encode(&item), want.into_bytes());
        assert_eq!(Item::decode(&mut Dec::new(&encode(&item))).unwrap(), item);
    }

    #[test]
    fn malformed_input_is_a_bad_tag() {
        assert_eq!(
            Shape::decode(&mut Dec::new(&[3])),
            Err(CkptError::BadTag("shape", 3))
        );
        // Presence must match the live value's.
        let mut none = holder(0);
        none.extra = None;
        let bytes = encode(&holder(0));
        assert_eq!(
            none.load(&mut Dec::new(&bytes)),
            Err(CkptError::BadTag("presence", 1))
        );
        // A fixed-length table must match the live length.
        let mut short = holder(0);
        short.table.pop();
        assert_eq!(
            short.load(&mut Dec::new(&bytes)),
            Err(CkptError::BadTag("table-length", 2))
        );
    }

    #[test]
    fn link_indices_are_bounded_on_request() {
        let bytes = encode(&16u64);
        assert_eq!(Dec::new(&bytes).link_index(), Ok(16));
        assert_eq!(
            Dec::new(&bytes).with_link_count(16).link_index(),
            Err(CkptError::BadTag("link-id", 16))
        );
    }

    #[test]
    fn usize_max_sentinel_survives() {
        let bytes = encode(&usize::MAX);
        assert_eq!(bytes, u64::MAX.to_le_bytes());
        assert_eq!(usize::decode(&mut Dec::new(&bytes)), Ok(usize::MAX));
    }
}
