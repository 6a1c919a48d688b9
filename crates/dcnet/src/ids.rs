//! Typed index identifiers.
//!
//! Every entity in the network lives in a `Vec` owned by [`Topology`] or
//! [`NetState`](crate::state::NetState) and is referred to by a typed index.
//! Newtypes (rather than bare `usize`) make it a compile error to index the
//! link table with a port id — the classic simulator bug — at zero runtime
//! cost.
//!
//! [`Topology`]: crate::topology::Topology

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Construct from a table index.
            pub fn from_index(i: usize) -> Self {
                $name(i as u32)
            }

            /// The table index.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// A stable `u64` key (for metrics maps).
            pub fn key(self) -> u64 {
                u64::from(self.0)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }
    };
}

id_type!(
    /// A node: switch or server. Index into [`Topology::nodes`](crate::topology::Topology).
    NodeId
);
id_type!(
    /// A physical port on a node. Index into the topology port table.
    PortId
);
id_type!(
    /// A bidirectional link (port pair + cable). Index into the link table.
    LinkId
);
id_type!(
    /// A rack position in the hall grid.
    RackId
);
id_type!(
    /// A row of racks.
    RowId
);
id_type!(
    /// A cable-tray segment (shared physical pathway).
    TraySegmentId
);

/// Ids persist as their `u64` key; `$dec.$index()` reads it back.
macro_rules! persist_id {
    ($name:ident, |$dec:ident| $index:expr) => {
        impl dcmaint_ckpt::Persist for $name {
            #[inline]
            fn save(&self, enc: &mut dcmaint_ckpt::Enc) {
                enc.u64(self.key());
            }
            #[inline]
            fn load(&mut self, dec: &mut dcmaint_ckpt::Dec) -> Result<(), dcmaint_ckpt::CkptError> {
                *self = dcmaint_ckpt::Decode::decode(dec)?;
                Ok(())
            }
        }
        impl dcmaint_ckpt::Decode for $name {
            #[inline]
            fn decode($dec: &mut dcmaint_ckpt::Dec) -> Result<Self, dcmaint_ckpt::CkptError> {
                Ok($name::from_index($index))
            }
        }
    };
}

// A link id is the one id a snapshot hands straight to table indexing,
// so it is range-checked against the topology's link count on decode
// (`Dec::with_link_count`).
persist_id!(LinkId, |d| d.link_index()?);
persist_id!(NodeId, |d| d.u64()? as usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let id = LinkId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.key(), 42);
        assert_eq!(id, LinkId(42));
    }

    #[test]
    fn display_is_tagged() {
        assert_eq!(PortId(7).to_string(), "PortId#7");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId(1) < NodeId(2));
    }
}
