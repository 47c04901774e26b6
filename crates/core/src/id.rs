//! Typed, zero-cost entity identifiers.
//!
//! Every entity table in a [`crate::Dataset`] is a dense `Vec`; an id is the
//! row index wrapped in a newtype so that, e.g., a [`WorkerId`] can never be
//! used to index the batches table. Ids are `u32` (the paper's full dataset
//! has 27M instances — comfortably within range) to keep hot row types small,
//! per the smaller-integers guidance in the Rust performance guide.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Wraps a raw row index.
            #[inline]
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Wraps a `usize` row index, panicking if it exceeds `u32::MAX`.
            #[inline]
            pub fn from_usize(index: usize) -> Self {
                Self(u32::try_from(index).expect("entity table exceeds u32::MAX rows"))
            }

            /// Returns the raw `u32` index.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// Returns the index as `usize`, for direct table indexing.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

define_id!(
    /// Identifier of a crowd worker (paper §2.3 "worker ID").
    WorkerId, "w"
);
define_id!(
    /// Identifier of a distinct task type — the deduplicated "unit of work
    /// issued across time and batches" (paper §2, task vs. task instance).
    TaskTypeId, "t"
);
define_id!(
    /// Identifier of a batch of task instances issued together (paper §2).
    BatchId, "b"
);
define_id!(
    /// Identifier of a single task instance — one worker's unit of work.
    InstanceId, "i"
);
define_id!(
    /// Identifier of the item a question operates on (paper §2.3 "item ID").
    /// Item ids are scoped to a batch's task type, so two workers answering
    /// the same `(batch, item)` pair judged the same underlying datum.
    ItemId, "m"
);
define_id!(
    /// Identifier of a labor source feeding workers into the marketplace
    /// (paper §5.1; the marketplace aggregates 139 sources).
    SourceId, "s"
);
define_id!(
    /// Identifier of a worker's country (paper Fig. 28: 148 countries).
    CountryId, "c"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_raw() {
        let id = WorkerId::new(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.index(), 42usize);
        assert_eq!(usize::from(id), 42usize);
    }

    #[test]
    fn from_usize_roundtrips() {
        let id = BatchId::from_usize(123_456);
        assert_eq!(id.index(), 123_456);
    }

    #[test]
    #[should_panic(expected = "u32::MAX")]
    fn from_usize_overflow_panics() {
        let _ = InstanceId::from_usize(u32::MAX as usize + 1);
    }

    #[test]
    fn display_and_debug_carry_tag() {
        assert_eq!(format!("{}", SourceId::new(7)), "s7");
        assert_eq!(format!("{:?}", ItemId::new(9)), "m9");
        assert_eq!(format!("{}", TaskTypeId::new(0)), "t0");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(CountryId::new(1) < CountryId::new(2));
        let mut v = vec![WorkerId::new(3), WorkerId::new(1), WorkerId::new(2)];
        v.sort();
        assert_eq!(v, vec![WorkerId::new(1), WorkerId::new(2), WorkerId::new(3)]);
    }

    #[test]
    fn ids_are_small() {
        assert_eq!(std::mem::size_of::<WorkerId>(), 4);
        assert_eq!(std::mem::size_of::<Option<()>>(), 1);
    }

    #[test]
    fn ids_usable_as_map_keys() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(BatchId::new(5), "five");
        assert_eq!(m[&BatchId::new(5)], "five");
    }
}
