//! # structcast-types
//!
//! Semantic type machinery for the structcast pointer-analysis framework
//! (a reproduction of Yong/Horwitz/Reps, *PLDI 1999*):
//!
//! * [`TypeTable`] — hash-consed types plus nominal struct/union records;
//! * [`Layout`] — concrete structure-layout strategies (`ilp32`, `lp64`,
//!   `packed32`) computing `sizeof`/`alignof`/`offsetof`, used by the
//!   paper's non-portable "Offsets" analysis instance;
//! * [`Shape`] and [`LayoutTable`] — each type's leaves, `lookup`
//!   candidates and `followingFields` ranges, and its sizes and offsets
//!   under a layout, built once per [`TypeTable`] and read by the analysis
//!   instances, which name a portable field position by its leaf index;
//! * [`FieldPath`] and friends — field paths and the path-walking
//!   `normalize`, `followingFields` and `lookup` candidates the tables are
//!   checked against;
//! * [`compatible`] — the ISO C *compatible types* relation, in tag-based
//!   and structural modes;
//! * [`common_initial_len`] / [`match_via_cis`] — the common-initial-
//!   sequence machinery behind the most precise portable instance.
//!
//! ```
//! use structcast_types::*;
//!
//! let mut table = TypeTable::new();
//! let int = table.int();
//! let ip = table.pointer_to(int);
//! let f = |n: &str, ty| Field { name: n.into(), ty, anonymous: false };
//! let (s, sty) = table.new_record(Some("S".into()), false);
//! table.complete_record(s, vec![f("s1", ip), f("s2", ip)]);
//!
//! let layout = Layout::ilp32();
//! assert_eq!(layout.size_of(&table, sty), 8);
//! assert_eq!(layout.offset_of(&table, s, 1), 4);
//! assert_eq!(leaves(&table, sty).len(), 2);
//! assert_eq!(table.shape(sty).path(1), &[1]);
//! assert_eq!(table.layout_table(&layout).size_of(sty), 8);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cis;
mod compat;
mod fields;
pub mod idhash;
mod layout;
mod repr;
pub mod rng;
mod shape;

pub use cis::{common_initial_len, match_via_cis, record_type, CisMatch};
pub use compat::{compatible, CompatMode};
pub use fields::{
    enclosing_candidates, following_leaves, leaves, normalize_path, prefix_types, type_of_path,
    FieldPath,
};
pub use layout::Layout;
pub use repr::{Field, FloatKind, FuncSig, IntKind, Record, RecordId, TypeId, TypeKind, TypeTable};
pub use shape::{LayoutTable, Node, Shape};
