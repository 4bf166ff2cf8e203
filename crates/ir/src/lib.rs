//! # structcast-ir
//!
//! Lowering of C programs to the five normalized assignment forms of
//! *"Pointer Analysis for Programs with Structures and Casting"*
//! (Yong/Horwitz/Reps, PLDI 1999, §2):
//!
//! ```text
//! 1.  s = (τ)&t.β        4.  s = (τ)*q
//! 2.  s = (τ)&(*p).α     5.  *p = (τ_p)t
//! 3.  s = (τ)t.β
//! ```
//!
//! plus three safe extensions (pointer arithmetic, `memcpy`-style bulk
//! copies, and indirect calls resolved during solving). Casts never appear
//! explicitly: each compiler temporary carries the type it was cast to, so
//! the analysis phase only consults declared object types.
//!
//! ## Quickstart
//!
//! ```
//! use structcast_ir::lower_source;
//!
//! // The paper's §3 worked example.
//! let prog = lower_source(r#"
//!     struct S { int *s1; int *s2; } s;
//!     int x, y, *p;
//!     void main(void) {
//!         s.s1 = &x;
//!         s.s2 = &y;
//!         p = s.s1;
//!     }
//! "#)?;
//! assert!(prog.assignment_count() >= 7); // temporaries introduced
//! assert!(prog.object_by_name("x").is_some());
//! # Ok::<(), structcast_ir::LowerError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ir;
mod lower;

pub use ir::{Callee, FuncId, Function, ObjId, ObjKind, Object, Program, Stmt, StmtId};
pub use lower::{lower, lower_source, LowerError, Result, MAX_TYPE_DEPTH};

#[cfg(test)]
mod tests;
