//! Statement and initializer lowering.
//!
//! The analysis is flow-insensitive (paper §1), so control flow is simply
//! walked: every assignment anywhere in the body contributes statements,
//! conditions are lowered for their side effects, and branch structure is
//! otherwise ignored.

use super::{Lowerer, Result};
use crate::ir::*;
use structcast_ast::{BlockItem, ExprKind, ForInit, Initializer, Stmt as AStmt};
use structcast_types::{FieldPath, TypeId, TypeKind};

impl Lowerer<'_> {
    pub(crate) fn lower_stmt(&mut self, s: &AStmt) -> Result<()> {
        match s {
            AStmt::Expr(None) => Ok(()),
            AStmt::Expr(Some(e)) => {
                let _ = self.rvalue(e)?;
                Ok(())
            }
            AStmt::Block(items) => {
                self.push_scope();
                for it in items {
                    match it {
                        BlockItem::Decl(d) => self.lower_local_declaration(d)?,
                        BlockItem::Stmt(s) => self.lower_stmt(s)?,
                    }
                }
                self.pop_scope();
                Ok(())
            }
            AStmt::If { cond, then, els } => {
                let _ = self.rvalue(cond)?;
                self.lower_stmt(then)?;
                if let Some(e) = els {
                    self.lower_stmt(e)?;
                }
                Ok(())
            }
            AStmt::While { cond, body } | AStmt::DoWhile { body, cond } => {
                let _ = self.rvalue(cond)?;
                self.lower_stmt(body)
            }
            AStmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.push_scope();
                match init {
                    Some(ForInit::Decl(d)) => self.lower_local_declaration(d)?,
                    Some(ForInit::Expr(e)) => {
                        let _ = self.rvalue(e)?;
                    }
                    None => {}
                }
                if let Some(c) = cond {
                    let _ = self.rvalue(c)?;
                }
                if let Some(st) = step {
                    let _ = self.rvalue(st)?;
                }
                self.lower_stmt(body)?;
                self.pop_scope();
                Ok(())
            }
            AStmt::Switch { cond, body } => {
                let _ = self.rvalue(cond)?;
                self.lower_stmt(body)
            }
            AStmt::Case(v, inner) => {
                // Case labels are constant expressions; evaluate for
                // diagnostics only.
                let _ = self.const_eval(v);
                self.lower_stmt(inner)
            }
            AStmt::Default(inner) | AStmt::Labeled(_, inner) => self.lower_stmt(inner),
            AStmt::Return(v) => {
                if let Some(e) = v {
                    let val = self.rvalue(e)?;
                    let fid = self.current_fn.expect("return outside function");
                    if let Some(rs) = self.prog.functions[fid.0 as usize].ret_slot {
                        if let super::Val::Obj { obj, path, .. } = &val {
                            self.emit(Stmt::Copy {
                                dst: rs,
                                src: *obj,
                                path: path.clone(),
                            });
                        }
                    }
                }
                Ok(())
            }
            AStmt::Break | AStmt::Continue | AStmt::Goto(_) => Ok(()),
        }
    }

    /// Lowers an initializer for `base.path` of type `ty`.
    ///
    /// Brace lists are matched against the type structure; array element
    /// initializers all land on the representative element; unions take
    /// every listed member conservatively (flow-insensitively they may all
    /// have been the active member at some point — and a brace list only
    /// ever names the first in C89 anyway).
    pub(crate) fn lower_initializer(
        &mut self,
        base: ObjId,
        path: FieldPath,
        ty: TypeId,
        init: &Initializer,
    ) -> Result<()> {
        match init {
            Initializer::Expr(e) => {
                // `char buf[] = "..."`: character data carries no pointers.
                if matches!(e.kind, ExprKind::StrLit(_)) {
                    if let TypeKind::Array(_, _) = self.prog.types.kind(ty) {
                        return Ok(());
                    }
                }
                let v = self.rvalue(e)?;
                let lv = super::LValue::Direct {
                    base,
                    path,
                    ty,
                };
                self.write_lvalue(&lv, &v)
            }
            Initializer::List(items) => {
                let stripped = self.prog.types.strip_arrays(ty);
                match self.prog.types.kind(stripped) {
                    TypeKind::Record(rid) => {
                        let rid = *rid;
                        let fields: Vec<TypeId> = self
                            .prog
                            .types
                            .record(rid)
                            .fields
                            .iter()
                            .map(|f| f.ty)
                            .collect();
                        let is_union = self.prog.types.record(rid).is_union;
                        if matches!(self.prog.types.kind(ty), TypeKind::Array(_, _)) {
                            // Array of aggregates: each item initializes one
                            // (collapsed) element.
                            for item in items {
                                self.lower_initializer(base, path.clone(), stripped, item)?;
                            }
                            return Ok(());
                        }
                        for (i, item) in items.iter().enumerate() {
                            let idx = if is_union { 0 } else { i };
                            if let Some(&fty) = fields.get(idx) {
                                self.lower_initializer(
                                    base,
                                    path.child(idx as u32),
                                    fty,
                                    item,
                                )?;
                            }
                            if is_union {
                                break;
                            }
                        }
                        Ok(())
                    }
                    _ => {
                        // Scalar or array-of-scalar target: every item folds
                        // onto the representative position.
                        for item in items {
                            self.lower_initializer(base, path.clone(), stripped, item)?;
                        }
                        Ok(())
                    }
                }
            }
        }
    }
}
