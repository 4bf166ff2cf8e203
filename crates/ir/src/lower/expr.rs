//! Expression and lvalue lowering.
//!
//! Every assignment in the source decomposes into the paper's five forms by
//! introducing temporaries. For example `s.s1 = &x` becomes
//! `tmp1 = &s.s1; tmp2 = &x; *tmp1 = tmp2` — exactly the normalization shown
//! in the paper's §3 worked example.

use super::{LowerError, Lowerer, Resolved, Result};
use crate::ir::*;
use structcast_ast::{AssignOp, BinOp, Expr, ExprKind, UnOp};
use structcast_types::{FieldPath, TypeId, TypeKind};

/// The value of an expression, as far as pointer analysis cares.
#[derive(Debug, Clone)]
pub(crate) enum Val {
    /// The value stored in `obj.path`, of static type `ty`.
    Obj {
        /// Holding object.
        obj: ObjId,
        /// Field path within it.
        path: FieldPath,
        /// Static type of the value.
        ty: TypeId,
    },
    /// A value that cannot carry a pointer created by `&`/allocation
    /// (integer literals, comparison results, `sizeof`, ...).
    Scalar(TypeId),
}

impl Val {
    pub(crate) fn ty(&self) -> TypeId {
        match self {
            Val::Obj { ty, .. } => *ty,
            Val::Scalar(t) => *t,
        }
    }
}

/// A resolved lvalue.
#[derive(Debug, Clone)]
pub(crate) enum LValue {
    /// `base.path` — a direct variable access.
    Direct {
        base: ObjId,
        path: FieldPath,
        /// Type of the lvalue itself.
        ty: TypeId,
    },
    /// `(*ptr).path` — an access through a pointer.
    Indirect {
        ptr: ObjId,
        path: FieldPath,
        ty: TypeId,
    },
}

impl LValue {
    fn ty(&self) -> TypeId {
        match self {
            LValue::Direct { ty, .. } | LValue::Indirect { ty, .. } => *ty,
        }
    }
}

impl Lowerer<'_> {
    /// Lowers an expression for its value, emitting any needed statements.
    pub(crate) fn rvalue(&mut self, e: &Expr) -> Result<Val> {
        let v = self.rvalue_nodecay(e)?;
        Ok(self.decay(v))
    }

    /// Array-to-pointer decay (applied in all rvalue contexts; `&` and
    /// `sizeof` use [`Lowerer::lvalue`] directly and are unaffected).
    fn decay(&mut self, v: Val) -> Val {
        if let Val::Obj { obj, path, ty } = &v {
            if let TypeKind::Array(elem, _) = self.prog.types.kind(*ty) {
                let pt = self.prog.types.pointer_to(*elem);
                let t = self.new_temp(pt);
                self.emit(Stmt::AddrOf {
                    dst: t,
                    src: *obj,
                    path: path.clone(),
                });
                return Val::Obj {
                    obj: t,
                    path: FieldPath::empty(),
                    ty: pt,
                };
            }
        }
        v
    }

    /// Materializes a value into a top-level object (for `Store` sources,
    /// call arguments, etc.). `Scalar` values yield `None`.
    pub(crate) fn materialize(&mut self, v: &Val) -> Option<ObjId> {
        match v {
            Val::Obj { obj, path, ty } => {
                if path.is_empty() {
                    Some(*obj)
                } else {
                    let t = self.new_temp(*ty);
                    self.emit(Stmt::Copy {
                        dst: t,
                        src: *obj,
                        path: path.clone(),
                    });
                    Some(t)
                }
            }
            Val::Scalar(_) => None,
        }
    }

    /// Like [`Lowerer::materialize`] but always produces an object (scalars
    /// get a fact-free temp), for contexts that need one (indirect-call
    /// argument lists).
    pub(crate) fn materialize_always(&mut self, v: &Val) -> ObjId {
        match self.materialize(v) {
            Some(o) => o,
            None => self.new_temp(v.ty()),
        }
    }

    fn rvalue_nodecay(&mut self, e: &Expr) -> Result<Val> {
        self.cur_span = e.span;
        let int = self.prog.types.int();
        match &e.kind {
            ExprKind::IntLit(_) | ExprKind::CharLit(_) => Ok(Val::Scalar(int)),
            ExprKind::FloatLit(_) => {
                let d = self.prog.types.double();
                Ok(Val::Scalar(d))
            }
            &ExprKind::StrLit(s) => {
                // A fresh string-literal object; its address is the value.
                let s = self.text(s);
                let ch = self.prog.types.char();
                let arr = self.prog.types.array_of(ch, Some(s.len() as u64 + 1));
                let lit = self.new_object(
                    format!("\"{}\"", truncate(s, 16)),
                    arr,
                    ObjKind::StringLit,
                );
                let cp = self.prog.types.char_ptr();
                let t = self.new_temp(cp);
                self.emit(Stmt::AddrOf {
                    dst: t,
                    src: lit,
                    path: FieldPath::empty(),
                });
                Ok(Val::Obj {
                    obj: t,
                    path: FieldPath::empty(),
                    ty: cp,
                })
            }
            &ExprKind::Ident(name) => match self.resolve_ident(name) {
                Some(Resolved::Obj(obj)) => Ok(Val::Obj {
                    obj,
                    path: FieldPath::empty(),
                    ty: self.prog.type_of(obj),
                }),
                Some(Resolved::Func(fid)) => Ok(self.function_value(fid)),
                Some(Resolved::EnumConst(_)) => Ok(Val::Scalar(int)),
                None => Err(LowerError::new(
                    format!("use of undeclared identifier `{}`", self.text(name)),
                    e.span,
                )),
            },
            ExprKind::Unary(UnOp::AddrOf, inner) => self.lower_addr_of(inner),
            ExprKind::Unary(UnOp::Deref, _) | ExprKind::Member(_, _, _) | ExprKind::Index(_, _) => {
                let lv = self.lvalue(e)?;
                self.read_lvalue(&lv)
            }
            ExprKind::Unary(UnOp::PreInc, inner) | ExprKind::Unary(UnOp::PreDec, inner) => {
                self.lower_incdec(inner)
            }
            ExprKind::PostIncDec(inner, _) => self.lower_incdec(inner),
            ExprKind::Unary(op, inner) => {
                // -e, +e, !e, ~e: arithmetic on a pointer spreads (§4.2.1);
                // on non-pointers there is no pointer value at all.
                let v = self.rvalue(inner)?;
                match (op, &v) {
                    (UnOp::Plus, _) => Ok(v),
                    (UnOp::Not, _) => Ok(Val::Scalar(int)),
                    (_, Val::Obj { ty, .. }) if self.prog.types.is_pointer(*ty) => {
                        Ok(self.ptr_arith_result(&v))
                    }
                    _ => Ok(Val::Scalar(v.ty())),
                }
            }
            ExprKind::Binary(op, a, b) => self.lower_binary(*op, a, b),
            ExprKind::Assign(op, lhs, rhs) => self.lower_assign(*op, lhs, rhs),
            ExprKind::Cond(c, t, f) => {
                let _ = self.rvalue(c)?;
                let vt = self.rvalue(t)?;
                let vf = self.rvalue(f)?;
                match (&vt, &vf) {
                    (Val::Scalar(_), Val::Scalar(_)) => Ok(Val::Scalar(vt.ty())),
                    _ => {
                        // Flow-insensitive join: a temp receiving both arms.
                        let ty = if matches!(vt, Val::Obj { .. }) {
                            vt.ty()
                        } else {
                            vf.ty()
                        };
                        let tmp = self.new_temp(ty);
                        for v in [&vt, &vf] {
                            if let Val::Obj { obj, path, .. } = v {
                                self.emit(Stmt::Copy {
                                    dst: tmp,
                                    src: *obj,
                                    path: path.clone(),
                                });
                            }
                        }
                        Ok(Val::Obj {
                            obj: tmp,
                            path: FieldPath::empty(),
                            ty,
                        })
                    }
                }
            }
            ExprKind::Cast(ast_ty, inner) => {
                let alloc_before = self.last_alloc;
                let v = self.rvalue(inner)?;
                let ty = self.build_type(ast_ty)?;
                // `(struct T *)malloc(...)`: refine the fresh heap block's
                // element type from the cast when `sizeof` didn't reveal it.
                if matches!(inner.kind, ExprKind::Call(_, _)) && self.last_alloc != alloc_before {
                    if let (Some(heap), Some(pointee)) =
                        (self.last_alloc, self.prog.types.pointee(ty))
                    {
                        if self.heap_type_is_fallback(heap) {
                            let refined = self.prog.types.array_of(pointee, None);
                            self.prog.objects[heap.0 as usize].ty = refined;
                        }
                    }
                }
                match v {
                    Val::Scalar(_) => Ok(Val::Scalar(ty)),
                    Val::Obj { ty: vty, .. } if vty == ty => Ok(v),
                    Val::Obj { obj, path, .. } => {
                        // The cast is captured by the temp's declared type;
                        // the copy it implies is sized by that type (rule 3).
                        let t = self.new_temp(ty);
                        self.emit(Stmt::Copy {
                            dst: t,
                            src: obj,
                            path,
                        });
                        Ok(Val::Obj {
                            obj: t,
                            path: FieldPath::empty(),
                            ty,
                        })
                    }
                }
            }
            ExprKind::Call(fexpr, args) => self.lower_call(fexpr, args, e.span),
            ExprKind::SizeofExpr(_) | ExprKind::SizeofType(_) => {
                let ul = self.prog.types.ulong();
                Ok(Val::Scalar(ul))
            }
            ExprKind::Comma(a, b) => {
                let _ = self.rvalue(a)?;
                self.rvalue(b)
            }
        }
    }

    /// `&f` / `f` used as a value: a temp holding the function's address.
    pub(crate) fn function_value(&mut self, fid: FuncId) -> Val {
        let f = &self.prog.functions[fid.0 as usize];
        let fobj = f.obj;
        let fnty = f.ty;
        let pt = self.prog.types.pointer_to(fnty);
        let t = self.new_temp(pt);
        self.emit(Stmt::AddrOf {
            dst: t,
            src: fobj,
            path: FieldPath::empty(),
        });
        Val::Obj {
            obj: t,
            path: FieldPath::empty(),
            ty: pt,
        }
    }

    fn lower_addr_of(&mut self, inner: &Expr) -> Result<Val> {
        // &f where f is a function: same as plain f.
        if let ExprKind::Ident(name) = inner.kind {
            if let Some(Resolved::Func(fid)) = self.resolve_ident(name) {
                return Ok(self.function_value(fid));
            }
        }
        let lv = self.lvalue(inner)?;
        let lty = lv.ty();
        let pt = self.prog.types.pointer_to(lty);
        match lv {
            LValue::Direct { base, path, .. } => {
                let t = self.new_temp(pt);
                self.emit(Stmt::AddrOf {
                    dst: t,
                    src: base,
                    path,
                });
                Ok(Val::Obj {
                    obj: t,
                    path: FieldPath::empty(),
                    ty: pt,
                })
            }
            LValue::Indirect { ptr, path, .. } => {
                if path.is_empty() {
                    // &*p ≡ p
                    Ok(Val::Obj {
                        obj: ptr,
                        path: FieldPath::empty(),
                        ty: self.prog.type_of(ptr),
                    })
                } else {
                    let t = self.new_temp(pt);
                    self.emit(Stmt::AddrField {
                        dst: t,
                        ptr,
                        path,
                    });
                    Ok(Val::Obj {
                        obj: t,
                        path: FieldPath::empty(),
                        ty: pt,
                    })
                }
            }
        }
    }

    fn ptr_arith_result(&mut self, v: &Val) -> Val {
        match v {
            Val::Obj { ty, .. } => {
                let src = self
                    .materialize(v)
                    .expect("pointer value always materializes");
                let t = self.new_temp(*ty);
                self.emit(Stmt::PtrArith { dst: t, src });
                Val::Obj {
                    obj: t,
                    path: FieldPath::empty(),
                    ty: *ty,
                }
            }
            Val::Scalar(t) => Val::Scalar(*t),
        }
    }

    fn lower_binary(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Result<Val> {
        let va = self.rvalue(a)?;
        let vb = self.rvalue(b)?;
        let int = self.prog.types.int();
        if op.is_comparison() {
            return Ok(Val::Scalar(int));
        }
        let a_ptr = self.prog.types.is_pointer(va.ty());
        let b_ptr = self.prog.types.is_pointer(vb.ty());
        match (a_ptr, b_ptr) {
            // p - q: pointer difference is an integer.
            (true, true) if op == BinOp::Sub => Ok(Val::Scalar(int)),
            // Arithmetic moving a pointer: the result may point to any
            // normalized position of the outermost enclosing object
            // (Assumption 1 + §4.2.1).
            (true, _) => Ok(self.ptr_arith_result(&va)),
            (_, true) => Ok(self.ptr_arith_result(&vb)),
            _ => Ok(Val::Scalar(va.ty())),
        }
    }

    fn lower_incdec(&mut self, inner: &Expr) -> Result<Val> {
        let lv = self.lvalue(inner)?;
        let v = self.read_lvalue(&lv)?;
        if self.prog.types.is_pointer(v.ty()) {
            let moved = self.ptr_arith_result(&v);
            self.write_lvalue(&lv, &moved)?;
            Ok(moved)
        } else {
            Ok(Val::Scalar(v.ty()))
        }
    }

    fn lower_assign(&mut self, op: AssignOp, lhs: &Expr, rhs: &Expr) -> Result<Val> {
        let lv = self.lvalue(lhs)?;
        let v = self.rvalue(rhs)?;
        let v = match op {
            AssignOp::Simple => v,
            AssignOp::Add | AssignOp::Sub => {
                // p += i moves p; i += p (weird) also yields a spread value.
                let cur = self.read_lvalue(&lv)?;
                if self.prog.types.is_pointer(cur.ty()) {
                    self.ptr_arith_result(&cur)
                } else if self.prog.types.is_pointer(v.ty()) {
                    self.ptr_arith_result(&v)
                } else {
                    Val::Scalar(cur.ty())
                }
            }
            _ => {
                // Bitwise/shift compound assignments: if the current value is
                // a pointer, the result is arithmetic on it (spread).
                let cur = self.read_lvalue(&lv)?;
                if self.prog.types.is_pointer(cur.ty()) {
                    self.ptr_arith_result(&cur)
                } else {
                    Val::Scalar(cur.ty())
                }
            }
        };
        self.write_lvalue(&lv, &v)?;
        Ok(v)
    }

    // ----- lvalues -----

    pub(crate) fn lvalue(&mut self, e: &Expr) -> Result<LValue> {
        self.cur_span = e.span;
        match &e.kind {
            &ExprKind::Ident(name) => match self.resolve_ident(name) {
                Some(Resolved::Obj(obj)) => Ok(LValue::Direct {
                    base: obj,
                    path: FieldPath::empty(),
                    ty: self.prog.type_of(obj),
                }),
                Some(Resolved::Func(fid)) => {
                    let f = &self.prog.functions[fid.0 as usize];
                    Ok(LValue::Direct {
                        base: f.obj,
                        path: FieldPath::empty(),
                        ty: f.ty,
                    })
                }
                Some(Resolved::EnumConst(_)) => Err(LowerError::new(
                    format!("enum constant `{}` is not an lvalue", self.text(name)),
                    e.span,
                )),
                None => Err(LowerError::new(
                    format!("use of undeclared identifier `{}`", self.text(name)),
                    e.span,
                )),
            },
            ExprKind::Member(obj_e, fname, arrow) => {
                let fname = self.text(*fname);
                if *arrow {
                    let v = self.rvalue(obj_e)?;
                    let ptr = self.materialize(&v).ok_or_else(|| {
                        LowerError::new("dereference of non-pointer value", e.span)
                    })?;
                    let pointee = match self.prog.types.kind(v.ty()) {
                        TypeKind::Pointer(p) => *p,
                        _ => {
                            return Err(LowerError::new(
                                format!(
                                    "`->` on non-pointer type {}",
                                    self.prog.types.display(v.ty())
                                ),
                                e.span,
                            ))
                        }
                    };
                    let (path, fty) = self.member_path(pointee, fname, e.span)?;
                    Ok(LValue::Indirect {
                        ptr,
                        path,
                        ty: fty,
                    })
                } else {
                    let lv = self.lvalue(obj_e)?;
                    let (mpath, fty) = self.member_path(lv.ty(), fname, e.span)?;
                    Ok(match lv {
                        LValue::Direct { base, path, .. } => LValue::Direct {
                            base,
                            path: path.concat(&mpath),
                            ty: fty,
                        },
                        LValue::Indirect { ptr, path, .. } => LValue::Indirect {
                            ptr,
                            path: path.concat(&mpath),
                            ty: fty,
                        },
                    })
                }
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                let v = self.rvalue(inner)?;
                let ptr = self
                    .materialize(&v)
                    .ok_or_else(|| LowerError::new("dereference of non-pointer value", e.span))?;
                let pointee = match self.prog.types.kind(v.ty()) {
                    TypeKind::Pointer(p) => *p,
                    _ => {
                        return Err(LowerError::new(
                            format!(
                                "dereference of non-pointer type {}",
                                self.prog.types.display(v.ty())
                            ),
                            e.span,
                        ))
                    }
                };
                Ok(LValue::Indirect {
                    ptr,
                    path: FieldPath::empty(),
                    ty: pointee,
                })
            }
            ExprKind::Index(arr, idx) => {
                // a[i] ≡ *(a + i); arrays are collapsed to one representative
                // element, so the index itself contributes nothing.
                let _ = self.rvalue(idx)?;
                let v = self.rvalue(arr)?; // arrays decay here
                let ptr = self
                    .materialize(&v)
                    .ok_or_else(|| LowerError::new("indexing a non-pointer value", e.span))?;
                let elem = match self.prog.types.kind(v.ty()) {
                    TypeKind::Pointer(p) => *p,
                    _ => {
                        return Err(LowerError::new(
                            format!(
                                "indexing non-array/pointer type {}",
                                self.prog.types.display(v.ty())
                            ),
                            e.span,
                        ))
                    }
                };
                Ok(LValue::Indirect {
                    ptr,
                    path: FieldPath::empty(),
                    ty: elem,
                })
            }
            ExprKind::Cast(_, _) => {
                // A cast is not an lvalue in C; `*(T*)&x` style accesses go
                // through Deref, which handles the cast in its rvalue.
                Err(LowerError::new("cast expressions are not lvalues", e.span))
            }
            _ => Err(LowerError::new("expression is not an lvalue", e.span)),
        }
    }

    /// Resolves a member name in (array-stripped) `ty`, descending into
    /// anonymous members; returns the field-index path and the member type.
    fn member_path(
        &self,
        ty: TypeId,
        fname: &str,
        span: structcast_ast::Span,
    ) -> Result<(FieldPath, TypeId)> {
        let stripped = self.prog.types.strip_arrays(ty);
        let rid = self.prog.types.as_record(stripped).ok_or_else(|| {
            LowerError::new(
                format!(
                    "member access `.{fname}` on non-struct type {}",
                    self.prog.types.display(ty)
                ),
                span,
            )
        })?;
        let steps = self.prog.types.resolve_member(rid, fname).ok_or_else(|| {
            LowerError::new(
                format!(
                    "no member `{fname}` in {}",
                    self.prog.types.display(stripped)
                ),
                span,
            )
        })?;
        let path = FieldPath::from_steps(steps);
        let fty = structcast_types::type_of_path(&self.prog.types, stripped, &path)
            .expect("resolve_member returned a valid path");
        Ok((path, fty))
    }

    /// Reads an lvalue, producing its value (introduces Load temporaries for
    /// indirect accesses, per forms 2+4).
    ///
    /// An *array-typed* indirect lvalue is never loaded: in C it decays to
    /// the address of its first element, which still lies inside the
    /// pointed-to object (`&p->arr` aliases `*p`, not a copy of it).
    pub(crate) fn read_lvalue(&mut self, lv: &LValue) -> Result<Val> {
        if let LValue::Indirect { ptr, path, ty } = lv {
            if let TypeKind::Array(elem, _) = self.prog.types.kind(*ty) {
                let pt = self.prog.types.pointer_to(*elem);
                if path.is_empty() {
                    // The decayed value is exactly the pointer's value.
                    return Ok(Val::Obj {
                        obj: *ptr,
                        path: FieldPath::empty(),
                        ty: pt,
                    });
                }
                let t = self.new_temp(pt);
                self.emit(Stmt::AddrField {
                    dst: t,
                    ptr: *ptr,
                    path: path.clone(),
                });
                return Ok(Val::Obj {
                    obj: t,
                    path: FieldPath::empty(),
                    ty: pt,
                });
            }
        }
        match lv {
            LValue::Direct { base, path, ty } => Ok(Val::Obj {
                obj: *base,
                path: path.clone(),
                ty: *ty,
            }),
            LValue::Indirect { ptr, path, ty } => {
                let addr = if path.is_empty() {
                    *ptr
                } else {
                    let pt = self.prog.types.pointer_to(*ty);
                    let t = self.new_temp(pt);
                    self.emit(Stmt::AddrField {
                        dst: t,
                        ptr: *ptr,
                        path: path.clone(),
                    });
                    t
                };
                let t = self.new_temp(*ty);
                self.emit(Stmt::Load { dst: t, ptr: addr });
                Ok(Val::Obj {
                    obj: t,
                    path: FieldPath::empty(),
                    ty: *ty,
                })
            }
        }
    }

    /// Writes `v` into `lv`, emitting forms 1/2/3/5 as needed.
    pub(crate) fn write_lvalue(&mut self, lv: &LValue, v: &Val) -> Result<()> {
        // Scalars carry no pointers: nothing to record (Assumption 1).
        let (src_obj, src_path) = match v {
            Val::Scalar(_) => return Ok(()),
            Val::Obj { obj, path, .. } => (*obj, path.clone()),
        };
        match lv {
            LValue::Direct { base, path, ty } => {
                if path.is_empty() {
                    // Form 3: dst = src.path
                    self.emit(Stmt::Copy {
                        dst: *base,
                        src: src_obj,
                        path: src_path,
                    });
                } else {
                    // tmp = &base.path; *tmp = src  (forms 1 + 5)
                    let pt = self.prog.types.pointer_to(*ty);
                    let taddr = self.new_temp(pt);
                    self.emit(Stmt::AddrOf {
                        dst: taddr,
                        src: *base,
                        path: path.clone(),
                    });
                    let src = self.materialize_obj(src_obj, src_path, v.ty());
                    self.emit(Stmt::Store {
                        ptr: taddr,
                        src,
                    });
                }
            }
            LValue::Indirect { ptr, path, ty } => {
                let addr = if path.is_empty() {
                    *ptr
                } else {
                    let pt = self.prog.types.pointer_to(*ty);
                    let t = self.new_temp(pt);
                    self.emit(Stmt::AddrField {
                        dst: t,
                        ptr: *ptr,
                        path: path.clone(),
                    });
                    t
                };
                let src = self.materialize_obj(src_obj, src_path, v.ty());
                self.emit(Stmt::Store { ptr: addr, src });
            }
        }
        Ok(())
    }

    /// True if a heap object's type is still the untyped byte-blob fallback
    /// (so a surrounding cast may refine it).
    fn heap_type_is_fallback(&self, heap: ObjId) -> bool {
        let ty = self.prog.type_of(heap);
        match self.prog.types.kind(ty) {
            TypeKind::Array(elem, None) => {
                matches!(
                    self.prog.types.kind(*elem),
                    TypeKind::Int(structcast_types::IntKind::Char)
                )
            }
            _ => false,
        }
    }

    fn materialize_obj(&mut self, obj: ObjId, path: FieldPath, ty: TypeId) -> ObjId {
        if path.is_empty() {
            obj
        } else {
            let t = self.new_temp(ty);
            self.emit(Stmt::Copy {
                dst: t,
                src: obj,
                path,
            });
            t
        }
    }

    // ----- calls -----

    fn lower_call(
        &mut self,
        fexpr: &Expr,
        args: &[Expr],
        call_span: structcast_ast::Span,
    ) -> Result<Val> {
        // Evaluate arguments left to right.
        let mut arg_vals = Vec::with_capacity(args.len());
        for a in args {
            let v = self.rvalue(a)?;
            arg_vals.push(v);
        }
        // Heap sites are identified by the span of the call expression.
        self.cur_span = call_span;

        // Unwrap (*f)(...) and parenthesization: calling through a
        // dereferenced function pointer is the same as calling the pointer.
        let mut target = fexpr;
        while let ExprKind::Unary(UnOp::Deref, inner) = &target.kind {
            target = inner;
        }

        if let ExprKind::Ident(sym) = target.kind {
            let name = self.text(sym);
            match self.resolve_ident(sym) {
                Some(Resolved::Func(fid)) => {
                    let defined = self.prog.functions[fid.0 as usize].defined;
                    if !defined {
                        if let Some(v) = self.try_summary(sym, &arg_vals, args)? {
                            return Ok(v);
                        }
                        self.warn_once(
                            sym,
                            format!(
                                "call to external function `{name}` with no summary; \
                                 assumed to have no pointer effects"
                            ),
                        );
                    }
                    return self.lower_direct_call(fid, &arg_vals);
                }
                Some(Resolved::Obj(_)) => {
                    // Variable of function-pointer type: indirect call below.
                }
                Some(Resolved::EnumConst(_)) => {
                    return Err(LowerError::new(
                        format!("`{name}` is not callable"),
                        fexpr.span,
                    ))
                }
                None => {
                    // Implicitly-declared function: summary or no-op.
                    if let Some(v) = self.try_summary(sym, &arg_vals, args)? {
                        return Ok(v);
                    }
                    self.warn_once(
                        sym,
                        format!(
                            "call to unknown function `{name}`; \
                             assumed to have no pointer effects"
                        ),
                    );
                    let int = self.prog.types.int();
                    return Ok(Val::Scalar(int));
                }
            }
        }

        // Indirect call through a function-pointer value.
        let v = self.rvalue(target)?;
        let fp = self.materialize(&v).ok_or_else(|| {
            LowerError::new("call through a non-pointer value", fexpr.span)
        })?;
        let arg_objs: Vec<ObjId> = arg_vals
            .iter()
            .map(|v| self.materialize_always(v))
            .collect();
        // Determine the return type from the pointer's signature if any.
        let ret_ty = self
            .prog
            .types
            .pointee(v.ty())
            .and_then(|p| match self.prog.types.kind(p) {
                TypeKind::Function(sig) => Some(sig.ret),
                _ => None,
            });
        let ret = match ret_ty {
            Some(rt) if !matches!(self.prog.types.kind(rt), TypeKind::Void) => {
                Some(self.new_temp(rt))
            }
            _ => None,
        };
        self.emit(Stmt::Call {
            callee: Callee::Indirect(fp),
            args: arg_objs,
            ret,
        });
        Ok(match ret {
            Some(r) => Val::Obj {
                obj: r,
                path: FieldPath::empty(),
                ty: self.prog.type_of(r),
            },
            None => {
                let int = self.prog.types.int();
                Val::Scalar(int)
            }
        })
    }

    /// Direct call: parameter and return binding lowered to `Copy`s, since
    /// the callee is statically known (context-insensitive, paper §1).
    fn lower_direct_call(&mut self, fid: FuncId, arg_vals: &[Val]) -> Result<Val> {
        self.prog.direct_calls.push((self.current_fn, fid));
        let params = self.prog.functions[fid.0 as usize].params.clone();
        let variadic = self.prog.functions[fid.0 as usize].variadic;
        for (i, v) in arg_vals.iter().enumerate() {
            let src = match v {
                Val::Scalar(_) => continue,
                Val::Obj { obj, path, .. } => (*obj, path.clone()),
            };
            if let Some(&p) = params.get(i) {
                self.emit(Stmt::Copy {
                    dst: p,
                    src: src.0,
                    path: src.1,
                });
            } else if variadic || params.is_empty() {
                let va = self.varargs_obj(fid);
                self.emit(Stmt::Copy {
                    dst: va,
                    src: src.0,
                    path: src.1,
                });
            }
        }
        let ret_slot = self.prog.functions[fid.0 as usize].ret_slot;
        Ok(match ret_slot {
            Some(rs) => {
                let ty = self.prog.type_of(rs);
                let t = self.new_temp(ty);
                self.emit(Stmt::Copy {
                    dst: t,
                    src: rs,
                    path: FieldPath::empty(),
                });
                Val::Obj {
                    obj: t,
                    path: FieldPath::empty(),
                    ty,
                }
            }
            None => {
                let int = self.prog.types.int();
                Val::Scalar(int)
            }
        })
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}
