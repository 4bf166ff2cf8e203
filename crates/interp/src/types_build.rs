//! AST → semantic types for the interpreter.
//!
//! A small, independent re-implementation of type building (the analysis
//! pipeline has its own in `structcast-ir`); independence is the point —
//! if the two ever disagree, the differential oracle tests fail loudly.

use std::collections::HashMap;
use structcast_ast::{AstType, EnumSpec, Expr, ExprKind, RecordSpec, Symbols, TypeSpec, UnOp};
use structcast_types::{Field, FuncSig, Layout, RecordId, TypeId, TypeKind, TypeTable};

/// Scoped type environment (typedefs, struct/union tags, enum constants).
#[derive(Debug)]
pub struct TypeEnv<'a> {
    /// The type table being built.
    pub table: TypeTable,
    /// The text of the unit's names.
    syms: &'a Symbols,
    typedefs: Vec<HashMap<String, TypeId>>,
    tags: Vec<HashMap<String, RecordId>>,
    /// Enumeration constants by name (flat; enums rarely shadow).
    pub enum_consts: HashMap<String, i64>,
    layout: Option<Layout>,
    anon: u32,
}

impl<'a> TypeEnv<'a> {
    /// Creates a fresh environment with one (global) scope, for the AST
    /// of a unit whose names are in `syms`.
    pub fn new(layout: Layout, syms: &'a Symbols) -> Self {
        TypeEnv {
            table: TypeTable::new(),
            syms,
            typedefs: vec![HashMap::new()],
            tags: vec![HashMap::new()],
            enum_consts: HashMap::new(),
            layout: Some(layout),
            anon: 0,
        }
    }

    /// Enters a new typedef/tag scope.
    pub fn push_scope(&mut self) {
        self.typedefs.push(HashMap::new());
        self.tags.push(HashMap::new());
    }

    /// Leaves the innermost scope.
    pub fn pop_scope(&mut self) {
        self.typedefs.pop();
        self.tags.pop();
    }

    /// Registers a typedef in the current scope.
    pub fn define_typedef(&mut self, name: &str, ty: TypeId) {
        self.typedefs
            .last_mut()
            .expect("scope")
            .insert(name.to_string(), ty);
    }

    fn lookup_typedef(&self, name: &str) -> Option<TypeId> {
        self.typedefs
            .iter()
            .rev()
            .find_map(|s| s.get(name).copied())
    }

    fn lookup_tag(&self, name: &str) -> Option<RecordId> {
        self.tags.iter().rev().find_map(|s| s.get(name).copied())
    }

    /// Builds an [`AstType`]. Unknown names and malformed specs yield an
    /// error string (the interpreter reports it with the current span).
    pub fn build(&mut self, ty: &AstType) -> Result<TypeId, String> {
        Ok(match ty {
            AstType::Base(spec) => self.build_spec(spec)?,
            AstType::Pointer(inner) => {
                let i = self.build(inner)?;
                self.table.pointer_to(i)
            }
            AstType::Array(inner, n) => {
                let i = self.build(inner)?;
                let len = n.as_deref().and_then(|e| self.const_eval(e)).map(|v| v.max(0) as u64);
                self.table.array_of(i, len)
            }
            AstType::Function {
                ret,
                params,
                variadic,
            } => {
                let r = self.build(ret)?;
                let ps: Result<Vec<TypeId>, String> =
                    params.iter().map(|p| self.build(&p.ty)).collect();
                self.table.function(FuncSig {
                    ret: r,
                    params: ps?,
                    variadic: *variadic,
                })
            }
        })
    }

    fn build_spec(&mut self, spec: &TypeSpec) -> Result<TypeId, String> {
        use structcast_types::{FloatKind, IntKind};
        let t = &mut self.table;
        Ok(match spec {
            TypeSpec::Void => t.void(),
            TypeSpec::Char => t.intern(TypeKind::Int(IntKind::Char)),
            TypeSpec::SChar => t.intern(TypeKind::Int(IntKind::SChar)),
            TypeSpec::UChar => t.intern(TypeKind::Int(IntKind::UChar)),
            TypeSpec::Short => t.intern(TypeKind::Int(IntKind::Short)),
            TypeSpec::UShort => t.intern(TypeKind::Int(IntKind::UShort)),
            TypeSpec::Int => t.int(),
            TypeSpec::UInt => t.uint(),
            TypeSpec::Long => t.long(),
            TypeSpec::ULong => t.ulong(),
            TypeSpec::LongLong => t.intern(TypeKind::Int(IntKind::LongLong)),
            TypeSpec::ULongLong => t.intern(TypeKind::Int(IntKind::ULongLong)),
            TypeSpec::Float => t.float(),
            TypeSpec::Double => t.double(),
            TypeSpec::LongDouble => t.intern(TypeKind::Float(FloatKind::LongDouble)),
            TypeSpec::Typedef(name) => {
                let name = self.syms.text(*name);
                self.lookup_typedef(name)
                    .ok_or_else(|| format!("unknown typedef `{name}`"))?
            }
            TypeSpec::Struct(rs) => self.build_record(rs, false)?,
            TypeSpec::Union(rs) => self.build_record(rs, true)?,
            TypeSpec::Enum(es) => self.build_enum(es),
        })
    }

    fn build_record(&mut self, rs: &RecordSpec, is_union: bool) -> Result<TypeId, String> {
        let rid = match (rs.tag.map(|t| self.syms.text(t)), &rs.fields) {
            (Some(tag), Some(_)) => {
                let cur = self.tags.last().expect("scope");
                match cur.get(tag) {
                    Some(&r) if !self.table.record(r).complete => r,
                    Some(&r) => return Ok(self.table.intern(TypeKind::Record(r))),
                    None => {
                        let (r, _) = self.table.new_record(Some(tag.to_string()), is_union);
                        self.tags
                            .last_mut()
                            .expect("scope")
                            .insert(tag.to_string(), r);
                        r
                    }
                }
            }
            (Some(tag), None) => match self.lookup_tag(tag) {
                Some(r) => r,
                None => {
                    let (r, _) = self.table.new_record(Some(tag.to_string()), is_union);
                    self.tags[0].insert(tag.to_string(), r);
                    r
                }
            },
            (None, Some(_)) => self.table.new_record(None, is_union).0,
            (None, None) => return Err("struct without tag or body".into()),
        };
        if let Some(fields) = &rs.fields {
            let mut built = Vec::new();
            for fd in fields {
                let ty = self.build(&fd.ty)?;
                match fd.name {
                    Some(n) => built.push(Field {
                        name: self.syms.text(n).to_string(),
                        ty,
                        anonymous: false,
                    }),
                    None if self.table.is_record_like(ty) => {
                        self.anon += 1;
                        built.push(Field {
                            name: format!("__anon{}", self.anon),
                            ty,
                            anonymous: true,
                        });
                    }
                    None => {} // unnamed bit-field padding
                }
            }
            self.table.complete_record(rid, built);
        }
        Ok(self.table.intern(TypeKind::Record(rid)))
    }

    fn build_enum(&mut self, es: &EnumSpec) -> TypeId {
        if let Some(items) = &es.items {
            let mut next = 0i64;
            for (name, val) in items {
                if let Some(e) = val {
                    if let Some(v) = self.const_eval(e) {
                        next = v;
                    }
                }
                self.enum_consts.insert(self.syms.text(*name).to_string(), next);
                next += 1;
            }
        }
        let tag = es.tag.map(|t| self.syms.text(t).to_string());
        self.table.intern(TypeKind::Enum(tag))
    }

    /// Constant evaluation for array bounds / enum values / case labels.
    pub fn const_eval(&mut self, e: &Expr) -> Option<i64> {
        use structcast_ast::BinOp::*;
        match &e.kind {
            ExprKind::IntLit(v) | ExprKind::CharLit(v) => Some(*v),
            ExprKind::Ident(n) => self.enum_consts.get(self.syms.text(*n)).copied(),
            ExprKind::Unary(UnOp::Neg, i) => self.const_eval(i).map(|v| -v),
            ExprKind::Unary(UnOp::Plus, i) => self.const_eval(i),
            ExprKind::Unary(UnOp::BitNot, i) => self.const_eval(i).map(|v| !v),
            ExprKind::Unary(UnOp::Not, i) => self.const_eval(i).map(|v| i64::from(v == 0)),
            ExprKind::Binary(op, a, b) => {
                let (x, y) = (self.const_eval(a)?, self.const_eval(b)?);
                Some(match op {
                    Add => x.wrapping_add(y),
                    Sub => x.wrapping_sub(y),
                    Mul => x.wrapping_mul(y),
                    Div => {
                        if y == 0 {
                            return None;
                        }
                        x / y
                    }
                    Rem => {
                        if y == 0 {
                            return None;
                        }
                        x % y
                    }
                    Shl => x.wrapping_shl(y as u32),
                    Shr => x.wrapping_shr(y as u32),
                    BitAnd => x & y,
                    BitOr => x | y,
                    BitXor => x ^ y,
                    Lt => i64::from(x < y),
                    Gt => i64::from(x > y),
                    Le => i64::from(x <= y),
                    Ge => i64::from(x >= y),
                    Eq => i64::from(x == y),
                    Ne => i64::from(x != y),
                    LogAnd => i64::from(x != 0 && y != 0),
                    LogOr => i64::from(x != 0 || y != 0),
                })
            }
            ExprKind::Cast(_, i) => self.const_eval(i),
            ExprKind::SizeofType(t) => {
                let ty = self.build(t).ok()?;
                let layout = self.layout.clone()?;
                Some(layout.size_of(&self.table, ty) as i64)
            }
            ExprKind::Cond(c, t, f) => {
                if self.const_eval(c)? != 0 {
                    self.const_eval(t)
                } else {
                    self.const_eval(f)
                }
            }
            _ => None,
        }
    }

    /// Builds a declarator type around an already-built base (avoids
    /// double-registering record bodies cloned into each declarator).
    pub fn build_with_base(&mut self, ty: &AstType, base: TypeId) -> Result<TypeId, String> {
        Ok(match ty {
            AstType::Base(_) => base,
            AstType::Pointer(inner) => {
                let i = self.build_with_base(inner, base)?;
                self.table.pointer_to(i)
            }
            AstType::Array(inner, n) => {
                let i = self.build_with_base(inner, base)?;
                let len = n.as_deref().and_then(|e| self.const_eval(e)).map(|v| v.max(0) as u64);
                self.table.array_of(i, len)
            }
            AstType::Function {
                ret,
                params,
                variadic,
            } => {
                let r = self.build_with_base(ret, base)?;
                let ps: Result<Vec<TypeId>, String> =
                    params.iter().map(|p| self.build(&p.ty)).collect();
                self.table.function(FuncSig {
                    ret: r,
                    params: ps?,
                    variadic: *variadic,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structcast_ast::parse;

    #[test]
    fn builds_struct_types_from_ast() {
        let tu = parse("typedef struct S { int *a; char b; } S; S x;").unwrap();
        let mut env = TypeEnv::new(Layout::ilp32(), &tu.symbols);
        for d in &tu.decls {
            if let structcast_ast::ExternalDecl::Declaration(decl) = d {
                let base = env.build(&decl.base).unwrap();
                for item in &decl.items {
                    let ty = env.build_with_base(&item.ty, base).unwrap();
                    if decl.storage == structcast_ast::Storage::Typedef {
                        env.define_typedef(tu.symbols.text(item.name), ty);
                    } else {
                        assert_eq!(env.table.display(ty), "struct S");
                    }
                }
            }
        }
    }

    #[test]
    fn enum_constants_fold() {
        let tu = parse("enum E { A = 3, B, C = B * 2 };").unwrap();
        let mut env = TypeEnv::new(Layout::ilp32(), &tu.symbols);
        if let structcast_ast::ExternalDecl::Declaration(d) = &tu.decls[0] {
            env.build(&d.base).unwrap();
        }
        assert_eq!(env.enum_consts["A"], 3);
        assert_eq!(env.enum_consts["B"], 4);
        assert_eq!(env.enum_consts["C"], 8);
    }
}
