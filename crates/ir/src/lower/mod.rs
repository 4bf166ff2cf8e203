//! AST → normalized IR lowering.
//!
//! Lowering runs in two passes over the translation unit:
//!
//! 1. **Registration** — all file-scope types, globals, and function
//!    signatures (including parameter objects) are created, so forward
//!    references and mutual recursion work.
//! 2. **Body lowering** — global initializers and function bodies are
//!    translated to the five normalized assignment forms, introducing
//!    temporaries exactly as the paper's §2/§3 examples do.

mod expr;
mod stmt;
mod summaries;

pub(crate) use expr::{LValue, Val};

use crate::ir::*;
use std::collections::{HashMap, HashSet};
use structcast_ast::{
    AstType, Declaration, EnumSpec, Expr, ExprKind, ExternalDecl, FieldDecl, FunctionDef,
    Initializer, ParamDecl, RecordSpec, Scopes, Span, Storage, Sym, Symbols, TranslationUnit,
    TypeSpec, UnOp,
};
use structcast_types::{
    Field, FieldPath, FloatKind, FuncSig, IntKind, Layout, RecordId, TypeId, TypeKind,
};

/// How deeply one type may nest, counted separately along two chains: its
/// pointer, array and function declarators (`typedef T0 *T1; typedef T1
/// *T2; ...` builds such a chain by name, past the parser's
/// [`MAX_NESTING`](structcast_ast::MAX_NESTING)), and the records it
/// contains by value (`struct S1 { struct S0 f; }; ...`), arrays included.
/// Type rendering, layout and field enumeration recurse once per level, so
/// an unbounded chain could overflow a server worker's 2 MiB stack. It
/// equals the parser's nesting budget, so every declarator the parser
/// accepts stays within it. Deeper types are a [`LowerError`] naming the
/// declaration.
pub const MAX_TYPE_DEPTH: u32 = structcast_ast::MAX_NESTING as u32;

/// An error produced during lowering (undeclared names, bad member
/// accesses, malformed types).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    message: String,
    span: Span,
    column: Option<u32>,
}

impl LowerError {
    /// Creates an error at `span`.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        LowerError {
            message: message.into(),
            span,
            column: None,
        }
    }

    /// The message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Where it happened.
    pub fn span(&self) -> Span {
        self.span
    }

    /// The 1-based column of the span's start, known when the error came
    /// through [`lower_source`].
    pub fn column(&self) -> Option<u32> {
        self.column
    }

    /// Fills in the column of the span's start within `src`, the text the
    /// span indexes.
    fn locate(mut self, src: &str) -> Self {
        let before = src.get(..self.span.start as usize).unwrap_or(src);
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        self.column = Some(before[line_start..].chars().count() as u32 + 1);
        self
    }
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at {}", self.message, self.span)?;
        match self.column {
            Some(c) => write!(f, ", column {c}"),
            None => Ok(()),
        }
    }
}

impl std::error::Error for LowerError {}

/// Result alias for lowering.
pub type Result<T> = std::result::Result<T, LowerError>;

/// Lowers a parsed translation unit to a normalized [`Program`].
///
/// # Errors
///
/// Returns a [`LowerError`] for undeclared identifiers, unknown members,
/// or unresolvable types. Calls to *unknown external* functions are not
/// errors: they produce a [`Program::warnings`] entry and have no pointer
/// effect (known libc functions get real summaries; see `summaries`).
pub fn lower(tu: &TranslationUnit) -> Result<Program> {
    let mut lw = Lowerer::new(&tu.symbols);
    lw.run(tu)?;
    Ok(lw.prog)
}

/// Convenience: parse C source and lower it in one call.
///
/// # Errors
///
/// Returns the parse error (wrapped) or the lowering error, either one
/// naming line and column.
pub fn lower_source(src: &str) -> Result<Program> {
    let tu = structcast_ast::parse(src).map_err(|e| LowerError {
        message: format!("parse error: {}", e.message()),
        span: e.span(),
        column: e.column(),
    })?;
    lower(&tu).map_err(|e| e.locate(src))
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Resolved {
    Obj(ObjId),
    Func(FuncId),
    EnumConst(i64),
}

/// The lowering state. Name tables are indexed by the unit's symbols; a
/// name's text is read only to build an object name or an error message.
pub(crate) struct Lowerer<'a> {
    pub(crate) prog: Program,
    syms: &'a Symbols,
    /// File-scope ordinary names (objects, functions, enum constants).
    globals: Vec<Option<Resolved>>,
    /// Block-scope objects; bound only while lowering a body.
    locals: Scopes<ObjId>,
    typedefs: Scopes<TypeId>,
    tags: Scopes<RecordId>,
    enum_tags: Scopes<TypeId>,
    pub(crate) current_fn: Option<FuncId>,
    temp_count: u32,
    heap_sites: u32,
    anon_count: u32,
    /// Layout used only for `sizeof` in constant expressions (array bounds,
    /// enum values). The analysis itself is run under layouts chosen later.
    consteval_layout: Layout,
    pub(crate) cur_span: Span,
    /// Deferred global initializers: (object, type, initializer).
    pending_inits: Vec<(ObjId, TypeId, &'a Initializer)>,
    /// Names already warned about (one warning per unknown function).
    warned: HashSet<Sym>,
    /// The most recent heap object created by an allocator summary; lets a
    /// surrounding pointer cast refine the allocation's element type.
    pub(crate) last_alloc: Option<ObjId>,
    /// Per-function static result buffers (`getenv`, `ctime`, ...).
    pub(crate) static_bufs: HashMap<Sym, ObjId>,
    /// Hidden state threading `strtok(NULL, ...)` calls together.
    pub(crate) strtok_state: Option<ObjId>,
    /// Declarator depth per `TypeId` (pointer, array and function layers
    /// down to a scalar or record), filled in id order.
    decl_depth: Vec<u32>,
    /// By-value containment depth per completed record, by `RecordId`.
    record_depth: Vec<u32>,
}

impl<'a> Lowerer<'a> {
    fn new(syms: &'a Symbols) -> Self {
        let n = syms.len();
        Lowerer {
            prog: Program::default(),
            syms,
            globals: vec![None; n],
            locals: Scopes::with_symbols(n),
            typedefs: Scopes::with_symbols(n),
            tags: Scopes::with_symbols(n),
            enum_tags: Scopes::with_symbols(n),
            current_fn: None,
            temp_count: 0,
            heap_sites: 0,
            anon_count: 0,
            consteval_layout: Layout::ilp32(),
            cur_span: Span::dummy(),
            pending_inits: Vec::new(),
            warned: HashSet::new(),
            last_alloc: None,
            static_bufs: HashMap::new(),
            strtok_state: None,
            decl_depth: Vec::new(),
            record_depth: Vec::new(),
        }
    }

    fn run(&mut self, tu: &'a TranslationUnit) -> Result<()> {
        // Pass 1: register all file-scope declarations.
        for d in &tu.decls {
            match d {
                ExternalDecl::Declaration(decl) => self.register_declaration(decl, true)?,
                ExternalDecl::Function(f) => {
                    self.register_function_def(f)?;
                }
            }
        }
        // Pass 2a: global initializers.
        let inits = std::mem::take(&mut self.pending_inits);
        for (obj, ty, init) in &inits {
            self.lower_initializer(*obj, FieldPath::empty(), *ty, init)?;
        }
        // Pass 2b: function bodies.
        for d in &tu.decls {
            if let ExternalDecl::Function(f) = d {
                self.lower_function_body(f)?;
            }
        }
        Ok(())
    }

    // ----- objects, temps, statements -----

    pub(crate) fn new_object(&mut self, name: String, ty: TypeId, kind: ObjKind) -> ObjId {
        let id = ObjId(self.prog.objects.len() as u32);
        self.prog.objects.push(Object { name, ty, kind });
        id
    }

    pub(crate) fn new_temp(&mut self, ty: TypeId) -> ObjId {
        self.temp_count += 1;
        let name = numbered("t$", self.temp_count);
        self.new_object(name, ty, ObjKind::Temp(self.current_fn))
    }

    pub(crate) fn new_heap_object(&mut self, pointee: TypeId) -> ObjId {
        self.heap_sites += 1;
        let site = self.heap_sites;
        let name = numbered("malloc_", site);
        let obj = self.new_object(name, pointee, ObjKind::Heap(site));
        self.prog.heap_spans.push((obj, self.cur_span));
        obj
    }

    pub(crate) fn emit(&mut self, s: Stmt) {
        self.prog.stmts.push(s);
        self.prog.spans.push(self.cur_span);
        self.prog.stmt_funcs.push(self.current_fn);
    }

    pub(crate) fn warn_once(&mut self, key: Sym, msg: String) {
        if self.warned.insert(key) {
            self.prog.warnings.push(msg);
        }
    }

    /// The text of a name.
    pub(crate) fn text(&self, name: Sym) -> &'a str {
        self.syms.text(name)
    }

    // ----- scopes -----

    pub(crate) fn push_scope(&mut self) {
        self.locals.push();
        self.typedefs.push();
        self.tags.push();
        self.enum_tags.push();
    }

    pub(crate) fn pop_scope(&mut self) {
        self.locals.pop();
        self.typedefs.pop();
        self.tags.pop();
        self.enum_tags.pop();
    }

    pub(crate) fn declare_local(&mut self, name: Sym, obj: ObjId) {
        debug_assert!(
            self.current_fn.is_some(),
            "declare_local outside a function"
        );
        self.locals.bind(name, obj);
    }

    pub(crate) fn resolve_ident(&self, name: Sym) -> Option<Resolved> {
        match self.locals.get(name) {
            Some(o) => Some(Resolved::Obj(o)),
            // Enum constants are stored in the globals table too (scoped
            // enum constants are folded into it during type building).
            None => self.global(name),
        }
    }

    fn global(&self, name: Sym) -> Option<Resolved> {
        self.globals.get(name.index()).copied().flatten()
    }

    fn set_global(&mut self, name: Sym, r: Resolved) {
        self.globals[name.index()] = Some(r);
    }

    pub(crate) fn declare_enum_const(&mut self, name: Sym, value: i64) {
        // Enum constants land in the global namespace; local shadowing of
        // enum constants by variables still works because locals win.
        if self.global(name).is_none() {
            self.set_global(name, Resolved::EnumConst(value));
        }
    }

    // ----- declarations -----

    /// Registers a declaration. In pass 1 (`file_scope = true`) initializers
    /// are deferred; locally they are lowered immediately by the caller.
    fn register_declaration(&mut self, decl: &'a Declaration, file_scope: bool) -> Result<()> {
        self.cur_span = decl.span;
        // Build the base type exactly once: declarators embed a clone of the
        // base spec, so rebuilding it per item would re-define records.
        let base_built = self.build_type(&decl.base)?;
        for item in &decl.items {
            self.cur_span = item.span;
            let ty = self.build_type_with_base(&item.ty, base_built)?;
            match decl.storage {
                Storage::Typedef => self.typedefs.bind(item.name, ty),
                _ => {
                    if matches!(self.prog.types.kind(ty), TypeKind::Function(_)) {
                        self.register_function_sig(item.name, ty, &item.ty, false)?;
                    } else if file_scope {
                        let obj = self.declare_global_var(item.name, ty);
                        if let Some(init) = &item.init {
                            self.pending_inits.push((obj, ty, init));
                        }
                    } else {
                        unreachable!("register_declaration called locally")
                    }
                }
            }
        }
        Ok(())
    }

    fn declare_global_var(&mut self, name: Sym, ty: TypeId) -> ObjId {
        if let Some(Resolved::Obj(existing)) = self.global(name) {
            // Redeclaration (e.g. extern then definition): prefer the more
            // complete type.
            let old = self.prog.type_of(existing);
            if old != ty && self.is_more_complete(ty, old) {
                self.prog.objects[existing.0 as usize].ty = ty;
            }
            return existing;
        }
        let obj = self.new_object(self.text(name).to_string(), ty, ObjKind::Global);
        self.set_global(name, Resolved::Obj(obj));
        obj
    }

    fn is_more_complete(&self, newer: TypeId, older: TypeId) -> bool {
        matches!(
            (self.prog.types.kind(newer), self.prog.types.kind(older)),
            (TypeKind::Array(_, Some(_)), TypeKind::Array(_, None))
        )
    }

    /// Registers (or updates) a function from a declarator. `defining` marks
    /// a definition (body present).
    fn register_function_sig(
        &mut self,
        sym: Sym,
        fnty: TypeId,
        ast_ty: &AstType,
        defining: bool,
    ) -> Result<FuncId> {
        let name = self.text(sym);
        let decls: &[ParamDecl] = match ast_ty {
            AstType::Function { params, .. } => params,
            _ => &[],
        };
        let syms = self.syms;
        let param_name = |i: usize| decls.get(i).and_then(|p| p.name).map(|n| syms.text(n));
        let (sig_params, sig_ret, variadic) = match self.prog.types.kind(fnty) {
            TypeKind::Function(sig) => (sig.params.clone(), sig.ret, sig.variadic),
            _ => unreachable!("register_function_sig on non-function type"),
        };

        if let Some(Resolved::Func(fid)) = self.global(sym) {
            // Update an earlier prototype.
            let need_params = sig_params.len();
            let have = self.prog.functions[fid.0 as usize].params.len();
            if need_params > have {
                for (i, &pty) in sig_params.iter().enumerate().skip(have) {
                    let p = self.new_object(
                        match param_name(i) {
                            Some(pname) => qualified(name, pname),
                            None => format!("{name}::{name}::p{i}"),
                        },
                        pty,
                        ObjKind::Param(fid, i as u32),
                    );
                    self.prog.functions[fid.0 as usize].params.push(p);
                }
            }
            if defining {
                self.prog.functions[fid.0 as usize].defined = true;
                self.prog.functions[fid.0 as usize].ty = fnty;
                // Refresh param types from the definition.
                for (i, &pt) in sig_params.iter().enumerate() {
                    let pobj = self.prog.functions[fid.0 as usize].params[i];
                    self.prog.objects[pobj.0 as usize].ty = pt;
                }
            }
            return Ok(fid);
        }

        let fid = FuncId(self.prog.functions.len() as u32);
        let obj = self.new_object(name.to_string(), fnty, ObjKind::Function(fid));
        let params: Vec<ObjId> = sig_params
            .iter()
            .enumerate()
            .map(|(i, &pt)| {
                let pname = match param_name(i) {
                    Some(pname) => qualified(name, pname),
                    None => format!("{name}::p{i}"),
                };
                self.new_object(pname, pt, ObjKind::Param(fid, i as u32))
            })
            .collect();
        let ret_slot = if matches!(self.prog.types.kind(sig_ret), TypeKind::Void) {
            None
        } else {
            Some(self.new_object(qualified(name, "$ret"), sig_ret, ObjKind::Ret(fid)))
        };
        self.prog.functions.push(Function {
            name: name.to_string(),
            id: fid,
            obj,
            params,
            ret_slot,
            ty: fnty,
            defined: defining,
            variadic,
            varargs: None,
        });
        self.set_global(sym, Resolved::Func(fid));
        Ok(fid)
    }

    fn register_function_def(&mut self, f: &FunctionDef) -> Result<FuncId> {
        self.cur_span = f.span;
        let fnty = self.build_type(&f.ty)?;
        self.register_function_sig(f.name, fnty, &f.ty, true)
    }

    pub(crate) fn varargs_obj(&mut self, fid: FuncId) -> ObjId {
        if let Some(v) = self.prog.functions[fid.0 as usize].varargs {
            return v;
        }
        let vp = self.prog.types.void_ptr();
        let name = format!("{}::$varargs", self.prog.functions[fid.0 as usize].name);
        let obj = self.new_object(name, vp, ObjKind::VarArgs(fid));
        self.prog.functions[fid.0 as usize].varargs = Some(obj);
        obj
    }

    fn lower_function_body(&mut self, f: &FunctionDef) -> Result<()> {
        let fid = match self.global(f.name) {
            Some(Resolved::Func(fid)) => fid,
            _ => unreachable!("function body without registration"),
        };
        self.current_fn = Some(fid);
        self.push_scope();
        // Bind parameter names to the (stable) parameter objects.
        let params = self.prog.functions[fid.0 as usize].params.clone();
        if let AstType::Function { params: decls, .. } = &f.ty {
            for (i, pd) in decls.iter().enumerate() {
                if let (Some(name), Some(&pobj)) = (pd.name, params.get(i)) {
                    self.declare_local(name, pobj);
                }
            }
        }
        self.lower_stmt(&f.body)?;
        self.pop_scope();
        self.current_fn = None;
        Ok(())
    }

    // ----- type building -----

    pub(crate) fn build_type(&mut self, ty: &AstType) -> Result<TypeId> {
        let t = match ty {
            AstType::Base(spec) => self.build_spec(spec)?,
            AstType::Pointer(inner) => {
                let i = self.build_type(inner)?;
                self.prog.types.pointer_to(i)
            }
            AstType::Array(inner, n) => {
                let i = self.build_type(inner)?;
                let len = match n {
                    Some(e) => self.const_eval(e).map(|v| v.max(0) as u64),
                    None => None,
                };
                self.prog.types.array_of(i, len)
            }
            AstType::Function {
                ret,
                params,
                variadic,
            } => {
                let r = self.build_type(ret)?;
                let ps: Result<Vec<TypeId>> =
                    params.iter().map(|p| self.build_type(&p.ty)).collect();
                self.prog.types.function(FuncSig {
                    ret: r,
                    params: ps?,
                    variadic: *variadic,
                })
            }
        };
        self.check_decl_depth(t)
    }

    /// Builds a declarator's type around an already-built base type,
    /// avoiding re-evaluation of the (side-effecting) base specifier.
    pub(crate) fn build_type_with_base(&mut self, ty: &AstType, base: TypeId) -> Result<TypeId> {
        let t = match ty {
            AstType::Base(_) => base,
            AstType::Pointer(inner) => {
                let i = self.build_type_with_base(inner, base)?;
                self.prog.types.pointer_to(i)
            }
            AstType::Array(inner, n) => {
                let i = self.build_type_with_base(inner, base)?;
                let len = match n {
                    Some(e) => self.const_eval(e).map(|v| v.max(0) as u64),
                    None => None,
                };
                self.prog.types.array_of(i, len)
            }
            AstType::Function {
                ret,
                params,
                variadic,
            } => {
                let r = self.build_type_with_base(ret, base)?;
                let ps: Result<Vec<TypeId>> =
                    params.iter().map(|p| self.build_type(&p.ty)).collect();
                self.prog.types.function(FuncSig {
                    ret: r,
                    params: ps?,
                    variadic: *variadic,
                })
            }
        };
        self.check_decl_depth(t)
    }

    /// `t`, if its declarator chain is within [`MAX_TYPE_DEPTH`]. A type is
    /// interned only after its components, so the depths fill in id order
    /// without recursion.
    fn check_decl_depth(&mut self, t: TypeId) -> Result<TypeId> {
        while self.decl_depth.len() < self.prog.types.len() {
            let d = &self.decl_depth;
            let depth = match self.prog.types.kind(TypeId(d.len() as u32)) {
                TypeKind::Pointer(i) | TypeKind::Array(i, _) => 1 + d[i.0 as usize],
                TypeKind::Function(sig) => {
                    let parts = sig.params.iter().chain([&sig.ret]);
                    1 + parts.map(|p| d[p.0 as usize]).max().unwrap_or(0)
                }
                _ => 0,
            };
            self.decl_depth.push(depth);
        }
        if self.decl_depth[t.0 as usize] > MAX_TYPE_DEPTH {
            return Err(self.too_deep(self.cur_span));
        }
        Ok(t)
    }

    /// The by-value containment depth of a value of type `t`: its array
    /// layers plus the depth of the record under them.
    fn containment_depth(&self, t: TypeId) -> u32 {
        let mut depth = 0;
        let mut cur = t;
        loop {
            match self.prog.types.kind(cur) {
                TypeKind::Array(e, _) => {
                    depth += 1;
                    cur = *e;
                }
                TypeKind::Record(r) => {
                    return depth + self.record_depth.get(r.0 as usize).copied().unwrap_or(0)
                }
                _ => return depth,
            }
        }
    }

    fn too_deep(&self, span: Span) -> LowerError {
        LowerError::new(
            format!("type nested deeper than {MAX_TYPE_DEPTH} levels"),
            span,
        )
    }

    fn build_spec(&mut self, spec: &TypeSpec) -> Result<TypeId> {
        let t = &mut self.prog.types;
        Ok(match spec {
            TypeSpec::Void => t.void(),
            TypeSpec::Char => t.integer(IntKind::Char),
            TypeSpec::SChar => t.integer(IntKind::SChar),
            TypeSpec::UChar => t.integer(IntKind::UChar),
            TypeSpec::Short => t.integer(IntKind::Short),
            TypeSpec::UShort => t.integer(IntKind::UShort),
            TypeSpec::Int => t.integer(IntKind::Int),
            TypeSpec::UInt => t.integer(IntKind::UInt),
            TypeSpec::Long => t.integer(IntKind::Long),
            TypeSpec::ULong => t.integer(IntKind::ULong),
            TypeSpec::LongLong => t.integer(IntKind::LongLong),
            TypeSpec::ULongLong => t.integer(IntKind::ULongLong),
            TypeSpec::Float => t.floating(FloatKind::Float),
            TypeSpec::Double => t.floating(FloatKind::Double),
            TypeSpec::LongDouble => t.floating(FloatKind::LongDouble),
            &TypeSpec::Typedef(name) => self.typedefs.get(name).ok_or_else(|| {
                LowerError::new(
                    format!("unknown typedef name `{}`", self.text(name)),
                    self.cur_span,
                )
            })?,
            TypeSpec::Struct(rs) => self.build_record(rs, false)?,
            TypeSpec::Union(rs) => self.build_record(rs, true)?,
            TypeSpec::Enum(es) => self.build_enum(es)?,
        })
    }

    fn build_record(&mut self, rs: &RecordSpec, is_union: bool) -> Result<TypeId> {
        let rid = match (rs.tag, &rs.fields) {
            (Some(tag), Some(_)) => {
                // Definition: reuse an incomplete record declared in the
                // *current* scope, otherwise create a fresh one here.
                match self.tags.get_innermost(tag) {
                    Some(r) if !self.prog.types.record(r).complete => r,
                    // An already-complete record with the same tag in this
                    // scope: treat the rebuild as the same definition (field
                    // declarators clone their base spec, so this happens for
                    // legal code; true same-scope redefinitions are UB in C
                    // and accepted silently here).
                    Some(r) => {
                        return Ok(self.prog.types.intern(TypeKind::Record(r)));
                    }
                    None => {
                        let tag_text = Some(self.text(tag).to_string());
                        let (r, _) = self.prog.types.new_record(tag_text, is_union);
                        self.tags.bind(tag, r);
                        r
                    }
                }
            }
            (Some(tag), None) => {
                // Reference: find in any scope, else declare incomplete at
                // file scope so cross-function uses unify.
                match self.tags.get(tag) {
                    Some(r) => r,
                    None => {
                        let tag_text = Some(self.text(tag).to_string());
                        let (r, _) = self.prog.types.new_record(tag_text, is_union);
                        self.tags.bind_outermost(tag, r);
                        r
                    }
                }
            }
            (None, Some(_)) => {
                let (r, _) = self.prog.types.new_record(None, is_union);
                r
            }
            (None, None) => {
                return Err(LowerError::new(
                    "struct/union without tag or body",
                    rs.span,
                ))
            }
        };

        if let Some(field_decls) = &rs.fields {
            let fields = self.build_fields(field_decls)?;
            let depth = 1 + fields
                .iter()
                .map(|f| self.containment_depth(f.ty))
                .max()
                .unwrap_or(0);
            if depth > MAX_TYPE_DEPTH {
                return Err(self.too_deep(rs.span));
            }
            let slot = rid.0 as usize;
            if self.record_depth.len() <= slot {
                self.record_depth.resize(slot + 1, 0);
            }
            self.record_depth[slot] = depth;
            self.prog.types.complete_record(rid, fields);
        }
        Ok(self.prog.types.intern(TypeKind::Record(rid)))
    }

    fn build_fields(&mut self, decls: &[FieldDecl]) -> Result<Vec<Field>> {
        let mut out = Vec::new();
        for fd in decls {
            self.cur_span = fd.span;
            let ty = self.build_type(&fd.ty)?;
            // A member of incomplete record type (C11 6.7.2.1p3) would let a
            // record contain itself, or a record completed later, by value:
            // an infinite layout, or a containment depth known only then.
            if let TypeKind::Record(r) = self.prog.types.kind(self.prog.types.strip_arrays(ty)) {
                if !self.prog.types.record(*r).complete {
                    let name = fd.name.map_or("<anonymous>", |n| self.text(n));
                    return Err(LowerError::new(
                        format!("member `{name}` has incomplete type"),
                        fd.span,
                    ));
                }
            }
            match fd.name {
                Some(name) => out.push(Field {
                    name: self.text(name).to_string(),
                    ty,
                    anonymous: false,
                }),
                None => {
                    if self.prog.types.is_record_like(ty) {
                        // Anonymous struct/union member.
                        self.anon_count += 1;
                        out.push(Field {
                            name: format!("__anon{}", self.anon_count),
                            ty,
                            anonymous: true,
                        });
                    }
                    // Unnamed bit-field padding: no storage we care about.
                }
            }
        }
        Ok(out)
    }

    fn build_enum(&mut self, es: &EnumSpec) -> Result<TypeId> {
        if let Some(items) = &es.items {
            let mut next: i64 = 0;
            for (name, val) in items {
                if let Some(e) = val {
                    if let Some(v) = self.const_eval(e) {
                        next = v;
                    }
                }
                self.declare_enum_const(*name, next);
                next += 1;
            }
            let tag_text = es.tag.map(|t| self.text(t).to_string());
            let ty = self.prog.types.intern(TypeKind::Enum(tag_text));
            if let Some(tag) = es.tag {
                self.enum_tags.bind(tag, ty);
            }
            Ok(ty)
        } else {
            let tag = es
                .tag
                .ok_or_else(|| LowerError::new("enum without tag or body", es.span))?;
            if let Some(t) = self.enum_tags.get(tag) {
                return Ok(t);
            }
            // Reference before definition: intern by tag.
            let tag_text = self.text(tag).to_string();
            Ok(self.prog.types.intern(TypeKind::Enum(Some(tag_text))))
        }
    }

    // ----- constant expressions -----

    /// Best-effort constant evaluation for array bounds and enum values.
    ///
    /// `sizeof` is evaluated under the ILP32 layout (see DESIGN.md §3);
    /// non-constant expressions yield `None`.
    pub(crate) fn const_eval(&mut self, e: &Expr) -> Option<i64> {
        use structcast_ast::BinOp::*;
        match &e.kind {
            ExprKind::IntLit(v) | ExprKind::CharLit(v) => Some(*v),
            ExprKind::Ident(name) => match self.resolve_ident(*name) {
                Some(Resolved::EnumConst(v)) => Some(v),
                _ => None,
            },
            ExprKind::Unary(UnOp::Neg, inner) => self.const_eval(inner).map(|v| -v),
            ExprKind::Unary(UnOp::Plus, inner) => self.const_eval(inner),
            ExprKind::Unary(UnOp::BitNot, inner) => self.const_eval(inner).map(|v| !v),
            ExprKind::Unary(UnOp::Not, inner) => {
                self.const_eval(inner).map(|v| i64::from(v == 0))
            }
            ExprKind::Binary(op, a, b) => {
                let x = self.const_eval(a)?;
                let y = self.const_eval(b)?;
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
            ExprKind::Cond(c, t, f) => {
                let c = self.const_eval(c)?;
                if c != 0 {
                    self.const_eval(t)
                } else {
                    self.const_eval(f)
                }
            }
            ExprKind::Cast(_, inner) => self.const_eval(inner),
            ExprKind::SizeofType(ty) => {
                let t = self.build_type(ty).ok()?;
                Some(self.consteval_layout.size_of(&self.prog.types, t) as i64)
            }
            _ => None,
        }
    }

    /// Exposed for statement lowering: registers a local declaration.
    pub(crate) fn lower_local_declaration(&mut self, decl: &Declaration) -> Result<()> {
        self.cur_span = decl.span;
        let base_built = self.build_type(&decl.base)?;
        for item in &decl.items {
            self.cur_span = item.span;
            let ty = self.build_type_with_base(&item.ty, base_built)?;
            match decl.storage {
                Storage::Typedef => self.typedefs.bind(item.name, ty),
                _ => {
                    if matches!(self.prog.types.kind(ty), TypeKind::Function(_)) {
                        // Local function declaration.
                        self.register_function_sig(item.name, ty, &item.ty, false)?;
                        continue;
                    }
                    let fid = self.current_fn.expect("local declaration outside function");
                    let obj = self.new_object(
                        qualified(
                            &self.prog.functions[fid.0 as usize].name,
                            self.text(item.name),
                        ),
                        ty,
                        ObjKind::Local(fid),
                    );
                    self.declare_local(item.name, obj);
                    if let Some(init) = &item.init {
                        self.lower_initializer(obj, FieldPath::empty(), ty, init)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// The name of `member` of function `func` (`f::x`), built in one
/// allocation.
fn qualified(func: &str, member: &str) -> String {
    let mut name = String::with_capacity(func.len() + 2 + member.len());
    name.push_str(func);
    name.push_str("::");
    name.push_str(member);
    name
}

/// `prefix` followed by `n` in decimal, built in one allocation.
fn numbered(prefix: &str, n: u32) -> String {
    use std::fmt::Write as _;
    let mut name = String::with_capacity(prefix.len() + 10);
    let _ = write!(name, "{prefix}{n}");
    name
}
