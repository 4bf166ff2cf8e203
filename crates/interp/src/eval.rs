//! The tree-walking evaluator.
//!
//! Executes the same C subset the analysis pipeline accepts, over the
//! byte-level [`Memory`](crate::memory::Memory), recording a
//! [`ConcreteFact`] every time a pointer value is stored anywhere. The
//! resulting fact set is a *ground truth under-approximation* that every
//! analysis instance must cover (tested in `tests/oracle.rs`).

use crate::memory::{MemId, MemKind, Memory, PtrVal};
use crate::types_build::TypeEnv;
use std::collections::HashMap;
use structcast_ast::{
    AssignOp, BinOp, BlockItem, Expr, ExprKind, ExternalDecl, ForInit, FunctionDef, Initializer,
    Span, Stmt, Storage, Symbols, TranslationUnit, UnOp,
};
use structcast_types::{Layout, TypeId, TypeKind};

/// An error during interpretation (wild dereference, unsupported
/// construct, step-limit exhaustion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub span: Span,
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at {}", self.message, self.span)
    }
}

impl std::error::Error for InterpError {}

type IResult<T> = Result<T, InterpError>;

/// One observed pointer store: "this position held the address of that
/// position at some point during execution".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConcreteFact {
    /// Where the pointer was stored.
    pub src: (ConcreteId, u64),
    /// What it pointed to (raw byte offset; canonicalization happens at
    /// comparison time against the static object's type).
    pub tgt: (ConcreteId, u64),
}

/// Identity of a concrete object, in terms the static analysis can match.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ConcreteId {
    /// A named variable (analysis display name, e.g. `"f::x"`).
    Var(String),
    /// A heap block, identified by the span start of its allocating call.
    Heap(u32),
    /// A string literal (not matched against specific static objects).
    Str,
    /// A function, by name.
    Func(String),
}

/// Result of a run.
#[derive(Debug)]
pub struct RunResult {
    /// All observed pointer-store facts.
    pub facts: Vec<ConcreteFact>,
    /// Evaluation steps consumed.
    pub steps: u64,
    /// False if the step budget ran out (facts so far are still valid).
    pub completed: bool,
    /// `main`'s return value, if it ran to completion.
    pub exit_value: Option<i64>,
    /// Runtime error, if one stopped execution early.
    pub error: Option<InterpError>,
}

/// Runs `src` (parsed and executed from `main`) with the default budget.
pub fn run_source(src: &str) -> Result<RunResult, InterpError> {
    run_source_with_budget(src, 2_000_000)
}

/// Runs with an explicit step budget.
pub fn run_source_with_budget(src: &str, budget: u64) -> Result<RunResult, InterpError> {
    let tu = structcast_ast::parse(src)
        .map_err(|e| InterpError {
            message: format!("parse error: {}", e.message()),
            span: e.span(),
        })?;
    let mut ev = Ev::new(&tu, budget)?;
    Ok(ev.run())
}

// ----- values -----

#[derive(Debug, Clone, Copy, PartialEq)]
enum V {
    Int(i64),
    Float(f64),
    Ptr(Option<PtrVal>),
}

#[derive(Debug, Clone)]
enum Slot {
    Val(V, TypeId),
    /// An aggregate (struct/union/array) located in memory.
    Agg(PtrVal, TypeId),
}

#[derive(Debug)]
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Option<Slot>),
}

struct Frame {
    scopes: Vec<HashMap<String, (MemId, TypeId)>>,
    fn_name: String,
}

struct Ev<'a> {
    env: TypeEnv<'a>,
    /// The text of the unit's names.
    syms: &'a Symbols,
    layout: Layout,
    mem: Memory,
    globals: HashMap<String, (MemId, TypeId)>,
    funcs: HashMap<String, &'a FunctionDef>,
    func_objs: HashMap<String, MemId>,
    frames: Vec<Frame>,
    facts: Vec<ConcreteFact>,
    steps: u64,
    budget: u64,
}

impl<'a> Ev<'a> {
    fn new(tu: &'a TranslationUnit, budget: u64) -> IResult<Self> {
        let layout = Layout::ilp32();
        let ptr_size = 4;
        let syms = &tu.symbols;
        let mut ev = Ev {
            env: TypeEnv::new(layout.clone(), syms),
            syms,
            layout,
            mem: Memory::new(ptr_size),
            globals: HashMap::new(),
            funcs: HashMap::new(),
            func_objs: HashMap::new(),
            frames: Vec::new(),
            facts: Vec::new(),
            steps: 0,
            budget,
        };
        // Pass 1: types, globals, functions.
        let mut pending_inits: Vec<(MemId, TypeId, &Initializer)> = Vec::new();
        for d in &tu.decls {
            match d {
                ExternalDecl::Function(f) => {
                    ev.funcs.insert(syms.text(f.name).to_string(), f);
                }
                ExternalDecl::Declaration(decl) => {
                    let base = ev.env.build(&decl.base).map_err(|m| InterpError {
                        message: m,
                        span: decl.span,
                    })?;
                    for item in &decl.items {
                        let name = syms.text(item.name);
                        let ty =
                            ev.env
                                .build_with_base(&item.ty, base)
                                .map_err(|m| InterpError {
                                    message: m,
                                    span: item.span,
                                })?;
                        match decl.storage {
                            Storage::Typedef => ev.env.define_typedef(name, ty),
                            _ if matches!(ev.env.table.kind(ty), TypeKind::Function(_)) => {
                                // Prototype only; body may come later.
                            }
                            _ => {
                                if ev.globals.contains_key(name) {
                                    continue; // extern redeclaration
                                }
                                let size = ev.layout.size_of(&ev.env.table, ty).max(1);
                                let id = ev.mem.alloc(size, ty, MemKind::Var(name.to_string()));
                                ev.globals.insert(name.to_string(), (id, ty));
                                if let Some(init) = &item.init {
                                    pending_inits.push((id, ty, init));
                                }
                            }
                        }
                    }
                }
            }
        }
        // Pass 2: global initializers (no frame; evaluated in global scope).
        ev.frames.push(Frame {
            scopes: vec![HashMap::new()],
            fn_name: "<init>".into(),
        });
        for (id, ty, init) in pending_inits {
            ev.init_object(id, 0, ty, init)?;
        }
        ev.frames.pop();
        Ok(ev)
    }

    fn run(&mut self) -> RunResult {
        let Some(main) = self.funcs.get("main").copied() else {
            return RunResult {
                facts: std::mem::take(&mut self.facts),
                steps: self.steps,
                completed: false,
                exit_value: None,
                error: Some(InterpError {
                    message: "no main function".into(),
                    span: Span::dummy(),
                }),
            };
        };
        match self.call_function(main, &[]) {
            Ok(ret) => RunResult {
                facts: std::mem::take(&mut self.facts),
                steps: self.steps,
                completed: true,
                exit_value: match ret {
                    Some(Slot::Val(V::Int(v), _)) => Some(v),
                    _ => Some(0),
                },
                error: None,
            },
            Err(e) => {
                let completed = e.message == "program exited";
                RunResult {
                    facts: std::mem::take(&mut self.facts),
                    steps: self.steps,
                    completed,
                    exit_value: None,
                    error: if completed { None } else { Some(e) },
                }
            }
        }
    }

    fn tick(&mut self, span: Span) -> IResult<()> {
        self.steps += 1;
        if self.steps > self.budget {
            return Err(InterpError {
                message: "step budget exhausted".into(),
                span,
            });
        }
        Ok(())
    }

    // ----- naming for the oracle -----

    fn concrete_id(&self, obj: MemId) -> ConcreteId {
        match &self.mem.obj(obj).kind {
            MemKind::Var(n) => ConcreteId::Var(n.clone()),
            MemKind::Heap(span) => ConcreteId::Heap(*span),
            MemKind::Str => ConcreteId::Str,
            MemKind::Func(n) => ConcreteId::Func(n.clone()),
        }
    }

    fn record_fact(&mut self, dst: MemId, off: u64, tgt: PtrVal) {
        let fact = ConcreteFact {
            src: (self.concrete_id(dst), off),
            tgt: (self.concrete_id(tgt.obj), tgt.off),
        };
        self.facts.push(fact);
    }

    fn write_ptr(&mut self, dst: MemId, off: u64, v: Option<PtrVal>) {
        // Only record a fact if the store actually fits in the object
        // (out-of-bounds stores are clipped and leave no value to recover).
        let fits = (off + self.mem.ptr_size()) as usize <= self.mem.obj(dst).bytes.len();
        if let (Some(p), true) = (v, fits) {
            self.record_fact(dst, off, p);
        }
        self.mem.store_ptr(dst, off, v);
    }

    fn copy_block(&mut self, dst: PtrVal, src: PtrVal, len: u64) {
        self.mem.copy_bytes(dst.obj, dst.off, src.obj, src.off, len);
        // Record facts for every pointer that landed in dst.
        let ps = self.mem.ptr_size();
        let landed: Vec<(u64, PtrVal)> = self
            .mem
            .ptr_spans(dst.obj)
            .into_iter()
            .filter(|(o, _)| *o >= dst.off && *o + ps <= dst.off + len)
            .collect();
        for (o, p) in landed {
            self.record_fact(dst.obj, o, p);
        }
    }

    // ----- scopes -----

    fn frame(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("active frame")
    }

    fn declare_local(&mut self, fn_name: &str, name: &str, ty: TypeId) -> MemId {
        let size = self.layout.size_of(&self.env.table, ty).max(1);
        let id = self.mem.alloc(
            size,
            ty,
            MemKind::Var(format!("{fn_name}::{name}")),
        );
        self.frame()
            .scopes
            .last_mut()
            .expect("scope")
            .insert(name.to_string(), (id, ty));
        id
    }

    fn resolve_var(&self, name: &str) -> Option<(MemId, TypeId)> {
        if let Some(frame) = self.frames.last() {
            for scope in frame.scopes.iter().rev() {
                if let Some(&v) = scope.get(name) {
                    return Some(v);
                }
            }
        }
        self.globals.get(name).copied()
    }

    fn func_obj(&mut self, name: &str) -> MemId {
        if let Some(&o) = self.func_objs.get(name) {
            return o;
        }
        let v = self.env.table.void();
        let o = self.mem.alloc(1, v, MemKind::Func(name.to_string()));
        self.func_objs.insert(name.to_string(), o);
        o
    }

    // ----- helpers -----

    fn size_of(&self, ty: TypeId) -> u64 {
        self.layout.size_of(&self.env.table, ty).max(1)
    }

    fn err<T>(&self, msg: impl Into<String>, span: Span) -> IResult<T> {
        Err(InterpError {
            message: msg.into(),
            span,
        })
    }

    fn truthy(&self, v: &V) -> bool {
        match v {
            V::Int(i) => *i != 0,
            V::Float(f) => *f != 0.0,
            V::Ptr(p) => p.is_some(),
        }
    }

    fn is_aggregate(&self, ty: TypeId) -> bool {
        matches!(
            self.env.table.kind(ty),
            TypeKind::Record(_) | TypeKind::Array(_, _)
        )
    }

    /// Encodes a pointer as an integer (survives int round-trips).
    fn ptr_to_int(&self, p: Option<PtrVal>) -> i64 {
        match p {
            None => 0,
            Some(p) => ((p.obj.0 as i64 + 1) << 24) | (p.off as i64 & 0xFF_FFFF),
        }
    }

    fn int_to_ptr(&self, bits: i64) -> Option<PtrVal> {
        if bits == 0 {
            return None;
        }
        let hi = bits >> 24;
        if hi >= 1 && ((hi - 1) as usize) < self.mem.len() {
            Some(PtrVal {
                obj: MemId((hi - 1) as u32),
                off: (bits & 0xFF_FFFF) as u64,
            })
        } else {
            None // opaque integer: provenance lost (safe for the oracle)
        }
    }

    /// Loads a scalar of type `ty` from memory.
    fn load_scalar(&self, at: PtrVal, ty: TypeId) -> V {
        match self.env.table.kind(ty) {
            TypeKind::Pointer(_) => match self.mem.load_ptr(at.obj, at.off) {
                Ok(p) => V::Ptr(p),
                Err(bits) => V::Ptr(self.int_to_ptr(bits)),
            },
            TypeKind::Float(_) => {
                let bits = self.mem.load_int(at.obj, at.off, 8);
                V::Float(f64::from_bits(bits as u64))
            }
            _ => {
                let size = self.size_of(ty).min(8);
                V::Int(self.mem.load_int(at.obj, at.off, size))
            }
        }
    }

    /// Stores a scalar of type `ty`.
    fn store_scalar(&mut self, at: PtrVal, ty: TypeId, v: &V) {
        match (self.env.table.kind(ty), v) {
            (TypeKind::Pointer(_), V::Ptr(p)) => self.write_ptr(at.obj, at.off, *p),
            (TypeKind::Pointer(_), V::Int(bits)) => {
                let p = self.int_to_ptr(*bits);
                self.write_ptr(at.obj, at.off, p);
            }
            (TypeKind::Float(_), V::Float(f)) => {
                self.mem
                    .store_int(at.obj, at.off, f.to_bits() as i64, 8);
            }
            (TypeKind::Float(_), V::Int(i)) => {
                self.mem
                    .store_int(at.obj, at.off, (*i as f64).to_bits() as i64, 8);
            }
            (_, V::Int(i)) => {
                let size = self.size_of(ty).min(8);
                self.mem.store_int(at.obj, at.off, *i, size);
            }
            (_, V::Float(f)) => {
                let size = self.size_of(ty).min(8);
                self.mem.store_int(at.obj, at.off, *f as i64, size);
            }
            (_, V::Ptr(p)) => {
                // Pointer stored into an int-typed slot: keep provenance by
                // storing it as a pointer payload (ints can hold pointers,
                // Complication 2).
                self.write_ptr(at.obj, at.off, *p);
            }
        }
    }

    // ----- initializers -----

    fn init_object(
        &mut self,
        id: MemId,
        base_off: u64,
        ty: TypeId,
        init: &Initializer,
    ) -> IResult<()> {
        match init {
            Initializer::Expr(e) => {
                if let ExprKind::StrLit(s) = e.kind {
                    let s = self.syms.text(s);
                    if matches!(self.env.table.kind(ty), TypeKind::Array(_, _)) {
                        // char buf[] = "..." — copy the characters.
                        for (i, b) in s.bytes().enumerate() {
                            self.mem.store_int(id, base_off + i as u64, b as i64, 1);
                        }
                        return Ok(());
                    }
                }
                let slot = self.eval(e)?;
                self.assign_to(
                    PtrVal {
                        obj: id,
                        off: base_off,
                    },
                    ty,
                    slot,
                    e.span,
                )
            }
            Initializer::List(items) => {
                let stripped = self.env.table.strip_arrays(ty);
                match self.env.table.kind(ty).clone() {
                    TypeKind::Array(elem, _) => {
                        let es = self.size_of(elem);
                        for (i, item) in items.iter().enumerate() {
                            self.init_object(id, base_off + i as u64 * es, elem, item)?;
                        }
                        Ok(())
                    }
                    TypeKind::Record(rid) => {
                        let rec = self.env.table.record(rid);
                        let is_union = rec.is_union;
                        let ftys: Vec<TypeId> = rec.fields.iter().map(|f| f.ty).collect();
                        for (i, item) in items.iter().enumerate() {
                            let idx = if is_union { 0 } else { i };
                            if idx >= ftys.len() {
                                break;
                            }
                            let off =
                                self.layout
                                    .offset_of(&self.env.table, rid, idx as u32);
                            self.init_object(id, base_off + off, ftys[idx], item)?;
                            if is_union {
                                break;
                            }
                        }
                        Ok(())
                    }
                    _ => {
                        if let Some(first) = items.first() {
                            self.init_object(id, base_off, stripped, first)?;
                        }
                        Ok(())
                    }
                }
            }
        }
    }

    /// Assigns a slot into memory at `at` of declared type `ty`.
    fn assign_to(&mut self, at: PtrVal, ty: TypeId, v: Slot, span: Span) -> IResult<()> {
        // Array-valued expressions decay to a pointer to their first
        // element when assigned to a scalar (pointer) location.
        let v = match v {
            Slot::Agg(src, aggty)
                if matches!(self.env.table.kind(aggty), TypeKind::Array(_, _))
                    && !self.is_aggregate(ty) =>
            {
                Slot::Val(V::Ptr(Some(src)), ty)
            }
            other => other,
        };
        match v {
            Slot::Val(val, _) => {
                self.store_scalar(at, ty, &val);
                Ok(())
            }
            Slot::Agg(src, _aggty) => {
                if !self.is_aggregate(ty) {
                    return self.err("aggregate assigned to scalar location", span);
                }
                let len = self.size_of(ty);
                self.copy_block(at, src, len);
                Ok(())
            }
        }
    }

    // ----- function calls -----

    fn call_function(&mut self, f: &'a FunctionDef, args: &[Slot]) -> IResult<Option<Slot>> {
        // Keep well under test-thread stack limits: each C frame costs a
        // few KB of Rust stack through the recursive evaluator.
        if self.frames.len() > 64 {
            return self.err("call depth exceeded", f.span);
        }
        let frame = Frame {
            scopes: vec![HashMap::new()],
            fn_name: self.syms.text(f.name).to_string(),
        };
        // Bind parameters (arguments were already evaluated in the caller's
        // frame).
        if let structcast_ast::AstType::Function { params, .. } = &f.ty {
            self.frames.push(frame);
            for (i, pd) in params.iter().enumerate() {
                let Some(name) = pd.name else { continue };
                let name = self.syms.text(name);
                let base = self.env.build(&pd.ty).map_err(|m| InterpError {
                    message: m,
                    span: pd.span,
                })?;
                let id = self.declare_local(self.syms.text(f.name), name, base);
                if let Some(a) = args.get(i) {
                    self.assign_to(PtrVal { obj: id, off: 0 }, base, a.clone(), pd.span)?;
                }
            }
        } else {
            self.frames.push(frame);
        }
        let flow = self.exec_stmt(&f.body);
        self.frames.pop();
        match flow? {
            Flow::Return(v) => Ok(v),
            _ => Ok(None),
        }
    }

    // ----- statements -----

    fn exec_stmt(&mut self, s: &Stmt) -> IResult<Flow> {
        match s {
            Stmt::Expr(None) => Ok(Flow::Normal),
            Stmt::Expr(Some(e)) => {
                self.tick(e.span)?;
                let _ = self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::Block(items) => {
                self.frame().scopes.push(HashMap::new());
                self.env.push_scope();
                let mut flow = Flow::Normal;
                for it in items {
                    match it {
                        BlockItem::Decl(d) => self.exec_local_decl(d)?,
                        BlockItem::Stmt(st) => {
                            flow = self.exec_stmt(st)?;
                            if !matches!(flow, Flow::Normal) {
                                break;
                            }
                        }
                    }
                }
                self.env.pop_scope();
                self.frame().scopes.pop();
                Ok(flow)
            }
            Stmt::If { cond, then, els } => {
                self.tick(cond.span)?;
                let c = self.eval_scalar(cond)?;
                if self.truthy(&c) {
                    self.exec_stmt(then)
                } else if let Some(e) = els {
                    self.exec_stmt(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body } => {
                loop {
                    self.tick(cond.span)?;
                    let c = self.eval_scalar(cond)?;
                    if !self.truthy(&c) {
                        break;
                    }
                    match self.exec_stmt(body)? {
                        Flow::Break => break,
                        f @ Flow::Return(_) => return Ok(f),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile { body, cond } => {
                loop {
                    match self.exec_stmt(body)? {
                        Flow::Break => break,
                        f @ Flow::Return(_) => return Ok(f),
                        _ => {}
                    }
                    self.tick(cond.span)?;
                    let c = self.eval_scalar(cond)?;
                    if !self.truthy(&c) {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.frame().scopes.push(HashMap::new());
                self.env.push_scope();
                match init {
                    Some(ForInit::Decl(d)) => self.exec_local_decl(d)?,
                    Some(ForInit::Expr(e)) => {
                        self.tick(e.span)?;
                        let _ = self.eval(e)?;
                    }
                    None => {}
                }
                let result = loop {
                    if let Some(c) = cond {
                        self.tick(c.span)?;
                        let v = self.eval_scalar(c)?;
                        if !self.truthy(&v) {
                            break Flow::Normal;
                        }
                    } else {
                        self.tick(Span::dummy())?;
                    }
                    match self.exec_stmt(body)? {
                        Flow::Break => break Flow::Normal,
                        f @ Flow::Return(_) => break f,
                        _ => {}
                    }
                    if let Some(st) = step {
                        let _ = self.eval(st)?;
                    }
                };
                self.env.pop_scope();
                self.frame().scopes.pop();
                Ok(result)
            }
            Stmt::Switch { cond, body } => self.exec_switch(cond, body),
            Stmt::Case(_, inner) | Stmt::Default(inner) | Stmt::Labeled(_, inner) => {
                self.exec_stmt(inner)
            }
            Stmt::Return(v) => {
                let slot = match v {
                    Some(e) => {
                        self.tick(e.span)?;
                        let s = self.eval(e)?;
                        // Returned aggregates are copied into a fresh
                        // temporary so the callee's locals can die.
                        Some(match s {
                            Slot::Agg(src, ty) => {
                                let size = self.size_of(ty);
                                let fn_name = self.frame().fn_name.clone();
                                let tmp = self.mem.alloc(
                                    size,
                                    ty,
                                    MemKind::Var(format!("{fn_name}::$ret")),
                                );
                                self.copy_block(PtrVal { obj: tmp, off: 0 }, src, size);
                                Slot::Agg(PtrVal { obj: tmp, off: 0 }, ty)
                            }
                            v => v,
                        })
                    }
                    None => None,
                };
                Ok(Flow::Return(slot))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Goto(_) => self.err("goto is not supported by the interpreter", Span::dummy()),
        }
    }

    fn exec_switch(&mut self, cond: &Expr, body: &Stmt) -> IResult<Flow> {
        self.tick(cond.span)?;
        let scrut = match self.eval_scalar(cond)? {
            V::Int(i) => i,
            other => {
                return self.err(
                    format!("switch on non-integer {other:?}"),
                    cond.span,
                )
            }
        };
        let Stmt::Block(items) = body else {
            // Degenerate `switch (e) stmt;` — just execute it.
            return self.exec_stmt(body);
        };
        // Find the matching case (or default), then fall through.
        let mut start = None;
        let mut default_at = None;
        for (i, it) in items.iter().enumerate() {
            if let BlockItem::Stmt(s) = it {
                let mut cur = s;
                loop {
                    match cur {
                        Stmt::Case(v, inner) => {
                            let val = self.env.const_eval(v).unwrap_or(i64::MIN);
                            if val == scrut && start.is_none() {
                                start = Some(i);
                            }
                            cur = inner;
                        }
                        Stmt::Default(inner) => {
                            if default_at.is_none() {
                                default_at = Some(i);
                            }
                            cur = inner;
                        }
                        _ => break,
                    }
                }
            }
        }
        let Some(begin) = start.or(default_at) else {
            return Ok(Flow::Normal);
        };
        self.frame().scopes.push(HashMap::new());
        self.env.push_scope();
        let mut flow = Flow::Normal;
        for it in &items[begin..] {
            match it {
                BlockItem::Decl(d) => self.exec_local_decl(d)?,
                BlockItem::Stmt(st) => {
                    flow = self.exec_stmt(st)?;
                    match flow {
                        Flow::Break => {
                            flow = Flow::Normal;
                            break;
                        }
                        Flow::Return(_) => break,
                        _ => {}
                    }
                }
            }
        }
        self.env.pop_scope();
        self.frame().scopes.pop();
        Ok(flow)
    }

    fn exec_local_decl(&mut self, d: &structcast_ast::Declaration) -> IResult<()> {
        let base = self.env.build(&d.base).map_err(|m| InterpError {
            message: m,
            span: d.span,
        })?;
        for item in &d.items {
            let ty = self
                .env
                .build_with_base(&item.ty, base)
                .map_err(|m| InterpError {
                    message: m,
                    span: item.span,
                })?;
            let name = self.syms.text(item.name);
            if d.storage == Storage::Typedef {
                self.env.define_typedef(name, ty);
                continue;
            }
            if matches!(self.env.table.kind(ty), TypeKind::Function(_)) {
                continue; // local prototype
            }
            let fn_name = self.frame().fn_name.clone();
            let id = self.declare_local(&fn_name, name, ty);
            if let Some(init) = &item.init {
                self.init_object(id, 0, ty, init)?;
            }
        }
        Ok(())
    }

    // ----- expressions -----

    fn eval_scalar(&mut self, e: &Expr) -> IResult<V> {
        match self.eval(e)? {
            Slot::Val(v, _) => Ok(v),
            Slot::Agg(p, _) => Ok(V::Ptr(Some(p))), // array decay / struct addr
        }
    }

    fn eval(&mut self, e: &Expr) -> IResult<Slot> {
        self.tick(e.span)?;
        let int = self.env.table.int();
        match &e.kind {
            ExprKind::IntLit(v) | ExprKind::CharLit(v) => Ok(Slot::Val(V::Int(*v), int)),
            ExprKind::FloatLit(v) => {
                let d = self.env.table.double();
                Ok(Slot::Val(V::Float(*v), d))
            }
            ExprKind::StrLit(s) => {
                let s = self.syms.text(*s);
                let ch = self.env.table.char();
                let arr = self.env.table.array_of(ch, Some(s.len() as u64 + 1));
                let id = self.mem.alloc(s.len() as u64 + 1, arr, MemKind::Str);
                for (i, b) in s.bytes().enumerate() {
                    self.mem.store_int(id, i as u64, b as i64, 1);
                }
                let cp = self.env.table.char_ptr();
                Ok(Slot::Val(V::Ptr(Some(PtrVal { obj: id, off: 0 })), cp))
            }
            ExprKind::Ident(name) => {
                let name = self.syms.text(*name);
                if let Some((id, ty)) = self.resolve_var(name) {
                    return self.read_place(PtrVal { obj: id, off: 0 }, ty);
                }
                if let Some(v) = self.env.enum_consts.get(name) {
                    return Ok(Slot::Val(V::Int(*v), int));
                }
                if self.funcs.contains_key(name) {
                    let o = self.func_obj(name);
                    let v = self.env.table.void();
                    let vp = self.env.table.pointer_to(v);
                    return Ok(Slot::Val(V::Ptr(Some(PtrVal { obj: o, off: 0 })), vp));
                }
                self.err(format!("undeclared identifier `{name}`"), e.span)
            }
            ExprKind::Unary(UnOp::AddrOf, inner) => {
                let (at, ty) = self.lvalue(inner)?;
                let pt = self.env.table.pointer_to(ty);
                Ok(Slot::Val(V::Ptr(Some(at)), pt))
            }
            ExprKind::Unary(UnOp::Deref, _)
            | ExprKind::Member(_, _, _)
            | ExprKind::Index(_, _) => {
                let (at, ty) = self.lvalue(e)?;
                self.read_place(at, ty)
            }
            ExprKind::Unary(op, inner) => {
                let v = self.eval_scalar(inner)?;
                Ok(Slot::Val(
                    match (op, v) {
                        (UnOp::Neg, V::Int(i)) => V::Int(-i),
                        (UnOp::Neg, V::Float(f)) => V::Float(-f),
                        (UnOp::Plus, v) => v,
                        (UnOp::Not, v) => V::Int(i64::from(!self.truthy(&v))),
                        (UnOp::BitNot, V::Int(i)) => V::Int(!i),
                        (UnOp::PreInc, _) | (UnOp::PreDec, _) => {
                            return self.incdec(inner, matches!(op, UnOp::PreInc))
                        }
                        (op, v) => {
                            return self.err(
                                format!("unsupported unary {op} on {v:?}"),
                                e.span,
                            )
                        }
                    },
                    int,
                ))
            }
            ExprKind::PostIncDec(inner, inc) => self.incdec(inner, *inc),
            ExprKind::Binary(op, a, b) => self.binop(*op, a, b, e.span),
            ExprKind::Assign(op, lhs, rhs) => {
                let (at, lty) = self.lvalue(lhs)?;
                let newval = match op {
                    AssignOp::Simple => self.eval(rhs)?,
                    _ => {
                        let cur = self.read_place(at, lty)?;
                        let Slot::Val(cv, _) = cur else {
                            return self.err("compound assignment to aggregate", e.span);
                        };
                        let rv = self.eval_scalar(rhs)?;
                        let binop = match op {
                            AssignOp::Add => BinOp::Add,
                            AssignOp::Sub => BinOp::Sub,
                            AssignOp::Mul => BinOp::Mul,
                            AssignOp::Div => BinOp::Div,
                            AssignOp::Rem => BinOp::Rem,
                            AssignOp::Shl => BinOp::Shl,
                            AssignOp::Shr => BinOp::Shr,
                            AssignOp::And => BinOp::BitAnd,
                            AssignOp::Or => BinOp::BitOr,
                            AssignOp::Xor => BinOp::BitXor,
                            AssignOp::Simple => unreachable!(),
                        };
                        let res = self.scalar_binop(binop, cv, rv, lty, e.span)?;
                        Slot::Val(res, lty)
                    }
                };
                self.assign_to(at, lty, newval.clone(), e.span)?;
                Ok(newval)
            }
            ExprKind::Cond(c, t, f) => {
                let cv = self.eval_scalar(c)?;
                if self.truthy(&cv) {
                    self.eval(t)
                } else {
                    self.eval(f)
                }
            }
            ExprKind::Cast(ast_ty, inner) => {
                let target = self.env.build(ast_ty).map_err(|m| InterpError {
                    message: m,
                    span: e.span,
                })?;
                let v = self.eval(inner)?;
                self.cast(v, target, e.span)
            }
            ExprKind::Call(fexpr, args) => self.call(fexpr, args, e.span),
            ExprKind::SizeofExpr(inner) => {
                // Evaluate only the *type*; avoid side effects where we can
                // (fall back to evaluation for complex operands).
                let sz = match &inner.kind {
                    ExprKind::Ident(n) => self
                        .resolve_var(self.syms.text(*n))
                        .map(|(_, ty)| self.size_of(ty))
                        .unwrap_or(4),
                    _ => match self.eval(inner) {
                        Ok(Slot::Val(_, ty)) | Ok(Slot::Agg(_, ty)) => self.size_of(ty),
                        Err(_) => 4,
                    },
                };
                let ul = self.env.table.ulong();
                Ok(Slot::Val(V::Int(sz as i64), ul))
            }
            ExprKind::SizeofType(t) => {
                let ty = self.env.build(t).map_err(|m| InterpError {
                    message: m,
                    span: e.span,
                })?;
                let ul = self.env.table.ulong();
                Ok(Slot::Val(V::Int(self.size_of(ty) as i64), ul))
            }
            ExprKind::Comma(a, b) => {
                let _ = self.eval(a)?;
                self.eval(b)
            }
        }
    }

    /// Reads from a place: aggregates stay by-reference, scalars load.
    fn read_place(&mut self, at: PtrVal, ty: TypeId) -> IResult<Slot> {
        if self.is_aggregate(ty) {
            Ok(Slot::Agg(at, ty))
        } else {
            Ok(Slot::Val(self.load_scalar(at, ty), ty))
        }
    }

    fn incdec(&mut self, inner: &Expr, inc: bool) -> IResult<Slot> {
        let (at, ty) = self.lvalue(inner)?;
        let cur = self.load_scalar(at, ty);
        let next = match cur {
            V::Int(i) => V::Int(if inc { i + 1 } else { i - 1 }),
            V::Float(f) => V::Float(if inc { f + 1.0 } else { f - 1.0 }),
            V::Ptr(p) => {
                let step = self
                    .env
                    .table
                    .pointee(ty)
                    .map(|t| self.size_of(t))
                    .unwrap_or(1);
                V::Ptr(p.map(|p| PtrVal {
                    obj: p.obj,
                    off: if inc {
                        p.off + step
                    } else {
                        p.off.saturating_sub(step)
                    },
                }))
            }
        };
        self.store_scalar(at, ty, &next);
        Ok(Slot::Val(next, ty))
    }

    fn binop(&mut self, op: BinOp, a: &Expr, b: &Expr, span: Span) -> IResult<Slot> {
        // Short-circuit operators first.
        let int = self.env.table.int();
        if matches!(op, BinOp::LogAnd | BinOp::LogOr) {
            let va = self.eval_scalar(a)?;
            let ta = self.truthy(&va);
            let result = match op {
                BinOp::LogAnd => {
                    if !ta {
                        false
                    } else {
                        let vb = self.eval_scalar(b)?;
                        self.truthy(&vb)
                    }
                }
                _ => {
                    if ta {
                        true
                    } else {
                        let vb = self.eval_scalar(b)?;
                        self.truthy(&vb)
                    }
                }
            };
            return Ok(Slot::Val(V::Int(i64::from(result)), int));
        }
        let sa = self.eval(a)?;
        let sb = self.eval(b)?;
        let (va, ta) = self.decay(sa);
        let (vb, tb) = self.decay(sb);
        // Pointer arithmetic scales by the pointee size.
        match (&va, &vb) {
            (V::Ptr(pa), V::Int(ib)) if matches!(op, BinOp::Add | BinOp::Sub) => {
                let step = self.stride_of(ta);
                let moved = pa.map(|p| PtrVal {
                    obj: p.obj,
                    off: if op == BinOp::Add {
                        (p.off as i64 + ib * step as i64).max(0) as u64
                    } else {
                        (p.off as i64 - ib * step as i64).max(0) as u64
                    },
                });
                return Ok(Slot::Val(V::Ptr(moved), ta));
            }
            (V::Int(ia), V::Ptr(pb)) if op == BinOp::Add => {
                let step = self.stride_of(tb);
                let moved = pb.map(|p| PtrVal {
                    obj: p.obj,
                    off: (p.off as i64 + ia * step as i64).max(0) as u64,
                });
                return Ok(Slot::Val(V::Ptr(moved), tb));
            }
            (V::Ptr(pa), V::Ptr(pb)) if op == BinOp::Sub => {
                let step = self.stride_of(ta).max(1);
                let diff = match (pa, pb) {
                    (Some(x), Some(y)) if x.obj == y.obj => {
                        (x.off as i64 - y.off as i64) / step as i64
                    }
                    _ => 0,
                };
                return Ok(Slot::Val(V::Int(diff), int));
            }
            (V::Ptr(_), V::Ptr(_)) | (V::Ptr(_), V::Int(_)) | (V::Int(_), V::Ptr(_))
                if op.is_comparison() =>
            {
                let result = self.compare_mixed(op, &va, &vb);
                return Ok(Slot::Val(V::Int(i64::from(result)), int));
            }
            _ => {}
        }
        let res = self.scalar_binop(op, va, vb, int, span)?;
        Ok(Slot::Val(res, int))
    }

    /// The step size for pointer arithmetic on a value of type `ty`.
    fn stride_of(&self, ty: TypeId) -> u64 {
        match self.env.table.kind(ty) {
            TypeKind::Pointer(p) => self.size_of(*p),
            TypeKind::Array(e, _) => self.size_of(*e),
            _ => 1,
        }
    }

    fn compare_mixed(&self, op: BinOp, a: &V, b: &V) -> bool {
        let key = |v: &V| -> (i64, i64) {
            match v {
                V::Ptr(Some(p)) => (p.obj.0 as i64 + 1, p.off as i64),
                V::Ptr(None) => (0, 0),
                V::Int(i) => (0, *i),
                V::Float(f) => (0, *f as i64),
            }
        };
        let (ka, kb) = (key(a), key(b));
        match op {
            BinOp::Eq => ka == kb,
            BinOp::Ne => ka != kb,
            BinOp::Lt => ka < kb,
            BinOp::Gt => ka > kb,
            BinOp::Le => ka <= kb,
            BinOp::Ge => ka >= kb,
            _ => false,
        }
    }

    fn scalar_binop(&self, op: BinOp, a: V, b: V, _ty: TypeId, span: Span) -> IResult<V> {
        use BinOp::*;
        // Promote to float if either side is.
        if let (V::Float(_), _) | (_, V::Float(_)) = (&a, &b) {
            let fa = match a {
                V::Float(f) => f,
                V::Int(i) => i as f64,
                V::Ptr(_) => 0.0,
            };
            let fb = match b {
                V::Float(f) => f,
                V::Int(i) => i as f64,
                V::Ptr(_) => 0.0,
            };
            return Ok(match op {
                Add => V::Float(fa + fb),
                Sub => V::Float(fa - fb),
                Mul => V::Float(fa * fb),
                Div => V::Float(if fb == 0.0 { 0.0 } else { fa / fb }),
                Lt => V::Int(i64::from(fa < fb)),
                Gt => V::Int(i64::from(fa > fb)),
                Le => V::Int(i64::from(fa <= fb)),
                Ge => V::Int(i64::from(fa >= fb)),
                Eq => V::Int(i64::from(fa == fb)),
                Ne => V::Int(i64::from(fa != fb)),
                _ => return self.err("float bit operation", span),
            });
        }
        let ia = match a {
            V::Int(i) => i,
            V::Ptr(p) => self.ptr_to_int(p),
            V::Float(f) => f as i64,
        };
        let ib = match b {
            V::Int(i) => i,
            V::Ptr(p) => self.ptr_to_int(p),
            V::Float(f) => f as i64,
        };
        Ok(V::Int(match op {
            Add => ia.wrapping_add(ib),
            Sub => ia.wrapping_sub(ib),
            Mul => ia.wrapping_mul(ib),
            Div => {
                if ib == 0 {
                    0
                } else {
                    ia.wrapping_div(ib)
                }
            }
            Rem => {
                if ib == 0 {
                    0
                } else {
                    ia.wrapping_rem(ib)
                }
            }
            Shl => ia.wrapping_shl(ib as u32),
            Shr => ia.wrapping_shr(ib as u32),
            BitAnd => ia & ib,
            BitOr => ia | ib,
            BitXor => ia ^ ib,
            Lt => i64::from(ia < ib),
            Gt => i64::from(ia > ib),
            Le => i64::from(ia <= ib),
            Ge => i64::from(ia >= ib),
            Eq => i64::from(ia == ib),
            Ne => i64::from(ia != ib),
            LogAnd | LogOr => unreachable!("short-circuited above"),
        }))
    }

    /// Array-to-pointer decay for binary operands.
    fn decay(&mut self, s: Slot) -> (V, TypeId) {
        match s {
            Slot::Val(v, t) => (v, t),
            Slot::Agg(p, t) => match self.env.table.kind(t) {
                TypeKind::Array(e, _) => {
                    let pt = self.env.table.pointer_to(*e);
                    (V::Ptr(Some(p)), pt)
                }
                _ => (V::Ptr(Some(p)), t),
            },
        }
    }

    fn cast(&mut self, v: Slot, target: TypeId, span: Span) -> IResult<Slot> {
        let (val, _ty) = self.decay(v);
        let kind = self.env.table.kind(target).clone();
        Ok(match (kind, val) {
            (TypeKind::Pointer(_), V::Ptr(p)) => Slot::Val(V::Ptr(p), target),
            (TypeKind::Pointer(_), V::Int(bits)) => {
                Slot::Val(V::Ptr(self.int_to_ptr(bits)), target)
            }
            (TypeKind::Int(_), V::Ptr(p)) => Slot::Val(V::Int(self.ptr_to_int(p)), target),
            (TypeKind::Int(_), V::Float(f)) => Slot::Val(V::Int(f as i64), target),
            (TypeKind::Float(_), V::Int(i)) => Slot::Val(V::Float(i as f64), target),
            (TypeKind::Float(_), v @ V::Float(_)) => Slot::Val(v, target),
            (TypeKind::Enum(_), v) => Slot::Val(v, target),
            (TypeKind::Void, v) => Slot::Val(v, target),
            (_, v @ V::Int(_)) => Slot::Val(v, target),
            (k, v) => {
                return self.err(
                    format!("unsupported cast of {v:?} to {k:?}"),
                    span,
                )
            }
        })
    }

    // ----- lvalues -----

    fn lvalue(&mut self, e: &Expr) -> IResult<(PtrVal, TypeId)> {
        self.tick(e.span)?;
        match &e.kind {
            ExprKind::Ident(name) => match self.resolve_var(self.syms.text(*name)) {
                Some((id, ty)) => Ok((PtrVal { obj: id, off: 0 }, ty)),
                None => self.err(
                    format!("`{}` is not an lvalue", self.syms.text(*name)),
                    e.span,
                ),
            },
            ExprKind::Unary(UnOp::Deref, inner) => {
                let s = self.eval(inner)?;
                let (v, ty) = self.decay(s);
                let V::Ptr(Some(p)) = v else {
                    return self.err("null or wild dereference", e.span);
                };
                let pointee = self
                    .env
                    .table
                    .pointee(ty)
                    .unwrap_or_else(|| self.env.table.int());
                Ok((p, pointee))
            }
            ExprKind::Member(obj, fname, arrow) => {
                let fname = self.syms.text(*fname);
                let (base, base_ty) = if *arrow {
                    let s = self.eval(obj)?;
                    let (v, ty) = self.decay(s);
                    let V::Ptr(Some(p)) = v else {
                        return self.err("null -> dereference", e.span);
                    };
                    let pointee = self
                        .env
                        .table
                        .pointee(ty)
                        .ok_or_else(|| InterpError {
                            message: "-> on non-pointer".into(),
                            span: e.span,
                        })?;
                    (p, pointee)
                } else {
                    self.lvalue(obj)?
                };
                let stripped = self.env.table.strip_arrays(base_ty);
                let rid = self.env.table.as_record(stripped).ok_or_else(|| {
                    InterpError {
                        message: format!(
                            "member of non-struct {}",
                            self.env.table.display(base_ty)
                        ),
                        span: e.span,
                    }
                })?;
                let steps = self.env.table.resolve_member(rid, fname).ok_or_else(|| {
                    InterpError {
                        message: format!("no member `{fname}`"),
                        span: e.span,
                    }
                })?;
                let path = structcast_types::FieldPath::from_steps(steps);
                let off = self
                    .layout
                    .offset_of_path(&self.env.table, stripped, &path);
                let fty = structcast_types::type_of_path(&self.env.table, stripped, &path)
                    .expect("resolved member has a type");
                Ok((
                    PtrVal {
                        obj: base.obj,
                        off: base.off + off,
                    },
                    fty,
                ))
            }
            ExprKind::Index(arr, idx) => {
                let iv = match self.eval_scalar(idx)? {
                    V::Int(i) => i,
                    other => return self.err(format!("non-integer index {other:?}"), e.span),
                };
                let s = self.eval(arr)?;
                let (v, ty) = self.decay(s);
                let V::Ptr(Some(p)) = v else {
                    return self.err("indexing a null pointer", e.span);
                };
                let elem = self
                    .env
                    .table
                    .pointee(ty)
                    .unwrap_or_else(|| self.env.table.int());
                let es = self.size_of(elem);
                let off = p.off as i64 + iv * es as i64;
                if off < 0 {
                    return self.err("negative index underflow", e.span);
                }
                Ok((
                    PtrVal {
                        obj: p.obj,
                        off: off as u64,
                    },
                    elem,
                ))
            }
            _ => self.err("expression is not an lvalue", e.span),
        }
    }

    // ----- calls & builtins -----

    fn call(&mut self, fexpr: &Expr, args: &[Expr], span: Span) -> IResult<Slot> {
        // Unwrap (*fp) and parens.
        let mut target = fexpr;
        while let ExprKind::Unary(UnOp::Deref, inner) = &target.kind {
            target = inner;
        }
        // Builtin or direct call by name?
        if let ExprKind::Ident(name) = target.kind {
            let name = self.syms.text(name);
            if self.resolve_var(name).is_none() {
                if let Some(f) = self.funcs.get(name).copied() {
                    let mut argv = Vec::new();
                    for a in args {
                        argv.push(self.eval(a)?);
                    }
                    let ret = self.call_function(f, &argv)?;
                    return Ok(ret.unwrap_or(Slot::Val(V::Int(0), self.env.table.int())));
                }
                return self.builtin(name, args, span);
            }
        }
        // Indirect call through a pointer value.
        let s = self.eval(target)?;
        let (v, _ty) = self.decay(s);
        let V::Ptr(Some(p)) = v else {
            return self.err("call through null pointer", span);
        };
        let MemKind::Func(name) = self.mem.obj(p.obj).kind.clone() else {
            return self.err("call through non-function pointer", span);
        };
        let Some(f) = self.funcs.get(name.as_str()).copied() else {
            return self.err(format!("function `{name}` has no body"), span);
        };
        let mut argv = Vec::new();
        for a in args {
            argv.push(self.eval(a)?);
        }
        let ret = self.call_function(f, &argv)?;
        Ok(ret.unwrap_or(Slot::Val(V::Int(0), self.env.table.int())))
    }

    fn builtin(&mut self, name: &str, args: &[Expr], span: Span) -> IResult<Slot> {
        let int = self.env.table.int();
        let zero = Slot::Val(V::Int(0), int);
        let eval_int = |ev: &mut Self, i: usize| -> IResult<i64> {
            match ev.eval_scalar(&args[i])? {
                V::Int(v) => Ok(v),
                V::Float(f) => Ok(f as i64),
                V::Ptr(p) => Ok(ev.ptr_to_int(p)),
            }
        };
        let eval_ptr = |ev: &mut Self, i: usize| -> IResult<Option<PtrVal>> {
            let s = ev.eval(&args[i])?;
            match ev.decay(s) {
                (V::Ptr(p), _) => Ok(p),
                (V::Int(bits), _) => Ok(ev.int_to_ptr(bits)),
                _ => Ok(None),
            }
        };
        match name {
            "malloc" | "calloc" | "valloc" | "alloca" => {
                let size = if name == "calloc" && args.len() >= 2 {
                    eval_int(self, 0)? * eval_int(self, 1)?
                } else if !args.is_empty() {
                    eval_int(self, 0)?
                } else {
                    0
                };
                let ch = self.env.table.char();
                let arr = self.env.table.array_of(ch, Some(size.max(1) as u64));
                let id = self
                    .mem
                    .alloc(size.max(1) as u64, arr, MemKind::Heap(span.start));
                let vp = self.env.table.void_ptr();
                Ok(Slot::Val(V::Ptr(Some(PtrVal { obj: id, off: 0 })), vp))
            }
            "free" | "cfree" => {
                if !args.is_empty() {
                    if let Some(p) = eval_ptr(self, 0)? {
                        self.mem.obj_mut(p.obj).freed = true;
                    }
                }
                Ok(zero)
            }
            "memcpy" | "memmove" => {
                let d = eval_ptr(self, 0)?;
                let s = eval_ptr(self, 1)?;
                let n = eval_int(self, 2)?;
                if let (Some(d), Some(s)) = (d, s) {
                    self.copy_block(d, s, n.max(0) as u64);
                }
                let vp = self.env.table.void_ptr();
                Ok(Slot::Val(V::Ptr(d), vp))
            }
            "memset" | "bzero" => {
                let d = eval_ptr(self, 0)?;
                if let Some(d) = d {
                    let (v, n) = if name == "memset" {
                        (eval_int(self, 1)?, eval_int(self, 2)?)
                    } else {
                        (0, eval_int(self, 1)?)
                    };
                    for i in 0..n.max(0) as u64 {
                        self.mem.store_int(d.obj, d.off + i, v, 1);
                    }
                }
                let vp = self.env.table.void_ptr();
                Ok(Slot::Val(V::Ptr(d), vp))
            }
            "strlen" => {
                let p = eval_ptr(self, 0)?;
                let mut n = 0i64;
                if let Some(p) = p {
                    while self.mem.load_int(p.obj, p.off + n as u64, 1) != 0 {
                        n += 1;
                        if n > 1 << 20 {
                            break;
                        }
                    }
                }
                Ok(Slot::Val(V::Int(n), int))
            }
            "strcmp" | "strncmp" => {
                let a = eval_ptr(self, 0)?;
                let b = eval_ptr(self, 1)?;
                let limit = if name == "strncmp" {
                    eval_int(self, 2)?
                } else {
                    i64::MAX
                };
                let mut r = 0i64;
                if let (Some(a), Some(b)) = (a, b) {
                    let mut i = 0u64;
                    loop {
                        if (i as i64) >= limit {
                            break;
                        }
                        let ca = self.mem.load_int(a.obj, a.off + i, 1);
                        let cb = self.mem.load_int(b.obj, b.off + i, 1);
                        if ca != cb {
                            r = ca - cb;
                            break;
                        }
                        if ca == 0 {
                            break;
                        }
                        i += 1;
                    }
                }
                Ok(Slot::Val(V::Int(r), int))
            }
            "strcpy" | "strncpy" => {
                let d = eval_ptr(self, 0)?;
                let s = eval_ptr(self, 1)?;
                if let (Some(d), Some(s)) = (d, s) {
                    let mut i = 0u64;
                    loop {
                        let c = self.mem.load_int(s.obj, s.off + i, 1);
                        self.mem.store_int(d.obj, d.off + i, c, 1);
                        if c == 0 || i > 1 << 20 {
                            break;
                        }
                        i += 1;
                    }
                }
                let cp = self.env.table.char_ptr();
                Ok(Slot::Val(V::Ptr(d), cp))
            }
            "strchr" => {
                let p = eval_ptr(self, 0)?;
                let c = eval_int(self, 1)?;
                let cp = self.env.table.char_ptr();
                if let Some(p) = p {
                    let mut i = 0u64;
                    loop {
                        let ch = self.mem.load_int(p.obj, p.off + i, 1);
                        if ch == c {
                            return Ok(Slot::Val(
                                V::Ptr(Some(PtrVal {
                                    obj: p.obj,
                                    off: p.off + i,
                                })),
                                cp,
                            ));
                        }
                        if ch == 0 || i > 1 << 20 {
                            break;
                        }
                        i += 1;
                    }
                }
                Ok(Slot::Val(V::Ptr(None), cp))
            }
            "strdup" => {
                let s = eval_ptr(self, 0)?;
                let cp = self.env.table.char_ptr();
                if let Some(s) = s {
                    let mut n = 0u64;
                    while self.mem.load_int(s.obj, s.off + n, 1) != 0 && n < 1 << 20 {
                        n += 1;
                    }
                    let ch = self.env.table.char();
                    let arr = self.env.table.array_of(ch, Some(n + 1));
                    let id = self.mem.alloc(n + 1, arr, MemKind::Heap(span.start));
                    self.copy_block(PtrVal { obj: id, off: 0 }, s, n + 1);
                    return Ok(Slot::Val(V::Ptr(Some(PtrVal { obj: id, off: 0 })), cp));
                }
                Ok(Slot::Val(V::Ptr(None), cp))
            }
            "printf" | "fprintf" | "puts" | "putchar" | "fputs" | "perror" => {
                for a in args {
                    let _ = self.eval(a)?; // argument side effects still happen
                }
                Ok(zero)
            }
            "abs" | "labs" => {
                let v = eval_int(self, 0)?;
                Ok(Slot::Val(V::Int(v.abs()), int))
            }
            "exit" | "_exit" | "abort" => Err(InterpError {
                message: "program exited".into(),
                span,
            }),
            "rand" => Ok(Slot::Val(V::Int(12345), int)),
            "srand" | "assert" | "fflush" => {
                for a in args {
                    let _ = self.eval(a)?;
                }
                Ok(zero)
            }
            other => self.err(format!("unsupported external function `{other}`"), span),
        }
    }
}
