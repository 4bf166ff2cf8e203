//! Library-call summaries.
//!
//! The paper handled library calls "by providing summaries of the potential
//! pointer assignments in each library function" (§5, using the Wilson–Lam
//! summaries). We synthesize equivalent IR directly at each call site for
//! the libc functions the benchmark corpus uses. Unknown external functions
//! fall through to a warning and are treated as having no pointer effects.
//!
//! Notable modeling decisions (see DESIGN.md §3):
//!
//! * allocators create one [`ObjKind::Heap`] pseudo-variable per call site
//!   (paper §2); the heap object's type is recovered from `sizeof` in the
//!   byte-count argument or from an enclosing pointer cast when present,
//!   and falls back to an untyped byte blob otherwise;
//! * `memcpy`/`memmove` emit [`Stmt::CopyAll`];
//! * `str*` copy routines move characters only (no pointer payloads);
//! * functions returning a pointer *into* an argument (`strchr`, `bsearch`)
//!   return a spread ([`Stmt::PtrArith`]) of that argument;
//! * callback takers (`qsort`, `bsearch`, `atexit`, `signal`) emit indirect
//!   calls so handlers are analyzed.

use super::expr::Val;
use super::{Lowerer, Result};
use crate::ir::*;
use structcast_ast::{Expr, ExprKind, Sym};
use structcast_types::{FieldPath, TypeId, TypeKind};

/// What a summarized function does, pointer-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Summary {
    /// Returns a fresh heap block (`malloc`, `calloc`, `strdup`, `fopen`...).
    Alloc,
    /// `realloc`: fresh block *or* the original pointer.
    Realloc,
    /// Returns its `n`-th argument (`memset`, `strcpy`, `fgets`, ...).
    RetArg(usize),
    /// Returns a pointer somewhere into its `n`-th argument (`strchr`...).
    PtrIntoArg(usize),
    /// `memcpy`-family: bulk-copies arg1's block into arg0's block and
    /// returns arg0.
    MemCopy,
    /// `bcopy(src, dst, n)`: MemCopy with swapped operands, returns nothing.
    BCopy,
    /// Returns the address of a per-callsite static buffer (`getenv`, ...).
    StaticBuf,
    /// `strtok`: stashes arg0 in hidden static state and returns a pointer
    /// into it.
    Strtok,
    /// `qsort(base, n, sz, cmp)`: calls `cmp` with pointers into `base`.
    Qsort,
    /// `bsearch(key, base, n, sz, cmp)`: calls `cmp(key, &base[i])` and
    /// returns a pointer into `base`.
    Bsearch,
    /// `signal(sig, handler)`: returns the (previous) handler.
    Signal,
    /// `atexit(f)` / `on_exit`: `f` is eventually called.
    AtExit,
    /// No pointer effects; returns a scalar.
    Noop,
}

fn summary_for(name: &str) -> Option<Summary> {
    use Summary::*;
    Some(match name {
        "malloc" | "calloc" | "valloc" | "alloca" | "sbrk" => Alloc,
        "realloc" => Realloc,
        "strdup" | "strndup" => Alloc,
        "fopen" | "fdopen" | "freopen" | "tmpfile" | "opendir" | "popen" => Alloc,
        "free" | "cfree" => Noop,
        "memcpy" | "memmove" => MemCopy,
        "bcopy" => BCopy,
        "memset" | "bzero" => RetArg(0),
        "strcpy" | "strncpy" | "strcat" | "strncat" => RetArg(0),
        "gets" | "fgets" => RetArg(0),
        "sprintf" | "snprintf" | "vsprintf" => Noop,
        "strchr" | "strrchr" | "index" | "rindex" | "strstr" | "strpbrk" | "memchr" => {
            PtrIntoArg(0)
        }
        "strtok" => Strtok,
        "getenv" | "ctime" | "asctime" | "ttyname" | "getlogin" | "tmpnam" | "localtime"
        | "gmtime" | "readdir" | "strerror" => StaticBuf,
        "qsort" => Qsort,
        "bsearch" => Bsearch,
        "signal" => Signal,
        "atexit" | "on_exit" => AtExit,
        // Pure / output-only / numeric functions: no pointer effects.
        "printf" | "fprintf" | "vfprintf" | "puts" | "fputs" | "putchar" | "putc" | "fputc"
        | "scanf" | "fscanf" | "sscanf" | "getchar" | "getc" | "fgetc" | "ungetc" | "fclose"
        | "pclose" | "closedir" | "fflush" | "fseek" | "ftell" | "rewind" | "fread" | "fwrite"
        | "feof" | "ferror" | "clearerr" | "strlen" | "strcmp" | "strncmp" | "strcasecmp"
        | "strncasecmp" | "memcmp" | "bcmp" | "strspn" | "strcspn" | "atoi" | "atol" | "atof"
        | "strtol" | "strtoul" | "strtod" | "abs" | "labs" | "div" | "ldiv" | "rand" | "srand"
        | "random" | "srandom" | "exit" | "_exit" | "abort" | "assert" | "perror" | "time"
        | "clock" | "getpid" | "getuid" | "isalpha" | "isdigit" | "isalnum" | "isspace"
        | "isupper" | "islower" | "ispunct" | "isprint" | "iscntrl" | "isxdigit" | "toupper"
        | "tolower" | "setbuf" | "setvbuf" | "remove" | "unlink" | "rename" | "system"
        | "sleep" | "pow" | "sqrt" | "floor" | "ceil" | "fabs" | "exp" | "log" | "sin" | "cos"
        | "tan" | "atan" | "atan2" | "fmod" | "longjmp" | "setjmp" | "_setjmp" | "_longjmp" => {
            Noop
        }
        _ => return None,
    })
}

impl Lowerer<'_> {
    /// Tries to apply a library summary for `name`. Returns `Ok(None)` if
    /// the name has no summary (caller warns and treats it as a no-op).
    pub(crate) fn try_summary(
        &mut self,
        name: Sym,
        arg_vals: &[Val],
        arg_exprs: &[Expr],
    ) -> Result<Option<Val>> {
        let Some(kind) = summary_for(self.text(name)) else {
            return Ok(None);
        };
        use Summary::*;
        let int = self.prog.types.int();
        let scalar = Val::Scalar(int);
        let v = match kind {
            Noop => scalar,
            Alloc | Realloc => {
                let elem_ty = self.allocation_type(arg_exprs);
                let heap = self.new_heap_object(elem_ty);
                self.last_alloc = Some(heap);
                let vp = self.prog.types.void_ptr();
                let t = self.new_temp(vp);
                self.emit(Stmt::AddrOf {
                    dst: t,
                    src: heap,
                    path: FieldPath::empty(),
                });
                if kind == Realloc {
                    // The result may be the original block, with contents
                    // preserved: copy the old block into the new one too.
                    if let Some(Val::Obj { .. }) = arg_vals.first() {
                        if let Some(old) = self.materialize(&arg_vals[0].clone()) {
                            self.emit(Stmt::Copy {
                                dst: t,
                                src: old,
                                path: FieldPath::empty(),
                            });
                            self.emit(Stmt::CopyAll {
                                dst_ptr: t,
                                src_ptr: old,
                            });
                        }
                    }
                }
                Val::Obj {
                    obj: t,
                    path: FieldPath::empty(),
                    ty: vp,
                }
            }
            RetArg(n) => arg_vals.get(n).cloned().unwrap_or(scalar),
            PtrIntoArg(n) => match arg_vals.get(n) {
                Some(v @ Val::Obj { .. }) => self.spread_of(v),
                _ => scalar,
            },
            MemCopy | BCopy => {
                let (d, s) = if kind == MemCopy { (0, 1) } else { (1, 0) };
                if let (Some(dv), Some(sv)) = (arg_vals.get(d), arg_vals.get(s)) {
                    if let (Some(dp), Some(sp)) = (
                        self.materialize(&dv.clone()),
                        self.materialize(&sv.clone()),
                    ) {
                        self.emit(Stmt::CopyAll {
                            dst_ptr: dp,
                            src_ptr: sp,
                        });
                    }
                }
                if kind == MemCopy {
                    arg_vals.first().cloned().unwrap_or(scalar)
                } else {
                    scalar
                }
            }
            StaticBuf => {
                let buf = self.static_buffer(name);
                let cp = self.prog.types.char_ptr();
                let t = self.new_temp(cp);
                self.emit(Stmt::AddrOf {
                    dst: t,
                    src: buf,
                    path: FieldPath::empty(),
                });
                Val::Obj {
                    obj: t,
                    path: FieldPath::empty(),
                    ty: cp,
                }
            }
            Strtok => {
                let state = self.strtok_state();
                if let Some(Val::Obj { .. }) = arg_vals.first() {
                    if let Some(s) = self.materialize(&arg_vals[0].clone()) {
                        self.emit(Stmt::Copy {
                            dst: state,
                            src: s,
                            path: FieldPath::empty(),
                        });
                    }
                }
                let cp = self.prog.types.char_ptr();
                let t = self.new_temp(cp);
                self.emit(Stmt::PtrArith { dst: t, src: state });
                Val::Obj {
                    obj: t,
                    path: FieldPath::empty(),
                    ty: cp,
                }
            }
            Qsort => {
                self.emit_comparator_call(arg_vals.get(3), &[arg_vals.first(), arg_vals.first()]);
                scalar
            }
            Bsearch => {
                self.emit_comparator_call(arg_vals.get(4), &[arg_vals.first(), arg_vals.get(1)]);
                match arg_vals.get(1) {
                    Some(v @ Val::Obj { .. }) => self.spread_of(v),
                    _ => scalar,
                }
            }
            Signal => arg_vals.get(1).cloned().unwrap_or(scalar),
            AtExit => {
                if let Some(v @ Val::Obj { .. }) = arg_vals.first() {
                    if let Some(f) = self.materialize(&v.clone()) {
                        self.emit(Stmt::Call {
                            callee: Callee::Indirect(f),
                            args: vec![],
                            ret: None,
                        });
                    }
                }
                scalar
            }
        };
        Ok(Some(v))
    }

    /// A spread of pointer value `v`: points anywhere into the objects `v`
    /// points into.
    fn spread_of(&mut self, v: &Val) -> Val {
        let src = self
            .materialize(&v.clone())
            .expect("spread_of needs an object value");
        let ty = v.ty();
        let t = self.new_temp(ty);
        self.emit(Stmt::PtrArith { dst: t, src });
        Val::Obj {
            obj: t,
            path: FieldPath::empty(),
            ty,
        }
    }

    fn emit_comparator_call(&mut self, cmp: Option<&Val>, ptr_args: &[Option<&Val>]) {
        let Some(cmp @ Val::Obj { .. }) = cmp else {
            return;
        };
        let Some(f) = self.materialize(&cmp.clone()) else {
            return;
        };
        let mut args = Vec::new();
        for a in ptr_args {
            if let Some(v @ Val::Obj { .. }) = a {
                let spread = self.spread_of(v);
                args.push(self.materialize_always(&spread));
            } else {
                let int = self.prog.types.int();
                args.push(self.new_temp(int));
            }
        }
        self.emit(Stmt::Call {
            callee: Callee::Indirect(f),
            args,
            ret: None,
        });
    }

    /// Guesses an allocation's element type from `sizeof` inside the size
    /// argument(s); falls back to an untyped byte blob. The result is
    /// wrapped as an unsized array so multi-element allocations get the
    /// representative-element treatment.
    fn allocation_type(&mut self, arg_exprs: &[Expr]) -> TypeId {
        for e in arg_exprs {
            if let Some(t) = self.find_sizeof_type(e) {
                return self.prog.types.array_of(t, None);
            }
        }
        let ch = self.prog.types.char();
        self.prog.types.array_of(ch, None)
    }

    fn find_sizeof_type(&mut self, e: &Expr) -> Option<TypeId> {
        match &e.kind {
            ExprKind::SizeofType(t) => self.build_type(t).ok(),
            ExprKind::SizeofExpr(inner) => {
                // `malloc(sizeof *p)` — use the static type of the operand.
                // We avoid emitting statements: only identifiers and simple
                // derefs/members are recognized.
                self.static_type_no_effects(inner)
            }
            ExprKind::Binary(_, a, b) => self
                .find_sizeof_type(a)
                .or_else(|| self.find_sizeof_type(b)),
            ExprKind::Cast(_, inner) | ExprKind::Unary(_, inner) => self.find_sizeof_type(inner),
            _ => None,
        }
    }

    /// Side-effect-free static type computation for simple expressions
    /// (used only by the `sizeof` heuristic above).
    fn static_type_no_effects(&mut self, e: &Expr) -> Option<TypeId> {
        match &e.kind {
            &ExprKind::Ident(name) => match self.resolve_ident(name)? {
                super::Resolved::Obj(o) => Some(self.prog.type_of(o)),
                _ => None,
            },
            ExprKind::Unary(structcast_ast::UnOp::Deref, inner) => {
                let t = self.static_type_no_effects(inner)?;
                self.prog.types.pointee(t)
            }
            ExprKind::Member(obj, f, arrow) => {
                let t = self.static_type_no_effects(obj)?;
                let rec_ty = if *arrow { self.prog.types.pointee(t)? } else { t };
                let stripped = self.prog.types.strip_arrays(rec_ty);
                let rid = self.prog.types.as_record(stripped)?;
                let steps = self.prog.types.resolve_member(rid, self.text(*f))?;
                structcast_types::type_of_path(
                    &self.prog.types,
                    stripped,
                    &structcast_types::FieldPath::from_steps(steps),
                )
            }
            ExprKind::Index(a, _) => {
                let t = self.static_type_no_effects(a)?;
                match self.prog.types.kind(t) {
                    TypeKind::Array(e, _) => Some(*e),
                    TypeKind::Pointer(p) => Some(*p),
                    _ => None,
                }
            }
            ExprKind::Cast(t, _) => self.build_type(t).ok(),
            _ => None,
        }
    }

    fn static_buffer(&mut self, name: Sym) -> ObjId {
        if let Some(&b) = self.static_bufs.get(&name) {
            return b;
        }
        let ch = self.prog.types.char();
        let arr = self.prog.types.array_of(ch, None);
        let obj = self.new_object(format!("__{}_buf", self.text(name)), arr, ObjKind::Global);
        self.static_bufs.insert(name, obj);
        obj
    }

    fn strtok_state(&mut self) -> ObjId {
        if let Some(s) = self.strtok_state {
            return s;
        }
        let cp = self.prog.types.char_ptr();
        let obj = self.new_object("__strtok_state".into(), cp, ObjKind::Global);
        self.strtok_state = Some(obj);
        obj
    }
}
