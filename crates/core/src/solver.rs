//! The worklist fixpoint solver implementing the inference rules of the
//! paper's Figure 2, parameterized by a [`FieldModel`].
//!
//! Like the paper's implementation (§5), the solver treats the program as a
//! graph with one node per abstract object and one edge per normalized
//! assignment, then applies the rules to add points-to edges until nothing
//! changes. Statements *subscribe* to the objects whose facts they consume
//! (object granularity), so a new fact only re-fires the statements that
//! might derive more from it.
//!
//! The solver is the **third stage** of the pipeline: it consumes the
//! model-independent [`ConstraintSet`] produced by `structcast-constraints`
//! (stage 1, one IR walk per program) after *specializing* each constraint
//! against the chosen [`FieldModel`] (stage 2: operands normalized through
//! the instance's `normalize` and interned). The solver itself never walks
//! the IR.
//!
//! The data plane works on dense interned [`LocId`]s with **difference
//! propagation**: constraints are specialized once into [`CStmt`]s holding
//! pre-normalized operand ids, and each firing consumes only the *delta*
//! of facts added since its last visit (per-pair copy cursors for Rules
//! 3/4/5 and `CopyAll`; one scan cursor per statement for Rule 2,
//! `PtrArith`, and indirect-call discovery, each of which watches a single
//! location). Re-firing a statement against an unchanged points-to set is a
//! no-op that touches no `Loc` at all. Every table keyed by ids, leaf
//! indices or offsets hashes with [`structcast_types::idhash`]; hash order
//! never decides firing order, so the facts and their order do not depend
//! on the hasher.
//!
//! When the instance's `resolve` is pure ([`FieldModel::resolve_is_pure`]:
//! Collapse Always, Collapse on Cast, CIS), Rules 3/4/5 also resolve each
//! dereference target only once. `resolve` is called at most once per
//! **type-level key** `(type_of(dst.obj), dst.field, type_of(src.obj),
//! src.field, τ)` per run; the relative field pairs and the call's
//! [`ModelStats`] increment are stored, and concrete pairs are built by
//! re-attaching the two objects. Each Load, Store and Copy statement keeps
//! a pair list: the interned `(dst, src)` pairs of the targets it has
//! resolved, each with its copy cursor inline, plus the summed stats of
//! those resolves. A firing copies deltas along the list, resolves only the
//! pointer's new targets, and adds the stats sum once, so the Figure 3
//! counts equal those of re-resolving every target on every firing. Offsets
//! (whose `resolve` reads the store) and `CopyAll` re-resolve each firing
//! and keep their cursors keyed by `(stmt, dst, src)`.
//!
//! The hot path allocates little. The per-key lists of the graph (the
//! subscribers of each object and the pair list of each statement, like
//! the fact store's target and source lists) each live in one
//! [`ListArena`], not one `Vec` per key. The model hooks append their
//! results to buffers the engine owns and clears before each call, a delta
//! is copied by position without a snapshot, and call binding reads the
//! call's operands from the compiled statement by index.
//!
//! Indirect calls are resolved inside the same fixpoint: when the points-to
//! set of a call's function pointer grows a function object, parameter and
//! return bindings are synthesized as fresh `Copy` statements (monotone, so
//! the fixpoint remains well-defined).

use crate::arena::ListArena;
use crate::budget::{Budget, SolveError, TIME_CHECK_INTERVAL};
use crate::facts::FactStore;
use crate::loc::{FieldRep, Loc, LocId};
use crate::model::{FieldModel, ModelStats};
use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};
use structcast_constraints::{Constraint, ConstraintSet};
use structcast_ir::{FuncId, ObjId, Program};
use structcast_types::idhash::{IdHashMap, IdHashSet};
use structcast_types::{FieldPath, TypeId};

thread_local! {
    /// Fixpoint runs performed on this thread (see [`solves_on_thread`]).
    static SOLVES: Cell<u64> = const { Cell::new(0) };
}

/// Number of [`Solver::run`] fixpoints performed **on the current thread**
/// since it started.
///
/// The counterpart of `structcast_constraints::compiles_on_thread` for
/// stage 3: tests (and the query server's cache tests) assert that a
/// memoized result is served without re-running the solver by taking the
/// counter's delta around the code under test. Thread-local on purpose, so
/// parallel test threads don't race each other's counts.
pub fn solves_on_thread() -> u64 {
    SOLVES.with(|c| c.get())
}

/// Credits `n` fixpoint runs to the **current** thread's counter.
///
/// The parallel solving layer runs fixpoints on short-lived worker threads
/// whose thread-local counters die with them; it measures each worker's
/// delta and credits the sum back to the thread that requested the work, so
/// callers observing [`solves_on_thread`] see every solve they caused.
pub(crate) fn credit_solves(n: u64) {
    SOLVES.with(|c| c.set(c.get() + n));
}

/// How pointer arithmetic is modeled (paper §4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArithMode {
    /// Assumption 1 (the paper's choice): the result may point to any
    /// normalized position of the outermost object each target lies in.
    #[default]
    Spread,
    /// The pessimistic alternative the paper sketches: the result is a
    /// potentially *corrupted* pointer, recorded in the `Unknown` set and
    /// given no targets — useful for flagging potential memory misuse.
    FlagUnknown,
}

/// A constraint specialized against the model: operand locations are
/// normalized and interned once at construction, so a firing performs no
/// normalization, no type-table scans, and no `Stmt` clones.
enum CStmt {
    /// Rule 1: `s = (τ)&t.β`.
    AddrOf { d: LocId, t: LocId },
    /// Rule 2: `s = (τ)&(*p).α`.
    AddrField {
        d: LocId,
        p: LocId,
        tau_p: TypeId,
        path: FieldPath,
    },
    /// Rule 3: `s = (τ)t.β`.
    Copy { d: LocId, s: LocId, tau: TypeId },
    /// Rule 4: `s = (τ)*q`.
    Load { d: LocId, p: LocId, tau: TypeId },
    /// Rule 5: `*p = (τ_p)t`.
    Store { p: LocId, s: LocId, tau_p: TypeId },
    /// Extension: pointer arithmetic.
    PtrArith {
        d: LocId,
        s: LocId,
        pointee: Option<TypeId>,
    },
    /// Extension: memcpy-style bulk copy.
    CopyAll { dp: LocId, sp: LocId },
    /// Direct call: bindings synthesized on the first (only) firing.
    CallDirect {
        fid: FuncId,
        args: Vec<ObjId>,
        ret: Option<ObjId>,
    },
    /// Indirect call: callees discovered from the function pointer's
    /// points-to delta.
    CallIndirect {
        p: LocId,
        args: Vec<ObjId>,
        ret: Option<ObjId>,
    },
}

/// One copy edge of a statement's pair list with its read position into
/// `pts(src)`.
#[derive(Clone, Copy)]
struct Pair {
    dst: LocId,
    src: LocId,
    cur: u32,
}

/// A Load, Store or Copy statement's resolve progress under a pure
/// `resolve`. Its copy edges are the statement's list in
/// [`Engine::pairs`], in target order then `resolve` order.
///
/// A pair that two targets both produce appears twice, each copy with its
/// own cursor. The second copy re-inserts only facts the first already
/// inserted, so the facts, their order and the wakes equal those of one
/// shared cursor.
#[derive(Clone, Copy, Default)]
struct PairList {
    /// Targets of the dereferenced pointer resolved so far, in
    /// `pts(ptr)` order (a Copy counts its one operand pair as a target).
    resolved: u32,
    /// Summed `ModelStats` increments of those targets' `resolve` calls,
    /// added to the run's stats once per firing.
    stats: ModelStats,
}

/// One memoized `resolve` call: where its pairs' field components lie in
/// [`ResolveMemo::fields`], and the call's stats increment.
#[derive(Clone, Copy)]
struct Resolved {
    start: u32,
    len: u32,
    stats: ModelStats,
}

/// The operands' part of a `resolve` call under the purity contract:
/// `(type_of(dst.obj), dst.field, type_of(src.obj), src.field, τ)`.
type ShapeKey = (TypeId, FieldRep, TypeId, FieldRep, TypeId);

/// The `resolve` memo and the per-statement resolve progress of a run
/// whose instance has a pure `resolve`. Dropped with the engine.
#[derive(Default)]
struct ResolveMemo {
    /// Type-level key → the one `resolve` call made for it.
    results: IdHashMap<ShapeKey, Resolved>,
    /// The field pairs of every memoized call, back to back.
    fields: Vec<(FieldRep, FieldRep)>,
    /// Statement index → its resolve progress.
    lists: Vec<PairList>,
}

/// The mutable engine state, split from the compiled statement list so
/// firing can borrow a `CStmt` while mutating everything else.
struct Engine<'p> {
    prog: &'p Program,
    model: Box<dyn FieldModel>,
    facts: FactStore,
    stats: ModelStats,
    /// Object (by dense id) → statements to re-fire when a fact rooted in
    /// it changes.
    subs: ListArena<u32>,
    /// Subscription dedup: `(stmt, obj)` pairs already registered.
    subbed: IdHashSet<(u32, u32)>,
    queued: Vec<bool>,
    worklist: VecDeque<u32>,
    /// Indirect-call bindings already synthesized.
    bound_calls: IdHashSet<(usize, FuncId)>,
    /// Statement evaluations performed (a work measure).
    iterations: u64,
    /// How pointer arithmetic is treated.
    arith_mode: ArithMode,
    /// Locations flagged as possibly holding corrupted pointers
    /// ([`ArithMode::FlagUnknown`] only).
    unknown: IdHashSet<LocId>,
    /// Per-statement read position into `pts(watched)` for the scan-style
    /// rules whose per-target work is independent of other facts (Rule 2,
    /// `PtrArith` spread, callee discovery). Each watches exactly one
    /// location, so one slot per statement suffices; indexed like `queued`.
    scan_cursors: Vec<u32>,
    /// Per-`(stmt, dst, src)` copy position into `pts(src)` for `CopyAll`,
    /// and for Rules 3/4/5 when `memo` is `None`. Keyed by the full pair
    /// because one source location can feed different destinations
    /// discovered at different times (e.g. overlapping Offsets ranges),
    /// each needing its own replay point.
    pair_cursors: IdHashMap<(u32, LocId, LocId), u32>,
    /// The `resolve` memo and Rules 3/4/5 resolve progress; `None` when
    /// the instance's `resolve` is not pure (Offsets).
    memo: Option<ResolveMemo>,
    /// Statement index → its pair list (pure `resolve` only).
    pairs: ListArena<Pair>,
    /// Reused result buffers of the model hooks (`lookup`, `spread`) and
    /// (`resolve`, `resolve_all`); each call clears one, then reads it.
    loc_buf: Vec<Loc>,
    pair_buf: Vec<(Loc, Loc)>,
    /// Reused buffers of call binding: callees newly found at an indirect
    /// call, and a binding's `(param, arg)` copies.
    callee_buf: Vec<FuncId>,
    bind_buf: Vec<(ObjId, ObjId)>,
}

/// The solver state for one analysis run.
pub struct Solver<'p> {
    en: Engine<'p>,
    /// Compiled program statements plus bindings synthesized for indirect
    /// calls.
    cstmts: Vec<CStmt>,
}

/// The state a run starts from. A cold seed holds no facts and queues
/// every statement; the incremental layer's seed carries the facts that
/// survived an edit's retraction, the surviving corrupted-pointer flags,
/// and only the statement region whose derivations were discarded.
pub(crate) struct Seed {
    /// Facts already known, normalized for the target model (incremental
    /// seeds: produced by an identical model over the previous program and
    /// translated object-by-object).
    pub facts: FactStore,
    /// [`ArithMode::FlagUnknown`] locations already known.
    pub unknown: Vec<Loc>,
    /// Statement indices to run, in order.
    pub queue: Vec<u32>,
    /// Call edges carried over for calls *outside* `queue`: each
    /// `(stmt index, callee)` is pre-bound at construction — the binding
    /// copies are synthesized dormant, watching their sources so later
    /// growth re-fires them, and `finish` reports the edge without the
    /// call constraint ever firing.
    pub bound: Vec<(u32, FuncId)>,
}

impl Seed {
    /// No facts, every one of `n` statements queued in index order.
    pub fn cold(n: usize) -> Seed {
        Seed {
            facts: FactStore::new(),
            unknown: Vec::new(),
            queue: (0..n as u32).collect(),
            bound: Vec::new(),
        }
    }
}

/// What a finished run produced.
pub struct SolverOutput {
    /// All points-to facts.
    pub facts: FactStore,
    /// Figure 3 instrumentation.
    pub stats: ModelStats,
    /// Statement evaluations performed.
    pub iterations: u64,
    /// The model, retained for normalization/weighting in queries.
    pub model: Box<dyn FieldModel>,
    /// Number of indirect-call (callee, site) bindings discovered.
    pub resolved_indirect_calls: usize,
    /// Locations flagged as possibly-corrupted pointers
    /// ([`ArithMode::FlagUnknown`] runs only; empty otherwise).
    pub unknown: BTreeSet<Loc>,
    /// Resolved (call-site statement, callee) pairs for call sites in the
    /// original program (drives call-graph clients like MOD/REF).
    pub call_edges: Vec<(structcast_ir::StmtId, FuncId)>,
}

impl<'p> Engine<'p> {
    /// `model.normalize(obj, path)`, interned. Normalizing is a walk of
    /// the path over the type's shape or layout table, so it is not
    /// memoized.
    fn norm_id(&mut self, obj: ObjId, path: &FieldPath) -> LocId {
        let loc = self.model.normalize(self.prog, obj, path);
        self.facts.intern(loc)
    }

    /// Stage-2 **model specialization**: maps one model-independent
    /// constraint to its pre-normalized, interned form. Types (`τ`,
    /// `τ_p`, arithmetic pointee) were already resolved by the constraint
    /// compiler, so this only runs the instance's `normalize` (memoized)
    /// and interns the results — no IR access.
    fn specialize(&mut self, cset: &ConstraintSet, c: &Constraint) -> CStmt {
        let empty = FieldPath::empty();
        match c {
            Constraint::AddrOf { dst, src } => CStmt::AddrOf {
                d: self.norm_id(*dst, &empty),
                t: self.norm_id(src.obj, cset.path(src.path)),
            },
            Constraint::AddrField { dst, ptr, tau_p, path } => CStmt::AddrField {
                d: self.norm_id(*dst, &empty),
                p: self.norm_id(*ptr, &empty),
                tau_p: *tau_p,
                path: cset.path(*path).clone(),
            },
            Constraint::Copy { dst, src, tau } => CStmt::Copy {
                d: self.norm_id(*dst, &empty),
                s: self.norm_id(src.obj, cset.path(src.path)),
                tau: *tau,
            },
            Constraint::Load { dst, ptr, tau } => CStmt::Load {
                d: self.norm_id(*dst, &empty),
                p: self.norm_id(*ptr, &empty),
                tau: *tau,
            },
            Constraint::Store { ptr, src, tau_p } => CStmt::Store {
                p: self.norm_id(*ptr, &empty),
                s: self.norm_id(*src, &empty),
                tau_p: *tau_p,
            },
            Constraint::PtrArith { dst, src, pointee } => CStmt::PtrArith {
                d: self.norm_id(*dst, &empty),
                s: self.norm_id(*src, &empty),
                pointee: *pointee,
            },
            Constraint::CopyAll { dst_ptr, src_ptr } => CStmt::CopyAll {
                dp: self.norm_id(*dst_ptr, &empty),
                sp: self.norm_id(*src_ptr, &empty),
            },
            Constraint::CallDirect { fid, args, ret } => CStmt::CallDirect {
                fid: *fid,
                args: args.clone(),
                ret: *ret,
            },
            Constraint::CallIndirect { ptr, args, ret } => CStmt::CallIndirect {
                p: self.norm_id(*ptr, &empty),
                args: args.clone(),
                ret: *ret,
            },
        }
    }

    fn enqueue(&mut self, idx: u32) {
        if !self.queued[idx as usize] {
            self.queued[idx as usize] = true;
            self.worklist.push_back(idx);
        }
    }

    /// Re-fires every subscriber of `obj`.
    fn wake_obj(&mut self, obj: ObjId) {
        for &s in self.subs.get(obj.0 as usize) {
            if !self.queued[s as usize] {
                self.queued[s as usize] = true;
                self.worklist.push_back(s);
            }
        }
    }

    fn subscribe(&mut self, idx: u32, obj: ObjId) {
        if self.subbed.insert((idx, obj.0)) {
            self.subs.push(obj.0 as usize, idx);
        }
    }

    fn add_fact_ids(&mut self, src: LocId, tgt: LocId) {
        if self.facts.insert_ids(src, tgt) {
            self.wake_obj(self.facts.obj_of(src));
        }
    }

    /// Flags a location as possibly holding a corrupted pointer.
    fn mark_unknown(&mut self, l: LocId) {
        if self.unknown.insert(l) {
            self.wake_obj(self.facts.obj_of(l));
        }
    }

    /// Reads this statement's scan cursor for `watched` and advances it to
    /// the current list length, returning the unconsumed `[cur, total)`
    /// window.
    fn take_scan_window(&mut self, idx: u32, watched: LocId) -> (usize, usize) {
        let total = self.facts.targets_len(watched);
        let cur = std::mem::replace(&mut self.scan_cursors[idx as usize], total as u32);
        (cur as usize, total)
    }

    /// Copies `pts(src)[cur..total]` into `pts(dst)` and propagates the
    /// corrupted-pointer flag alongside. The delta is read by position, so
    /// facts this copy adds (to `src` itself when `dst == src`) land past
    /// `total` and are not re-read.
    fn copy_range(&mut self, dst: LocId, src: LocId, cur: usize, total: usize) {
        for k in cur..total {
            let t = self.facts.target_at(src, k);
            self.add_fact_ids(dst, t);
        }
        // `ArithMode::Spread` never flags a location: skip the probe.
        if !self.unknown.is_empty() && self.unknown.contains(&src) {
            self.mark_unknown(dst);
        }
    }

    /// Copies the unconsumed part of `pts(src)` into `pts(dst)` (the delta
    /// since this `(stmt, dst, src)` pair last fired).
    fn copy_pair(&mut self, idx: u32, dst: LocId, src: LocId) {
        let total = self.facts.targets_len(src);
        let cur = if total == 0 {
            0
        } else {
            self.pair_cursors
                .insert((idx, dst, src), total as u32)
                .unwrap_or(0) as usize
        };
        self.copy_range(dst, src, cur, total);
    }

    /// Copies the delta of each pair of statement `idx` from position
    /// `from` on, and advances the pairs' cursors.
    fn copy_pairs(&mut self, idx: u32, from: usize) {
        let key = idx as usize;
        for k in from..self.pairs.len_of(key) {
            let pair = self.pairs.get(key)[k];
            let total = self.facts.targets_len(pair.src);
            self.copy_range(pair.dst, pair.src, pair.cur as usize, total);
            self.pairs.get_mut(key)[k].cur = total as u32;
        }
    }

    /// Statement `idx`'s resolve progress for the firing (`None` when
    /// `resolve` is not pure).
    fn pair_list(&self, idx: u32) -> Option<PairList> {
        self.memo
            .as_ref()
            .map(|m| m.lists.get(idx as usize).copied().unwrap_or_default())
    }

    /// Resolves `(dst, src)` through the memo, calling the model only on
    /// the first use of the type-level key, appends the interned pairs to
    /// statement `idx`'s pair list, adds the call's stats increment to
    /// `list`'s sum, and copies the new pairs' deltas.
    fn resolve_onto(&mut self, idx: u32, list: &mut PairList, dst: LocId, src: LocId, tau: TypeId) {
        let memo = self
            .memo
            .as_mut()
            .expect("pair lists exist only with a memo");
        let (dl, sl) = (*self.facts.loc(dst), *self.facts.loc(src));
        let key = (
            self.prog.type_of(dl.obj),
            dl.field,
            self.prog.type_of(sl.obj),
            sl.field,
            tau,
        );
        let r = match memo.results.get(&key) {
            Some(&r) => r,
            None => {
                let mut stats = ModelStats::default();
                self.pair_buf.clear();
                self.model.resolve(
                    self.prog,
                    &dl,
                    &sl,
                    tau,
                    &self.facts,
                    &mut stats,
                    &mut self.pair_buf,
                );
                let start = memo.fields.len();
                memo.fields.extend(self.pair_buf.iter().map(|(d, s)| {
                    assert!(
                        d.obj == dl.obj && s.obj == sl.obj,
                        "a pure resolve returned a pair outside its operands' objects"
                    );
                    (d.field, s.field)
                }));
                let r = Resolved {
                    start: start as u32,
                    len: (memo.fields.len() - start) as u32,
                    stats,
                };
                memo.results.insert(key, r);
                r
            }
        };
        list.stats += r.stats;
        let from = self.pairs.len_of(idx as usize);
        for &(df, sf) in &memo.fields[r.start as usize..(r.start + r.len) as usize] {
            let pair = Pair {
                dst: self.facts.intern(Loc { field: df, ..dl }),
                src: self.facts.intern(Loc { field: sf, ..sl }),
                cur: 0,
            };
            self.pairs.push(idx as usize, pair);
        }
        self.copy_pairs(idx, from);
    }

    /// Ends a pair-list firing: adds the list's stats sum to the run's
    /// counts and stores the progress back.
    fn finish_list(&mut self, idx: u32, list: PairList) {
        self.stats += list.stats;
        let lists = &mut self
            .memo
            .as_mut()
            .expect("pair lists exist only with a memo")
            .lists;
        let i = idx as usize;
        if i >= lists.len() {
            lists.resize(i + 1, PairList::default());
        }
        lists[i] = list;
    }

    /// `resolve(dst, src, τ)` against the store, copying each pair's delta
    /// under a `(stmt, dst, src)` cursor (impure instances).
    fn resolve_and_copy(&mut self, idx: u32, dst: LocId, src: LocId, tau: TypeId) {
        self.pair_buf.clear();
        self.model.resolve(
            self.prog,
            self.facts.loc(dst),
            self.facts.loc(src),
            tau,
            &self.facts,
            &mut self.stats,
            &mut self.pair_buf,
        );
        self.copy_pair_buf(idx);
    }

    /// Interns each pair of `pair_buf` and copies its delta under a
    /// `(stmt, dst, src)` cursor.
    fn copy_pair_buf(&mut self, idx: u32) {
        for k in 0..self.pair_buf.len() {
            let (dl, sl) = self.pair_buf[k];
            let di = self.facts.intern(dl);
            let si = self.facts.intern(sl);
            self.copy_pair(idx, di, si);
        }
    }

    /// Interns each location of `loc_buf` as a new target of `d`.
    fn add_loc_buf(&mut self, d: LocId) {
        for k in 0..self.loc_buf.len() {
            let li = self.facts.intern(self.loc_buf[k]);
            self.add_fact_ids(d, li);
        }
    }

    // ----- rule firings -----

    /// Rule 2: for each *new* target of `p`, look the field up.
    fn fire_addr_field(&mut self, idx: u32, d: LocId, p: LocId, tau_p: TypeId, path: &FieldPath) {
        self.subscribe(idx, self.facts.obj_of(p));
        let (cur, total) = self.take_scan_window(idx, p);
        for k in cur..total {
            let tgt = self.facts.target_at(p, k);
            self.loc_buf.clear();
            self.model.lookup(
                self.prog,
                tau_p,
                path,
                self.facts.loc(tgt),
                &mut self.stats,
                &mut self.loc_buf,
            );
            self.add_loc_buf(d);
        }
    }

    /// Rule 3: a direct copy. Under a pure `resolve` the pair list is built
    /// on the first firing and later firings only copy deltas along it;
    /// otherwise the pairs are recomputed each firing (Offsets consults the
    /// store, so its pair set can grow) but still copied as deltas.
    fn fire_copy(&mut self, idx: u32, d: LocId, s: LocId, tau: TypeId) {
        self.subscribe(idx, self.facts.obj_of(s));
        let Some(mut list) = self.pair_list(idx) else {
            self.resolve_and_copy(idx, d, s, tau);
            return;
        };
        self.copy_pairs(idx, 0);
        if list.resolved == 0 {
            self.resolve_onto(idx, &mut list, d, s, tau);
            list.resolved = 1;
        }
        self.finish_list(idx, list);
    }

    /// Rule 4: copy through each target of the dereferenced pointer. Under
    /// a pure `resolve` only the targets past the list's `resolved` mark
    /// are resolved; the others' pairs copy deltas from the list.
    fn fire_load(&mut self, idx: u32, d: LocId, p: LocId, tau: TypeId) {
        self.subscribe(idx, self.facts.obj_of(p));
        let total = self.facts.targets_len(p);
        let Some(mut list) = self.pair_list(idx) else {
            for k in 0..total {
                let tgt = self.facts.target_at(p, k);
                self.subscribe(idx, self.facts.obj_of(tgt));
                self.resolve_and_copy(idx, d, tgt, tau);
            }
            return;
        };
        self.copy_pairs(idx, 0);
        for k in list.resolved as usize..total {
            let tgt = self.facts.target_at(p, k);
            self.subscribe(idx, self.facts.obj_of(tgt));
            self.resolve_onto(idx, &mut list, d, tgt, tau);
        }
        list.resolved = total as u32;
        self.finish_list(idx, list);
    }

    /// Rule 5: copy the source into each target of the stored-through
    /// pointer, resolving only new targets under a pure `resolve` (as in
    /// [`Engine::fire_load`]).
    fn fire_store(&mut self, idx: u32, p: LocId, s: LocId, tau_p: TypeId) {
        self.subscribe(idx, self.facts.obj_of(p));
        self.subscribe(idx, self.facts.obj_of(s));
        let total = self.facts.targets_len(p);
        let Some(mut list) = self.pair_list(idx) else {
            for k in 0..total {
                let tgt = self.facts.target_at(p, k);
                self.resolve_and_copy(idx, tgt, s, tau_p);
            }
            return;
        };
        self.copy_pairs(idx, 0);
        for k in list.resolved as usize..total {
            let tgt = self.facts.target_at(p, k);
            self.resolve_onto(idx, &mut list, tgt, s, tau_p);
        }
        list.resolved = total as u32;
        self.finish_list(idx, list);
    }

    /// Pointer arithmetic. Under Assumption 1 the result spreads over the
    /// outermost object (§4.2.1) — static per target, so only new targets
    /// are spread; in FlagUnknown mode the destination is recorded as
    /// potentially corrupted instead.
    fn fire_ptr_arith(&mut self, idx: u32, d: LocId, s: LocId, pointee: Option<TypeId>) {
        self.subscribe(idx, self.facts.obj_of(s));
        match self.arith_mode {
            ArithMode::Spread => {
                let (cur, total) = self.take_scan_window(idx, s);
                for k in cur..total {
                    let tgt = self.facts.target_at(s, k);
                    self.loc_buf.clear();
                    self.model
                        .spread(self.prog, self.facts.loc(tgt), pointee, &mut self.loc_buf);
                    self.add_loc_buf(d);
                }
            }
            ArithMode::FlagUnknown => {
                self.mark_unknown(d);
            }
        }
    }

    /// memcpy-style bulk copy over the target cross product.
    fn fire_copy_all(&mut self, idx: u32, dp: LocId, sp: LocId) {
        self.subscribe(idx, self.facts.obj_of(dp));
        self.subscribe(idx, self.facts.obj_of(sp));
        let dn = self.facts.targets_len(dp);
        let sn = self.facts.targets_len(sp);
        for i in 0..dn {
            let dt = self.facts.target_at(dp, i);
            for j in 0..sn {
                let st = self.facts.target_at(sp, j);
                self.subscribe(idx, self.facts.obj_of(st));
                self.pair_buf.clear();
                self.model.resolve_all(
                    self.prog,
                    self.facts.loc(dt),
                    self.facts.loc(st),
                    &self.facts,
                    &mut self.stats,
                    &mut self.pair_buf,
                );
                self.copy_pair_buf(idx);
            }
        }
    }

    /// Sets `callee_buf` to the function objects newly appearing in the
    /// call's function-pointer points-to set.
    fn scan_new_callees(&mut self, idx: u32, p: LocId) {
        self.subscribe(idx, self.facts.obj_of(p));
        let (cur, total) = self.take_scan_window(idx, p);
        self.callee_buf.clear();
        for k in cur..total {
            let tgt = self.facts.target_at(p, k);
            if let Some(fid) = self.prog.as_function(self.facts.obj_of(tgt)) {
                self.callee_buf.push(fid);
            }
        }
    }
}

/// Appends to `out` the parameter/return copy `(dst, src)` pairs a call
/// with `args`/`ret` induces when it binds to `fid` (extra args spill into
/// the varargs slot; the return flows out of the callee's return slot).
fn call_bindings(
    prog: &Program,
    fid: FuncId,
    args: &[ObjId],
    ret: Option<ObjId>,
    out: &mut Vec<(ObjId, ObjId)>,
) {
    let f = prog.function(fid);
    for (i, &arg) in args.iter().enumerate() {
        if let Some(&param) = f.params.get(i) {
            out.push((param, arg));
        } else if let Some(va) = f.varargs {
            out.push((va, arg));
        }
    }
    if let (Some(r), Some(rs)) = (ret, f.ret_slot) {
        out.push((r, rs));
    }
}

impl<'p> Solver<'p> {
    /// Creates a solver over `prog` with the given framework instance,
    /// compiling a fresh [`ConstraintSet`] internally.
    ///
    /// One-shot convenience: a multi-model run should compile the set once
    /// (via `AnalysisSession` or [`ConstraintSet::compile`]) and call
    /// [`Solver::from_constraints`] per instance instead of paying the IR
    /// walk each time.
    pub fn new(prog: &'p Program, model: Box<dyn FieldModel>) -> Self {
        let cset = ConstraintSet::compile(prog);
        Solver::from_constraints(prog, &cset, model)
    }

    /// Creates a solver from an already-compiled constraint set (stage 2 of
    /// the pipeline): every constraint is specialized against `model` —
    /// operands normalized and interned — so firing performs no
    /// normalization. The set is
    /// not retained; it can be reused for further models.
    pub fn from_constraints(
        prog: &'p Program,
        cset: &ConstraintSet,
        model: Box<dyn FieldModel>,
    ) -> Self {
        Solver::seeded(prog, cset, model, Seed::cold(cset.len()))
    }

    /// The one engine constructor: specializes `cset` against `model` and
    /// starts from `seed`, running the statements in `seed.queue` plus
    /// whatever their derivations wake.
    ///
    /// When the seed leaves statements unqueued, every such dormant
    /// statement is statically subscribed to the objects it reads —
    /// including the objects behind its seeded dereference targets — so a
    /// fact growing on a *clean* object during the run still re-fires its
    /// consumers, and `seed.bound` is pre-bound. Dormant statements re-fire
    /// with fresh cursors, which is redundant but idempotent (the fact
    /// store dedups edges), never wrong.
    ///
    /// The caller is responsible for the seed invariant: every seeded fact
    /// must be in the cold fixpoint (no stale facts), and for every object
    /// whose cold facts exceed its seeded facts, the missing derivations
    /// must be reachable from the queued statements under monotone closure
    /// (retracted objects' writers queued; everything else is covered by
    /// the static subscriptions). Under that invariant the run's output is
    /// byte-identical to a cold run.
    pub(crate) fn seeded(
        prog: &'p Program,
        cset: &ConstraintSet,
        model: Box<dyn FieldModel>,
        seed: Seed,
    ) -> Self {
        let n = cset.len();
        let mut queued = vec![false; n];
        let mut worklist = VecDeque::with_capacity(seed.queue.len());
        for &i in &seed.queue {
            if (i as usize) < n && !queued[i as usize] {
                queued[i as usize] = true;
                worklist.push_back(i);
            }
        }
        let dormant = worklist.len() < n;
        let memo = model.resolve_is_pure().then(ResolveMemo::default);
        let mut en = Engine {
            prog,
            model,
            facts: seed.facts,
            stats: ModelStats::default(),
            subs: ListArena::with_capacity(prog.objects.len(), n),
            subbed: IdHashSet::default(),
            queued,
            worklist,
            bound_calls: IdHashSet::default(),
            iterations: 0,
            arith_mode: ArithMode::Spread,
            unknown: IdHashSet::default(),
            scan_cursors: vec![0; n],
            pair_cursors: IdHashMap::default(),
            memo,
            pairs: ListArena::default(),
            loc_buf: Vec::new(),
            pair_buf: Vec::new(),
            callee_buf: Vec::new(),
            bind_buf: Vec::new(),
        };
        for l in seed.unknown {
            let id = en.facts.intern(l);
            en.unknown.insert(id);
        }
        let cstmts: Vec<CStmt> = cset.iter().map(|c| en.specialize(cset, c)).collect();
        let mut solver = Solver { en, cstmts };
        if dormant {
            solver.subscribe_dormant();
            for &(i, fid) in &seed.bound {
                if let Some(CStmt::CallDirect { .. } | CStmt::CallIndirect { .. }) =
                    solver.cstmts.get(i as usize)
                {
                    solver.bind_call(i as usize, fid, false);
                }
            }
        }
        solver
    }

    /// Subscribes every unqueued statement to the objects it reads (see
    /// [`Solver::seeded`]).
    fn subscribe_dormant(&mut self) {
        let en = &mut self.en;
        for (i, c) in self.cstmts.iter().enumerate() {
            let idx = i as u32;
            if en.queued[i] {
                continue;
            }
            match c {
                // Fires once with no inputs; its fact either survived
                // retraction or its destination is dirty (then the region
                // builder queued it).
                CStmt::AddrOf { .. } => {}
                CStmt::AddrField { p, .. } => en.subscribe(idx, en.facts.obj_of(*p)),
                CStmt::Copy { s, .. } => en.subscribe(idx, en.facts.obj_of(*s)),
                CStmt::Load { p, .. } => {
                    en.subscribe(idx, en.facts.obj_of(*p));
                    for k in 0..en.facts.targets_len(*p) {
                        let t = en.facts.target_at(*p, k);
                        en.subscribe(idx, en.facts.obj_of(t));
                    }
                }
                CStmt::Store { p, s, .. } => {
                    en.subscribe(idx, en.facts.obj_of(*p));
                    en.subscribe(idx, en.facts.obj_of(*s));
                }
                CStmt::PtrArith { s, .. } => en.subscribe(idx, en.facts.obj_of(*s)),
                CStmt::CopyAll { dp, sp } => {
                    en.subscribe(idx, en.facts.obj_of(*dp));
                    en.subscribe(idx, en.facts.obj_of(*sp));
                    for k in 0..en.facts.targets_len(*sp) {
                        let t = en.facts.target_at(*sp, k);
                        en.subscribe(idx, en.facts.obj_of(t));
                    }
                }
                // Dormant calls are pre-bound from `Seed::bound`; an
                // indirect one also watches its function pointer so callee
                // growth re-fires it.
                CStmt::CallDirect { .. } => {}
                CStmt::CallIndirect { p, .. } => en.subscribe(idx, en.facts.obj_of(*p)),
            }
        }
    }

    /// Selects the pointer-arithmetic treatment (default: spread).
    pub fn with_arith_mode(mut self, mode: ArithMode) -> Self {
        self.en.arith_mode = mode;
        self
    }

    /// Runs to fixpoint and returns the facts and instrumentation.
    pub fn run(self) -> SolverOutput {
        self.run_budgeted(&Budget::unlimited())
            .expect("an unlimited budget cannot be exceeded")
    }

    /// Runs to fixpoint under a [`Budget`]. The budget is checked at
    /// iteration boundaries only — cancellation and the edge cap after
    /// every statement firing, the deadline before the first firing and
    /// then every [`TIME_CHECK_INTERVAL`] firings — so a run that
    /// *completes* produces exactly the facts an unbudgeted run would,
    /// while an exceeded run returns a typed [`SolveError`] instead of
    /// continuing.
    ///
    /// # Errors
    ///
    /// [`SolveError::DeadlineExceeded`], [`SolveError::EdgeLimit`], or
    /// [`SolveError::Cancelled`] when the corresponding limit trips.
    pub fn run_budgeted(mut self, budget: &Budget) -> Result<SolverOutput, SolveError> {
        SOLVES.with(|c| c.set(c.get() + 1));
        if let Some(e) = budget.time_exceeded() {
            return Err(e);
        }
        let mut until_time_check = TIME_CHECK_INTERVAL;
        while let Some(idx) = self.en.worklist.pop_front() {
            self.en.queued[idx as usize] = false;
            self.en.iterations += 1;
            self.process(idx);
            if let Some(e) = budget.exceeded(self.en.facts.len()) {
                return Err(e);
            }
            until_time_check -= 1;
            if until_time_check == 0 {
                until_time_check = TIME_CHECK_INTERVAL;
                if let Some(e) = budget.time_exceeded() {
                    return Err(e);
                }
            }
        }
        Ok(finish(self.en))
    }

    /// Fires one compiled statement. The `CStmt` stays borrowed from
    /// `self.cstmts` while the engine mutates — disjoint fields, so no
    /// clone is needed. The call arms release the borrow before binding,
    /// which pushes new compiled statements; [`Solver::bind_call`] reads
    /// the call's operands back by index.
    fn process(&mut self, idx: u32) {
        match &self.cstmts[idx as usize] {
            CStmt::AddrOf { d, t } => {
                let (d, t) = (*d, *t);
                self.en.add_fact_ids(d, t);
            }
            CStmt::AddrField { d, p, tau_p, path } => {
                self.en.fire_addr_field(idx, *d, *p, *tau_p, path);
            }
            CStmt::Copy { d, s, tau } => {
                self.en.fire_copy(idx, *d, *s, *tau);
            }
            CStmt::Load { d, p, tau } => {
                self.en.fire_load(idx, *d, *p, *tau);
            }
            CStmt::Store { p, s, tau_p } => {
                self.en.fire_store(idx, *p, *s, *tau_p);
            }
            CStmt::PtrArith { d, s, pointee } => {
                self.en.fire_ptr_arith(idx, *d, *s, *pointee);
            }
            CStmt::CopyAll { dp, sp } => {
                self.en.fire_copy_all(idx, *dp, *sp);
            }
            CStmt::CallDirect { fid, .. } => {
                let fid = *fid;
                self.bind_call(idx as usize, fid, true);
            }
            CStmt::CallIndirect { p, .. } => {
                let p = *p;
                self.en.scan_new_callees(idx, p);
                for k in 0..self.en.callee_buf.len() {
                    let fid = self.en.callee_buf[k];
                    self.bind_call(idx as usize, fid, true);
                }
            }
        }
    }

    /// Synthesizes parameter/return `Copy` bindings for call statement
    /// `idx`'s newly discovered callee (once per (site, callee) pair). With
    /// `enqueue` off the bindings are left dormant, subscribed to their
    /// sources: the seeded constructor pre-binds carried-over call edges
    /// this way, since their binding facts already survived retraction —
    /// the copies only need to exist (for `finish`'s call-edge report) and
    /// re-fire on growth, not fire now.
    fn bind_call(&mut self, idx: usize, fid: FuncId, enqueue: bool) {
        if !self.en.bound_calls.insert((idx, fid)) {
            return;
        }
        let (CStmt::CallDirect { args, ret, .. } | CStmt::CallIndirect { args, ret, .. }) =
            &self.cstmts[idx]
        else {
            unreachable!("statement {idx} binds a callee but is not a call");
        };
        self.en.bind_buf.clear();
        call_bindings(self.en.prog, fid, args, *ret, &mut self.en.bind_buf);
        let empty = FieldPath::empty();
        for k in 0..self.en.bind_buf.len() {
            let (dst, src) = self.en.bind_buf[k];
            let s = self.en.norm_id(src, &empty);
            let c = CStmt::Copy {
                d: self.en.norm_id(dst, &empty),
                s,
                tau: self.en.prog.type_of(dst),
            };
            let new_idx = self.cstmts.len() as u32;
            self.cstmts.push(c);
            self.en.queued.push(false);
            self.en.scan_cursors.push(0);
            if enqueue {
                self.en.enqueue(new_idx);
            } else {
                let obj = self.en.facts.obj_of(s);
                self.en.subscribe(new_idx, obj);
            }
        }
    }
}

/// Packages a drained engine into the run's output.
fn finish(en: Engine<'_>) -> SolverOutput {
    let unknown: BTreeSet<Loc> = en
        .unknown
        .iter()
        .map(|&i| *en.facts.loc(i))
        .collect();
    let orig = en.prog.stmts.len();
    let mut call_edges: Vec<(structcast_ir::StmtId, FuncId)> = en
        .bound_calls
        .iter()
        .filter(|(idx, _)| *idx < orig)
        .map(|(idx, f)| (structcast_ir::StmtId(*idx as u32), *f))
        .collect();
    call_edges.sort();
    SolverOutput {
        facts: en.facts,
        stats: en.stats,
        iterations: en.iterations,
        model: en.model,
        resolved_indirect_calls: en.bound_calls.len(),
        unknown,
        call_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use crate::models::make_model;
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};
    use structcast_ir::lower_source;
    use structcast_types::{CompatMode, Layout};

    fn run(src: &str, kind: ModelKind) -> (structcast_ir::Program, SolverOutput) {
        let prog = lower_source(src).unwrap();
        let model = make_model(kind, Layout::ilp32(), CompatMode::Structural);
        let out = Solver::new(&prog, model).run();
        (prog, out)
    }

    /// Points-to names of `var` (top-level), as a sorted list of object
    /// names for readable assertions.
    fn pts_names(prog: &structcast_ir::Program, out: &SolverOutput, var: &str) -> Vec<String> {
        let obj = prog.object_by_name(var).unwrap();
        let l = out.model.normalize(prog, obj, &FieldPath::empty());
        let mut v: Vec<String> = out
            .facts
            .points_to(&l)
            .map(|t| prog.object(t.obj).name.clone())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    const INTRO: &str = "struct S { int *s1; int *s2; } s;\n\
         int x, y, *p;\n\
         void f(void) { s.s1 = &x; s.s2 = &y; p = s.s1; }";

    #[test]
    fn intro_example_field_sensitive_models_are_precise() {
        for kind in [
            ModelKind::CollapseOnCast,
            ModelKind::CommonInitialSeq,
            ModelKind::Offsets,
        ] {
            let (prog, out) = run(INTRO, kind);
            assert_eq!(
                pts_names(&prog, &out, "p"),
                vec!["x".to_string()],
                "{kind} should keep p → {{x}} only"
            );
        }
    }

    #[test]
    fn intro_example_collapse_always_is_imprecise() {
        let (prog, out) = run(INTRO, ModelKind::CollapseAlways);
        assert_eq!(
            pts_names(&prog, &out, "p"),
            vec!["x".to_string(), "y".to_string()],
            "collapsing merges the two fields"
        );
    }

    #[test]
    fn indirect_calls_bind_during_solving() {
        let src = "int x; int *target(void) { return &x; }\n\
                   int *(*fp)(void); int *r;\n\
                   void f(void) { fp = target; r = fp(); }";
        for kind in ModelKind::ALL {
            let (prog, out) = run(src, kind);
            assert!(out.resolved_indirect_calls >= 1, "{kind}");
            assert_eq!(pts_names(&prog, &out, "r"), vec!["x".to_string()], "{kind}");
        }
    }

    #[test]
    fn solver_terminates_on_cyclic_structures() {
        let src = "struct N { struct N *next; int v; } a, b, c;\n\
                   void f(void) { a.next = &b; b.next = &c; c.next = &a; \
                                  a.next = b.next; }";
        for kind in ModelKind::ALL {
            let (_prog, out) = run(src, kind);
            assert!(out.iterations > 0);
            assert!(!out.facts.is_empty());
        }
    }

    #[test]
    fn heap_objects_flow_through_lists() {
        let src = "struct Node { struct Node *next; int *data; };\n\
                   struct Node *head; int x;\n\
                   void f(void) {\n\
                     struct Node *n = (struct Node *)malloc(sizeof(struct Node));\n\
                     n->data = &x; n->next = head; head = n;\n\
                   }";
        for kind in ModelKind::ALL {
            let (prog, out) = run(src, kind);
            let names = pts_names(&prog, &out, "head");
            assert!(
                names.iter().any(|n| n.starts_with("malloc_")),
                "{kind}: head should reach the heap node, got {names:?}"
            );
        }
    }

    #[test]
    fn refiring_consumes_only_deltas() {
        // A chain a -> b -> c through loads: the second solve of each
        // statement must not redo first-pass work. The copy cursors are
        // private, so the contract checked here is behavioural: iterations
        // stay near the statement count (rather than quadratic blowup) and
        // the fixpoint is correct. The `resolve` side of "no first-pass
        // work redone" is observed directly by
        // `pure_resolve_runs_once_per_type_level_key`.
        let src = "int x, y, *p, *q, **pp;\n\
                   void f(void) { p = &x; pp = &p; q = *pp; p = &y; }";
        let (prog, out) = run(src, ModelKind::CommonInitialSeq);
        assert_eq!(
            pts_names(&prog, &out, "q"),
            vec!["x".to_string(), "y".to_string()]
        );
        assert!(out.iterations < 100, "iterations {}", out.iterations);
    }

    /// The type-level key a pure `resolve` call is memoized under.
    type CallKey = (TypeId, FieldRep, TypeId, FieldRep, TypeId);

    /// A real instance that counts its `resolve` calls per type-level key.
    struct Counting {
        inner: Box<dyn FieldModel>,
        calls: Arc<Mutex<HashMap<CallKey, u64>>>,
    }

    impl FieldModel for Counting {
        fn kind(&self) -> ModelKind {
            self.inner.kind()
        }

        fn normalize(&self, prog: &Program, obj: ObjId, path: &FieldPath) -> Loc {
            self.inner.normalize(prog, obj, path)
        }

        fn lookup(
            &self,
            prog: &Program,
            tau: TypeId,
            alpha: &FieldPath,
            target: &Loc,
            stats: &mut ModelStats,
            out: &mut Vec<Loc>,
        ) {
            self.inner.lookup(prog, tau, alpha, target, stats, out);
        }

        fn resolve(
            &self,
            prog: &Program,
            dst: &Loc,
            src: &Loc,
            tau: TypeId,
            facts: &FactStore,
            stats: &mut ModelStats,
            out: &mut Vec<(Loc, Loc)>,
        ) {
            let key = (
                prog.type_of(dst.obj),
                dst.field,
                prog.type_of(src.obj),
                src.field,
                tau,
            );
            *self.calls.lock().unwrap().entry(key).or_default() += 1;
            self.inner.resolve(prog, dst, src, tau, facts, stats, out);
        }

        fn resolve_is_pure(&self) -> bool {
            self.inner.resolve_is_pure()
        }

        fn resolve_all(
            &self,
            prog: &Program,
            dst: &Loc,
            src: &Loc,
            facts: &FactStore,
            stats: &mut ModelStats,
            out: &mut Vec<(Loc, Loc)>,
        ) {
            self.inner.resolve_all(prog, dst, src, facts, stats, out);
        }

        fn spread(
            &self,
            prog: &Program,
            target: &Loc,
            pointee: Option<TypeId>,
            out: &mut Vec<Loc>,
        ) {
            self.inner.spread(prog, target, pointee, out);
        }
    }

    #[test]
    fn pure_resolve_runs_once_per_type_level_key() {
        for name in ["oop-shapes", "intrusive-list", "plugin-registry", "symtab"] {
            let src = structcast_progen::corpus_program(name).unwrap().source;
            let prog = lower_source(src).unwrap();
            for kind in ModelKind::ALL {
                let model = || make_model(kind, Layout::ilp32(), CompatMode::Structural);
                let calls = Arc::new(Mutex::new(HashMap::new()));
                let counting = Counting {
                    inner: model(),
                    calls: Arc::clone(&calls),
                };
                let counted = Solver::new(&prog, Box::new(counting)).run();
                let plain = Solver::new(&prog, model()).run();
                assert_eq!(counted.stats, plain.stats, "{name} {kind}");
                assert_eq!(counted.iterations, plain.iterations, "{name} {kind}");
                let calls = calls.lock().unwrap();
                let made: u64 = calls.values().sum();
                if kind == ModelKind::Offsets {
                    // Not pure: every counted resolve is a real call.
                    assert_eq!(made, plain.stats.resolve_calls, "{name} {kind}");
                } else {
                    assert!(calls.values().all(|&n| n == 1), "{name} {kind}: {calls:?}");
                    assert!(
                        made < plain.stats.resolve_calls,
                        "{name} {kind}: no call saved"
                    );
                }
            }
        }
    }
}
