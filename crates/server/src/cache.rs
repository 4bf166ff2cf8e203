//! The compile-once, solve-once, query-many session cache.
//!
//! One store memoizes the stages a query passes through; the layer is a
//! tag on the value (`Cached`), not a separate map:
//!
//! - a compiled program ([`ProgramEntry`]: lowered `Program` plus stage-1
//!   `ConstraintSet`), keyed `(source hash, "")`, so reloading a program
//!   is free and queries never recompile;
//! - a solved instance ([`Solved`]), keyed `(source hash, cache key)`
//!   ([`QueryOpts::cache_key`]): the solver result plus the figure scalars.
//!   It stores one answer, the points-to relation; queries render from it
//!   on read, and nothing is rendered before a query asks;
//! - answers rendered from a summary: a points-to table
//!   ([`PointsToTable`]), keyed `(source hash, "points_to/<cache key>")`,
//!   and a MOD/REF table ([`ModRefTable`]), keyed `(source hash,
//!   "modref/<cache key>")`. The first `points_to` or `alias` query
//!   against a summary indexes its points-to table by name, and each row
//!   renders the first time a query reads it
//!   ([`SessionCache::points_to_table`], [`PointsToTable::answer`]); the
//!   first `modref` query renders the whole MOD/REF table
//!   ([`SessionCache::modref`]);
//! - a demand answer ([`DemandAnswer`]), keyed `(source hash,
//!   "demand/<subject>/<cache key>")` ([`SessionCache::demand`]).
//!
//! No cache key is empty or starts with `points_to/`, `modref/` or
//! `demand/`, so the shapes never collide. The slots of one source hash
//! are one *version* of a program. The slot map, the name → hash aliases and the
//! resident byte total sit under one `RwLock`, so the total always equals
//! the sum of the slot sizes. A hit takes the read guard; **miss work is
//! done outside the lock**, so queries for different keys solve in
//! parallel, and a rare same-key race costs one redundant solve (both
//! compute the same deterministic result; the first insert wins).
//!
//! # Bounding
//!
//! Each slot carries a size estimate (computed once at insert) and a
//! last-use tick bumped on every hit. Every insert runs under the write
//! guard: it adds the slot's bytes and, while the total exceeds
//! [`SessionCache::max_bytes`], evicts the globally least-recently-used
//! slot — never the one being inserted, so a lone entry larger than the
//! whole budget stays resident rather than thrashing. Eviction is
//! *forgetting*, not invalidation: entries are keyed by content hash, so
//! an evicted program that is loaded again recompiles once and yields
//! identical results, and a query holding an `Arc` to an evicted entry
//! keeps a valid (just no longer shared) value. Evicting a program drops
//! its name and hash aliases, so it resolves like one never loaded, and
//! leaves its summaries: they are self-contained and stay correct for any
//! reload.
//!
//! # One live version per name
//!
//! A name holds one version; an unnamed load holds its version under its
//! hex hash. When [`SessionCache::update`] commits, or a
//! [`load`](SessionCache::load) or snapshot restore binds a name to
//! different source, the version the name held is *released* in the same
//! write guard: its program, summaries, rendered tables, demand answers
//! and hash alias all leave the store, unless another name still holds
//! it. The hash alias a named load registers addresses the version but
//! does not hold it. Released values are dropped after the guard is
//! released, so readers never wait on the frees. A released hash answers
//! like an evicted one; an undo is an `update` back to the old text.
//!
//! The lock recovers from poisoning (`PoisonError::into_inner`): every
//! cached value is immutable once inserted and the store is structurally
//! valid after any panic-at-insert, so a poisoned guard's data is sound.

use crate::metrics::{Counter, Metrics};
use crate::proto::QueryOpts;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};
use structcast::{
    compile_incremental, diff_programs, modref, resolve_incremental, try_solve_compiled_parallel,
    try_solve_demand_compiled, AnalysisResult, ConstraintSet, DemandQuery, Loc, ModelKind, ObjId,
    Program, SolveError,
};

/// Default cache budget: generous enough that eviction never fires in
/// ordinary interactive use (override with `--max-cache-mb`).
pub const DEFAULT_MAX_BYTES: usize = 512 * 1024 * 1024;

/// FNV-1a over the source text — the cache key of a loaded program.
pub fn source_hash(src: &str) -> u64 {
    crate::snapshot::fnv64(src.as_bytes())
}

fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// A compiled program: stage 1 paid once, shared by every query.
#[derive(Debug)]
pub struct ProgramEntry {
    /// The source hash (cache key).
    pub key: u64,
    /// The key as the hex string clients see (`"a1b2..."`).
    pub hash_hex: String,
    /// The name the program was loaded under (or the hash when unnamed).
    pub name: String,
    /// The exact source text behind [`key`](ProgramEntry::key). Retained so
    /// a snapshot can persist the program as text, which restore lowers and
    /// compiles again (both are deterministic).
    pub source: String,
    /// The lowered program.
    pub prog: Program,
    /// Its model-independent constraint form.
    pub constraints: ConstraintSet,
    /// Wall-clock paid building this entry: lowering plus stage 1, at
    /// load, update or snapshot restore.
    pub compile: Duration,
}

impl ProgramEntry {
    /// Lowers and compiles `source`, whose hash is `key`, timing both, under
    /// `name` (the hex hash when `None`).
    pub(crate) fn build(
        key: u64,
        name: Option<&str>,
        source: &str,
    ) -> Result<ProgramEntry, String> {
        let start = Instant::now();
        let prog = structcast::lower_source(source).map_err(|e| e.to_string())?;
        let constraints = ConstraintSet::compile(&prog);
        let compile = start.elapsed();
        let hash_hex = format!("{key:016x}");
        Ok(ProgramEntry {
            key,
            name: name.unwrap_or(&hash_hex).to_string(),
            hash_hex,
            source: source.to_string(),
            prog,
            constraints,
            compile,
        })
    }

    /// Approximate resident bytes: per-object/statement/constraint
    /// heuristics plus string payloads. Deliberately coarse — the cap
    /// bounds memory to the right order of magnitude, it is not an
    /// allocator audit.
    pub fn approx_bytes(&self) -> usize {
        let names: usize = self.prog.objects.iter().map(|o| o.name.len()).sum();
        4096 + names
            + self.source.len()
            + self.prog.objects.len() * 96
            + self.prog.stmts.len() * 80
            + self.prog.functions.len() * 128
            + self.constraints.len() * 96
            + self.constraints.num_paths() * 48
    }
}

/// One solved instance: the solver result, which is the one stored answer,
/// plus the scalars `compare_models` reports. Queries render their answer
/// from `res` on read ([`PointsToTable`], [`ModRefTable`]).
#[derive(Debug)]
pub struct Solved {
    /// Which instance this is.
    pub kind: ModelKind,
    /// Total points-to edges (Figure 6 metric).
    pub edges: usize,
    /// Solver statement evaluations.
    pub iterations: u64,
    /// Specialize+solve wall-clock paid when this entry was built.
    pub solve: Duration,
    /// Empty on every server path; kept for struct literals outside the workspace.
    #[deprecated(note = "empty on every server path; use `Solved::var_answer`")]
    pub vars: BTreeSet<String>,
    /// Empty on every server path; see [`vars`](Solved::vars).
    #[deprecated(note = "empty on every server path; use `Solved::var_answer`")]
    pub points_to: BTreeMap<String, Vec<String>>,
    /// Empty on every server path; see [`vars`](Solved::vars).
    #[deprecated(note = "empty on every server path; use `VarAnswer::aliases`")]
    pub pt_locs: BTreeMap<String, BTreeSet<Loc>>,
    /// Empty on every server path; see [`vars`](Solved::vars).
    #[deprecated(note = "empty on every server path; use `SessionCache::modref`")]
    pub modref: BTreeMap<String, (Vec<String>, Vec<String>)>,
    /// Average points-to set size over dereference sites (Figure 4).
    pub avg_deref: f64,
    /// Number of static dereference sites.
    pub deref_sites: usize,
    /// The options this instance was solved under — an `update` rebuilds
    /// the exact `AnalysisConfig` (minus query budgets) to re-solve the
    /// summary incrementally.
    pub opts: QueryOpts,
    /// The solver result every answer is rendered from. It also makes a
    /// summary *updatable*: `resolve_incremental` seeds the edited
    /// program's fixpoint from these facts instead of re-running it cold.
    pub res: AnalysisResult,
}

impl Solved {
    /// A summary of `res` solved under `opts`, with its Figure 4 scalars
    /// `(average dereference size, dereference sites)`.
    #[allow(deprecated)] // the tables stay empty
    pub(crate) fn new(
        opts: QueryOpts,
        res: AnalysisResult,
        (avg_deref, deref_sites): (f64, usize),
    ) -> Solved {
        Solved {
            kind: res.kind,
            edges: res.edge_count(),
            iterations: res.iterations,
            solve: res.elapsed,
            vars: BTreeSet::new(),
            points_to: BTreeMap::new(),
            pt_locs: BTreeMap::new(),
            modref: BTreeMap::new(),
            avg_deref,
            deref_sites,
            opts,
            res,
        }
    }

    /// Approximate resident bytes: the retained solver facts, plus whatever
    /// the deprecated tables hold (nothing, unless a caller outside the
    /// workspace filled them).
    #[allow(deprecated)]
    pub fn approx_bytes(&self) -> usize {
        let mut n = 1024 + self.res.facts.len() * 64;
        n += self.vars.iter().map(|s| s.len() + 48).sum::<usize>();
        for (k, v) in &self.points_to {
            n += k.len() + 64 + str_bytes(v);
        }
        for (k, v) in &self.pt_locs {
            n += k.len() + 64 + v.len() * 48;
        }
        for (k, (m, r)) in &self.modref {
            n += k.len() + 96 + str_bytes(m) + str_bytes(r);
        }
        n
    }

    /// The answer for the variable `var` of `prog` (the program this
    /// summary was solved over), rendered from the solver result. `None`
    /// when no named variable carries the name. A [`PointsToTable`] row
    /// renders the same answer.
    pub fn var_answer(&self, prog: &Program, var: &str) -> Option<VarAnswer> {
        Some(VarAnswer::of(prog, &self.res, named_var(prog, var)?))
    }

    /// The alias answer from the deprecated tables, which are empty on
    /// every server path.
    #[deprecated(note = "reads the deprecated tables; use `VarAnswer::aliases`")]
    #[allow(deprecated)]
    pub fn may_alias(&self, a: &str, b: &str) -> Option<bool> {
        if !self.vars.contains(a) || !self.vars.contains(b) {
            return None;
        }
        let (pa, pb) = match (self.pt_locs.get(a), self.pt_locs.get(b)) {
            (Some(pa), Some(pb)) => (pa, pb),
            _ => return Some(false),
        };
        Some(pa.intersection(pb).next().is_some())
    }
}

/// Approximate resident bytes of a list of strings.
fn str_bytes(v: &[String]) -> usize {
    v.iter().map(|s| s.len() + 32).sum()
}

/// The object a variable name means in every query mode, exhaustive and
/// demand: the first named variable that carries the name. Functions,
/// heap sites and temporaries that share the name are never meant. This
/// is not `Program::object_by_name`, whose `::name` fallback answers
/// differently; [`PointsToTable::build`] applies the same rule to every
/// name at once.
pub(crate) fn named_var(prog: &Program, name: &str) -> Option<ObjId> {
    prog.objects
        .iter()
        .position(|o| o.name == name && o.kind.is_named_variable())
        .map(|i| ObjId(i as u32))
}

/// One variable's answer under one summary: what `points_to` replies and
/// what `alias` compares.
#[derive(Debug, Clone, PartialEq)]
pub struct VarAnswer {
    /// The points-to targets as a reply lists them: display strings,
    /// sorted and deduplicated.
    pub shown: Vec<String>,
    /// The exact targets, sorted; `alias` compares locations, not their
    /// display strings.
    pub locs: Vec<Loc>,
}

impl VarAnswer {
    fn of(prog: &Program, res: &AnalysisResult, obj: ObjId) -> VarAnswer {
        VarAnswer { shown: res.points_to_display(prog, obj), locs: res.points_to(prog, obj) }
    }

    /// May the two variables point to a common location?
    pub fn aliases(&self, other: &VarAnswer) -> bool {
        self.locs.iter().any(|l| other.locs.binary_search(l).is_ok())
    }
}

/// The answers of one summary's variables, by name. The first `points_to`
/// or `alias` query against the summary builds the name index
/// ([`SessionCache::points_to_table`]); each row is rendered the first
/// time a query reads it ([`answer`](PointsToTable::answer)), so a query
/// pays for the rows it reads. The table sits in its own slot under the
/// same byte budget, and neither `update` nor the snapshot carries it.
#[derive(Debug)]
pub struct PointsToTable {
    /// Variable name → row, under [`named_var`]'s rule.
    rows: HashMap<String, Row>,
    /// The resident-byte estimate, taken at build as if every row were
    /// rendered.
    bytes: usize,
}

/// One variable of a [`PointsToTable`]: its object, and its answer once a
/// query has read it.
#[derive(Debug)]
struct Row {
    obj: ObjId,
    answer: OnceLock<VarAnswer>,
}

/// Estimated resident bytes of one rendered target: its display string
/// and its location.
const TARGET_BYTES: usize = 96;

impl PointsToTable {
    fn build(prog: &Program, res: &AnalysisResult) -> PointsToTable {
        let mut rows = HashMap::new();
        let mut bytes = 256;
        for (i, o) in prog.objects.iter().enumerate() {
            if o.kind.is_named_variable() && !rows.contains_key(&o.name) {
                let obj = ObjId(i as u32);
                bytes += o.name.len() + 96 + res.points_to_len(prog, obj) * TARGET_BYTES;
                rows.insert(o.name.clone(), Row { obj, answer: OnceLock::new() });
            }
        }
        PointsToTable { rows, bytes }
    }

    /// The answer for the variable `var`, rendered from `prog` and `res`
    /// (those the table was built from) the first time any query reads it.
    /// Returns it with the wall-clock this call paid rendering it, zero
    /// once the row is rendered. `None` when no named variable carries the
    /// name.
    pub fn answer(
        &self,
        prog: &Program,
        res: &AnalysisResult,
        var: &str,
    ) -> Option<(&VarAnswer, Duration)> {
        let row = self.rows.get(var)?;
        if let Some(answer) = row.answer.get() {
            return Some((answer, Duration::ZERO));
        }
        let start = Instant::now();
        let answer = row.answer.get_or_init(|| VarAnswer::of(prog, res, row.obj));
        Some((answer, start.elapsed()))
    }

    /// How many rows a query has read so far.
    #[cfg(test)]
    pub(crate) fn rendered_rows(&self) -> usize {
        self.rows.values().filter(|r| r.answer.get().is_some()).count()
    }

    /// Approximate resident bytes, fixed at build.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }
}

/// The names of `set`'s objects, in `ObjId` order: one MOD or REF set as
/// a reply lists it.
fn object_names(prog: &Program, set: &BTreeSet<ObjId>) -> Vec<String> {
    set.iter().map(|o| prog.object(*o).name.clone()).collect()
}

/// The transitive `(MOD, REF)` object names of every defined function of
/// one summary, by function name. The first `modref` query against the
/// summary computes it ([`SessionCache::modref`]); it then sits in its own
/// slot under the same byte budget, and neither `update` nor the snapshot
/// carries it.
#[derive(Debug, Default)]
pub struct ModRefTable(pub BTreeMap<String, (Vec<String>, Vec<String>)>);

impl ModRefTable {
    fn build(prog: &Program, res: &AnalysisResult) -> ModRefTable {
        let mr = modref::mod_ref(prog, res, true);
        let table = prog.functions.iter().filter(|f| f.defined).map(|f| {
            let sets = mr.sets(f.id);
            (f.name.clone(), (object_names(prog, &sets.mods), object_names(prog, &sets.refs)))
        });
        ModRefTable(table.collect())
    }

    /// Approximate resident bytes (string payloads plus overhead).
    pub fn approx_bytes(&self) -> usize {
        let rows = self.0.iter().map(|(k, (m, r))| k.len() + 96 + str_bytes(m) + str_bytes(r));
        256 + rows.sum::<usize>()
    }
}

/// The rendered answer of one demand-mode query, in the exact shapes the
/// exhaustive handlers emit — byte-equality with the full solve is the
/// demand mode's contract, so the rendering pipeline is shared.
#[derive(Debug, Clone, PartialEq)]
pub enum DemandPayload {
    /// Display-rendered points-to targets, sorted and deduplicated.
    PointsTo(Vec<String>),
    /// The alias verdict.
    Alias(bool),
    /// `(MOD, REF)` object names for the queried function.
    ModRef {
        /// Objects the function may write.
        mods: Vec<String>,
        /// Objects the function may read.
        refs: Vec<String>,
    },
}

/// One cached demand answer: per-pointer (or per-function) plain data,
/// keyed under the solved layer as
/// `(source hash, "demand/<op>/<subject>/<config key>")` and subject to
/// the same byte budget and LRU policy as everything else.
#[derive(Debug)]
pub struct DemandAnswer {
    /// The rendered answer.
    pub payload: DemandPayload,
    /// Constraints the demand slice retained. When the answer was derived
    /// from an already-cached *full* solve, this equals
    /// [`total_statements`](DemandAnswer::total_statements) — the full
    /// fixpoint was (previously) paid, nothing was sliced.
    pub slice_statements: usize,
    /// Constraints in the whole program.
    pub total_statements: usize,
    /// Slice+solve wall-clock paid when this answer was built (zero when
    /// derived from a warm full solve).
    pub solve: Duration,
    /// The query subject (`"points_to/p"`, `"alias/p/q"`, `"modref/f"`).
    pub subject: String,
    /// The options the answer was computed under.
    pub opts: QueryOpts,
}

impl DemandAnswer {
    /// `slice_statements / total_statements` (0 for an empty program).
    pub fn ratio(&self) -> f64 {
        if self.total_statements == 0 {
            0.0
        } else {
            self.slice_statements as f64 / self.total_statements as f64
        }
    }

    /// Approximate resident bytes (string payloads plus overhead).
    pub fn approx_bytes(&self) -> usize {
        256 + self.subject.len()
            + match &self.payload {
            DemandPayload::PointsTo(v) => str_bytes(v),
            DemandPayload::Alias(_) => 0,
            DemandPayload::ModRef { mods, refs } => str_bytes(mods) + str_bytes(refs),
        }
    }
}

/// What a live-editing [`SessionCache::update`] did: the migrated entry
/// plus the diff, retraction and re-solve accounting the server reports
/// to the client verbatim.
#[derive(Debug)]
pub struct UpdateReport {
    /// The edited program's (new) cache entry — already registered under
    /// the session name and the new source hash.
    pub entry: Arc<ProgramEntry>,
    /// Functions whose header and body matched entirely.
    pub reused_fns: usize,
    /// Name-matched functions whose header or body changed.
    pub dirty_fns: usize,
    /// New-program statements with no old counterpart.
    pub dirty_statements: usize,
    /// Statements in the re-run region — the **max** across the re-solved
    /// summaries (models retract different cones from one edit).
    pub region_statements: usize,
    /// Total statements in the edited program.
    pub total_statements: usize,
    /// Old facts dropped by retraction, summed over the re-solves.
    pub retracted_edges: usize,
    /// Old facts carried into the seeded fixpoints, summed.
    pub kept_edges: usize,
    /// `Some(reason)` when the diff was unsound (e.g. a record definition
    /// changed) and everything re-ran cold.
    pub fallback: Option<String>,
    /// Cached full summaries re-solved and migrated to the new hash.
    pub resolved_summaries: usize,
    /// Constraints translated verbatim from the previous compilation.
    pub reused_constraints: usize,
    /// Constraints freshly lowered from the edited IR.
    pub fresh_constraints: usize,
    /// Wall-clock the whole update paid (diff + compile + re-solves).
    pub resolve: Duration,
}

/// A slot key: `(source hash, "")` for a program, `(source hash, cache
/// key)` for a solved summary, `(source hash, "points_to/<cache key>")` and
/// `(source hash, "modref/<cache key>")` for the tables rendered from it,
/// `(source hash, "demand/<subject>/<cache key>")` for a demand answer.
type Key = (u64, String);

/// One cached value; the variant is the layer it belongs to.
enum Cached {
    Program(Arc<ProgramEntry>),
    Solved(Arc<Solved>),
    PointsTo(Arc<PointsToTable>),
    ModRef(Arc<ModRefTable>),
    Demand(Arc<DemandAnswer>),
}

/// A value type the store holds, one per [`Cached`] variant.
trait Layer: Sized {
    fn wrap(value: Arc<Self>) -> Cached;
    fn unwrap(value: &Cached) -> Option<&Arc<Self>>;
    fn bytes(&self) -> usize;
}

macro_rules! layer {
    ($ty:ty, $variant:ident) => {
        impl Layer for $ty {
            fn wrap(value: Arc<Self>) -> Cached { Cached::$variant(value) }
            fn unwrap(value: &Cached) -> Option<&Arc<Self>> {
                if let Cached::$variant(v) = value { Some(v) } else { None }
            }
            fn bytes(&self) -> usize { self.approx_bytes() }
        }
    };
}
layer!(ProgramEntry, Program);
layer!(Solved, Solved);
layer!(PointsToTable, PointsTo);
layer!(ModRefTable, ModRef);
layer!(DemandAnswer, Demand);

/// A cached value plus the bookkeeping the evictor reads: its (fixed) size
/// estimate and a last-use tick bumped on every hit. The tick is an atomic
/// so hits can record recency under the cheap *read* guard.
struct Slot {
    value: Cached,
    bytes: usize,
    last_use: AtomicU64,
}

/// What a program name or hex hash resolves to.
struct Alias {
    /// The source hash of the version it addresses.
    key: u64,
    /// Whether the binding keeps the version resident: a name does, and so
    /// does a hex hash an unnamed load bound. The hash alias of a named
    /// load does not.
    holds: bool,
}

/// Everything behind the cache's one lock.
#[derive(Default)]
struct Store {
    slots: HashMap<Key, Slot>,
    /// Program name (and hex hash) → version; latest binding wins.
    names: HashMap<String, Alias>,
    /// Σ `slot.bytes` over `slots`.
    bytes: usize,
}

impl Store {
    /// Binds `name` to the version `key`. The version the name addressed
    /// before is released into `gone` when no binding holds it any more.
    fn bind(&mut self, name: &str, key: u64, holds: bool, gone: &mut Vec<Slot>) {
        let replaced = match self.names.get_mut(name) {
            Some(alias) if alias.key == key => {
                alias.holds |= holds;
                return;
            }
            Some(alias) => std::mem::replace(alias, Alias { key, holds }).key,
            None => {
                self.names.insert(name.to_string(), Alias { key, holds });
                return;
            }
        };
        self.release_unheld(replaced, gone);
    }

    /// Demotes the binding `name` to an alias that holds nothing,
    /// releasing its version into `gone` when no other binding holds it.
    fn unhold(&mut self, name: &str, gone: &mut Vec<Slot>) {
        if let Some(alias) = self.names.get_mut(name) {
            alias.holds = false;
            let key = alias.key;
            self.release_unheld(key, gone);
        }
    }

    /// Moves every slot and alias of the version `key` into `gone`, unless
    /// a binding still holds it.
    fn release_unheld(&mut self, key: u64, gone: &mut Vec<Slot>) {
        if self.names.values().any(|a| a.key == key && a.holds) {
            return;
        }
        self.names.retain(|_, a| a.key != key);
        let keys: Vec<Key> = self.slots.keys().filter(|k| k.0 == key).cloned().collect();
        for k in keys {
            let slot = self.slots.remove(&k).expect("key was just seen");
            self.bytes -= slot.bytes;
            gone.push(slot);
        }
    }
}

/// Every resident value by layer, read in one pass for the snapshot
/// writer.
#[derive(Default)]
pub struct Resident {
    /// Program entries.
    pub programs: Vec<Arc<ProgramEntry>>,
    /// Program name (and hex hash) → source hash, as queries resolve them.
    pub names: HashMap<String, u64>,
    /// Solved summaries with their keys.
    pub solved: Vec<((u64, String), Arc<Solved>)>,
    /// Demand answers with their keys.
    pub demand: Vec<((u64, String), Arc<DemandAnswer>)>,
}

/// Per-layer `(count, bytes)` plus the resident total, from one read of
/// the store — the four byte figures always sum to `bytes`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layers {
    /// Program entries.
    pub programs: (usize, usize),
    /// Solved summaries.
    pub solved: (usize, usize),
    /// Tables rendered from summaries: points-to and MOD/REF.
    pub rendered: (usize, usize),
    /// Demand answers.
    pub demand: (usize, usize),
    /// Approximate resident bytes across all layers.
    pub bytes: usize,
}

/// The concurrent session cache; see the module docs.
pub struct SessionCache {
    metrics: Arc<Metrics>,
    max_bytes: usize,
    tick: AtomicU64,
    store: RwLock<Store>,
}

impl SessionCache {
    /// An empty cache recording into `metrics`, bounded by
    /// [`DEFAULT_MAX_BYTES`].
    pub fn new(metrics: Arc<Metrics>) -> SessionCache {
        SessionCache::with_max_bytes(metrics, DEFAULT_MAX_BYTES)
    }

    /// An empty cache bounded by `max_bytes` (approximate; `0` disables
    /// the bound entirely).
    pub fn with_max_bytes(metrics: Arc<Metrics>, max_bytes: usize) -> SessionCache {
        SessionCache {
            metrics,
            max_bytes,
            tick: AtomicU64::new(0),
            store: RwLock::new(Store::default()),
        }
    }

    /// The configured byte budget (`0` = unbounded).
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// The current approximate resident bytes across all layers.
    pub fn bytes(&self) -> usize {
        read(&self.store).bytes
    }

    /// A fresh recency tick.
    fn tick(&self) -> u64 {
        self.tick.fetch_add(1, Relaxed) + 1
    }

    /// Marks a slot used now and clones out its value.
    fn touch<T: Layer>(&self, slot: &Slot) -> Option<Arc<T>> {
        slot.last_use.store(self.tick(), Relaxed);
        T::unwrap(&slot.value).cloned()
    }

    /// The value resident under `key`, marked used now.
    fn get<T: Layer>(&self, key: &Key) -> Option<Arc<T>> {
        read(&self.store).slots.get(key).and_then(|s| self.touch(s))
    }

    /// The one insert, first-in wins: returns the value already resident
    /// under `key` if there is one, else inserts `value` stamped with a
    /// fresh tick, adds its bytes, and evicts globally least-recently-used
    /// slots other than `key` until the total fits the budget again.
    fn put<T: Layer>(&self, store: &mut Store, key: Key, value: Arc<T>) -> Arc<T> {
        // A slot of another layer under `key` can only come from a snapshot
        // with a malformed demand key; the value is then served uncached.
        if let Some(slot) = store.slots.get(&key) {
            return self.touch(slot).unwrap_or(value);
        }
        let bytes = value.bytes();
        store.bytes += bytes;
        let slot = Slot {
            value: T::wrap(Arc::clone(&value)),
            bytes,
            last_use: AtomicU64::new(self.tick()),
        };
        store.slots.insert(key.clone(), slot);
        let (mut programs, mut others) = (0u64, 0u64);
        while self.max_bytes != 0 && store.bytes > self.max_bytes {
            let victim = store
                .slots
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, s)| s.last_use.load(Relaxed))
                .map(|(k, _)| k.clone());
            // Everything left is the new slot: over budget but resident.
            let Some(victim) = victim else { break };
            let slot = store.slots.remove(&victim).expect("victim was just seen");
            store.bytes -= slot.bytes;
            match slot.value {
                Cached::Program(_) => {
                    store.names.retain(|_, a| a.key != victim.0);
                    programs += 1;
                }
                _ => others += 1,
            }
        }
        if programs + others > 0 {
            self.metrics.add(Counter::ProgramEvictions, programs);
            self.metrics.add(Counter::SolveEvictions, others);
        }
        self.metrics.set(Counter::CacheBytes, store.bytes as u64);
        value
    }

    /// Loads (compiles) `source`, reusing the cached entry when the same
    /// text was loaded before. `name` registers an alias for later queries
    /// (latest load of a name wins, releasing the version the name held
    /// before; see the module docs); unnamed programs are addressed by
    /// their hash. Lower failures are reported, not cached. Returns the
    /// entry plus the compile time this call paid: the entry's own on a
    /// miss, zero on a hit.
    pub fn load(
        &self,
        name: Option<&str>,
        source: &str,
    ) -> Result<(Arc<ProgramEntry>, Duration), String> {
        let key = (source_hash(source), String::new());
        let (entry, hit) = match self.get(&key) {
            Some(e) => (e, true),
            None => (Arc::new(ProgramEntry::build(key.0, name, source)?), false),
        };
        let mut store = write(&self.store);
        // A racing loader's entry is identical (same source): first-in
        // wins. An eviction racing in between the miss and this insert
        // simply means both see a miss — each recompiles once — and one
        // racing in after a hit puts the entry back.
        let entry = self.put(&mut store, key, entry);
        let gone = self.bind_entry(&mut store, name, &entry);
        drop(store);
        drop(gone);
        if hit {
            self.metrics.add(Counter::ProgramHits, 1);
            Ok((entry, Duration::ZERO))
        } else {
            self.metrics.add(Counter::ProgramMisses, 1);
            self.metrics.add_time(Counter::Compile, entry.compile);
            let compile = entry.compile;
            Ok((entry, compile))
        }
    }

    /// Resolves a loaded program by name or hash. An evicted program
    /// resolves to `None` exactly like one never loaded — callers reload.
    pub fn entry(&self, program: &str) -> Option<Arc<ProgramEntry>> {
        let store = read(&self.store);
        let key = (store.names.get(program)?.key, String::new());
        store.slots.get(&key).and_then(|s| self.touch(s))
    }

    // ----- snapshot export/restore -----
    //
    // The snapshot layer (see [`crate::snapshot`]) serializes the cache to
    // disk and repopulates it on restart. Export hands out the resident
    // values *without* touching recency (saving is not use); restore
    // inserts *without* recording hits or misses — no query asked for the
    // work, so `program_misses` and `solve_misses` must not move.

    /// Every resident value, for the snapshot writer.
    pub fn export(&self) -> Resident {
        let store = read(&self.store);
        let names = store.names.iter().map(|(n, a)| (n.clone(), a.key)).collect();
        let mut out = Resident { names, ..Resident::default() };
        for (k, slot) in &store.slots {
            match &slot.value {
                Cached::Program(e) => out.programs.push(Arc::clone(e)),
                Cached::Solved(s) => out.solved.push((k.clone(), Arc::clone(s))),
                Cached::Demand(a) => out.demand.push((k.clone(), Arc::clone(a))),
                // Rendered again on the first query after a restore.
                Cached::PointsTo(_) | Cached::ModRef(_) => {}
            }
        }
        out
    }

    /// Inserts a restored program entry, registering its name and hash
    /// aliases exactly as [`load`](SessionCache::load) would (an entry
    /// named by its hash binds like an unnamed load) — but with no
    /// hit/miss recorded. First-in wins against a racing loader; the byte
    /// budget applies as usual.
    pub fn restore_program(&self, entry: Arc<ProgramEntry>) {
        let mut store = write(&self.store);
        let name = (entry.name != entry.hash_hex).then_some(entry.name.as_str());
        let gone = self.bind_entry(&mut store, name, &entry);
        self.put(&mut store, (entry.key, String::new()), Arc::clone(&entry));
        drop(store);
        drop(gone);
    }

    /// Binds `name` (the hex hash when `None`) and the hash alias to
    /// `entry`, returning the slots of the versions this released.
    fn bind_entry(&self, store: &mut Store, name: Option<&str>, entry: &ProgramEntry) -> Vec<Slot> {
        let mut gone = Vec::new();
        store.bind(name.unwrap_or(&entry.hash_hex), entry.key, true, &mut gone);
        store.bind(&entry.hash_hex, entry.key, false, &mut gone);
        self.metrics.set(Counter::CacheBytes, store.bytes as u64);
        gone
    }

    /// Inserts a restored solved summary under its original key, with no
    /// solve and no hit/miss recorded.
    pub fn restore_solved(&self, key: (u64, String), solved: Arc<Solved>) {
        self.put(&mut write(&self.store), key, solved);
    }

    /// Inserts a restored demand answer under its original key, with no
    /// slice/solve and no hit/miss recorded.
    pub fn restore_demand(&self, key: (u64, String), answer: Arc<DemandAnswer>) {
        self.put(&mut write(&self.store), key, answer);
    }

    /// The solved summary for `(entry, opts)`, memoized. A hit re-runs
    /// neither stage 1 nor the fixpoint; a miss pays stages 2+3 and the
    /// summary build once, outside the lock. Returns the summary plus the
    /// miss work this particular call paid (zero on a hit) so request
    /// handlers can separate lookup time from solve time. One config makes
    /// [`solved_many`](SessionCache::solved_many) solve inline.
    ///
    /// # Errors
    ///
    /// [`SolveError`] when `opts` carries a budget and it trips. Failed
    /// solves are never cached (the same query retried with a looser
    /// budget computes fresh), and hits are served from the cache
    /// regardless of budget — the budget bounds *computation*, and a hit
    /// computes nothing.
    pub fn solved(
        &self,
        entry: &ProgramEntry,
        opts: &QueryOpts,
    ) -> Result<(Arc<Solved>, Duration), SolveError> {
        let (mut solved, paid) = self.solved_many(entry, std::slice::from_ref(opts), 1)?;
        Ok((solved.pop().expect("one config, one summary"), paid))
    }

    /// The solved summaries for `(entry, opts)` for **several** option
    /// sets at once — `compare_models`' shape — solving the misses
    /// concurrently on up to `threads` worker threads via the core's
    /// multi-model parallel layer. Hits are served from the cache; each
    /// miss charges its solve plus its summary build to `solve_s`. Returns
    /// the summaries in `opts_list` order plus the wall-clock this call
    /// paid on misses, builds included (zero when everything was warm).
    ///
    /// # Errors
    ///
    /// The first (by request order) budget violation among the misses.
    /// Sibling successes are still cached before the error returns, so a
    /// retry with a looser budget pays only for the config that failed.
    pub fn solved_many(
        &self,
        entry: &ProgramEntry,
        opts_list: &[QueryOpts],
        threads: usize,
    ) -> Result<(Vec<Arc<Solved>>, Duration), SolveError> {
        let mut out: Vec<Option<Arc<Solved>>> = vec![None; opts_list.len()];
        let mut misses: Vec<usize> = Vec::new();
        for (i, opts) in opts_list.iter().enumerate() {
            match self.get(&(entry.key, opts.cache_key())) {
                Some(s) => out[i] = Some(s),
                None => misses.push(i),
            }
        }
        self.metrics
            .add(Counter::SolveHits, (opts_list.len() - misses.len()) as u64);
        let mut paid = Duration::ZERO;
        let mut first_err: Option<SolveError> = None;
        if !misses.is_empty() {
            let configs: Vec<structcast::AnalysisConfig> =
                misses.iter().map(|&i| opts_list[i].to_config()).collect();
            let start = Instant::now();
            let results =
                try_solve_compiled_parallel(&entry.prog, &entry.constraints, &configs, threads);
            for (&i, res) in misses.iter().zip(results) {
                match res {
                    Ok(res) => {
                        // `res.elapsed` is the solve measured on its
                        // worker; the build runs here.
                        let build = Instant::now();
                        let solve = res.elapsed;
                        let deref = res.deref_summary(&entry.prog);
                        let solved = Arc::new(Solved::new(opts_list[i].clone(), res, deref));
                        self.metrics.add(Counter::SolveMisses, 1);
                        self.metrics
                            .add_time(Counter::Solve, solve + build.elapsed());
                        let key = (entry.key, opts_list[i].cache_key());
                        out[i] = Some(self.put(&mut write(&self.store), key, solved));
                    }
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
            paid = start.elapsed();
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok((out.into_iter().map(|s| s.expect("slot filled")).collect(), paid))
    }

    /// The demand answer for `(entry, opts, query)`, memoized per subject.
    /// Returns the answer, the slice+solve wall-clock this particular call
    /// paid (zero when warm), and whether it was served warm.
    ///
    /// Lookup order, cheapest first:
    ///
    /// 1. the answer's own slot — a repeated demand query is a map lookup;
    /// 2. an already-cached **full** solve for the same options — the
    ///    exhaustive fixpoint was paid earlier, so the answer is derived
    ///    from its summary for free (recorded as a demand *hit* with
    ///    `slice == total`: nothing was sliced);
    /// 3. a cold slice+solve via [`structcast::try_solve_demand_compiled`].
    ///
    /// `subject` distinguishes answers under one config (e.g.
    /// `"points_to/p"`, `"alias/p/q"`, `"modref/f"`); callers must derive
    /// it injectively from the query. Cached demand answers share the byte
    /// budget and LRU policy with every other slot.
    ///
    /// # Errors
    ///
    /// [`SolveError`] when `opts` carries a budget and the sliced solve
    /// trips it. Failed solves are never cached; warm answers are served
    /// regardless of budget (a hit computes nothing).
    pub fn demand(
        &self,
        entry: &ProgramEntry,
        opts: &QueryOpts,
        query: &DemandQuery,
        subject: &str,
    ) -> Result<(Arc<DemandAnswer>, Duration, bool), SolveError> {
        let key = demand_key(entry.key, subject, opts);
        if let Some(a) = self.get(&key) {
            self.metrics.add(Counter::DemandHits, 1);
            return Ok((a, Duration::ZERO, true));
        }
        // A warm full solve answers any demand query without slicing.
        if let Some(answer) = self.demand_fallback(entry, opts, query, subject) {
            self.metrics.add(Counter::DemandHits, 1);
            let answer = self.put(&mut write(&self.store), key, Arc::new(answer));
            return Ok((answer, Duration::ZERO, true));
        }
        let start = Instant::now();
        let d = try_solve_demand_compiled(&entry.prog, &entry.constraints, query, &opts.to_config())?;
        let solve = start.elapsed();
        let answer = Arc::new(DemandAnswer {
            payload: demand_payload(entry, query, &d),
            slice_statements: d.stats.slice_statements,
            total_statements: d.stats.total_statements,
            solve,
            subject: subject.to_string(),
            opts: opts.clone(),
        });
        let paid = start.elapsed();
        self.metrics.add(Counter::DemandMisses, 1);
        let stats = &d.stats;
        self.metrics.add(
            Counter::DemandSliceStatements,
            stats.slice_statements as u64,
        );
        self.metrics.add(
            Counter::DemandTotalStatements,
            stats.total_statements as u64,
        );
        self.metrics.add_time(Counter::Solve, paid);
        Ok((self.put(&mut write(&self.store), key, answer), paid, false))
    }

    /// Residency probe: the full summary for `(entry, opts)` if it is
    /// warm right now, recording **no** hit/miss metrics — a probe is not
    /// a serve. The brownout ladder uses this to decide whether a request
    /// is answerable without cold work, and the demand fallback uses it
    /// as its source of warm truth.
    pub fn solved_if_resident(&self, entry: &ProgramEntry, opts: &QueryOpts) -> Option<Arc<Solved>> {
        self.get(&(entry.key, opts.cache_key()))
    }

    /// The points-to table of the summary `solved` of `entry`, memoized in
    /// its own slot: the first call builds the name index, later calls
    /// read it. Returns the table plus the wall-clock this call paid
    /// building it (zero on a hit), which is charged to `solve_s`. Rows
    /// render on their first read ([`PointsToTable::answer`]); the server
    /// charges those renders to `solve_s` as well.
    pub fn points_to_table(
        &self,
        entry: &ProgramEntry,
        solved: &Solved,
    ) -> (Arc<PointsToTable>, Duration) {
        self.rendered(entry, solved, "points_to", || PointsToTable::build(&entry.prog, &solved.res))
    }

    /// The MOD/REF table of the summary `solved` of `entry`, memoized like
    /// [`points_to_table`](Self::points_to_table).
    pub fn modref(&self, entry: &ProgramEntry, solved: &Solved) -> (Arc<ModRefTable>, Duration) {
        self.rendered(entry, solved, "modref", || ModRefTable::build(&entry.prog, &solved.res))
    }

    /// The table `build` renders from `solved`, under the key
    /// `(program, "<tag>/<cache key>")`, built on the first call.
    fn rendered<T: Layer>(
        &self,
        entry: &ProgramEntry,
        solved: &Solved,
        tag: &str,
        build: impl FnOnce() -> T,
    ) -> (Arc<T>, Duration) {
        let key = (entry.key, format!("{tag}/{}", solved.opts.cache_key()));
        if let Some(t) = self.get(&key) {
            return (t, Duration::ZERO);
        }
        let start = Instant::now();
        let table = Arc::new(build());
        let paid = start.elapsed();
        self.metrics.add_time(Counter::Solve, paid);
        (self.put(&mut write(&self.store), key, table), paid)
    }

    /// Residency probe for a cached demand answer (same key derivation as
    /// [`demand`](Self::demand)), metric-free like
    /// [`solved_if_resident`](Self::solved_if_resident).
    pub fn demand_is_resident(&self, entry: &ProgramEntry, opts: &QueryOpts, subject: &str) -> bool {
        read(&self.store).slots.contains_key(&demand_key(entry.key, subject, opts))
    }

    /// Degradation-ladder fallback: answers `query` from a *resident*
    /// full summary, touching neither the solver nor the demand cache and
    /// recording no demand metrics. `None` when no full summary for
    /// `opts` is warm. Used when the demand path itself failed — the warm
    /// exhaustive answer is second choice (nothing was sliced, so
    /// `slice == total`) but strictly better than a refusal.
    pub fn demand_fallback(
        &self,
        entry: &ProgramEntry,
        opts: &QueryOpts,
        query: &DemandQuery,
        subject: &str,
    ) -> Option<DemandAnswer> {
        let s = self.solved_if_resident(entry, opts)?;
        let prog = &entry.prog;
        // The answer is cached as a demand slot, so one variable is
        // rendered rather than the whole table.
        let var = |o: ObjId| s.var_answer(prog, &prog.object(o).name);
        let payload = match *query {
            DemandQuery::PointsTo { obj } => {
                DemandPayload::PointsTo(var(obj).map(|a| a.shown).unwrap_or_default())
            }
            DemandQuery::Alias { a, b } => {
                DemandPayload::Alias(var(a).zip(var(b)).is_some_and(|(a, b)| a.aliases(&b)))
            }
            DemandQuery::ModRef { func } => {
                let (table, _) = self.modref(entry, &s);
                let sets = table.0.get(&prog.function(func).name);
                let (mods, refs) = sets.cloned().unwrap_or_default();
                DemandPayload::ModRef { mods, refs }
            }
        };
        let total = entry.constraints.len();
        Some(DemandAnswer {
            payload,
            slice_statements: total,
            total_statements: total,
            solve: Duration::ZERO,
            subject: subject.to_string(),
            opts: opts.clone(),
        })
    }

    /// Applies an edited `source` to the cached session `program`: diffs
    /// the new text against the loaded program function-by-function,
    /// reuses every unchanged constraint
    /// ([`compile_incremental`]), re-solves
    /// each cached summary incrementally — difference propagation seeded
    /// from the old facts, retracting only what the edit can reach — and
    /// migrates the session (name and summaries) to the edited source's
    /// hash.
    ///
    /// The commit **releases** the pre-edit version (program, summaries,
    /// rendered tables, demand answers and hash alias) in the same write
    /// guard, before the migrated values go in, unless another name still
    /// holds it; see the module docs. A session addressed by its hash
    /// moves to the new hash, and the old hash then answers like an
    /// evicted one. An undo is another incremental `update`.
    ///
    /// Demand answers are not carried: after the edit a demand query is
    /// answered from the migrated summary of its options when one exists
    /// (step 2 of [`demand`](Self::demand): a warm hit, no solve), and is
    /// sliced fresh otherwise.
    ///
    /// Query budgets (`deadline_ms`, `max_edges`) are stripped from the
    /// re-solves: an update refreshes what the session already paid for,
    /// it is not a new budgeted query.
    ///
    /// # Errors
    ///
    /// A message when `program` names no cached session, the edited
    /// source fails to lower or a re-solve fails. Nothing is modified on
    /// error, so the pre-edit version keeps serving.
    pub fn update(&self, program: &str, source: &str) -> Result<UpdateReport, String> {
        let old = self
            .entry(program)
            .ok_or_else(|| format!("unknown program: {program} (load it first)"))?;
        let start = Instant::now();
        let key = source_hash(source);
        let new_prog = structcast::lower_source(source).map_err(|e| e.to_string())?;

        // Diff + incremental compile, outside the lock.
        let diff = diff_programs(&old.prog, &new_prog);
        let (new_set, reuse) = compile_incremental(&old.prog, &old.constraints, &new_prog, &diff);
        let compile = start.elapsed();
        let hash_hex = format!("{key:016x}");
        let name = if program == old.hash_hex {
            hash_hex.clone()
        } else {
            program.to_string()
        };
        let entry = Arc::new(ProgramEntry {
            key,
            hash_hex,
            name,
            source: source.to_string(),
            prog: new_prog,
            constraints: new_set,
            compile,
        });
        let total_statements = entry.constraints.len();

        // The old session's resident summaries.
        let old_solved: Vec<(String, Arc<Solved>)> = read(&self.store)
            .slots
            .iter()
            .filter(|(k, _)| k.0 == old.key)
            .filter_map(|((_, k), slot)| Some((k.clone(), self.touch::<Solved>(slot)?)))
            .collect();

        // Re-solve every summary, also outside the lock.
        let mut migrated: Vec<(Key, Arc<Solved>)> = Vec::new();
        let mut region_statements = 0usize;
        let mut retracted_edges = 0usize;
        let mut kept_edges = 0usize;
        for (ck, s) in &old_solved {
            let opts = QueryOpts {
                deadline_ms: None,
                max_edges: None,
                ..s.opts.clone()
            };
            let inc = resolve_incremental(
                &old.prog,
                &old.constraints,
                &s.res,
                &entry.prog,
                &entry.constraints,
                &diff,
                &opts.to_config(),
            )
            .map_err(|e| format!("incremental re-solve failed: {e}"))?;
            region_statements = region_statements.max(inc.stats.region_statements);
            retracted_edges += inc.stats.retracted_edges;
            kept_edges += inc.stats.kept_edges;
            let deref = inc.result.deref_summary(&entry.prog);
            let solved = Solved::new(s.opts.clone(), inc.result, deref);
            migrated.push(((key, ck.clone()), Arc::new(solved)));
        }
        let resolved_summaries = migrated.len();

        // Commit under one write guard. Binding the session to the new
        // version first releases the old one, so its bytes are free before
        // the migrated values go in. First-in wins everywhere (a racing
        // load/solve of the same edited source computed identical values).
        // The program goes in last so its own insert spares it: the session
        // always resolves after an update.
        let mut store = write(&self.store);
        let mut gone = Vec::new();
        if program == old.hash_hex && key != old.key {
            store.unhold(program, &mut gone);
        }
        gone.append(&mut self.bind_entry(&mut store, Some(&entry.name), &entry));
        for (k, s) in migrated {
            self.put(&mut store, k, s);
        }
        let entry = self.put(&mut store, (key, String::new()), entry);
        drop(store);
        drop(gone);

        Ok(UpdateReport {
            entry,
            reused_fns: diff.reused_fns,
            dirty_fns: diff.dirty_fns,
            dirty_statements: diff.dirty_stmts.len(),
            region_statements,
            total_statements,
            retracted_edges,
            kept_edges,
            fallback: diff.fallback,
            resolved_summaries,
            reused_constraints: reuse.reused_constraints,
            fresh_constraints: reuse.fresh_constraints,
            resolve: start.elapsed(),
        })
    }

    /// Per-layer `(count, bytes)` and the resident total, from one read.
    pub fn layers(&self) -> Layers {
        let store = read(&self.store);
        let mut l = Layers { bytes: store.bytes, ..Layers::default() };
        for slot in store.slots.values() {
            let (n, b) = match slot.value {
                Cached::Program(_) => &mut l.programs,
                Cached::Solved(_) => &mut l.solved,
                Cached::PointsTo(_) | Cached::ModRef(_) => &mut l.rendered,
                Cached::Demand(_) => &mut l.demand,
            };
            *n += 1;
            *b += slot.bytes;
        }
        l
    }
}

/// The slot key of a demand answer.
fn demand_key(hash: u64, subject: &str, opts: &QueryOpts) -> Key {
    (hash, format!("demand/{subject}/{}", opts.cache_key()))
}

/// Renders a fresh demand solve into the exact shapes the exhaustive
/// handlers emit, through the same renderers ([`AnalysisResult::points_to_display`],
/// [`object_names`]) — the byte-equality contract lives there.
fn demand_payload(entry: &ProgramEntry, query: &DemandQuery, d: &structcast::DemandResult) -> DemandPayload {
    let prog = &entry.prog;
    match *query {
        DemandQuery::PointsTo { obj } => {
            DemandPayload::PointsTo(d.result.points_to_display(prog, obj))
        }
        DemandQuery::Alias { a, b } => DemandPayload::Alias(d.result.may_alias(prog, a, b)),
        DemandQuery::ModRef { func } => {
            let sets = d.modref_of(prog, func);
            let (mods, refs) = (object_names(prog, &sets.mods), object_names(prog, &sets.refs));
            DemandPayload::ModRef { mods, refs }
        }
    }
}

impl std::fmt::Debug for SessionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCache")
            .field("layers", &self.layers())
            .field("max_bytes", &self.max_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structcast::constraints::compiles_on_thread;
    use structcast::solves_on_thread;

    const SRC: &str = "struct S { int *s1; int *s2; } s;\n\
        int x, y, *p, *q;\n\
        void f(void) { s.s1 = &x; s.s2 = &y; p = s.s1; q = &x; }";

    fn cache() -> SessionCache {
        SessionCache::new(Arc::new(Metrics::new()))
    }

    /// A family of distinct small programs (distinct hashes, same shape).
    fn variant(i: usize) -> String {
        format!("int x{i}, *p{i}; void f{i}(void) {{ p{i} = &x{i}; }}")
    }

    #[test]
    fn warm_queries_skip_compile_and_solve() {
        let c = cache();
        let opts = QueryOpts::default();
        let (compiles0, solves0) = (compiles_on_thread(), solves_on_thread());
        let (entry, compiled) = c.load(Some("intro"), SRC).unwrap();
        assert!(compiled > Duration::ZERO);
        let (first, paid) = c.solved(&entry, &opts).unwrap();
        assert!(paid > Duration::ZERO);
        assert_eq!(first.var_answer(&entry.prog, "p").unwrap().shown, vec!["x".to_string()]);
        // Second pass: same source, same options — the thread-local stage
        // counters must not move at all.
        let (compiles1, solves1) = (compiles_on_thread(), solves_on_thread());
        let (entry2, compiled2) = c.load(Some("intro"), SRC).unwrap();
        assert_eq!(compiled2, Duration::ZERO, "a hit compiles nothing");
        let (second, paid2) = c.solved(&entry2, &opts).unwrap();
        assert_eq!(compiles_on_thread(), compiles1);
        assert_eq!(solves_on_thread(), solves1);
        assert_eq!(paid2, Duration::ZERO);
        assert!(Arc::ptr_eq(&first, &second));
        // And the whole exercise performed exactly one compile + one solve.
        assert_eq!(compiles1 - compiles0, 1);
        assert_eq!(solves1 - solves0, 1);
    }

    #[test]
    fn parallel_compare_models_counts_one_compile_and_n_solves() {
        let c = cache();
        let (compiles0, solves0) = (compiles_on_thread(), solves_on_thread());
        let entry = c.load(Some("intro"), SRC).unwrap().0;
        let all: Vec<QueryOpts> = ModelKind::ALL
            .iter()
            .map(|&k| QueryOpts::default().with_model(k))
            .collect();
        let (solved, paid) = c.solved_many(&entry, &all, 4).unwrap();
        assert!(paid > Duration::ZERO);
        assert_eq!(solved.len(), 4);
        for (s, k) in solved.iter().zip(ModelKind::ALL) {
            assert_eq!(s.kind, k, "summaries must come back in request order");
        }
        assert_eq!(
            compiles_on_thread() - compiles0,
            1,
            "compare_models must share one compilation"
        );
        assert_eq!(
            solves_on_thread() - solves0,
            4,
            "solves on pool workers must be credited to the requesting thread"
        );
        // Warm pass: no further compiles or solves, same Arcs, zero paid.
        let (solved2, paid2) = c.solved_many(&entry, &all, 4).unwrap();
        assert_eq!(compiles_on_thread() - compiles0, 1);
        assert_eq!(solves_on_thread() - solves0, 4);
        assert_eq!(paid2, Duration::ZERO);
        for (a, b) in solved.iter().zip(&solved2) {
            assert!(Arc::ptr_eq(a, b));
        }
        // A batch overlapping the warm entries solves only the cold one.
        let stride = QueryOpts::from_json(
            &crate::json::Json::parse(r#"{"model":"offsets","stride":true}"#).unwrap(),
        )
        .unwrap();
        let (solved3, _) = c.solved_many(&entry, &[all[0].clone(), stride], 4).unwrap();
        assert_eq!(solves_on_thread() - solves0, 5);
        assert!(Arc::ptr_eq(&solved3[0], &solved[0]));
        assert_eq!(solved3[1].kind, ModelKind::Offsets);
        // And the per-model summaries agree with the sequential path.
        let c2 = cache();
        let entry2 = c2.load(Some("intro"), SRC).unwrap().0;
        for (s, opts) in solved.iter().zip(&all) {
            let (seq, _) = c2.solved(&entry2, opts).unwrap();
            assert_eq!(s.edges, seq.edges, "{}", s.kind);
            for o in &entry.prog.objects {
                let a = s.var_answer(&entry.prog, &o.name);
                let b = seq.var_answer(&entry2.prog, &o.name);
                assert_eq!(a, b, "{} {}", s.kind, o.name);
            }
            assert_eq!(s.avg_deref, seq.avg_deref, "{}", s.kind);
        }
    }

    #[test]
    fn distinct_options_solve_separately() {
        let c = cache();
        let entry = c.load(None, SRC).unwrap().0;
        let cis = c.solved(&entry, &QueryOpts::default()).unwrap().0;
        let off = c
            .solved(&entry, &QueryOpts::from_json(
                &crate::json::Json::parse(r#"{"model":"offsets"}"#).unwrap(),
            ).unwrap())
            .unwrap()
            .0;
        assert_eq!(cis.kind, ModelKind::CommonInitialSeq);
        assert_eq!(off.kind, ModelKind::Offsets);
        let l = c.layers();
        assert_eq!((l.programs.0, l.solved.0), (1, 2));
        // Unnamed programs are addressable by hash.
        assert!(c.entry(&entry.hash_hex).is_some());
        assert!(c.entry("never-loaded").is_none());
    }

    #[test]
    fn summary_answers_alias_and_modref() {
        let c = cache();
        let entry = c.load(Some("intro"), SRC).unwrap().0;
        let (s, _) = c.solved(&entry, &QueryOpts::default()).unwrap();
        let table = c.points_to_table(&entry, &s).0;
        let row = |v: &str| Some(table.answer(&entry.prog, &s.res, v)?.0);
        let alias = |a: &str, b: &str| Some(row(a)?.aliases(row(b)?));
        assert_eq!(alias("p", "q"), Some(true));
        // `s` normalizes to its first field (Problem 1), which also points
        // to x — so it aliases p. `y` holds no pointer at all.
        assert_eq!(alias("p", "s"), Some(true));
        assert_eq!(alias("p", "y"), Some(false));
        assert_eq!(alias("p", "ghost"), None);
        let table = c.modref(&entry, &s).0;
        let (mods, refs) = table.0.get("f").expect("f has modref sets");
        assert!(mods.iter().any(|m| m == "s" || m == "p"), "{mods:?}");
        assert!(refs.iter().any(|r| r == "x" || r == "s"), "{refs:?}");
        assert!(s.var_answer(&entry.prog, "x").is_some());
        assert!(s.edges > 0 && s.iterations > 0);
    }

    #[test]
    #[allow(deprecated)] // reads the tables to show they stay empty
    fn answers_render_on_first_query_then_are_memoized() {
        let c = cache();
        let entry = c.load(Some("intro"), SRC).unwrap().0;
        let all: Vec<QueryOpts> =
            ModelKind::ALL.iter().map(|&k| QueryOpts::default().with_model(k)).collect();
        // A cold compare_models stores the solver results and nothing else.
        let (solved, _) = c.solved_many(&entry, &all, 4).unwrap();
        for s in &solved {
            assert!(s.vars.is_empty() && s.points_to.is_empty(), "{}", s.kind);
            assert!(s.pt_locs.is_empty() && s.modref.is_empty(), "{}", s.kind);
        }
        assert_eq!(c.layers().rendered, (0, 0), "no MOD/REF computed, no set rendered");
        // The first modref query fills one slot, charged to the budget...
        let (first, paid) = c.modref(&entry, &solved[2]);
        assert!(paid > Duration::ZERO);
        assert!(first.0.contains_key("f"));
        let l = c.layers();
        assert_eq!(l.rendered, (1, first.approx_bytes()));
        assert_eq!(l.programs.1 + l.solved.1 + l.rendered.1 + l.demand.1, c.bytes());
        // ...and the second is a hit on the same table.
        let (second, paid2) = c.modref(&entry, &solved[2]);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(paid2, Duration::ZERO);
        assert_eq!(c.layers().rendered.0, 1);
        // Each instance has its own table.
        c.modref(&entry, &solved[0]);
        assert_eq!(c.layers().rendered.0, 2);
        // The points-to table is indexed once per summary, too; each row
        // renders on its first read, agrees with rendering one variable,
        // and is read warm afterwards.
        let (pt, paid) = c.points_to_table(&entry, &solved[2]);
        assert!(paid > Duration::ZERO);
        assert_eq!(pt.rendered_rows(), 0, "indexing renders no row");
        let (p, render) = pt.answer(&entry.prog, &solved[2].res, "p").unwrap();
        assert!(render > Duration::ZERO);
        assert_eq!(p.shown, vec!["x".to_string()]);
        for o in &entry.prog.objects {
            let row = pt.answer(&entry.prog, &solved[2].res, &o.name).map(|(a, _)| a.clone());
            assert_eq!(row, solved[2].var_answer(&entry.prog, &o.name), "{}", o.name);
        }
        let (p2, render2) = pt.answer(&entry.prog, &solved[2].res, "p").unwrap();
        assert!(std::ptr::eq(p, p2));
        assert_eq!(render2, Duration::ZERO);
        let (again, paid2) = c.points_to_table(&entry, &solved[2]);
        assert!(Arc::ptr_eq(&pt, &again));
        assert_eq!(paid2, Duration::ZERO);
        assert_eq!(c.layers().rendered.0, 3);
    }

    #[test]
    fn lower_errors_are_reported_not_cached() {
        let c = cache();
        let err = c.load(Some("bad"), "int x = ;;;").unwrap_err();
        assert!(err.contains("parse error"), "{err}");
        let l = c.layers();
        assert_eq!((l.programs.0, l.solved.0), (0, 0));
        assert!(c.entry("bad").is_none());
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SessionCache>();
        assert_send_sync::<ProgramEntry>();
        assert_send_sync::<Solved>();

        let c = Arc::new(cache());
        let entry = c.load(Some("intro"), SRC).unwrap().0;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (c, entry) = (Arc::clone(&c), Arc::clone(&entry));
                std::thread::spawn(move || {
                    let (s, _) = c.solved(&entry, &QueryOpts::default()).unwrap();
                    s.var_answer(&entry.prog, "p").map(|a| a.shown)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), Some(vec!["x".to_string()]));
        }
        let l = c.layers();
        assert_eq!((l.programs.0, l.solved.0), (1, 1));
    }

    #[test]
    fn budgeted_miss_reports_error_and_caches_nothing() {
        let c = cache();
        let entry = c.load(Some("intro"), SRC).unwrap().0;
        let mut opts = QueryOpts {
            max_edges: Some(0),
            ..QueryOpts::default()
        };
        let err = c.solved(&entry, &opts).unwrap_err();
        assert_eq!(err, SolveError::EdgeLimit { limit: 0 });
        let l = c.layers();
        assert_eq!((l.programs.0, l.solved.0), (1, 0), "failed solves are not cached");
        // Retried with no budget, the same opts key solves and caches.
        opts.max_edges = None;
        let (s, _) = c.solved(&entry, &opts).unwrap();
        assert!(s.edges > 0);
        let l = c.layers();
        assert_eq!((l.programs.0, l.solved.0), (1, 1));
        // ...and a *hit* is served even under an impossible budget: a hit
        // computes nothing, so the budget has nothing to bound.
        opts.max_edges = Some(0);
        let (hit, paid) = c.solved(&entry, &opts).unwrap();
        assert!(Arc::ptr_eq(&s, &hit));
        assert_eq!(paid, Duration::ZERO);
    }

    #[test]
    fn budgeted_compare_models_keeps_sibling_successes() {
        let c = cache();
        let entry = c.load(Some("intro"), SRC).unwrap().0;
        let mut capped = QueryOpts::default().with_model(ModelKind::CollapseAlways);
        capped.max_edges = Some(0);
        let fine = QueryOpts::default().with_model(ModelKind::Offsets);
        let err = c.solved_many(&entry, &[capped, fine.clone()], 2).unwrap_err();
        assert_eq!(err, SolveError::EdgeLimit { limit: 0 });
        // The sibling's success was cached before the error surfaced.
        let solves0 = solves_on_thread();
        let (s, paid) = c.solved(&entry, &fine).unwrap();
        assert_eq!(s.kind, ModelKind::Offsets);
        assert_eq!(paid, Duration::ZERO);
        assert_eq!(solves_on_thread(), solves0);
    }

    #[test]
    fn eviction_is_lru_and_recompile_is_exactly_once() {
        let metrics = Arc::new(Metrics::new());
        // Budget sized to hold roughly 3 of the small variants.
        let probe = cache();
        let probe_entry = probe.load(None, &variant(0)).unwrap().0;
        let per_entry = probe_entry.approx_bytes();
        let c = SessionCache::with_max_bytes(Arc::clone(&metrics), per_entry * 3 + per_entry / 2);

        let a = c.load(Some("a"), &variant(1)).unwrap().0;
        let _b = c.load(Some("b"), &variant(2)).unwrap().0;
        let _c3 = c.load(Some("c"), &variant(3)).unwrap().0;
        assert_eq!(metrics.evictions(), (0, 0), "under budget: no eviction");
        // Touch `a` so `b` becomes the LRU victim when `d` arrives.
        assert!(c.entry("a").is_some());
        let _d = c.load(Some("d"), &variant(4)).unwrap().0;
        let (pe, _) = metrics.evictions();
        assert!(pe >= 1, "inserting past the cap must evict");
        assert!(c.entry("b").is_none(), "b was least-recently used");
        assert!(c.entry("a").is_some(), "a was touched and must survive");
        assert!(c.entry("d").is_some(), "the inserted entry is never the victim");
        assert!(
            c.bytes() <= c.max_bytes(),
            "bytes {} must fit budget {}",
            c.bytes(),
            c.max_bytes()
        );
        // The Arc a caller held across the eviction stays valid.
        assert_eq!(a.name, "a");

        // Re-loading the evicted program recompiles exactly once.
        let compiles0 = compiles_on_thread();
        let again = c.load(Some("b"), &variant(2)).unwrap().0;
        assert_eq!(compiles_on_thread() - compiles0, 1);
        assert_eq!(again.name, "b");
        let yet_again = c.load(Some("b"), &variant(2)).unwrap().0;
        assert_eq!(compiles_on_thread() - compiles0, 1, "second load is warm");
        assert!(Arc::ptr_eq(&again, &yet_again));
    }

    #[test]
    fn solved_summaries_participate_in_the_byte_budget() {
        let metrics = Arc::new(Metrics::new());
        // Budget below a single program entry: every insert immediately
        // evicts the previous tenants, but the inserted key itself always
        // survives its own insert.
        let c = SessionCache::with_max_bytes(Arc::clone(&metrics), 1);
        let entry = c.load(Some("intro"), SRC).unwrap().0;
        // The program itself is over budget but protected during insert;
        // `put` leaves a sole oversized tenant resident.
        assert_eq!(c.layers().programs.0, 1);
        let (s, _) = c.solved(&entry, &QueryOpts::default()).unwrap();
        assert!(s.edges > 0);
        let (pe, se) = metrics.evictions();
        assert!(
            pe + se >= 1,
            "a 1-byte budget must evict on the second insert ({pe}p/{se}s)"
        );
        assert!(s.approx_bytes() > 0);
    }

    /// The demand query for a named pointer, plus its subject string (the
    /// shape the server derives).
    fn pt_query(entry: &ProgramEntry, var: &str) -> (DemandQuery, String) {
        let q = DemandQuery::points_to_named(&entry.prog, var).expect("known var");
        (q, format!("points_to/{var}"))
    }

    #[test]
    fn demand_cold_then_warm_then_derived_from_full() {
        let metrics = Arc::new(Metrics::new());
        let c = SessionCache::new(Arc::clone(&metrics));
        let entry = c.load(Some("intro"), SRC).unwrap().0;
        let opts = QueryOpts::default();
        let (q, subject) = pt_query(&entry, "p");

        // Cold: a real slice+solve — a miss with a nonempty slice.
        let (a1, paid1, warm1) = c.demand(&entry, &opts, &q, &subject).unwrap();
        assert!(!warm1);
        assert!(paid1 > Duration::ZERO);
        assert_eq!(a1.payload, DemandPayload::PointsTo(vec!["x".to_string()]));
        assert!(a1.slice_statements <= a1.total_statements);
        let demand = || [Counter::DemandHits, Counter::DemandMisses].map(|c| metrics.get(c));
        assert_eq!(demand(), [0, 1]);

        // Warm: the demand map answers, no solver work.
        let solves0 = solves_on_thread();
        let (a2, paid2, warm2) = c.demand(&entry, &opts, &q, &subject).unwrap();
        assert!(warm2);
        assert_eq!(paid2, Duration::ZERO);
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(solves_on_thread(), solves0);
        assert_eq!(demand(), [1, 1]);
        assert_eq!(c.layers().demand.0, 1);

        // A *different* subject under a warm full solve derives for free.
        let (full, _) = c.solved(&entry, &opts).unwrap();
        let (q2, subject2) = pt_query(&entry, "q");
        let (a3, paid3, warm3) = c.demand(&entry, &opts, &q2, &subject2).unwrap();
        assert!(warm3, "warm full solve must answer demand without slicing");
        assert_eq!(paid3, Duration::ZERO);
        assert_eq!(
            a3.payload,
            DemandPayload::PointsTo(full.var_answer(&entry.prog, "q").unwrap().shown)
        );
        assert_eq!(a3.slice_statements, a3.total_statements, "nothing was sliced");
        assert_eq!(solves_on_thread(), solves0 + 1, "only the full solve ran");
        assert_eq!(c.layers().demand.0, 2);
    }

    #[test]
    fn demand_payloads_match_the_exhaustive_summaries() {
        let c = cache();
        let entry = c.load(Some("intro"), SRC).unwrap().0;
        let opts = QueryOpts::default();
        // Demand answers computed *cold* (no full solve cached yet)...
        let (q, s) = pt_query(&entry, "p");
        let (pt, ..) = c.demand(&entry, &opts, &q, &s).unwrap();
        let alias_q = DemandQuery::alias_named(&entry.prog, "p", "s").unwrap();
        let (al, ..) = c.demand(&entry, &opts, &alias_q, "alias/p/s").unwrap();
        let mr_q = DemandQuery::modref_named(&entry.prog, "f").unwrap();
        let (mr, ..) = c.demand(&entry, &opts, &mr_q, "modref/f").unwrap();
        // ...must byte-equal the exhaustive summary's renderings.
        let (full, _) = c.solved(&entry, &opts).unwrap();
        let p = full.var_answer(&entry.prog, "p").unwrap();
        assert_eq!(pt.payload, DemandPayload::PointsTo(p.shown.clone()));
        let s = full.var_answer(&entry.prog, "s").unwrap();
        assert_eq!(al.payload, DemandPayload::Alias(p.aliases(&s)));
        let (mods, refs) = c.modref(&entry, &full).0 .0.get("f").unwrap().clone();
        assert_eq!(mr.payload, DemandPayload::ModRef { mods, refs });
        assert!(mr.ratio() > 0.0 && mr.ratio() <= 1.0);
    }

    #[test]
    fn budgeted_demand_reports_error_and_caches_nothing() {
        let c = cache();
        let entry = c.load(Some("intro"), SRC).unwrap().0;
        let mut opts = QueryOpts {
            max_edges: Some(0),
            ..QueryOpts::default()
        };
        let (q, s) = pt_query(&entry, "p");
        let err = c.demand(&entry, &opts, &q, &s).unwrap_err();
        assert_eq!(err, SolveError::EdgeLimit { limit: 0 });
        assert_eq!(c.layers().demand.0, 0, "failed demand solves are not cached");
        // Retried unbudgeted, the same key solves and caches...
        opts.max_edges = None;
        let (a, ..) = c.demand(&entry, &opts, &q, &s).unwrap();
        assert_eq!(c.layers().demand.0, 1);
        // ...and a hit is then served even under an impossible budget.
        opts.max_edges = Some(0);
        let (hit, _, warm) = c.demand(&entry, &opts, &q, &s).unwrap();
        assert!(warm);
        assert!(Arc::ptr_eq(&a, &hit));
    }

    #[test]
    fn demand_answers_participate_in_the_byte_budget() {
        let metrics = Arc::new(Metrics::new());
        let c = SessionCache::with_max_bytes(Arc::clone(&metrics), 1);
        let entry = c.load(Some("intro"), SRC).unwrap().0;
        let (q, s) = pt_query(&entry, "p");
        let (a, ..) = c.demand(&entry, &QueryOpts::default(), &q, &s).unwrap();
        // A 1-byte budget evicts everything but the newest insert; the
        // Arc the caller holds stays valid either way.
        let (pe, se) = metrics.evictions();
        assert!(pe + se >= 1, "over-budget demand insert must evict ({pe}p/{se}s)");
        assert_eq!(a.payload, DemandPayload::PointsTo(vec!["x".to_string()]));
        assert!(a.approx_bytes() > 0);
    }

    /// Two single-statement functions with disjoint pointer cones: a
    /// demand query for `p` never sees `g`, and vice versa.
    const EDIT_BASE: &str = "int x, y, *p, *q;\n\
        void f(void) { p = &x; }\n\
        void g(void) { q = &y; }";
    /// `EDIT_BASE` with only `g` edited (`q` retargeted to `&x`).
    const EDIT_G: &str = "int x, y, *p, *q;\n\
        void f(void) { p = &x; }\n\
        void g(void) { q = &x; }";

    /// The demand answer for `var` on a fresh cache holding only `src`.
    fn cold_points_to(src: &str, var: &str) -> DemandPayload {
        let c = cache();
        let entry = c.load(None, src).unwrap().0;
        let (q, s) = pt_query(&entry, var);
        c.demand(&entry, &QueryOpts::default(), &q, &s).unwrap().0.payload.clone()
    }

    /// Asks the session `name` (whose source is now `src`) for the demand
    /// answer of each of `vars`: each must equal the cold answer and be
    /// served warm, with no solve.
    fn assert_demand_warm_and_cold_equal(c: &SessionCache, name: &str, src: &str, vars: &[&str]) {
        let entry = c.entry(name).unwrap();
        for var in vars {
            let (q, s) = pt_query(&entry, var);
            let solves0 = solves_on_thread();
            let (a, paid, warm) = c.demand(&entry, &QueryOpts::default(), &q, &s).unwrap();
            assert!(warm, "{var}: answered from the migrated summary");
            assert_eq!(paid, Duration::ZERO, "{var}");
            assert_eq!(solves_on_thread(), solves0, "{var}: no solve");
            assert_eq!(a.payload, cold_points_to(src, var), "{var}");
        }
    }

    #[test]
    fn update_migrates_summaries_and_demand_reads_them() {
        let c = cache();
        let entry = c.load(Some("live"), EDIT_BASE).unwrap().0;
        let opts = QueryOpts::default();
        let (full, _) = c.solved(&entry, &opts).unwrap();
        assert_eq!(full.var_answer(&entry.prog, "q").unwrap().shown, vec!["y".to_string()]);
        // Two demand answers: p's slice avoids g, q's slice is g.
        for var in ["p", "q"] {
            let (q, s) = pt_query(&entry, var);
            c.demand(&entry, &opts, &q, &s).unwrap();
        }

        let report = c.update("live", EDIT_G).unwrap();
        assert_eq!(report.reused_fns, 1, "f was untouched");
        assert_eq!(report.dirty_fns, 1, "g was edited");
        assert!(report.fallback.is_none());
        assert_eq!(report.resolved_summaries, 1);
        assert!(report.reused_constraints > 0);
        assert!(report.region_statements < report.total_statements);

        // The session name resolves to the edited program now...
        let new_entry = c.entry("live").unwrap();
        assert_eq!(new_entry.key, report.entry.key);
        assert_ne!(new_entry.key, entry.key);
        // ...whose full summary was migrated: warm, post-edit correct.
        let (migrated, paid) = c.solved(&new_entry, &opts).unwrap();
        assert_eq!(paid, Duration::ZERO, "the update re-solved the summary");
        assert_eq!(migrated.var_answer(&new_entry.prog, "q").unwrap().shown, vec!["x".to_string()]);
        assert_eq!(migrated.var_answer(&new_entry.prog, "p").unwrap().shown, vec!["x".to_string()]);
        // Both demand subjects read the migrated summary.
        assert_demand_warm_and_cold_equal(&c, "live", EDIT_G, &["p", "q"]);
        // The pre-edit version was released with the commit: its hash
        // answers like an evicted one, and no slot of it is left.
        assert!(c.entry(&entry.hash_hex).is_none());
        assert!(c.solved_if_resident(&entry, &opts).is_none());
        assert!(!c.demand_is_resident(&entry, &opts, "points_to/p"));
        assert!(c.export().names.values().all(|&k| k == new_entry.key));
    }

    #[test]
    fn identity_update_reuses_everything() {
        let c = cache();
        let entry = c.load(Some("live"), EDIT_BASE).unwrap().0;
        let opts = QueryOpts::default();
        c.solved(&entry, &opts).unwrap();
        let (q, s) = pt_query(&entry, "p");
        c.demand(&entry, &opts, &q, &s).unwrap();
        let report = c.update("live", EDIT_BASE).unwrap();
        assert_eq!(report.entry.key, entry.key, "same source, same hash");
        assert_eq!(report.dirty_fns, 0);
        assert_eq!(report.dirty_statements, 0);
        assert_eq!(report.fresh_constraints, 0);
        assert_eq!(report.region_statements, 0);
        assert_eq!(report.retracted_edges, 0);
        assert_demand_warm_and_cold_equal(&c, "live", EDIT_BASE, &["p", "q"]);
    }

    #[test]
    fn update_record_change_falls_back_and_drops_demand() {
        let c = cache();
        let base = "struct R { int *a; } r;\nint x, *p;\n\
            void f(void) { r.a = &x; p = r.a; }";
        let edit = "struct R { int *a; int *b; } r;\nint x, *p;\n\
            void f(void) { r.a = &x; p = r.a; }";
        let entry = c.load(Some("rec"), base).unwrap().0;
        let opts = QueryOpts::default();
        c.solved(&entry, &opts).unwrap();
        let (q, s) = pt_query(&entry, "p");
        c.demand(&entry, &opts, &q, &s).unwrap();
        let report = c.update("rec", edit).unwrap();
        assert!(report.fallback.is_some(), "a record change defeats the diff");
        assert_eq!(report.reused_fns, 0);
        assert_eq!(c.layers().demand.0, 0, "the pre-edit answer left with its version");
        // The migrated summary is still correct — it just re-ran cold.
        let new_entry = c.entry("rec").unwrap();
        let (migrated, paid) = c.solved(&new_entry, &opts).unwrap();
        assert_eq!(paid, Duration::ZERO);
        assert_eq!(migrated.var_answer(&new_entry.prog, "p").unwrap().shown, vec!["x".to_string()]);
        assert_demand_warm_and_cold_equal(&c, "rec", edit, &["p", "r"]);
    }

    #[test]
    fn demand_without_resident_summary_is_sliced_fresh_after_update() {
        let c = cache();
        let entry = c.load(Some("live"), EDIT_BASE).unwrap().0;
        let opts = QueryOpts::default();
        let (q, s) = pt_query(&entry, "p");
        c.demand(&entry, &opts, &q, &s).unwrap();
        let report = c.update("live", EDIT_G).unwrap();
        assert_eq!(report.resolved_summaries, 0);
        // No summary to answer from: both subjects slice and solve again.
        let new_entry = c.entry("live").unwrap();
        for var in ["p", "q"] {
            let (q, s) = pt_query(&new_entry, var);
            let (a, _, warm) = c.demand(&new_entry, &opts, &q, &s).unwrap();
            assert!(!warm, "{var}");
            assert_eq!(a.payload, cold_points_to(EDIT_G, var), "{var}");
        }
    }

    #[test]
    fn update_unknown_program_is_an_error() {
        let c = cache();
        let err = c.update("ghost", SRC).unwrap_err();
        assert!(err.contains("unknown program"), "{err}");
        let l = c.layers();
        assert_eq!((l.programs.0, l.solved.0), (0, 0), "a failed update modifies nothing");
    }

    #[test]
    fn layer_bytes_reconcile_with_the_global_gauge() {
        let c = cache();
        let entry = c.load(Some("intro"), SRC).unwrap().0;
        c.solved(&entry, &QueryOpts::default()).unwrap();
        let (q, s) = pt_query(&entry, "p");
        c.demand(&entry, &QueryOpts::default(), &q, &s).unwrap();
        let l = c.layers();
        let (p, sv, d) = (l.programs.1, l.solved.1, l.demand.1);
        assert!(p > 0 && sv > 0 && d > 0);
        assert_eq!(p + sv + d, c.bytes(), "layer split must sum to the gauge");
    }

    #[test]
    fn eviction_is_globally_lru_across_layers() {
        // Size every slot on an unbounded probe cache first.
        let opts = QueryOpts::default();
        let probe = cache();
        let a = probe.load(Some("a"), SRC).unwrap().0;
        let s_bytes = probe.solved(&a, &opts).unwrap().0.approx_bytes();
        let (q, subject) = pt_query(&a, "p");
        let d_bytes = probe.demand(&a, &opts, &q, &subject).unwrap().0.approx_bytes();
        let b_bytes = probe.load(None, &variant(1)).unwrap().0.approx_bytes();
        // Room for A, its summary, one demand answer and a little more:
        // B fits once exactly the summary is gone.
        let budget = a.approx_bytes() + s_bytes + d_bytes + b_bytes.saturating_sub(s_bytes).max(1);
        let metrics = Arc::new(Metrics::new());
        let c = SessionCache::with_max_bytes(Arc::clone(&metrics), budget);
        let a = c.load(Some("a"), SRC).unwrap().0;
        c.solved(&a, &opts).unwrap();
        assert!(c.demand(&a, &opts, &q, &subject).unwrap().2, "derived from the summary");
        assert_eq!(metrics.evictions(), (0, 0), "A, its summary and one answer fit");
        // Touch A: its summary is now the least-recently-used slot.
        assert!(c.entry("a").is_some());
        c.load(Some("b"), &variant(1)).unwrap();
        assert_eq!(metrics.evictions(), (0, 1), "one non-program slot evicted");
        assert!(c.solved_if_resident(&a, &opts).is_none(), "the oldest slot went");
        assert!(c.entry("a").is_some(), "the just-touched program survives");
        assert!(c.demand_is_resident(&a, &opts, &subject));
        let l = c.layers();
        assert_eq!((l.programs.0, l.solved.0, l.demand.0), (2, 0, 1));
        assert_eq!(l.programs.1 + l.solved.1 + l.demand.1, c.bytes());
    }

    /// The layer split and the gauge agree with the store's total.
    fn assert_reconciled(c: &SessionCache) {
        let l = c.layers();
        assert_eq!(l.programs.1 + l.solved.1 + l.rendered.1 + l.demand.1, l.bytes);
        assert_eq!(l.bytes, c.bytes());
        assert_eq!(c.metrics.get(Counter::CacheBytes), l.bytes as u64);
    }

    #[test]
    fn an_edit_stream_does_not_evict_an_idle_session() {
        use structcast_progen::{edit_trace, generate, GenConfig};
        let metrics = Arc::new(Metrics::new());
        let c = SessionCache::with_max_bytes(Arc::clone(&metrics), 16 << 20);
        let opts = QueryOpts::default();
        let idle = c.load(Some("idle"), &generate(&GenConfig::medium(1))).unwrap().0;
        c.solved(&idle, &opts).unwrap();
        let base = generate(&GenConfig::medium(2));
        let live = c.load(Some("live"), &base).unwrap().0;
        c.solved(&live, &opts).unwrap();
        for step in edit_trace(&base, 3, 40) {
            c.update("live", &step.source).unwrap();
            let entry = c.entry("live").unwrap();
            let (s, paid) = c.solved(&entry, &opts).unwrap();
            assert_eq!(paid, Duration::ZERO, "the update migrated the summary");
            c.points_to_table(&entry, &s).0.answer(&entry.prog, &s.res, "gp0").unwrap();
        }
        assert!(c.entry("idle").is_some(), "the idle program stays resident");
        assert!(c.solved_if_resident(&idle, &opts).is_some(), "and so does its summary");
        assert_eq!(metrics.evictions(), (0, 0), "one live version each fits the cap");
        let l = c.layers();
        assert_eq!((l.programs.0, l.solved.0, l.rendered.0), (2, 2, 1));
        assert_reconciled(&c);
    }

    #[test]
    fn rebinding_a_name_releases_the_old_version_unless_another_name_holds_it() {
        let c = cache();
        let opts = QueryOpts::default();
        // Two names on one source: binding one to new source leaves the
        // other answering from the old version, summary included.
        let a = c.load(Some("a"), SRC).unwrap().0;
        c.load(Some("b"), SRC).unwrap();
        c.solved(&a, &opts).unwrap();
        c.load(Some("a"), &variant(1)).unwrap();
        assert_eq!(c.entry("b").expect("b holds the old version").key, a.key);
        assert!(c.solved_if_resident(&a, &opts).is_some());
        assert!(c.entry(&a.hash_hex).is_some());
        // Rebinding the last name releases the version: program, summary
        // and hash alias.
        c.load(Some("b"), &variant(2)).unwrap();
        assert!(c.entry(&a.hash_hex).is_none());
        assert!(c.solved_if_resident(&a, &opts).is_none());
        assert_eq!(c.layers().programs.0, 2);
        assert_reconciled(&c);
        // An unnamed load holds its version under its hash: binding some
        // other name to the same source and then away never releases it.
        let u = c.load(None, &variant(3)).unwrap().0;
        c.load(Some("c"), &variant(3)).unwrap();
        c.load(Some("c"), &variant(4)).unwrap();
        assert_eq!(c.entry(&u.hash_hex).expect("the unnamed load stays").key, u.key);
        // Updating a session addressed by its hash releases the old hash...
        let report = c.update(&u.hash_hex, &variant(5)).unwrap();
        assert!(c.entry(&u.hash_hex).is_none());
        assert_eq!(c.entry(&report.entry.hash_hex).unwrap().key, report.entry.key);
        assert_eq!(c.layers().programs.0, 4, "a, b, c and the edited unnamed load");
        // ...unless a name holds that version, which keeps its hash too.
        let d = c.load(Some("d"), &variant(6)).unwrap().0;
        c.update(&d.hash_hex, &variant(7)).unwrap();
        assert_eq!(c.entry("d").unwrap().key, d.key);
        assert_eq!(c.entry(&d.hash_hex).unwrap().key, d.key);
        assert_eq!(c.layers().programs.0, 6);
        assert_reconciled(&c);
    }

    #[test]
    fn a_capped_sweep_keeps_the_name_table_to_the_resident_programs() {
        let per_entry = cache().load(None, &variant(0)).unwrap().0.approx_bytes();
        let c = SessionCache::with_max_bytes(Arc::new(Metrics::new()), per_entry * 5);
        for i in 0..50 {
            let entry = c.load(Some(&format!("sweep{i}")), &variant(i)).unwrap().0;
            c.solved(&entry, &QueryOpts::default()).unwrap();
        }
        let (names, programs) = (c.export().names.len(), c.layers().programs.0);
        assert!(programs < 50, "the cap evicted");
        assert!(names <= 2 * programs, "{names} names for {programs} resident programs");
        assert_reconciled(&c);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let metrics = Arc::new(Metrics::new());
        let c = SessionCache::with_max_bytes(Arc::clone(&metrics), 0);
        for i in 0..8 {
            c.load(None, &variant(i)).unwrap();
        }
        assert_eq!(metrics.evictions(), (0, 0));
        assert_eq!(c.layers().programs.0, 8);
    }
}
