//! The traced replay: the server's work for one request, redone through
//! each layer's public functions so that every call gets its own span.
//!
//! Nothing inside the program is instrumented. The server's private
//! paths (`SessionCache::load`, `Solved::build`, the demand solve) are
//! rebuilt here from the same public calls they make, and the results are
//! handed to a real in-process `SessionCache` through its `restore_*`
//! entry points, so the cache layer's own span covers only its
//! bookkeeping: lookups, inserts and eviction.

use crate::util::Tracer;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use structcast::models::{make_model_with, ModelOptions};
use structcast::{
    modref, AnalysisResult, ConstraintSet, DemandQuery, ModelKind, ObjId, Program, Solver,
};
use structcast_server::cache::{DemandAnswer, DemandPayload};
use structcast_server::json::Json;
use structcast_server::proto::{bjson_decode, bjson_encode};
use structcast_server::{source_hash, Metrics, ProgramEntry, QueryOpts, SessionCache, Solved};

/// The short tag each per-model metric carries.
pub fn model_tag(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::CollapseAlways => "ca",
        ModelKind::CollapseOnCast => "coc",
        ModelKind::CommonInitialSeq => "cis",
        ModelKind::Offsets => "off",
    }
}

/// Counts the replay accumulates beside the spans: work done per layer
/// and the cache's hit/miss outcomes, as the replay's own lookups saw them.
#[derive(Default)]
pub struct Counts {
    pub tokens: f64,
    pub stmts: f64,
    pub constraints: f64,
    pub iterations: BTreeMap<&'static str, f64>,
    pub edges: BTreeMap<&'static str, f64>,
    pub solves: BTreeMap<&'static str, f64>,
    pub lookup_calls: f64,
    pub lookup_mismatch: f64,
    pub resolve_calls: f64,
    pub resolve_mismatch: f64,
    pub cache_lookups: f64,
    pub cache_hits: f64,
    pub demand_lookups: f64,
    pub demand_hits: f64,
    pub slice_ratio_sum: f64,
    pub slices: f64,
    pub reused: f64,
    pub fresh: f64,
    pub region_ratio_sum: f64,
    pub retracted: f64,
}

/// A bounded in-process cache with its own metrics block.
pub fn new_cache(max_bytes: usize) -> (SessionCache, Arc<Metrics>) {
    let metrics = Arc::new(Metrics::new());
    (
        SessionCache::with_max_bytes(Arc::clone(&metrics), max_bytes),
        metrics,
    )
}

/// Stage 0+1: parse, lower and compile one source.
pub fn front_end(
    t: &mut Tracer,
    c: &mut Counts,
    src: &str,
) -> Result<(Program, ConstraintSet), String> {
    c.tokens += structcast_ast::Lexer::new(src)
        .tokenize()
        .map_or(0, |v| v.len()) as f64;
    let tu = t
        .span("ast.parse", |_| structcast_ast::parse(src))
        .map_err(|e| e.to_string())?;
    let prog = t
        .span("ir.lower", |_| structcast_ir::lower(&tu))
        .map_err(|e| e.to_string())?;
    let cs = t.span("constraints.compile", |_| ConstraintSet::compile(&prog));
    c.stmts += prog.stmts.len() as f64;
    c.constraints += cs.len() as f64;
    Ok((prog, cs))
}

/// The cache entry the server would build for `src` after its front end.
pub fn program_entry(
    name: &str,
    src: &str,
    prog: Program,
    constraints: ConstraintSet,
    compile: Duration,
) -> ProgramEntry {
    let key = source_hash(src);
    ProgramEntry {
        key,
        hash_hex: format!("{key:016x}"),
        name: name.to_string(),
        source: src.to_string(),
        prog,
        constraints,
        compile,
    }
}

fn model_options(opts: &QueryOpts) -> ModelOptions {
    ModelOptions {
        layout: opts.layout.clone(),
        compat: opts.compat,
        arith_stride: opts.stride,
    }
}

/// Stages 2+3 for one instance over `cs` (the whole program or a slice):
/// specialize, then run to fixpoint, in spans named `specialize` and
/// `fixpoint`.
pub fn solve(
    t: &mut Tracer,
    prog: &Program,
    cs: &ConstraintSet,
    opts: &QueryOpts,
    specialize: &str,
    fixpoint: &str,
) -> AnalysisResult {
    let mo = model_options(opts);
    let cfg = opts.to_config();
    let start = Instant::now();
    let solver = t.span(specialize, |_| {
        Solver::from_constraints(prog, cs, make_model_with(opts.model, &mo))
            .with_arith_mode(cfg.arith_mode)
    });
    let out = t.span(fixpoint, |_| solver.run());
    AnalysisResult::from_saved(
        opts.model,
        &mo,
        out.facts,
        out.stats,
        out.iterations,
        out.resolved_indirect_calls,
        start.elapsed(),
        out.unknown,
        out.call_edges,
    )
}

/// Adds one finished solve's work counts (Fig 3 calls, iterations, edges).
pub fn count_solve(c: &mut Counts, res: &AnalysisResult) {
    let tag = model_tag(res.kind);
    *c.iterations.entry(tag).or_default() += res.iterations as f64;
    *c.edges.entry(tag).or_default() += res.edge_count() as f64;
    *c.solves.entry(tag).or_default() += 1.0;
    c.lookup_calls += res.stats.lookup_calls as f64;
    c.lookup_mismatch += res.stats.lookup_mismatch as f64;
    c.resolve_calls += res.stats.resolve_calls as f64;
    c.resolve_mismatch += res.stats.resolve_mismatch as f64;
}

/// The summary the server caches per solved instance: rendered points-to
/// sets, then the eager MOD/REF sets.
pub fn summary(
    t: &mut Tracer,
    entry: &ProgramEntry,
    opts: QueryOpts,
    res: AnalysisResult,
) -> Solved {
    let prog = &entry.prog;
    let (vars, points_to, pt_locs, avg_deref, deref_sites) =
        t.span("core.points_to_render", |_| {
            let mut vars = BTreeSet::new();
            let mut points_to = BTreeMap::new();
            let mut pt_locs = BTreeMap::new();
            for obj in &prog.objects {
                if !obj.kind.is_named_variable() {
                    continue;
                }
                vars.insert(obj.name.clone());
                let locs = match res.points_to_named(prog, &obj.name) {
                    Some(l) if !l.is_empty() => l,
                    _ => continue,
                };
                let mut shown: Vec<String> = locs.iter().map(|l| l.display(prog)).collect();
                shown.sort();
                shown.dedup();
                points_to.insert(obj.name.clone(), shown);
                pt_locs.insert(obj.name.clone(), locs.into_iter().collect::<BTreeSet<_>>());
            }
            (
                vars,
                points_to,
                pt_locs,
                res.average_deref_size(prog),
                prog.deref_sites().len(),
            )
        });
    let modref = t.span("core.modref", |_| {
        let mr = modref::mod_ref(prog, &res, true);
        let mut out = BTreeMap::new();
        for f in prog.functions.iter().filter(|f| f.defined) {
            let sets = mr.of(f.id);
            let names = |set: &BTreeSet<ObjId>| {
                set.iter()
                    .map(|o| prog.object(*o).name.clone())
                    .collect::<Vec<_>>()
            };
            out.insert(f.name.clone(), (names(&sets.mods), names(&sets.refs)));
        }
        out
    });
    Solved {
        kind: res.kind,
        edges: res.edge_count(),
        iterations: res.iterations,
        solve: res.elapsed,
        vars,
        points_to,
        pt_locs,
        modref,
        avg_deref,
        deref_sites,
        opts,
        res,
    }
}

/// A demand query answered cold: slice, solve the slice, render.
pub fn demand_cold(
    t: &mut Tracer,
    c: &mut Counts,
    entry: &ProgramEntry,
    opts: &QueryOpts,
    query: &DemandQuery,
    subject: &str,
) -> DemandAnswer {
    let prog = &entry.prog;
    let slice = t.span("constraints.slice", |_| {
        structcast::slice_for_query(prog, &entry.constraints, query)
    });
    let start = Instant::now();
    let mut res = solve(
        t,
        prog,
        &slice.set,
        opts,
        "core.demand_solve",
        "core.demand_solve",
    );
    res.call_edges
        .iter_mut()
        .for_each(|(sid, _)| sid.0 = slice.stmt_map[sid.0 as usize]);
    res.call_edges.sort_unstable();
    let paid = start.elapsed();
    let payload = match *query {
        DemandQuery::PointsTo { obj } => t.span("core.points_to_render", |_| {
            let mut shown: Vec<String> = res
                .points_to(prog, obj)
                .iter()
                .map(|l| l.display(prog))
                .collect();
            shown.sort();
            shown.dedup();
            DemandPayload::PointsTo(shown)
        }),
        DemandQuery::Alias { a, b } => t.span("core.points_to_render", |_| {
            DemandPayload::Alias(res.may_alias(prog, a, b))
        }),
        DemandQuery::ModRef { func } => t.span("core.modref", |_| {
            let sets = modref::mod_ref(prog, &res, true).of(func);
            let names = |set: &BTreeSet<ObjId>| {
                set.iter()
                    .map(|o| prog.object(*o).name.clone())
                    .collect::<Vec<_>>()
            };
            DemandPayload::ModRef {
                mods: names(&sets.mods),
                refs: names(&sets.refs),
            }
        }),
    };
    c.slice_ratio_sum += slice.stats.ratio();
    c.slices += 1.0;
    DemandAnswer {
        payload,
        slice_statements: slice.stats.slice_statements,
        total_statements: slice.stats.total_statements,
        solve: paid,
        subject: subject.to_string(),
        opts: opts.clone(),
    }
}

/// Solves several instances over one constraint set on `threads` worker
/// threads, as the server's `compare_models` does; each worker records
/// its spans on a forked tracer.
pub fn solve_all(
    t: &mut Tracer,
    prog: &Program,
    cs: &ConstraintSet,
    opts: &[QueryOpts],
    threads: usize,
) -> Vec<AnalysisResult> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<AnalysisResult>>> = opts.iter().map(|_| Mutex::new(None)).collect();
    let forks: Vec<Tracer> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.clamp(1, opts.len().max(1)))
            .map(|_| {
                let mut ft = t.fork();
                let (next, slots) = (&next, &slots);
                s.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(o) = opts.get(i) else { break };
                        let tag = model_tag(o.model);
                        let res = solve(
                            &mut ft,
                            prog,
                            cs,
                            o,
                            &format!("core.specialize.{tag}"),
                            &format!("core.fixpoint.{tag}"),
                        );
                        *slots[i].lock().expect("no solver thread panicked") = Some(res);
                    }
                    ft
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("solver thread panicked"))
            .collect()
    });
    for f in forks {
        t.absorb(f);
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no solver thread panicked")
                .expect("every slot solved")
        })
        .collect()
}

/// The codec comparison: per captured operation, the time to decode its
/// requests and encode its replies in the binary codec (BJSON), against
/// the NDJSON spans of the same requests and replies in the replay.
pub fn bjson_layers(out: &mut BTreeMap<String, f64>, corpus: &[(Vec<String>, Vec<Json>)]) {
    if corpus.is_empty() {
        return;
    }
    let (mut enc, mut dec) = (Duration::ZERO, Duration::ZERO);
    for (reqs, replies) in corpus {
        let frames: Vec<Vec<u8>> = reqs
            .iter()
            .filter_map(|l| Json::parse(l).ok())
            .map(|v| bjson_encode(&v))
            .collect();
        let start = Instant::now();
        for f in &frames {
            std::hint::black_box(bjson_decode(std::hint::black_box(f)).ok());
        }
        dec += start.elapsed();
        let start = Instant::now();
        for r in replies {
            std::hint::black_box(bjson_encode(std::hint::black_box(r)));
        }
        enc += start.elapsed();
    }
    let n = corpus.len() as f64;
    out.insert("server.bjson_encode_us".into(), enc.as_secs_f64() * 1e6 / n);
    out.insert("server.bjson_decode_us".into(), dec.as_secs_f64() * 1e6 / n);
}

/// One side of the traced/untraced comparison: its tracer, counts, the
/// wall time its operations took, and its own copy of the server state.
pub struct Lane<S> {
    pub t: Tracer,
    pub c: Counts,
    pub wall: Duration,
    pub state: S,
}

impl<S> Lane<S> {
    pub fn new(traced: bool, state: S) -> Lane<S> {
        Lane {
            t: Tracer::new(traced),
            c: Counts::default(),
            wall: Duration::ZERO,
            state,
        }
    }
}

/// Replays operations on a traced lane (`lanes[0]`) and an untraced one
/// (`lanes[1]`) in lockstep, alternating which runs first, until the
/// traced lane has spent `secs`. Returns the number of operations.
pub fn lockstep<S>(
    secs: f64,
    lanes: &mut [Lane<S>; 2],
    mut op: impl FnMut(&mut Lane<S>, usize, bool),
) -> usize {
    let mut i = 0;
    while lanes[0].wall.as_secs_f64() < secs {
        for k in if i % 2 == 0 { [0, 1] } else { [1, 0] } {
            let lane = &mut lanes[k];
            lane.t.set_op(i as u64);
            let start = Instant::now();
            op(lane, i, k == 0);
            lane.wall += start.elapsed();
        }
        i += 1;
    }
    i
}

/// Writes the traced lane's spans to `.bench_out/` and returns the path.
pub fn write_spans(t: &Tracer, workload: &str, seed: u64) -> Result<String, String> {
    let path =
        std::path::Path::new(".bench_out").join(format!("trace-{workload}-seed{seed}.jsonl"));
    t.write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Loads `src` under `name` into `cache` with its default-instance
/// summary, untraced: what a server's set-up `load` and first query leave
/// behind.
pub fn warm_program(cache: &SessionCache, name: &str, src: &str) -> Result<(), String> {
    let mut t = Tracer::new(false);
    let (prog, cs) = front_end(&mut t, &mut Counts::default(), src)?;
    let entry = Arc::new(program_entry(name, src, prog, cs, Duration::ZERO));
    cache.restore_program(Arc::clone(&entry));
    let opts = QueryOpts::default();
    let res = solve(&mut t, &entry.prog, &entry.constraints, &opts, "", "");
    let solved = summary(&mut t, &entry, opts.clone(), res);
    cache.restore_solved((entry.key, opts.cache_key()), Arc::new(solved));
    Ok(())
}

/// The metrics every traced run takes from its lanes: the traced lane's
/// cache size and evictions at the end, and the tracing overhead as the
/// traced lane's wall time over the untraced lane's, minus 1.
pub fn lane_layers(
    out: &mut BTreeMap<String, f64>,
    cache: &SessionCache,
    metrics: &Metrics,
    traced: Duration,
    plain: Duration,
) {
    let (programs, solved) = metrics.evictions();
    out.insert("server.cache_bytes".into(), cache.bytes() as f64);
    out.insert("server.evictions".into(), (programs + solved) as f64);
    out.insert(
        "bench.trace_overhead_ratio".into(),
        traced.as_secs_f64() / plain.as_secs_f64().max(f64::MIN_POSITIVE) - 1.0,
    );
}
