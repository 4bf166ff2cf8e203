//! `batch_cold`: source bytes in, reply bytes out, every request a cold
//! miss. One NDJSON connection sends `load` with inline source, then
//! `compare_models`, for seeded medium-preset programs across cast ratios
//! 0 to 1.
//!
//! The programs come from a fixed universe of [`UNIVERSE`] generated
//! programs whose edge counts under all four instances are stored in
//! `fingerprint.txt`. The seed draws the order; operation `i` takes cast
//! class `i % 5`, so every prefix of a run is balanced across the cast
//! ratios. A per-operation comment makes every source distinct, so every
//! load misses the cache while the analysis answer stays the stored one.

use crate::replay::{self, Counts, Lane};
use crate::util::{ms, ratio, Tracer};
use crate::{
    common_layers, ok_reply, repeated_setup, start_server, stop_server, Args, E2e, Traced,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use structcast::{AnalysisConfig, AnalysisSession, FieldRep, Layout, ModelKind, ObjId, Program};
use structcast_interp::{run_source_with_budget, ConcreteId};
use structcast_progen::{generate, GenConfig};
use structcast_server::json::Json;
use structcast_server::proto::Request;
use structcast_server::{Client, QueryOpts, ServerConfig, ServerHandle, SessionCache};
use structcast_types::rng::Rng64;

/// Programs in the fingerprinted universe: 4 per cast ratio, so a run
/// covers the whole universe about twice and its latency distribution
/// stays the same from seed to seed.
pub const UNIVERSE: usize = 20;
const CLASSES: usize = 5;
const UNIVERSE_SEED: u64 = 0xBA7C_0000;
/// The server's cache cap: small enough that a run evicts, so memory
/// plateaus instead of growing with the number of operations.
const CACHE_BYTES: usize = 64 << 20;
/// Interpreter step budget for the soundness check.
const INTERP_BUDGET: u64 = 1_000_000;
/// Programs of a run whose interpreter facts are checked.
const INTERP_PROGRAMS: usize = 3;

fn universe_cfg(u: usize) -> GenConfig {
    GenConfig::medium(UNIVERSE_SEED + u as u64).with_cast_ratio((u % CLASSES) as f64 / 4.0)
}

/// The stored edge counts, per universe program, in `ModelKind::ALL` order.
fn fingerprint() -> Result<Vec<[usize; 4]>, String> {
    let mut out = Vec::new();
    for line in include_str!("../fingerprint.txt").lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let f: Vec<usize> = line
            .split_whitespace()
            .map(|w| w.parse().map_err(|e| format!("fingerprint.txt: {e}")))
            .collect::<Result<_, _>>()?;
        if f.len() != 5 || f[0] != out.len() {
            return Err(format!("fingerprint.txt: malformed line `{line}`"));
        }
        out.push([f[1], f[2], f[3], f[4]]);
    }
    if out.len() != UNIVERSE {
        return Err(format!(
            "fingerprint.txt: {} programs, expected {UNIVERSE}",
            out.len()
        ));
    }
    Ok(out)
}

/// Edge counts of one program under the four instances, by a cold library
/// solve (no server involved).
fn library_edges(src: &str) -> Result<(Program, Vec<structcast::AnalysisResult>), String> {
    let prog = structcast::lower_source(src).map_err(|e| e.to_string())?;
    let session = AnalysisSession::compile(&prog);
    let configs = AnalysisConfig::default().for_all_kinds();
    let results = session.solve_all(&configs, 2);
    Ok((prog, results))
}

/// Prints `fingerprint.txt` for the universe, from cold library solves.
pub fn print_fingerprint() -> Result<(), String> {
    println!(
        "# universe program, then edges under collapse-always, collapse-on-cast, cis, offsets"
    );
    for u in 0..UNIVERSE {
        let (_, results) = library_edges(&generate(&universe_cfg(u)))?;
        let e: Vec<String> = results.iter().map(|r| r.edge_count().to_string()).collect();
        println!("{u} {}", e.join(" "));
    }
    Ok(())
}

/// The seeded operation sequence: universe program for operation `i`.
struct Sequence {
    perms: Vec<Vec<usize>>,
}

impl Sequence {
    fn new(seed: u64) -> Sequence {
        let mut rng = Rng64::seed_from_u64(seed ^ 0xBA7C_C01D);
        let per = UNIVERSE / CLASSES;
        let perms = (0..CLASSES)
            .map(|_| {
                let mut p: Vec<usize> = (0..per).collect();
                for i in (1..per).rev() {
                    p.swap(i, rng.gen_range(0..i + 1));
                }
                p
            })
            .collect();
        Sequence { perms }
    }

    fn program(&self, i: usize) -> usize {
        let class = i % CLASSES;
        let perm = &self.perms[class];
        perm[(i / CLASSES) % perm.len()] * CLASSES + class
    }
}

/// The two request lines of operation `i`.
fn requests(sources: &[String], seq: &Sequence, seed: u64, i: usize) -> (usize, String, String) {
    let u = seq.program(i);
    let name = format!("b{i}");
    let src = format!("{}/* batch_cold seed {seed} op {i} */\n", sources[u]);
    let load = Json::obj([
        ("op", Json::str("load")),
        ("name", Json::str(&name)),
        ("source", Json::str(src)),
    ]);
    let cmp = Json::obj([
        ("op", Json::str("compare_models")),
        ("program", Json::str(&name)),
    ]);
    (u, load.to_string(), cmp.to_string())
}

/// Edge counts from a `compare_models` reply, in `ModelKind::ALL` order.
fn reply_edges(reply: &Json) -> Option<[usize; 4]> {
    let rows = reply.get("models")?.as_arr()?;
    let mut out = [0usize; 4];
    for (k, kind) in ModelKind::ALL.iter().enumerate() {
        let row = rows
            .iter()
            .find(|r| r.get("model").and_then(Json::as_str) == Some(&format!("{kind:?}")))?;
        out[k] = row.get("edges")?.as_u64()? as usize;
    }
    Some(out)
}

struct Setup {
    handle: ServerHandle,
    client: Client,
    sources: Vec<String>,
}

/// Server start, input generation and one warm-up operation.
fn setup(seed: u64) -> Result<Setup, String> {
    let handle = start_server(ServerConfig {
        threads: 2,
        max_cache_bytes: CACHE_BYTES,
        ..ServerConfig::default()
    })?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let sources: Vec<String> = (0..UNIVERSE).map(|u| generate(&universe_cfg(u))).collect();
    let warm = format!("{}/* batch_cold warm-up {seed} */\n", sources[0]);
    let load = Json::obj([
        ("op", Json::str("load")),
        ("name", Json::str("warm")),
        ("source", Json::str(warm)),
    ]);
    let cmp = Json::obj([
        ("op", Json::str("compare_models")),
        ("program", Json::str("warm")),
    ]);
    for line in [load.to_string(), cmp.to_string()] {
        let reply = client
            .request_line(&line)
            .map_err(|e| format!("warm-up: {e}"))?;
        ok_reply(&reply).ok_or_else(|| format!("warm-up failed: {reply}"))?;
    }
    Ok(Setup {
        handle,
        client,
        sources,
    })
}

fn teardown(s: Setup) {
    drop(s.client);
    stop_server(s.handle);
}

/// Runs the timed closed loop for `secs` seconds; returns per-operation
/// latencies and the universe programs processed.
fn timed_loop(s: &mut Setup, seed: u64, secs: f64, fp: &[[usize; 4]], e2e: &mut E2e) -> Vec<usize> {
    let seq = Sequence::new(seed);
    let mut done = Vec::new();
    let mut lines = 0usize;
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < secs {
        let (u, load, cmp) = requests(&s.sources, &seq, seed, i);
        let t0 = Instant::now();
        let r1 = s.client.request_line(&load);
        let r2 = s.client.request_line(&cmp);
        e2e.lat_ms.push(ms(t0.elapsed()));
        e2e.attempted += 1;
        let got = match (r1, r2) {
            (Ok(a), Ok(b)) => ok_reply(&a).and(ok_reply(&b)).and_then(|r| reply_edges(&r)),
            _ => None,
        };
        if got == Some(fp[u]) {
            done.push(u);
            lines += s.sources[u].lines().count();
        } else {
            e2e.failed += 1;
            if e2e.failed <= 3 {
                e2e.notes.push(format!(
                    "op {i} (universe program {u}): got edges {got:?}, fingerprint {:?}",
                    fp[u]
                ));
            }
        }
        i += 1;
    }
    e2e.elapsed_s = start.elapsed().as_secs_f64();
    e2e.named.push((
        "analyze_p50_ms".into(),
        crate::util::median(&e2e.lat_ms),
        "ms",
    ));
    e2e.named.push((
        "analyze_kloc_per_s".into(),
        ratio(lines as f64 / 1000.0, e2e.elapsed_s),
        "kloc/s",
    ));
    done
}

/// Maps a concrete identity to the static object, if it has one.
fn static_obj(prog: &Program, id: &ConcreteId) -> Option<ObjId> {
    match id {
        ConcreteId::Var(name) => prog.object_by_name(name),
        ConcreteId::Heap(span_start) => prog.heap_object_at(*span_start),
        ConcreteId::Func(name) => prog.function_by_name(name).map(|f| f.obj),
        ConcreteId::Str => None,
    }
}

/// Interpreter soundness on a seeded subset of the processed programs:
/// every concrete points-to fact the interpreter observes must be in each
/// instance's answer, and the library's edge counts must equal the ones
/// the server returned (the stored fingerprint). Each program and
/// instance is one check; returns the checks made and the wrong ones.
fn interp_check(
    sources: &[String],
    done: &[usize],
    seed: u64,
    fp: &[[usize; 4]],
    notes: &mut Vec<String>,
) -> (u64, u64) {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x1A7E_4902);
    let mut picked: Vec<usize> = Vec::new();
    for _ in 0..INTERP_PROGRAMS * 4 {
        if done.is_empty() || picked.len() == INTERP_PROGRAMS {
            break;
        }
        let u = done[rng.gen_range(0..done.len())];
        if !picked.contains(&u) {
            picked.push(u);
        }
    }
    let layout = Layout::ilp32();
    let (mut wrong, mut checks, mut checked, mut facts_checked, mut budget_out) =
        (0u64, 0u64, 0usize, 0usize, 0usize);
    for &u in &picked {
        let src = &sources[u];
        let Ok(run) = run_source_with_budget(src, INTERP_BUDGET) else {
            checks += 1;
            wrong += 1;
            notes.push(format!(
                "interpreter could not start on universe program {u}"
            ));
            continue;
        };
        // A run that used up its step budget did not finish: skip it. A
        // run stopped by a runtime error (generated programs recurse past
        // the interpreter's call depth) has only executed real steps, so
        // every fact it saw is a real fact.
        if !run.completed && run.error.is_none() {
            budget_out += 1;
            continue;
        }
        let Ok((prog, results)) = library_edges(src) else {
            checks += 1;
            wrong += 1;
            continue;
        };
        checked += 1;
        for (k, res) in results.iter().enumerate() {
            checks += 1;
            let mut ok = res.edge_count() == fp[u][k];
            if !ok {
                notes.push(format!(
                    "universe program {u}: library {} edges under {:?}, server/fingerprint {}",
                    res.edge_count(),
                    res.kind,
                    fp[u][k]
                ));
            }
            let objs: HashSet<(ObjId, ObjId)> =
                res.facts.iter().map(|(a, b)| (a.obj, b.obj)).collect();
            let offs: HashSet<(ObjId, u64, ObjId, u64)> = res
                .facts
                .iter()
                .filter_map(|(a, b)| match (&a.field, &b.field) {
                    (FieldRep::Off(ao), FieldRep::Off(bo)) => Some((a.obj, *ao, b.obj, *bo)),
                    _ => None,
                })
                .collect();
            for f in &run.facts {
                let (Some(s), Some(t)) = (static_obj(&prog, &f.src.0), static_obj(&prog, &f.tgt.0))
                else {
                    continue;
                };
                facts_checked += 1;
                let mut covered = objs.contains(&(s, t));
                if res.kind == ModelKind::Offsets {
                    let so = layout.canonical_offset(&prog.types, prog.type_of(s), f.src.1);
                    let to = layout.canonical_offset(&prog.types, prog.type_of(t), f.tgt.1);
                    covered &= offs.contains(&(s, so, t, to));
                }
                if !covered && ok {
                    ok = false;
                    notes.push(format!(
                        "universe program {u} under {:?}: concrete fact {:?} -> {:?} not covered",
                        res.kind, f.src, f.tgt
                    ));
                }
            }
            wrong += u64::from(!ok);
        }
    }
    notes.push(format!(
        "interpreter check: {checked} of {} sampled programs checked, {facts_checked} fact checks, {budget_out} ran out of budget",
        picked.len()
    ));
    (checks, wrong)
}

pub fn run(args: &Args) -> Result<E2e, String> {
    let fp = fingerprint()?;
    let mut e2e = E2e::default();
    let (mut s, setup_s) = repeated_setup(|_| setup(args.seed), teardown)?;
    e2e.setup_s = setup_s;
    let done = timed_loop(&mut s, args.seed, args.seconds, &fp, &mut e2e);
    e2e.notes.push(format!(
        "fingerprint check: {} of {} operations matched",
        done.len(),
        e2e.attempted
    ));
    let (checks, wrong) = interp_check(&s.sources, &done, args.seed, &fp, &mut e2e.notes);
    e2e.attempted += checks;
    e2e.failed += wrong;
    teardown(s);
    Ok(e2e)
}

/// One replayed operation: the server's `load` + `compare_models` work.
fn replay_op(
    t: &mut Tracer,
    c: &mut Counts,
    cache: &SessionCache,
    load: &str,
    cmp: &str,
) -> Result<([usize; 4], Vec<Json>), String> {
    t.span("op", |t| {
        let (name, src) = t.span("server.json_parse", |_| {
            let l = Json::parse(load).map_err(|e| e.to_string())?;
            let c = Json::parse(cmp).map_err(|e| e.to_string())?;
            match (Request::from_json(&l)?, Request::from_json(&c)?) {
                (
                    Request::Load {
                        name: Some(n),
                        source: Some(s),
                    },
                    Request::CompareModels { .. },
                ) => Ok((n, s)),
                _ => Err("unexpected request shapes".to_string()),
            }
        })?;
        c.cache_lookups += 1.0;
        if t.span("server.cache", |_| cache.entry(&name)).is_some() {
            c.cache_hits += 1.0;
        }
        let start = Instant::now();
        let (prog, cs) = replay::front_end(t, c, &src)?;
        let entry = Arc::new(replay::program_entry(
            &name,
            &src,
            prog,
            cs,
            start.elapsed(),
        ));
        t.span("server.cache", |_| {
            cache.restore_program(Arc::clone(&entry))
        });
        let opts: Vec<QueryOpts> = ModelKind::ALL
            .iter()
            .map(|&k| QueryOpts::default().with_model(k))
            .collect();
        for o in &opts {
            c.cache_lookups += 1.0;
            if t.span("server.cache", |_| cache.solved_if_resident(&entry, o))
                .is_some()
            {
                c.cache_hits += 1.0;
            }
        }
        let results = replay::solve_all(t, &entry.prog, &entry.constraints, &opts, opts.len());
        let mut edges = [0usize; 4];
        let mut rows = Vec::new();
        for (k, (o, res)) in opts.iter().zip(results).enumerate() {
            replay::count_solve(c, &res);
            edges[k] = res.edge_count();
            let solved = Arc::new(replay::summary(t, &entry, o.clone(), res));
            rows.push((o.model, solved.edges, solved.iterations, solved.avg_deref));
            t.span("server.cache", |_| {
                cache.restore_solved((entry.key, o.cache_key()), solved)
            });
        }
        let replies = t.span("server.json_emit", |_| {
            let loaded = Json::obj([
                ("ok", Json::Bool(true)),
                ("program", Json::str(&entry.name)),
                ("hash", Json::str(&entry.hash_hex)),
                ("objects", Json::count(entry.prog.objects.len() as u64)),
                ("functions", Json::count(entry.prog.functions.len() as u64)),
                ("constraints", Json::count(entry.constraints.len() as u64)),
                ("compile_s", Json::num(entry.compile.as_secs_f64())),
            ]);
            let off = edges[3] as f64;
            let models = rows
                .iter()
                .map(|(kind, e, it, avg)| {
                    Json::obj([
                        ("model", Json::str(format!("{kind:?}"))),
                        ("edges", Json::count(*e as u64)),
                        ("iterations", Json::count(*it)),
                        ("avg_deref_size", Json::num(*avg)),
                        ("edges_vs_offsets", Json::num(*e as f64 / off)),
                    ])
                })
                .collect();
            let compared = Json::obj([
                ("ok", Json::Bool(true)),
                ("program", Json::str(&entry.name)),
                ("models", Json::Arr(models)),
            ]);
            std::hint::black_box((loaded.to_string(), compared.to_string()));
            vec![loaded, compared]
        });
        Ok((edges, replies))
    })
}

pub fn run_traced(args: &Args) -> Result<Traced, String> {
    let fp = fingerprint()?;
    let mut out = Traced::default();
    // End-to-end reference: the untraced socket pass.
    let mut e2e = E2e::default();
    let mut s = setup(args.seed)?;
    timed_loop(&mut s, args.seed, args.seconds * 0.4, &fp, &mut e2e);
    let sources = s.sources.clone();
    teardown(s);
    let e2e_mean = crate::util::mean(&e2e.lat_ms);
    // Traced replay, with the same operations untraced in lockstep.
    let seq = Sequence::new(args.seed);
    let mut lanes = [
        Lane::new(true, replay::new_cache(CACHE_BYTES)),
        Lane::new(false, replay::new_cache(CACHE_BYTES)),
    ];
    let (mut wrong, mut corpus) = (0u64, Vec::new());
    let n = replay::lockstep(args.seconds * 0.3, &mut lanes, |lane, i, traced| {
        let (u, load, cmp) = requests(&sources, &seq, args.seed, i);
        match replay_op(&mut lane.t, &mut lane.c, &lane.state.0, &load, &cmp) {
            Ok((edges, replies)) => {
                wrong += u64::from(edges != fp[u]);
                if traced {
                    corpus.push((vec![load, cmp], replies));
                }
            }
            Err(_) => wrong += 1,
        }
    });
    let [traced, plain] = lanes;
    let layers = &mut out.layers;
    common_layers(layers, &traced.t, &traced.c, n as f64, e2e_mean);
    replay::bjson_layers(layers, &corpus);
    let (cache, metrics) = &traced.state;
    replay::lane_layers(layers, cache, metrics, traced.wall, plain.wall);
    out.attempted = e2e.attempted + 2 * n as u64;
    out.failed = e2e.failed + wrong;
    out.notes = e2e.notes;
    out.notes.push(format!(
        "replayed {n} operations; end-to-end reference {} operations, mean {e2e_mean:.3} ms",
        e2e.lat_ms.len()
    ));
    out.notes.push(format!(
        "spans written to {}",
        replay::write_spans(&traced.t, "batch_cold", args.seed)?
    ));
    Ok(out)
}
