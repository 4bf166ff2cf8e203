//! `live_edit`: the write path. One NDJSON connection loads a seeded
//! medium program into a server with the update journal (WAL) on, then
//! replays `structcast_progen::edit_trace` as `update` operations, each
//! followed by a `points_to` query. One operation is the update plus its
//! query. The front end, incremental diff/compile/re-solve, the summary
//! rebuild and the journal fsync run here; a full-program fixpoint never
//! does.

use crate::replay::{self, Counts, Lane};
use crate::util::{mean, ms, quantile, ratio, TempDir, Tracer};
use crate::{
    common_layers, ok_reply, repeated_setup, start_server, stop_server, Args, E2e, Traced,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use structcast::{resolve_incremental, AnalysisSession, ConstraintSet, Program};
use structcast_progen::{edit_trace, generate, EditStep, GenConfig};
use structcast_server::json::Json;
use structcast_server::proto::Request;
use structcast_server::wal::Wal;
use structcast_server::{Client, FaultPlan, QueryOpts, ServerConfig, ServerHandle, SessionCache};

const PROGRAM: &str = "live";
/// Edit steps generated per batch; more are generated when a run uses them up.
const CHUNK: usize = 100;
/// Every this many steps (and the last step) is checked against a cold
/// library solve.
const CHECK_EVERY: usize = 10;
/// Region share above which an edit counts as wide.
const NARROW_MAX: f64 = 0.2;
/// Cache cap: the server keeps pre-edit versions until evicted, so this
/// bounds memory over a long trace.
const CACHE_BYTES: usize = 128 << 20;

/// The edited program is fixed; the seed draws the edit trace over it.
/// A fixed base keeps the cost of one edit comparable from seed to seed.
fn base_source() -> String {
    generate(&GenConfig::medium(0x11FE_0000))
}

/// The pointer global the query after step `i` asks about.
fn query_var(i: usize) -> String {
    format!("gp{}", (i * 7) % 20)
}

/// Region class of an edit from its re-run region and program size.
fn class_of(region: usize, total: usize) -> &'static str {
    if region == 0 {
        "empty"
    } else if ratio(region as f64, total as f64) <= NARROW_MAX {
        "narrow"
    } else {
        "wide"
    }
}

/// The seeded edit trace, generated in chunks as a run consumes it.
struct Trace {
    seed: u64,
    steps: Vec<EditStep>,
}

impl Trace {
    fn new(seed: u64, base: &str) -> Trace {
        Trace {
            seed,
            steps: edit_trace(base, seed, CHUNK),
        }
    }

    fn step(&mut self, i: usize) -> &EditStep {
        while i >= self.steps.len() {
            let chunk = (self.steps.len() / CHUNK) as u64;
            let last = self
                .steps
                .last()
                .expect("a trace is never empty")
                .source
                .clone();
            self.steps
                .extend(edit_trace(&last, self.seed.wrapping_add(chunk), CHUNK));
        }
        &self.steps[i]
    }
}

fn requests(step: &EditStep, i: usize) -> (String, String) {
    let update = Json::obj([
        ("op", Json::str("update")),
        ("program", Json::str(PROGRAM)),
        ("source", Json::str(&step.source)),
    ]);
    let query = Json::obj([
        ("op", Json::str("points_to")),
        ("program", Json::str(PROGRAM)),
        ("var", Json::str(query_var(i))),
    ]);
    (update.to_string(), query.to_string())
}

/// The points-to answer the server renders, from a cold library solve.
fn library_points_to(src: &str, var: &str) -> Result<Vec<String>, String> {
    let prog = structcast::lower_source(src).map_err(|e| e.to_string())?;
    let res = AnalysisSession::compile(&prog).solve(&QueryOpts::default().to_config());
    let mut shown: Vec<String> = res
        .points_to_named(&prog, var)
        .unwrap_or_default()
        .iter()
        .map(|l| l.display(&prog))
        .collect();
    shown.sort();
    shown.dedup();
    Ok(shown)
}

fn reply_points_to(reply: &Json) -> Option<Vec<String>> {
    reply
        .get("points_to")?
        .as_arr()?
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect()
}

struct Setup {
    handle: ServerHandle,
    client: Client,
    trace: Trace,
    _dir: TempDir,
}

/// Server start with a fresh journal directory, trace generation, the
/// initial load and the first (cold) query.
fn setup(seed: u64, rep: usize) -> Result<Setup, String> {
    let dir = TempDir::new(&format!("live_edit-{rep}"));
    let handle = start_server(ServerConfig {
        threads: 2,
        max_cache_bytes: CACHE_BYTES,
        snapshot_dir: Some(dir.0.clone()),
        wal: true,
        ..ServerConfig::default()
    })?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let base = base_source();
    let trace = Trace::new(seed, &base);
    let load = Json::obj([
        ("op", Json::str("load")),
        ("name", Json::str(PROGRAM)),
        ("source", Json::str(&base)),
    ]);
    let query = Json::obj([
        ("op", Json::str("points_to")),
        ("program", Json::str(PROGRAM)),
        ("var", Json::str("gp0")),
    ]);
    for line in [load.to_string(), query.to_string()] {
        let reply = client
            .request_line(&line)
            .map_err(|e| format!("set-up: {e}"))?;
        ok_reply(&reply).ok_or_else(|| format!("set-up failed: {reply}"))?;
    }
    Ok(Setup {
        handle,
        client,
        trace,
        _dir: dir,
    })
}

fn teardown(s: Setup) {
    drop(s.client);
    stop_server(s.handle);
}

/// Per-class latencies of the timed loop.
#[derive(Default)]
struct Classes {
    lat: BTreeMap<&'static str, Vec<f64>>,
}

/// The timed closed loop. Checks (and trace generation) pause the clock.
fn timed_loop(s: &mut Setup, secs: f64, e2e: &mut E2e) -> Classes {
    let mut classes = Classes::default();
    let (mut measured, mut checks, mut i) = (Duration::ZERO, 0usize, 0usize);
    let mut last: Option<(usize, Vec<String>, bool)> = None;
    while measured.as_secs_f64() < secs {
        let step_src = s.trace.step(i).source.clone();
        let (update, query) = requests(s.trace.step(i), i);
        let t0 = Instant::now();
        let r1 = s.client.request_line(&update);
        let r2 = s.client.request_line(&query);
        let lat = t0.elapsed();
        measured += lat;
        e2e.lat_ms.push(ms(lat));
        e2e.attempted += 1;
        let (u, q) = match (
            r1.ok().and_then(|l| ok_reply(&l)),
            r2.ok().and_then(|l| ok_reply(&l)),
        ) {
            (Some(u), Some(q)) => (u, q),
            _ => {
                e2e.failed += 1;
                i += 1;
                continue;
            }
        };
        let region = u
            .get("region_statements")
            .and_then(Json::as_u64)
            .unwrap_or(0) as usize;
        let total = u
            .get("total_statements")
            .and_then(Json::as_u64)
            .unwrap_or(0) as usize;
        classes
            .lat
            .entry(class_of(region, total))
            .or_default()
            .push(ms(lat));
        let answer = reply_points_to(&q).unwrap_or_default();
        // One failure at most per operation: not durable, or a wrong answer.
        let mut bad = u.get("durable") != Some(&Json::Bool(true));
        if i % CHECK_EVERY == 0 {
            checks += 1;
            bad |= library_points_to(&step_src, &query_var(i)).ok() != Some(answer);
            last = None;
        } else {
            last = Some((i, answer, bad));
        }
        e2e.failed += u64::from(bad);
        i += 1;
    }
    // The last step is always checked.
    if let Some((i, answer, failed)) = last {
        checks += 1;
        let src = s.trace.step(i).source.clone();
        let wrong = library_points_to(&src, &query_var(i)).ok() != Some(answer);
        e2e.failed += u64::from(wrong && !failed);
    }
    e2e.elapsed_s = measured.as_secs_f64();
    e2e.notes.push(format!(
        "cold-solve check: {checks} sampled steps (every {CHECK_EVERY}th and the last) compared"
    ));
    let n = e2e.lat_ms.len() as f64;
    for class in ["empty", "narrow", "wide"] {
        let v = classes.lat.get(class).map_or(&[][..], Vec::as_slice);
        e2e.notes.push(format!(
            "edits {class}: share {:.3}, mean edit_ms {:.3} ({} edits)",
            ratio(v.len() as f64, n),
            mean(v),
            v.len()
        ));
    }
    e2e.named
        .push(("edit_p50_ms".into(), quantile(&e2e.lat_ms, 0.5), "ms"));
    e2e.named
        .push(("edit_p90_ms".into(), quantile(&e2e.lat_ms, 0.9), "ms"));
    classes
}

pub fn run(args: &Args) -> Result<E2e, String> {
    let mut e2e = E2e::default();
    let (mut s, setup_s) = repeated_setup(|rep| setup(args.seed, rep), teardown)?;
    e2e.setup_s = setup_s;
    timed_loop(&mut s, args.seconds, &mut e2e);
    teardown(s);
    Ok(e2e)
}

/// One replay lane's server state: its cache and its own journal.
struct State {
    cache: SessionCache,
    metrics: Arc<structcast_server::Metrics>,
    wal: Wal,
    faults: FaultPlan,
    _dir: TempDir,
}

/// Loads the base program into a fresh lane state, untraced.
fn lane_state(base: &str, tag: &str) -> Result<State, String> {
    let dir = TempDir::new(&format!("live_edit-replay-{tag}"));
    let wal = Wal::open(&dir.0, 0).map_err(|e| format!("wal: {e}"))?;
    let (cache, metrics) = replay::new_cache(CACHE_BYTES);
    replay::warm_program(&cache, PROGRAM, base)?;
    Ok(State {
        cache,
        metrics,
        wal,
        faults: FaultPlan::default(),
        _dir: dir,
    })
}

/// One replayed operation: the server's `update` then `points_to` work.
fn replay_op(
    t: &mut Tracer,
    c: &mut Counts,
    st: &mut State,
    update: &str,
    query: &str,
) -> Result<(Vec<String>, Vec<Json>), String> {
    t.span("op", |t| {
        let (source, var) = t.span("server.json_parse", |_| {
            let u = Json::parse(update).map_err(|e| e.to_string())?;
            let q = Json::parse(query).map_err(|e| e.to_string())?;
            match (Request::from_json(&u)?, Request::from_json(&q)?) {
                (Request::Update { source, .. }, Request::PointsTo { var, .. }) => {
                    Ok((source, var))
                }
                _ => Err("unexpected request shapes".to_string()),
            }
        })?;
        let opts = QueryOpts::default();
        let (old, old_solved) = t.span("server.cache", |_| {
            let old = st.cache.entry(PROGRAM);
            let solved = old
                .as_ref()
                .and_then(|e| st.cache.solved_if_resident(e, &opts));
            (old, solved)
        });
        c.cache_lookups += 2.0;
        c.cache_hits +=
            f64::from(u8::from(old.is_some())) + f64::from(u8::from(old_solved.is_some()));
        let (old, old_solved) = old.zip(old_solved).ok_or("program not resident")?;
        let start = Instant::now();
        c.tokens += structcast_ast::Lexer::new(&source)
            .tokenize()
            .map_or(0, |v| v.len()) as f64;
        let tu = t
            .span("ast.parse", |_| structcast_ast::parse(&source))
            .map_err(|e| e.to_string())?;
        let prog: Program = t
            .span("ir.lower", |_| structcast_ir::lower(&tu))
            .map_err(|e| e.to_string())?;
        c.stmts += prog.stmts.len() as f64;
        let diff = t.span("constraints.diff", |_| {
            structcast::diff_programs(&old.prog, &prog)
        });
        let (cs, reuse): (ConstraintSet, _) = t.span("constraints.compile_incr", |_| {
            structcast::compile_incremental(&old.prog, &old.constraints, &prog, &diff)
        });
        c.constraints += cs.len() as f64;
        c.reused += reuse.reused_constraints as f64;
        c.fresh += reuse.fresh_constraints as f64;
        let inc = t
            .span("core.incr_resolve", |_| {
                resolve_incremental(
                    &old.prog,
                    &old.constraints,
                    &old_solved.res,
                    &prog,
                    &cs,
                    &diff,
                    &opts.to_config(),
                )
            })
            .map_err(|e| e.to_string())?;
        let class = class_of(inc.stats.region_statements, inc.stats.total_statements);
        t.rename_last("core.incr_resolve", &format!("core.incr_resolve.{class}"));
        c.region_ratio_sum += ratio(
            inc.stats.region_statements as f64,
            inc.stats.total_statements as f64,
        );
        c.retracted += inc.stats.retracted_edges as f64;
        replay::count_solve(c, &inc.result);
        let entry = Arc::new(replay::program_entry(
            PROGRAM,
            &source,
            prog,
            cs,
            start.elapsed(),
        ));
        let solved = Arc::new(replay::summary(t, &entry, opts.clone(), inc.result));
        t.span("server.cache", |_| {
            st.cache.restore_program(Arc::clone(&entry));
            st.cache
                .restore_solved((entry.key, opts.cache_key()), solved);
        });
        t.span("server.wal_append", |_| {
            st.wal.append(PROGRAM, &source, &st.faults)
        })
        .map_err(|e| e.to_string())?;
        let answer = t.span("server.cache", |_| {
            let e = st.cache.entry(PROGRAM)?;
            let (s, _) = st.cache.solved(&e, &opts).ok()?;
            Some(s.points_to.get(&var).cloned().unwrap_or_default())
        });
        c.cache_lookups += 2.0;
        let answer = answer.ok_or("edited program not resident")?;
        c.cache_hits += 2.0;
        let replies = t.span("server.json_emit", |_| {
            let u = Json::obj([
                ("ok", Json::Bool(true)),
                ("program", Json::str(&entry.name)),
                ("hash", Json::str(&entry.hash_hex)),
                ("reused_fns", Json::count(diff.reused_fns as u64)),
                ("dirty_fns", Json::count(diff.dirty_fns as u64)),
                (
                    "region_statements",
                    Json::count(inc.stats.region_statements as u64),
                ),
                (
                    "total_statements",
                    Json::count(inc.stats.total_statements as u64),
                ),
                (
                    "retracted_edges",
                    Json::count(inc.stats.retracted_edges as u64),
                ),
                ("durable", Json::Bool(true)),
            ]);
            let q = Json::obj([
                ("ok", Json::Bool(true)),
                ("program", Json::str(PROGRAM)),
                ("var", Json::str(&var)),
                (
                    "points_to",
                    Json::Arr(answer.iter().map(Json::str).collect()),
                ),
            ]);
            std::hint::black_box((u.to_string(), q.to_string()));
            vec![u, q]
        });
        Ok((answer, replies))
    })
}

pub fn run_traced(args: &Args) -> Result<Traced, String> {
    let mut out = Traced::default();
    let mut e2e = E2e::default();
    let mut s = setup(args.seed, 0)?;
    let classes = timed_loop(&mut s, args.seconds * 0.4, &mut e2e);
    teardown(s);
    let e2e_mean = mean(&e2e.lat_ms);
    let n_e2e = e2e.lat_ms.len() as f64;
    for class in ["empty", "narrow", "wide"] {
        let v = classes.lat.get(class).map_or(&[][..], Vec::as_slice);
        out.layers
            .insert(format!("edit_share.{class}"), ratio(v.len() as f64, n_e2e));
        if !v.is_empty() {
            out.layers.insert(format!("edit_ms.{class}"), mean(v));
        }
    }

    let base = base_source();
    let mut trace = Trace::new(args.seed, &base);
    let mut lanes = [
        Lane::new(true, lane_state(&base, "t")?),
        Lane::new(false, lane_state(&base, "p")?),
    ];
    let mut wrong = 0u64;
    let mut answers: Vec<Vec<String>> = Vec::new();
    let mut corpus = Vec::new();
    let n = replay::lockstep(args.seconds * 0.3, &mut lanes, |lane, i, traced| {
        let (update, query) = requests(trace.step(i), i);
        match replay_op(&mut lane.t, &mut lane.c, &mut lane.state, &update, &query) {
            Ok((a, replies)) if traced => {
                answers.push(a);
                corpus.push((vec![update, query], replies));
            }
            Ok(_) => {}
            Err(_) => wrong += 1,
        }
    });
    // The replay's last answer must equal a cold library solve.
    if let Some(a) = answers.last() {
        let src = trace.step(n - 1).source.clone();
        wrong += u64::from(library_points_to(&src, &query_var(n - 1)).ok().as_ref() != Some(a));
    }
    let [traced, plain] = lanes;
    let layers = &mut out.layers;
    common_layers(layers, &traced.t, &traced.c, n as f64, e2e_mean);
    replay::bjson_layers(layers, &corpus);
    let c = &traced.c;
    layers.insert(
        "constraints.reused_ratio".into(),
        ratio(c.reused, c.reused + c.fresh),
    );
    layers.insert(
        "core.region_ratio".into(),
        ratio(c.region_ratio_sum, n as f64),
    );
    layers.insert("core.retracted_edges".into(), ratio(c.retracted, n as f64));
    let st = &traced.state;
    replay::lane_layers(layers, &st.cache, &st.metrics, traced.wall, plain.wall);
    out.attempted = e2e.attempted + 2 * n as u64;
    out.failed = e2e.failed + wrong;
    out.notes = e2e.notes;
    out.notes.push(format!(
        "replayed {n} operations; end-to-end reference {n_e2e} operations, mean {e2e_mean:.3} ms"
    ));
    out.notes.push(format!(
        "spans written to {}",
        replay::write_spans(&traced.t, "live_edit", args.seed)?
    ));
    Ok(out)
}
