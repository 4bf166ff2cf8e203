//! Seeded end-to-end and per-layer benchmark for structcast.
//!
//! ```text
//! cargo run --release --manifest-path scbench/Cargo.toml -- \
//!     --workload batch_cold|live_edit|query_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload starts the real query server in this process and drives
//! it over TCP with NDJSON from at most two connections, each a closed
//! loop. `--trace 0` measures the end-to-end metrics. `--trace 1` runs a
//! shorter untraced pass for the end-to-end reference, then replays the
//! same requests through each layer's public functions with a span around
//! every call, and reports the per-layer metrics. The last line of
//! standard output is one JSON object; the lines before it are a report
//! with every metric by name and unit. See `scbench/README.md`.

mod batch_cold;
mod live_edit;
mod query_mix;
mod replay;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;
use structcast_server::json::Json;
use structcast_server::{serve, Client, ServerConfig, ServerHandle};
use util::{host_cpus, median, peak_rss_mb, quantile, ratio, Tracer};

/// The seed used while the benchmark was written, and one kept aside.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7919;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = val == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// What one untraced run measured.
#[derive(Default)]
pub struct E2e {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of each timed operation, request written to reply read.
    pub lat_ms: Vec<f64>,
    /// Wall time of the timed section, output checks excluded.
    pub elapsed_s: f64,
    pub attempted: u64,
    /// Error replies, transport errors and wrong answers.
    pub failed: u64,
    /// Workload-specific named metrics for the report.
    pub named: Vec<(String, f64, &'static str)>,
    /// Free-form report lines (measured input shares, checks made).
    pub notes: Vec<String>,
}

enum Outcome {
    E2e(E2e),
    Traced(Traced),
}

/// What one traced run measured.
#[derive(Default)]
pub struct Traced {
    pub layers: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

/// The per-layer metrics, their units and the end-to-end metric each
/// should move. Every traced run reports every one; a layer the workload
/// never calls reads 0 and is listed as not exercised in the report.
#[rustfmt::skip]
pub const LAYERS: &[(&str, &str, &str)] = &[
    ("ast.parse_ms", "ms", "edit_p50_ms on live_edit"),
    ("ast.tokens", "count", "edit_p50_ms on live_edit"),
    ("ir.lower_ms", "ms", "edit_p50_ms on live_edit"),
    ("ir.stmts", "count", "edit_p50_ms on live_edit"),
    ("constraints.compile_ms", "ms", "analyze_p50_ms on batch_cold"),
    ("constraints.count", "count", "analyze_p50_ms on batch_cold"),
    ("constraints.diff_ms", "ms", "edit_p50_ms on live_edit"),
    ("constraints.compile_incr_ms", "ms", "edit_p50_ms on live_edit"),
    ("constraints.reused_ratio", "ratio", "edit_p50_ms on live_edit"),
    ("constraints.slice_ms", "ms", "query_p99_us on query_mix"),
    ("constraints.slice_ratio", "ratio", "query_p99_us on query_mix"),
    ("core.specialize_ms.ca", "ms", "analyze_kloc_per_s on batch_cold"),
    ("core.specialize_ms.coc", "ms", "analyze_kloc_per_s on batch_cold"),
    ("core.specialize_ms.cis", "ms", "analyze_kloc_per_s on batch_cold"),
    ("core.specialize_ms.off", "ms", "analyze_kloc_per_s on batch_cold"),
    ("core.fixpoint_ms.ca", "ms", "analyze_kloc_per_s on batch_cold"),
    ("core.fixpoint_ms.coc", "ms", "analyze_kloc_per_s on batch_cold"),
    ("core.fixpoint_ms.cis", "ms", "analyze_kloc_per_s on batch_cold"),
    ("core.fixpoint_ms.off", "ms", "analyze_kloc_per_s on batch_cold"),
    ("core.iterations.ca", "count", "analyze_kloc_per_s on batch_cold"),
    ("core.iterations.coc", "count", "analyze_kloc_per_s on batch_cold"),
    ("core.iterations.cis", "count", "analyze_kloc_per_s on batch_cold"),
    ("core.iterations.off", "count", "analyze_kloc_per_s on batch_cold"),
    ("core.edges.ca", "count", "none (precision fingerprint, must not drift)"),
    ("core.edges.coc", "count", "none (precision fingerprint, must not drift)"),
    ("core.edges.cis", "count", "none (precision fingerprint, must not drift)"),
    ("core.edges.off", "count", "none (precision fingerprint, must not drift)"),
    ("core.lookup_calls", "count", "none (Fig 3 work count)"),
    ("core.lookup_mismatch", "count", "none (Fig 3 work count)"),
    ("core.resolve_calls", "count", "none (Fig 3 work count)"),
    ("core.resolve_mismatch", "count", "none (Fig 3 work count)"),
    ("core.incr_resolve_ms.empty", "ms", "edit_p90_ms on live_edit"),
    ("core.incr_resolve_ms.narrow", "ms", "edit_p90_ms on live_edit"),
    ("core.incr_resolve_ms.wide", "ms", "edit_p90_ms on live_edit"),
    ("core.region_ratio", "ratio", "edit_p90_ms on live_edit"),
    ("core.retracted_edges", "count", "edit_p90_ms on live_edit"),
    ("core.demand_solve_ms", "ms", "query_p99_us on query_mix"),
    ("core.modref_ms", "ms", "edit_p50_ms on live_edit, analyze_p50_ms on batch_cold"),
    ("core.points_to_render_ms", "ms", "edit_p50_ms on live_edit, analyze_p50_ms on batch_cold"),
    ("server.json_parse_us", "us", "query_p50_us and queries_per_s on query_mix"),
    ("server.json_emit_us", "us", "query_p50_us and queries_per_s on query_mix"),
    ("server.bjson_encode_us", "us", "none (feeds the BJSON keep-or-remove decision)"),
    ("server.bjson_decode_us", "us", "none (feeds the BJSON keep-or-remove decision)"),
    ("server.cache_load_ms", "ms", "query_p50_us on query_mix"),
    ("server.cache_hit_ratio", "ratio", "query_p50_us on query_mix"),
    ("server.demand_hit_ratio", "ratio", "query_p50_us on query_mix"),
    ("server.cache_bytes", "bytes", "peak_rss_mb on batch_cold"),
    ("server.evictions", "count", "peak_rss_mb on batch_cold"),
    ("server.wal_append_ms", "ms", "edit_p50_ms on live_edit"),
    ("server.unattributed_ms", "ms", "the workload's own p50 latency"),
    ("edit_ms.empty", "ms", "edit_p50_ms on live_edit"),
    ("edit_ms.narrow", "ms", "edit_p50_ms on live_edit"),
    ("edit_ms.wide", "ms", "edit_p90_ms on live_edit"),
    ("edit_share.empty", "ratio", "none (measured input property of live_edit)"),
    ("edit_share.narrow", "ratio", "none (measured input property of live_edit)"),
    ("edit_share.wide", "ratio", "none (measured input property of live_edit)"),
    ("demand_cold_share", "ratio", "none (measured input property of query_mix)"),
    ("bench.trace_overhead_ratio", "ratio", "none (the cost of tracing)"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Runs `setup` [`SETUPS`] times, tearing down all but the last, and
/// returns the last with the wall time of each.
pub fn repeated_setup<S>(
    mut setup: impl FnMut(usize) -> Result<S, String>,
    mut teardown: impl FnMut(S),
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::new();
    for rep in 0..SETUPS {
        let t0 = std::time::Instant::now();
        let s = setup(rep)?;
        times.push(t0.elapsed().as_secs_f64());
        if rep + 1 == SETUPS {
            return Ok((s, times));
        }
        teardown(s);
    }
    unreachable!("the last set-up returns")
}

/// Starts the query server in this process on an ephemeral port.
pub fn start_server(cfg: ServerConfig) -> Result<ServerHandle, String> {
    serve(&cfg).map_err(|e| format!("server start failed: {e}"))
}

/// Stops a server started by [`start_server`] and waits for it. Every
/// other client must be dropped first.
pub fn stop_server(handle: ServerHandle) {
    if let Ok(mut c) = Client::connect(handle.addr()) {
        let _ = c.shutdown_server();
    }
    let _ = handle.wait();
}

/// Whether a reply line is a well-formed `ok: true` object; returns it.
pub fn ok_reply(line: &str) -> Option<Json> {
    let v = Json::parse(line).ok()?;
    (v.get("ok") == Some(&Json::Bool(true))).then_some(v)
}

/// Fills in the layer-wide metrics every traced replay has: per-op self
/// times from the spans, the work counts, the residual against the
/// untraced end-to-end mean, and the codec comparison.
pub fn common_layers(
    out: &mut BTreeMap<String, f64>,
    t: &Tracer,
    c: &replay::Counts,
    ops: f64,
    e2e_mean_ms: f64,
) {
    let st = t.self_times();
    // A metric is set only when its layer was called, so the report can
    // tell "not exercised" from a measured zero.
    let mut put = |name: &str, v: Option<f64>| {
        if let Some(v) = v {
            out.insert(name.to_string(), v);
        }
    };
    let per_op_ms = |span: &str| st.get(span).map(|&(ns, _)| ratio(ns as f64, ops) / 1e6);
    let per_call_ms = |span: &str| {
        st.get(span)
            .map(|&(ns, n)| ratio(ns as f64, n as f64) / 1e6)
    };
    let per_op = |n: f64| (n > 0.0).then(|| ratio(n, ops));
    put("ast.parse_ms", per_op_ms("ast.parse"));
    put("ast.tokens", per_op(c.tokens));
    put("ir.lower_ms", per_op_ms("ir.lower"));
    put("ir.stmts", per_op(c.stmts));
    put("constraints.compile_ms", per_op_ms("constraints.compile"));
    put("constraints.count", per_op(c.constraints));
    put("constraints.diff_ms", per_op_ms("constraints.diff"));
    put(
        "constraints.compile_incr_ms",
        per_op_ms("constraints.compile_incr"),
    );
    put("constraints.slice_ms", per_call_ms("constraints.slice"));
    put(
        "constraints.slice_ratio",
        (c.slices > 0.0).then(|| c.slice_ratio_sum / c.slices),
    );
    for tag in ["ca", "coc", "cis", "off"] {
        let Some(&solves) = c.solves.get(tag) else {
            continue;
        };
        let per_solve = |span: String| st.get(&span).map(|&(ns, _)| ns as f64 / solves / 1e6);
        put(
            &format!("core.specialize_ms.{tag}"),
            per_solve(format!("core.specialize.{tag}")),
        );
        put(
            &format!("core.fixpoint_ms.{tag}"),
            per_solve(format!("core.fixpoint.{tag}")),
        );
        put(
            &format!("core.iterations.{tag}"),
            c.iterations.get(tag).map(|n| n / solves),
        );
        put(
            &format!("core.edges.{tag}"),
            c.edges.get(tag).map(|n| n / solves),
        );
    }
    if !c.solves.is_empty() {
        put("core.lookup_calls", Some(ratio(c.lookup_calls, ops)));
        put("core.lookup_mismatch", Some(ratio(c.lookup_mismatch, ops)));
        put("core.resolve_calls", Some(ratio(c.resolve_calls, ops)));
        put(
            "core.resolve_mismatch",
            Some(ratio(c.resolve_mismatch, ops)),
        );
    }
    for class in ["empty", "narrow", "wide"] {
        put(
            &format!("core.incr_resolve_ms.{class}"),
            per_call_ms(&format!("core.incr_resolve.{class}")),
        );
    }
    // A cold demand answer records its specialize and fixpoint spans under
    // one name; there is one slice per cold answer.
    put(
        "core.demand_solve_ms",
        st.get("core.demand_solve")
            .map(|&(ns, _)| ratio(ns as f64, c.slices) / 1e6),
    );
    put("core.modref_ms", per_op_ms("core.modref"));
    put(
        "core.points_to_render_ms",
        per_op_ms("core.points_to_render"),
    );
    put(
        "server.json_parse_us",
        per_op_ms("server.json_parse").map(|v| v * 1e3),
    );
    put(
        "server.json_emit_us",
        per_op_ms("server.json_emit").map(|v| v * 1e3),
    );
    put("server.cache_load_ms", per_op_ms("server.cache"));
    put(
        "server.cache_hit_ratio",
        (c.cache_lookups > 0.0).then(|| c.cache_hits / c.cache_lookups),
    );
    put(
        "server.demand_hit_ratio",
        (c.demand_lookups > 0.0).then(|| c.demand_hits / c.demand_lookups),
    );
    put("server.wal_append_ms", per_op_ms("server.wal_append"));
    let root_self = st.get("op").map_or(0, |v| v.0) as f64;
    let attributed_ms = ratio(t.root_total_ns() as f64 - root_self, ops) / 1e6;
    put("server.unattributed_ms", Some(e2e_mean_ms - attributed_ms));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Regenerates `fingerprint.txt` from cold library solves.
    if args.workload == "fingerprint" {
        return match batch_cold::print_fingerprint() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("scbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let cpus = host_cpus();
    println!(
        "scbench workload={} seed={} seconds={} trace={} host_cpus={cpus} default_seed={DEFAULT_SEED} held_out_seed={HELD_OUT_SEED}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let result = match (args.workload.as_str(), args.trace) {
        ("batch_cold", false) => batch_cold::run(&args).map(Outcome::E2e),
        ("batch_cold", true) => batch_cold::run_traced(&args).map(Outcome::Traced),
        ("live_edit", false) => live_edit::run(&args).map(Outcome::E2e),
        ("live_edit", true) => live_edit::run_traced(&args).map(Outcome::Traced),
        ("query_mix", false) => query_mix::run(&args).map(Outcome::E2e),
        ("query_mix", true) => query_mix::run_traced(&args).map(Outcome::Traced),
        (other, _) => Err(format!(
            "unknown workload `{other}` (batch_cold, live_edit, query_mix)"
        )),
    };
    let (attempted, failed, metrics) = match result {
        Err(e) => {
            eprintln!("scbench: {e}");
            return ExitCode::from(1);
        }
        Ok(Outcome::E2e(e2e)) => {
            for n in &e2e.notes {
                println!("note: {n}");
            }
            let ops_per_s = ratio(e2e.lat_ms.len() as f64, e2e.elapsed_s);
            let failed_ratio = ratio(e2e.failed as f64, e2e.attempted as f64);
            let mut m: Vec<(String, f64, &str)> = vec![
                ("op_p50_ms".into(), median(&e2e.lat_ms), "ms"),
                ("op_p90_ms".into(), quantile(&e2e.lat_ms, 0.9), "ms"),
                ("ops_per_s".into(), ops_per_s, "1/s"),
                ("setup_s".into(), median(&e2e.setup_s), "s"),
                ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
                ("ok_ratio".into(), 1.0 - failed_ratio, "ratio"),
            ];
            println!("metric samples={} (timed operations)", e2e.lat_ms.len());
            println!("metric failed_ratio={failed_ratio} ratio");
            for (name, v, unit) in &e2e.named {
                println!("metric {name}={v} {unit}");
            }
            for (name, v, unit) in &m {
                println!("metric {name}={v} {unit}");
            }
            let metrics = m
                .drain(..)
                .map(|(name, v, unit)| {
                    (
                        name,
                        Json::obj([("value", Json::num(v)), ("unit", Json::str(unit))]),
                    )
                })
                .collect::<Vec<_>>();
            (e2e.attempted, e2e.failed, metrics)
        }
        Ok(Outcome::Traced(traced)) => {
            for n in &traced.notes {
                println!("note: {n}");
            }
            let mut metrics = Vec::new();
            for (name, unit, moves) in LAYERS {
                let v = traced.layers.get(*name).copied();
                match v {
                    Some(v) => println!("layer {name}={v} {unit} (moves {moves})"),
                    None => println!(
                        "layer {name}=0 {unit} skipped_reason=\"not exercised by {}\" (moves {moves})",
                        args.workload
                    ),
                }
                let v = v.unwrap_or(0.0);
                metrics.push((
                    name.to_string(),
                    Json::obj([
                        ("value", Json::num(if v.is_finite() { v } else { 0.0 })),
                        ("unit", Json::str(*unit)),
                    ]),
                ));
            }
            (traced.attempted, traced.failed, metrics)
        }
    };
    let line = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::count(attempted.max(1))),
        ("failed", Json::count(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{line}");
    ExitCode::SUCCESS
}
