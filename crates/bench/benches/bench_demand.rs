//! Demand-driven vs exhaustive solving: what does a single-pointer query
//! cost when only the slice it can see is solved?
//!
//! For each progen preset (small, medium, and large) the bench compiles
//! one session, measures the exhaustive specialize+solve wall-clock, then
//! measures the *cold* demand path (slice + solve, no caching) for the two
//! query shapes the server actually serves — `points_to` on the named
//! pointers with the smallest nonempty backward slices (the focused
//! queries demand mode exists for) and `alias` on pairs of them — and
//! writes `BENCH_demand.json` at the repo root: one record per (preset,
//! model, query, subject) carrying `slice_statements` /
//! `total_statements` and both wall-clocks, so the demand mode's two
//! claims stay tracked across PRs:
//!
//! * the slice is a strict subset on non-toy programs
//!   (`slice_statements < total_statements` on medium/large), and
//! * a cold single-pointer demand query is cheaper than the exhaustive
//!   fixpoint (`demand_s < exhaustive_s`).
//!
//! Env knobs: `SCAST_BENCH_SMOKE=1` shrinks the run to the small preset
//! with a single sample (the CI smoke path).

use structcast::{AnalysisConfig, ConstraintSlicer, DemandQuery, ModelKind, ObjId};
use structcast_bench::{compile_session, session_solve, BenchGroup};
use structcast_progen::{generate, GenConfig};

/// Pointers queried per (preset, model): enough to see variance between
/// slices, few enough to keep the bench quick.
const QUERIES_PER_CASE: usize = 3;

/// A queried pointer: its object and its name.
type Pointer = (ObjId, String);

struct Record {
    preset: &'static str,
    lines: usize,
    model: String,
    query: &'static str,
    var: String,
    slice_statements: usize,
    total_statements: usize,
    exhaustive_s: f64,
    demand_s: f64,
}

fn main() {
    let smoke = std::env::var_os("SCAST_BENCH_SMOKE").is_some();
    let mut cases = vec![("small", GenConfig::small(97))];
    if !smoke {
        cases.push(("medium", GenConfig::medium(97)));
        cases.push(("large", GenConfig::large(97)));
    }

    let mut records: Vec<Record> = Vec::new();
    let mut g = BenchGroup::new("demand");
    for (label, base) in &cases {
        // Fewer samples on the large preset: its exhaustive baseline
        // dominates the run and the medians are stable well before 10.
        g.sample_size(if smoke {
            1
        } else if *label == "large" {
            3
        } else {
            10
        });
        let cfg = base.clone().with_cast_ratio(0.5);
        let src = generate(&cfg);
        let lines = src.lines().count();
        let prog = structcast::lower_source(&src).expect("generated code lowers");
        let (session, _) = compile_session(&prog);
        let total = session.constraints().len();
        for kind in [ModelKind::CommonInitialSeq, ModelKind::Offsets] {
            let config = AnalysisConfig::new(kind);
            let full = session.solve(&config);
            // The exhaustive baseline every query would otherwise pay.
            let exhaustive =
                g.bench(&format!("{label}/{kind:?}/exhaustive"), || session_solve(&session, kind));
            // Query the named pointers whose backward slices are smallest
            // (ties broken by name, so the pick is deterministic) among
            // those with nonempty sets — nonemptiness keeps the queries
            // honest (an empty slice would flatter the demand numbers),
            // and small slices are demand mode's target workload: a
            // focused query about one pointer. Pointers reached through
            // loads drag in the whole address-taken closure and degrade
            // to the exhaustive solve plus slicing overhead; that worst
            // case is bounded by the exhaustive rows published alongside.
            let slicer = ConstraintSlicer::new(&prog, session.constraints());
            let mut candidates: Vec<(usize, String, ObjId)> = (0..prog.objects.len() as u32)
                .map(ObjId)
                .filter(|&o| {
                    prog.object(o).kind.is_named_variable()
                        && !full.points_to(&prog, o).is_empty()
                })
                .map(|o| {
                    let n = slicer.slice(&[o]).stats.slice_statements;
                    (n, prog.object(o).name.clone(), o)
                })
                .collect();
            candidates.sort();
            let pointers: Vec<Pointer> = candidates
                .into_iter()
                .take(QUERIES_PER_CASE)
                .map(|(_, name, o)| (o, name))
                .collect();
            for (obj, var) in &pointers {
                let obj = *obj;
                let query = DemandQuery::PointsTo { obj };
                let d = session.solve_demand(&query, &config);
                assert_eq!(
                    d.result.points_to(&prog, obj),
                    full.points_to(&prog, obj),
                    "{label}/{kind:?}/{var}: demand must match exhaustive"
                );
                let stats = g.bench(&format!("{label}/{kind:?}/demand:{var}"), || {
                    session.solve_demand(&query, &config).stats.slice_statements
                });
                records.push(Record {
                    preset: label,
                    lines,
                    model: format!("{kind:?}"),
                    query: "points_to",
                    var: var.clone(),
                    slice_statements: d.stats.slice_statements,
                    total_statements: total,
                    exhaustive_s: exhaustive.median.as_secs_f64(),
                    demand_s: stats.median.as_secs_f64(),
                });
            }
            // Alias queries — the other shape the server serves in demand
            // mode — on pairs of the same focused pointers. An alias slice
            // is rooted at both variables, so it measures the cost of a
            // two-root slice against the one-root rows above.
            let mut pairs: Vec<(&Pointer, &Pointer)> = Vec::new();
            for i in 0..pointers.len() {
                for j in i + 1..pointers.len() {
                    pairs.push((&pointers[i], &pointers[j]));
                }
            }
            pairs.truncate(QUERIES_PER_CASE);
            for ((a, an), (b, bn)) in pairs {
                let (a, b) = (*a, *b);
                let query = DemandQuery::Alias { a, b };
                let d = session.solve_demand(&query, &config);
                assert_eq!(
                    d.result.may_alias(&prog, a, b),
                    full.may_alias(&prog, a, b),
                    "{label}/{kind:?}/alias {an}/{bn}: demand must match exhaustive"
                );
                let stats = g.bench(&format!("{label}/{kind:?}/alias:{an}/{bn}"), || {
                    session.solve_demand(&query, &config).stats.slice_statements
                });
                records.push(Record {
                    preset: label,
                    lines,
                    model: format!("{kind:?}"),
                    query: "alias",
                    var: format!("{an}/{bn}"),
                    slice_statements: d.stats.slice_statements,
                    total_statements: total,
                    exhaustive_s: exhaustive.median.as_secs_f64(),
                    demand_s: stats.median.as_secs_f64(),
                });
            }
        }
    }

    let json = render_json(&records);
    let path = repo_root_file("BENCH_demand.json");
    std::fs::write(&path, json).expect("write BENCH_demand.json");
    println!("\nwrote {}", path.display());
}

/// `BENCH_demand.json` lives at the repo root, two levels above this
/// crate's manifest.
fn repo_root_file(name: &str) -> std::path::PathBuf {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .unwrap_or(manifest)
        .join(name)
}

fn render_json(records: &[Record]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"preset\": \"{}\", \"lines\": {}, \"model\": \"{}\", \
             \"query\": \"{}\", \"var\": \"{}\", \"slice_statements\": {}, \
             \"total_statements\": {}, \"slice_ratio\": {:.4}, \
             \"exhaustive_s\": {:.6}, \"demand_s\": {:.6}, \
             \"speedup\": {:.3}}}{}\n",
            r.preset,
            r.lines,
            r.model,
            r.query,
            r.var,
            r.slice_statements,
            r.total_statements,
            r.slice_statements as f64 / r.total_statements.max(1) as f64,
            r.exhaustive_s,
            r.demand_s,
            r.exhaustive_s / r.demand_s.max(1e-9),
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    out
}
