//! Golden test for the precision fingerprint of `BENCH_solver.json`.
//!
//! The `scaling_progen` bench writes one row per (preset, cast ratio,
//! model, threads) with the solve's edge and iteration counts. Precision
//! is deterministic, so those counts must never drift across solver
//! changes; only the timings may move. A JSON file that a bench
//! overwrites is a weak place to pin them, so this test recomputes every
//! row the bench writes for the `small` and `medium` presets (progen seed
//! 97, cast ratios 0, 0.5 and 1) and compares it with
//! `tests/golden/bench_solver.txt`. It also checks that every row of the
//! committed `BENCH_solver.json` agrees with the golden file.
//!
//! Regenerate after an *intentional* change with
//! `UPDATE_GOLDEN=1 cargo test -p structcast --test bench_solver_edges`.

use structcast::{lower_source, AnalysisConfig, AnalysisSession, ModelKind};
use structcast_progen::{generate, GenConfig};

const GOLDEN: &str = include_str!("golden/bench_solver.txt");
const BENCH_JSON: &str = include_str!("../../../BENCH_solver.json");

const HEADER: &str = "# preset cast_ratio model threads edges iterations";

fn row(preset: &str, ratio: &str, model: &str, threads: &str, edges: &str, iters: &str) -> String {
    format!("{preset} {ratio} {model} {threads} {edges} {iters}")
}

/// Every row the bench writes, recomputed the way the bench computes it.
fn current_rows() -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    let mut push = |preset: &str, r: f64, model: &str, threads: usize, edges: usize, iters: u64| {
        let (r, t, e, i) = (
            r.to_string(),
            threads.to_string(),
            edges.to_string(),
            iters.to_string(),
        );
        out.push_str(&row(preset, &r, model, &t, &e, &i));
        out.push('\n');
    };
    for (preset, base) in [
        ("small", GenConfig::small(97)),
        ("medium", GenConfig::medium(97)),
    ] {
        for r in [0.0, 0.5, 1.0] {
            let src = generate(&base.clone().with_cast_ratio(r));
            let prog = lower_source(&src).expect("generated code lowers");
            let session = AnalysisSession::compile(&prog);
            for kind in [ModelKind::CommonInitialSeq, ModelKind::Offsets] {
                let res = session.solve(&AnalysisConfig::new(kind));
                push(
                    preset,
                    r,
                    &format!("{kind:?}"),
                    1,
                    res.edge_count(),
                    res.iterations,
                );
            }
            let configs = AnalysisConfig::default().for_all_kinds();
            for threads in [1, 4] {
                let (edges, iters) = session
                    .solve_all(&configs, threads)
                    .iter()
                    .fold((0, 0), |(e, i), r| (e + r.edge_count(), i + r.iterations));
                push(preset, r, "AllModels", threads, edges, iters);
            }
        }
    }
    out
}

#[test]
fn bench_solver_edges_match_golden_file() {
    let got = current_rows();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!(
            "{}/tests/golden/bench_solver.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    for (g, w) in got.lines().zip(GOLDEN.lines()) {
        assert_eq!(
            g, w,
            "BENCH_solver counts drifted from tests/golden/bench_solver.txt"
        );
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "row count");
}

/// The value of `"key": value` in one JSON row (strings unquoted).
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let start = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + pat.len();
    let rest = &line[start..];
    rest[..rest.find([',', '}']).expect("a JSON row")].trim_matches('"')
}

#[test]
fn committed_bench_rows_agree_with_golden_file() {
    let golden: Vec<&str> = GOLDEN.lines().skip(1).collect();
    let rows: Vec<String> = BENCH_JSON
        .lines()
        .filter(|l| l.contains("\"preset\""))
        .map(|l| {
            let f = |k| field(l, k);
            row(
                f("preset"),
                f("cast_ratio"),
                f("model"),
                f("threads"),
                f("edges"),
                f("iterations"),
            )
        })
        .collect();
    assert!(!rows.is_empty(), "BENCH_solver.json has no rows");
    for r in &rows {
        assert!(
            golden.contains(&r.as_str()),
            "BENCH_solver.json row not in golden: {r}"
        );
    }
}
