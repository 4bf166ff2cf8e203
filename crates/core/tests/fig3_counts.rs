//! Golden-file test for the Figure 3 instrumentation and the solver's work
//! measure: for every program of the 20-program corpus under all four
//! instances, all seven [`ModelStats`] fields, the iteration count and the
//! edge count are pinned.
//!
//! The edge-set suites prove *what* the solver derives; this file pins how
//! many `lookup`/`resolve` calls it classifies and how many statement
//! firings it makes, so a solver change that memoizes, reorders or skips
//! work cannot silently move the paper's Figure 3 percentages.
//!
//! Regenerate after an *intentional* change with
//! `UPDATE_GOLDEN=1 cargo test -p structcast --test fig3_counts`.

use structcast::{analyze, lower_source, AnalysisConfig, ModelKind, ModelStats};
use structcast_progen::corpus;

const GOLDEN: &str = include_str!("golden/fig3_counts.txt");

const HEADER: &str = "# program model lookup_calls lookup_struct lookup_mismatch \
                      resolve_calls resolve_struct resolve_mismatch out_of_bounds \
                      iterations edges";

fn short(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::CollapseAlways => "ca",
        ModelKind::CollapseOnCast => "coc",
        ModelKind::CommonInitialSeq => "cis",
        ModelKind::Offsets => "off",
    }
}

fn row(name: &str, kind: ModelKind, s: &ModelStats, iterations: u64, edges: usize) -> String {
    format!(
        "{name} {} {} {} {} {} {} {} {} {iterations} {edges}",
        short(kind),
        s.lookup_calls,
        s.lookup_struct,
        s.lookup_mismatch,
        s.resolve_calls,
        s.resolve_struct,
        s.resolve_mismatch,
        s.out_of_bounds,
    )
}

fn current_counts() -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    for p in corpus() {
        let prog = lower_source(p.source).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        for kind in ModelKind::ALL {
            let r = analyze(&prog, &AnalysisConfig::new(kind));
            out.push_str(&row(p.name, kind, &r.stats, r.iterations, r.edge_count()));
            out.push('\n');
        }
    }
    out
}

#[test]
fn fig3_counts_match_golden_file() {
    let got = current_counts();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!(
            "{}/tests/golden/fig3_counts.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    for (g, w) in got.lines().zip(GOLDEN.lines()) {
        assert_eq!(
            g, w,
            "Figure 3 counts drifted from tests/golden/fig3_counts.txt"
        );
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "row count");
}

#[test]
fn golden_covers_corpus_times_models() {
    let mut lines = GOLDEN.lines();
    assert_eq!(lines.next(), Some(HEADER));
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), corpus().len() * ModelKind::ALL.len());
    for r in rows {
        assert_eq!(r.split_whitespace().count(), 11, "malformed row {r:?}");
    }
}
