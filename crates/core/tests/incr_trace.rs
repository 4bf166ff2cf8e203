//! Golden-file test for the incremental re-solve's bookkeeping: over
//! chained progen edit traces on medium programs, under all four
//! instances, every step's region size, kept and retracted edge counts,
//! iteration count, edge count and a hash of the fact sequence are pinned.
//!
//! `incr_equivalence` proves the incremental *edge set* equals a cold
//! solve's. This file pins more: the order in which kept facts are carried
//! into the seeded store and the `LocId`s they get (both show in the
//! `facts.iter()` hash), and how much work the seeded fixpoint does. An
//! optimization of the diff or of the kept-fact carry-over must leave every
//! row unchanged.
//!
//! Regenerate after an *intentional* change with
//! `UPDATE_GOLDEN=1 cargo test -p structcast --test incr_trace`.

use structcast::{
    compile_incremental, diff_programs, resolve_incremental, solve_compiled, AnalysisConfig,
    AnalysisResult, ConstraintSet, Loc, ModelKind, Program,
};
use structcast_progen::{edit_trace, generate, GenConfig};

const GOLDEN: &str = include_str!("golden/incr_trace.txt");

const HEADER: &str = "# seed model step region_statements kept_edges retracted_edges \
                      iterations edges facts_hash";

/// Medium-program generator seeds; each one's trace uses the same seed.
const SEEDS: [u64; 2] = [0x7ACE_0001, 0x7ACE_0002];
/// Edit steps per trace.
const STEPS: usize = 30;

fn short(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::CollapseAlways => "ca",
        ModelKind::CollapseOnCast => "coc",
        ModelKind::CommonInitialSeq => "cis",
        ModelKind::Offsets => "off",
    }
}

/// FNV-1a over every `(src, tgt)` fact in store order, each location
/// written as its object id and its [`Loc::display`] form: it moves if a
/// fact, its order or its location's object id moves, and not if only the
/// in-memory representation of a location does.
fn facts_hash(prog: &Program, res: &AnalysisResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let show = |l: &Loc| format!("{}:{}", l.obj.0, l.display(prog));
    for (s, t) in res.facts.iter() {
        for b in format!("{}>{};", show(s), show(t)).bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One seed's rows: its medium program's trace under each instance.
fn seed_rows(seed: u64) -> String {
    let mut out = String::new();
    let base = generate(&GenConfig::medium(seed));
    let trace = edit_trace(&base, seed, STEPS);
    for kind in ModelKind::ALL {
        let cfg = AnalysisConfig::new(kind);
        let mut prog = structcast::lower_source(&base).unwrap();
        let mut set = ConstraintSet::compile(&prog);
        let mut res = solve_compiled(&prog, &set, &cfg);
        for (k, step) in trace.iter().enumerate() {
            let new_prog = structcast::lower_source(&step.source).unwrap();
            let diff = diff_programs(&prog, &new_prog);
            let (new_set, _) = compile_incremental(&prog, &set, &new_prog, &diff);
            let inc = resolve_incremental(&prog, &set, &res, &new_prog, &new_set, &diff, &cfg)
                .unwrap_or_else(|e| panic!("seed {seed:#x} step {k} {kind}: {e}"));
            let s = &inc.stats;
            out.push_str(&format!(
                "{seed:#x} {} {k} {} {} {} {} {} {:016x}\n",
                short(kind),
                s.region_statements,
                s.kept_edges,
                s.retracted_edges,
                inc.result.iterations,
                inc.result.edge_count(),
                facts_hash(&new_prog, &inc.result),
            ));
            (prog, set, res) = (new_prog, new_set, inc.result);
        }
    }
    out
}

/// Every seed's rows, in seed order; the seeds run on their own threads.
fn current_rows() -> String {
    let rows: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = SEEDS.map(|seed| s.spawn(move || seed_rows(seed))).into();
        workers
            .into_iter()
            .map(|w| w.join().expect("seed trace"))
            .collect()
    });
    format!("{HEADER}\n{}", rows.concat())
}

#[test]
fn incremental_trace_matches_golden_file() {
    let got = current_rows();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{}/tests/golden/incr_trace.txt", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    for (g, w) in got.lines().zip(GOLDEN.lines()) {
        assert_eq!(
            g, w,
            "incremental trace drifted from tests/golden/incr_trace.txt"
        );
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "row count");
}
