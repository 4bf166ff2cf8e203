//! Depth probe: Collapse on Cast and CIS must stay cheap on deeply nested
//! by-value records.
//!
//! The input is a chain `struct S{i} { struct S{i-1} f; int *g; }` of
//! `depth` records, with `v.g = &x; pv = &v; w = v; *pv = w;` over two
//! objects of the outermost type. Every instance finds 6 edges in 7
//! iterations at every depth. Before the portable instances read shape
//! tables, `lookup` re-derived the enclosing candidates of a leaf per call
//! and `resolve` looked every field path up twice, so each doubling of the
//! depth cost about 8× (632 ms for Collapse on Cast at depth 128).
//!
//! Each timed solve runs on a freshly lowered program, so it pays for
//! building the program's shape and layout tables. In a debug build only a
//! generous bound is checked; run with `--release` for the tight one:
//! every solve at depth 128 under 10 ms, and each doubling of the depth at
//! most 2.5× the time of the depth before (plus 50 µs, the timer and
//! allocator noise of a solve this small).

use std::time::{Duration, Instant};
use structcast::{analyze, AnalysisConfig, ModelKind, Program};
use structcast_ir::MAX_TYPE_DEPTH;

const DEPTHS: [usize; 3] = [32, 64, 128];

/// Solves timed per (depth, instance); the fastest counts.
const REPEATS: usize = 7;

/// The probe program with a chain of `depth` records.
fn chain(depth: usize) -> String {
    let mut src = String::from("int x;\nstruct S0 { int *g; };\n");
    for i in 1..depth {
        src += &format!("struct S{i} {{ struct S{} f; int *g; }};\n", i - 1);
    }
    src += &format!(
        "struct S{} v, w, *pv;\nvoid f(void) {{ v.g = &x; pv = &v; w = v; *pv = w; }}\n",
        depth - 1
    );
    src
}

fn lower(depth: usize) -> Program {
    structcast::lower_source(&chain(depth)).expect("the probe lowers")
}

#[test]
fn the_deepest_chain_is_within_the_type_budget() {
    assert_eq!(DEPTHS[DEPTHS.len() - 1], MAX_TYPE_DEPTH as usize);
    assert!(structcast::lower_source(&chain(MAX_TYPE_DEPTH as usize + 1)).is_err());
}

#[test]
fn every_depth_finds_six_edges_in_seven_iterations() {
    for depth in DEPTHS {
        let prog = lower(depth);
        for kind in ModelKind::ALL {
            let res = analyze(&prog, &AnalysisConfig::new(kind));
            assert_eq!(res.edge_count(), 6, "depth {depth} {kind}: edges");
            assert_eq!(res.iterations, 7, "depth {depth} {kind}: iterations");
        }
    }
}

/// The fastest of [`REPEATS`] solves, each on a freshly lowered program.
fn solve_time(depth: usize, kind: ModelKind) -> Duration {
    (0..REPEATS)
        .map(|_| {
            let prog = lower(depth);
            let start = Instant::now();
            std::hint::black_box(analyze(&prog, &AnalysisConfig::new(kind)));
            start.elapsed()
        })
        .min()
        .expect("at least one repeat")
}

#[test]
fn solve_time_grows_at_most_linearly_with_depth() {
    let release = !cfg!(debug_assertions);
    let bound = if release {
        Duration::from_millis(10)
    } else {
        Duration::from_secs(2)
    };
    for kind in ModelKind::ALL {
        let times: Vec<Duration> = DEPTHS.iter().map(|&d| solve_time(d, kind)).collect();
        eprintln!("{kind}: depths {DEPTHS:?} solved in {times:?}");
        let deepest = times[times.len() - 1];
        assert!(
            deepest < bound,
            "{kind}: depth {} took {deepest:?} (bound {bound:?}); all: {times:?}",
            DEPTHS[DEPTHS.len() - 1]
        );
        if release {
            for (i, pair) in times.windows(2).enumerate() {
                let allowed = pair[0].mul_f64(2.5) + Duration::from_micros(50);
                assert!(
                    pair[1] <= allowed,
                    "{kind}: depth {} → {} went {:?} → {:?}; all: {times:?}",
                    DEPTHS[i],
                    DEPTHS[i + 1],
                    pair[0],
                    pair[1]
                );
            }
        }
    }
}
