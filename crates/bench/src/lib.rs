//! # structcast-bench
//!
//! Benchmarks for the structcast reproduction. One bench target per paper
//! figure plus the ablations:
//!
//! | target | regenerates |
//! |---|---|
//! | `fig3_program_stats` | Figure 3 (front-end + instrumented portable runs) |
//! | `fig4_deref_sets` | Figure 4 (per-model solve; prints the table once) |
//! | `fig5_times` | Figure 5 (per-program × per-model solve times) |
//! | `fig6_edges` | Figure 6 (edge production throughput; prints counts) |
//! | `ablation_steensgaard` | inclusion vs unification |
//! | `ablation_layout` | Offsets under ilp32/lp64/packed32 |
//! | `scaling_progen` | generated-program size/cast-ratio sweep + `BENCH_solver.json` |
//!
//! Run with `cargo bench --workspace`; the human-readable tables are also
//! available via `scast-experiments all`. Serving, demand and incremental
//! costs are measured end to end by the seeded benchmark in `scbench/`. The timing harness is the small
//! self-contained [`BenchGroup`] below (the workspace builds hermetically,
//! with no registry access, so it cannot pull in an external framework).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};
use structcast::{analyze, AnalysisConfig, AnalysisSession, ModelKind, Program};

/// Lowers a corpus program, panicking with its name on failure (benches
/// want loud, early errors).
pub fn lower_named(name: &str, source: &str) -> Program {
    structcast::lower_source(source).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Runs one instance over a program (the unit of work most benches time).
pub fn solve(prog: &Program, kind: ModelKind) -> usize {
    analyze(prog, &AnalysisConfig::new(kind)).edge_count()
}

/// Stage 1 alone: compiles the session and reports `(session, wall-clock)`
/// so benches can split the one-time constraint compilation from the
/// per-model solve cost.
pub fn compile_session(prog: &Program) -> (AnalysisSession<'_>, Duration) {
    let start = Instant::now();
    let session = AnalysisSession::compile(prog);
    (session, start.elapsed())
}

/// Stages 2+3 alone: specializes + solves one instance against an
/// already-compiled session (the per-model unit of work).
pub fn session_solve(session: &AnalysisSession<'_>, kind: ModelKind) -> usize {
    session.solve(&AnalysisConfig::new(kind)).edge_count()
}

/// The multi-model unit of work: all four default instances solved over
/// one compiled session, fanned out `threads`-wide (`threads == 1` is the
/// plain sequential loop). Returns the summed edge count so the solves
/// cannot be optimized away.
pub fn session_solve_all(session: &AnalysisSession<'_>, threads: usize) -> usize {
    let configs = AnalysisConfig::default().for_all_kinds();
    session
        .solve_all(&configs, threads)
        .iter()
        .map(|r| r.edge_count())
        .sum()
}

/// Summary statistics for one benchmark id.
#[derive(Debug, Clone, Copy)]
pub struct BenchStats {
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample.
    pub min: Duration,
    /// Median sample.
    pub median: Duration,
    /// Arithmetic mean of all samples.
    pub mean: Duration,
}

/// A named group of measurements printed as a compact table, modeled on
/// the criterion group API the benches were originally written against.
pub struct BenchGroup {
    name: String,
    samples: usize,
}

impl BenchGroup {
    /// Starts a group and prints its header.
    pub fn new(name: &str) -> Self {
        println!("\n== bench group: {name} ==");
        println!("{:<44} {:>12} {:>12} {:>12}", "id", "min", "median", "mean");
        BenchGroup {
            name: name.to_string(),
            samples: 10,
        }
    }

    /// Sets the per-id sample count (default 10).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Times `f` `samples` times after one untimed warm-up call, prints a
    /// row, and returns the stats. The closure's result is passed through
    /// [`std::hint::black_box`] so the work is not optimized away.
    pub fn bench<R>(&mut self, id: &str, mut f: impl FnMut() -> R) -> BenchStats {
        std::hint::black_box(f());
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed()
            })
            .collect();
        times.sort();
        let total: Duration = times.iter().sum();
        let stats = BenchStats {
            samples: times.len(),
            min: times[0],
            median: times[times.len() / 2],
            mean: total / times.len() as u32,
        };
        println!(
            "{:<44} {:>12} {:>12} {:>12}",
            format!("{}/{id}", self.name),
            format_duration(stats.min),
            format_duration(stats.median),
            format_duration(stats.mean),
        );
        stats
    }
}

/// Renders a duration with an SI unit chosen by magnitude (`12.3µs`,
/// `4.56ms`, `1.23s`).
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}\u{b5}s", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_work() {
        let p = structcast_progen::corpus_program("bst").unwrap();
        let prog = lower_named(p.name, p.source);
        assert!(solve(&prog, ModelKind::CommonInitialSeq) > 0);
    }

    #[test]
    fn session_helpers_split_compile_from_solve() {
        let p = structcast_progen::corpus_program("bst").unwrap();
        let prog = lower_named(p.name, p.source);
        let (session, compile_wall) = compile_session(&prog);
        assert!(compile_wall > Duration::ZERO);
        // The split must not change the answer.
        assert_eq!(
            session_solve(&session, ModelKind::CommonInitialSeq),
            solve(&prog, ModelKind::CommonInitialSeq)
        );
    }

    #[test]
    fn multi_model_unit_of_work_is_thread_count_invariant() {
        let p = structcast_progen::corpus_program("bst").unwrap();
        let prog = lower_named(p.name, p.source);
        let (session, _) = compile_session(&prog);
        let seq = session_solve_all(&session, 1);
        assert!(seq > 0);
        assert_eq!(seq, session_solve_all(&session, 4));
    }

    #[test]
    fn bench_group_reports_sane_stats() {
        let mut g = BenchGroup::new("selftest");
        let stats = g.sample_size(5).bench("noop", || 1 + 1);
        assert_eq!(stats.samples, 5);
        assert!(stats.min <= stats.median && stats.median <= stats.mean * 2);
    }

    #[test]
    fn durations_format_with_unit_scaling() {
        assert_eq!(format_duration(Duration::from_nanos(12)), "12ns");
        assert!(format_duration(Duration::from_micros(12)).ends_with("\u{b5}s"));
        assert!(format_duration(Duration::from_millis(12)).ends_with("ms"));
        assert!(format_duration(Duration::from_secs(2)).ends_with('s'));
    }
}
