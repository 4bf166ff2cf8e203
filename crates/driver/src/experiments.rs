//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§5) over the substitute corpus, plus the ablations and
//! scaling sweeps documented in DESIGN.md.
//!
//! Each `run_*` function returns structured rows; rendering lives in
//! [`crate::report`].
//!
//! Runners that collect *metrics* (figures 3, 4, 6, the layout and stride
//! ablations, MOD/REF) take a `threads` knob and solve their per-program
//! model batch through [`AnalysisSession::solve_all`] — the deterministic
//! parallel layer guarantees the rows are identical to a sequential run.
//! Runners whose per-model **wall-clock** feeds a figure (figure 5, the
//! Steensgaard ablation) keep strictly sequential timing loops so the
//! reported times are uncontended.

use std::time::{Duration, Instant};
use structcast::steensgaard::steensgaard;
use structcast::{AnalysisConfig, AnalysisSession, Layout, ModelKind, Program};
use structcast_progen::{casty_corpus, corpus, generate, CorpusProgram, GenConfig};

/// One row of Figure 3: program characteristics and the share of
/// `lookup`/`resolve` calls that involved structures / mismatched types,
/// for the two portable cast-aware instances.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Program name.
    pub name: String,
    /// Whether the program casts structures (paper: second half of table).
    pub casty: bool,
    /// Source line count.
    pub lines: usize,
    /// Normalized assignment statements.
    pub assignments: usize,
    /// Collapse-on-Cast: % lookup calls involving structs.
    pub coc_lookup_struct_pct: f64,
    /// Collapse-on-Cast: % resolve calls involving structs.
    pub coc_resolve_struct_pct: f64,
    /// Collapse-on-Cast: % of struct lookups with a type mismatch.
    pub coc_lookup_mismatch_pct: f64,
    /// Collapse-on-Cast: % of struct resolves with a type mismatch.
    pub coc_resolve_mismatch_pct: f64,
    /// Common-Initial-Sequence: % lookup calls involving structs.
    pub cis_lookup_struct_pct: f64,
    /// Common-Initial-Sequence: % resolve calls involving structs.
    pub cis_resolve_struct_pct: f64,
    /// Common-Initial-Sequence: % of struct lookups with a type mismatch.
    pub cis_lookup_mismatch_pct: f64,
    /// Common-Initial-Sequence: % of struct resolves with a type mismatch.
    pub cis_resolve_mismatch_pct: f64,
}

/// One row of Figures 4/5/6: a per-program metric under all four models,
/// in [`ModelKind::ALL`] order.
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// Program name.
    pub name: String,
    /// Metric per model (CollapseAlways, CollapseOnCast, CIS, Offsets).
    pub values: [f64; 4],
}

impl ModelRow {
    /// Value for a specific model.
    pub fn value(&self, kind: ModelKind) -> f64 {
        let idx = ModelKind::ALL.iter().position(|k| *k == kind).expect("known model");
        self.values[idx]
    }

    /// Values normalized so the Offsets column is 1.0 (Figures 5 and 6).
    pub fn normalized_to_offsets(&self) -> [f64; 4] {
        let base = self.value(ModelKind::Offsets);
        let mut out = self.values;
        if base > 0.0 {
            for v in &mut out {
                *v /= base;
            }
        }
        out
    }
}

fn lower(p: &CorpusProgram) -> Program {
    structcast::lower_source(p.source)
        .unwrap_or_else(|e| panic!("corpus program {} failed to lower: {e}", p.name))
}

fn run_model(session: &AnalysisSession<'_>, kind: ModelKind) -> structcast::AnalysisResult {
    session.solve(&AnalysisConfig::new(kind))
}

/// Solves all four default model configs over one session, `threads`-wide,
/// returning results in [`ModelKind::ALL`] order.
fn run_all_models(
    session: &AnalysisSession<'_>,
    threads: usize,
) -> Vec<structcast::AnalysisResult> {
    let configs = AnalysisConfig::default().for_all_kinds();
    session.solve_all(&configs, threads)
}

/// Figure 3: program stats + struct/cast call ratios for all 20 programs.
pub fn run_fig3(threads: usize) -> Vec<Fig3Row> {
    corpus()
        .iter()
        .map(|p| {
            let prog = lower(p);
            let session = AnalysisSession::compile(&prog);
            let configs = [
                AnalysisConfig::new(ModelKind::CollapseOnCast),
                AnalysisConfig::new(ModelKind::CommonInitialSeq),
            ];
            let mut results = session.solve_all(&configs, threads).into_iter();
            let (coc, cis) = (results.next().unwrap(), results.next().unwrap());
            Fig3Row {
                name: p.name.to_string(),
                casty: p.casty,
                lines: p.line_count(),
                assignments: prog.assignment_count(),
                coc_lookup_struct_pct: coc.stats.lookup_struct_pct(),
                coc_resolve_struct_pct: coc.stats.resolve_struct_pct(),
                coc_lookup_mismatch_pct: coc.stats.lookup_mismatch_pct(),
                coc_resolve_mismatch_pct: coc.stats.resolve_mismatch_pct(),
                cis_lookup_struct_pct: cis.stats.lookup_struct_pct(),
                cis_resolve_struct_pct: cis.stats.resolve_struct_pct(),
                cis_lookup_mismatch_pct: cis.stats.lookup_mismatch_pct(),
                cis_resolve_mismatch_pct: cis.stats.resolve_mismatch_pct(),
            }
        })
        .collect()
}

/// Figure 4: average points-to set size per static dereference, for the 12
/// cast-heavy programs, under all four instances (Collapse-Always expanded
/// per-field for fairness).
pub fn run_fig4(threads: usize) -> Vec<ModelRow> {
    casty_corpus()
        .iter()
        .map(|p| {
            let prog = lower(p);
            let session = AnalysisSession::compile(&prog);
            let results = run_all_models(&session, threads);
            let mut values = [0.0; 4];
            for (v, res) in values.iter_mut().zip(&results) {
                *v = res.average_deref_size(&prog);
            }
            ModelRow {
                name: p.name.to_string(),
                values,
            }
        })
        .collect()
}

/// One Figure 5 cell from its timed solves: the median, in seconds (the
/// mean of the middle two for an even count), so that one stall on a
/// shared host does not move the cell.
fn median_secs(mut times: Vec<Duration>) -> f64 {
    times.sort_unstable();
    let n = times.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => times[n / 2].as_secs_f64(),
        _ => (times[n / 2 - 1] + times[n / 2]).as_secs_f64() / 2.0,
    }
}

/// Figure 5: analysis wall-clock time per program and model. Each cell is
/// the median of `repeats` timed runs (after one warmup).
pub fn run_fig5(repeats: usize) -> Vec<ModelRow> {
    casty_corpus()
        .iter()
        .map(|p| {
            let prog = lower(p);
            let session = AnalysisSession::compile(&prog);
            let values = ModelKind::ALL.map(|kind| {
                let _ = run_model(&session, kind); // warmup
                let times = (0..repeats.max(1)).map(|_| run_model(&session, kind).elapsed);
                median_secs(times.collect())
            });
            ModelRow {
                name: p.name.to_string(),
                values,
            }
        })
        .collect()
}

/// Figure 6: total points-to edges per program and model.
pub fn run_fig6(threads: usize) -> Vec<ModelRow> {
    casty_corpus()
        .iter()
        .map(|p| {
            let prog = lower(p);
            let session = AnalysisSession::compile(&prog);
            let results = run_all_models(&session, threads);
            let mut values = [0.0; 4];
            for (v, res) in values.iter_mut().zip(&results) {
                *v = res.edge_count() as f64;
            }
            ModelRow {
                name: p.name.to_string(),
                values,
            }
        })
        .collect()
}

/// Ablation A: inclusion-based instances vs the Steensgaard-style
/// unification baseline, on the cast-heavy corpus.
#[derive(Debug, Clone)]
pub struct SteensRow {
    /// Program name.
    pub name: String,
    /// Average deref set size, Collapse-Always (inclusion).
    pub collapse_always: f64,
    /// Average deref set size, Common Initial Sequence (inclusion).
    pub cis: f64,
    /// Average deref set size, Steensgaard unification.
    pub steensgaard: f64,
    /// Steensgaard wall-clock seconds.
    pub steens_time: f64,
    /// CIS wall-clock seconds.
    pub cis_time: f64,
}

/// Runs Ablation A over the cast-heavy corpus.
pub fn run_ablation_steensgaard() -> Vec<SteensRow> {
    casty_corpus()
        .iter()
        .map(|p| {
            let prog = lower(p);
            let session = AnalysisSession::compile(&prog);
            let ca = run_model(&session, ModelKind::CollapseAlways);
            let cis = run_model(&session, ModelKind::CommonInitialSeq);
            let st = steensgaard(&prog);
            SteensRow {
                name: p.name.to_string(),
                collapse_always: ca.average_deref_size(&prog),
                cis: cis.average_deref_size(&prog),
                steensgaard: st.average_deref_size(&prog),
                steens_time: st.elapsed.as_secs_f64(),
                cis_time: cis.elapsed.as_secs_f64(),
            }
        })
        .collect()
}

/// Ablation B: the Offsets instance under three layout strategies,
/// demonstrating why its results are not portable.
#[derive(Debug, Clone)]
pub struct LayoutRow {
    /// Program name.
    pub name: String,
    /// Average deref size per layout (ilp32, lp64, packed32).
    pub avg_sizes: [f64; 3],
    /// Edge counts per layout.
    pub edges: [usize; 3],
}

/// Runs Ablation B over the cast-heavy corpus.
pub fn run_ablation_layout(threads: usize) -> Vec<LayoutRow> {
    let layouts = [Layout::ilp32(), Layout::lp64(), Layout::packed32()];
    casty_corpus()
        .iter()
        .map(|p| {
            let prog = lower(p);
            let session = AnalysisSession::compile(&prog);
            let configs: Vec<AnalysisConfig> = layouts
                .iter()
                .map(|l| AnalysisConfig::new(ModelKind::Offsets).with_layout(l.clone()))
                .collect();
            let results = session.solve_all(&configs, threads);
            let mut avg_sizes = [0.0; 3];
            let mut edges = [0usize; 3];
            for (i, res) in results.iter().enumerate() {
                avg_sizes[i] = res.average_deref_size(&prog);
                edges[i] = res.edge_count();
            }
            LayoutRow {
                name: p.name.to_string(),
                avg_sizes,
                edges,
            }
        })
        .collect()
}

/// Ablation C: the Wilson–Lam stride refinement for pointer arithmetic
/// (related work §6) vs the paper's whole-object spread, plus the count of
/// dereference sites the Unknown-flagging mode (§4.2.1) would report.
#[derive(Debug, Clone)]
pub struct StrideRow {
    /// Program name.
    pub name: String,
    /// Average deref size: Offsets, plain spread.
    pub off_plain: f64,
    /// Average deref size: Offsets with stride.
    pub off_stride: f64,
    /// Average deref size: CIS, plain spread.
    pub cis_plain: f64,
    /// Average deref size: CIS with stride.
    pub cis_stride: f64,
    /// Dereference sites flagged by the Unknown mode (CIS instance).
    pub unknown_sites: usize,
}

/// Runs Ablation C over the cast-heavy corpus.
pub fn run_ablation_stride(threads: usize) -> Vec<StrideRow> {
    use structcast::ArithMode;
    casty_corpus()
        .iter()
        .map(|p| {
            let prog = lower(p);
            let session = AnalysisSession::compile(&prog);
            let configs = [
                AnalysisConfig::new(ModelKind::Offsets),
                AnalysisConfig::new(ModelKind::Offsets).with_stride(true),
                AnalysisConfig::new(ModelKind::CommonInitialSeq),
                AnalysisConfig::new(ModelKind::CommonInitialSeq).with_stride(true),
                AnalysisConfig::new(ModelKind::CommonInitialSeq)
                    .with_arith_mode(ArithMode::FlagUnknown),
            ];
            let results = session.solve_all(&configs, threads);
            let avg = |i: usize| results[i].average_deref_size(&prog);
            StrideRow {
                name: p.name.to_string(),
                off_plain: avg(0),
                off_stride: avg(1),
                cis_plain: avg(2),
                cis_stride: avg(3),
                unknown_sites: results[4].unknown_deref_sites(&prog).len(),
            }
        })
        .collect()
}

/// Experiment D: downstream impact — average MOD-set size per function
/// (the side-effect client from `structcast::modref`), under all four
/// instances. Mirrors the paper's motivation that pointer precision drives
/// the precision of subsequent phases.
#[derive(Debug, Clone)]
pub struct ModRefRow {
    /// Program name.
    pub name: String,
    /// Average MOD size per model, in [`ModelKind::ALL`] order.
    pub avg_mod: [f64; 4],
}

/// Runs Experiment D over the cast-heavy corpus (transitive MOD/REF).
pub fn run_modref(threads: usize) -> Vec<ModRefRow> {
    use structcast::modref::mod_ref;
    casty_corpus()
        .iter()
        .map(|p| {
            let prog = lower(p);
            let session = AnalysisSession::compile(&prog);
            let results = run_all_models(&session, threads);
            let mut avg_mod = [0.0; 4];
            for (v, res) in avg_mod.iter_mut().zip(&results) {
                *v = mod_ref(&prog, res, true).average_mod_size(&prog);
            }
            ModRefRow {
                name: p.name.to_string(),
                avg_mod,
            }
        })
        .collect()
}

/// One scaling measurement on a generated program.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Preset label.
    pub preset: String,
    /// Cast ratio used.
    pub cast_ratio: f64,
    /// Source lines.
    pub lines: usize,
    /// Normalized assignments.
    pub assignments: usize,
    /// One-time IR→constraint compilation (stage 1), seconds — paid once
    /// and shared by all four solves below.
    pub compile_s: f64,
    /// Per-model specialize+solve time (seconds), in [`ModelKind::ALL`] order.
    pub times: [f64; 4],
    /// Edge counts per model.
    pub edges: [usize; 4],
    /// Solver iterations (statement evaluations) per model.
    pub iterations: [u64; 4],
    /// Worker threads used for the multi-model parallel measurement.
    pub threads: usize,
    /// Wall-clock seconds to solve all four models sequentially.
    pub seq4_s: f64,
    /// Wall-clock seconds to solve all four models via `solve_all` at
    /// `threads` workers (same compiled constraints).
    pub par4_s: f64,
}

impl ScalingRow {
    /// Multi-model speedup: sequential 4-model wall-clock over parallel.
    pub fn speedup(&self) -> f64 {
        if self.par4_s > 0.0 {
            self.seq4_s / self.par4_s
        } else {
            1.0
        }
    }
}

/// Scaling sweep over generated programs (size × cast ratio).
pub fn run_scaling(include_large: bool, threads: usize) -> Vec<ScalingRow> {
    let mut cases: Vec<(String, GenConfig)> = vec![];
    for ratio in [0.0, 0.3, 0.8] {
        cases.push((
            format!("small/r{ratio}"),
            GenConfig::small(97).with_cast_ratio(ratio),
        ));
        cases.push((
            format!("medium/r{ratio}"),
            GenConfig::medium(97).with_cast_ratio(ratio),
        ));
    }
    if include_large {
        cases.push(("large/r0.3".into(), GenConfig::large(97).with_cast_ratio(0.3)));
    }
    cases
        .into_iter()
        .map(|(label, cfg)| {
            let src = generate(&cfg);
            let prog = structcast::lower_source(&src).expect("generated program lowers");
            let start = Instant::now();
            let session = AnalysisSession::compile(&prog);
            let compile_s = start.elapsed().as_secs_f64();
            let mut times = [0.0; 4];
            let mut edges = [0usize; 4];
            let mut iterations = [0u64; 4];
            for (i, kind) in ModelKind::ALL.iter().enumerate() {
                let res = run_model(&session, *kind);
                times[i] = res.elapsed.as_secs_f64();
                edges[i] = res.edge_count();
                iterations[i] = res.iterations;
            }
            // Multi-model wall-clock: the same four solves back-to-back vs
            // fanned out `threads`-wide over the shared constraint set.
            let configs = AnalysisConfig::default().for_all_kinds();
            let start = Instant::now();
            for cfg in &configs {
                let _ = session.solve(cfg);
            }
            let seq4_s = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let _ = session.solve_all(&configs, threads);
            let par4_s = start.elapsed().as_secs_f64();
            ScalingRow {
                preset: label,
                cast_ratio: cfg.cast_ratio,
                lines: src.lines().count(),
                assignments: prog.assignment_count(),
                compile_s,
                times,
                edges,
                iterations,
                threads,
                seq4_s,
                par4_s,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_stalled_repeat_does_not_move_a_fig5_cell() {
        let us = Duration::from_micros;
        let steady = [100, 104, 98, 101, 99, 103, 102].map(us).to_vec();
        assert_eq!(median_secs(steady.clone()), us(101).as_secs_f64());
        // Whichever repeat stalls 12×, the cell stays between the steady
        // neighbours of the median (a mean would more than double).
        for i in 0..steady.len() {
            let mut stalled = steady.clone();
            stalled[i] = us(1200);
            let cell = median_secs(stalled);
            assert!((us(101).as_secs_f64()..=us(102).as_secs_f64()).contains(&cell), "{i}");
        }
        assert_eq!(median_secs(vec![us(1), us(3)]), us(2).as_secs_f64());
        assert_eq!(median_secs(Vec::new()), 0.0);
    }

    #[test]
    fn fig3_has_twenty_rows_in_paper_order() {
        let rows = run_fig3(2);
        assert_eq!(rows.len(), 20);
        assert!(rows[..8].iter().all(|r| !r.casty));
        assert!(rows[8..].iter().all(|r| r.casty));
        // Cast-heavy programs must show nonzero mismatch percentages
        // somewhere (that is what makes them cast-heavy).
        let any_mismatch = rows[8..].iter().any(|r| {
            r.coc_lookup_mismatch_pct > 0.0 || r.coc_resolve_mismatch_pct > 0.0
        });
        assert!(any_mismatch);
    }

    #[test]
    fn fig4_collapse_always_dominates() {
        let rows = run_fig4(4);
        assert_eq!(rows.len(), 12);
        // In aggregate, Collapse-Always sets are the largest; per program
        // they are never smaller than the CIS sets.
        for r in &rows {
            assert!(
                r.value(ModelKind::CollapseAlways) >= r.value(ModelKind::CommonInitialSeq) - 1e-9,
                "{}: CA {} < CIS {}",
                r.name,
                r.value(ModelKind::CollapseAlways),
                r.value(ModelKind::CommonInitialSeq)
            );
        }
        let ca_sum: f64 = rows.iter().map(|r| r.value(ModelKind::CollapseAlways)).sum();
        let off_sum: f64 = rows.iter().map(|r| r.value(ModelKind::Offsets)).sum();
        assert!(ca_sum > off_sum);
    }

    #[test]
    fn fig6_normalization() {
        let rows = run_fig6(4);
        for r in &rows {
            let norm = r.normalized_to_offsets();
            assert!((norm[3] - 1.0).abs() < 1e-9, "{}: {:?}", r.name, norm);
        }
    }

    #[test]
    fn ablations_produce_rows() {
        let st = run_ablation_steensgaard();
        assert_eq!(st.len(), 12);
        // Unification is never more precise than inclusion at the same
        // (collapsed) granularity, in aggregate.
        let steens_sum: f64 = st.iter().map(|r| r.steensgaard).sum();
        let cis_sum: f64 = st.iter().map(|r| r.cis).sum();
        assert!(steens_sum >= cis_sum);

        let lay = run_ablation_layout(3);
        assert_eq!(lay.len(), 12);
        assert!(lay.iter().all(|r| r.edges.iter().all(|&e| e > 0)));
    }

    #[test]
    fn parallel_runners_match_sequential_runners() {
        // threads=1 takes the sequential path; higher counts must not
        // change a single figure value.
        let seq = run_fig4(1);
        let par = run_fig4(4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.values, b.values, "{}", a.name);
        }
    }

    #[test]
    fn scaling_small_runs() {
        let rows = run_scaling(false, 4);
        assert!(rows.len() >= 6);
        for r in &rows {
            assert!(r.lines > 0 && r.assignments > 0);
            assert!(r.edges.iter().all(|&e| e > 0), "{r:?}");
            assert_eq!(r.threads, 4);
            assert!(r.seq4_s > 0.0 && r.par4_s > 0.0, "{r:?}");
            assert!(r.speedup() > 0.0);
        }
    }
}
