//! `scast-experiments` — regenerate the paper's evaluation tables/figures.
//!
//! ```text
//! scast-experiments fig3|fig4|fig5|fig6|ablation-steens|ablation-layout|ablation-stride|modref|scaling|all
//!                   [--repeats N] [--large] [--threads N]
//! ```
//!
//! `--threads` sets how many workers the multi-model runners fan out over
//! (default 4). Results are identical at any count; only wall-clock
//! changes.

use std::process::ExitCode;
use structcast_driver::{experiments as ex, report};

fn usage() -> ! {
    eprintln!(
        "usage: scast-experiments <fig3|fig4|fig5|fig6|ablation-steens|\
         ablation-layout|ablation-stride|modref|scaling|all> [--repeats N] \
         [--large] [--threads N]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut repeats = 3usize;
    let mut large = false;
    // Multi-model fan-out width.
    let mut threads = 4;
    let mut cmd = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--repeats" => {
                repeats = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--large" => large = true,
            c if cmd.is_none() => cmd = Some(c.to_string()),
            _ => usage(),
        }
    }
    let cmd = cmd.unwrap_or_else(|| usage());

    let fig3 = || println!("{}", report::render_fig3(&ex::run_fig3(threads)));
    let fig4 = || println!("{}", report::render_fig4(&ex::run_fig4(threads)));
    let fig5 = |r: usize| println!("{}", report::render_fig5(&ex::run_fig5(r)));
    let fig6 = || println!("{}", report::render_fig6(&ex::run_fig6(threads)));
    let abl_s = || println!("{}", report::render_steensgaard(&ex::run_ablation_steensgaard()));
    let abl_l = || println!("{}", report::render_layout(&ex::run_ablation_layout(threads)));
    let abl_c = || println!("{}", report::render_stride(&ex::run_ablation_stride(threads)));
    let modref = || println!("{}", report::render_modref(&ex::run_modref(threads)));
    let scaling = |l: bool| println!("{}", report::render_scaling(&ex::run_scaling(l, threads)));

    match cmd.as_str() {
        "fig3" => fig3(),
        "fig4" => fig4(),
        "fig5" => fig5(repeats),
        "fig6" => fig6(),
        "ablation-steens" => abl_s(),
        "ablation-layout" => abl_l(),
        "ablation-stride" => abl_c(),
        "modref" => modref(),
        "scaling" => scaling(large),
        "all" => {
            fig3();
            fig4();
            fig5(repeats);
            fig6();
            abl_s();
            abl_l();
            abl_c();
            modref();
            scaling(large);
        }
        _ => usage(),
    }
    ExitCode::SUCCESS
}
