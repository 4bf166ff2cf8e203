//! `scastd` — a minimal standalone analysis-server binary.
//!
//! The same server `scast serve` runs, parsed by the same
//! [`ServerConfig::from_args`], without the driver crate's CLI: the
//! server crate's own integration tests use it (via
//! `CARGO_BIN_EXE_scastd`) to exercise kill/restart flows against a real
//! process.
//!
//! ```text
//! scastd [--addr HOST:PORT] [--threads N] [--max-cache-mb N]
//!        [--snapshot DIR] [--snapshot-every-s N] [--no-wal] [--brownout N]
//! ```
//!
//! Prints `listening on HOST:PORT` once bound (scripts scrape that line),
//! serves until a `shutdown` request, then prints the final metrics
//! summary line.

use std::io::Write as _;
use structcast_server::{serve, ServerConfig, SERVE_FLAGS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ServerConfig::from_args(&args).unwrap_or_else(|e| {
        eprintln!("scastd: {e}\nusage: scastd {SERVE_FLAGS}");
        std::process::exit(2);
    });
    let handle = serve(&cfg).unwrap_or_else(|e| {
        eprintln!("scastd: cannot bind {}: {e}", cfg.addr);
        std::process::exit(1);
    });
    println!("listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    handle.wait(); // the accept thread prints the final summary line
}
