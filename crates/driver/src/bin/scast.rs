//! `scast` — analyze a C file and print points-to information.
//!
//! ```text
//! scast <file.c> [--model collapse|cast|cis|offsets] [--layout ilp32|lp64|packed32]
//!       [--var NAME]... [--demand NAME]... [--deadline-ms N] [--max-edges N]
//!       [--deref-stats] [--dump-ir] [--dump-constraints] [--steensgaard] [--json]
//! scast --corpus            # list the embedded benchmark corpus
//! scast serve [--addr HOST:PORT] [--threads N] [--max-cache-mb N]
//!             [--snapshot DIR] [--snapshot-every-s N] [--no-wal] [--brownout N]
//! scast query --addr HOST:PORT [--timeout-ms N]
//!             [--max-retries N] [--backoff-seed N] <request-json>... | -
//! scast update --addr HOST:PORT --program NAME [--max-retries N] <file.c> | -
//! ```
//!
//! `--demand NAME` answers the named pointer's points-to query in demand
//! mode: the constraint graph is sliced to what the query can see and only
//! the slice is solved — same answer as the exhaustive fixpoint, printed
//! with the slice/total statement counts.
//!
//! `scast update` pushes an edited source file to a running server as a
//! live-editing delta against the cached session `--program`: the server
//! diffs it function-by-function against the loaded text, reuses every
//! unchanged constraint, and re-solves only what the edit can reach.
//!
//! `scast serve --snapshot DIR` persists the session cache to `DIR` on
//! shutdown (and on `{"op":"snapshot"}` requests), and restarts warm
//! from it: previously-answered queries come back with zero compile or
//! solve misses. The serve flags are parsed by the server crate's
//! `ServerConfig::from_args`, which `scastd` shares.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;
use structcast::steensgaard::steensgaard;
use structcast::{
    try_analyze, AnalysisConfig, AnalysisResult, Budget, Layout, ModelKind, Program,
};
use structcast_server::json::Json;
use structcast_server::{serve, Client, RetryOpts, ServerConfig, SERVE_FLAGS};

fn usage() -> ! {
    eprintln!(
        "usage: scast <file.c> [--model collapse|cast|cis|offsets] \
         [--layout ilp32|lp64|packed32] [--var NAME]... [--demand NAME]... \
         [--deadline-ms N] [--max-edges N] \
         [--deref-stats] [--dump-ir] [--dump-constraints] [--steensgaard] \
         [--stride] [--flag-unknown] [--dot] [--modref] [--json]\
         \n       scast --corpus\
         \n       scast serve {SERVE_FLAGS}\
         \n       scast query --addr HOST:PORT [--timeout-ms N] \
         [--max-retries N] [--backoff-seed N] <request-json>... | -\
         \n       scast update --addr HOST:PORT --program NAME [--timeout-ms N] \
         [--max-retries N] [--backoff-seed N] <file.c> | -"
    );
    std::process::exit(2);
}

fn parse_model(s: &str) -> ModelKind {
    match s {
        "collapse" | "collapse-always" => ModelKind::CollapseAlways,
        "cast" | "collapse-on-cast" => ModelKind::CollapseOnCast,
        "cis" | "common-initial-seq" => ModelKind::CommonInitialSeq,
        "offsets" => ModelKind::Offsets,
        other => {
            eprintln!("unknown model `{other}`");
            usage()
        }
    }
}

fn parse_layout(s: &str) -> Layout {
    match s {
        "ilp32" => Layout::ilp32(),
        "lp64" => Layout::lp64(),
        "packed32" => Layout::packed32(),
        other => {
            eprintln!("unknown layout `{other}`");
            usage()
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let outcome = match args[0].as_str() {
        "serve" => cmd_serve(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "update" => cmd_update(&args[1..]),
        _ => run(args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scast: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `scast serve`: run the analysis-query service in the foreground until a
/// client sends `{"op": "shutdown"}`.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let cfg = ServerConfig::from_args(args).unwrap_or_else(|e| {
        eprintln!("scast serve: {e}");
        usage()
    });
    let handle = serve(&cfg).map_err(|e| format!("serve: cannot bind {}: {e}", cfg.addr))?;
    println!("listening on {}", handle.addr());
    // Scripts scrape that line from a pipe, so force it out now.
    let _ = std::io::stdout().flush();
    handle.wait(); // the accept thread prints the final summary line
    Ok(())
}

/// `scast query`: send request lines to a running server and print the
/// response lines. Requests come from the argument list, or from stdin
/// (one per line) when the single argument `-` is given.
fn cmd_query(args: &[String]) -> Result<(), String> {
    let mut addr = None;
    let mut timeout_ms: u64 = 5000;
    let mut retry = RetryOpts { max_retries: 0, ..RetryOpts::default() };
    let mut reqs: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--timeout-ms" => {
                let n = it.next().unwrap_or_else(|| usage());
                timeout_ms =
                    n.parse().map_err(|_| format!("query: bad --timeout-ms `{n}`"))?;
            }
            "--max-retries" => {
                let n = it.next().unwrap_or_else(|| usage());
                retry.max_retries =
                    n.parse().map_err(|_| format!("query: bad --max-retries `{n}`"))?;
            }
            "--backoff-seed" => {
                let n = it.next().unwrap_or_else(|| usage());
                retry.backoff_seed =
                    n.parse().map_err(|_| format!("query: bad --backoff-seed `{n}`"))?;
            }
            // An unknown flag is a usage error, never a request line.
            other if other.starts_with("--") => {
                eprintln!("scast query: unknown flag `{other}`");
                usage()
            }
            other => reqs.push(other.to_string()),
        }
    }
    let addr = addr.ok_or("query: --addr HOST:PORT is required")?;
    if reqs.is_empty() {
        return Err("query: no requests given (pass JSON objects, or `-` for stdin)".into());
    }
    if reqs == ["-"] {
        reqs = std::io::read_to_string(std::io::stdin())
            .map_err(|e| format!("query: cannot read stdin: {e}"))?
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(str::to_string)
            .collect();
    }
    // --timeout-ms 0 opts back into blocking forever (e.g. a query that is
    // expected to solve a huge program on a cold cache).
    let mut client = if timeout_ms == 0 {
        Client::connect(&addr)
    } else {
        Client::connect_timeout(&addr, Duration::from_millis(timeout_ms))
    }
    .map_err(|e| format!("query: cannot connect to {addr}: {e}"))?;
    for req in &reqs {
        // Without a retry budget, stay on the raw byte-preserving path;
        // with one, requests must be parsed so retries can re-send them.
        if retry.max_retries == 0 {
            let resp = client
                .request_line(req)
                .map_err(|e| format!("query: {addr}: {e}"))?;
            println!("{resp}");
        } else {
            let parsed = Json::parse(req).map_err(|e| format!("query: bad request: {e}"))?;
            let resp = client
                .request_with_retry(&parsed, &retry)
                .map_err(|e| format!("query: {addr}: {e}"))?;
            println!("{resp}");
        }
    }
    Ok(())
}

/// `scast update`: send an edited source file to a running server as a
/// live-editing delta against the cached session `--program`, and print
/// the server's reuse/retraction report line. The file may be `-` to read
/// the edited text from stdin (editor-integration shape).
fn cmd_update(args: &[String]) -> Result<(), String> {
    let mut addr = None;
    let mut program = None;
    let mut timeout_ms: u64 = 5000;
    let mut retry = RetryOpts { max_retries: 0, ..RetryOpts::default() };
    let mut file: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--program" => program = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--timeout-ms" => {
                let n = it.next().unwrap_or_else(|| usage());
                timeout_ms =
                    n.parse().map_err(|_| format!("update: bad --timeout-ms `{n}`"))?;
            }
            "--max-retries" => {
                let n = it.next().unwrap_or_else(|| usage());
                retry.max_retries =
                    n.parse().map_err(|_| format!("update: bad --max-retries `{n}`"))?;
            }
            "--backoff-seed" => {
                let n = it.next().unwrap_or_else(|| usage());
                retry.backoff_seed =
                    n.parse().map_err(|_| format!("update: bad --backoff-seed `{n}`"))?;
            }
            other if !other.starts_with("--") && file.is_none() => file = Some(other.to_string()),
            _ => usage(),
        }
    }
    let addr = addr.ok_or("update: --addr HOST:PORT is required")?;
    let program = program.ok_or("update: --program NAME is required")?;
    let file = file.ok_or("update: no source file given (pass a path, or `-` for stdin)")?;
    let source = if file == "-" {
        std::io::read_to_string(std::io::stdin())
            .map_err(|e| format!("update: cannot read stdin: {e}"))?
    } else {
        std::fs::read_to_string(&file).map_err(|e| format!("update: cannot read {file}: {e}"))?
    };
    let mut client = if timeout_ms == 0 {
        Client::connect(&addr)
    } else {
        Client::connect_timeout(&addr, Duration::from_millis(timeout_ms))
    }
    .map_err(|e| format!("update: cannot connect to {addr}: {e}"))?;
    let req = Json::obj([
        ("op", Json::str("update")),
        ("program", Json::str(&program)),
        ("source", Json::str(&source)),
    ]);
    let resp = client
        .request_with_retry(&req, &retry)
        .map_err(|e| format!("update: {addr}: {e}"))?;
    println!("{resp}");
    Ok(())
}

/// Renders one analysis as a machine-readable JSON object: the full
/// points-to edge list plus per-dereference-site points-to sizes. Shares
/// the server's emitter so the output grammar is identical.
fn render_json(file: &str, model: ModelKind, prog: &Program, res: &AnalysisResult) -> Json {
    let edges = res
        .edge_displays(prog)
        .into_iter()
        .map(|(from, to)| Json::Arr(vec![Json::Str(from), Json::Str(to)]))
        .collect();
    let derefs = res
        .deref_site_sizes(prog)
        .into_iter()
        .map(|(sid, size)| {
            Json::obj([
                ("stmt", Json::str(prog.display_stmt(&prog.stmts[sid.0 as usize]))),
                ("size", Json::count(size as u64)),
            ])
        })
        .collect();
    Json::obj([
        ("file", Json::str(file)),
        ("model", Json::str(model.paper_name())),
        ("edge_count", Json::count(res.edge_count() as u64)),
        ("iterations", Json::count(res.iterations)),
        ("avg_deref_size", Json::num(res.average_deref_size(prog))),
        ("edges", Json::Arr(edges)),
        ("deref_sites", Json::Arr(derefs)),
    ])
}

fn run(args: Vec<String>) -> Result<(), String> {
    if args[0] == "--corpus" {
        println!("{:<18} {:>6} {:>6}", "name", "lines", "casty");
        for p in structcast_progen::corpus() {
            println!("{:<18} {:>6} {:>6}", p.name, p.line_count(), p.casty);
        }
        return Ok(());
    }

    let mut file = None;
    let mut model = ModelKind::CommonInitialSeq;
    let mut layout = Layout::ilp32();
    let mut vars: Vec<String> = Vec::new();
    let mut demand: Vec<String> = Vec::new();
    let mut deref_stats = false;
    let mut dump_ir = false;
    let mut dump_constraints = false;
    let mut steens = false;
    let mut stride = false;
    let mut deadline_ms: Option<u64> = None;
    let mut max_edges: Option<usize> = None;
    let mut flag_unknown = false;
    let mut dot = false;
    let mut modref = false;
    let mut json = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model" => model = parse_model(&it.next().unwrap_or_else(|| usage())),
            "--layout" => layout = parse_layout(&it.next().unwrap_or_else(|| usage())),
            "--var" => vars.push(it.next().unwrap_or_else(|| usage())),
            "--demand" => demand.push(it.next().unwrap_or_else(|| usage())),
            "--deref-stats" => deref_stats = true,
            "--dump-ir" => dump_ir = true,
            "--dump-constraints" => dump_constraints = true,
            "--steensgaard" => steens = true,
            "--stride" => stride = true,
            "--deadline-ms" => {
                let n = it.next().unwrap_or_else(|| usage());
                deadline_ms =
                    Some(n.parse::<u64>().map_err(|_| format!("bad --deadline-ms `{n}`"))?);
            }
            "--max-edges" => {
                let n = it.next().unwrap_or_else(|| usage());
                max_edges =
                    Some(n.parse::<usize>().map_err(|_| format!("bad --max-edges `{n}`"))?);
            }
            "--flag-unknown" => flag_unknown = true,
            "--dot" => dot = true,
            "--modref" => modref = true,
            "--json" => json = true,
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(file) = file else { usage() };

    // The corpus can be referenced by name instead of a path.
    let source = match structcast_progen::corpus_program(&file) {
        Some(p) => p.source.to_string(),
        None => match std::fs::read_to_string(&file) {
            Ok(raw) => {
                // Preprocess real files: object-like #define, #ifdef, and
                // quoted includes resolved next to the input file.
                let base = std::path::Path::new(&file)
                    .parent()
                    .map(|p| p.to_path_buf())
                    .unwrap_or_default();
                structcast::parse_support::preprocess(&raw, &|name: &str| {
                    std::fs::read_to_string(base.join(name)).ok()
                })
            }
            Err(e) => return Err(format!("cannot read {file}: {e}")),
        },
    };

    let prog = structcast::lower_source(&source).map_err(|e| format!("{file}: {e}"))?;
    for w in &prog.warnings {
        eprintln!("scast: warning: {w}");
    }
    if dump_ir {
        print!("{}", prog.dump());
        return Ok(());
    }
    if dump_constraints {
        // Stage-1 output only: the model-independent constraint form,
        // printed in deterministic statement order. No solving happens.
        let session = structcast::AnalysisSession::compile(&prog);
        print!("{}", session.constraints().dump(&prog));
        return Ok(());
    }

    if let Some(v) = vars.iter().find(|v| prog.object_by_name(v).is_none()) {
        return Err(format!("{file}: unknown pointer `{v}`"));
    }

    if steens {
        let res = steensgaard(&prog);
        println!(
            "steensgaard: classes={} time={:?} indirect_calls={}",
            res.class_count(),
            res.elapsed,
            res.resolved_indirect_calls
        );
        for v in &vars {
            println!("  {v} -> {{{}}}", res.points_to_names(&prog, v).join(", "));
        }
        return Ok(());
    }

    let mut cfg = AnalysisConfig::new(model).with_layout(layout).with_stride(stride);
    if flag_unknown {
        cfg = cfg.with_arith_mode(structcast::ArithMode::FlagUnknown);
    }
    if deadline_ms.is_some() || max_edges.is_some() {
        let mut budget = Budget::unlimited();
        if let Some(ms) = deadline_ms {
            budget = budget.with_deadline_in(Duration::from_millis(ms));
        }
        if let Some(max) = max_edges {
            budget = budget.with_max_edges(max);
        }
        cfg = cfg.with_budget(budget);
    }
    if !demand.is_empty() {
        // Demand mode: slice the constraint graph down to what each
        // queried pointer can see, and solve only the slice. The budget
        // flags govern the sliced solve exactly as they would the full one.
        let session = structcast::AnalysisSession::compile(&prog);
        for v in &demand {
            let query = structcast::DemandQuery::points_to_named(&prog, v)
                .ok_or_else(|| format!("{file}: unknown pointer `{v}`"))?;
            let d = session
                .try_solve_demand(&query, &cfg)
                .map_err(|e| format!("{file}: {e}"))?;
            println!(
                "demand ({}): {} -> {{{}}}",
                model.paper_name(),
                v,
                d.result.points_to_names(&prog, v).join(", ")
            );
            println!(
                "  slice={}/{} statements ({:.1}%) objects={} time={:?}",
                d.stats.slice_statements,
                d.stats.total_statements,
                100.0 * d.stats.ratio(),
                d.stats.relevant_objects,
                d.result.elapsed
            );
        }
        return Ok(());
    }

    let res = try_analyze(&prog, &cfg).map_err(|e| format!("{file}: {e}"))?;
    if json {
        println!("{}", render_json(&file, model, &prog, &res));
        return Ok(());
    }
    if dot {
        print!("{}", structcast::modref::to_dot(&prog, &res));
        return Ok(());
    }
    if modref {
        let mr = structcast::modref::mod_ref(&prog, &res, true);
        println!("MOD/REF per function ({}):", model.paper_name());
        for f in &prog.functions {
            if !f.defined {
                continue;
            }
            let sets = mr.sets(f.id);
            let names = |set: &std::collections::BTreeSet<structcast::ObjId>| {
                set.iter()
                    .map(|o| prog.object(*o).name.clone())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            println!("  {:<20} MOD {{{}}}", f.name, names(&sets.mods));
            println!("  {:<20} REF {{{}}}", "", names(&sets.refs));
        }
        return Ok(());
    }
    if flag_unknown {
        let sites = res.unknown_deref_sites(&prog);
        println!(
            "possibly-corrupted pointers: {} locations; {} suspicious dereference sites",
            res.unknown.len(),
            sites.len()
        );
        for sid in sites.iter().take(10) {
            println!("  suspicious deref: {}", prog.display_stmt(&prog.stmts[sid.0 as usize]));
        }
    }
    println!(
        "{}: edges={} iterations={} time={:?}",
        model.paper_name(),
        res.edge_count(),
        res.iterations,
        res.elapsed
    );
    if deref_stats {
        println!(
            "deref sites={} avg points-to size={:.3}",
            prog.deref_sites().len(),
            res.average_deref_size(&prog)
        );
    }
    if vars.is_empty() {
        // Print points-to sets of all named pointers with nonempty sets.
        for obj in prog.objects.iter() {
            if !obj.kind.is_named_variable() {
                continue;
            }
            let names = res.points_to_names(&prog, &obj.name);
            if !names.is_empty() {
                println!("  {} -> {{{}}}", obj.name, names.join(", "));
            }
        }
    } else {
        for v in &vars {
            println!("  {v} -> {{{}}}", res.points_to_names(&prog, v).join(", "));
        }
    }
    Ok(())
}
