//! End-to-end CLI tests: run the built `scast` / `scast-experiments`
//! binaries the way a user would and check their output.

use std::process::Command;

fn scast(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_scast"))
        .args(args)
        .output()
        .expect("scast runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn corpus_listing() {
    let (stdout, _, ok) = scast(&["--corpus"]);
    assert!(ok);
    assert!(stdout.contains("tagged-union"));
    assert!(stdout.contains("list-utils"));
    assert_eq!(stdout.lines().count(), 21); // header + 20 programs
}

#[test]
fn analyze_corpus_program_by_name() {
    let (stdout, _, ok) = scast(&["tagged-union", "--deref-stats"]);
    assert!(ok);
    assert!(stdout.contains("Common Initial Sequence"));
    assert!(stdout.contains("avg points-to size"));
}

#[test]
fn model_and_var_selection() {
    let (stdout, _, ok) = scast(&[
        "oop-shapes",
        "--model",
        "offsets",
        "--layout",
        "lp64",
        "--var",
        "shapes",
    ]);
    assert!(ok);
    assert!(stdout.contains("Offsets"));
    assert!(stdout.contains("shapes ->"));
}

#[test]
fn analyze_a_real_file() {
    let dir = std::env::temp_dir().join("scast_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.c");
    std::fs::write(
        &path,
        "int x, *p; void main(void) { p = &x; }",
    )
    .unwrap();
    let (stdout, _, ok) = scast(&[path.to_str().unwrap(), "--var", "p"]);
    assert!(ok);
    assert!(stdout.contains("p -> {x}"), "{stdout}");
}

#[test]
fn preprocessor_resolves_defines_and_includes() {
    let dir = std::env::temp_dir().join("scast_cli_pp");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("defs.h"),
        "#define CAP 4\nstruct Slot { int *owner; };\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("main.c"),
        "#include \"defs.h\"\nstruct Slot table[CAP];\nint who;\n\
         void main(void) { table[0].owner = &who; }\n",
    )
    .unwrap();
    let (stdout, _, ok) = scast(&[
        dir.join("main.c").to_str().unwrap(),
        "--var",
        "table",
    ]);
    assert!(ok);
    assert!(stdout.contains("table -> {who}"), "{stdout}");
}

#[test]
fn dump_ir_shows_normalized_forms() {
    let (stdout, _, ok) = scast(&["list-utils", "--dump-ir"]);
    assert!(ok);
    assert!(stdout.contains("objects"));
    assert!(stdout.contains("= &"));
}

#[test]
fn dump_constraints_prints_the_stage1_dump() {
    let (stdout, _, ok) = scast(&["list-utils", "--dump-constraints"]);
    assert!(ok);
    assert!(stdout.starts_with("# structcast-constraints v1\n"), "{stdout}");
    assert!(stdout.contains("addrof"), "{stdout}");
    // Deterministic: two runs print byte-identical dumps.
    let (again, _, ok2) = scast(&["list-utils", "--dump-constraints"]);
    assert!(ok2);
    assert_eq!(stdout, again);
    // Sorted: zero-padded indices make lexicographic == statement order.
    let ids: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with('c'))
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted);
}

#[test]
fn steensgaard_mode() {
    let (stdout, _, ok) = scast(&["bst", "--steensgaard", "--var", "g_tree"]);
    assert!(ok);
    assert!(stdout.contains("steensgaard: classes="));
}

#[test]
fn flag_unknown_mode_reports_suspicious_sites() {
    let (stdout, _, ok) = scast(&["allocator", "--flag-unknown"]);
    assert!(ok);
    assert!(stdout.contains("possibly-corrupted pointers"), "{stdout}");
}

#[test]
fn demand_query_matches_the_exhaustive_answer() {
    // Happy path: `--demand p` prints the same points-to set `--var p`
    // prints from the full solve, plus the slice statistics.
    let (full, _, ok1) = scast(&["bst", "--var", "g_tree", "--model", "offsets"]);
    let (demand, _, ok2) = scast(&["bst", "--demand", "g_tree", "--model", "offsets"]);
    assert!(ok1 && ok2);
    let set_of = |out: &str| {
        out.lines()
            .find(|l| l.contains("g_tree -> {"))
            .and_then(|l| l.split_once("g_tree -> ").map(|(_, s)| s.to_string()))
            .unwrap_or_else(|| panic!("no g_tree set in {out}"))
    };
    assert_eq!(set_of(&full), set_of(&demand), "full:\n{full}\ndemand:\n{demand}");
    assert!(demand.contains("demand (Offsets)"), "{demand}");
    // The slice stats line reports slice/total, with slice ≤ total.
    let stats = demand.lines().find(|l| l.contains("slice=")).unwrap();
    let (slice, total) = stats
        .split_once("slice=")
        .and_then(|(_, r)| r.split_once(' '))
        .and_then(|(frac, _)| frac.split_once('/'))
        .map(|(s, t)| (s.parse::<u64>().unwrap(), t.parse::<u64>().unwrap()))
        .unwrap();
    assert!(slice > 0 && slice <= total, "{stats}");
}

#[test]
fn demand_query_for_unknown_pointer_fails_cleanly() {
    let (stdout, stderr, ok) = scast(&["bst", "--demand", "ghost"]);
    assert!(!ok, "unknown pointer must exit nonzero");
    assert!(stderr.contains("unknown pointer `ghost`"), "{stderr}");
    assert!(stdout.is_empty(), "diagnostics go to stderr: {stdout}");
}

#[test]
fn var_for_unknown_pointer_fails_cleanly() {
    for args in [&["bst", "--var", "ghost"][..], &["bst", "--steensgaard", "--var", "ghost"]] {
        let (stdout, stderr, ok) = scast(args);
        assert!(!ok, "{args:?}: unknown pointer must exit nonzero");
        assert!(stderr.contains("unknown pointer `ghost`"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: diagnostics go to stderr: {stdout}");
    }
}

#[test]
fn demand_composes_with_budgets() {
    // A roomy deadline completes and answers normally...
    let (stdout, _, ok) = scast(&["bst", "--demand", "g_tree", "--deadline-ms", "600000"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("g_tree -> {"), "{stdout}");
    // ...a zero deadline trips the sliced solve with the typed error.
    let (_, stderr, ok) = scast(&["bst", "--demand", "g_tree", "--deadline-ms", "0"]);
    assert!(!ok, "a zero deadline must trip the demand solve");
    assert!(stderr.contains("deadline exceeded"), "{stderr}");
    // ...and an impossible edge cap does too, naming the cap.
    let (_, stderr, ok) = scast(&["bst", "--demand", "g_tree", "--max-edges", "1"]);
    assert!(!ok);
    assert!(stderr.contains("edge limit (1)"), "{stderr}");
}

#[test]
fn bad_file_fails_cleanly() {
    let (_, stderr, ok) = scast(&["definitely-not-a-file.c"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn malformed_input_fails_with_parse_error_on_stderr() {
    let dir = std::env::temp_dir().join("scast_cli_bad");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.c");
    std::fs::write(&path, "int x = ;;; garbage(((").unwrap();
    let (stdout, stderr, ok) = scast(&[path.to_str().unwrap()]);
    assert!(!ok, "malformed input must exit nonzero");
    assert!(stderr.contains("parse error"), "{stderr}");
    assert!(stderr.contains("bad.c"), "{stderr}");
    assert!(stdout.is_empty(), "diagnostics go to stderr, not stdout: {stdout}");
}

#[test]
fn deep_nesting_fails_with_its_position_instead_of_overflowing() {
    let dir = std::env::temp_dir().join("scast_cli_deep");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.c");
    let parens = "(".repeat(200_000);
    std::fs::write(
        &path,
        format!("int x, *p;\nvoid f(void) {{ p = {parens}&x; }}\n"),
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_scast"))
        .arg(&path)
        .output()
        .expect("scast runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("nesting deeper than 128 levels at line 2, column 147"),
        "{stderr}"
    );
}

#[test]
fn json_output_is_machine_readable_and_deterministic() {
    use structcast_server::json::Json;
    let (stdout, _, ok) = scast(&["tagged-union", "--json", "--model", "offsets"]);
    assert!(ok);
    assert_eq!(stdout.lines().count(), 1, "one JSON object per run: {stdout}");
    let v = Json::parse(stdout.trim()).expect("valid JSON");
    assert_eq!(v.get("model").and_then(Json::as_str), Some("Offsets"));
    let edges = v.get("edges").and_then(Json::as_arr).unwrap();
    assert_eq!(
        edges.len() as u64,
        v.get("edge_count").and_then(Json::as_u64).unwrap()
    );
    assert!(edges.iter().any(|e| {
        e.as_arr().is_some_and(|pair| {
            pair[0].as_str() == Some("g_registry")
        })
    }), "{stdout}");
    assert!(!v.get("deref_sites").and_then(Json::as_arr).unwrap().is_empty());
    let (again, _, ok2) = scast(&["tagged-union", "--json", "--model", "offsets"]);
    assert!(ok2);
    assert_eq!(stdout, again, "--json output must be byte-deterministic");
}

#[test]
fn serve_and_query_round_trip() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut server = Command::new(env!("CARGO_BIN_EXE_scast"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("scast serve starts");
    let mut lines = BufReader::new(server.stdout.take().unwrap()).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner.strip_prefix("listening on ").expect(&banner).to_string();

    let query = |reqs: &[&str]| -> Vec<String> {
        let mut args = vec!["query", "--addr", &addr];
        args.extend_from_slice(reqs);
        let (stdout, stderr, ok) = scast(&args);
        assert!(ok, "{stderr}");
        stdout.lines().map(str::to_string).collect()
    };
    let pass = || {
        query(&[
            r#"{"op":"load","name":"bst"}"#,
            r#"{"op":"points_to","program":"bst","var":"g_tree"}"#,
            r#"{"op":"alias","program":"bst","a":"g_tree","b":"g_tree"}"#,
            r#"{"op":"modref","program":"bst"}"#,
            r#"{"op":"compare_models","program":"bst"}"#,
        ])
    };
    let first = pass();
    assert_eq!(first.len(), 5);
    assert!(first.iter().all(|l| l.starts_with(r#"{"ok": true"#)), "{first:?}");

    let misses = |stats: &str| {
        let v = structcast_server::json::Json::parse(stats).unwrap();
        let g = |k| v.get(k).and_then(structcast_server::json::Json::as_u64).unwrap();
        g("program_misses") + g("solve_misses")
    };
    let cold = misses(&query(&[r#"{"op":"stats"}"#])[0]);
    assert!(cold > 0);
    // Second identical pass: byte-identical answers, no new cache misses.
    assert_eq!(first, pass());
    assert_eq!(misses(&query(&[r#"{"op":"stats"}"#])[0]), cold);

    let bye = query(&[r#"{"op":"shutdown"}"#]);
    assert!(bye[0].contains("\"shutdown\": true"), "{bye:?}");
    let status = server.wait().expect("server exits");
    assert!(status.success(), "clean exit after shutdown: {status:?}");
    let summary: Vec<String> = lines.map(|l| l.unwrap()).collect();
    assert!(
        summary.iter().any(|l| l.contains("structcast-server: served")),
        "{summary:?}"
    );
}

#[test]
fn query_reads_requests_from_stdin() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;

    let mut server = Command::new(env!("CARGO_BIN_EXE_scast"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(server.stdout.take().unwrap()).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner.strip_prefix("listening on ").unwrap().to_string();

    let mut child = Command::new(env!("CARGO_BIN_EXE_scast"))
        .args(["query", "--addr", &addr, "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"op\":\"points_to\",\"program\":\"tagged-union\",\"var\":\"g_registry\"}\n{\"op\":\"shutdown\"}\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 2, "{stdout}");
    assert!(stdout.contains("\"points_to\": ["), "{stdout}");
    assert!(server.wait().unwrap().success());
}

#[test]
fn query_without_server_fails_cleanly() {
    // Port 9 (discard) on loopback is virtually never listening.
    let (_, stderr, ok) = scast(&["query", "--addr", "127.0.0.1:9", r#"{"op":"stats"}"#]);
    assert!(!ok);
    assert!(stderr.contains("cannot connect"), "{stderr}");
}

#[test]
fn query_rejects_unknown_flags_before_connecting() {
    // `--binary` names the removed binary codec; like any unknown flag it
    // is a usage error, not a request line sent to the server.
    let (_, stderr, ok) = scast(&[
        "query",
        "--addr",
        "127.0.0.1:9",
        "--binary",
        r#"{"op":"stats"}"#,
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--binary`"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(!stderr.contains("cannot connect"), "{stderr}");
}

#[test]
fn fleet_is_gone_and_exits_with_the_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_scast"))
        .args(["fleet", "--replicas", "2"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(!stdout.contains("listening on"), "{stdout}");
}

#[test]
fn bad_serve_flags_are_usage_errors_that_name_the_flag() {
    for (args, named) in [
        (&["serve", "--threads", "many"][..], "bad --threads `many`"),
        (&["serve", "--faults", "panic@solve:1.0"][..], "unknown flag `--faults`"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_scast")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains(named) && stderr.contains("usage:"), "{stderr}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("listening on"));
    }
}

#[test]
fn tripped_budgets_fail_with_typed_errors() {
    let (_, stderr, ok) = scast(&["bst", "--max-edges", "1"]);
    assert!(!ok, "one edge cannot fit the fixpoint");
    assert!(stderr.contains("edge limit (1)"), "{stderr}");
    let (_, stderr, ok) = scast(&["bst", "--deadline-ms", "0"]);
    assert!(!ok, "a zero deadline trips before the first pop");
    assert!(stderr.contains("deadline exceeded"), "{stderr}");
}

#[test]
fn a_roomy_budget_does_not_change_answers() {
    let (free, _, ok1) = scast(&["bst", "--json"]);
    let (budgeted, _, ok2) =
        scast(&["bst", "--json", "--deadline-ms", "600000", "--max-edges", "1000000"]);
    assert!(ok1 && ok2);
    assert_eq!(free, budgeted, "a budget that completes must not perturb the result");
}

#[test]
fn bad_budget_values_fail_cleanly() {
    let (_, stderr, ok) = scast(&["bst", "--max-edges", "lots"]);
    assert!(!ok);
    assert!(stderr.contains("bad --max-edges"), "{stderr}");
    let (_, stderr, ok) = scast(&["bst", "--deadline-ms", "soon"]);
    assert!(!ok);
    assert!(stderr.contains("bad --deadline-ms"), "{stderr}");
}

#[test]
fn bad_model_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_scast"))
        .args(["bst", "--model", "telepathy"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn experiments_fig4_shape() {
    let out = Command::new(env!("CARGO_BIN_EXE_scast-experiments"))
        .args(["fig4"])
        .output()
        .expect("experiments runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Figure 4"));
    assert!(stdout.contains("aggregate vs Offsets"));
    // 12 cast-heavy rows.
    assert!(stdout.lines().filter(|l| l.contains('.')).count() >= 12);
}

#[test]
fn experiments_usage_on_no_args() {
    let out = Command::new(env!("CARGO_BIN_EXE_scast-experiments"))
        .output()
        .unwrap();
    assert!(!out.status.success());
}
