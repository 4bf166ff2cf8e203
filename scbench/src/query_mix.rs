//! `query_mix`: the read path. Two NDJSON connections, each a closed
//! loop, query a server warmed with four fixed medium programs. 78% of
//! requests are warm exhaustive `points_to`/`alias` queries under the
//! default instance. The rest are `mode:"demand"` `points_to`,
//! `alias` and `modref` queries under two instances the server never
//! solves exhaustively: 20% of all requests ask about a subject for the
//! first time (a cold slice and solve) and 2% repeat a subject already
//! answered (a demand-cache hit). The seed draws the request stream.

use crate::replay::{self, Counts, Lane};
use crate::util::{mean, ms, quantile, ratio, Tracer};
use crate::{
    common_layers, ok_reply, repeated_setup, start_server, stop_server, Args, E2e, Traced,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;
use structcast::{AnalysisSession, DemandQuery, Loc};
use structcast_progen::{generate, GenConfig};
use structcast_server::cache::DemandPayload;
use structcast_server::json::Json;
use structcast_server::proto::Request;
use structcast_server::{Client, QueryOpts, ServerConfig, ServerHandle, SessionCache};
use structcast_types::rng::Rng64;

const PROGRAMS: usize = 4;
/// One block of requests, shuffled per block: `E` a warm exhaustive
/// query, `F` a first-time demand subject, `R` a repeated one. Blocks
/// keep the mix the same in every stretch of a run: 78% warm exhaustive,
/// 20% cold demand, 2% warm demand. 20% cold is far from 1% and from 50%,
/// so p50 falls among warm requests, p90 near the middle of the cold
/// ones and p99 in their tail.
const BLOCK: &[u8; 50] = b"EEEEEEEEEEEEEEEEEEEEEEEEEEEEEEEEEEEEEEEFFFFFFFFFFR";
/// Query kinds of successive first-time subjects: points_to (0), alias
/// (1), modref (2). Ten in a row go to one program and instance.
const FRESH_KINDS: [usize; 10] = [0, 1, 0, 1, 0, 1, 0, 1, 1, 2];
/// Demand subjects each connection answers during set-up, so that repeats
/// have something to repeat from the first timed request on.
const WARM_SUBJECTS: usize = 16;
/// The instances demand queries use; neither is ever solved exhaustively
/// during the timed section, so a first-time subject is a real cold solve.
const DEMAND_MODELS: [&str; 2] = ["offsets", "cast"];

/// One warmed program as the load generator knows it: its name, the
/// pointer variables with non-empty answers under the default instance,
/// its defined functions, and the expected exhaustive answers.
struct Known {
    name: String,
    source: String,
    vars: Vec<String>,
    funcs: Vec<String>,
    shown: HashMap<String, Vec<String>>,
    locs: HashMap<String, BTreeSet<Loc>>,
}

/// The warmed programs are fixed, one per cast ratio 0, 1/3, 2/3 and 1;
/// the seed draws the request stream over them. Fixed programs keep the
/// cost of a cold subject comparable from seed to seed.
fn program_source(k: usize) -> String {
    generate(&GenConfig::medium(0x9E71_0000 + k as u64).with_cast_ratio(k as f64 / 3.0))
}

/// Lowers and solves one program in-process (the oracle for warm
/// exhaustive answers, and the source of variable and function names).
fn know(k: usize) -> Result<Known, String> {
    let source = program_source(k);
    let prog = structcast::lower_source(&source).map_err(|e| e.to_string())?;
    let res = AnalysisSession::compile(&prog).solve(&QueryOpts::default().to_config());
    let (mut vars, mut shown, mut locs) = (Vec::new(), HashMap::new(), HashMap::new());
    for obj in prog.objects.iter().filter(|o| o.kind.is_named_variable()) {
        let l = res.points_to_named(&prog, &obj.name).unwrap_or_default();
        if l.is_empty() {
            continue;
        }
        let mut s: Vec<String> = l.iter().map(|x| x.display(&prog)).collect();
        s.sort();
        s.dedup();
        vars.push(obj.name.clone());
        shown.insert(obj.name.clone(), s);
        locs.insert(obj.name.clone(), l.into_iter().collect());
    }
    let funcs = prog
        .functions
        .iter()
        .filter(|f| f.defined)
        .map(|f| f.name.clone())
        .collect();
    Ok(Known {
        name: format!("q{k}"),
        source,
        vars,
        funcs,
        shown,
        locs,
    })
}

/// What a request expects back.
#[derive(Clone)]
enum Expect {
    /// A warm exhaustive answer, known from the oracle.
    Exact(String),
    /// A demand answer for this subject key; compared with every other
    /// answer for the same key and with the exhaustive answer afterwards.
    Demand {
        key: String,
        exhaustive: String,
        field: &'static str,
    },
}

struct Req {
    line: String,
    expect: Expect,
}

fn payload_field(reply: &Json, field: &str) -> String {
    reply.get(field).map_or_else(String::new, |v| v.to_string())
}

/// One connection's seeded request stream.
struct Stream<'a> {
    known: &'a [Known],
    rng: Rng64,
    conn: usize,
    /// Subject-order offset drawn from the seed.
    offset: usize,
    /// Per (program, model, kind): first-time subjects used so far.
    next_fresh: HashMap<(usize, usize, usize), usize>,
    fresh_drawn: usize,
    block: Vec<u8>,
    issued: Vec<(String, Expect)>,
}

impl<'a> Stream<'a> {
    fn new(known: &'a [Known], seed: u64, conn: usize) -> Stream<'a> {
        let rng = Rng64::seed_from_u64(seed ^ 0x0E11_5EED ^ ((conn as u64 + 1) << 32));
        // Both connections share the offset, so their subjects interleave.
        let offset = Rng64::seed_from_u64(seed).gen_range(0..1 << 20);
        Stream {
            known,
            rng,
            conn,
            offset,
            next_fresh: HashMap::new(),
            fresh_drawn: 0,
            block: Vec::new(),
            issued: Vec::new(),
        }
    }

    /// The `n`th subject of `kind` on program `p`: a permutation of the
    /// subject space that interleaves the two connections, so neither
    /// ever asks a subject the other asked first.
    fn subject(&self, p: usize, kind: usize, n: usize) -> Option<(String, String)> {
        let k = &self.known[p];
        let n = 2 * n + self.conn;
        let pick =
            |len: usize| -> Option<usize> { (n < len).then(|| (n * 7919 + self.offset) % len) };
        match kind {
            0 => {
                let v = &k.vars[pick(k.vars.len())?];
                Some((format!("points_to/{v}"), v.clone()))
            }
            1 => {
                let m = k.vars.len();
                if m < 2 {
                    return None;
                }
                let idx = pick(m * (m - 1) / 2)?;
                // Unrank the pair index.
                let (mut a, mut rest) = (0usize, idx);
                while rest >= m - 1 - a {
                    rest -= m - 1 - a;
                    a += 1;
                }
                let b = a + 1 + rest;
                Some((
                    format!("alias/{}/{}", k.vars[a], k.vars[b]),
                    format!("{}\u{0}{}", k.vars[a], k.vars[b]),
                ))
            }
            _ => {
                let f = &k.funcs[pick(k.funcs.len())?];
                Some((format!("modref/{f}"), f.clone()))
            }
        }
    }

    fn demand_request(
        &self,
        p: usize,
        model: usize,
        kind: usize,
        arg: &str,
    ) -> (String, String, &'static str) {
        let k = &self.known[p];
        let m = DEMAND_MODELS[model];
        let base = |op: &str| {
            vec![
                ("op", Json::str(op)),
                ("program", Json::str(&k.name)),
                ("model", Json::str(m)),
            ]
        };
        let (mut fields, field) = match kind {
            0 => {
                let mut f = base("points_to");
                f.push(("var", Json::str(arg)));
                (f, "points_to")
            }
            1 => {
                let (a, b) = arg.split_once('\u{0}').expect("alias args hold two names");
                let mut f = base("alias");
                f.push(("a", Json::str(a)));
                f.push(("b", Json::str(b)));
                (f, "alias")
            }
            _ => {
                let mut f = base("modref");
                f.push(("func", Json::str(arg)));
                (f, "functions")
            }
        };
        let exhaustive = Json::obj(fields.clone()).to_string();
        fields.push(("mode", Json::str("demand")));
        (Json::obj(fields).to_string(), exhaustive, field)
    }

    /// A first-time demand subject, or `None` when the space is used up.
    fn fresh(&mut self) -> Option<Req> {
        let f = self.fresh_drawn;
        self.fresh_drawn += 1;
        let p = (f / FRESH_KINDS.len()) % self.known.len();
        let model = (f / (FRESH_KINDS.len() * self.known.len())) % DEMAND_MODELS.len();
        for kind in [FRESH_KINDS[f % FRESH_KINDS.len()], 1] {
            let n = *self.next_fresh.get(&(p, model, kind)).unwrap_or(&0);
            if let Some((subject, arg)) = self.subject(p, kind, n) {
                self.next_fresh.insert((p, model, kind), n + 1);
                let (line, exhaustive, field) = self.demand_request(p, model, kind, &arg);
                let key = format!("{}/{}/{subject}", self.known[p].name, DEMAND_MODELS[model]);
                let expect = Expect::Demand {
                    key,
                    exhaustive,
                    field,
                };
                self.issued.push((line.clone(), expect.clone()));
                return Some(Req { line, expect });
            }
        }
        None
    }

    fn next(&mut self) -> Req {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.gen_range(0..i + 1));
            }
        }
        match self.block.pop() {
            Some(b'F') => {
                if let Some(r) = self.fresh() {
                    return r;
                }
            }
            Some(b'R') if !self.issued.is_empty() => {
                let (line, expect) = self.issued[self.rng.gen_range(0..self.issued.len())].clone();
                return Req { line, expect };
            }
            _ => {}
        }
        let k = &self.known[self.rng.gen_range(0..self.known.len())];
        let a = &k.vars[self.rng.gen_range(0..k.vars.len())];
        if self.rng.gen_f64() < 0.7 {
            let line = Json::obj([
                ("op", Json::str("points_to")),
                ("program", Json::str(&k.name)),
                ("var", Json::str(a)),
            ]);
            let expect = Json::Arr(k.shown[a].iter().map(Json::str).collect()).to_string();
            Req {
                line: line.to_string(),
                expect: Expect::Exact(expect),
            }
        } else {
            let b = &k.vars[self.rng.gen_range(0..k.vars.len())];
            let line = Json::obj([
                ("op", Json::str("alias")),
                ("program", Json::str(&k.name)),
                ("a", Json::str(a)),
                ("b", Json::str(b)),
            ]);
            let alias = k.locs[a].intersection(&k.locs[b]).next().is_some();
            Req {
                line: line.to_string(),
                expect: Expect::Exact(Json::Bool(alias).to_string()),
            }
        }
    }
}

/// What one connection saw.
#[derive(Default)]
struct ConnOut {
    lat_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    demand: u64,
    cold: u64,
    /// Demand subject key -> (exhaustive request, answered field, answer).
    answers: HashMap<String, (String, &'static str, String)>,
}

/// Sends one request and checks its reply; returns the reply.
fn exchange(client: &mut Client, req: &Req, out: &mut ConnOut, timed: bool) -> Option<Json> {
    let t0 = Instant::now();
    let line = client.request_line(&req.line);
    if timed {
        out.lat_ms.push(ms(t0.elapsed()));
        out.attempted += 1;
    }
    let Some(reply) = line.ok().and_then(|l| ok_reply(&l)) else {
        out.failed += 1;
        return None;
    };
    let ok = match &req.expect {
        Expect::Exact(want) => {
            let field = if reply.get("points_to").is_some() {
                "points_to"
            } else {
                "alias"
            };
            &payload_field(&reply, field) == want
        }
        Expect::Demand {
            key,
            exhaustive,
            field,
        } => {
            if timed {
                out.demand += 1;
                let cached = reply.get("demand").and_then(|d| d.get("cached"));
                out.cold += u64::from(cached == Some(&Json::Bool(false)));
            }
            let got = payload_field(&reply, field);
            let first = out
                .answers
                .entry(key.clone())
                .or_insert_with(|| (exhaustive.clone(), field, got.clone()));
            first.2 == got
        }
    };
    out.failed += u64::from(!ok);
    Some(reply)
}

struct Setup {
    handle: ServerHandle,
    clients: Vec<Client>,
    known: Vec<Known>,
}

/// Server start, loads and exhaustive warm-up of every program, and a few
/// demand subjects per connection.
fn setup(seed: u64) -> Result<(Setup, Vec<ConnOut>), String> {
    let handle = start_server(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    })?;
    let known: Vec<Known> = (0..PROGRAMS).map(know).collect::<Result<_, _>>()?;
    let mut clients = Vec::new();
    for _ in 0..2 {
        clients.push(Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?);
    }
    for k in &known {
        let load = Json::obj([
            ("op", Json::str("load")),
            ("name", Json::str(&k.name)),
            ("source", Json::str(&k.source)),
        ]);
        let query = Json::obj([
            ("op", Json::str("points_to")),
            ("program", Json::str(&k.name)),
            ("var", Json::str(&k.vars[0])),
        ]);
        for line in [load.to_string(), query.to_string()] {
            let reply = clients[0]
                .request_line(&line)
                .map_err(|e| format!("set-up: {e}"))?;
            ok_reply(&reply).ok_or_else(|| format!("set-up failed: {reply}"))?;
        }
    }
    let mut outs = Vec::new();
    for (conn, client) in clients.iter_mut().enumerate() {
        let mut stream = Stream::new(&known, seed, conn);
        let mut out = ConnOut::default();
        for _ in 0..WARM_SUBJECTS {
            let req = stream.fresh().ok_or("subject space too small")?;
            exchange(client, &req, &mut out, false).ok_or("demand warm-up failed")?;
        }
        outs.push(out);
    }
    Ok((
        Setup {
            handle,
            clients,
            known,
        },
        outs,
    ))
}

fn teardown(s: Setup) {
    drop(s.clients);
    stop_server(s.handle);
}

/// The timed section: both connections in parallel, each a closed loop.
fn timed(s: &mut Setup, outs: &mut [ConnOut], seed: u64, secs: f64) -> f64 {
    let known = &s.known;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (conn, (client, out)) in s.clients.iter_mut().zip(outs.iter_mut()).enumerate() {
            scope.spawn(move || {
                let mut stream = Stream::new(known, seed, conn);
                // Replay the set-up's draws so the stream continues after them.
                for _ in 0..WARM_SUBJECTS {
                    stream.fresh();
                }
                while start.elapsed().as_secs_f64() < secs {
                    let req = stream.next();
                    exchange(client, &req, out, true);
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// Every demand answer must equal the exhaustive answer to the same
/// question under the same instance. Returns wrong answers.
fn demand_check(client: &mut Client, outs: &[ConnOut], notes: &mut Vec<String>) -> u64 {
    let mut wrong = 0;
    let mut subjects = 0;
    for out in outs {
        for (key, (exhaustive, field, answer)) in &out.answers {
            subjects += 1;
            let got = client
                .request_line(exhaustive)
                .ok()
                .and_then(|l| ok_reply(&l));
            let got = got.map(|r| payload_field(&r, field));
            if got.as_ref() != Some(answer) {
                wrong += 1;
                if wrong <= 3 {
                    notes.push(format!(
                        "demand answer for {key} is {answer}, exhaustive {got:?}"
                    ));
                }
            }
        }
    }
    notes.push(format!(
        "demand check: {subjects} subjects compared with exhaustive answers"
    ));
    wrong
}

pub fn run(args: &Args) -> Result<E2e, String> {
    let mut e2e = E2e::default();
    let ((mut s, mut outs), setup_s) = repeated_setup(|_| setup(args.seed), |s| teardown(s.0))?;
    e2e.setup_s = setup_s;
    e2e.elapsed_s = timed(&mut s, &mut outs, args.seed, args.seconds);
    summarize(&outs, &mut e2e);
    e2e.failed += demand_check(&mut s.clients[0], &outs, &mut e2e.notes);
    teardown(s);
    Ok(e2e)
}

fn summarize(outs: &[ConnOut], e2e: &mut E2e) {
    for o in outs {
        e2e.lat_ms.extend_from_slice(&o.lat_ms);
        e2e.attempted += o.attempted;
        e2e.failed += o.failed;
    }
    let demand: u64 = outs.iter().map(|o| o.demand).sum();
    let cold: u64 = outs.iter().map(|o| o.cold).sum();
    let cold_share = ratio(cold as f64, e2e.attempted as f64);
    e2e.notes.push(format!(
        "demand requests {demand} of {}; first-time (cold) subjects {cold}, share of all requests {cold_share:.4}",
        e2e.attempted
    ));
    e2e.named.push((
        "query_p50_us".into(),
        quantile(&e2e.lat_ms, 0.5) * 1e3,
        "us",
    ));
    e2e.named.push((
        "query_p99_us".into(),
        quantile(&e2e.lat_ms, 0.99) * 1e3,
        "us",
    ));
    e2e.named.push((
        "queries_per_s".into(),
        ratio(e2e.lat_ms.len() as f64, e2e.elapsed_s),
        "1/s",
    ));
    e2e.named
        .push(("demand_cold_share".into(), cold_share, "ratio"));
}

/// Builds one replay lane's warmed cache, untraced.
fn lane_state(
    known: &[Known],
    seed: u64,
) -> Result<(SessionCache, Arc<structcast_server::Metrics>), String> {
    let (cache, metrics) = replay::new_cache(structcast_server::cache::DEFAULT_MAX_BYTES);
    for k in known {
        replay::warm_program(&cache, &k.name, &k.source)?;
    }
    let mut t = Tracer::new(false);
    let mut c = Counts::default();
    let mut stream = Stream::new(known, seed, 0);
    for _ in 0..WARM_SUBJECTS {
        let req = stream.fresh().ok_or("subject space too small")?;
        replay_op(&mut t, &mut c, &cache, &req.line)?;
    }
    Ok((cache, metrics))
}

/// One replayed request: parse, answer from the cache (or slice and
/// solve a first-time demand subject), emit.
fn replay_op(
    t: &mut Tracer,
    c: &mut Counts,
    cache: &SessionCache,
    line: &str,
) -> Result<Json, String> {
    t.span("op", |t| {
        let req = t.span("server.json_parse", |_| {
            Json::parse(line)
                .map_err(|e| e.to_string())
                .and_then(|v| Request::from_json(&v))
        })?;
        let (program, opts, demand) = match &req {
            Request::PointsTo {
                program,
                opts,
                demand,
                ..
            }
            | Request::Alias {
                program,
                opts,
                demand,
                ..
            }
            | Request::ModRef {
                program,
                opts,
                demand,
                ..
            } => (program.clone(), opts.clone(), *demand),
            _ => return Err("unexpected request".to_string()),
        };
        let entry = t
            .span("server.cache", |_| cache.entry(&program))
            .ok_or("program not resident")?;
        c.cache_lookups += 1.0;
        c.cache_hits += 1.0;
        let mut fields = vec![("ok", Json::Bool(true)), ("program", Json::str(&program))];
        if demand {
            let prog = &entry.prog;
            let (query, subject) = match &req {
                Request::PointsTo { var, .. } => (
                    DemandQuery::points_to_named(prog, var),
                    format!("points_to/{var}"),
                ),
                Request::Alias { a, b, .. } => (
                    DemandQuery::alias_named(prog, a, b),
                    format!("alias/{a}/{b}"),
                ),
                Request::ModRef { func: Some(f), .. } => {
                    (DemandQuery::modref_named(prog, f), format!("modref/{f}"))
                }
                _ => (None, String::new()),
            };
            let query = query.ok_or("unknown demand subject")?;
            c.demand_lookups += 1.0;
            let warm = t.span("server.cache", |_| {
                if cache.demand_is_resident(&entry, &opts, &subject) {
                    cache
                        .demand(&entry, &opts, &query, &subject)
                        .ok()
                        .map(|(a, ..)| a)
                } else {
                    None
                }
            });
            let answer = match warm {
                Some(a) => {
                    c.demand_hits += 1.0;
                    a
                }
                None => {
                    let a = Arc::new(replay::demand_cold(t, c, &entry, &opts, &query, &subject));
                    let key = (entry.key, format!("demand/{subject}/{}", opts.cache_key()));
                    t.span("server.cache", |_| {
                        cache.restore_demand(key, Arc::clone(&a))
                    });
                    a
                }
            };
            match &answer.payload {
                DemandPayload::PointsTo(v) => {
                    fields.push(("points_to", Json::Arr(v.iter().map(Json::str).collect())))
                }
                DemandPayload::Alias(b) => fields.push(("alias", Json::Bool(*b))),
                DemandPayload::ModRef { mods, refs } => fields.push((
                    "functions",
                    Json::Arr(vec![Json::obj([
                        ("func", Json::str(&answer.subject["modref/".len()..])),
                        ("mod", Json::Arr(mods.iter().map(Json::str).collect())),
                        ("ref", Json::Arr(refs.iter().map(Json::str).collect())),
                    ])]),
                )),
            }
        } else {
            c.cache_lookups += 1.0;
            let solved = t
                .span("server.cache", |_| cache.solved(&entry, &opts))
                .map_err(|e| e.to_string())?
                .0;
            c.cache_hits += 1.0;
            match &req {
                Request::PointsTo { var, .. } => {
                    let v = solved.points_to.get(var).cloned().unwrap_or_default();
                    fields.push((
                        "points_to",
                        Json::Arr(v.into_iter().map(Json::Str).collect()),
                    ));
                }
                Request::Alias { a, b, .. } => {
                    fields.push(("alias", Json::Bool(solved.may_alias(a, b).unwrap_or(false))))
                }
                _ => return Err("exhaustive modref is not in the mix".to_string()),
            }
        }
        Ok(t.span("server.json_emit", |_| {
            let reply = Json::obj(fields);
            std::hint::black_box(reply.to_string());
            reply
        }))
    })
}

pub fn run_traced(args: &Args) -> Result<Traced, String> {
    let mut out = Traced::default();
    let mut e2e = E2e::default();
    let (mut s, mut outs) = setup(args.seed)?;
    e2e.elapsed_s = timed(&mut s, &mut outs, args.seed, args.seconds * 0.4);
    summarize(&outs, &mut e2e);
    let known = std::mem::take(&mut s.known);
    teardown(s);
    let e2e_mean = mean(&e2e.lat_ms);
    if let Some((_, share, _)) = e2e.named.iter().find(|m| m.0 == "demand_cold_share") {
        out.layers.insert("demand_cold_share".into(), *share);
    }
    // The socket pass's answers are the reference for the replay's.
    let socket: HashMap<&String, &String> = outs
        .iter()
        .flat_map(|o| o.answers.iter().map(|(k, v)| (k, &v.2)))
        .collect();

    let mut lanes = [
        Lane::new(true, lane_state(&known, args.seed)?),
        Lane::new(false, lane_state(&known, args.seed)?),
    ];
    let mut streams = [
        Stream::new(&known, args.seed, 0),
        Stream::new(&known, args.seed, 0),
    ];
    for s in &mut streams {
        for _ in 0..WARM_SUBJECTS {
            s.fresh();
        }
    }
    let (mut wrong, mut corpus) = (0u64, Vec::new());
    let n = replay::lockstep(args.seconds * 0.3, &mut lanes, |lane, _, traced| {
        let req = streams[usize::from(!traced)].next();
        let Ok(reply) = replay_op(&mut lane.t, &mut lane.c, &lane.state.0, &req.line) else {
            wrong += 1;
            return;
        };
        let ok = match &req.expect {
            Expect::Exact(want) => {
                let field = if reply.get("points_to").is_some() {
                    "points_to"
                } else {
                    "alias"
                };
                &payload_field(&reply, field) == want
            }
            Expect::Demand { key, field, .. } => socket
                .get(key)
                .is_none_or(|a| **a == payload_field(&reply, field)),
        };
        wrong += u64::from(!ok);
        if traced {
            corpus.push((vec![req.line], vec![reply]));
        }
    });
    let [traced, plain] = lanes;
    let layers = &mut out.layers;
    common_layers(layers, &traced.t, &traced.c, n as f64, e2e_mean);
    replay::bjson_layers(layers, &corpus);
    let (cache, metrics) = &traced.state;
    replay::lane_layers(layers, cache, metrics, traced.wall, plain.wall);
    out.attempted = e2e.attempted + 2 * n as u64;
    out.failed = e2e.failed + wrong;
    out.notes = e2e.notes;
    out.notes.push(format!(
        "replayed {n} requests; end-to-end reference {} requests, mean {:.1} us",
        e2e.lat_ms.len(),
        e2e_mean * 1e3
    ));
    out.notes.push(format!(
        "spans written to {}",
        replay::write_spans(&traced.t, "query_mix", args.seed)?
    ));
    Ok(out)
}
