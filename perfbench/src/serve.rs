//! `serve`: an in-process `bfl-server` with the default configuration,
//! serving the COVID case study.
//!
//! The load is a closed loop over nproc connections from this process,
//! one outstanding request each, following the server's usual mix: 50%
//! plan evals, 20% spec checks, 20% plan probabilities and 10% small
//! sweeps. Set-up boots the server, loads and prepares the model, opens
//! the connections and sends every distinct request once, so the
//! measured requests are all warm. In-process compute for these requests
//! costs microseconds against a client round trip of hundreds, so this
//! workload measures the serving layer (shard loop, queue, JSON
//! protocol) and bypasses the BDD kernel.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use bfl_bench::{covid_properties, property_6};
use bfl_core::engine::AnalysisSession;
use bfl_core::plan::PreparedQuery;
use bfl_core::report::json_outcome;
use bfl_core::{ProbValue, Scenario, ScenarioSet, Spec};
use bfl_fault_tree::rng::Prng;
use bfl_fault_tree::{corpus, galileo};
use bfl_server::json::Json;
use bfl_server::{
    Client, ErrorCode, Op, ProbOptions, ProbTarget, Request, Response, ResponseBody, Server,
    ServerConfig, ServerHandle,
};

use crate::stats::{cpu_ticks, median, nproc, server_thread_count, RunOutput};
use crate::trace::Tracer;

const SETUP_REPEATS: usize = 9;
/// Passes made beyond those kept (see [`run`]).
const EXTRA_PASSES: u64 = 4;
/// Requests per second of a pass (a 2-CPU host serves about twice this).
const OPS_PER_SECOND: f64 = 2_500.0;
const BOOL_PLAN: &str = "exists MCS(IWoS) & H4";
const PROB_PLAN: &str = "P(IWoS) <= 0.05";
const SPECS: [&str; 4] = [
    "forall IS => MoT",
    "exists MCS(IWoS) & H4",
    "IDP(CIO, CIS)",
    "P(IWoS | H1) <= 0.5",
];
const SWEEP_SETS: usize = 3;
const SWEEP_SIZE: usize = 8;
/// In-process repetitions per distinct request when timing compute.
const COMPUTE_REPEATS: usize = 21;

/// One distinct request.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Item {
    Eval(usize),
    Check(usize),
    Prob(usize),
    Sweep(usize),
}

struct Inputs {
    model: String,
    scenarios: Vec<String>,
    sweeps: Vec<String>,
    items: Vec<Item>,
    ops: Vec<Item>,
}

fn generate(seed: u64, pass_seconds: f64) -> Inputs {
    let tree = corpus::covid();
    let n = tree.num_basic_events();
    let probs: Vec<Option<f64>> = (0..n)
        .map(|i| Some(0.02 + 0.9 * i as f64 / n as f64))
        .collect();
    let model = galileo::to_galileo(&tree, Some(&probs));
    let scenarios: Vec<String> = tree
        .basic_event_names()
        .iter()
        .flat_map(|e| [format!("{e} = 1"), format!("{e} = 0")])
        .collect();
    let sweeps: Vec<String> = (0..SWEEP_SETS)
        .map(|k| {
            scenarios[k * SWEEP_SIZE..(k + 1) * SWEEP_SIZE]
                .iter()
                .enumerate()
                .map(|(i, s)| format!("w{i}: {s}\n"))
                .collect()
        })
        .collect();
    let mut items = Vec::new();
    for i in 0..scenarios.len() {
        items.push(Item::Eval(i));
        items.push(Item::Prob(i));
    }
    items.extend((0..SPECS.len()).map(Item::Check));
    items.extend((0..SWEEP_SETS).map(Item::Sweep));

    let mut rng = Prng::seed_from_u64(seed);
    let ops = (0..(OPS_PER_SECOND * pass_seconds) as usize)
        .map(|_| match rng.gen_range(0..10) {
            0..=4 => Item::Eval(rng.gen_range(0..scenarios.len())),
            5 | 6 => Item::Check(rng.gen_range(0..SPECS.len())),
            7 | 8 => Item::Prob(rng.gen_range(0..scenarios.len())),
            _ => Item::Sweep(rng.gen_range(0..SWEEP_SETS)),
        })
        .collect();
    Inputs {
        model,
        scenarios,
        sweeps,
        items,
        ops,
    }
}

/// A booted, loaded and warmed server with its load connections open.
struct Served {
    handle: ServerHandle,
    admin: Client,
    session: String,
    bool_plan: String,
    prob_plan: String,
    conns: Vec<Conn>,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let writer = TcpStream::connect(addr).expect("connect to the server");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone the stream"));
        Conn { reader, writer }
    }

    /// Sends one request line and returns the response line.
    fn round_trip(&mut self, line: &str) -> String {
        self.writer
            .write_all(line.as_bytes())
            .expect("send request");
        self.read_line()
    }

    fn read_line(&mut self) -> String {
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        response
    }
}

impl Served {
    fn op(&self, inputs: &Inputs, item: Item) -> Op {
        let session = self.session.clone();
        match item {
            Item::Eval(i) => Op::Eval {
                session,
                plan: self.bool_plan.clone(),
                scenario: inputs.scenarios[i].clone(),
            },
            Item::Check(i) => Op::Check {
                session,
                query: SPECS[i].to_string(),
            },
            Item::Prob(i) => Op::Prob {
                session,
                target: ProbTarget::Plan {
                    plan: self.prob_plan.clone(),
                    scenario: Some(inputs.scenarios[i].clone()),
                },
                options: ProbOptions::default(),
            },
            Item::Sweep(i) => Op::Sweep {
                session,
                plan: self.bool_plan.clone(),
                scenarios: inputs.sweeps[i].clone(),
                stream: false,
            },
        }
    }

    fn encode(&self, inputs: &Inputs, id: u64, item: Item) -> String {
        let mut line = Request::with_id(id, self.op(inputs, item)).to_json_line();
        line.push('\n');
        line
    }

    fn shut_down(self) {
        drop(self.conns);
        let mut admin = self.admin;
        admin.shutdown().expect("shut the server down");
        self.handle.join();
    }

    fn cache_misses(&mut self) -> u64 {
        self.admin
            .stats(Some(&self.session))
            .ok()
            .and_then(|s| s.get("stats")?.get("cache_misses")?.as_u64())
            .expect("session stats carry cache_misses")
    }
}

fn set_up(inputs: &Inputs, connections: usize) -> Served {
    let handle = Server::bind(ServerConfig::default()).expect("bind the server");
    let addr = handle.addr();
    let mut admin = Client::connect(addr).expect("connect the admin client");
    let session = admin.load(&inputs.model).expect("load the model");
    let bool_plan = admin.prepare(&session, BOOL_PLAN).expect("prepare");
    let prob_plan = admin.prepare(&session, PROB_PLAN).expect("prepare");
    let mut served = Served {
        handle,
        admin,
        session,
        bool_plan,
        prob_plan,
        conns: (0..connections).map(|_| Conn::open(addr)).collect(),
    };
    // One cold pass over every distinct request fills the plan memos. The
    // requests are pipelined: sent one at a time, each would wait out a
    // phase of the shard loop's parking, which makes set-up time bimodal.
    let lines: String = (inputs.items.iter().enumerate())
        .map(|(id, &item)| served.encode(inputs, id as u64, item))
        .collect();
    let conn = &mut served.conns[0];
    conn.writer
        .write_all(lines.as_bytes())
        .expect("send the cold pass");
    for _ in &inputs.items {
        let response = conn.read_line();
        let ok = Response::parse(response.trim_end()).is_ok_and(|r| r.is_ok());
        assert!(ok, "cold request failed: {response}");
    }
    served
}

/// Drops the fields that legitimately differ between two evaluations of
/// the same request: timings, cache counters and arena sizes.
fn strip_volatile(v: &Json) -> Json {
    match v {
        Json::Object(fields) => Json::Object(
            fields
                .iter()
                .filter(|(k, _)| !matches!(k.as_str(), "stats" | "totals" | "sweep"))
                .map(|(k, v)| (k.clone(), strip_volatile(v)))
                .collect(),
        ),
        Json::Array(items) => Json::Array(items.iter().map(strip_volatile).collect()),
        other => other.clone(),
    }
}

/// The in-process reference: the same model, options and plans.
struct Reference {
    session: AnalysisSession,
    bool_plan: PreparedQuery,
    prob_plan: PreparedQuery,
}

impl Reference {
    fn new(inputs: &Inputs) -> Reference {
        let model = galileo::parse(&inputs.model).expect("model parses");
        let session = AnalysisSession::builder()
            .probabilities(model.probabilities)
            .build(model.tree);
        let prepare = |q: &str| {
            let query = bfl_core::parser::parse_query(q).expect("plan query parses");
            session.prepare(&query).expect("prepare")
        };
        let bool_plan = prepare(BOOL_PLAN);
        let prob_plan = prepare(PROB_PLAN);
        Reference {
            session,
            bool_plan,
            prob_plan,
        }
    }

    /// The request's answer, rendered as the server renders it.
    fn answer(&self, inputs: &Inputs, item: Item) -> String {
        let scenario = |i: usize| Scenario::parse(&inputs.scenarios[i]).expect("scenario parses");
        match item {
            Item::Eval(i) => {
                let o = self.bool_plan.eval(&scenario(i)).expect("eval");
                json_outcome(self.session.tree(), &o)
            }
            Item::Check(i) => {
                let spec = Spec::parse(SPECS[i]).expect("spec parses");
                self.session.run(&spec).expect("check").to_json()
            }
            Item::Prob(i) => match self.prob_plan.probability_value(&scenario(i), None) {
                Ok(Some(ProbValue::Exact(p))) => format!("{{\"probability\":{p}}}"),
                other => format!("{{\"unexpected\":\"{other:?}\"}}"),
            },
            Item::Sweep(i) => {
                let set = ScenarioSet::parse(&inputs.sweeps[i]).expect("sweep set parses");
                self.bool_plan.sweep(&set).expect("sweep").to_json()
            }
        }
    }
}

/// Whether a served result equals the reference answer.
fn same_answer(item: Item, served: &str, reference: &str) -> bool {
    let (Ok(s), Ok(r)) = (Json::parse(served), Json::parse(reference)) else {
        return false;
    };
    match item {
        Item::Prob(_) => s.get("probability") == r.get("probability"),
        _ => strip_volatile(&s) == strip_volatile(&r),
    }
}

/// What one load connection saw: each request's index, latency in
/// microseconds and response line.
struct Lane {
    results: Vec<(usize, f64, String)>,
    tracer: Tracer,
}

fn drive(served: &mut Served, inputs: &Inputs, traced: bool) -> (f64, Vec<Lane>) {
    let connections = served.conns.len();
    let conns = std::mem::take(&mut served.conns);
    let shared: &Served = served;
    let started = Instant::now();
    let lanes: Vec<(Conn, Lane)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                scope.spawn(move || {
                    let mut lane = Lane {
                        results: Vec::new(),
                        tracer: Tracer::new(traced),
                    };
                    let tr = &mut lane.tracer;
                    for (i, &item) in inputs.ops.iter().enumerate().skip(c).step_by(connections) {
                        let op = i as u32;
                        let t = Instant::now();
                        let line = tr.span("protocol.encode", op, || {
                            shared.encode(inputs, i as u64, item)
                        });
                        let raw = tr.span("server.round_trip", op, || conn.round_trip(&line));
                        let us = t.elapsed().as_secs_f64() * 1e6;
                        lane.results.push((i, us, raw));
                    }
                    (conn, lane)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut out = Vec::new();
    for (conn, lane) in lanes {
        served.conns.push(conn);
        out.push(lane);
    }
    (wall, out)
}

/// The paper's verdicts for the COVID properties, checked through the
/// server: every Boolean property fails (P1–P4, P6, P8, P9).
fn covid_verdicts(served: &mut Served, out: &mut RunOutput) {
    let mut questions: Vec<(String, String, bool)> = covid_properties()
        .into_iter()
        .filter_map(|p| Some((format!("P{}", p.id), p.source.to_string(), p.expected?)))
        .collect();
    questions.push(("P6".into(), property_6(&corpus::covid()).to_string(), false));
    for (id, source, expected) in questions {
        let holds = served
            .admin
            .check(&served.session, &source)
            .ok()
            .and_then(|r| {
                r.get("outcomes")?
                    .as_array()?
                    .first()?
                    .get("holds")?
                    .as_bool()
            });
        out.check(holds == Some(expected), || {
            format!("{id} ({source}): served {holds:?}, paper {expected}")
        });
    }
}

/// Checks every response of one pass, outside the timed region, and
/// returns each request's latency in microseconds, by request index. The
/// response lines are dropped here, so peak memory tracks the server, not
/// the responses the client has seen.
fn check_pass(
    inputs: &Inputs,
    answers: &HashMap<Item, String>,
    lanes: Vec<Lane>,
    tr: &mut Tracer,
    out: &mut RunOutput,
    busy: &mut u64,
) -> Vec<f64> {
    let mut latencies = vec![0.0; inputs.ops.len()];
    for lane in lanes {
        for (i, us, raw) in lane.results {
            latencies[i] = us;
            let item = inputs.ops[i];
            out.attempted += 1;
            let response = tr.span("protocol.decode", i as u32, || {
                Response::parse(raw.trim_end())
            });
            let response = match response {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("{item:?}: malformed response: {e}"));
                    continue;
                }
            };
            match response.body {
                ResponseBody::Result(result) => out.check(
                    response.id == Some(i as u64) && same_answer(item, &result, &answers[&item]),
                    || format!("{item:?}: served {result}, expected {}", answers[&item]),
                ),
                ResponseBody::Error { code, message } => {
                    *busy += u64::from(code == ErrorCode::Busy);
                    out.fail(format!("{item:?}: {code:?}: {message}"));
                }
            }
        }
        tr.absorb(lane.tracer);
    }
    latencies
}

/// Every pass sends the same requests. Serving latency is mostly waiting
/// for wake-ups, which tracks the hypervisor's steal time almost
/// linearly, so the run makes `EXTRA_PASSES` more passes than asked and
/// keeps those with the least steal. A request's latency is the median of
/// its kept passes, not the fastest: the fastest drops most of the wait
/// for the shard loop (p50 ~120 µs against ~400 µs), which is part of
/// what a client sees. Throughput is that of the median kept pass.
pub fn run(seed: u64, pass_seconds: f64, traced: bool, passes: u64) -> RunOutput {
    let inputs = generate(seed, pass_seconds);
    let connections = nproc();
    let mut out = RunOutput {
        correct: true,
        ..RunOutput::default()
    };
    let mut served = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(s) = served.take() {
            Served::shut_down(s);
        }
        let t = Instant::now();
        served = Some(set_up(&inputs, connections));
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut served = served.expect("set up at least once");
    let misses_warm = served.cache_misses();
    let reference = Reference::new(&inputs);
    let answers: HashMap<Item, String> = inputs
        .items
        .iter()
        .map(|&item| (item, reference.answer(&inputs, item)))
        .collect();

    let mut busy = 0u64;
    let mut tr = Tracer::new(traced);
    // Per pass: its steal share, wall time and request latencies.
    let mut made = Vec::new();
    for _ in 0..passes + EXTRA_PASSES {
        let (total, steal) = cpu_ticks();
        let (wall, lanes) = drive(&mut served, &inputs, traced);
        let (total_end, steal_end) = cpu_ticks();
        let share = (steal_end - steal) as f64 / (total_end - total).max(1) as f64;
        let latencies = check_pass(&inputs, &answers, lanes, &mut tr, &mut out, &mut busy);
        made.push((share, wall, latencies));
    }
    made.sort_by(|a, b| a.0.total_cmp(&b.0));
    made.truncate(passes as usize);
    let walls: Vec<f64> = made.iter().map(|(_, wall, _)| *wall).collect();
    let mut latencies = vec![Vec::new(); inputs.ops.len()];
    for (_, _, pass) in made {
        for (i, us) in pass.into_iter().enumerate() {
            latencies[i].push(us);
        }
    }
    out.measured_s = median(walls);
    out.op_us = latencies.into_iter().map(median).collect();
    let threads = server_thread_count();
    let rebuilds = served.cache_misses() - misses_warm;
    covid_verdicts(&mut served, &mut out);
    let config = ServerConfig::default();
    out.check(threads == 1 + config.shards + config.workers, || {
        format!("{threads} server threads")
    });
    out.check(rebuilds == 0, || {
        format!("{rebuilds} plan rebuilds on the warm path")
    });
    served.shut_down();

    if traced {
        // In-process compute of each distinct request on the warm
        // reference session, the median of repeated runs.
        let compute_us: HashMap<Item, f64> = inputs
            .items
            .iter()
            .map(|&item| {
                let times = (0..COMPUTE_REPEATS)
                    .map(|_| {
                        let t = Instant::now();
                        std::hint::black_box(reference.answer(&inputs, item));
                        t.elapsed().as_secs_f64() * 1e6
                    })
                    .collect();
                (item, median(times))
            })
            .collect();
        let round_trips = tr.spans().iter().filter(|s| s.name == "server.round_trip");
        let transport: Vec<f64> = round_trips
            .map(|s| s.micros() - compute_us[&inputs.ops[s.op as usize]])
            .collect();
        let compute: Vec<f64> = inputs.ops.iter().map(|item| compute_us[item]).collect();
        let m = &mut out.layers;
        m.put(
            "protocol.encode_us",
            median(tr.micros_of("protocol.encode")),
            "us",
        );
        m.put(
            "protocol.decode_us",
            median(tr.micros_of("protocol.decode")),
            "us",
        );
        m.put("engine.compute_us", median(compute), "us");
        m.put("server.transport_us", median(transport), "us");
        m.put("server.threads", threads as f64, "count");
        m.put("server.busy_rejects", busy as f64, "count");
        m.put("plan.rebuilds", rebuilds as f64, "count");
    }
    out.tracer = Some(tr);
    out
}
