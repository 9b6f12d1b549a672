//! Concurrency coverage for the session registry and the worker pool:
//! many client threads hammering `load`/`prepare`/`eval`/`unload` on one
//! server (plain `thread::scope` + barriers, no loom), asserting no
//! deadlock, no lost responses, safe `unload` under in-flight work,
//! explicit `busy` backpressure, and a graceful shutdown that drains
//! every accepted request.

// Test-support helpers outside `#[test]` fns: panicking is the
// correct failure mode here, same as in the tests themselves.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use bfl_fault_tree::{corpus, galileo, StatusVector};
use bfl_server::{Client, ErrorCode, Response, ResponseBody, Server, ServerConfig, ServerHandle};

const MODEL: &str = "toplevel T;\nT and A B;\nA prob=0.1;\nB prob=0.2;\n";

fn start_server(workers: usize, queue: usize) -> ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: queue,
        ..ServerConfig::default()
    })
    .expect("binds")
}

#[test]
fn parallel_private_sessions_never_interfere() {
    let handle = start_server(4, 256);
    let addr = handle.addr();
    let threads = 8;
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                barrier.wait();
                for round in 0..6 {
                    let session = client.load(MODEL).expect("loads");
                    let plan = client.prepare(&session, "exists T").expect("prepares");
                    let holds = client
                        .eval(&session, &plan, "A = 1, B = 1")
                        .expect("evals")
                        .get("holds")
                        .and_then(|v| v.as_bool());
                    assert_eq!(holds, Some(true), "thread {t} round {round}");
                    let holds = client
                        .eval(&session, &plan, "A = 0")
                        .expect("evals")
                        .get("holds")
                        .and_then(|v| v.as_bool());
                    assert_eq!(holds, Some(false), "thread {t} round {round}");
                    let p = client
                        .prob_plan(&session, &plan, None)
                        .expect("prob")
                        .expect("defined");
                    assert!((p - 0.02).abs() < 1e-12, "thread {t}: {p}");
                    client.unload(&session).expect("unloads");
                }
            });
        }
    });
    // Every session was unloaded; the registry is empty again.
    let mut client = Client::connect(addr).expect("connects");
    let stats = client.stats(None).expect("stats");
    assert_eq!(
        stats
            .get("sessions")
            .and_then(|s| s.as_array())
            .map(<[_]>::len),
        Some(0),
        "{stats}"
    );
    handle.shutdown();
}

#[test]
fn hammering_one_shared_session_with_unload_is_safe() {
    let handle = start_server(4, 256);
    let addr = handle.addr();
    let mut setup = Client::connect(addr).expect("connects");
    let session = setup.load(MODEL).expect("loads");
    let plan = setup.prepare(&session, "exists MCS(T)").expect("prepares");

    let threads = 8;
    let rounds = 30;
    let barrier = Barrier::new(threads + 1);
    let ok_count = AtomicUsize::new(0);
    let gone_count = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let barrier = &barrier;
            let (session, plan) = (session.clone(), plan.clone());
            let (ok_count, gone_count) = (&ok_count, &gone_count);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                barrier.wait();
                for round in 0..rounds {
                    let scenario = if round % 2 == 0 { "A = 1" } else { "B = 0" };
                    match client.eval(&session, &plan, scenario) {
                        Ok(outcome) => {
                            assert!(outcome.get("holds").is_some(), "{outcome}");
                            ok_count.fetch_add(1, Ordering::Relaxed);
                        }
                        // After the unload races past us the only
                        // acceptable failure is the structured one.
                        Err(e) => {
                            assert_eq!(
                                e.code(),
                                Some(ErrorCode::UnknownSession),
                                "unexpected failure: {e}"
                            );
                            gone_count.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        // Unload the shared session somewhere in the middle of the storm.
        let barrier = &barrier;
        let session = session.clone();
        scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connects");
            barrier.wait();
            client.unload(&session).expect("unload succeeds once");
        });
    });
    // No response was lost: every eval either answered or reported the
    // session gone.
    assert_eq!(
        ok_count.load(Ordering::Relaxed) + gone_count.load(Ordering::Relaxed),
        threads * rounds
    );
    handle.shutdown();
}

#[test]
fn unload_during_in_flight_sweep_completes_safely() {
    let handle = start_server(4, 64);
    let addr = handle.addr();
    let mut setup = Client::connect(addr).expect("connects");
    let session = setup.load(MODEL).expect("loads");
    let plan = setup.prepare(&session, "exists MCS(T)").expect("prepares");

    // A sweep big enough to still be in flight when the unload lands.
    let scenarios: String = (0..400)
        .map(|i| format!("s{i}: A = {}, B = {}\n", i % 2, (i / 2) % 2))
        .collect();
    let mut sweeper = TcpStream::connect(addr).expect("connects");
    sweeper.set_nodelay(true).expect("nodelay");
    let request = format!(
        "{{\"id\":1,\"op\":\"sweep\",\"session\":{},\"plan\":{},\"scenarios\":{}}}\n",
        bfl_core::report::json_str(&session),
        bfl_core::report::json_str(&plan),
        bfl_core::report::json_str(&scenarios)
    );
    sweeper.write_all(request.as_bytes()).expect("write");
    sweeper.flush().expect("flush");

    // Unload immediately on another connection; the in-flight sweep
    // holds its Arc and must complete with a full report regardless of
    // which side wins the race.
    setup.unload(&session).expect("unloads");

    let mut line = String::new();
    BufReader::new(sweeper).read_line(&mut line).expect("read");
    let response = Response::parse(line.trim_end()).expect("parses");
    match response.body {
        ResponseBody::Result(result) => {
            let doc = bfl_server::json::Json::parse(&result).expect("result parses");
            let outcomes = doc
                .get("outcomes")
                .and_then(|o| o.as_array())
                .expect("outcomes");
            assert_eq!(outcomes.len(), 400);
        }
        // The only acceptable refusal: the unload fully won the race
        // before the sweep job resolved its session.
        ResponseBody::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
    }
    handle.shutdown();
}

#[test]
fn full_queue_answers_busy_instead_of_buffering() {
    // One worker, one queue slot: occupy the worker with a slow sweep,
    // fill the slot, and watch backpressure answer immediately.
    let handle = start_server(1, 1);
    let addr = handle.addr();
    let mut setup = Client::connect(addr).expect("connects");
    let session = setup.load(MODEL).expect("loads");
    let plan = setup.prepare(&session, "exists MCS(T)").expect("prepares");

    let scenarios: String = (0..2000)
        .map(|i| format!("s{i}: A = {}, B = {}\n", i % 2, (i / 2) % 2))
        .collect();
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    let sweep = format!(
        "{{\"id\":1,\"op\":\"sweep\",\"session\":{},\"plan\":{},\"scenarios\":{}}}\n",
        bfl_core::report::json_str(&session),
        bfl_core::report::json_str(&plan),
        bfl_core::report::json_str(&scenarios)
    );
    // The sweep occupies the worker, then a burst of stats requests —
    // the first fills the queue slot, the rest must bounce. The burst
    // has to arrive after the worker took the sweep off the queue and
    // before the sweep ends: written back to back, the shard could parse
    // the burst while the sweep still held the only slot, and every
    // stats bounced. So time one sweep alone first (which also scales
    // the wait to the build profile), and send the burst half-way
    // through the measured sweep.
    let burst: String = (2..8)
        .map(|i| format!("{{\"id\":{i},\"op\":\"stats\"}}\n"))
        .collect();
    let started = std::time::Instant::now();
    let alone = setup.round_trip(sweep.trim_end()).expect("sweeps");
    assert!(Response::parse(&alone).expect("parses").is_ok(), "{alone}");
    let sweep_time = started.elapsed();
    stream.write_all(sweep.as_bytes()).expect("write");
    stream.flush().expect("flush");
    std::thread::sleep(sweep_time / 2);
    stream.write_all(burst.as_bytes()).expect("write");
    stream.flush().expect("flush");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut ok = 0usize;
    let mut busy = 0usize;
    let mut seen_ids = Vec::new();
    for _ in 0..7 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        let response = Response::parse(line.trim_end()).expect("parses");
        seen_ids.push(response.id.expect("echoed id"));
        match response.body {
            ResponseBody::Result(_) => ok += 1,
            ResponseBody::Error { code, .. } => {
                assert_eq!(code, ErrorCode::Busy, "{line}");
                busy += 1;
            }
        }
    }
    // No response lost, and the bounded queue pushed back at least once.
    seen_ids.sort_unstable();
    assert_eq!(seen_ids, (1..=7).collect::<Vec<u64>>());
    assert!(busy >= 1, "expected backpressure (ok {ok}, busy {busy})");
    assert!(ok >= 2, "the sweep and at least one stats must run");

    // After the storm the connection still serves.
    let mut line = String::new();
    stream
        .write_all(b"{\"id\":99,\"op\":\"stats\"}\n")
        .expect("write");
    stream.flush().expect("flush");
    reader.read_line(&mut line).expect("read");
    assert!(Response::parse(line.trim_end()).expect("parses").is_ok());
    handle.shutdown();
}

#[test]
fn scaled_tree_sweeps_reuse_the_compiled_plan_with_bounded_memory() {
    // A 1000-basic-event industrial tree served over the wire: prepare
    // once, sweep the same scenario set twice, and prove through `stats`
    // that the warm round rebuilt nothing (translation-cache misses
    // frozen) and allocated nothing (arena level frozen).
    let model = corpus::scaled_model(1_000);
    let text = galileo::to_galileo(&model.tree, Some(&model.probabilities));
    let names: Vec<&str> = model
        .tree
        .basic_events()
        .iter()
        .map(|&e| model.tree.name(e))
        .collect();
    let scenarios: String = (0..24)
        .map(|i| {
            format!(
                "s{i}: {} = {}, {} = {}, {} = {}\n",
                names[(i * 37) % names.len()],
                i % 2,
                names[(i * 53 + 11) % names.len()],
                (i / 2) % 2,
                names[(i * 101 + 29) % names.len()],
                (i / 4) % 2,
            )
        })
        .collect();

    let handle = start_server(2, 64);
    let mut client = Client::connect(handle.addr()).expect("connects");
    // Witness enumeration is meaningless (and don't-care exponential) at
    // 1000 events; verdict-only sessions are the scale configuration.
    let session = client
        .load_with(
            &text,
            bfl_server::SessionOptions {
                witness_limit: Some(0),
                ..bfl_server::SessionOptions::default()
            },
        )
        .expect("loads the scaled model");
    let plan = client.prepare(&session, "exists top").expect("prepares");

    let read_counters = |client: &mut Client| {
        let doc = client.stats(Some(&session)).expect("stats");
        let stats = doc.get("stats").expect("session stats");
        (
            stats
                .get("cache_misses")
                .and_then(|v| v.as_u64())
                .expect("cache_misses"),
            stats
                .get("arena_nodes")
                .and_then(|v| v.as_u64())
                .expect("arena_nodes"),
        )
    };

    let sweep1 = client.sweep(&session, &plan, &scenarios).expect("sweeps");
    assert_eq!(
        sweep1
            .get("outcomes")
            .and_then(|o| o.as_array())
            .map(<[_]>::len),
        Some(24)
    );
    let (misses_warm, arena_warm) = read_counters(&mut client);
    assert!(arena_warm > 0, "the compiled diagram lives in the arena");

    let sweep2 = client.sweep(&session, &plan, &scenarios).expect("sweeps");
    assert_eq!(
        sweep2
            .get("outcomes")
            .and_then(|o| o.as_array())
            .map(<[_]>::len),
        Some(24)
    );
    let (misses_after, arena_after) = read_counters(&mut client);
    assert_eq!(
        misses_after, misses_warm,
        "warm sweep must not rebuild any plan"
    );
    assert_eq!(
        arena_after, arena_warm,
        "warm sweep must not grow the shared arena"
    );
    client.unload(&session).expect("unloads");
    handle.shutdown();
}

#[test]
fn cause_on_a_scaled_tree_reports_the_exact_model_count() {
    // A complete observation failing exactly one (greedily minimised)
    // cut set keeps the cause space small; the served `total` must be
    // the exact BDD model count — equal to the enumerated sets, no
    // truncation — and agree with the in-process engine.
    let model = corpus::scaled_model(1_000);
    let tree = &model.tree;
    let n = tree.num_basic_events();

    // Greedy repair from the all-failed vector leaves a minimal cut set.
    let mut observation = StatusVector::all_failed(n);
    for i in 0..n {
        let repaired = observation.with(i, false);
        if tree.evaluate(&repaired, tree.top()) {
            observation = repaired;
        }
    }
    assert!(tree.evaluate(&observation, tree.top()));
    let failed = observation.failed_indices();
    assert!(!failed.is_empty());

    let scenario_line: String = (0..n)
        .map(|i| {
            format!(
                "{} = {}",
                tree.name(tree.basic_events()[i]),
                u8::from(observation.get(i))
            )
        })
        .collect::<Vec<_>>()
        .join(", ");

    // Reference run through the in-process engine.
    let reference_session = bfl_core::engine::AnalysisSession::new(tree.clone());
    let query = bfl_core::parser::parse_query("cause(top)").expect("parses");
    let reference_plan = reference_session.prepare(&query).expect("prepares");
    let scenario = (0..n).fold(bfl_core::Scenario::new(), |s, i| {
        s.bind(tree.name(tree.basic_events()[i]), observation.get(i))
    });
    let reference = reference_plan
        .cause(&scenario)
        .expect("causes")
        .causes
        .expect("cause outcome carries a report");
    assert!(
        !reference.truncated,
        "smoke observation must enumerate fully"
    );
    assert_eq!(reference.total, reference.causes.len() as u128);

    // The same question over the wire.
    let handle = start_server(2, 64);
    let mut client = Client::connect(handle.addr()).expect("connects");
    let text = galileo::to_galileo(tree, Some(&model.probabilities));
    let session = client.load(&text).expect("loads");
    let plan = client.prepare(&session, "cause(top)").expect("prepares");
    let outcome = client
        .cause(&session, &plan, &scenario_line)
        .expect("cause");
    let report = outcome.get("causes").expect("outcome carries causes");
    let total = report.get("total").and_then(|v| v.as_u64()).expect("total");
    let sets = report
        .get("sets")
        .and_then(|v| v.as_array())
        .expect("sets array");
    assert_eq!(
        report.get("truncated").and_then(|v| v.as_bool()),
        Some(false),
        "{report}"
    );
    assert_eq!(total, sets.len() as u64, "total must match the model count");
    assert_eq!(
        u128::from(total),
        reference.total,
        "server and engine agree"
    );
    client.unload(&session).expect("unloads");
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_every_accepted_request() {
    let handle = start_server(3, 64);
    let addr = handle.addr();
    let mut setup = Client::connect(addr).expect("connects");
    let session = setup.load(MODEL).expect("loads");

    // Pipeline a batch of real queries followed by `shutdown` on one
    // connection: every request enqueued before the shutdown must be
    // answered (drained), none lost.
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    let n = 20u64;
    let mut batch = String::new();
    for i in 1..=n {
        batch.push_str(&format!(
            "{{\"id\":{i},\"op\":\"check\",\"session\":{},\"query\":\"exists MCS(T) & A\"}}\n",
            bfl_core::report::json_str(&session)
        ));
    }
    batch.push_str(&format!("{{\"id\":{},\"op\":\"shutdown\"}}\n", n + 1));
    stream.write_all(batch.as_bytes()).expect("write");
    stream.flush().expect("flush");

    let mut reader = BufReader::new(stream);
    let mut ids = Vec::new();
    for _ in 0..=n {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        let response = Response::parse(line.trim_end()).expect("parses");
        let id = response.id.expect("echoed id");
        match response.body {
            ResponseBody::Result(result) => {
                if id <= n {
                    assert!(result.contains("\"holds\":true"), "{result}");
                } else {
                    assert!(result.contains("stopping"), "{result}");
                }
            }
            ResponseBody::Error { code, message } => {
                panic!("request {id} lost to {code}: {message}")
            }
        }
        ids.push(id);
    }
    ids.sort_unstable();
    assert_eq!(ids, (1..=n + 1).collect::<Vec<u64>>());

    // The server has fully stopped: joining returns promptly and new
    // connections cannot be served.
    handle.join();
    match Client::connect(addr) {
        // The listener is gone; at most a racing dial can still open a
        // socket, but no request will be answered.
        Err(_) => {}
        Ok(mut client) => {
            assert!(client.stats(None).is_err());
        }
    }
}
