//! `compile`: cold batch analysis of industrial models (seeded ones at 1k
//! and 2k events, the canonical ones at 5k and 10k), like `bfl run` on a
//! directory of trees.
//!
//! Set-up is the Galileo parse of every model. Each operation is one
//! model: build a session, compile through `prepare(P(top) <= 0.5)`, then
//! answer a fixed spec through `check_query`: P(top), P(top | e), one
//! `MCS` query (on the 2k models only: its cost varies widely between
//! models, and at 10k it takes a second and half a GiB) and one
//! witness-producing Boolean check. Nearly all of the
//! time is in the BDD kernel and the fault-tree compile; the workload
//! never touches the server or the scenario memos.
//!
//! The Boolean check `exists top` enumerates witnesses by don't-care
//! expansion, which panics when a path leaves 63 or more variables free
//! (every model here does). The panic is caught per operation and the
//! operation is counted as failed; it ends after the other answers.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use bfl_core::engine::AnalysisSession;
use bfl_core::parser::parse_query;
use bfl_core::uncertainty::estimate_probability;
use bfl_core::{Formula, Query};
use bfl_fault_tree::bdd::TreeBdd;
use bfl_fault_tree::rng::Prng;
use bfl_fault_tree::{corpus, galileo, generator, FaultTree, VariableOrdering};

use crate::stats::{median, nproc, RunOutput};
use crate::trace::Tracer;

/// Models per size for a 10-second pass. The median operation is a 1k
/// model, whose working set stays in a core's private cache, so it moves
/// little with other tenants' use of the host's memory; the 10k model
/// carries the superlinear compile that ROADMAP's gate compares against
/// 1k. Its arena does not fit any cache, so its time swings most with
/// the host: at over a second per compile it is kept to one per pass and
/// to under half of the pass's time. At `--seconds 30` a pass runs 180
/// models, so the ten passes give 1,800 latency samples with 18 beyond
/// the 99th percentile: the ten 10k samples and the eight slowest 5k
/// ones. `p99_us` is then the 5k model's second-fastest pass, which slow
/// spells of the host shorter than a run move little (its median pass
/// moves by up to a third). A spell as long as the run still moves it
/// about 2.5 times as much as `p50_us`: the 5k arena does not fit a
/// cache, while a 1k model's does.
const MIX: [(usize, usize); 4] = [(1_000, 580), (2_000, 12), (5_000, 2), (10_000, 2)];
/// Models of this size and larger are the canonical
/// `corpus::scaled_model`s, the same for every seed. A pass holds one 5k
/// and one 10k model, and their compile time varies by a third between
/// seeds, so seeded ones would let the seed rather than the program set
/// `p99_us` (the 5k model) and much of `ops_per_s` (the 10k model).
const CANONICAL_FROM: usize = 5_000;
/// Size of the models the `MCS` query runs on.
const MCS_EVENTS: usize = 2_000;

/// Monte Carlo check of P(top): samples, confidence and sampler seed.
/// Sampling costs samples times events; 1,000 samples keep the check of
/// a run's 180 models near five seconds.
const MC_SAMPLES: u64 = 1_000;
const MC_CONFIDENCE: f64 = 0.999_999;
const MC_SEED: u64 = 0xB0F1;

/// One generated model: its size and its Galileo text.
struct Input {
    size: usize,
    text: String,
}

fn generate(seed: u64, pass_seconds: f64) -> Vec<Input> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut inputs = Vec::new();
    for (size, per_10s) in MIX {
        let count = (per_10s as f64 * pass_seconds / 10.0).round().max(1.0) as usize;
        for _ in 0..count {
            let model = if size >= CANONICAL_FROM {
                corpus::scaled_model(size)
            } else {
                let mut config = corpus::scaled_config(size);
                config.seed = rng.next_u64();
                generator::industrial_model(&config)
            };
            let text = galileo::to_galileo(&model.tree, Some(&model.probabilities));
            inputs.push(Input { size, text });
        }
    }
    // Seeded order, so no size class always runs first.
    for i in (1..inputs.len()).rev() {
        inputs.swap(i, rng.gen_range(0..=i));
    }
    inputs
}

struct Model {
    size: usize,
    tree: Arc<FaultTree>,
    probabilities: Vec<Option<f64>>,
}

/// The fixed spec of one model.
struct Spec {
    prob: Query,
    cond: Query,
    mcs: Option<Query>,
    witness: Query,
}

fn spec(tree: &FaultTree) -> Spec {
    let top = tree.name(tree.top());
    // MCS of a gate two levels below the first module root: minimality
    // still ranges over the whole tree, so the cost tracks tree size.
    let mut gate = tree.children(tree.top())[0];
    for _ in 0..2 {
        if let Some(&child) = tree.children(gate).iter().find(|&&c| !tree.is_basic(c)) {
            gate = child;
        }
    }
    let event = tree.name(tree.basic_events_under(gate)[0]);
    let parse = |q: String| parse_query(&q).expect("benchmark query parses");
    Spec {
        prob: parse(format!("P({top}) <= 0.5")),
        cond: parse(format!("P({top} | {event}) <= 0.5")),
        mcs: (tree.num_basic_events() == MCS_EVENTS)
            .then(|| parse(format!("exists MCS({}) & {event}", tree.name(gate)))),
        witness: parse(format!("exists {top}")),
    }
}

/// Answers recorded by one operation before it ended.
#[derive(Default)]
struct Answers {
    p_top: Option<f64>,
    top_nodes: usize,
}

fn parse_all(inputs: &[Input], tr: &mut Tracer) -> Vec<Model> {
    inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let model = tr
                .span("galileo.parse", i as u32, || galileo::parse(&input.text))
                .expect("generated model parses");
            Model {
                size: input.size,
                tree: Arc::new(model.tree),
                probabilities: model.probabilities,
            }
        })
        .collect()
}

fn run_op(model: &Model, spec: &Spec, op: u32, tr: &mut Tracer, ans: &mut Answers) {
    let session = tr.span("engine.session", op, || {
        AnalysisSession::builder()
            .probabilities(model.probabilities.clone())
            .build(Arc::clone(&model.tree))
    });
    let plan = tr
        .span("compile", op, || session.prepare(&spec.prob))
        .expect("prepare P(top)");
    ans.top_nodes = plan.explain().operands[0].bdd_nodes;
    let o = tr
        .span("quant.prob", op, || session.check_query(&spec.prob))
        .expect("P(top)");
    ans.p_top = o.probability;
    tr.span("quant.prob", op, || session.check_query(&spec.cond))
        .expect("P(top | e)");
    if let Some(mcs) = &spec.mcs {
        tr.span("checker.mcs", op, || session.check_query(mcs))
            .expect("MCS query");
    }
    // The span ends even when the check panics; the panic then ends the
    // operation.
    let witness = tr.span("engine.check", op, || {
        catch_unwind(AssertUnwindSafe(|| session.check_query(&spec.witness)))
    });
    match witness {
        Ok(o) => drop(o.expect("witness check")),
        Err(panic) => resume_unwind(panic),
    }
}

/// Arena and live nodes of compiling the top event alone, as in
/// ROADMAP's baseline table.
fn arena_probe(model: &Model) -> (usize, usize) {
    let mut tb = TreeBdd::new(&model.tree, VariableOrdering::DfsPreorder);
    tb.element_bdd(&model.tree, model.tree.top());
    (tb.manager().arena_size(), tb.live_node_count(&[]))
}

/// Every pass parses the models again (the set-ups, spread over the run)
/// and runs the same operations from the same state. An operation's
/// latency (`p50_us`, `ops_per_s`) is the fastest of its passes: the work
/// is deterministic, and slower passes measure other tenants' use of the
/// host's shared cache. A run has too few operations for a 99th
/// percentile of those, so `p99_us` is taken over every pass's samples.
pub fn run(seed: u64, pass_seconds: f64, traced: bool, passes: u64) -> RunOutput {
    let inputs = generate(seed, pass_seconds);
    let mut out = RunOutput {
        correct: true,
        op_us: vec![f64::INFINITY; inputs.len()],
        ..RunOutput::default()
    };
    let mut tr = Tracer::new(traced);
    let mut models = Vec::new();
    let mut specs = Vec::new();
    let mut answers: Vec<Answers> = Vec::with_capacity(inputs.len());
    for pass in 0..passes {
        drop(std::mem::take(&mut models));
        let t = Instant::now();
        models = parse_all(&inputs, &mut tr);
        out.setup_s.push(t.elapsed().as_secs_f64());
        if pass == 0 {
            specs = models.iter().map(|m| spec(&m.tree)).collect();
        }
        for (i, (model, spec)) in models.iter().zip(&specs).enumerate() {
            let mut ans = Answers::default();
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_op(model, spec, i as u32, &mut tr, &mut ans)
            }));
            let us = out.keep_fastest(i, t);
            out.samples_us.push(us);
            out.attempted += 1;
            if result.is_err() {
                out.failed += 1;
            }
            if pass == 0 {
                answers.push(ans);
            } else {
                let first = answers[i].p_top.map(f64::to_bits);
                out.check(ans.p_top.map(f64::to_bits) == first, || {
                    format!("P(top) of model {i} changed between passes")
                });
            }
        }
    }
    out.measured_s = out.op_us.iter().sum::<f64>() / 1e6;

    // Correctness, outside the timed region: the compiled P(top) must lie
    // inside the confidence interval of the BDD-free sampler.
    for (model, ans) in models.iter().zip(&answers) {
        let Some(p) = ans.p_top else {
            out.check(false, || "P(top) was not answered".to_string());
            continue;
        };
        let probs: Vec<f64> = model
            .probabilities
            .iter()
            .map(|p| p.unwrap_or(0.0))
            .collect();
        let top = Formula::atom(model.tree.name(model.tree.top()));
        let est = estimate_probability(
            &model.tree,
            &probs,
            &top,
            None,
            &[],
            MC_SAMPLES,
            MC_SEED,
            MC_CONFIDENCE,
            nproc(),
        );
        match est {
            Ok(Some(e)) => out.check(e.ci_lo <= p && p <= e.ci_hi, || {
                format!(
                    "P(top) = {p} outside the Monte Carlo interval [{}, {}] ({} events)",
                    e.ci_lo, e.ci_hi, model.size
                )
            }),
            other => out.check(false, || format!("Monte Carlo estimate failed: {other:?}")),
        }
    }

    if traced {
        let m = &mut out.layers;
        let parse_ms = median(out.setup_s.clone()) * 1e3;
        let bytes: usize = inputs.iter().map(|i| i.text.len()).sum();
        m.put("galileo.parse_ms", parse_ms, "ms");
        m.put(
            "galileo.mb_per_s",
            bytes as f64 / 1e6 / (parse_ms / 1e3),
            "MB/s",
        );
        m.put("compile.ms", tr.total_ms("compile"), "ms");
        let mut per_size: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for s in tr.spans().iter().filter(|s| s.name == "compile") {
            let op = s.op as usize;
            per_size
                .entry(models[op].size)
                .or_default()
                .push(answers[op].top_nodes as f64 / (s.micros() / 1e6));
        }
        for (size, rates) in per_size {
            m.put(
                format!("compile.nodes_per_s.{}k", size / 1000),
                median(rates),
                "1/s",
            );
        }
        // Kernel waste where it is largest: a model of the largest size.
        let largest = models.iter().max_by_key(|m| m.size).expect("models");
        let (arena, live) = arena_probe(largest);
        m.put("bdd.arena_nodes", arena as f64, "count");
        m.put("bdd.live_nodes", live as f64, "count");
        m.put(
            "bdd.dead_per_live",
            (arena - live) as f64 / live as f64,
            "ratio",
        );
        m.put("quant.prob_ms", tr.total_ms("quant.prob"), "ms");
        m.put("checker.mcs_ms", tr.total_ms("checker.mcs"), "ms");
        m.put("engine.check_ms", tr.total_ms("engine.check"), "ms");
    }
    out.tracer = Some(tr);
    out
}
