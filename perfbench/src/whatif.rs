//! `whatif`: an interactive what-if session on one loaded 1k-event
//! industrial model (the canonical `corpus::scaled_model(1000)`).
//!
//! Set-up parses and compiles the model, prepares a probability plan and
//! a `cause(top, evidence)` plan, and evaluates every warm scenario once,
//! so the measured operations find the memos filled. The operations are
//! a seeded, fixed list from one caller: `PreparedQuery::probability`
//! and `PreparedQuery::cause` under scenarios binding three events, about
//! a tenth of them fresh (restriction plus a Shannon walk or the cause
//! construction) and the rest repeats (memo hits), with a periodic
//! `sweep_probabilities` over warm scenarios that fans out to nproc
//! threads. Fresh scenarios grow the BDD arena for good, which is why the
//! operation count is fixed rather than bounded by time.

use std::collections::HashSet;
use std::time::Instant;

use bfl_core::engine::AnalysisSession;
use bfl_core::plan::PreparedQuery;
use bfl_core::report::json_causes;
use bfl_core::{CmpOp, Formula, Query, Scenario, ScenarioSet};
use bfl_fault_tree::rng::Prng;
use bfl_fault_tree::{corpus, galileo, FaultTree, StatusVector};

use crate::stats::{median, RunOutput};
use crate::trace::Tracer;

const MODEL_EVENTS: usize = 1_000;
/// Operations per second of a pass. At 3 seconds the ~600 fresh
/// scenarios leave the arena near 0.7M nodes, clear of the unique
/// table's resize at ~0.92M, so peak memory does not jump with the seed.
const OPS_PER_SECOND: f64 = 2_000.0;
const WARM_PROB: usize = 48;
const WARM_CAUSE: usize = 12;
const FRESH_PERCENT: usize = 10;
/// One probability op in this many is a cause op instead (fresh causes
/// cost about ten fresh probabilities).
const CAUSE_EVERY: usize = 5;
const SWEEP_EVERY: usize = 200;
const SWEEP_SIZE: usize = 32;
/// Fresh answers re-derived by the recompute-per-scenario path.
const VERIFY_FRESH: usize = 3;
/// Relative tolerance between the restricted and recompiled
/// probability (the two paths sum the same terms in a different order).
const PROB_TOLERANCE: f64 = 1e-12;

#[derive(Clone, Copy)]
enum Kind {
    Prob,
    Cause,
    Sweep,
}

struct Op {
    kind: Kind,
    /// Index into the warm pool of its kind, or into `fresh`.
    scenario: usize,
    fresh: bool,
}

struct Inputs {
    text: String,
    evidence: Vec<(String, bool)>,
    warm_prob: Vec<Scenario>,
    warm_cause: Vec<Scenario>,
    fresh: Vec<Scenario>,
    sweep: ScenarioSet,
    ops: Vec<Op>,
}

impl Inputs {
    /// The scenario of a probability or cause op: fresh, or from `warm`.
    fn scenario<'a>(&'a self, op: &Op, warm: &'a [Scenario]) -> &'a Scenario {
        if op.fresh {
            &self.fresh[op.scenario]
        } else {
            &warm[op.scenario]
        }
    }
}

/// A small failing observation for the cause plan: the basic events
/// under the first module root, greedily reduced to a minimal set that
/// still fails it (the tree is coherent, so the top fails too).
fn failing_evidence(tree: &FaultTree) -> Vec<(String, bool)> {
    let module = tree.children(tree.top())[0];
    let under = tree.basic_events_under(module);
    let index = |e| tree.basic_index(e).expect("basic event");
    let mut failed = vec![false; tree.num_basic_events()];
    for &e in &under {
        failed[index(e)] = true;
    }
    for &e in &under {
        failed[index(e)] = false;
        if !tree.evaluate(&StatusVector::from_bits(failed.clone()), module) {
            failed[index(e)] = true;
        }
    }
    under
        .iter()
        .filter(|&&e| failed[index(e)])
        .map(|&e| (tree.name(e).to_string(), true))
        .collect()
}

fn generate(seed: u64, pass_seconds: f64) -> Inputs {
    let model = corpus::scaled_model(MODEL_EVENTS);
    let tree = &model.tree;
    let text = galileo::to_galileo(tree, Some(&model.probabilities));
    let evidence = failing_evidence(tree);
    let bound: HashSet<&str> = evidence.iter().map(|(e, _)| e.as_str()).collect();
    let events: Vec<&str> = tree
        .basic_event_names()
        .into_iter()
        .filter(|e| !bound.contains(e))
        .collect();

    let mut rng = Prng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut scenario = |rng: &mut Prng| loop {
        let mut picks: Vec<(usize, bool)> = Vec::new();
        while picks.len() < 3 {
            let e = rng.gen_range(0..events.len());
            if !picks.iter().any(|&(p, _)| p == e) {
                picks.push((e, rng.gen_bool(0.5)));
            }
        }
        picks.sort_unstable();
        if seen.insert(picks.clone()) {
            return Scenario::from_pairs(picks.into_iter().map(|(e, v)| (events[e], v)));
        }
    };
    let warm_prob: Vec<Scenario> = (0..WARM_PROB).map(|_| scenario(&mut rng)).collect();
    let warm_cause: Vec<Scenario> = (0..WARM_CAUSE).map(|_| scenario(&mut rng)).collect();
    let sweep = ScenarioSet::from_scenarios(warm_prob.iter().take(SWEEP_SIZE).cloned());

    let count = (OPS_PER_SECOND * pass_seconds) as usize;
    let mut fresh = Vec::new();
    let mut ops = Vec::with_capacity(count);
    for i in 0..count {
        if i % SWEEP_EVERY == SWEEP_EVERY - 1 {
            ops.push(Op {
                kind: Kind::Sweep,
                scenario: 0,
                fresh: false,
            });
            continue;
        }
        let kind = if rng.gen_range(0..CAUSE_EVERY) == 0 {
            Kind::Cause
        } else {
            Kind::Prob
        };
        let op = if rng.gen_range(0..100) < FRESH_PERCENT {
            fresh.push(scenario(&mut rng));
            Op {
                kind,
                scenario: fresh.len() - 1,
                fresh: true,
            }
        } else {
            let pool = match kind {
                Kind::Cause => WARM_CAUSE,
                _ => WARM_PROB,
            };
            Op {
                kind,
                scenario: rng.gen_range(0..pool),
                fresh: false,
            }
        };
        ops.push(op);
    }
    Inputs {
        text,
        evidence,
        warm_prob,
        warm_cause,
        fresh,
        sweep,
        ops,
    }
}

/// A warm session: both plans prepared and every warm scenario answered.
struct Warm {
    session: AnalysisSession,
    prob: PreparedQuery,
    cause: PreparedQuery,
    prob_query: Query,
    cause_query: Query,
    prob_answers: Vec<f64>,
    cause_answers: Vec<String>,
    prepare_ms: f64,
}

fn set_up(inputs: &Inputs, tr: &mut Tracer) -> Warm {
    let model = tr
        .span("galileo.parse", 0, || galileo::parse(&inputs.text))
        .expect("model parses");
    let session = AnalysisSession::builder()
        .probabilities(model.probabilities)
        .build(model.tree);
    let top = Formula::atom(session.tree().name(session.tree().top()));
    let prob_query = Query::prob(top.clone(), CmpOp::Le, 0.5).expect("0.5 is a probability");
    let cause_query = Query::cause(top, inputs.evidence.iter().cloned());
    let t = Instant::now();
    let prob = tr
        .span("compile", 0, || session.prepare(&prob_query))
        .expect("prepare probability plan");
    let cause = tr
        .span("plan.prepare", 0, || session.prepare(&cause_query))
        .expect("prepare cause plan");
    let prepare_ms = t.elapsed().as_secs_f64() * 1e3;
    let prob_answers = inputs
        .warm_prob
        .iter()
        .map(|s| prob.probability(s).expect("warm probability"))
        .collect();
    let cause_answers = inputs
        .warm_cause
        .iter()
        .map(|s| cause_json(&session, &cause.cause(s).expect("warm cause")))
        .collect();
    Warm {
        session,
        prob,
        cause,
        prob_query,
        cause_query,
        prob_answers,
        cause_answers,
        prepare_ms,
    }
}

fn cause_json(session: &AnalysisSession, o: &bfl_core::Outcome) -> String {
    o.causes
        .as_ref()
        .map_or_else(|| "null".to_string(), |r| json_causes(session.tree(), r))
}

fn same_probability(a: f64, b: f64) -> bool {
    (a - b).abs() <= PROB_TOLERANCE * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// A sample of fresh answers must equal the recompute-per-scenario path:
/// a separate session checking the evidence-wrapped query.
fn verify_fresh(inputs: &Inputs, w: &Warm, pass: &Pass, out: &mut RunOutput) {
    let reference = AnalysisSession::builder()
        .probabilities(
            w.session
                .probabilities()
                .map(<[_]>::to_vec)
                .unwrap_or_default(),
        )
        .build(w.session.tree_arc());
    let top = reference.tree().name(reference.tree().top()).to_string();
    for &(k, p) in pass.fresh_prob.iter().take(VERIFY_FRESH) {
        let s = &inputs.fresh[k];
        let q = reference.check_query(&s.specialise_query(&w.prob_query, &top));
        out.check(
            q.as_ref()
                .ok()
                .and_then(|o| o.probability)
                .is_some_and(|r| same_probability(p, r)),
            || format!("fresh P(top) under {s} = {p}, recomputed {q:?}"),
        );
    }
    for (k, c) in pass.fresh_cause.iter().take(VERIFY_FRESH) {
        let s = &inputs.fresh[*k];
        let q = reference.check_query(&s.specialise_query(&w.cause_query, &top));
        out.check(
            q.as_ref().is_ok_and(|o| cause_json(&reference, o) == *c),
            || format!("fresh causes under {s} differ from the recomputed ones"),
        );
    }
}

/// What one pass over the operation list observed.
#[derive(Default)]
struct Pass {
    arena_growth: usize,
    misses: u64,
    memo_hits: u64,
    memo_misses: u64,
    fresh_prob: Vec<(usize, f64)>,
    fresh_cause: Vec<(usize, String)>,
}

/// Runs every operation once on the warm session `w`, timing each into
/// `op_us` (keeping the fastest time seen) and checking its answer after
/// the timer stops.
fn run_pass(inputs: &Inputs, w: &Warm, tr: &mut Tracer, out: &mut RunOutput) -> Pass {
    let mut pass = Pass::default();
    let arena_before = w.session.stats().arena_nodes;
    let memo_before = w.cause.stats();
    for (i, op) in inputs.ops.iter().enumerate() {
        let id = i as u32;
        let t = Instant::now();
        match op.kind {
            Kind::Prob => {
                let s = inputs.scenario(op, &inputs.warm_prob);
                let name = if op.fresh {
                    "plan.prob_miss"
                } else {
                    "plan.hit"
                };
                let p = tr.span(name, id, || w.prob.probability(s));
                out.keep_fastest(i, t);
                match p {
                    Ok(p) if op.fresh => pass.fresh_prob.push((op.scenario, p)),
                    Ok(p) => out.check(same_probability(p, w.prob_answers[op.scenario]), || {
                        format!("memoised probability changed under {s}")
                    }),
                    Err(e) => out.fail(format!("probability under {s}: {e}")),
                }
            }
            Kind::Cause => {
                let s = inputs.scenario(op, &inputs.warm_cause);
                let name = if op.fresh {
                    "causality.miss"
                } else {
                    "plan.hit"
                };
                let o = tr.span(name, id, || w.cause.cause(s));
                out.keep_fastest(i, t);
                match o {
                    Ok(o) if op.fresh => pass
                        .fresh_cause
                        .push((op.scenario, cause_json(&w.session, &o))),
                    Ok(o) => out.check(
                        cause_json(&w.session, &o) == w.cause_answers[op.scenario],
                        || format!("memoised causes changed under {s}"),
                    ),
                    Err(e) => out.fail(format!("cause under {s}: {e}")),
                }
            }
            Kind::Sweep => {
                let r = tr.span("plan.sweep", id, || {
                    w.prob.sweep_probabilities(&inputs.sweep)
                });
                out.keep_fastest(i, t);
                match r {
                    Ok(r) => {
                        pass.memo_hits += r.stats.memo_hits;
                        pass.memo_misses += r.stats.memo_misses;
                        let expected = &w.prob_answers[..inputs.sweep.len()];
                        let ok = r.outcomes.len() == expected.len()
                            && r.outcomes.iter().zip(expected).all(|(o, &p)| {
                                o.probability.is_some_and(|q| same_probability(p, q))
                            });
                        out.check(ok, || "sweep disagrees with the warm answers".to_string());
                    }
                    Err(e) => out.fail(format!("sweep: {e}")),
                }
            }
        }
        out.attempted += 1;
        pass.misses += u64::from(op.fresh);
    }
    let memo_after = w.cause.stats();
    pass.memo_hits += memo_after.memo_hits - memo_before.memo_hits;
    pass.memo_misses += memo_after.memo_misses - memo_before.memo_misses;
    pass.arena_growth = w.session.stats().arena_nodes - arena_before;
    pass
}

/// Every pass runs the same operations from the same state. An
/// operation's latency is the fastest of its passes: the work is
/// deterministic, and slower passes measure other tenants' use of the
/// host's shared cache.
pub fn run(seed: u64, pass_seconds: f64, traced: bool, passes: u64) -> RunOutput {
    let inputs = generate(seed, pass_seconds);
    let mut out = RunOutput {
        correct: true,
        op_us: vec![f64::INFINITY; inputs.ops.len()],
        ..RunOutput::default()
    };
    let mut tr = Tracer::new(traced);
    let mut prepare_ms = Vec::new();
    let mut first: Option<Pass> = None;
    // Each pass starts from a fresh warm session, so fresh scenarios are
    // memo misses in every pass.
    for _ in 0..passes {
        let t = Instant::now();
        let w = set_up(&inputs, &mut tr);
        out.setup_s.push(t.elapsed().as_secs_f64());
        prepare_ms.push(w.prepare_ms);
        let pass = run_pass(&inputs, &w, &mut tr, &mut out);
        match &first {
            None => {
                verify_fresh(&inputs, &w, &pass, &mut out);
                first = Some(pass);
            }
            Some(p) => out.check(
                pass.fresh_prob == p.fresh_prob && pass.fresh_cause == p.fresh_cause,
                || "fresh answers changed between passes".to_string(),
            ),
        }
    }
    out.measured_s = out.op_us.iter().sum::<f64>() / 1e6;
    let pass = first.expect("at least one pass");

    if traced {
        let m = &mut out.layers;
        m.put(
            "bdd.arena_growth_per_miss",
            pass.arena_growth as f64 / pass.misses.max(1) as f64,
            "count",
        );
        m.put("plan.prepare_ms", median(prepare_ms), "ms");
        m.put("plan.hit_us", median(tr.micros_of("plan.hit")), "us");
        m.put(
            "plan.prob_miss_us",
            median(tr.micros_of("plan.prob_miss")),
            "us",
        );
        m.put(
            "causality.miss_us",
            median(tr.micros_of("causality.miss")),
            "us",
        );
        m.put(
            "plan.hit_ratio",
            pass.memo_hits as f64 / (pass.memo_hits + pass.memo_misses).max(1) as f64,
            "ratio",
        );
        m.put("plan.sweep_ms", tr.total_ms("plan.sweep"), "ms");
    }
    out.tracer = Some(tr);
    out
}
