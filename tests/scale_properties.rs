//! Metamorphic properties of the scaled industrial corpus and the
//! parallel modular BDD construction pipeline.
//!
//! The `corpus::scaled` family is generated, not hand-written, so these
//! tests pin down relations that must hold for *any* correct generator
//! and compiler rather than expected outputs:
//!
//! * **monotone coherence** — failing more basic events never repairs
//!   the top event (generated trees use only AND/OR/VOT, all monotone);
//! * **module-local probability factorization** — replacing each
//!   top-level module by a fresh basic event carrying the module's
//!   exact BDD probability leaves `P(top)` unchanged;
//! * **parallel ≡ sequential** — `compile_parallel` produces the same
//!   diagram node-for-node as the sequential compiler, for every
//!   element and worker count;
//! * **idempotent maintenance** — after a parallel compile and stitch,
//!   a second GC collects nothing and a second sift changes nothing;
//! * **engine surface** — `SessionBuilder::parallelism(n)` threads the
//!   construction report through to `Plan::explain()`;
//! * **linear sequential compile** — deepest-first gate folds leave
//!   almost no dead nodes in the arena, and return the same handle as a
//!   plain left fold over any operand order;
//! * **witnesses at scale** — `exists top` on a 1000-event tree yields
//!   witness vectors that satisfy the top event.

// Test-support helpers outside `#[test]` fns: panicking is the
// correct failure mode here, same as in the tests themselves.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use bfl_bdd::{Bdd, Manager};
use bfl_core::engine::AnalysisSession;
use bfl_core::{parser, Scenario};
use bfl_fault_tree::bdd::{vot_threshold, TreeBdd};
use bfl_fault_tree::rng::Prng;
use bfl_fault_tree::{corpus, modules, prob};
use bfl_fault_tree::{FaultTreeBuilder, GateType, StatusVector, VariableOrdering};

/// Pseudo-random status vector with each basic event failed with
/// probability ~`num/denom`.
fn random_vector(rng: &mut Prng, len: usize, num: usize, denom: usize) -> StatusVector {
    StatusVector::from_bits((0..len).map(|_| rng.gen_range(0..denom) < num))
}

#[test]
fn monotone_coherence_failing_more_never_unfails_top() {
    let tree = corpus::scaled(1_000);
    let n = tree.num_basic_events();
    let mut rng = Prng::seed_from_u64(0xC0_4E7E);
    for _ in 0..40 {
        let base = random_vector(&mut rng, n, 3, 10);
        let before = tree.evaluate(&base, tree.top());
        // Flip a handful of operational events to failed: a superset of
        // failures. Coherence: top can only go false -> true.
        let mut worse = base.clone();
        for _ in 0..8 {
            worse.set(rng.gen_range(0..n), true);
        }
        let after = tree.evaluate(&worse, tree.top());
        assert!(
            after || !before,
            "failing more events un-failed the top event"
        );
    }
}

#[test]
fn module_probabilities_factorize_through_a_quotient_tree() {
    let model = corpus::scaled_model(1_000);
    let tree = &model.tree;
    let probs: Vec<f64> = model.probabilities.iter().map(|p| p.unwrap()).collect();

    let mut tb = TreeBdd::new(tree, VariableOrdering::DfsPreorder);
    let top = tb.element_bdd(tree, tree.top());
    let p_top = prob::bdd_probability(tree, &tb, top, &probs).expect("probs valid");

    // The generator's top gate is an OR over pairwise-independent module
    // roots; each must be a module of the whole tree.
    let all_modules = modules::modules(tree);
    let roots: Vec<_> = tree.children(tree.top()).to_vec();
    assert!(roots.len() > 1);
    let mut quotient_probs = Vec::new();
    let mut b = FaultTreeBuilder::new();
    for (i, &root) in roots.iter().enumerate() {
        assert!(
            all_modules.contains(&root),
            "top child {} is not a module",
            tree.name(root)
        );
        let f = tb.element_bdd(tree, root);
        quotient_probs.push(prob::bdd_probability(tree, &tb, f, &probs).unwrap());
        b.basic_event(&format!("q{i}")).unwrap();
    }
    // Quotient tree: each module collapsed to one basic event with the
    // module's exact failure probability.
    b.gate(
        "top",
        GateType::Or,
        (0..roots.len()).map(|i| format!("q{i}")),
    )
    .unwrap();
    let quotient = b.build("top").unwrap();
    let p_quotient = prob::top_event_probability(&quotient, &quotient_probs).unwrap();

    let rel = (p_top - p_quotient).abs() / p_top.max(f64::MIN_POSITIVE);
    assert!(
        rel < 1e-12,
        "factorization broke: P(top) = {p_top}, quotient = {p_quotient}"
    );
}

#[test]
fn parallel_compile_matches_sequential_node_for_node() {
    let tree = corpus::scaled(1_000);
    let mut seq = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
    let top_s = seq.element_bdd(&tree, tree.top());
    for workers in [2, 4] {
        let mut par = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        let stats = par.compile_parallel(&tree, workers);
        assert!(stats.modules_detected >= 2, "scaled trees have modules");
        assert_eq!(stats.modules.len(), stats.modules_detected);
        // Canonicity with a shared variable order makes the compiled
        // diagrams identical per element, not merely equivalent.
        for e in tree.iter() {
            let fs = seq.element_bdd(&tree, e);
            let fp = par.element_bdd(&tree, e);
            assert_eq!(
                seq.manager().node_count(fs),
                par.manager().node_count(fp),
                "node count of {} with {workers} workers",
                tree.name(e)
            );
        }
        let top_p = par.element_bdd(&tree, tree.top());
        let mut rng = Prng::seed_from_u64(0xD1FF ^ workers as u64);
        for _ in 0..25 {
            let v = random_vector(&mut rng, tree.num_basic_events(), 1, 2);
            let expected = tree.evaluate(&v, tree.top());
            assert_eq!(seq.eval_vector(&tree, top_s, &v), expected);
            assert_eq!(par.eval_vector(&tree, top_p, &v), expected);
        }
        // The stitched arena is indistinguishable from a sequential
        // build under the full invariant audit.
        let report = par.manager().audit();
        assert!(report.is_ok(), "arena after {workers}-way import: {report}");
    }
    let report = seq.manager().audit();
    assert!(report.is_ok(), "sequential arena: {report}");
}

#[test]
fn gc_and_sift_are_idempotent_after_stitching() {
    // Module-rich but small enough that debug-mode sifting (quadratic in
    // the variable count) stays cheap: 4 cones of ~25 elements each,
    // above the parallel compiler's minimum-cone threshold.
    let tree =
        bfl_fault_tree::generator::industrial_tree(&bfl_fault_tree::generator::IndustrialConfig {
            num_basic: 100,
            num_modules: 4,
            ..Default::default()
        });
    let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
    let stats = tb.compile_parallel(&tree, 4);
    assert!(
        stats.modules_detected >= 2,
        "tree must exercise the import path"
    );
    let _ = tb.element_bdd(&tree, tree.top());

    // Imported arenas hold only reachable nodes plus whatever the final
    // spine compile created; one GC reaches the fixpoint.
    let _ = tb.collect_garbage();
    let gc2 = tb.collect_garbage();
    assert_eq!(gc2.collected, 0, "second GC found garbage after import");

    // Sifting is deterministic and converges: a repeated run must not
    // find a better order.
    let sift1 = tb.sift();
    let sift2 = tb.sift();
    assert_eq!(
        sift2.live_after, sift1.live_after,
        "second sift changed the diagram size"
    );
    let audit = tb.manager().audit();
    assert!(audit.is_ok(), "arena after gc+sift fixpoint: {audit}");

    // Maintenance preserved semantics.
    let top = tb.element_bdd(&tree, tree.top());
    let mut rng = Prng::seed_from_u64(0x51F7);
    for _ in 0..25 {
        let v = random_vector(&mut rng, tree.num_basic_events(), 1, 2);
        assert_eq!(
            tb.eval_vector(&tree, top, &v),
            tree.evaluate(&v, tree.top())
        );
    }
}

#[test]
fn session_parallelism_reports_construction_in_plans() {
    let model = corpus::scaled_model(1_000);
    let probs: Vec<Option<f64>> = model.probabilities.clone();
    let parallel = AnalysisSession::builder()
        .parallelism(4)
        .probabilities(probs.clone())
        .build(model.tree.clone());
    let report = parallel
        .construction_report()
        .expect("parallelism(4) records a construction report");
    assert!(report.workers >= 1);
    assert!(report.modules_detected >= 2);
    assert!(!report.modules.is_empty());

    let q = parser::parse_query("exists top").unwrap();
    let prepared = parallel.prepare(&q).unwrap();
    let plan = prepared.explain();
    let json = plan.to_json();
    assert!(
        json.contains("\"construction\":{"),
        "plan JSON must inline the construction report: {json}"
    );

    // The parallel session answers bit-identically to a default one,
    // compared through the probability channel, which walks the whole
    // shared diagram.
    let sequential = AnalysisSession::builder()
        .probabilities(probs)
        .build(model.tree);
    assert!(sequential.construction_report().is_none());
    let seq_prepared = sequential.prepare(&q).unwrap();
    let p_par = prepared.probability(&Scenario::new()).unwrap();
    let p_seq = seq_prepared.probability(&Scenario::new()).unwrap();
    assert_eq!(p_par.to_bits(), p_seq.to_bits());
    assert!(
        seq_prepared
            .explain()
            .to_json()
            .contains("\"construction\":null"),
        "sequential plans must say construction is absent"
    );

    // An explicit maintenance cycle on a parallel-built session runs
    // the arena audit and finds nothing to complain about. Exercised on
    // the 100-event corpus entry: maintain() sifts, and debug-mode
    // sifting is quadratic in the variable count, so the 1000-event
    // session above would dominate the whole suite's runtime.
    let small = corpus::scaled_model(100);
    let maintained = AnalysisSession::builder()
        .parallelism(4)
        .probabilities(small.probabilities)
        .build(small.tree);
    let _ = maintained.prepare(&q).unwrap();
    maintained.maintain();
    let stats = maintained.maintenance_stats();
    assert!(stats.audits_run >= 1);
    assert_eq!(stats.audit_violations, 0, "stitched arena must audit clean");
}

#[test]
fn sequential_compile_leaves_few_dead_nodes_at_10k() {
    // A fold that puts each new operand below its accumulator copies the
    // accumulator at every step; at 10k events that left ~22 dead nodes
    // per live one. Deepest-first folds copy each operand once.
    let tree = corpus::scaled(10_000);
    let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
    let _ = tb.element_bdd(&tree, tree.top());
    let arena = tb.manager().arena_size();
    let live = tb.live_node_count(&[]);
    assert!(
        arena as f64 <= 1.25 * live as f64,
        "arena holds {arena} nodes for {live} live ones"
    );
    let report = tb.manager().audit();
    assert!(report.is_ok(), "arena after a 10k compile: {report}");
}

/// Fisher–Yates shuffle driven by the in-tree SplitMix64.
fn shuffle(rng: &mut Prng, xs: &mut [Bdd]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..=i));
    }
}

/// "At least `k` of `fs`" by the threshold recurrence, taking the
/// operands in the order given.
fn vot_in_given_order(m: &mut Manager, fs: &[Bdd], k: usize) -> Bdd {
    if k == 0 {
        return m.top();
    }
    if k > fs.len() {
        return m.bot();
    }
    let mut row = vec![m.bot(); k + 1];
    row[0] = m.top();
    for &f in fs {
        for j in (1..=k).rev() {
            row[j] = m.ite(f, row[j - 1], row[j]);
        }
    }
    row[k]
}

#[test]
fn n_ary_folds_equal_a_left_fold_in_any_operand_order() {
    // Operands are element diagrams of a module-rich tree: disjoint
    // module cones, nested gates with overlapping support, and literals.
    let tree = corpus::scaled(400);
    let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
    let pool: Vec<Bdd> = tree.iter().map(|e| tb.element_bdd(&tree, e)).collect();
    let m = tb.manager_mut();
    let mut rng = Prng::seed_from_u64(0xF01D);
    for round in 0..60 {
        let len = rng.gen_range(0..12);
        let mut ops: Vec<Bdd> = (0..len)
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        shuffle(&mut rng, &mut ops);
        let and_left = ops.iter().fold(m.top(), |acc, &f| m.and(acc, f));
        let or_left = ops.iter().fold(m.bot(), |acc, &f| m.or(acc, f));
        assert_eq!(m.and_all(ops.iter().copied()), and_left, "round {round}");
        assert_eq!(m.or_all(ops.iter().copied()), or_left, "round {round}");
        let k = rng.gen_range(0..=len + 1);
        let vot_left = vot_in_given_order(m, &ops, k);
        assert_eq!(
            vot_threshold(m, &ops, k as u32),
            vot_left,
            "round {round}, k = {k}"
        );
    }
    let report = tb.manager().audit();
    assert!(report.is_ok(), "arena after shuffled folds: {report}");
}

#[test]
fn exists_top_returns_witnesses_at_1000_events() {
    // Every satisfying path of the top event leaves hundreds of events
    // free; witness expansion must not depend on how many.
    let tree = corpus::scaled(1_000);
    let session = AnalysisSession::new(tree.clone());
    let outcome = session
        .check_query(&parser::parse_query("exists top").unwrap())
        .unwrap();
    assert!(outcome.holds);
    assert!(!outcome.witnesses.is_empty());
    for w in &outcome.witnesses {
        assert!(tree.evaluate(w, tree.top()), "witness {w} misses the top");
    }
}
