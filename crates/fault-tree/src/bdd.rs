//! The `Ψ_FT` translation of Definition 6: fault trees to BDDs.
//!
//! [`TreeBdd`] owns a [`Manager`] whose variables interleave each basic
//! event with a *primed* copy: the basic event at ordering position `p`
//! gets variable id `2p`, its primed copy id `2p + 1` (and a fresh
//! manager places ids at the matching levels). The primed variables
//! implement the `V ↷ V′` renaming of the paper's `MCS`/`MPS`
//! translations; ordinary gate translation only touches unprimed
//! variables.
//!
//! Dynamic maintenance: [`TreeBdd::sift`] improves the variable order in
//! place with Rudell sifting — always in glued *(event, primed)* blocks,
//! so each primed variable stays immediately below its event and the
//! `V ↷ V′` renaming remains order-preserving — and
//! [`TreeBdd::collect_garbage`] compacts the arena, remapping the
//! element-translation cache (plus any caller-owned handles) through the
//! sweep.

use std::collections::HashMap;
use std::time::Instant;

use bfl_bdd::{Bdd, GcStats, Manager, SiftOptions, SiftStats, Var};

use crate::model::{ElementId, FaultTree, GateType};
use crate::modules;
use crate::order::VariableOrdering;
use crate::status::StatusVector;

/// Statistics of one module compiled by [`TreeBdd::compile_parallel`].
#[derive(Debug, Clone)]
pub struct ModuleCompileStat {
    /// The module's root gate.
    pub root: ElementId,
    /// Elements in the module's cone (root included).
    pub cone: usize,
    /// Reachable BDD nodes of the module root's diagram (terminals
    /// included), measured in the worker arena before stitching.
    pub nodes: usize,
    /// Worker-side compile time for this module, in microseconds.
    pub micros: u64,
    /// Index of the worker that compiled it.
    pub worker: usize,
}

/// Statistics returned by [`TreeBdd::compile_parallel`].
#[derive(Debug, Clone)]
pub struct ParallelCompileStats {
    /// Worker threads actually used (1 on the sequential fallback).
    pub workers: usize,
    /// Independent modules that met the cone-size threshold.
    pub modules_detected: usize,
    /// Per-module compile statistics, in module discovery order.
    pub modules: Vec<ModuleCompileStat>,
    /// Time spent importing worker diagrams into the parent arena, µs.
    pub stitch_micros: u64,
    /// End-to-end wall-clock of the whole compile, µs.
    pub total_micros: u64,
}

/// A fault tree compiled to BDDs: one diagram per element, sharing one
/// manager.
///
/// # Example
///
/// ```
/// use bfl_fault_tree::{corpus, bdd::TreeBdd, VariableOrdering};
/// let tree = corpus::fig1();
/// let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
/// let top = tb.element_bdd(&tree, tree.top());
/// // Φ evaluates to 1 when IW and H3 both fail (an MCS of Fig. 1).
/// let b = bfl_fault_tree::StatusVector::from_failed_names(&tree, &["IW", "H3"]);
/// assert!(tb.eval_vector(&tree, top, &b));
/// ```
#[derive(Debug)]
pub struct TreeBdd {
    manager: Manager,
    /// Basic events in variable order (position -> element).
    order: Vec<ElementId>,
    /// basic index -> ordering position.
    position: Vec<usize>,
    /// ordering position -> basic index (inverse of `position`).
    basic_at: Vec<usize>,
    /// element index -> translated BDD (lazily filled).
    cache: HashMap<u32, Bdd>,
    /// Identity check: number of elements of the tree this was built for.
    tree_len: usize,
}

impl TreeBdd {
    /// Compiles nothing yet; allocates `2·|BE|` variables (unprimed and
    /// primed, interleaved) for `tree` using `ordering`.
    pub fn new(tree: &FaultTree, ordering: VariableOrdering) -> Self {
        Self::with_order(tree, ordering.order(tree))
    }

    /// Like [`TreeBdd::new`] with an explicit basic-event permutation.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the tree's basic events.
    pub fn with_order(tree: &FaultTree, order: Vec<ElementId>) -> Self {
        assert_eq!(order.len(), tree.num_basic_events(), "order length");
        let mut position = vec![usize::MAX; tree.num_basic_events()];
        for (pos, &e) in order.iter().enumerate() {
            let bi = tree
                .basic_index(e)
                .unwrap_or_else(|| panic!("{} is not a basic event", tree.name(e)));
            assert_eq!(position[bi], usize::MAX, "duplicate event in order");
            position[bi] = pos;
        }
        assert!(
            position.iter().all(|&p| p != usize::MAX),
            "incomplete order"
        );
        let mut basic_at = vec![0; position.len()];
        for (bi, &pos) in position.iter().enumerate() {
            basic_at[pos] = bi;
        }
        let manager = Manager::new(2 * order.len() as u32);
        TreeBdd {
            manager,
            order,
            position,
            basic_at,
            cache: HashMap::new(),
            tree_len: tree.len(),
        }
    }

    /// The underlying BDD manager.
    pub fn manager(&self) -> &Manager {
        &self.manager
    }

    /// Mutable access to the underlying BDD manager.
    pub fn manager_mut(&mut self) -> &mut Manager {
        &mut self.manager
    }

    /// Basic events in variable order.
    pub fn order(&self) -> &[ElementId] {
        &self.order
    }

    /// The unprimed BDD variable of the basic event with basic index `bi`.
    pub fn var_of_basic(&self, bi: usize) -> Var {
        Var(2 * self.position[bi] as u32)
    }

    /// The primed BDD variable paired with basic index `bi`.
    pub fn primed_var_of_basic(&self, bi: usize) -> Var {
        Var(2 * self.position[bi] as u32 + 1)
    }

    /// Maps an unprimed variable back to the basic index it encodes.
    ///
    /// Returns `None` for primed variables.
    pub fn basic_of_var(&self, v: Var) -> Option<usize> {
        if !v.index().is_multiple_of(2) {
            return None;
        }
        self.basic_at.get((v.index() / 2) as usize).copied()
    }

    /// All unprimed variables, in order.
    pub fn unprimed_vars(&self) -> Vec<Var> {
        (0..self.order.len()).map(|p| Var(2 * p as u32)).collect()
    }

    /// All primed variables, in order.
    pub fn primed_vars(&self) -> Vec<Var> {
        (0..self.order.len())
            .map(|p| Var(2 * p as u32 + 1))
            .collect()
    }

    /// `(unprimed, primed)` pairs, in order — input to
    /// [`Manager::strict_subset`] / [`Manager::strict_superset`].
    pub fn var_pairs(&self) -> Vec<(Var, Var)> {
        (0..self.order.len())
            .map(|p| (Var(2 * p as u32), Var(2 * p as u32 + 1)))
            .collect()
    }

    /// The order-preserving unprimed → primed renaming (`V ↷ V′`).
    pub fn prime_map(&self) -> impl Fn(Var) -> Var {
        |v: Var| {
            debug_assert_eq!(v.index() % 2, 0, "renaming a primed variable");
            Var(v.index() + 1)
        }
    }

    /// Translates element `e` (and, transitively, its cone) per
    /// Definition 6, caching every intermediate element.
    ///
    /// # Panics
    ///
    /// Panics if `tree` is not the tree this `TreeBdd` was created for.
    pub fn element_bdd(&mut self, tree: &FaultTree, e: ElementId) -> Bdd {
        assert_eq!(
            tree.len(),
            self.tree_len,
            "TreeBdd used with a different tree"
        );
        if let Some(&b) = self.cache.get(&(e.index() as u32)) {
            return b;
        }
        // Iterative post-order to avoid recursion limits on deep trees.
        let mut stack = vec![(e, false)];
        while let Some((x, expanded)) = stack.pop() {
            if self.cache.contains_key(&(x.index() as u32)) {
                continue;
            }
            if let Some(bi) = tree.basic_index(x) {
                let v = self.var_of_basic(bi);
                let b = self.manager.var(v);
                self.cache.insert(x.index() as u32, b);
                continue;
            }
            if !expanded {
                stack.push((x, true));
                for &c in tree.children(x) {
                    stack.push((c, false));
                }
                continue;
            }
            let children: Vec<Bdd> = tree
                .children(x)
                .iter()
                .map(|c| self.cache[&(c.index() as u32)])
                .collect();
            let b = match tree.gate_type(x).unwrap_or_else(|| unreachable!("gate")) {
                GateType::And => self.manager.and_all(children),
                GateType::Or => self.manager.or_all(children),
                GateType::Vot { k } => vot_threshold(&mut self.manager, &children, k),
            };
            self.cache.insert(x.index() as u32, b);
        }
        self.cache[&(e.index() as u32)]
    }

    /// Compiles the whole tree, farming independent modules out to
    /// `workers` threads.
    ///
    /// The tree's *maximal proper modules* (per
    /// [`modules::top_modules`]) partition into per-worker batches by
    /// longest-processing-time order; each worker compiles its batch in a
    /// private arena over **the same variable order**, and the resulting
    /// diagrams are stitched into this manager with
    /// [`Manager::import_many`]. Because ROBDDs are canonical per order,
    /// the stitched diagrams are node-for-node identical to a sequential
    /// [`TreeBdd::element_bdd`] compile — parallelism is a construction
    /// strategy, not a semantics change. The remainder of the tree (the
    /// spine above the modules) compiles sequentially on the caller
    /// thread, reusing the stitched module diagrams from the cache.
    ///
    /// With `workers <= 1`, or fewer than two sizeable modules, this
    /// falls back to the sequential compile (same result, `workers: 1`
    /// in the stats).
    ///
    /// # Panics
    ///
    /// Panics if `tree` is not the tree this `TreeBdd` was created for.
    pub fn compile_parallel(&mut self, tree: &FaultTree, workers: usize) -> ParallelCompileStats {
        assert_eq!(
            tree.len(),
            self.tree_len,
            "TreeBdd used with a different tree"
        );
        // Below this cone size the thread hand-off costs more than the
        // compile; such modules ride along with the sequential spine.
        const MIN_CONE: usize = 16;
        let start = Instant::now();
        let candidates: Vec<ElementId> = modules::top_modules(tree, MIN_CONE)
            .into_iter()
            .filter(|m| !self.cache.contains_key(&(m.index() as u32)))
            .collect();
        if workers <= 1 || candidates.len() < 2 {
            let modules_detected = candidates.len();
            self.element_bdd(tree, tree.top());
            return ParallelCompileStats {
                workers: 1,
                modules_detected,
                modules: Vec::new(),
                stitch_micros: 0,
                total_micros: start.elapsed().as_micros() as u64,
            };
        }

        // Longest-processing-time partition: largest cones first, each to
        // the currently least-loaded worker.
        let cones: Vec<usize> = candidates
            .iter()
            .map(|&m| modules::cone(tree, m).len())
            .collect();
        let nworkers = workers.min(candidates.len());
        let mut by_size: Vec<usize> = (0..candidates.len()).collect();
        by_size.sort_by_key(|&i| std::cmp::Reverse(cones[i]));
        let mut batches: Vec<Vec<ElementId>> = vec![Vec::new(); nworkers];
        let mut load = vec![0usize; nworkers];
        for i in by_size {
            let w = (0..nworkers)
                .min_by_key(|&w| load[w])
                .unwrap_or_else(|| unreachable!("nonempty"));
            batches[w].push(candidates[i]);
            load[w] += cones[i];
        }

        // Per-worker compiles in private arenas, same variable order.
        let order = self.order.clone();
        type WorkerOut = (TreeBdd, Vec<(ElementId, usize, u64)>);
        let results: Vec<WorkerOut> = std::thread::scope(|s| {
            let handles: Vec<_> = batches
                .iter()
                .map(|batch| {
                    let order = order.clone();
                    s.spawn(move || {
                        let mut wtb = TreeBdd::with_order(tree, order);
                        let mut per_module = Vec::with_capacity(batch.len());
                        for &root in batch {
                            let t0 = Instant::now();
                            let f = wtb.element_bdd(tree, root);
                            let micros = t0.elapsed().as_micros() as u64;
                            per_module.push((root, wtb.manager().node_count(f), micros));
                        }
                        (wtb, per_module)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| unreachable!("module compile worker panicked"))
                })
                .collect()
        });

        // Stitch: import every worker's cached element translation into
        // the parent arena. Module cones are disjoint, so entries never
        // collide across workers; hash-consing deduplicates any shared
        // structure anyway.
        let stitch_start = Instant::now();
        let mut module_stats = Vec::with_capacity(candidates.len());
        for (w, (wtb, per_module)) in results.iter().enumerate() {
            let mut entries: Vec<(u32, Bdd)> = wtb.cache.iter().map(|(&k, &b)| (k, b)).collect();
            entries.sort_unstable_by_key(|&(k, _)| k);
            let roots: Vec<Bdd> = entries.iter().map(|&(_, b)| b).collect();
            let imported = self.manager.import_many(wtb.manager(), &roots);
            for (&(k, _), &b) in entries.iter().zip(&imported) {
                self.cache.insert(k, b);
            }
            for &(root, nodes, micros) in per_module {
                let cone = cones[candidates
                    .iter()
                    .position(|&c| c == root)
                    .unwrap_or_else(|| unreachable!("candidate"))];
                module_stats.push(ModuleCompileStat {
                    root,
                    cone,
                    nodes,
                    micros,
                    worker: w,
                });
            }
        }
        let stitch_micros = stitch_start.elapsed().as_micros() as u64;
        module_stats.sort_by_key(|m| m.root.index());

        // The spine above the modules compiles sequentially, hitting the
        // freshly stitched cache at every module root.
        self.element_bdd(tree, tree.top());
        // The stitched arena must satisfy every invariant the workers'
        // private arenas did: canonical unique table, sound caches,
        // children below parents (debug builds only — `audit` walks the
        // whole arena).
        #[cfg(debug_assertions)]
        {
            let report = self.manager.audit();
            assert!(
                report.is_ok(),
                "post-parallel-compile arena audit failed: {report}"
            );
        }
        ParallelCompileStats {
            workers: nworkers,
            modules_detected: candidates.len(),
            modules: module_stats,
            stitch_micros,
            total_micros: start.elapsed().as_micros() as u64,
        }
    }

    /// Evaluates a BDD under a status vector (basic-index aligned).
    ///
    /// Primed variables evaluate to `false`; they never occur in gate
    /// translations.
    pub fn eval_vector(&self, tree: &FaultTree, f: Bdd, b: &StatusVector) -> bool {
        assert_eq!(b.len(), tree.num_basic_events(), "vector length");
        self.manager.eval(f, |v| {
            if v.index() % 2 != 0 {
                return false;
            }
            let pos = (v.index() / 2) as usize;
            let e = self.order[pos];
            b.get(tree.basic_index(e).unwrap_or_else(|| unreachable!("basic")))
        })
    }

    /// Bdd handles of every cached element translation — the root set a
    /// garbage collection must keep alive (plus whatever the caller owns).
    pub fn roots(&self) -> Vec<Bdd> {
        let mut roots: Vec<Bdd> = self.cache.values().copied().collect();
        roots.sort_unstable();
        roots.dedup();
        roots
    }

    /// Live nodes reachable from the cached element translations and
    /// `extra` (terminals included) — the arena size a collection with the
    /// same roots would reach.
    pub fn live_node_count(&self, extra: &[Bdd]) -> usize {
        let mut roots = self.roots();
        roots.extend_from_slice(extra);
        self.manager.live_size(&roots)
    }

    /// Mark-and-sweep garbage collection: keeps every cached element
    /// translation (remapping the cache through the compaction) and
    /// reclaims everything else. See
    /// [`Manager::collect_garbage`].
    pub fn collect_garbage(&mut self) -> GcStats {
        self.collect_garbage_with(&mut [])
    }

    /// Like [`TreeBdd::collect_garbage`], additionally rooting the
    /// handles in `extra` and rewriting them in place to their remapped
    /// values.
    pub fn collect_garbage_with(&mut self, extra: &mut [Bdd]) -> GcStats {
        let mut roots = self.roots();
        roots.extend_from_slice(extra);
        let gc = self.manager.collect_garbage(&roots);
        for b in self.cache.values_mut() {
            *b = gc
                .remap(*b)
                .unwrap_or_else(|| unreachable!("rooted translation survives the sweep"));
        }
        for b in extra.iter_mut() {
            *b = gc
                .remap(*b)
                .unwrap_or_else(|| unreachable!("rooted handle survives the sweep"));
        }
        gc.stats()
    }

    /// Rudell sifting over glued *(event, primed)* variable pairs,
    /// steered by the cached element translations.
    ///
    /// Pairs move as blocks, so the interleaving invariant (each primed
    /// variable immediately below its event) survives and `MCS`/`MPS`
    /// renaming stays order-preserving. The element cache is remapped
    /// through any interleaved compaction; handles obtained *before* the
    /// sift (outside the cache) must be passed through
    /// [`TreeBdd::sift_with_extra_roots`] or re-fetched via
    /// [`TreeBdd::element_bdd`]. Run [`TreeBdd::collect_garbage`]
    /// afterwards to reclaim the final round of swap debris.
    pub fn sift(&mut self) -> SiftStats {
        self.sift_with_extra_roots(&mut [])
    }

    /// Like [`TreeBdd::sift`], with additional caller-owned roots that
    /// steer the live-size metric and are rewritten in place when the
    /// sift compacts the arena (e.g. formula-translation caches of the
    /// layer above).
    pub fn sift_with_extra_roots(&mut self, extra: &mut [Bdd]) -> SiftStats {
        let mut entries: Vec<(u32, Bdd)> = self.cache.drain().collect();
        let mut roots: Vec<Bdd> = entries.iter().map(|&(_, b)| b).collect();
        roots.extend_from_slice(extra);
        let stats = self.manager.sift_with(
            &mut roots,
            SiftOptions {
                group: 2,
                ..SiftOptions::default()
            },
        );
        for (entry, &new) in entries.iter_mut().zip(&roots) {
            entry.1 = new;
        }
        for (slot, &new) in extra.iter_mut().zip(&roots[entries.len()..]) {
            *slot = new;
        }
        self.cache = entries.into_iter().collect();
        stats
    }

    /// Drops every cached element translation except `keep` (and their
    /// handles with them) — typically called before maintenance so dead
    /// cones neither anchor the garbage collection nor steer the sifting
    /// metric. Dropped elements recompile on the next
    /// [`TreeBdd::element_bdd`] call.
    pub fn retain_elements(&mut self, keep: &[ElementId]) {
        let keep: std::collections::HashSet<u32> = keep.iter().map(|e| e.index() as u32).collect();
        self.cache.retain(|k, _| keep.contains(k));
    }

    /// Converts a full assignment over the *unprimed* variables (aligned
    /// with [`TreeBdd::unprimed_vars`]) into a status vector aligned with
    /// basic indices.
    pub fn vector_from_positions(&self, tree: &FaultTree, assignment: &[bool]) -> StatusVector {
        assert_eq!(assignment.len(), self.order.len(), "assignment length");
        let mut v = StatusVector::all_operational(tree.num_basic_events());
        for (pos, &val) in assignment.iter().enumerate() {
            let e = self.order[pos];
            v.set(
                tree.basic_index(e).unwrap_or_else(|| unreachable!("basic")),
                val,
            );
        }
        v
    }
}

/// "At least `k` of `children` hold", built by dynamic programming over
/// Shannon expansions — size `O(k · Σ|child|)` instead of the exponential
/// subset expansion of Definition 6.
///
/// The children are taken deepest first, in the order of
/// [`Manager::sort_deepest_first`] (the fold order of
/// [`Manager::and_all`] and [`Manager::or_all`]). Each step computes
/// `ite(c, row[j-1], row[j])` over rows built from the children already
/// taken; when those sit below `c` — children with disjoint,
/// level-separated supports — the step walks only `c`, so the whole
/// threshold costs `O(k · Σ|child|)` operations rather than re-walking
/// the rows for every child. The function does not depend on the order.
pub fn vot_threshold(m: &mut Manager, children: &[Bdd], k: u32) -> Bdd {
    let k = k as usize;
    if k == 0 {
        return m.top();
    }
    if k > children.len() {
        return m.bot();
    }
    let mut children = children.to_vec();
    m.sort_deepest_first(&mut children);
    // row[j] = "at least j of the children seen so far" (j in 0..=k).
    let mut row = vec![m.bot(); k + 1];
    row[0] = m.top();
    for c in children {
        for j in (1..=k).rev() {
            let take = m.ite(c, row[j - 1], row[j]);
            row[j] = take;
        }
    }
    row[k]
}

/// The literal `VOT(k/N)` expansion of Definition 6:
/// `⋁_{n1<…<nk} ⋀_{i=1..k} Ψ(e_ni)` — an OR over all `k`-subsets.
///
/// Exponential in `N`; retained for the `ablation_vot` benchmark and as a
/// cross-check of [`vot_threshold`].
pub fn vot_naive(m: &mut Manager, children: &[Bdd], k: u32) -> Bdd {
    let k = k as usize;
    if k == 0 {
        return m.top();
    }
    if k > children.len() {
        return m.bot();
    }
    let n = children.len();
    let mut acc = m.bot();
    // Iterate over all k-subsets via combination indices.
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        let term = m.and_all(idx.iter().map(|&i| children[i]));
        acc = m.or(acc, term);
        // Next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return acc;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return acc;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{corpus, FaultTreeBuilder, GateType};

    #[test]
    fn or_gate_translation_matches_fig3() {
        let tree = corpus::or2();
        let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        let top = tb.element_bdd(&tree, tree.top());
        // Fig. 3: BDD with two decision nodes (e1, e2) plus terminals.
        assert_eq!(tb.manager().node_count(top), 4);
        for v in StatusVector::enumerate_all(2) {
            assert_eq!(tb.eval_vector(&tree, top, &v), v.count_failed() >= 1);
        }
    }

    #[test]
    fn translation_matches_structure_function_exhaustively() {
        let tree = corpus::covid();
        let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        // Check every element on a sample of vectors.
        for seed in 0..200u64 {
            let bits: Vec<bool> = (0..tree.num_basic_events())
                .map(|i| (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 61)) & 1 == 1)
                .collect();
            let b = StatusVector::from_bits(bits);
            let statuses = tree.evaluate_all(&b);
            for e in tree.iter() {
                let f = tb.element_bdd(&tree, e);
                assert_eq!(
                    tb.eval_vector(&tree, f, &b),
                    statuses[e.index()],
                    "element {} vector {}",
                    tree.name(e),
                    b
                );
            }
        }
    }

    #[test]
    fn vot_threshold_equals_vot_naive() {
        let mut m = Manager::new(12);
        let vars: Vec<Bdd> = (0..5).map(|i| m.var(Var(2 * i))).collect();
        for k in 0..=6u32 {
            let a = vot_threshold(&mut m, &vars, k);
            let b = vot_naive(&mut m, &vars, k);
            assert_eq!(a, b, "k={k}");
        }
    }

    #[test]
    fn vot_gate_in_tree() {
        let mut b = FaultTreeBuilder::new();
        b.basic_events(["a", "b", "c", "d"]).unwrap();
        b.gate("top", GateType::Vot { k: 3 }, ["a", "b", "c", "d"])
            .unwrap();
        let tree = b.build("top").unwrap();
        let mut tb = TreeBdd::new(&tree, VariableOrdering::Declaration);
        let top = tb.element_bdd(&tree, tree.top());
        for v in StatusVector::enumerate_all(4) {
            assert_eq!(tb.eval_vector(&tree, top, &v), v.count_failed() >= 3, "{v}");
        }
    }

    #[test]
    fn shared_subtrees_translated_once() {
        let tree = corpus::covid();
        let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        let _ = tb.element_bdd(&tree, tree.top());
        // After translating the top, every element is cached.
        for e in tree.iter() {
            assert!(
                tb.cache.contains_key(&(e.index() as u32)),
                "{}",
                tree.name(e)
            );
        }
    }

    #[test]
    fn var_maps_are_bijections() {
        let tree = corpus::covid();
        let tb = TreeBdd::new(&tree, VariableOrdering::BouissouWeight);
        for bi in 0..tree.num_basic_events() {
            let v = tb.var_of_basic(bi);
            assert_eq!(tb.basic_of_var(v), Some(bi));
            assert_eq!(tb.primed_var_of_basic(bi).index(), v.index() + 1);
        }
        assert_eq!(tb.basic_of_var(Var(1)), None);
    }

    #[test]
    fn sift_preserves_semantics_and_pairing() {
        let tree = corpus::covid();
        let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        let _ = tb.element_bdd(&tree, tree.top());
        let stats = tb.sift();
        // Re-fetch through the (remapped) cache: a sift may compact.
        let top = tb.element_bdd(&tree, tree.top());
        assert!(stats.live_after <= stats.live_before);
        // Pairs stay glued: primed immediately below its event.
        for bi in 0..tree.num_basic_events() {
            let v = tb.var_of_basic(bi);
            let p = tb.primed_var_of_basic(bi);
            assert_eq!(
                tb.manager().level_of(v) + 1,
                tb.manager().level_of(p),
                "pair for basic {bi} split"
            );
        }
        // The handle survived and still computes the structure function.
        for seed in 0..50u64 {
            let bits: Vec<bool> = (0..tree.num_basic_events())
                .map(|i| (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 61)) & 1 == 1)
                .collect();
            let b = StatusVector::from_bits(bits);
            assert_eq!(
                tb.eval_vector(&tree, top, &b),
                tree.evaluate(&b, tree.top()),
                "{b}"
            );
        }
    }

    #[test]
    fn gc_remaps_the_element_cache() {
        let tree = corpus::covid();
        let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        let _ = tb.element_bdd(&tree, tree.top());
        // Build scratch diagrams that become garbage.
        let m = tb.manager_mut();
        let x = m.var(Var(0));
        let y = m.var(Var(2));
        let _scratch = m.xor(x, y);
        let before = tb.manager().arena_size();
        let stats = tb.collect_garbage();
        assert_eq!(stats.arena_before, before);
        assert!(tb.manager().arena_size() <= before);
        // Cached translations were remapped and still evaluate correctly.
        let top = tb.element_bdd(&tree, tree.top());
        for v in [
            StatusVector::from_failed_names(&tree, &["IW", "H3", "PP", "H1", "VW"]),
            StatusVector::all_operational(tree.num_basic_events()),
        ] {
            assert_eq!(
                tb.eval_vector(&tree, top, &v),
                tree.evaluate(&v, tree.top()),
                "{v}"
            );
        }
    }

    #[test]
    fn sift_then_gc_shrinks_the_arena_to_live() {
        let tree = corpus::covid();
        let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        let _ = tb.element_bdd(&tree, tree.top());
        let stats = tb.sift();
        tb.collect_garbage();
        assert_eq!(tb.manager().arena_size(), stats.live_after);
    }

    #[test]
    fn parallel_compile_is_node_for_node_sequential() {
        let tree = crate::generator::industrial_tree(&crate::generator::IndustrialConfig {
            num_basic: 300,
            num_modules: 6,
            ..Default::default()
        });
        let mut seq = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        let _ = seq.element_bdd(&tree, tree.top());
        for workers in [1, 2, 4] {
            let mut par = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
            let stats = par.compile_parallel(&tree, workers);
            assert!(stats.workers >= 1);
            if workers >= 2 {
                assert!(stats.modules_detected >= 2, "corpus tree has modules");
                assert_eq!(stats.modules.len(), stats.modules_detected);
            }
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
            // Spot-check semantics on random vectors.
            let top_s = seq.element_bdd(&tree, tree.top());
            let top_p = par.element_bdd(&tree, tree.top());
            for seed in 0..20u64 {
                let bits: Vec<bool> = (0..tree.num_basic_events())
                    .map(|i| (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 61)) & 1 == 1)
                    .collect();
                let b = StatusVector::from_bits(bits);
                assert_eq!(
                    seq.eval_vector(&tree, top_s, &b),
                    par.eval_vector(&tree, top_p, &b)
                );
            }
        }
    }

    #[test]
    fn parallel_compile_falls_back_without_modules() {
        // covid has no proper modules of cone >= 16: sequential fallback.
        let tree = corpus::covid();
        let mut tb = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        let stats = tb.compile_parallel(&tree, 4);
        assert_eq!(stats.workers, 1);
        assert!(stats.modules.is_empty());
        let top = tb.element_bdd(&tree, tree.top());
        let mut seq = TreeBdd::new(&tree, VariableOrdering::DfsPreorder);
        let tops = seq.element_bdd(&tree, tree.top());
        assert_eq!(tb.manager().node_count(top), seq.manager().node_count(tops));
    }

    #[test]
    #[should_panic(expected = "different tree")]
    fn tree_identity_checked() {
        let t1 = corpus::fig1();
        let t2 = corpus::covid();
        let mut tb = TreeBdd::new(&t1, VariableOrdering::DfsPreorder);
        let _ = tb.element_bdd(&t2, t2.top());
    }
}
