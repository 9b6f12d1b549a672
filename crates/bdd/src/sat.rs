//! Satisfiability services: evaluation, witnesses, `AllSat` enumeration and
//! model counting.

use std::collections::HashSet;

use crate::manager::{Bdd, Manager, Var};

/// A (partial) satisfying path through a BDD: the variables actually
/// decided on a root-to-⊤ path together with their values. Variables not
/// mentioned are *don't-cares* for this path.
pub type SatPath = Vec<(Var, bool)>;

impl Manager {
    /// Evaluates `f` under the assignment `assign` (Algorithm 2 substrate:
    /// walks from the root following the low/high child per variable).
    pub fn eval<A: Fn(Var) -> bool>(&self, f: Bdd, assign: A) -> bool {
        let mut cur = f;
        while !cur.is_terminal() {
            let node = self.node(cur);
            cur = if assign(node.var) {
                node.high
            } else {
                node.low
            };
        }
        cur.is_true()
    }

    /// The set of variables occurring in `f` (`VarB` in the paper).
    ///
    /// Because the diagram is reduced, this *syntactic* support coincides
    /// with the *semantic* support: a variable occurs in the diagram if and
    /// only if the represented function depends on it. This fact is what
    /// makes the paper's `IDP` translation exact.
    pub fn support(&self, f: Bdd) -> Vec<Var> {
        let mut seen = HashSet::new();
        let mut vars = HashSet::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n.0) {
                continue;
            }
            let node = self.node(n);
            vars.insert(node.var);
            stack.push(node.low);
            stack.push(node.high);
        }
        let mut vars: Vec<Var> = vars.into_iter().collect();
        vars.sort();
        vars
    }

    /// Returns some satisfying path if `f` is satisfiable.
    pub fn any_sat(&self, f: Bdd) -> Option<SatPath> {
        if f.is_false() {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while !cur.is_terminal() {
            let node = self.node(cur);
            // Prefer the child that can still reach ⊤; low first for the
            // lexicographically smallest witness.
            if !node.low.is_false() {
                path.push((node.var, false));
                cur = node.low;
            } else {
                path.push((node.var, true));
                cur = node.high;
            }
        }
        debug_assert!(cur.is_true());
        Some(path)
    }

    /// Number of satisfying assignments of `f` over the variable universe
    /// `Var(0) .. Var(num_vars)`.
    ///
    /// The count is a property of the represented *function*: it does not
    /// change when the variable order does (e.g. after
    /// [`Manager::sift`]).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` is smaller than a variable in the support of
    /// `f`, or if the count overflows `u128`.
    pub fn sat_count(&self, f: Bdd, num_vars: u32) -> u128 {
        let universe: Vec<Var> = (0..num_vars).map(Var).collect();
        self.sat_count_over(f, &universe)
    }

    /// Number of satisfying assignments of `f` over an explicit variable
    /// `universe` (strictly ascending variable ids). Unlike
    /// [`Manager::sat_count`], variables outside the universe are ignored
    /// entirely, so managers hosting auxiliary (e.g. primed) variables can
    /// count over just their primary variables.
    ///
    /// The walk follows the *current* variable order internally, so the
    /// count stays correct after dynamic reordering.
    ///
    /// # Panics
    ///
    /// Panics if the support of `f` is not contained in `universe`, if
    /// `universe` is not strictly ascending, or on `u128` overflow.
    pub fn sat_count_over(&self, f: Bdd, universe: &[Var]) -> u128 {
        assert!(
            universe.windows(2).all(|w| w[0] < w[1]),
            "universe must be strictly ascending"
        );
        for v in self.support(f) {
            assert!(universe.contains(&v), "support {v} outside universe");
        }
        // The recursion consumes the universe top level first; sort a copy
        // by the current order so the walk matches the diagram.
        let mut by_level: Vec<Var> = universe.to_vec();
        by_level.sort_unstable_by_key(|&v| self.level_of(v));
        let mut memo = std::collections::HashMap::new();
        self.sat_count_over_rec(f, &by_level, 0, &mut memo)
    }

    fn sat_count_over_rec(
        &self,
        f: Bdd,
        universe: &[Var],
        idx: usize,
        memo: &mut std::collections::HashMap<(u32, usize), u128>,
    ) -> u128 {
        if f.is_false() {
            return 0;
        }
        let remaining = (universe.len() - idx) as u32;
        if f.is_true() {
            return 1u128.checked_shl(remaining).unwrap_or_else(|| {
                panic!("sat count overflow: universe wider than 128 variables")
            });
        }
        debug_assert!(idx < universe.len(), "support outside universe");
        if let Some(&c) = memo.get(&(f.id(), idx)) {
            return c;
        }
        let v = universe[idx];
        let node = self.node(f);
        let total = if node.var == v {
            let lo = self.sat_count_over_rec(node.low, universe, idx + 1, memo);
            let hi = self.sat_count_over_rec(node.high, universe, idx + 1, memo);
            lo.checked_add(hi)
                .unwrap_or_else(|| panic!("sat count overflow: universe wider than 128 variables"))
        } else {
            debug_assert!(
                self.level_of(node.var) > self.level_of(v),
                "universe must cover the support in order"
            );
            let sub = self.sat_count_over_rec(f, universe, idx + 1, memo);
            sub.checked_mul(2)
                .unwrap_or_else(|| panic!("sat count overflow: universe wider than 128 variables"))
        };
        memo.insert((f.id(), idx), total);
        total
    }

    /// Iterates over all satisfying *paths* of `f` (the classical `AllSat`).
    ///
    /// Each yielded [`SatPath`] fixes only the variables decided on the
    /// path; unmentioned variables are don't-cares. Use
    /// [`Manager::sat_vectors`] to expand paths into complete vectors.
    pub fn sat_paths<'a>(&'a self, f: Bdd) -> SatPaths<'a> {
        SatPaths::new(self, f)
    }

    /// Iterates over all complete satisfying assignments of `f` over the
    /// ordered variable universe `vars` (which must cover the support).
    ///
    /// This implements the paper's Algorithm 3: collect every path to the
    /// terminal `1` and expand don't-cares.
    ///
    /// # Panics
    ///
    /// Panics if the support of `f` is not contained in `vars`.
    pub fn sat_vectors<'a>(&'a self, f: Bdd, vars: &[Var]) -> SatVectors<'a> {
        // var id -> first position in `vars` (a repeated variable is
        // fixed at its first position and left free at the others).
        let width = vars.iter().map(|v| v.0 as usize + 1).max().unwrap_or(0);
        let mut index = vec![None; width];
        for (i, v) in vars.iter().enumerate() {
            index[v.0 as usize].get_or_insert(i);
        }
        for v in self.support(f) {
            assert!(
                index.get(v.0 as usize).is_some_and(Option::is_some),
                "support variable {v} missing from universe"
            );
        }
        SatVectors {
            paths: SatPaths::new(self, f),
            width: vars.len(),
            index,
            current: None,
        }
    }
}

/// Iterator over the satisfying paths of a BDD (see
/// [`Manager::sat_paths`]).
#[derive(Debug)]
pub struct SatPaths<'a> {
    manager: &'a Manager,
    /// DFS stack of (node, path-so-far).
    stack: Vec<(Bdd, SatPath)>,
}

impl<'a> SatPaths<'a> {
    fn new(manager: &'a Manager, f: Bdd) -> Self {
        SatPaths {
            manager,
            stack: vec![(f, Vec::new())],
        }
    }
}

impl<'a> Iterator for SatPaths<'a> {
    type Item = SatPath;

    fn next(&mut self) -> Option<SatPath> {
        while let Some((n, path)) = self.stack.pop() {
            if n.is_false() {
                continue;
            }
            if n.is_true() {
                return Some(path);
            }
            let node = self.manager.node(n);
            // Push high first so low-branch paths are yielded first
            // (lexicographic order with 0 < 1).
            let mut high_path = path.clone();
            high_path.push((node.var, true));
            self.stack.push((node.high, high_path));
            let mut low_path = path;
            low_path.push((node.var, false));
            self.stack.push((node.low, low_path));
        }
        None
    }
}

/// Iterator over complete satisfying vectors (see
/// [`Manager::sat_vectors`]). Yields one `Vec<bool>` per model, aligned
/// with the variable universe passed at construction.
///
/// Each satisfying path is expanded over its don't-care positions like a
/// binary counter whose least significant digit is the first free
/// position, so any number of free variables works: only the vectors
/// actually taken are ever built.
#[derive(Debug)]
pub struct SatVectors<'a> {
    paths: SatPaths<'a>,
    /// Length of the universe (and of every yielded vector).
    width: usize,
    /// var id -> position in the universe (`None` outside it).
    index: Vec<Option<usize>>,
    /// Expansion state of the current path.
    current: Option<Expansion>,
}

/// An odometer over the free positions of one satisfying path.
#[derive(Debug)]
struct Expansion {
    /// The next vector to yield: fixed positions from the path, free
    /// positions holding the odometer's digits.
    next: Vec<bool>,
    /// Positions the path leaves free, least significant digit first.
    free: Vec<usize>,
    /// Set once every digit has wrapped round: the path is used up.
    done: bool,
}

impl Expansion {
    /// Yields the current vector and advances the odometer by one.
    fn step(&mut self) -> Option<Vec<bool>> {
        if self.done {
            return None;
        }
        let out = self.next.clone();
        self.done = true;
        for &i in &self.free {
            if self.next[i] {
                self.next[i] = false; // carry into the next digit
            } else {
                self.next[i] = true;
                self.done = false;
                break;
            }
        }
        Some(out)
    }
}

impl<'a> Iterator for SatVectors<'a> {
    type Item = Vec<bool>;

    fn next(&mut self) -> Option<Vec<bool>> {
        loop {
            if let Some(vec) = self.current.as_mut().and_then(Expansion::step) {
                return Some(vec);
            }
            let path = self.paths.next()?;
            let mut next = vec![false; self.width];
            let mut fixed = vec![false; self.width];
            for (v, val) in path {
                if let Some(&Some(i)) = self.index.get(v.0 as usize) {
                    next[i] = val;
                    fixed[i] = true;
                }
            }
            let free = (0..self.width).filter(|&i| !fixed[i]).collect();
            self.current = Some(Expansion {
                next,
                free,
                done: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_or() {
        let mut m = Manager::new(2);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let f = m.or(a, b);
        assert!(!m.eval(f, |_| false));
        assert!(m.eval(f, |v| v == Var(0)));
        assert!(m.eval(f, |v| v == Var(1)));
        assert!(m.eval(f, |_| true));
    }

    #[test]
    fn support_is_semantic() {
        let mut m = Manager::new(2);
        let a = m.var(Var(0));
        let na = m.not(a);
        let taut = m.or(a, na); // a ∨ ¬a reduces to ⊤
        assert!(taut.is_true());
        assert!(m.support(taut).is_empty());
        let b = m.var(Var(1));
        let f = m.and(a, b);
        assert_eq!(m.support(f), vec![Var(0), Var(1)]);
    }

    #[test]
    fn any_sat_finds_witness() {
        let mut m = Manager::new(2);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let f = m.and(a, b);
        let w = m.any_sat(f).unwrap();
        assert_eq!(w, vec![(Var(0), true), (Var(1), true)]);
        assert!(m.any_sat(m.bot()).is_none());
        assert_eq!(m.any_sat(m.top()).unwrap(), vec![]);
    }

    #[test]
    fn sat_count_small_functions() {
        let mut m = Manager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let f = m.or(a, b);
        assert_eq!(m.sat_count(f, 2), 3);
        assert_eq!(m.sat_count(f, 3), 6);
        assert_eq!(m.sat_count(m.top(), 3), 8);
        assert_eq!(m.sat_count(m.bot(), 3), 0);
        let lit = m.var(Var(2));
        assert_eq!(m.sat_count(lit, 3), 4);
    }

    #[test]
    fn sat_paths_of_or() {
        let mut m = Manager::new(2);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let f = m.or(a, b);
        let paths: Vec<SatPath> = m.sat_paths(f).collect();
        assert_eq!(
            paths,
            vec![vec![(Var(0), false), (Var(1), true)], vec![(Var(0), true)],]
        );
    }

    #[test]
    fn sat_vectors_expand_dont_cares() {
        let mut m = Manager::new(2);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let f = m.or(a, b);
        let mut vecs: Vec<Vec<bool>> = m.sat_vectors(f, &[Var(0), Var(1)]).collect();
        vecs.sort();
        assert_eq!(
            vecs,
            vec![vec![false, true], vec![true, false], vec![true, true],]
        );
    }

    #[test]
    fn sat_vectors_of_constant_true() {
        let m = Manager::new(2);
        let vecs: Vec<Vec<bool>> = m.sat_vectors(m.top(), &[Var(0), Var(1)]).collect();
        assert_eq!(vecs.len(), 4);
    }

    /// The expansion `sat_vectors` used before the odometer: a `u64`
    /// counter over the free positions, bit `i` driving `free[i]`.
    fn counter_expansion(m: &Manager, f: Bdd, vars: &[Var]) -> Vec<Vec<bool>> {
        let mut out = Vec::new();
        for path in m.sat_paths(f) {
            let mut template = vec![false; vars.len()];
            let mut fixed = vec![false; vars.len()];
            for (v, val) in path {
                let i = vars.iter().position(|&u| u == v).unwrap();
                template[i] = val;
                fixed[i] = true;
            }
            let free: Vec<usize> = (0..vars.len()).filter(|&i| !fixed[i]).collect();
            for counter in 0..1u64 << free.len() {
                let mut vec = template.clone();
                for (bit, &i) in free.iter().enumerate() {
                    vec[i] = (counter >> bit) & 1 == 1;
                }
                out.push(vec);
            }
        }
        out
    }

    /// A pseudo-random function over `n` variables, built from literals
    /// with random `∧ ∨ ⊕` (a xorshift stream keeps it deterministic).
    fn random_function(m: &mut Manager, n: u32, seed: u64) -> Bdd {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut f = m.var(Var((next() % u64::from(n)) as u32));
        for _ in 0..6 {
            let v = Var((next() % u64::from(n)) as u32);
            let lit = if next() % 2 == 0 { m.var(v) } else { m.nvar(v) };
            f = match next() % 3 {
                0 => m.and(f, lit),
                1 => m.or(f, lit),
                _ => m.xor(f, lit),
            };
        }
        f
    }

    #[test]
    fn sat_vectors_match_counter_expansion_and_brute_force() {
        let n = 5u32;
        let mut m = Manager::new(n + 1);
        // Universes in declaration order, permuted, and with an extra
        // variable outside every support.
        let universes: [Vec<Var>; 3] = [
            (0..n).map(Var).collect(),
            [3, 0, 4, 1, 2].into_iter().map(Var).collect(),
            (0..=n).map(Var).collect(),
        ];
        for seed in 1..40u64 {
            let f = random_function(&mut m, n, seed);
            for vars in &universes {
                let got: Vec<Vec<bool>> = m.sat_vectors(f, vars).collect();
                assert_eq!(got, counter_expansion(&m, f, vars), "seed {seed}");
                let mut sorted = got.clone();
                sorted.sort();
                let w = vars.len();
                let brute: Vec<Vec<bool>> = (0..1usize << w)
                    .map(|bits| (0..w).map(|i| (bits >> (w - 1 - i)) & 1 == 1).collect())
                    .filter(|row: &Vec<bool>| {
                        m.eval(f, |v| row[vars.iter().position(|&u| u == v).unwrap()])
                    })
                    .collect();
                assert_eq!(sorted, brute, "seed {seed}");
            }
        }
    }

    #[test]
    fn sat_vectors_expand_paths_with_many_free_variables() {
        // 100-variable universe, support of two: 98 don't-cares per path,
        // past any fixed-width counter.
        let mut m = Manager::new(100);
        let a = m.var(Var(10));
        let b = m.var(Var(90));
        let f = m.or(a, b);
        let vars: Vec<Var> = (0..100).map(Var).collect();
        let got: Vec<Vec<bool>> = m.sat_vectors(f, &vars).take(5).collect();
        assert_eq!(got.len(), 5);
        let distinct: HashSet<&Vec<bool>> = got.iter().collect();
        assert_eq!(distinct.len(), 5);
        for v in &got {
            assert_eq!(v.len(), 100);
            assert!(m.eval(f, |x| v[x.0 as usize]));
        }
        // Same on the constant-true function: every position is free.
        let all: Vec<Vec<bool>> = m.sat_vectors(m.top(), &vars).take(5).collect();
        assert_eq!(all.len(), 5);
        assert_eq!(all.iter().collect::<HashSet<_>>().len(), 5);
    }

    #[test]
    fn sat_vectors_repeated_universe_variable_is_free_after_first() {
        let mut m = Manager::new(2);
        let a = m.var(Var(0));
        let got: Vec<Vec<bool>> = m.sat_vectors(a, &[Var(0), Var(0)]).collect();
        assert_eq!(got, counter_expansion(&m, a, &[Var(0), Var(0)]));
        assert_eq!(got, vec![vec![true, false], vec![true, true]]);
    }

    #[test]
    #[should_panic(expected = "missing from universe")]
    fn sat_vectors_requires_support_coverage() {
        let mut m = Manager::new(2);
        let b = m.var(Var(1));
        let _ = m.sat_vectors(b, &[Var(0)]).count();
    }
}
