//! Boolean operations: `ite`, the binary `apply` family, negation,
//! cofactoring, quantification, renaming and composition.

use std::collections::HashMap;

use crate::manager::{Bdd, Manager, Op, Var, TERMINAL_LEVEL};

impl Manager {
    /// If-then-else: computes `(f ∧ g) ∨ (¬f ∧ h)`.
    ///
    /// This is the workhorse of the `apply` family (Brace–Rudell–Bryant).
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        // Terminal cases.
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        if g == h {
            return g;
        }
        if g.is_true() && h.is_false() {
            return f;
        }
        if let Some(r) = self.ite_cache_get(f, g, h) {
            return r;
        }
        let top = self.level(f).min(self.level(g)).min(self.level(h));
        debug_assert_ne!(top, TERMINAL_LEVEL);
        let v = self.var_at_level(top);
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let (h0, h1) = self.cofactors(h, v);
        let low = self.ite(f0, g0, h0);
        let high = self.ite(f1, g1, h1);
        let r = self.mk(v, low, high);
        self.ite_cache_put(f, g, h, r);
        r
    }

    /// The two cofactors of `f` with respect to the variable `v`, where `v`
    /// is at or above the root level of `f`.
    #[inline]
    pub(crate) fn cofactors(&self, f: Bdd, v: Var) -> (Bdd, Bdd) {
        let node = self.node(f);
        if node.var == v {
            (node.low, node.high)
        } else {
            (f, f)
        }
    }

    /// Logical negation `¬f`.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        if f.is_true() {
            return self.bot();
        }
        if f.is_false() {
            return self.top();
        }
        if let Some(r) = self.not_cache_get(f) {
            return r;
        }
        let node = self.node(f);
        let low = self.not(node.low);
        let high = self.not(node.high);
        let r = self.mk(node.var, low, high);
        self.not_cache_put(f, r);
        // Negation is an involution; prime the cache in both directions.
        self.not_cache_put(r, f);
        r
    }

    fn apply(&mut self, op: Op, f: Bdd, g: Bdd) -> Bdd {
        if let Some(r) = self.apply_terminal(op, f, g) {
            return r;
        }
        // All three cached ops are commutative; normalise the key.
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if let Some(r) = self.op_cache_get(op, f, g) {
            return r;
        }
        let top = self.level(f).min(self.level(g));
        let v = self.var_at_level(top);
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let low = self.apply(op, f0, g0);
        let high = self.apply(op, f1, g1);
        let r = self.mk(v, low, high);
        self.op_cache_put(op, f, g, r);
        r
    }

    fn apply_terminal(&self, op: Op, f: Bdd, g: Bdd) -> Option<Bdd> {
        match op {
            Op::And => {
                if f.is_false() || g.is_false() {
                    Some(self.bot())
                } else if f.is_true() {
                    Some(g)
                } else if g.is_true() || f == g {
                    Some(f)
                } else {
                    None
                }
            }
            Op::Or => {
                if f.is_true() || g.is_true() {
                    Some(self.top())
                } else if f.is_false() {
                    Some(g)
                } else if g.is_false() || f == g {
                    Some(f)
                } else {
                    None
                }
            }
            Op::Xor => {
                if f == g {
                    Some(self.bot())
                } else if f.is_false() {
                    Some(g)
                } else if g.is_false() {
                    Some(f)
                } else {
                    None
                }
            }
        }
    }

    /// Conjunction `f ∧ g`.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(2);
    /// let a = m.var(Var(0));
    /// let b = m.var(Var(1));
    /// let ab = m.and(a, b);
    /// assert_eq!(m.sat_count(ab, 2), 1);
    /// assert_eq!(m.and(ab, a), ab); // absorption, for free via canonicity
    /// ```
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Op::And, f, g)
    }

    /// Disjunction `f ∨ g`.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(2);
    /// let a = m.var(Var(0));
    /// let b = m.var(Var(1));
    /// let f = m.or(a, b);
    /// assert_eq!(m.sat_count(f, 2), 3); // 01, 10, 11
    /// ```
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Op::Or, f, g)
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.apply(Op::Xor, f, g)
    }

    /// Implication `f ⇒ g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let nf = self.not(f);
        self.or(nf, g)
    }

    /// Biconditional `f ≡ g`.
    pub fn iff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let x = self.xor(f, g);
        self.not(x)
    }

    /// Conjunction of all operands (`⊤` for an empty iterator).
    ///
    /// The operands are folded **deepest first**: stably sorted by the
    /// level of their root, bottom of the order first (see
    /// [`Manager::sort_deepest_first`]). Conjunction is associative and
    /// commutative and the diagrams are canonical, so the result is the
    /// same handle as any other fold order; only the cost differs. When
    /// the operands have disjoint, level-separated supports — the cones
    /// of a fault tree's independent modules under a DFS order — the
    /// accumulator always sits below the next operand, and `f ∧ acc`
    /// copies `f` once with `acc` hung at its `⊤` leaf. The whole fold
    /// is then linear in the size of the result. A fold in the caller's
    /// order would put each new operand *below* the accumulator and copy
    /// the whole accumulator at every step: quadratic, with every copy
    /// but the last left dead in the arena.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(3);
    /// let (a, b, c) = (m.var(Var(0)), m.var(Var(1)), m.var(Var(2)));
    /// let all = m.and_all([a, b, c]);
    /// let ab = m.and(a, b);
    /// assert_eq!(all, m.and(ab, c)); // same handle as a left fold
    /// ```
    pub fn and_all<I: IntoIterator<Item = Bdd>>(&mut self, fs: I) -> Bdd {
        let mut fs: Vec<Bdd> = fs.into_iter().collect();
        self.sort_deepest_first(&mut fs);
        let mut acc = self.top();
        for f in fs {
            acc = self.and(acc, f);
        }
        acc
    }

    /// Disjunction of all operands (`⊥` for an empty iterator).
    ///
    /// Folds deepest first, exactly as [`Manager::and_all`]: for
    /// operands with disjoint, level-separated supports each step copies
    /// only the new operand, with the accumulator hung at its `⊥` leaf,
    /// so the fold is linear in the size of the result.
    pub fn or_all<I: IntoIterator<Item = Bdd>>(&mut self, fs: I) -> Bdd {
        let mut fs: Vec<Bdd> = fs.into_iter().collect();
        self.sort_deepest_first(&mut fs);
        let mut acc = self.bot();
        for f in fs {
            acc = self.or(acc, f);
        }
        acc
    }

    /// Stably sorts `fs` by the level of each root, deepest first
    /// (terminals, which sit below every level, lead). This is the fold
    /// order of [`Manager::and_all`] and [`Manager::or_all`]; n-ary
    /// operators built outside this crate (for example a threshold gate
    /// built by dynamic programming over its operands) use it to get the
    /// same linear behaviour.
    pub fn sort_deepest_first(&self, fs: &mut [Bdd]) {
        fs.sort_by_key(|&f| std::cmp::Reverse(self.level(f)));
    }

    /// Restriction (cofactor) `f[v ↦ value]`: Algorithm 5.20 of Ben-Ari.
    ///
    /// This implements the semantics of the BFL evidence operators
    /// `ϕ[e↦0]` and `ϕ[e↦1]`.
    pub fn restrict(&mut self, f: Bdd, v: Var, value: bool) -> Bdd {
        let mut memo = HashMap::new();
        self.restrict_rec(f, v, value, &mut memo)
    }

    fn restrict_rec(&mut self, f: Bdd, v: Var, value: bool, memo: &mut HashMap<u32, Bdd>) -> Bdd {
        let level = self.level(f);
        if level > self.level_of(v) {
            // Terminal, or the whole sub-BDD is below v: v cannot occur.
            return f;
        }
        if let Some(&r) = memo.get(&f.0) {
            return r;
        }
        let node = self.node(f);
        let r = if node.var == v {
            if value {
                node.high
            } else {
                node.low
            }
        } else {
            let low = self.restrict_rec(node.low, v, value, memo);
            let high = self.restrict_rec(node.high, v, value, memo);
            self.mk(node.var, low, high)
        };
        memo.insert(f.0, r);
        r
    }

    /// Restriction by several assignments at once, applied sequentially.
    ///
    /// Equivalent to (and implemented as) [`Manager::restrict_many`]: for
    /// distinct variables simultaneous and sequential restriction agree,
    /// and for a repeated variable the *first* assignment wins in both —
    /// once restricted, the variable no longer occurs, so later
    /// assignments to it are identities. This matches the semantics of
    /// chained BFL evidence `ϕ[e↦v][e↦v′]`.
    pub fn restrict_all(&mut self, f: Bdd, assignments: &[(Var, bool)]) -> Bdd {
        self.restrict_many(f, assignments)
    }

    /// Simultaneous restriction `f[v1 ↦ b1, …, vk ↦ bk]` in a **single
    /// traversal** of the diagram, instead of one pass per variable.
    ///
    /// This is the cofactoring workhorse of scenario evaluation
    /// (evidence-as-restriction): a compiled query BDD is specialised to a
    /// whole scenario of evidence bindings at once. For a repeated
    /// variable the first assignment wins (see [`Manager::restrict_all`]);
    /// a variable outside the declared range is an identity, exactly as
    /// in single-variable [`Manager::restrict`] (which walks by level and
    /// can never meet it).
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(3);
    /// let a = m.var(Var(0));
    /// let b = m.var(Var(1));
    /// let c = m.var(Var(2));
    /// let ab = m.and(a, b);
    /// let f = m.or(ab, c);
    /// // f[x0 ↦ 1, x2 ↦ 0] = x1, in one traversal.
    /// let r = m.restrict_many(f, &[(Var(0), true), (Var(2), false)]);
    /// assert_eq!(r, b);
    /// ```
    pub fn restrict_many(&mut self, f: Bdd, assignments: &[(Var, bool)]) -> Bdd {
        if assignments.is_empty() {
            return f;
        }
        let mut value: Vec<Option<bool>> = vec![None; self.num_vars() as usize];
        // Reverse order + overwrite ⇒ the first occurrence wins.
        for &(v, b) in assignments.iter().rev() {
            if let Some(slot) = value.get_mut(v.0 as usize) {
                *slot = Some(b);
            }
        }
        let mut memo = HashMap::new();
        self.restrict_many_rec(f, &value, &mut memo)
    }

    fn restrict_many_rec(
        &mut self,
        f: Bdd,
        value: &[Option<bool>],
        memo: &mut HashMap<u32, Bdd>,
    ) -> Bdd {
        if f.is_terminal() {
            return f;
        }
        if let Some(&r) = memo.get(&f.0) {
            return r;
        }
        let node = self.node(f);
        let r = match value[node.var.0 as usize] {
            Some(true) => self.restrict_many_rec(node.high, value, memo),
            Some(false) => self.restrict_many_rec(node.low, value, memo),
            None => {
                let low = self.restrict_many_rec(node.low, value, memo);
                let high = self.restrict_many_rec(node.high, value, memo);
                self.mk(node.var, low, high)
            }
        };
        memo.insert(f.0, r);
        r
    }

    /// Existential quantification `∃ vars. f`.
    ///
    /// Per Theorem 5.23 of Ben-Ari:
    /// `∃v.B = Restrict(B,v,0) ∨ Restrict(B,v,1)`, lifted to sets.
    pub fn exists(&mut self, f: Bdd, vars: &[Var]) -> Bdd {
        let mask = self.var_mask(vars);
        let mut memo = HashMap::new();
        self.exists_rec(f, &mask, &mut memo)
    }

    fn exists_rec(&mut self, f: Bdd, mask: &[bool], memo: &mut HashMap<u32, Bdd>) -> Bdd {
        if f.is_terminal() {
            return f;
        }
        if let Some(&r) = memo.get(&f.0) {
            return r;
        }
        let node = self.node(f);
        let low = self.exists_rec(node.low, mask, memo);
        let high = self.exists_rec(node.high, mask, memo);
        let r = if mask[node.var.0 as usize] {
            self.or(low, high)
        } else {
            self.mk(node.var, low, high)
        };
        memo.insert(f.0, r);
        r
    }

    /// Universal quantification `∀ vars. f`, i.e. `¬∃ vars. ¬f`.
    pub fn forall(&mut self, f: Bdd, vars: &[Var]) -> Bdd {
        let nf = self.not(f);
        let e = self.exists(nf, vars);
        self.not(e)
    }

    /// Relational product `∃ vars. (f ∧ g)` computed without materialising
    /// the full conjunction — the classical `AndExists` optimisation.
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, vars: &[Var]) -> Bdd {
        let mask = self.var_mask(vars);
        let mut memo = HashMap::new();
        self.and_exists_rec(f, g, &mask, &mut memo)
    }

    fn and_exists_rec(
        &mut self,
        f: Bdd,
        g: Bdd,
        mask: &[bool],
        memo: &mut HashMap<(u32, u32), Bdd>,
    ) -> Bdd {
        if f.is_false() || g.is_false() {
            return self.bot();
        }
        if f.is_true() && g.is_true() {
            return self.top();
        }
        if f.is_true() || g.is_true() || f == g {
            let h = if f.is_true() || f == g { g } else { f };
            let mut ememo = HashMap::new();
            return self.exists_rec(h, mask, &mut ememo);
        }
        let key = if f.0 <= g.0 { (f.0, g.0) } else { (g.0, f.0) };
        if let Some(&r) = memo.get(&key) {
            return r;
        }
        let top = self.level(f).min(self.level(g));
        let v = self.var_at_level(top);
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let r = if mask[v.0 as usize] {
            let low = self.and_exists_rec(f0, g0, mask, memo);
            if low.is_true() {
                // Short-circuit: ∨ with ⊤ is ⊤.
                self.top()
            } else {
                let high = self.and_exists_rec(f1, g1, mask, memo);
                self.or(low, high)
            }
        } else {
            let low = self.and_exists_rec(f0, g0, mask, memo);
            let high = self.and_exists_rec(f1, g1, mask, memo);
            self.mk(v, low, high)
        };
        memo.insert(key, r);
        r
    }

    /// Renames variables of `f` according to `map` (the `B[V ↷ V′]` step of
    /// the paper's `MCS` translation).
    ///
    /// `map(v)` must be *strictly monotone* on the support of `f` with
    /// respect to the variable order, otherwise the rebuilt diagram would
    /// not be ordered.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the mapping is not order-preserving, and
    /// panics if a mapped variable is undeclared.
    pub fn rename(&mut self, f: Bdd, map: &dyn Fn(Var) -> Var) -> Bdd {
        let mut memo = HashMap::new();
        self.rename_rec(f, map, &mut memo)
    }

    fn rename_rec(
        &mut self,
        f: Bdd,
        map: &dyn Fn(Var) -> Var,
        memo: &mut HashMap<u32, Bdd>,
    ) -> Bdd {
        if f.is_terminal() {
            return f;
        }
        if let Some(&r) = memo.get(&f.0) {
            return r;
        }
        let node = self.node(f);
        let low = self.rename_rec(node.low, map, memo);
        let high = self.rename_rec(node.high, map, memo);
        let v = map(node.var);
        assert!(v.0 < self.num_vars(), "rename target {v} undeclared");
        let r = self.mk(v, low, high);
        memo.insert(f.0, r);
        r
    }

    /// Functional composition: replaces variable `v` in `f` by the function
    /// `g`, i.e. computes `f[v := g] = ite(g, f[v↦1], f[v↦0])`.
    pub fn compose(&mut self, f: Bdd, v: Var, g: Bdd) -> Bdd {
        let f1 = self.restrict(f, v, true);
        let f0 = self.restrict(f, v, false);
        self.ite(g, f1, f0)
    }

    fn var_mask(&self, vars: &[Var]) -> Vec<bool> {
        let mut mask = vec![false; self.num_vars() as usize];
        for v in vars {
            assert!(v.0 < self.num_vars(), "undeclared variable {v}");
            mask[v.0 as usize] = true;
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Manager, Bdd, Bdd, Bdd) {
        let mut m = Manager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        (m, a, b, c)
    }

    #[test]
    fn de_morgan() {
        let (mut m, a, b, _) = setup();
        let lhs = {
            let ab = m.and(a, b);
            m.not(ab)
        };
        let rhs = {
            let na = m.not(a);
            let nb = m.not(b);
            m.or(na, nb)
        };
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn ite_matches_definition() {
        let (mut m, a, b, c) = setup();
        let via_ite = m.ite(a, b, c);
        let direct = {
            let ab = m.and(a, b);
            let na = m.not(a);
            let nac = m.and(na, c);
            m.or(ab, nac)
        };
        assert_eq!(via_ite, direct);
    }

    #[test]
    fn xor_and_iff_are_complements() {
        let (mut m, a, b, _) = setup();
        let x = m.xor(a, b);
        let e = m.iff(a, b);
        let nx = m.not(x);
        assert_eq!(e, nx);
    }

    #[test]
    fn implication_truth_table() {
        let (mut m, a, b, _) = setup();
        let imp = m.implies(a, b);
        assert!(m.eval(imp, |_| false));
        assert!(m.eval(imp, |v| v == Var(1)));
        assert!(!m.eval(imp, |v| v == Var(0)));
        assert!(m.eval(imp, |_| true));
    }

    #[test]
    fn restrict_is_cofactor() {
        let (mut m, a, b, _) = setup();
        let f = m.and(a, b);
        let f1 = m.restrict(f, Var(0), true);
        assert_eq!(f1, b);
        let f0 = m.restrict(f, Var(0), false);
        assert!(f0.is_false());
    }

    #[test]
    fn restrict_many_matches_sequential() {
        let (mut m, a, b, c) = setup();
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let cases: &[&[(Var, bool)]] = &[
            &[],
            &[(Var(0), true)],
            &[(Var(0), true), (Var(2), false)],
            &[(Var(2), false), (Var(0), true)],
            &[(Var(0), false), (Var(1), true), (Var(2), false)],
        ];
        for assignments in cases {
            let mut seq = f;
            for &(v, value) in *assignments {
                seq = m.restrict(seq, v, value);
            }
            assert_eq!(m.restrict_many(f, assignments), seq, "{assignments:?}");
        }
    }

    #[test]
    fn restrict_many_out_of_range_var_is_identity() {
        // Matches single-variable `restrict`, which walks by level and
        // never meets an undeclared variable.
        let (mut m, a, b, _) = setup();
        let f = m.or(a, b);
        let r = m.restrict_many(f, &[(Var(7), true)]);
        assert_eq!(r, f);
        let mixed = m.restrict_many(f, &[(Var(7), true), (Var(0), false)]);
        assert_eq!(mixed, b);
    }

    #[test]
    fn restrict_many_first_assignment_wins() {
        let (mut m, a, b, _) = setup();
        let f = m.and(a, b);
        // Sequentially, [x0↦1][x0↦0] leaves b: the second restriction is
        // an identity because x0 is already gone.
        let r = m.restrict_many(f, &[(Var(0), true), (Var(0), false)]);
        assert_eq!(r, b);
    }

    #[test]
    fn restrict_missing_var_is_identity() {
        let (mut m, a, b, _) = setup();
        let f = m.or(a, b);
        let r = m.restrict(f, Var(2), true);
        assert_eq!(r, f);
    }

    #[test]
    fn exists_or_of_cofactors() {
        let (mut m, a, b, _) = setup();
        let f = m.and(a, b);
        let e = m.exists(f, &[Var(0)]);
        assert_eq!(e, b);
        let e2 = m.exists(f, &[Var(0), Var(1)]);
        assert!(e2.is_true());
    }

    #[test]
    fn forall_dual_of_exists() {
        let (mut m, a, b, _) = setup();
        let f = m.or(a, b);
        let g = m.forall(f, &[Var(0)]);
        assert_eq!(g, b);
        let h = m.forall(f, &[Var(0), Var(1)]);
        assert!(h.is_false());
    }

    #[test]
    fn and_exists_equals_naive() {
        let (mut m, a, b, c) = setup();
        let f = m.or(a, b);
        let g = m.or(b, c);
        let naive = {
            let fg = m.and(f, g);
            m.exists(fg, &[Var(1)])
        };
        let fused = m.and_exists(f, g, &[Var(1)]);
        assert_eq!(naive, fused);
    }

    #[test]
    fn rename_shifts_variables() {
        let mut m = Manager::new(4);
        let a = m.var(Var(0));
        let b = m.var(Var(2));
        let f = m.and(a, b);
        // Shift each var one level down (0->1, 2->3): order-preserving.
        let g = m.rename(f, &|v| Var(v.0 + 1));
        let expect = {
            let x = m.var(Var(1));
            let y = m.var(Var(3));
            m.and(x, y)
        };
        assert_eq!(g, expect);
    }

    #[test]
    fn compose_substitutes_function() {
        let (mut m, a, b, c) = setup();
        // f = a ∧ b, substitute b := c ∨ a
        let f = m.and(a, b);
        let g = m.or(c, a);
        let h = m.compose(f, Var(1), g);
        let expect = m.and(a, g);
        assert_eq!(h, expect);
    }

    #[test]
    fn and_or_all_fold() {
        let (mut m, a, b, c) = setup();
        let all = m.and_all([a, b, c]);
        let pair = m.and(a, b);
        let expect = m.and(pair, c);
        assert_eq!(all, expect);
        let none = m.or_all(std::iter::empty());
        assert!(none.is_false());
        let one = m.and_all(std::iter::empty());
        assert!(one.is_true());
    }
}
