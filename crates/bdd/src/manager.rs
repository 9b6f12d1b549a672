//! The BDD manager: node arena, unique table and operation caches.

use std::fmt;

use crate::fxhash::FxHashMap;

/// A BDD variable, identified by a stable numeric id.
///
/// A fresh [`Manager`] places `Var(k)` at *level* `k` of the variable
/// order (`Var(0)` top-most, closest to the root). Dynamic reordering
/// ([`Manager::sift`]) moves variables between levels, but a `Var` keeps
/// its identity: handles, caches and client-side maps from domain objects
/// to variables stay valid across reorders. Use [`Manager::level_of`] and
/// [`Manager::var_at_level`] to inspect the current order.
///
/// # Example
///
/// ```
/// use bfl_bdd::Var;
/// let v = Var(3);
/// assert_eq!(v.index(), 3);
/// assert!(Var(0) < Var(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// Returns the level index of this variable.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A handle to a BDD node owned by a [`Manager`].
///
/// Handles are small `Copy` values; all operations on them are methods of
/// the owning manager. Two handles obtained from the *same* manager are
/// equal if and only if they represent the same Boolean function (canonicity
/// of reduced ordered BDDs). Handles must not be mixed across managers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The raw node index inside the manager's arena.
    pub fn id(self) -> u32 {
        self.0
    }

    /// Returns `true` if this handle is one of the two terminal nodes.
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    /// Returns `true` if this handle is the constant-false terminal.
    pub fn is_false(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if this handle is the constant-true terminal.
    pub fn is_true(self) -> bool {
        self.0 == 1
    }
}

/// An interior BDD node: a variable (level) plus low/high children.
///
/// Exposed read-only through [`Manager::node`], mainly for traversals,
/// rendering and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node {
    /// The decision variable labelling this node.
    pub var: Var,
    /// Child followed when `var` is assigned `0`.
    pub low: Bdd,
    /// Child followed when `var` is assigned `1`.
    pub high: Bdd,
}

/// Sentinel level assigned to the two terminal nodes: compares greater than
/// every real variable so terminals sort below all interior nodes.
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

/// Binary operation identifiers for the operation cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    And,
    Or,
    Xor,
}

/// A manager owning a forest of reduced ordered BDDs over a fixed variable
/// order.
///
/// The manager hash-conses all nodes: structurally identical nodes are
/// created at most once, which makes equality of [`Bdd`] handles equivalent
/// to semantic equality of the represented functions.
///
/// Two dynamic-maintenance services keep long-lived managers small:
///
/// * [`Manager::collect_garbage`] — mark-and-sweep over caller-supplied
///   roots with arena compaction (handles are remapped through the
///   returned [`Gc`](crate::Gc));
/// * [`Manager::sift`] — Rudell-style dynamic variable reordering built
///   on the adjacent-level [`swap`](Manager::swap_adjacent_levels)
///   primitive (which never invalidates handles; the sift remaps its
///   root list in place when it compacts swap debris).
///
/// [`Manager::clear_caches`] can be used to drop memoisation tables (but
/// not nodes) between phases.
///
/// The unique table and the `apply`, `ite` and negation caches hash their
/// keys with a small in-tree multiply-rotate hasher in the style of
/// FxHash instead of the standard library's SipHash, which costs more
/// than the table lookup it serves. SipHash guards a map against keys
/// chosen to collide; these keys are node ids, variable ids and operation
/// tags that the manager assigns itself, never raw input, so that guard
/// buys nothing here.
///
/// # Panics
///
/// All operations panic if the arena would exceed the configured node limit
/// (default: 64 million nodes ≈ 1 GiB); see [`Manager::set_node_limit`].
///
/// # Example
///
/// ```
/// use bfl_bdd::{Manager, Var};
/// let mut m = Manager::new(3);
/// let a = m.var(Var(0));
/// let b = m.var(Var(1));
/// let ab = m.and(a, b);
/// let n = m.not(ab);
/// let back = m.not(n);
/// assert_eq!(ab, back); // canonicity
/// ```
#[derive(Debug, Clone)]
pub struct Manager {
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: FxHashMap<(u32, u32, u32), u32>,
    pub(crate) op_cache: FxHashMap<(Op, u32, u32), u32>,
    pub(crate) ite_cache: FxHashMap<(u32, u32, u32), u32>,
    pub(crate) not_cache: FxHashMap<u32, u32>,
    num_vars: u32,
    node_limit: usize,
    /// variable id -> current level (index by `Var::index`).
    pub(crate) var2level: Vec<u32>,
    /// current level -> variable id (inverse of `var2level`).
    pub(crate) level2var: Vec<u32>,
}

impl Manager {
    /// Default maximum number of nodes before operations panic.
    pub const DEFAULT_NODE_LIMIT: usize = 64 << 20;

    /// Creates a manager over `num_vars` variables `Var(0) .. Var(num_vars)`.
    ///
    /// Initially `Var(k)` sits at level `k` of the variable order; more
    /// variables can be added later with [`Manager::add_vars`], and the
    /// order can be changed dynamically with [`Manager::sift`].
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(2);
    /// assert_eq!(m.num_vars(), 2);
    /// let x = m.var(Var(0));
    /// let y = m.var(Var(1));
    /// let f = m.and(x, y);
    /// assert!(m.eval(f, |_| true));
    /// ```
    pub fn new(num_vars: u32) -> Self {
        let terminal = |b: u32| Node {
            var: Var(TERMINAL_LEVEL),
            low: Bdd(b),
            high: Bdd(b),
        };
        Manager {
            nodes: vec![terminal(0), terminal(1)],
            unique: FxHashMap::default(),
            op_cache: FxHashMap::default(),
            ite_cache: FxHashMap::default(),
            not_cache: FxHashMap::default(),
            num_vars,
            node_limit: Self::DEFAULT_NODE_LIMIT,
            var2level: (0..num_vars).collect(),
            level2var: (0..num_vars).collect(),
        }
    }

    /// The constant-false function.
    pub fn bot(&self) -> Bdd {
        Bdd(0)
    }

    /// The constant-true function.
    pub fn top(&self) -> Bdd {
        Bdd(1)
    }

    /// Returns the constant function for `value`.
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            self.top()
        } else {
            self.bot()
        }
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Declares `extra` additional variables at the bottom of the order and
    /// returns the first newly created variable.
    pub fn add_vars(&mut self, extra: u32) -> Var {
        let first = self.num_vars;
        self.num_vars += extra;
        for id in first..self.num_vars {
            self.var2level.push(self.level2var.len() as u32);
            self.level2var.push(id);
        }
        Var(first)
    }

    /// The current level of variable `v` (`0` = top of the order).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a declared variable of this manager.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let m = Manager::new(3);
    /// assert_eq!(m.level_of(Var(2)), 2); // fresh managers use the identity order
    /// ```
    pub fn level_of(&self, v: Var) -> u32 {
        self.var2level[v.0 as usize]
    }

    /// The variable currently sitting at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_vars`.
    pub fn var_at_level(&self, level: u32) -> Var {
        Var(self.level2var[level as usize])
    }

    /// The current variable order, top level first.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let m = Manager::new(3);
    /// assert_eq!(m.current_order(), vec![Var(0), Var(1), Var(2)]);
    /// ```
    pub fn current_order(&self) -> Vec<Var> {
        self.level2var.iter().map(|&id| Var(id)).collect()
    }

    /// Total number of nodes allocated in the arena (including terminals).
    pub fn arena_size(&self) -> usize {
        self.nodes.len()
    }

    /// Sets the maximum number of nodes the arena may hold.
    ///
    /// # Panics
    ///
    /// Subsequent operations panic when the limit would be exceeded.
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit;
    }

    /// Drops all memoisation caches (unique table and nodes are kept).
    pub fn clear_caches(&mut self) {
        self.op_cache.clear();
        self.ite_cache.clear();
        self.not_cache.clear();
    }

    /// Read access to a node. Terminals report a sentinel variable level.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a handle of this manager.
    pub fn node(&self, f: Bdd) -> Node {
        self.nodes[f.0 as usize]
    }

    /// The decision level of the root of `f` (`u32::MAX` for terminals).
    pub(crate) fn level(&self, f: Bdd) -> u32 {
        let id = self.nodes[f.0 as usize].var.0;
        if id == TERMINAL_LEVEL {
            TERMINAL_LEVEL
        } else {
            self.var2level[id as usize]
        }
    }

    /// Returns the single-node BDD for the positive literal `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a declared variable of this manager.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(1);
    /// let x = m.var(Var(0));
    /// assert!(m.eval(x, |_| true));
    /// assert!(!m.eval(x, |_| false));
    /// assert_eq!(m.var(Var(0)), x); // hash-consed: same node every time
    /// ```
    pub fn var(&mut self, v: Var) -> Bdd {
        assert!(v.0 < self.num_vars, "undeclared variable {v}");
        let bot = self.bot();
        let top = self.top();
        self.mk(v, bot, top)
    }

    /// Returns the single-node BDD for the negative literal `¬v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a declared variable of this manager.
    pub fn nvar(&mut self, v: Var) -> Bdd {
        assert!(v.0 < self.num_vars, "undeclared variable {v}");
        let bot = self.bot();
        let top = self.top();
        self.mk(v, top, bot)
    }

    /// Finds or creates the node `(var, low, high)`, applying the ROBDD
    /// reduction rules (redundant-test elimination and sharing).
    pub(crate) fn mk(&mut self, var: Var, low: Bdd, high: Bdd) -> Bdd {
        if low == high {
            return low;
        }
        debug_assert!(
            self.level_of(var) < self.level(low) && self.level_of(var) < self.level(high),
            "variable order violated: {} above children",
            var
        );
        let key = (var.0, low.0, high.0);
        if let Some(&id) = self.unique.get(&key) {
            return Bdd(id);
        }
        assert!(
            self.nodes.len() < self.node_limit,
            "BDD node limit exceeded ({} nodes)",
            self.node_limit
        );
        let id = self.nodes.len() as u32;
        self.nodes.push(Node { var, low, high });
        self.unique.insert(key, id);
        Bdd(id)
    }

    pub(crate) fn op_cache_get(&self, op: Op, f: Bdd, g: Bdd) -> Option<Bdd> {
        self.op_cache.get(&(op, f.0, g.0)).map(|&id| Bdd(id))
    }

    pub(crate) fn op_cache_put(&mut self, op: Op, f: Bdd, g: Bdd, r: Bdd) {
        self.op_cache.insert((op, f.0, g.0), r.0);
    }

    pub(crate) fn ite_cache_get(&self, f: Bdd, g: Bdd, h: Bdd) -> Option<Bdd> {
        self.ite_cache.get(&(f.0, g.0, h.0)).map(|&id| Bdd(id))
    }

    pub(crate) fn ite_cache_put(&mut self, f: Bdd, g: Bdd, h: Bdd, r: Bdd) {
        self.ite_cache.insert((f.0, g.0, h.0), r.0);
    }

    pub(crate) fn not_cache_get(&self, f: Bdd) -> Option<Bdd> {
        self.not_cache.get(&f.0).map(|&id| Bdd(id))
    }

    pub(crate) fn not_cache_put(&mut self, f: Bdd, r: Bdd) {
        self.not_cache.insert(f.0, r.0);
    }

    /// Number of nodes reachable from `f` (including the terminals reached).
    ///
    /// This is the conventional "BDD size" reported in the literature,
    /// and the quantity [`Manager::sift`] minimises.
    ///
    /// # Example
    ///
    /// ```
    /// use bfl_bdd::{Manager, Var};
    /// let mut m = Manager::new(2);
    /// let a = m.var(Var(0));
    /// let b = m.var(Var(1));
    /// let f = m.or(a, b);
    /// assert_eq!(m.node_count(f), 4); // two decision nodes + two terminals
    /// assert_eq!(m.node_count(m.top()), 1);
    /// ```
    pub fn node_count(&self, f: Bdd) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if !seen.insert(n.0) {
                continue;
            }
            if !n.is_terminal() {
                let node = self.node(n);
                stack.push(node.low);
                stack.push(node.high);
            }
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_are_fixed() {
        let m = Manager::new(0);
        assert!(m.bot().is_false());
        assert!(m.top().is_true());
        assert!(m.bot().is_terminal());
        assert_ne!(m.bot(), m.top());
    }

    #[test]
    fn var_nodes_are_shared() {
        let mut m = Manager::new(2);
        let a1 = m.var(Var(0));
        let a2 = m.var(Var(0));
        assert_eq!(a1, a2);
        assert_eq!(m.arena_size(), 3);
    }

    #[test]
    fn mk_eliminates_redundant_tests() {
        let mut m = Manager::new(2);
        let t = m.top();
        let r = m.mk(Var(0), t, t);
        assert_eq!(r, t);
    }

    #[test]
    fn var_and_nvar_differ() {
        let mut m = Manager::new(1);
        let p = m.var(Var(0));
        let n = m.nvar(Var(0));
        assert_ne!(p, n);
        let node = m.node(p);
        assert_eq!(node.low, m.bot());
        assert_eq!(node.high, m.top());
    }

    #[test]
    #[should_panic(expected = "undeclared variable")]
    fn undeclared_variable_panics() {
        let mut m = Manager::new(1);
        let _ = m.var(Var(5));
    }

    #[test]
    fn node_count_counts_reachable() {
        let mut m = Manager::new(2);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let f = m.or(a, b);
        // root (x0), node for x1, two terminals
        assert_eq!(m.node_count(f), 4);
    }

    #[test]
    fn add_vars_extends_order() {
        let mut m = Manager::new(1);
        let first = m.add_vars(2);
        assert_eq!(first, Var(1));
        assert_eq!(m.num_vars(), 3);
        let _ = m.var(Var(2));
    }
}
