//! # `bfl-bdd` — a reduced ordered binary decision diagram engine
//!
//! This crate implements the BDD substrate required by the BFL model-checking
//! algorithms of *"BFL: a Logic to Reason about Fault Trees"* (Nicoletti,
//! Hahn & Stoelinga, DSN 2022). It is a self-contained, from-scratch
//! implementation in the style of classical BDD packages
//! (Brace–Rudell–Bryant 1990, Andersen 1997, Ben-Ari 2012):
//!
//! * hash-consed node storage with a unique table, so every Boolean function
//!   has exactly one reduced representation per [`Manager`];
//! * memoised [`ite`](Manager::ite)-based `apply` operations
//!   (`∧ ∨ ⊕ ⇒ ≡ ¬`);
//! * [`restrict`](Manager::restrict) (cofactor), existential/universal
//!   quantification, the combined *relational product*
//!   [`and_exists`](Manager::and_exists), variable
//!   [`rename`](Manager::rename) (used for the `V ↷ V′` priming step of the
//!   paper's `MCS` construction) and [`compose`](Manager::compose);
//! * satisfiability services: [`eval`](Manager::eval),
//!   [`any_sat`](Manager::any_sat), the `AllSat` path iterator
//!   ([`sat_paths`](Manager::sat_paths)), full-vector enumeration
//!   ([`sat_vectors`](Manager::sat_vectors)) and model counting
//!   ([`sat_count`](Manager::sat_count));
//! * the subset/superset vector relations of the paper's Algorithm 1
//!   ([`strict_subset`](Manager::strict_subset),
//!   [`strict_superset`](Manager::strict_superset));
//! * **cross-arena stitching**: [`import`](Manager::import),
//!   [`import_many`](Manager::import_many) and
//!   [`import_substitute`](Manager::import_substitute) copy diagrams
//!   between managers — hash-consed into the destination's unique table
//!   and order-checked, so per-worker arenas can compile fault-tree
//!   modules in parallel and stitch the results into a parent manager
//!   with node-for-node identical diagrams;
//! * **dynamic maintenance**: Rudell-style sifting reordering
//!   ([`sift`](Manager::sift), built on the in-place
//!   [`swap_adjacent_levels`](Manager::swap_adjacent_levels) primitive)
//!   and mark-and-sweep garbage collection with arena compaction
//!   ([`collect_garbage`](Manager::collect_garbage));
//! * Graphviz export ([`to_dot`](Manager::to_dot)) used to reproduce the
//!   BDD figures of the paper;
//! * **self-auditing**: [`Manager::audit`] verifies the whole arena
//!   (unique-table canonicity, reduction, order, var↔level bijectivity,
//!   sampled cache soundness) and returns an [`AuditReport`]; debug
//!   builds run it automatically after every sift, collection and
//!   import.
//!
//! Variables are identified by a stable id: a fresh manager places
//! [`Var(k)`](Var) at level `k`, and dynamic reordering moves variables
//! between levels without changing their identity ([`Manager::level_of`]
//! / [`Manager::var_at_level`] expose the current order). Clients that
//! need a domain-specific order (e.g. fault-tree orderings) maintain the
//! mapping between domain objects and variable ids; see the
//! `bfl-fault-tree` crate.
//!
//! ## Example
//!
//! ```
//! use bfl_bdd::{Manager, Var};
//!
//! let mut m = Manager::new(2);
//! let x = m.var(Var(0));
//! let y = m.var(Var(1));
//! let f = m.or(x, y);
//!
//! assert!(m.eval(f, |v| v == Var(1)));
//! assert_eq!(m.sat_count(f, 2), 3); // 01, 10, 11
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod dot;
mod fxhash;
mod gc;
mod import;
mod manager;
mod ops;
mod prob;
mod reorder;
mod sat;
mod subset;
pub mod zdd;

pub use audit::AuditReport;
pub use gc::{Gc, GcStats};
pub use manager::{Bdd, Manager, Node, Var};
pub use reorder::{SiftOptions, SiftStats};
pub use sat::{SatPath, SatPaths, SatVectors};
pub use zdd::{Zdd, ZddManager};
