//! The incremental ANF database backing the fact-learning pipeline.
//!
//! Bosphorus's learning techniques all read (and feed facts back into) one
//! shared problem representation: the master ANF copy plus the propagation
//! knowledge accumulated so far. [`AnfDatabase`] bundles the two and stamps
//! every observable change with a monotonically increasing [`Revision`], so
//! a learning pass can record the revision it last read and skip its work
//! entirely when nothing has changed since — turning the engine's
//! fixed-point loop from repeated full-system rescans into incremental
//! updates.
//!
//! Both operations are linear in the size of the system: a committed fact
//! is checked for duplicates against a row index instead of a scan, and
//! [`AnfDatabase::propagate`] is one full propagation (a no-op when nothing
//! was committed since the previous one).

use crate::system::RowIndex;
use crate::{AnfPropagator, Polynomial, PolynomialSystem, PropagationOutcome};

/// A monotonically increasing change counter. Revision 0 is the freshly
/// constructed database; every observable mutation bumps it by one.
pub type Revision = u64;

/// The master ANF copy plus propagation knowledge, with revision tracking.
///
/// # Examples
///
/// ```
/// use bosphorus_anf::{AnfDatabase, PolynomialSystem};
///
/// let system = PolynomialSystem::parse("x0*x1 + x2; x1 + x2;")?;
/// let mut db = AnfDatabase::new(system);
/// let before = db.revision();
///
/// // Adding a new fact bumps the revision...
/// assert!(db.push_unique("x0 + 1".parse()?));
/// assert!(db.has_changed_since(before));
///
/// // ...and propagating it rewrites the system (another bump).
/// let after_push = db.revision();
/// let outcome = db.propagate();
/// assert!(!outcome.contradiction);
/// assert_eq!(db.propagator().value(0), Some(true));
/// assert!(db.has_changed_since(after_push));
///
/// // A database nobody touched reports no change.
/// let quiet = db.revision();
/// assert!(!db.has_changed_since(quiet));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AnfDatabase {
    system: PolynomialSystem,
    propagator: AnfPropagator,
    revision: Revision,
    /// Duplicate check over `system`'s rows; `None` until the first
    /// `push_unique` after construction or after a propagation rewrite.
    rows: Option<RowIndex>,
    /// Revision observed at the end of the last [`AnfDatabase::propagate`]
    /// call (`None` before the first).
    last_propagated: Option<Revision>,
}

impl AnfDatabase {
    /// Creates a database owning `system`, with a fresh propagator sized to
    /// the system's variable space.
    pub fn new(system: PolynomialSystem) -> Self {
        let propagator = AnfPropagator::new(system.num_vars());
        AnfDatabase::with_propagator(system, propagator)
    }

    /// Creates a database from an existing system and propagation state.
    pub fn with_propagator(system: PolynomialSystem, mut propagator: AnfPropagator) -> Self {
        propagator.ensure_num_vars(system.num_vars());
        AnfDatabase {
            rows: None,
            system,
            propagator,
            revision: 0,
            last_propagated: None,
        }
    }

    /// The master polynomial system.
    pub fn system(&self) -> &PolynomialSystem {
        &self.system
    }

    /// The propagation knowledge (determined variables and equivalences).
    pub fn propagator(&self) -> &AnfPropagator {
        &self.propagator
    }

    /// The current revision. Any mutation that a reader could observe bumps
    /// this counter.
    pub fn revision(&self) -> Revision {
        self.revision
    }

    /// Returns `true` when the database has been mutated after `revision`
    /// was observed.
    pub fn has_changed_since(&self, revision: Revision) -> bool {
        self.revision > revision
    }

    /// Number of polynomial equations.
    pub fn len(&self) -> usize {
        self.system.len()
    }

    /// Returns `true` if the system has no equations.
    pub fn is_empty(&self) -> bool {
        self.system.is_empty()
    }

    /// Number of variables in the system's variable space.
    pub fn num_vars(&self) -> usize {
        self.system.num_vars()
    }

    /// Appends a learnt fact unless an equal polynomial is already present.
    /// Returns `true` (and bumps the revision) when it was inserted.
    pub fn push_unique(&mut self, poly: Polynomial) -> bool {
        let rows = self
            .rows
            .get_or_insert_with(|| RowIndex::build(self.system.polynomials()));
        if poly.is_zero() || !rows.insert(self.system.polynomials(), &poly) {
            return false;
        }
        self.system.push(poly);
        self.revision += 1;
        self.propagator.ensure_num_vars(self.system.num_vars());
        true
    }

    /// Runs ANF propagation on the master system to a fixed point. When the
    /// propagation rewrote the system (or recorded new knowledge), the
    /// revision is bumped.
    ///
    /// Only [`AnfDatabase::push_unique`] and this method bump the revision,
    /// so when the revision is the one the previous call left behind, the
    /// system is still at its fixed point and the call is a no-op. Anything
    /// else is one full propagation, linear in the size of the system.
    pub fn propagate(&mut self) -> PropagationOutcome {
        if self.last_propagated == Some(self.revision) && !self.propagator.has_contradiction() {
            return PropagationOutcome {
                contradiction: false,
                new_assignments: 0,
                new_equivalences: 0,
                system_changed: false,
            };
        }
        let outcome = self.propagator.propagate(&mut self.system);
        if outcome.system_changed {
            self.rows = None;
        }
        if outcome.system_changed
            || outcome.new_assignments > 0
            || outcome.new_equivalences > 0
            || outcome.contradiction
        {
            self.revision += 1;
        }
        self.last_propagated = Some(self.revision);
        outcome
    }

    /// Returns `true` if the propagator has derived a contradiction.
    pub fn has_contradiction(&self) -> bool {
        self.propagator.has_contradiction()
    }

    /// Consumes the database, returning the system and propagation state.
    pub fn into_parts(self) -> (PolynomialSystem, AnfPropagator) {
        (self.system, self.propagator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(text: &str) -> AnfDatabase {
        AnfDatabase::new(PolynomialSystem::parse(text).expect("test system parses"))
    }

    #[test]
    fn fresh_database_is_at_revision_zero() {
        let db = db("x0*x1 + x2;");
        assert_eq!(db.revision(), 0);
        assert!(!db.has_changed_since(0));
    }

    #[test]
    fn push_unique_bumps_revision_and_marks_dirty() {
        let mut db = db("x0*x1 + x2;");
        assert!(db.push_unique("x0 + x1".parse().expect("parses")));
        assert_eq!(db.revision(), 1);
        assert!(db.has_changed_since(0));
        assert_eq!(db.len(), 2, "the new row is appended");
        // A duplicate changes nothing.
        assert!(!db.push_unique("x0 + x1".parse().expect("parses")));
        assert_eq!(db.revision(), 1);
    }

    #[test]
    fn push_unique_grows_the_propagator() {
        let mut db = db("x0;");
        assert!(db.push_unique("x7 + 1".parse().expect("parses")));
        assert_eq!(db.num_vars(), 8);
        assert_eq!(db.propagator().num_vars(), 8);
    }

    #[test]
    fn propagate_marks_everything_dirty_on_change() {
        let mut db = db("x0 + 1; x0*x1 + x2;");
        let outcome = db.propagate();
        assert!(!outcome.contradiction);
        assert!(outcome.system_changed);
        assert_eq!(db.revision(), 1);
        assert!(db.has_changed_since(0), "the rewrite is a new revision");
    }

    #[test]
    fn propagate_at_fixpoint_keeps_the_revision() {
        let mut db = db("x0 + 1; x0*x1 + x2;");
        db.propagate();
        let rev = db.revision();
        let outcome = db.propagate();
        assert!(!outcome.system_changed);
        assert_eq!(db.revision(), rev, "no-op propagation is revision-silent");
    }

    #[test]
    fn contradiction_bumps_revision_and_is_reported() {
        let mut db = db("x0; x0 + 1;");
        let outcome = db.propagate();
        assert!(outcome.contradiction);
        assert!(db.has_contradiction());
        assert!(db.has_changed_since(0));
    }

    #[test]
    fn incremental_propagation_merges_knowledge_free_facts_without_a_rescan() {
        let mut db = db("x5 + 1; x0*x1 + x2*x3;");
        db.propagate();
        assert_eq!(db.len(), 1, "x5 is propagated away");
        // A long linear fact carries no propagatable knowledge: propagation
        // keeps it verbatim and reports no change beyond the push.
        assert!(db.push_unique("x0 + x1 + x2".parse().expect("parses")));
        let rev = db.revision();
        let outcome = db.propagate();
        assert_eq!(outcome.new_assignments, 0);
        assert_eq!(outcome.new_equivalences, 0);
        assert!(!outcome.system_changed, "nothing reduced");
        assert_eq!(db.revision(), rev, "no extra revision bump");
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn incremental_propagation_dedups_a_reduced_suffix_row() {
        let mut db = db("x5 + 1; x0*x1 + x2*x3;");
        db.propagate();
        // Under x5 = 1 this reduces to the already-present x0*x1 + x2*x3,
        // so propagation drops it as a duplicate.
        assert!(db.push_unique("x0*x1*x5 + x2*x3*x5".parse().expect("parses")));
        let outcome = db.propagate();
        assert!(outcome.system_changed);
        assert_eq!(outcome.new_assignments, 0);
        assert_eq!(db.len(), 1, "the duplicate merged away");
    }

    #[test]
    fn incremental_propagation_falls_back_when_facts_carry_knowledge() {
        let mut db = db("x0*x1 + x2*x3;");
        db.propagate();
        assert!(db.push_unique("x9 + 1".parse().expect("parses")));
        let outcome = db.propagate();
        assert_eq!(outcome.new_assignments, 1, "the unit fact is absorbed");
        assert_eq!(db.propagator().value(9), Some(true));
        assert_eq!(db.len(), 1, "the absorbed fact leaves the system");
    }

    #[test]
    fn push_unique_checks_the_rewritten_rows() {
        let mut db = db("x5 + 1; x0*x1*x5 + x2;");
        db.propagate();
        assert_eq!(db.system().to_string(), "x0*x1 + x2;\n");
        // The row index follows the rewrite: the reduced row is present and
        // the original spelling is not.
        assert!(!db.push_unique("x0*x1 + x2".parse().expect("parses")));
        assert!(db.push_unique("x0*x1*x5 + x2".parse().expect("parses")));
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn into_parts_returns_system_and_knowledge() {
        let mut db = db("x0 + 1;");
        db.propagate();
        let (system, propagator) = db.into_parts();
        assert!(system.is_empty());
        assert_eq!(propagator.value(0), Some(true));
    }
}
