//! Incremental SAT solving across pipeline iterations.
//!
//! The scratch SAT pass rebuilds solver and CNF from the database every
//! round, throwing away learnt clauses, variable activities and saved phases
//! each time. The types here keep both alive instead: [`IncrementalCnf`] is
//! a persistent ANF → CNF encoder that appends only the *delta* — knowledge
//! and polynomial rows not yet encoded — and [`IncrementalSatState`] owns
//! the warm [`Solver`] fed from it.
//!
//! # Why the monotone clause stream is sound
//!
//! The pipeline maintains the invariant that every row ever present in the
//! database, and every piece of propagation knowledge, is a consequence of
//! the original system (facts pass the retainability filter before being
//! committed). The persistent CNF is therefore a growing conjunction of
//! consequences: it is equisatisfiable with the current database at every
//! round, models found on it restrict to models of the database, and any
//! literal the solver fixes at decision level zero is a consequence of the
//! original system — exactly the contract the scratch path provides. Rows
//! are deduplicated by polynomial *content* (the database's revision says
//! only that propagation rewrote the system, not which rows it changed),
//! and auxiliary monomial-definition variables are shared across rounds
//! through the monomial interner, so re-encoded rows reuse them instead of
//! redefining them.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use bosphorus_anf::{AnfPropagator, Monomial, Polynomial, PolynomialSystem, Var, VarKnowledge};
use bosphorus_cnf::{CnfFormula, CnfVar};
use bosphorus_interrupt::CancelToken;
use bosphorus_sat::{Solver, SolverConfig, XorConstraint};

use crate::anf_to_cnf::{Converter, FactTranslator};
use crate::satstep::{solve_and_harvest, SatStepOutcome};
use crate::BosphorusConfig;

/// A persistent ANF → CNF encoder for the incremental SAT pass.
///
/// Unlike [`anf_to_cnf`](crate::anf_to_cnf), which converts the whole
/// system in one shot, this encoder lives across pipeline iterations:
/// [`IncrementalCnf::encode_delta`] appends clauses only for propagation
/// knowledge that changed and for polynomial rows not seen before, in the
/// same order the one-shot conversion would emit them (knowledge first,
/// then rows), so the first round produces an identical formula.
pub struct IncrementalCnf {
    converter: Converter,
    /// Every polynomial row ever encoded, by content (see the module
    /// documentation for why content, not revision, is the dedup key).
    encoded_rows: HashSet<Polynomial>,
    /// Per-variable knowledge snapshot from the last delta; entries whose
    /// current knowledge differs get their new clauses appended.
    knowledge: Vec<VarKnowledge>,
    /// Lazily refreshed CNF-variable → monomial view over the converter's
    /// interner (the incremental analogue of
    /// [`CnfConversion::monomial_of_var`](crate::CnfConversion)).
    monomial_of_var: BTreeMap<CnfVar, Monomial>,
    /// How many interner ids `monomial_of_var` already covers.
    materialised_ids: usize,
    num_anf_vars: usize,
}

impl IncrementalCnf {
    /// Creates an empty encoder for a system over `num_anf_vars` variables.
    pub fn new(num_anf_vars: usize, config: &BosphorusConfig) -> Self {
        IncrementalCnf {
            converter: Converter::new(num_anf_vars, config),
            encoded_rows: HashSet::new(),
            knowledge: vec![VarKnowledge::Free; num_anf_vars],
            monomial_of_var: BTreeMap::new(),
            materialised_ids: 0,
            num_anf_vars,
        }
    }

    /// Appends the clauses for knowledge that changed and rows not yet
    /// encoded. Knowledge is encoded in variable order and rows in system
    /// order, mirroring the one-shot conversion.
    pub fn encode_delta(&mut self, system: &PolynomialSystem, propagator: &AnfPropagator) {
        for var in 0..self.num_anf_vars as Var {
            let current = propagator.knowledge(var);
            if self.knowledge[var as usize] != current {
                self.converter.encode_knowledge(var, current);
                self.knowledge[var as usize] = current;
            }
        }
        for poly in system.iter() {
            if !self.encoded_rows.contains(poly) {
                self.converter.convert_polynomial(poly);
                self.encoded_rows.insert(poly.clone());
            }
        }
        self.refresh_monomial_map();
    }

    /// The formula encoded so far (clauses only ever appended).
    pub fn cnf(&self) -> &CnfFormula {
        &self.converter.cnf
    }

    /// The native XOR constraints mirroring the encoded polynomials (only
    /// populated when the configuration emits them).
    pub fn xors(&self) -> &[XorConstraint] {
        &self.converter.xors
    }

    /// Number of ANF variables of the underlying system.
    pub fn num_anf_vars(&self) -> usize {
        self.num_anf_vars
    }

    fn refresh_monomial_map(&mut self) {
        let monomials = self.converter.interner.monomials();
        for (id, monomial) in monomials.iter().enumerate().skip(self.materialised_ids) {
            self.monomial_of_var
                .insert(self.converter.var_of_id[id], monomial.clone());
        }
        self.materialised_ids = monomials.len();
    }
}

impl FactTranslator for IncrementalCnf {
    fn monomial(&self, var: CnfVar) -> Option<&Monomial> {
        self.monomial_of_var.get(&var)
    }
}

impl fmt::Debug for IncrementalCnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IncrementalCnf")
            .field("num_anf_vars", &self.num_anf_vars)
            .field("encoded_rows", &self.encoded_rows.len())
            .field("cnf_clauses", &self.converter.cnf.num_clauses())
            .field("cnf_vars", &self.converter.cnf.num_vars())
            .finish()
    }
}

/// The warm solver the incremental SAT pass keeps across pipeline
/// iterations: one [`Solver`] (learnt clauses, activities and saved phases
/// survive between rounds) fed from one [`IncrementalCnf`].
#[derive(Debug)]
pub struct IncrementalSatState {
    solver: Solver,
    cnf: IncrementalCnf,
    /// Clauses `[0, clause_cursor)` of the encoder are already in the
    /// solver.
    clause_cursor: usize,
    /// XOR constraints `[0, xor_cursor)` of the encoder are already in the
    /// solver.
    xor_cursor: usize,
}

impl IncrementalSatState {
    /// Creates a fresh state (an empty warm solver plus an empty encoder).
    pub fn new(
        num_anf_vars: usize,
        config: &BosphorusConfig,
        solver_config: &SolverConfig,
    ) -> Self {
        IncrementalSatState {
            solver: Solver::new(solver_config.clone()),
            cnf: IncrementalCnf::new(num_anf_vars, config),
            clause_cursor: 0,
            xor_cursor: 0,
        }
    }

    /// Number of ANF variables this state was built for; the SAT pass
    /// rebuilds the state if the database's variable count ever diverges.
    pub fn num_anf_vars(&self) -> usize {
        self.cnf.num_anf_vars()
    }

    /// Read access to the warm solver (its statistics are cumulative across
    /// rounds).
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Runs one conflict-bounded round: encode the database delta, feed the
    /// new clauses and XOR constraints to the warm solver, solve under
    /// `budget` conflicts and harvest facts. Semantics match
    /// [`sat_step_cancellable`](crate::sat_step_cancellable) — including
    /// transactional interruption: a cancelled round reports
    /// [`SatStepStatus::Interrupted`](crate::SatStepStatus) with no facts
    /// and leaves the solver consistent for the next round.
    pub fn step(
        &mut self,
        system: &PolynomialSystem,
        propagator: &AnfPropagator,
        budget: u64,
        token: &CancelToken,
    ) -> SatStepOutcome {
        self.cnf.encode_delta(system, propagator);
        self.solver.new_vars(self.cnf.cnf().num_vars());
        // A `false` return marks the solver unsatisfiable; `solve` then
        // reports Unsat immediately, so the returns need no special casing.
        for clause in &self.cnf.cnf().clauses()[self.clause_cursor..] {
            self.solver.add_clause(clause.iter().copied());
        }
        self.clause_cursor = self.cnf.cnf().clauses().len();
        if self.solver.config().xor_reasoning {
            for xor in &self.cnf.xors()[self.xor_cursor..] {
                self.solver.add_xor(xor.clone());
            }
        }
        self.xor_cursor = self.cnf.xors().len();
        let (cnf_clauses, cnf_vars) = (self.cnf.cnf().num_clauses(), self.cnf.cnf().num_vars());
        solve_and_harvest(
            &mut self.solver,
            &self.cnf,
            self.cnf.num_anf_vars(),
            budget,
            token,
            cnf_clauses,
            cnf_vars,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::satstep::{sat_step_cancellable, SatStepStatus};
    use bosphorus_anf::AnfDatabase;

    fn config() -> BosphorusConfig {
        BosphorusConfig::default()
    }

    fn state_for(db: &AnfDatabase) -> IncrementalSatState {
        IncrementalSatState::new(db.num_vars(), &config(), &SolverConfig::aggressive())
    }

    fn scratch(db: &AnfDatabase, budget: u64) -> SatStepOutcome {
        sat_step_cancellable(
            db.system(),
            db.propagator(),
            &config(),
            &SolverConfig::aggressive(),
            budget,
            &CancelToken::never(),
        )
    }

    #[test]
    fn first_round_matches_the_scratch_conversion_exactly() {
        let db = AnfDatabase::new(
            bosphorus_anf::PolynomialSystem::parse(
                "x1*x2 + x3 + x4 + 1;
                 x1*x2*x3 + x1 + x3 + 1;
                 x1*x3 + x3*x4*x5 + x3;
                 x2*x3 + x3*x5 + 1;
                 x2*x3 + x5 + 1;",
            )
            .expect("parses"),
        );
        let mut state = state_for(&db);
        state.cnf.encode_delta(db.system(), db.propagator());
        let one_shot = crate::anf_to_cnf(db.system(), db.propagator(), &config());
        assert_eq!(state.cnf.cnf(), &one_shot.cnf, "identical clause stream");
        assert_eq!(state.cnf.monomial_of_var, one_shot.monomial_of_var);
    }

    #[test]
    fn step_agrees_with_scratch_and_encoding_is_a_delta() {
        let mut db = AnfDatabase::new(
            bosphorus_anf::PolynomialSystem::parse(
                "x0*x1 + x2; x1 + x2 + 1; x0*x2 + x0 + x1; x2*x3 + x0; x3 + x1;",
            )
            .expect("parses"),
        );
        let mut state = state_for(&db);
        let token = CancelToken::never();
        let first = state.step(db.system(), db.propagator(), 10_000, &token);
        let reference = scratch(&db, 10_000);
        assert_eq!(first.status, reference.status);
        assert_eq!(first.facts, reference.facts);
        assert_eq!(first.cnf_clauses, reference.cnf_clauses);

        // Committing a learnt fact and re-stepping only appends the new
        // row's clauses; everything already encoded is skipped by content.
        let clauses_before = state.cnf.cnf().num_clauses();
        assert!(db.push_unique("x0 + x1 + x2".parse().expect("parses")));
        let second = state.step(db.system(), db.propagator(), 10_000, &token);
        assert!(state.cnf.cnf().num_clauses() > clauses_before);
        let full = crate::anf_to_cnf(db.system(), db.propagator(), &config());
        assert!(
            state.cnf.cnf().num_clauses() - clauses_before < full.cnf.num_clauses(),
            "the delta is strictly smaller than a full re-encoding"
        );
        // The added row is a consequence-shaped constraint; the round stays
        // decided the same way as a scratch solve of the grown database.
        let reference = scratch(&db, 10_000);
        assert_eq!(second.status, reference.status);
    }

    #[test]
    fn changed_knowledge_is_re_encoded_once() {
        let db = AnfDatabase::new(
            bosphorus_anf::PolynomialSystem::parse("x0*x1 + x2;").expect("parses"),
        );
        let mut cnf = IncrementalCnf::new(db.num_vars(), &config());
        cnf.encode_delta(db.system(), db.propagator());
        let baseline = cnf.cnf().num_clauses();

        let mut propagator = db.propagator().clone();
        propagator.assign(2, true);
        cnf.encode_delta(db.system(), &propagator);
        assert_eq!(
            cnf.cnf().num_clauses(),
            baseline + 1,
            "one unit clause for the newly determined variable"
        );
        // The same knowledge again adds nothing.
        cnf.encode_delta(db.system(), &propagator);
        assert_eq!(cnf.cnf().num_clauses(), baseline + 1);
    }

    #[test]
    fn warm_solver_keeps_learnt_clauses_across_rounds() {
        // A satisfiable instance solved one conflict at a time: the warm
        // solver accumulates conflicts across rounds while a scratch solver
        // would restart from zero every time.
        let db = AnfDatabase::new(
            bosphorus_anf::PolynomialSystem::parse(
                "x1*x2 + x3 + x4 + 1;
                 x1*x2*x3 + x1 + x3 + 1;
                 x1*x3 + x3*x4*x5 + x3;
                 x2*x3 + x3*x5 + 1;
                 x2*x3 + x5 + 1;",
            )
            .expect("parses"),
        );
        let mut state = state_for(&db);
        let token = CancelToken::never();
        let mut rounds: u64 = 0;
        loop {
            let outcome = state.step(db.system(), db.propagator(), 1, &token);
            rounds += 1;
            match outcome.status {
                SatStepStatus::Undecided => {
                    assert!(rounds < 64, "tiny instance must converge");
                }
                SatStepStatus::Satisfiable(a) => {
                    assert!(db.system().is_satisfied_by(&a));
                    break;
                }
                other => panic!("unexpected status {other:?}"),
            }
        }
        assert!(
            state.solver().stats().conflicts >= rounds - 1,
            "every undecided round's conflict survives in the warm solver"
        );
    }

    #[test]
    fn interrupted_step_is_transactional() {
        let db = AnfDatabase::new(
            bosphorus_anf::PolynomialSystem::parse(
                "x1*x2 + x3 + x4 + 1;
                 x1*x2*x3 + x1 + x3 + 1;
                 x1*x3 + x3*x4*x5 + x3;
                 x2*x3 + x3*x5 + 1;
                 x2*x3 + x5 + 1;",
            )
            .expect("parses"),
        );
        let mut state = state_for(&db);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let outcome = state.step(db.system(), db.propagator(), 10_000, &cancelled);
        assert_eq!(outcome.status, SatStepStatus::Interrupted);
        assert!(outcome.facts.is_empty(), "no partial facts on interruption");
        // The state stays usable: the next (uncancelled) round decides.
        let after = state.step(db.system(), db.propagator(), 10_000, &CancelToken::never());
        assert!(matches!(after.status, SatStepStatus::Satisfiable(_)));
    }
}
