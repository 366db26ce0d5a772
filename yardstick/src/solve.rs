//! The two Table II paths for one instance, timed call by call.
//!
//! *Without* Bosphorus: `anf_to_cnf` → `Solver`. *With* Bosphorus:
//! `Bosphorus::new` → `preprocess` → `to_cnf` → `Solver`. Both end in the
//! same capped final solve, and both verdicts are checked against the
//! original system outside the timed path.

use std::collections::BTreeMap;

use bosphorus::{
    anf_to_cnf, AnfPropagator, Bosphorus, BosphorusConfig, PassStats, Pipeline, PreprocessStatus,
};
use bosphorus_anf::{Assignment, Polynomial};
use bosphorus_cnf::CnfFormula;
use bosphorus_sat::{SolveResult, Solver, SolverConfig};

use crate::trace::{layer_name, span, traced_standard_pipeline, PassCounters, SharedTrace};
use crate::workloads::Instance;

/// Conflict cap of the final solve: the only thing that decides "unsolved"
/// (the `crates/bench/DESIGN.md` rule standing in for the paper's timeout).
pub const FINAL_CONFLICT_CAP: u64 = 200_000;

/// What a path concluded about an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Satisfiable, with the model the path produced.
    Sat(Assignment),
    /// Unsatisfiable.
    Unsat,
    /// The final solve hit [`FINAL_CONFLICT_CAP`].
    Unknown,
}

impl Verdict {
    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Sat(_) => "SAT",
            Verdict::Unsat => "UNSAT",
            Verdict::Unknown => "UNKNOWN",
        }
    }
}

/// The work a with-Bosphorus run did, as counts that must not depend on
/// whether its passes were wrapped: equal fingerprints of a traced and an
/// untraced run mean the tracing was invisible to the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineFingerprint {
    /// The pipeline's pass names, in order.
    pub pipeline: Vec<&'static str>,
    /// Driver iterations.
    pub iterations: usize,
    /// The engine's own counts per pass.
    pub passes: Vec<(String, PassCounters)>,
    /// Total SAT conflicts of the in-loop passes.
    pub sat_conflicts: u64,
    /// Total GF(2) row XORs.
    pub gauss_row_xors: u64,
    /// Every learnt fact, in commit order.
    pub learnt_facts: Vec<Polynomial>,
    /// The verdict's label.
    pub verdict: &'static str,
}

/// One path run on one instance.
#[derive(Debug, Clone)]
pub struct PathRun {
    /// The verdict the path reached.
    pub verdict: Verdict,
    /// Whether the verdict survived the check against the original system.
    pub correct: bool,
    /// Wall-clock seconds of the path, the model check excluded: the PAR-2
    /// runtime.
    pub seconds: f64,
    /// Per-layer seconds and counts of this run, keyed by metric name.
    pub layers: BTreeMap<String, f64>,
    /// Engine counts, for with-Bosphorus runs.
    pub fingerprint: Option<EngineFingerprint>,
}

impl PathRun {
    /// Solved within the cap and verified.
    pub fn solved(&self) -> bool {
        self.correct && self.verdict != Verdict::Unknown
    }
}

/// Solves `instance` without Bosphorus: direct conversion, then the final
/// solver.
pub fn without_bosphorus(
    instance: &Instance,
    config: &BosphorusConfig,
    trace: &SharedTrace,
) -> PathRun {
    let system = &instance.system;
    let mut layers = BTreeMap::new();
    trace.borrow_mut().clear();
    let verdict = span(trace, "path", || {
        let conversion = span(trace, "anf_to_cnf", || {
            anf_to_cnf(system, &AnfPropagator::new(system.num_vars()), config)
        });
        let (result, model) = final_solve(&conversion.cnf, trace, &mut layers, "without");
        to_verdict(result, model, system.num_vars(), |partial| partial)
    });
    finish(instance, verdict, trace, layers, "without", None)
}

/// Solves `instance` with Bosphorus: the engine preprocesses, then the final
/// solver decides the processed CNF. With `traced`, every pass is wrapped
/// in a [`TracedPass`](crate::trace::TracedPass) and `preprocess_with` runs
/// the wrapped pipeline; otherwise `preprocess` runs the engine's own.
pub fn with_bosphorus(
    instance: &Instance,
    config: &BosphorusConfig,
    trace: &SharedTrace,
    traced: bool,
) -> PathRun {
    let mut layers = BTreeMap::new();
    trace.borrow_mut().clear();
    let (verdict, engine, wrapped) = span(trace, "path", || {
        let mut engine = span(trace, "engine.new", || {
            Bosphorus::new(instance.system.clone(), config.clone())
        });
        let mut wrapped = traced.then(|| traced_standard_pipeline(config, trace));
        let status = span(trace, "engine.preprocess", || match wrapped.as_mut() {
            Some((pipeline, _)) => engine.preprocess_with(pipeline),
            None => engine.preprocess(),
        });
        let verdict = match status {
            PreprocessStatus::Solved(assignment) => Verdict::Sat(assignment),
            PreprocessStatus::Unsat => Verdict::Unsat,
            PreprocessStatus::Interrupted => {
                unreachable!("no cancel token is attached, so preprocessing cannot be interrupted")
            }
            PreprocessStatus::Simplified => {
                let conversion = span(trace, "anf_to_cnf", || engine.to_cnf());
                let (result, model) = final_solve(&conversion.cnf, trace, &mut layers, "with");
                to_verdict(result, model, engine.original_num_vars(), |partial| {
                    engine.reconstruct_assignment(&partial)
                })
            }
        };
        (verdict, engine, wrapped)
    });
    let stats = engine.stats();
    layers.insert("engine.iterations".into(), stats.iterations as f64);
    layers.insert("engine.facts".into(), stats.total_facts() as f64);
    let pipeline = match &wrapped {
        Some((pipeline, counters)) => {
            for (kind, counters) in counters {
                let counters = *counters.borrow();
                // The engine does not count useful runs; only the wrapper
                // sees those.
                assert_eq!(
                    Some(PassCounters {
                        useful_runs: 0,
                        ..counters
                    }),
                    stats.pass(kind.name()).map(pass_counters),
                    "the {kind} wrapper counted differently from the engine"
                );
                record_counters(&mut layers, layer_name(*kind), &counters);
            }
            pipeline.names()
        }
        None => Pipeline::standard(config).names(),
    };
    let fingerprint = EngineFingerprint {
        pipeline,
        iterations: stats.iterations,
        passes: stats
            .passes
            .iter()
            .map(|pass| (pass.name.clone(), pass_counters(pass)))
            .collect(),
        sat_conflicts: stats.sat_conflicts,
        gauss_row_xors: stats.gauss_row_xors,
        learnt_facts: engine.learnt_facts().to_vec(),
        verdict: verdict.label(),
    };
    finish(instance, verdict, trace, layers, "with", Some(fingerprint))
}

/// The capped final solve with the CLI's default solver configuration.
fn final_solve(
    cnf: &CnfFormula,
    trace: &SharedTrace,
    layers: &mut BTreeMap<String, f64>,
    path: &str,
) -> (SolveResult, Option<Vec<bool>>) {
    layers.insert(
        format!("anf_to_cnf.{path}_clauses"),
        cnf.num_clauses() as f64,
    );
    layers.insert(format!("anf_to_cnf.{path}_vars"), cnf.num_vars() as f64);
    let (result, model, conflicts) = span(trace, "sat.final", || {
        let mut solver = Solver::from_formula(SolverConfig::aggressive(), cnf);
        solver.set_conflict_budget(Some(FINAL_CONFLICT_CAP));
        let result = solver.solve();
        let model = solver.model().map(<[bool]>::to_vec);
        (result, model, solver.stats().conflicts)
    });
    layers.insert(format!("sat.final_{path}_conflicts"), conflicts as f64);
    (result, model)
}

/// Reads the verdict off a solver result; `complete` turns the model's
/// first `num_vars` values into an assignment of the original variables.
fn to_verdict(
    result: SolveResult,
    model: Option<Vec<bool>>,
    num_vars: usize,
    complete: impl FnOnce(Assignment) -> Assignment,
) -> Verdict {
    match result {
        SolveResult::Sat => {
            let model = model.expect("SAT implies a model");
            let partial = Assignment::from_bits(
                (0..num_vars).map(|v| model.get(v).copied().unwrap_or(false)),
            );
            Verdict::Sat(complete(partial))
        }
        SolveResult::Unsat => Verdict::Unsat,
        SolveResult::Unknown => Verdict::Unknown,
    }
}

/// Checks the verdict with [`verdict_is_correct`] in a span of its own,
/// outside the PAR-2 time, then turns the trace into per-layer seconds.
fn finish(
    instance: &Instance,
    verdict: Verdict,
    trace: &SharedTrace,
    mut layers: BTreeMap<String, f64>,
    path: &str,
    fingerprint: Option<EngineFingerprint>,
) -> PathRun {
    let correct = span(trace, "verify", || verdict_is_correct(instance, &verdict));
    let trace = trace.borrow();
    let mut seconds = 0.0;
    for (id, span) in trace.spans().iter().enumerate() {
        let span_s = span.duration_ns() as f64 * 1e-9;
        let name = match span.name {
            "path" => {
                seconds = span_s;
                continue;
            }
            "engine.preprocess" => {
                let self_s = trace.self_ns(id) as f64 * 1e-9;
                layers.insert("engine.driver_self_s".into(), self_s);
                "preprocess_s".to_string()
            }
            "anf_to_cnf" => format!("anf_to_cnf.{path}_s"),
            "sat.final" => format!("sat.final_{path}_s"),
            "verify" => "verify.s".to_string(),
            other => format!("{other}_s"),
        };
        *layers.entry(name).or_default() += span_s;
    }
    PathRun {
        verdict,
        correct,
        seconds,
        layers,
        fingerprint,
    }
}

/// Whether `verdict` can be right about `instance`: a model must satisfy the
/// *original* system, and UNSAT is wrong whenever the generator supplied a
/// witness. Running out of conflicts is not wrong, only unsolved.
pub fn verdict_is_correct(instance: &Instance, verdict: &Verdict) -> bool {
    match verdict {
        Verdict::Sat(assignment) => {
            assignment.len() >= instance.system.num_vars()
                && instance.system.is_satisfied_by(assignment)
        }
        Verdict::Unsat => instance.witness.is_none(),
        Verdict::Unknown => true,
    }
}

fn pass_counters(pass: &PassStats) -> PassCounters {
    PassCounters {
        runs: pass.runs as u64,
        skips: pass.skips as u64,
        facts_committed: pass.facts as u64,
        useful_runs: 0,
        gauss_row_xors: pass.gauss.row_xors as u64,
        presolve_rows_eliminated: pass.presolve.rows_eliminated as u64,
        sat_conflicts: pass.sat_conflicts,
    }
}

fn record_counters(layers: &mut BTreeMap<String, f64>, layer: &str, c: &PassCounters) {
    for (counter, value) in [
        ("runs", c.runs),
        ("skips", c.skips),
        ("facts_committed", c.facts_committed),
        ("useful_runs", c.useful_runs),
        ("gauss_row_xors", c.gauss_row_xors),
        ("presolve_rows_eliminated", c.presolve_rows_eliminated),
        ("conflicts", c.sat_conflicts),
    ] {
        layers.insert(format!("{layer}.{counter}"), value as f64);
    }
}
