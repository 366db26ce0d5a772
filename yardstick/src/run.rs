//! One benchmark run: generate the workload's instances from the seed,
//! solve each with and without Bosphorus in interleaved rounds while the
//! time lasts, check every verdict, and aggregate medians into metrics.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::aggregate::{median, par2, quartiles};
use crate::solve::{with_bosphorus, without_bosphorus, EngineFingerprint, PathRun};
use crate::trace::SharedTrace;
use crate::workloads::{Instance, Workload};

/// Set-up (instance generation) is repeated at least this often, and
/// further until [`SETUP_SECONDS`] have passed or [`SETUP_MAX_REPEATS`] is
/// reached; `setup_s` is the median repetition, so one slow repetition does
/// not move it.
pub const SETUP_MIN_REPEATS: usize = 3;
/// See [`SETUP_MIN_REPEATS`].
pub const SETUP_SECONDS: f64 = 0.5;
/// See [`SETUP_MIN_REPEATS`].
pub const SETUP_MAX_REPEATS: usize = 101;

/// The nominal timeout of the PAR-2 formula. It lies far above every
/// measured instance time, so PAR-2 is never clipped; only the final
/// solve's conflict cap decides "unsolved".
pub const NOMINAL_TIMEOUT_S: f64 = 60.0;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// The seed the instances are generated from.
    pub seed: u64,
    /// How long the solving rounds may go on.
    pub seconds: u64,
    /// Whether to run the traced mode, which reports per-layer metrics.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// `true` when every verdict was verified, the with and without verdicts
    /// agreed, every round repeated the first round's counts and every
    /// traced run did the work of its untraced twin.
    pub correct: bool,
    /// Instance solves attempted, over both paths and every round.
    pub attempted: u64,
    /// Attempts that were unsolved within the cap or wrong.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines describing the run, printed before the result.
    pub notes: Vec<String>,
}

/// The ways one instance is solved in a round.
enum Path {
    Without,
    With,
    /// With Bosphorus, passes wrapped (traced runs only).
    Traced,
}

/// What one path's runs on one instance left behind: numbers and labels
/// only. A run's model and learnt facts are dropped once checked, because
/// output kept from every round fragments the heap, slows each later round
/// and would count in `peak_rss_mb`.
#[derive(Default)]
struct PathSamples {
    /// Wall-clock seconds of each run (the PAR-2 runtime).
    seconds: Vec<f64>,
    /// Each layer value of each run, 0 where a run did not record it, so
    /// every vector has one entry per run.
    layers: BTreeMap<String, Vec<f64>>,
    /// The first run's verdict label.
    first_label: Option<&'static str>,
    /// Runs solved within the cap and verified.
    solved: usize,
    /// The labels of the solved runs' verdicts.
    decided: BTreeSet<&'static str>,
    /// The label of the first verdict that failed its check.
    wrong: Option<&'static str>,
}

impl PathSamples {
    fn push(&mut self, run: PathRun) {
        let label = run.verdict.label();
        self.first_label.get_or_insert(label);
        if run.solved() {
            self.solved += 1;
            self.decided.insert(label);
        } else if !run.correct {
            self.wrong.get_or_insert(label);
        }
        let before = self.seconds.len();
        self.seconds.push(run.seconds);
        for (key, value) in run.layers {
            self.layers
                .entry(key)
                .or_insert_with(|| vec![0.0; before])
                .push(value);
        }
        for values in self.layers.values_mut() {
            values.resize(before + 1, 0.0);
        }
    }

    /// The median over runs of the seconds: the instance's runtime in the
    /// end-to-end metrics.
    fn median_seconds(&self) -> f64 {
        median(&self.seconds).expect("at least one round ran")
    }

    /// The median over runs of layer `key` (0 if no run recorded it).
    fn median_layer(&self, key: &str) -> f64 {
        self.layers.get(key).map_or(0.0, |values| {
            median(values).expect("at least one round ran")
        })
    }

    /// Layer `key` of the first run (0 if it did not record it).
    fn first_layer(&self, key: &str) -> f64 {
        self.layers.get(key).map_or(0.0, |values| values[0])
    }
}

/// The per-round results of one instance.
#[derive(Default)]
struct InstanceRuns {
    without: PathSamples,
    with: PathSamples,
    traced: PathSamples,
    /// The first with-Bosphorus run's engine counts, which every later
    /// with-Bosphorus run, traced or not, must repeat.
    fingerprint: Option<EngineFingerprint>,
    /// Set when a with-Bosphorus run did different work from the first.
    diverged: bool,
}

impl InstanceRuns {
    fn record(&mut self, path: &Path, mut run: PathRun) {
        if let Some(fingerprint) = run.fingerprint.take() {
            match &self.fingerprint {
                None => self.fingerprint = Some(fingerprint),
                Some(first) => self.diverged |= *first != fingerprint,
            }
        }
        match path {
            Path::Without => self.without.push(run),
            Path::With => self.with.push(run),
            Path::Traced => self.traced.push(run),
        }
    }
}

/// Generates the workload's instances from `seed` repeatedly (see
/// [`SETUP_MIN_REPEATS`]) and returns them with the generation time of each
/// repetition. Only the first repetition's instances are kept, so set-up
/// never holds two sets at once and `peak_rss_mb` stays the engine's.
///
/// # Panics
///
/// Panics when a repetition generates different instances, or a witness does
/// not satisfy its instance: either is a generator bug that would make the
/// verdict checks meaningless.
pub fn setup(workload: Workload, seed: u64) -> (Vec<Instance>, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut kept: Vec<Instance> = Vec::new();
    while times.len() < SETUP_MIN_REPEATS
        || (times.iter().sum::<f64>() < SETUP_SECONDS && times.len() < SETUP_MAX_REPEATS)
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seconds = 0.0;
        for index in 0..workload.instances() {
            let started = Instant::now();
            let instance = workload.generate(&mut rng);
            seconds += started.elapsed().as_secs_f64();
            match kept.get(index) {
                Some(first) => assert!(
                    first.system == instance.system,
                    "the same seed generated different instances"
                ),
                None => {
                    if let Some(witness) = &instance.witness {
                        assert!(
                            instance.system.is_satisfied_by(witness),
                            "a generator's witness does not satisfy its instance"
                        );
                    }
                    kept.push(instance);
                }
            }
        }
        times.push(seconds);
    }
    (kept, times)
}

/// Runs the benchmark.
pub fn run(options: &Options) -> Outcome {
    let workload = options.workload;
    let config = workload.config();
    let (instances, setup_times) = setup(workload, options.seed);
    let setup_s = median(&setup_times).expect("set-up ran at least once");

    let trace = SharedTrace::default();
    let budget = Duration::from_secs(options.seconds);
    let started = Instant::now();
    let mut runs: Vec<InstanceRuns> = instances.iter().map(|_| InstanceRuns::default()).collect();
    let mut rounds = 0;
    loop {
        let round_started = Instant::now();
        for (index, (instance, runs)) in instances.iter().zip(&mut runs).enumerate() {
            // Alternate which path goes first, so a drift in machine speed
            // over the run lands on both sides alike.
            let mut paths = if options.trace {
                vec![Path::Without, Path::With, Path::Traced]
            } else {
                vec![Path::Without, Path::With]
            };
            if (rounds + index) % 2 == 1 {
                paths.reverse();
            }
            for path in paths {
                let run = match path {
                    Path::Without => without_bosphorus(instance, &config, &trace),
                    Path::With => with_bosphorus(instance, &config, &trace, false),
                    Path::Traced => with_bosphorus(instance, &config, &trace, true),
                };
                runs.record(&path, run);
            }
        }
        rounds += 1;
        // Stop when another round like this one would overrun the budget.
        if started.elapsed() + round_started.elapsed() > budget {
            break;
        }
    }

    let mut notes = vec![format!(
        "workload {} seed {} instances {} (first: {} equations over {} variables) rounds {rounds} run_seconds {}",
        workload.name(),
        options.seed,
        instances.len(),
        instances[0].system.len(),
        instances[0].system.num_vars(),
        options.seconds
    )];
    let mut correct = true;
    let mut failed = 0u64;
    // Per path (0 without, 1 with): solved attempts, and one PAR-2 entry per
    // instance: its median time, solved only if every round solved it.
    let mut solved = [0u64; 2];
    let mut par2_runs: [Vec<(f64, bool)>; 2] = [Vec::new(), Vec::new()];
    for (index, runs) in runs.iter().enumerate() {
        for (side, path_runs) in [&runs.without, &runs.with].into_iter().enumerate() {
            solved[side] += path_runs.solved as u64;
            failed += (rounds - path_runs.solved) as u64;
            par2_runs[side].push((path_runs.median_seconds(), path_runs.solved == rounds));
        }
        let check = check_instance(runs);
        correct &= check.is_ok();
        notes.push(describe_instance(index, runs, check));
    }
    let attempts_per_side = (instances.len() * rounds) as f64;
    let fail_frac = |side: usize| 1.0 - solved[side] as f64 / attempts_per_side;
    notes.push(format!(
        "fail_frac_with {} fail_frac_without {}",
        fail_frac(1),
        fail_frac(0)
    ));

    let metrics = if options.trace {
        per_layer_metrics(&runs, setup_s)
    } else {
        let par2_with = par2(&par2_runs[1], NOMINAL_TIMEOUT_S);
        let par2_without = par2(&par2_runs[0], NOMINAL_TIMEOUT_S);
        notes.push(format!(
            "par2_without_s / par2_with_s = {par2_without:.4} s / {par2_with:.4} s = {:.3}",
            par2_without / par2_with
        ));
        vec![
            metric("setup_s", setup_s, "s"),
            metric("par2_with_s", par2_with, "s"),
            metric("par2_without_s", par2_without, "s"),
            metric(
                "preprocess_s",
                sum_of_medians(&runs, |r| &r.with, "preprocess_s"),
                "s",
            ),
            metric("solved_frac_with", 1.0 - fail_frac(1), "frac"),
            metric("solved_frac_without", 1.0 - fail_frac(0), "frac"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    Outcome {
        correct,
        attempted: 2 * instances.len() as u64 * rounds as u64,
        failed,
        metrics,
        notes,
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Checks every verdict and what a single run cannot show: the with and
/// without verdicts agree, every round repeats the first round's counts
/// (engine counts with Bosphorus, final-solve conflicts without), and every
/// traced run did exactly the work of the untraced runs.
fn check_instance(runs: &InstanceRuns) -> Result<(), String> {
    let paths = [&runs.without, &runs.with, &runs.traced];
    if let Some(wrong) = paths.iter().find_map(|path| path.wrong) {
        return Err(format!("wrong {wrong} verdict"));
    }
    let decided: BTreeSet<&str> = paths
        .iter()
        .flat_map(|path| path.decided.iter().copied())
        .collect();
    if decided.len() > 1 {
        return Err(format!("verdicts disagree: {decided:?}"));
    }
    if runs.diverged {
        return Err("a with-Bosphorus run did different work from the first one".into());
    }
    let direct_conflicts = runs.without.layers.get("sat.final_without_conflicts");
    if direct_conflicts.is_some_and(|c| c.iter().any(|&n| n != c[0])) {
        return Err("a direct run took different conflicts from the first one".into());
    }
    Ok(())
}

fn describe_instance(index: usize, runs: &InstanceRuns, check: Result<(), String>) -> String {
    let spread = |path_runs: &PathSamples| {
        let median = path_runs.median_seconds();
        match quartiles(&path_runs.seconds) {
            Some((q1, q3)) => format!("{median:.4} s [q1 {q1:.4}, q3 {q3:.4}]"),
            None => format!("{median:.4} s"),
        }
    };
    let with = &runs.with;
    format!(
        "instance {index}: without {} {} | with {} {} (preprocess {:.4} s, {} facts, final conflicts {}) | {}",
        runs.without.first_label.unwrap_or("-"),
        spread(&runs.without),
        with.first_label.unwrap_or("-"),
        spread(with),
        with.median_layer("preprocess_s"),
        with.first_layer("engine.facts"),
        with.first_layer("sat.final_with_conflicts"),
        match check {
            Ok(()) => "ok".to_string(),
            Err(problem) => format!("WRONG: {problem}"),
        }
    )
}

/// Σ over instances of the median over rounds of `key` in the runs `path`
/// picks (0 where a run did not record it, e.g. the final solve of an
/// instance preprocessing decided).
fn sum_of_medians(
    runs: &[InstanceRuns],
    path: impl Fn(&InstanceRuns) -> &PathSamples,
    key: &str,
) -> f64 {
    runs.iter().map(|r| path(r).median_layer(key)).sum()
}

/// The per-layer metrics, each with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ciphers.generate_s", "s"),
    ("engine.new_s", "s"),
    ("engine.driver_self_s", "s"),
    ("engine.iterations", "count"),
    ("engine.facts", "count"),
    ("xl.run_s", "s"),
    ("xl.runs", "count"),
    ("xl.skips", "count"),
    ("xl.facts_committed", "count"),
    ("xl.gauss_row_xors", "count"),
    ("xl.presolve_rows_eliminated", "count"),
    ("xl.useful_runs_frac", "frac"),
    ("elimlin.run_s", "s"),
    ("elimlin.runs", "count"),
    ("elimlin.skips", "count"),
    ("elimlin.facts_committed", "count"),
    ("elimlin.gauss_row_xors", "count"),
    ("elimlin.presolve_rows_eliminated", "count"),
    ("elimlin.useful_runs_frac", "frac"),
    ("sat_pass.run_s", "s"),
    ("sat_pass.runs", "count"),
    ("sat_pass.conflicts", "count"),
    ("sat_pass.conflicts_per_s", "1/s"),
    ("sat_pass.facts_committed", "count"),
    ("sat_pass.facts_per_kconflict", "1/kconflict"),
    ("anf_to_cnf.with_s", "s"),
    ("anf_to_cnf.with_clauses", "count"),
    ("anf_to_cnf.with_vars", "count"),
    ("anf_to_cnf.without_s", "s"),
    ("anf_to_cnf.without_clauses", "count"),
    ("anf_to_cnf.without_vars", "count"),
    ("sat.final_with_s", "s"),
    ("sat.final_with_conflicts", "count"),
    ("sat.final_with_conflicts_per_s", "1/s"),
    ("sat.final_without_s", "s"),
    ("sat.final_without_conflicts", "count"),
    ("sat.final_without_conflicts_per_s", "1/s"),
    ("verify.s", "s"),
    ("trace.overhead_s", "s"),
];

/// Per-layer values: each recorded key summed over instances (median over
/// rounds, traced with-runs plus without-runs), then the ratios computed
/// from those sums.
fn per_layer_metrics(runs: &[InstanceRuns], setup_s: f64) -> Vec<Metric> {
    let recorded = |key: &str| {
        sum_of_medians(runs, |r| &r.traced, key) + sum_of_medians(runs, |r| &r.without, key)
    };
    let ratio = |numerator: f64, denominator: f64| {
        if denominator > 0.0 {
            numerator / denominator
        } else {
            0.0
        }
    };
    let mut values: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .map(|&(name, _)| (name.to_string(), recorded(name)))
        .collect();
    for layer in ["xl", "elimlin"] {
        values.insert(
            format!("{layer}.useful_runs_frac"),
            ratio(
                recorded(&format!("{layer}.useful_runs")),
                recorded(&format!("{layer}.runs")),
            ),
        );
    }
    values.insert(
        "sat_pass.conflicts_per_s".into(),
        ratio(values["sat_pass.conflicts"], values["sat_pass.run_s"]),
    );
    values.insert(
        "sat_pass.facts_per_kconflict".into(),
        ratio(
            values["sat_pass.facts_committed"],
            values["sat_pass.conflicts"] / 1000.0,
        ),
    );
    for path in ["with", "without"] {
        values.insert(
            format!("sat.final_{path}_conflicts_per_s"),
            ratio(
                values[&format!("sat.final_{path}_conflicts")],
                values[&format!("sat.final_{path}_s")],
            ),
        );
    }
    values.insert("ciphers.generate_s".into(), setup_s);
    values.insert(
        "trace.overhead_s".into(),
        sum_of_medians(runs, |r| &r.traced, "preprocess_s")
            - sum_of_medians(runs, |r| &r.with, "preprocess_s"),
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| metric(name, values[name], unit))
        .collect()
}

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line, i.e. off Linux: the
/// benchmark would otherwise report a memory figure it did not measure.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::Verdict;

    fn path_run(seconds: f64, layers: &[(&str, f64)], verdict: Verdict) -> PathRun {
        PathRun {
            correct: verdict != Verdict::Unsat,
            verdict,
            seconds,
            layers: layers.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            fingerprint: None,
        }
    }

    #[test]
    fn samples_pad_missing_layers_with_zero() {
        let mut samples = PathSamples::default();
        samples.push(path_run(0.3, &[("preprocess_s", 0.25)], Verdict::Unknown));
        samples.push(path_run(
            0.2,
            &[("sat.final_with_s", 0.1)],
            Verdict::Unknown,
        ));
        samples.push(path_run(0.4, &[("preprocess_s", 0.35)], Verdict::Unsat));
        assert_eq!(samples.layers["preprocess_s"], [0.25, 0.0, 0.35]);
        assert_eq!(samples.layers["sat.final_with_s"], [0.0, 0.1, 0.0]);
        assert_eq!(samples.median_seconds(), 0.3);
        assert_eq!(samples.median_layer("preprocess_s"), 0.25);
        assert_eq!(samples.median_layer("absent"), 0.0);
        assert_eq!(samples.first_label, Some("UNKNOWN"));
        assert_eq!(samples.solved, 0);
        assert_eq!(samples.wrong, Some("UNSAT"));
    }

    #[test]
    fn a_direct_run_with_other_conflicts_fails_the_check() {
        let mut runs = InstanceRuns::default();
        let conflicts = |n| [("sat.final_without_conflicts", n)];
        runs.record(
            &Path::Without,
            path_run(0.1, &conflicts(7.0), Verdict::Unknown),
        );
        runs.record(
            &Path::Without,
            path_run(0.1, &conflicts(7.0), Verdict::Unknown),
        );
        assert!(check_instance(&runs).is_ok());
        runs.record(
            &Path::Without,
            path_run(0.1, &conflicts(8.0), Verdict::Unknown),
        );
        assert!(check_instance(&runs).is_err());
    }
}
