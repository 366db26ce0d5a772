//! Spans recorded from outside the engine.
//!
//! The benchmark times every public call it makes (`Bosphorus::new`,
//! `preprocess`, `to_cnf`, `anf_to_cnf`, the final `Solver`, the model
//! check) with [`Trace::span`], and in traced runs it looks inside
//! `preprocess` by wrapping each built-in pass in a [`TracedPass`]: a
//! [`LearningPass`] that times the inner pass's `run`, reads the returned
//! [`PassOutcome`] and forwards everything else unchanged. No engine code
//! knows about any of this.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bosphorus::{
    BosphorusConfig, ElimLinPass, LearningPass, PassBudget, PassKind, PassOutcome, PassStatus,
    Pipeline, SatPass, XlPass,
};
use bosphorus_anf::AnfDatabase;

/// One timed interval, linked to the span that was open when it began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `"engine.preprocess"` or `"xl.run"`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the trace's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace's origin (equal to the start
    /// while the span is open).
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. Spans nest: the span open when another
/// begins becomes its parent.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

/// A trace shared between the benchmark and the pass wrappers it hands to
/// the engine.
pub type SharedTrace = Rc<RefCell<Trace>>;

impl Trace {
    /// Opens a span under the innermost open span and returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order, a bug in the caller.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records an already closed span, bypassing the clock.
    #[cfg(test)]
    fn push_closed(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forgets all closed spans.
    ///
    /// # Panics
    ///
    /// Panics when a span is still open.
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "cannot clear a trace with open spans");
        self.spans.clear();
    }

    /// Time of span `id` that none of its direct children cover, in
    /// nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics when a child does not lie inside its parent or two children
    /// overlap: sequential calls cannot produce either, so either means the
    /// trace is corrupt and its self times would be meaningless.
    pub fn self_ns(&self, id: usize) -> u64 {
        let parent = &self.spans[id];
        let mut children: Vec<&Span> = self
            .spans
            .iter()
            .filter(|span| span.parent == Some(id))
            .collect();
        children.sort_by_key(|span| span.start_ns);
        let mut covered = 0;
        let mut cursor = parent.start_ns;
        for child in children {
            assert!(
                child.start_ns >= cursor && child.end_ns <= parent.end_ns,
                "span {:?} escapes its parent {:?} or overlaps a sibling",
                child.name,
                parent.name
            );
            covered += child.duration_ns();
            cursor = child.end_ns;
        }
        parent.duration_ns() - covered
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }
}

/// Runs `f` inside a span named `name`. The trace is not borrowed while `f`
/// runs, so `f` may record spans of its own (the pass wrappers do).
pub fn span<T>(trace: &SharedTrace, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = trace.borrow_mut().enter(name);
    let value = f();
    trace.borrow_mut().exit(id);
    value
}

/// Work counters of one wrapped pass, read from the [`PassOutcome`]s it
/// returned and the commits the driver reported back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassCounters {
    /// Executions that did the work.
    pub runs: u64,
    /// Executions skipped because nothing the pass reads had changed.
    pub skips: u64,
    /// Facts the driver committed from this pass (after its filter).
    pub facts_committed: u64,
    /// Executions whose facts added at least one new one to the database.
    pub useful_runs: u64,
    /// GF(2) row XORs of this pass's eliminations.
    pub gauss_row_xors: u64,
    /// Rows the sparse presolve removed ahead of the dense kernel.
    pub presolve_rows_eliminated: u64,
    /// SAT conflicts this pass spent.
    pub sat_conflicts: u64,
}

/// A built-in pass wrapped so that its `run` is a span (`"<layer>.run"`) and
/// its outcomes are counted. It answers to the inner pass's name, so the
/// engine's per-pass statistics are keyed exactly as without the wrapper.
pub struct TracedPass {
    inner: Box<dyn LearningPass>,
    span_name: &'static str,
    trace: SharedTrace,
    counters: Rc<RefCell<PassCounters>>,
}

impl LearningPass for TracedPass {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&mut self, db: &mut AnfDatabase, budget: &PassBudget) -> PassOutcome {
        let outcome = span(&self.trace, self.span_name, || self.inner.run(db, budget));
        let mut counters = self.counters.borrow_mut();
        if outcome.status == PassStatus::Skipped {
            counters.skips += 1;
        } else {
            counters.runs += 1;
        }
        counters.gauss_row_xors += outcome.gauss.row_xors as u64;
        counters.presolve_rows_eliminated += outcome.presolve.rows_eliminated as u64;
        counters.sat_conflicts += outcome.sat_conflicts;
        outcome
    }

    fn facts_committed(&mut self, added: usize, budget: &PassBudget) {
        {
            let mut counters = self.counters.borrow_mut();
            counters.facts_committed += added as u64;
            counters.useful_runs += u64::from(added > 0);
        }
        self.inner.facts_committed(added, budget);
    }
}

/// The layer a built-in pass is reported under (`sat_pass`, to keep the
/// in-loop SAT pass apart from the final solve, `sat.final_*`).
pub fn layer_name(kind: PassKind) -> &'static str {
    match kind {
        PassKind::Sat => "sat_pass",
        other => other.name(),
    }
}

/// The counters of every pass of a traced pipeline, in pipeline order.
pub type PipelineCounters = Vec<(PassKind, Rc<RefCell<PassCounters>>)>;

/// The standard pipeline of `config` (`config.pass_order`, each pass built
/// the way `Pipeline::standard` builds it), with every pass wrapped in a
/// [`TracedPass`] that records into `trace`.
///
/// # Panics
///
/// Panics for the propagate and Gröbner passes, which no workload runs.
pub fn traced_standard_pipeline(
    config: &BosphorusConfig,
    trace: &SharedTrace,
) -> (Pipeline, PipelineCounters) {
    let mut pipeline = Pipeline::new();
    let mut counters = Vec::new();
    for &kind in &config.pass_order {
        let (inner, span_name): (Box<dyn LearningPass>, _) = match kind {
            PassKind::Xl => (Box::new(XlPass::new(config.clone())), "xl.run"),
            PassKind::ElimLin => (Box::new(ElimLinPass::new(config.clone())), "elimlin.run"),
            PassKind::Sat => (Box::new(SatPass::new(config.clone())), "sat_pass.run"),
            other => panic!("the benchmark does not trace the {other} pass"),
        };
        let pass_counters = Rc::new(RefCell::new(PassCounters::default()));
        pipeline.push(Box::new(TracedPass {
            inner,
            span_name,
            trace: Rc::clone(trace),
            counters: Rc::clone(&pass_counters),
        }));
        counters.push((kind, pass_counters));
    }
    (pipeline, counters)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_plus_child_time_equals_the_span() {
        let mut trace = Trace::default();
        let root = trace.push_closed(closed("path.with", None, 0, 100));
        let pre = trace.push_closed(closed("engine.preprocess", Some(root), 10, 70));
        let xl = trace.push_closed(closed("xl.run", Some(pre), 12, 30));
        let sat = trace.push_closed(closed("sat_pass.run", Some(pre), 30, 65));
        let enc = trace.push_closed(closed("anf_to_cnf", Some(root), 75, 90));
        assert_eq!(trace.self_ns(xl), 18);
        assert_eq!(trace.self_ns(sat), 35);
        assert_eq!(trace.self_ns(pre), 60 - 18 - 35);
        assert_eq!(trace.self_ns(enc), 15);
        assert_eq!(trace.self_ns(root), 100 - 60 - 15);
        // The arithmetic the per-layer report relies on: every span's self
        // time plus its direct children's durations is its own duration.
        for (id, span) in trace.spans().iter().enumerate() {
            let children: u64 = trace
                .spans()
                .iter()
                .filter(|child| child.parent == Some(id))
                .map(Span::duration_ns)
                .sum();
            assert_eq!(trace.self_ns(id) + children, span.duration_ns());
        }
    }

    #[test]
    #[should_panic(expected = "escapes its parent")]
    fn overlapping_children_are_rejected() {
        let mut trace = Trace::default();
        let root = trace.push_closed(closed("root", None, 0, 100));
        trace.push_closed(closed("a", Some(root), 10, 50));
        trace.push_closed(closed("b", Some(root), 40, 60));
        trace.self_ns(root);
    }

    #[test]
    fn live_spans_nest_under_the_open_span() {
        let trace: SharedTrace = Rc::default();
        span(&trace, "outer", || {
            span(&trace, "inner", || std::hint::black_box(1 + 1));
        });
        let trace = trace.borrow();
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            trace.self_ns(0) + spans[1].duration_ns(),
            spans[0].duration_ns()
        );
    }
}
