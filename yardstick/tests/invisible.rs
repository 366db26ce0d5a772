//! The traced pipeline must do exactly the work of `Pipeline::standard`,
//! and the per-layer arithmetic must add up, on instances small enough for
//! a debug build.

use bosphorus::{Bosphorus, BosphorusConfig, Pipeline};
use bosphorus_anf::Assignment;
use bosphorus_ciphers::aes::{self, AesParams};
use bosphorus_ciphers::simon::{self, SimonParams};
use bosphorus_yardstick::solve::{verdict_is_correct, with_bosphorus, without_bosphorus, Verdict};
use bosphorus_yardstick::trace::{layer_name, traced_standard_pipeline, SharedTrace, Span};
use bosphorus_yardstick::workloads::Instance;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_sr(seed: u64) -> Instance {
    let instance = aes::generate(AesParams::small(1), &mut StdRng::seed_from_u64(seed));
    Instance {
        system: instance.system,
        witness: Some(instance.witness),
    }
}

fn small_simon(seed: u64) -> Instance {
    let params = SimonParams {
        num_plaintexts: 2,
        rounds: 3,
    };
    let instance = simon::generate(params, &mut StdRng::seed_from_u64(seed));
    Instance {
        system: instance.system,
        witness: Some(instance.witness),
    }
}

fn configs() -> [BosphorusConfig; 2] {
    [
        BosphorusConfig::default(),
        BosphorusConfig::paper_defaults(),
    ]
}

#[test]
fn wrapped_pipeline_has_the_standard_passes_in_order() {
    for config in configs() {
        let trace = SharedTrace::default();
        let (wrapped, counters) = traced_standard_pipeline(&config, &trace);
        assert_eq!(wrapped.names(), Pipeline::standard(&config).names());
        let layers: Vec<&str> = counters.iter().map(|(kind, _)| layer_name(*kind)).collect();
        assert_eq!(layers, ["xl", "elimlin", "sat_pass"]);
    }
}

#[test]
fn wrapped_pipeline_learns_what_the_standard_pipeline_learns() {
    for instance in [small_sr(7), small_simon(7)] {
        for config in configs() {
            let mut plain = Bosphorus::new(instance.system.clone(), config.clone());
            let plain_status = plain.preprocess_with(&mut Pipeline::standard(&config));
            let trace = SharedTrace::default();
            let (mut wrapped, _) = traced_standard_pipeline(&config, &trace);
            let mut traced = Bosphorus::new(instance.system.clone(), config.clone());
            let traced_status = traced.preprocess_with(&mut wrapped);
            assert_eq!(plain_status, traced_status);
            assert_eq!(plain.learnt_facts(), traced.learnt_facts());
            assert_eq!(plain.stats().iterations, traced.stats().iterations);
            assert_eq!(plain.stats().sat_conflicts, traced.stats().sat_conflicts);
            assert_eq!(plain.stats().gauss_row_xors, traced.stats().gauss_row_xors);
            assert!(
                trace.borrow().spans().iter().any(|s| s.name == "xl.run"),
                "the wrapper recorded its spans"
            );
        }
    }
}

#[test]
fn traced_and_untraced_paths_agree_and_verify() {
    for instance in [small_sr(11), small_simon(11)] {
        for config in configs() {
            let trace = SharedTrace::default();
            let untraced = with_bosphorus(&instance, &config, &trace, false);
            let traced = with_bosphorus(&instance, &config, &trace, true);
            let direct = without_bosphorus(&instance, &config, &trace);
            assert!(untraced.correct && traced.correct && direct.correct);
            assert!(matches!(untraced.verdict, Verdict::Sat(_)));
            assert!(matches!(direct.verdict, Verdict::Sat(_)));
            assert_eq!(untraced.fingerprint, traced.fingerprint);
            assert!(traced.layers.contains_key("xl.runs"));
            assert!(!untraced.layers.contains_key("xl.runs"));
        }
    }
}

#[test]
fn wrong_verdicts_are_caught() {
    let mut instance = small_simon(3);
    let witness = instance
        .witness
        .clone()
        .expect("simon instances carry a witness");
    assert!(verdict_is_correct(
        &instance,
        &Verdict::Sat(witness.clone())
    ));
    let mut wrong = witness;
    wrong.set(0, !wrong.get(0));
    assert!(!verdict_is_correct(&instance, &Verdict::Sat(wrong)));
    let short = Assignment::all_false(1);
    assert!(!verdict_is_correct(&instance, &Verdict::Sat(short)));
    assert!(!verdict_is_correct(&instance, &Verdict::Unsat));
    assert!(verdict_is_correct(&instance, &Verdict::Unknown));
    instance.witness = None;
    assert!(verdict_is_correct(&instance, &Verdict::Unsat));
}

#[test]
fn every_span_of_a_real_trace_splits_into_self_and_child_time() {
    let trace = SharedTrace::default();
    with_bosphorus(&small_simon(5), &BosphorusConfig::default(), &trace, true);
    let trace = trace.borrow();
    let spans = trace.spans();
    assert!(spans.iter().any(|s| s.name == "engine.preprocess"));
    for (id, span) in spans.iter().enumerate() {
        let children: u64 = spans
            .iter()
            .filter(|child| child.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        assert_eq!(trace.self_ns(id) + children, span.duration_ns());
    }
}
