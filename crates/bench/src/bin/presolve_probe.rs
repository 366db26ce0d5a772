//! Quick probe: presolve reduction and phase timing on the paper-scale XL
//! matrices, next to the dense-only elimination time. Development aid for
//! sizing the sparse presolve; the recorded numbers live in
//! `BENCH_pipeline.json`.

use std::time::Instant;

use bosphorus::{expansion_monomials, CancelToken, LinearizationBuilder};
use bosphorus_anf::{Polynomial, PolynomialSystem, TermScratch, Var};
use bosphorus_ciphers::{aes, simon};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn occurring_vars(system: &PolynomialSystem) -> Vec<Var> {
    let mut vars: Vec<Var> = system.iter().flat_map(Polynomial::variables).collect();
    vars.sort_unstable();
    vars.dedup();
    vars
}

fn build(system: &PolynomialSystem) -> LinearizationBuilder {
    let multipliers = expansion_monomials(&occurring_vars(system), 1);
    let mut builder = LinearizationBuilder::new();
    for poly in system.iter() {
        builder.push(poly);
    }
    let mut scratch = TermScratch::new();
    for base in system.iter() {
        for m in multipliers.iter() {
            builder.push_product(base, m, &mut scratch);
        }
    }
    builder
}

fn probe(name: &str, system: &PolynomialSystem) {
    let token = CancelToken::new();

    // Dense-only baseline.
    let mut lin = build(system).finish();
    let start = Instant::now();
    let stats = lin.matrix_mut().gauss_jordan_with_stats();
    let dense_only_ns = start.elapsed().as_nanos();
    let (dense_facts, dense_rank) = lin.retainable_rows();
    drop(lin);

    // Sparse presolve + dense core.
    let sparse = build(system).finish_sparse();
    let start = Instant::now();
    let (facts, rank, gauss, pre) = sparse.eliminate_retainable_cancellable(1, &token);
    let total_ns = start.elapsed().as_nanos();

    assert_eq!(gauss.rank, stats.rank, "{name}: rank diverges");
    assert_eq!(rank, dense_rank, "{name}: retained rank diverges");
    assert_eq!(facts, dense_facts, "{name}: learnt facts diverge");
    println!("{name}:");
    println!(
        "  input {}x{}  dense-only gje {:>10.3} ms (rank {})",
        pre.input_rows,
        pre.input_cols,
        dense_only_ns as f64 / 1e6,
        stats.rank
    );
    println!(
        "  presolve {:>10.3} ms  dense core {:>10.3} ms  total {:>10.3} ms  ({:.2}x)",
        pre.presolve_ns as f64 / 1e6,
        pre.dense_ns as f64 / 1e6,
        total_ns as f64 / 1e6,
        dense_only_ns as f64 / total_ns.max(1) as f64
    );
    println!(
        "  rows eliminated {:>6} ({:>5.1}%)  cols eliminated {:>6} ({:>5.1}%)  components {}",
        pre.rows_eliminated,
        pre.rows_eliminated as f64 * 100.0 / pre.input_rows.max(1) as f64,
        pre.cols_eliminated,
        pre.cols_eliminated as f64 * 100.0 / pre.input_cols.max(1) as f64,
        pre.components
    );
    println!(
        "  dense core {}x{}  empty {} dup {} singleton {} weight2 {} pure {} subset {}",
        pre.dense_rows,
        pre.dense_cols,
        pre.empty_rows,
        pre.duplicate_rows,
        pre.singleton_rows,
        pre.weight2_rows,
        pre.pure_leading_rows,
        pre.subset_cancellations
    );
    println!(
        "  rule nnz: dup {} singleton {} weight2 {} pure {} subset {}  \
         phase ms: cascade {:.3} dedup {:.3} subset {:.3}",
        pre.duplicate_nnz,
        pre.singleton_nnz,
        pre.weight2_nnz,
        pre.pure_leading_nnz,
        pre.subset_nnz,
        pre.cascade_ns as f64 / 1e6,
        pre.dedup_ns as f64 / 1e6,
        pre.subset_ns as f64 / 1e6
    );
    println!("  facts {}  rank {}", facts.len(), rank);
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2019);
    let simon_small = simon::generate(
        simon::SimonParams {
            num_plaintexts: 2,
            rounds: 3,
        },
        &mut rng,
    );
    let simon_large = simon::generate(
        simon::SimonParams {
            num_plaintexts: 2,
            rounds: 4,
        },
        &mut rng,
    );
    let sr_aes = aes::generate(aes::AesParams::small(1), &mut rng);
    probe("simon-2-3", &simon_small.system);
    probe("sr-aes-small-1", &sr_aes.system);
    probe("simon-2-4", &simon_large.system);
}
