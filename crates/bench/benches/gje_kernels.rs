//! Benchmarks the GF(2) elimination kernels against each other: schoolbook
//! ("plain") and the cache-blocked multi-table M4RM kernel with the
//! automatic block-size heuristic (the default for everything but tiny
//! matrices), plus the auto-selected dispatch.
//!
//! Sizes straddle 64-bit word boundaries on purpose and extend to 2048×2048,
//! the largest this criterion sweep runs; the paper-scale shapes recorded in
//! `BENCH_gje.json` by the `gje_bench` binary (4096×4096 and the XL-shaped
//! wide 2048×16384 case) live there.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bosphorus_bench::{random_dense_matrix, random_sparse_matrix};
use bosphorus_gf2::m4rm_block_size;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2019);
    let mut group = c.benchmark_group("gje_kernels");
    group.sample_size(10);
    for &n in &[65usize, 129, 256, 1024, 2048] {
        let m = random_dense_matrix(&mut rng, n, n);
        let k = m4rm_block_size(n, n);

        // The kernels must agree before being compared.
        let plain_rank = m.clone().gauss_jordan_plain_with_stats().rank;
        let blocked_rank = m.clone().gauss_jordan_blocked_m4rm_with_stats(k).rank;
        assert_eq!(plain_rank, blocked_rank, "blocked disagrees at {n}x{n}");

        group.bench_function(format!("plain/{n}x{n}"), |b| {
            b.iter(|| {
                let mut a = black_box(&m).clone();
                black_box(a.gauss_jordan_plain_with_stats().rank)
            })
        });
        group.bench_function(format!("blocked/{n}x{n}"), |b| {
            b.iter(|| {
                let mut a = black_box(&m).clone();
                black_box(a.gauss_jordan_blocked_m4rm_with_stats(k).rank)
            })
        });
        group.bench_function(format!("auto/{n}x{n}"), |b| {
            b.iter(|| {
                let mut a = black_box(&m).clone();
                black_box(a.gauss_jordan_with_stats().rank)
            })
        });
    }
    group.finish();

    // Sparse XL-shaped inputs: the structural presolve (plus its residual
    // dense cores) against densify-then-eliminate on the same rows. Both
    // start from the sparse row store, as the linearisation builder streams
    // it; the dense-only path pays the densification it forces.
    let mut group = c.benchmark_group("gje_presolve");
    group.sample_size(10);
    for &(rows, cols, fill) in &[(2048usize, 2048usize, 3usize), (4096, 2048, 4)] {
        let sm = random_sparse_matrix(&mut rng, rows, cols, fill);

        // The two paths must agree before being compared.
        let dense_rank = sm.to_dense().rank();
        let presolve_rank = sm.clone().rref(1).rank;
        assert_eq!(
            dense_rank, presolve_rank,
            "presolve disagrees at {rows}x{cols} fill {fill}"
        );

        group.bench_function(format!("dense_only/{rows}x{cols}f{fill}"), |b| {
            b.iter(|| {
                let mut a = black_box(&sm).to_dense();
                black_box(a.gauss_jordan_with_stats().rank)
            })
        });
        group.bench_function(format!("presolve/{rows}x{cols}f{fill}"), |b| {
            b.iter(|| black_box(black_box(&sm).clone().rref(1).rank))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
