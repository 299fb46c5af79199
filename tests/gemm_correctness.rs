//! Property-based correctness of the GEMM substrate: the blocked,
//! packed, multi-threaded implementation must agree with the naive
//! triple loop for arbitrary shapes, strides, scalars, transposes and
//! thread counts.

use adsala_repro::adsala_gemm::gemm::{gemm_with_stats, gemm_with_stats_pooled, GemmCall};
use adsala_repro::adsala_gemm::gemv::{gemv_with_stats, naive_gemv};
use adsala_repro::adsala_gemm::naive::naive_gemm;
use adsala_repro::adsala_gemm::plan::Algorithm;
use adsala_repro::adsala_gemm::pool::ThreadPool;
use adsala_repro::adsala_gemm::syrk::{naive_syrk, syrk_with_stats};
use adsala_repro::adsala_gemm::Transpose;
use proptest::prelude::*;

fn fill(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 1000) as f64 - 500.0) / 100.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_gemm_matches_naive(
        m in 1usize..90,
        n in 1usize..90,
        k in 0usize..70,
        threads in 1usize..9,
        ta in prop::bool::ANY,
        tb in prop::bool::ANY,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in 0u64..1000,
    ) {
        let ta = if ta { Transpose::Yes } else { Transpose::No };
        let tb = if tb { Transpose::Yes } else { Transpose::No };
        let (ar, ac) = if ta.is_transposed() { (k, m) } else { (m, k) };
        let (br, bc) = if tb.is_transposed() { (n, k) } else { (k, n) };
        let a = fill((ar * ac).max(1), seed);
        let b = fill((br * bc).max(1), seed + 1);
        let mut c = fill(m * n, seed + 2);
        let mut c_ref = c.clone();

        let call = GemmCall { trans_a: ta, trans_b: tb, ..GemmCall::new(m, n, k, threads) };
        gemm_with_stats(&call, alpha, &a, ac.max(1), &b, bc.max(1), beta, &mut c, n);
        naive_gemm(ta, tb, m, n, k, alpha, &a, ac.max(1), &b, bc.max(1), beta, &mut c_ref, n);

        for (i, (x, y)) in c.iter().zip(&c_ref).enumerate() {
            prop_assert!(
                (x - y).abs() <= 1e-9 * (1.0 + y.abs()),
                "mismatch at {i}: {x} vs {y} (m={m} n={n} k={k} t={threads})"
            );
        }
    }

    #[test]
    fn strided_c_padding_is_never_touched(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        pad in 1usize..8,
        threads in 1usize..5,
    ) {
        let a = fill(m * k, 7);
        let b = fill(k * n, 8);
        let ldc = n + pad;
        let mut c = vec![f64::NAN; m * ldc];
        // Initialise only the live view; padding stays NaN.
        for i in 0..m {
            for j in 0..n {
                c[i * ldc + j] = 0.0;
            }
        }
        let call = GemmCall::new(m, n, k, threads);
        gemm_with_stats(&call, 1.0, &a, k, &b, n, 0.0, &mut c, ldc);
        for i in 0..m {
            for j in 0..ldc {
                if j < n {
                    prop_assert!(c[i * ldc + j].is_finite(), "live cell ({i},{j}) is NaN");
                } else {
                    prop_assert!(c[i * ldc + j].is_nan(), "padding ({i},{j}) was written");
                }
            }
        }
    }

    #[test]
    fn thread_count_never_changes_the_result(
        m in 1usize..60,
        n in 1usize..60,
        k in 1usize..50,
    ) {
        let a = fill(m * k, 11);
        let b = fill(k * n, 12);
        let run = |threads: usize| {
            let mut c = vec![0.0f64; m * n];
            let call = GemmCall::new(m, n, k, threads);
            gemm_with_stats(&call, 1.0, &a, k, &b, n, 0.0, &mut c, n);
            c
        };
        let serial = run(1);
        for t in [2, 4, 8] {
            let par = run(t);
            for (x, y) in par.iter().zip(&serial) {
                // Per-tile accumulation order is identical, so results are
                // bit-equal regardless of the grid.
                prop_assert!((x - y).abs() <= 1e-9 * (1.0 + y.abs()));
            }
        }
    }

    #[test]
    fn stats_volume_scales_with_problem(
        m in 8usize..80,
        n in 8usize..80,
        k in 8usize..60,
    ) {
        let a = fill(m * k, 13);
        let b = fill(k * n, 14);
        let mut c = vec![0.0f64; m * n];
        let call = GemmCall::new(m, n, k, 2);
        let stats = gemm_with_stats(&call, 1.0, &a, k, &b, n, 0.0, &mut c, n);
        // Everything must be packed at least once; padding only inflates.
        prop_assert!(stats.a_packed_bytes >= (m * k * 8) as u64);
        prop_assert!(stats.b_packed_bytes >= (k * n * 8) as u64);
        prop_assert!(stats.kernel_calls >= 1);
    }

    #[test]
    fn syrk_matches_naive_reference(
        m in 1usize..70,
        k in 0usize..50,
        threads in 1usize..7,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in 0u64..500,
    ) {
        let a = fill((m * k).max(1), seed);
        let mut c = fill(m * m, seed + 1);
        let mut c_ref = c.clone();
        syrk_with_stats(m, k, alpha, &a, k.max(1), beta, &mut c, m, threads);
        naive_syrk(m, k, alpha, &a, k.max(1), beta, &mut c_ref, m);
        for i in 0..m {
            for j in 0..m {
                let (x, y) = (c[i * m + j], c_ref[i * m + j]);
                prop_assert!(
                    (x - y).abs() <= 1e-9 * (1.0 + y.abs()),
                    "({i},{j}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn gemv_matches_naive_reference(
        m in 1usize..200,
        n in 0usize..150,
        threads in 1usize..9,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in 0u64..500,
    ) {
        let a = fill((m * n).max(1), seed);
        let x = fill(n.max(1), seed + 1);
        let mut y = fill(m, seed + 2);
        let mut y_ref = y.clone();
        gemv_with_stats(m, n, alpha, &a, n.max(1), &x, beta, &mut y, threads);
        naive_gemv(m, n, alpha, &a, n.max(1), &x, beta, &mut y_ref);
        for (i, (u, v)) in y.iter().zip(&y_ref).enumerate() {
            prop_assert!((u - v).abs() <= 1e-9 * (1.0 + v.abs()), "row {i}: {u} vs {v}");
        }
    }
}

proptest! {
    // The pooled driver spawns a pool per case; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pooled_gemm_bit_matches_scoped_gemm(
        m in 1usize..80,
        n in 1usize..80,
        k in 1usize..60,
        threads in 2usize..8,
        seed in 0u64..200,
    ) {
        let pool = ThreadPool::new(4);
        let a = fill(m * k, seed);
        let b = fill(k * n, seed + 1);
        let mut c1 = fill(m * n, seed + 2);
        let mut c2 = c1.clone();
        let call = GemmCall::new(m, n, k, threads);
        gemm_with_stats(&call, 1.0, &a, k, &b, n, 0.5, &mut c1, n);
        gemm_with_stats_pooled(&pool, &call, 1.0, &a, k, &b, n, 0.5, &mut c2, n);
        prop_assert_eq!(c1, c2);
    }
}

/// β = 0 never reads the output: a NaN-filled C or y must come out equal
/// to a zeroed one under every algorithm (Strassen on an eligible shape
/// too) and for k = 0, 1 and > 1, so the answer never depends on the
/// plan the model picked.
#[test]
fn beta_zero_ignores_nan_outputs_on_every_path() {
    let (m, n, t, nan) = (128usize, 128usize, Transpose::No, f64::NAN);
    let close = |got: &[f64], want: &[f64], what: String| {
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert!((x - y).abs() <= 1e-9 * (1.0 + y.abs()), "{what} [{i}]: {x} vs {y}");
        }
    };
    for k in [0usize, 1, 37, 128] {
        let (lda, a, b) = (k.max(1), fill((m * k).max(1), 7), fill((k * n).max(1), 8));
        let mut want = vec![0.0; m * n];
        naive_gemm(t, t, m, n, k, 1.5, &a, lda, &b, n, 0.0, &mut want, n);
        for algorithm in [Algorithm::Blocked, Algorithm::Strassen { cutoff: 64 }, Algorithm::ZOrder]
        {
            let base = GemmCall::new(m, n, k, 2);
            let call = base.with_plan(base.plan.with_algorithm(algorithm));
            let mut c = vec![nan; m * n];
            let stats = gemm_with_stats(&call, 1.5, &a, lda, &b, n, 0.0, &mut c, n);
            // 128³ is Strassen-eligible: every plan runs as asked.
            assert!(k < 128 || stats.algorithm == algorithm, "{algorithm:?} k={k}");
            close(&c, &want, format!("{algorithm:?} k={k}"));
        }

        // SYRK writes the lower triangle only: NaN there, zero above.
        let mut want = vec![0.0; m * m];
        naive_syrk(m, k, 1.5, &a, lda, 0.0, &mut want, m);
        let mut c: Vec<f64> = (0..m * m).map(|e| if e % m <= e / m { nan } else { 0.0 }).collect();
        syrk_with_stats(m, k, 1.5, &a, lda, 0.0, &mut c, m, 2);
        close(&c, &want, format!("syrk k={k}"));

        let x = fill(lda, 9);
        let mut want = vec![0.0; m];
        naive_gemv(m, k, 1.5, &a, lda, &x, 0.0, &mut want);
        let mut y = vec![nan; m];
        gemv_with_stats(m, k, 1.5, &a, lda, &x, 0.0, &mut y, 2);
        close(&y, &want, format!("gemv n={k}"));
    }
}
