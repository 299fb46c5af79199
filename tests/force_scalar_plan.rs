//! Regression coverage for the force-scalar / decision-cache interaction:
//! a decision memoised with a SIMD-pinned plan (what an artefact trained
//! on a SIMD host caches) must still execute through the scalar kernel
//! when `ADSALA_FORCE_SCALAR` is active, with [`OpStats::plan_degraded`]
//! reporting the clamp — and must run the pinned ISA faithfully when the
//! override is off. The CI suite runs twice, with and without the
//! override, so both arms of every conditional below are exercised.

use adsala::{Decision, DecisionCache, PlanDecision};
use adsala_repro::adsala_gemm::dispatch::{GemmArgs, OpRequest};
use adsala_repro::adsala_gemm::isa::{force_scalar_requested, KernelIsa};
use adsala_repro::adsala_gemm::naive::naive_gemm;
use adsala_repro::adsala_gemm::plan::ExecutionPlan;
use adsala_repro::adsala_gemm::pool::ThreadPool;
use adsala_repro::adsala_gemm::Transpose;

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

#[test]
fn cached_simd_plan_executes_scalar_under_force_scalar() {
    // The plan a SIMD host's artefact would memoise: pin the best ISA the
    // hardware supports, ignoring the override (that is exactly the state
    // a cache serialised before `ADSALA_FORCE_SCALAR` was set carries).
    let pinned = KernelIsa::detect();
    let plan = ExecutionPlan::with_threads(2).with_isa(pinned);
    let (m, n, k) = (48usize, 37, 29);

    let cache = DecisionCache::new(4, 64);
    let shape = {
        let a = vec![0.0f64; m * k];
        let b = vec![0.0f64; k * n];
        let mut c = vec![0.0f64; m * n];
        let req: OpRequest<'_, f64> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        req.shape()
    };
    let best = PlanDecision { plan, predicted_runtime_s: 1e-3, memoised: false };
    cache.insert(shape, Decision { best, curve: [(plan, 1e-3)].into() });
    let cached = cache.get(shape).expect("decision must be memoised").best;
    assert!(cached.memoised);
    assert_eq!(cached.plan, plan, "the cache must never rewrite a stored plan");

    // Execute under the cached plan and check what actually ran.
    let pool = ThreadPool::new(2);
    let a = fill(m * k, 3);
    let b = fill(k * n, 4);
    let mut c = fill(m * n, 5);
    let mut c_ref = c.clone();
    let mut req: OpRequest<'_, f64> =
        GemmArgs::untransposed(m, n, k, 1.5, &a, k, &b, n, -0.25, &mut c, n).into();
    let stats = req.execute(&pool, &cached.plan).expect("valid request");

    assert_eq!(stats.plan, plan, "the report echoes the requested plan verbatim");
    if force_scalar_requested() {
        assert_eq!(
            stats.exec.kernel_isa,
            KernelIsa::Scalar,
            "a cached SIMD plan must clamp to the scalar kernel under ADSALA_FORCE_SCALAR"
        );
        assert_eq!(
            stats.plan_degraded,
            pinned != KernelIsa::Scalar,
            "the clamp must be reported whenever a non-scalar ISA was pinned"
        );
    } else {
        assert_eq!(stats.exec.kernel_isa, pinned, "without the override the pinned ISA runs");
        assert!(!stats.plan_degraded, "an honoured plan is not degraded");
    }

    // Degraded or not, the product must still be right.
    naive_gemm(Transpose::No, Transpose::No, m, n, k, 1.5, &a, k, &b, n, -0.25, &mut c_ref, n);
    for (i, (x, y)) in c.iter().zip(&c_ref).enumerate() {
        assert!((x - y).abs() <= 1e-9 * (1.0 + y.abs()), "mismatch at {i}: {x} vs {y}");
    }
}

#[test]
fn explicit_scalar_plans_never_degrade() {
    // Pinning scalar is always honoured, override or not: this is the
    // anchor that keeps the conditional test above meaningful in both CI
    // legs.
    let (m, n, k) = (16usize, 16, 16);
    let pool = ThreadPool::new(1);
    let a = fill(m * k, 7);
    let b = fill(k * n, 8);
    let mut c = vec![0.0f64; m * n];
    let mut req: OpRequest<'_, f64> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    let plan = ExecutionPlan::with_threads(1).with_isa(KernelIsa::Scalar);
    let stats = req.execute(&pool, &plan).expect("valid request");
    assert_eq!(stats.exec.kernel_isa, KernelIsa::Scalar);
    assert!(!stats.plan_degraded);
}
