//! The single-threaded ADSALA runtime facade (the paper's Fig. 3).
//!
//! [`AdsalaGemm`] keeps the C++-class shape the paper describes — load
//! the installation artefacts once, then serve calls through a
//! `&mut self` handle with §III-C memoisation — but it is now a thin
//! facade over the layered serving stack:
//!
//! * [`crate::bundle::ArtifactBundle`] performs the model sweeps
//!   (per-routine models with GEMM fallback),
//! * this facade keeps a single-client [`DecisionCache`]: capacity 1 by
//!   default (the paper's last-shape memo), the service's default
//!   capacity under [`AdsalaGemm::with_full_cache`], keyed by the full
//!   `(routine, precision, dims)` [`OpShape`] and thread cap so
//!   SYRK/GEMV/f64 traffic memoises too,
//! * execution goes through a lazily created persistent
//!   [`adsala_gemm::ThreadPool`], the same pooled dispatch the concurrent
//!   [`crate::service::AdsalaService`] uses — not spawn-per-call.
//!
//! Multi-client callers should use [`crate::service::AdsalaService`]
//! (shared `&self`, lock-striped cache); this facade exists so
//! single-threaded code, tests, and the repro binary keep their
//! `&mut self` ergonomics.

use adsala_gemm::dispatch::{GemmArgs, OpRequest, OpShape, OpStats, Precision};
use adsala_gemm::{Element, ThreadPool};
use adsala_ml::AnyModel;
use serde::{Deserialize, Error, Serialize, Value};

use crate::bundle::ArtifactBundle;
use crate::cache::DecisionCache;
use crate::preprocess::PreprocessConfig;
use crate::service::{AdsalaService, RunOptions, ServiceConfig};
use crate::AdsalaError;

pub use crate::bundle::PlanDecision;

/// The single-threaded runtime handle: artefacts + memoisation.
#[derive(Debug)]
pub struct AdsalaGemm {
    bundle: ArtifactBundle,
    /// Memo keys carry the normalised thread cap alongside the shape: a
    /// capped sweep is a different optimisation problem, so a capped
    /// decision must never replay for an uncapped call (or vice versa).
    cache: DecisionCache<(OpShape, u32)>,
    /// Model sweeps performed (diagnostics; memo hits don't count).
    pub evaluations: u64,
    /// Created on the first executing call, then reused — the facade
    /// pays the worker spawn once, like the service layer.
    pool: Option<ThreadPool>,
}

impl AdsalaGemm {
    /// Assemble a runtime handle from installation artefacts.
    pub fn new(config: PreprocessConfig, model: AnyModel, candidates: Vec<u32>) -> Self {
        Self::from_bundle(ArtifactBundle::new(config, model, candidates))
    }

    /// Wrap an artefact bundle in the single-threaded facade.
    pub fn from_bundle(bundle: ArtifactBundle) -> Self {
        Self { bundle, cache: DecisionCache::new(1, 1), evaluations: 0, pool: None }
    }

    /// Keep every shape's decision, not just the last one: the memo
    /// takes the service's default capacity.
    pub fn with_full_cache(mut self) -> Self {
        self.cache = DecisionCache::default();
        self
    }

    /// The immutable artefacts behind this handle.
    pub fn bundle(&self) -> &ArtifactBundle {
        &self.bundle
    }

    /// Preprocessing artefact (the "config file").
    pub fn config(&self) -> &PreprocessConfig {
        &self.bundle.config
    }

    /// The GEMM model (the table's mandatory slot).
    pub fn model(&self) -> &AnyModel {
        &self.bundle.models.gemm
    }

    /// Candidate thread counts swept per decision.
    pub fn candidates(&self) -> &[u32] {
        self.bundle.candidates()
    }

    /// Upgrade to the shared, concurrent serving layer, moving the
    /// artefacts across (the single-client memo does not carry over).
    pub fn into_service(self) -> AdsalaService {
        AdsalaService::new(self.bundle.into_shared())
    }

    /// Like [`AdsalaGemm::into_service`] with explicit tunables.
    pub fn into_service_with(self, cfg: ServiceConfig) -> AdsalaService {
        AdsalaService::with_config(self.bundle.into_shared(), cfg)
    }

    /// Pick the thread count for any operation, memoising like the
    /// paper's runtime workflow: "if the current GEMM matrix dimensions
    /// are the same as the previous, the software will read and apply the
    /// predictions … without re-evaluation" (§III-C) — here generalised
    /// to the full `(routine, precision, dims)` key.
    pub fn select_for(&mut self, shape: OpShape) -> PlanDecision {
        self.select_for_capped(shape, u32::MAX)
    }

    /// Like [`AdsalaGemm::select_for`], but the sweep only considers
    /// plans with at most `cap` threads, so the decision's prediction
    /// describes the configuration that actually executes. Caps at or
    /// above the grid's largest candidate share the uncapped memo entry.
    pub fn select_for_capped(&mut self, shape: OpShape, cap: u32) -> PlanDecision {
        let cap = cap.clamp(1, self.bundle.max_candidate_threads());
        if let Some(hit) = self.cache.get((shape, cap)) {
            return hit.best;
        }
        let decision = self.bundle.decide(shape, cap);
        self.evaluations += 1;
        let best = decision.best;
        self.cache.insert((shape, cap), decision);
        best
    }

    /// The f32-GEMM special case of [`AdsalaGemm::select_for`].
    pub fn select_threads(&mut self, m: u64, k: u64, n: u64) -> PlanDecision {
        self.select_for(OpShape::gemm(Precision::F32, m, k, n))
    }

    /// Forget all memoised decisions (e.g. after a machine change).
    pub fn clear_memo(&mut self) {
        self.cache.clear();
    }

    /// Packing-arena counters of the lazily created execution pool's
    /// workspace; `None` before the first executing call. See
    /// [`crate::service::AdsalaService::workspace_stats`].
    pub fn workspace_stats(&self) -> Option<adsala_gemm::ArenaStats> {
        self.pool.as_ref().map(|pool| pool.workspace().arena_stats())
    }

    /// Serve one operation with default options: validate, decide
    /// (memoised), execute on the handle's persistent pool.
    pub fn run<T: Element>(
        &mut self,
        req: &mut OpRequest<'_, T>,
    ) -> Result<(PlanDecision, OpStats), AdsalaError> {
        self.run_with(req, RunOptions::default())
    }

    /// Like [`AdsalaGemm::run`] with per-call options (host thread cap,
    /// memo bypass).
    pub fn run_with<T: Element>(
        &mut self,
        req: &mut OpRequest<'_, T>,
        opts: RunOptions,
    ) -> Result<(PlanDecision, OpStats), AdsalaError> {
        req.validate()?;
        let shape = req.shape();
        let cap = opts.thread_cap().clamp(1, self.bundle.max_candidate_threads());
        let decision = if opts.bypass_cache {
            self.evaluations += 1;
            self.bundle.decide(shape, cap).best
        } else {
            self.select_for_capped(shape, cap)
        };
        let pool = self.pool.get_or_insert_with(ThreadPool::with_host_parallelism);
        // The cap bounded the sweep; the decision is the executed plan.
        let stats = req.execute_validated(pool, &decision.plan);
        Ok((decision, stats))
    }

    /// Run a real single-precision GEMM on the host with the ML-selected
    /// thread count (clamped to `host_max_threads`; v1 semantics: 0
    /// executes on one thread), returning the chosen
    /// decision and the executed call's statistics. A thin wrapper over
    /// [`AdsalaGemm::run_with`], kept so v1 callers migrate mechanically.
    ///
    /// Matrices are row-major with the given leading dimensions; computes
    /// `C ← α·A·B + β·C`.
    #[allow(clippy::too_many_arguments)] // BLAS-style signature
    pub fn sgemm_host(
        &mut self,
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        beta: f32,
        c: &mut [f32],
        ldc: usize,
        host_max_threads: u32,
    ) -> Result<(PlanDecision, OpStats), AdsalaError> {
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc).into();
        self.run_with(&mut req, RunOptions::with_host_cap(host_max_threads.max(1)))
    }
}

// The thread pool is a host resource, not state: serialise only the
// artefacts and the cache mode, and rebuild a cold handle on load. (The
// serde shim's derive has no field-skip support, hence the manual impls.)
impl Serialize for AdsalaGemm {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("bundle".into(), self.bundle.to_value()),
            ("full_cache".into(), (self.cache.capacity() > 1).to_value()),
            ("evaluations".into(), self.evaluations.to_value()),
        ])
    }
}

impl Deserialize for AdsalaGemm {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let bundle: ArtifactBundle = serde::__get_field(v, "bundle")?;
        let full_cache: bool = serde::__get_field(v, "full_cache")?;
        let evaluations: u64 = serde::__get_field(v, "evaluations")?;
        let mut handle = Self::from_bundle(bundle);
        if full_cache {
            handle = handle.with_full_cache();
        }
        handle.evaluations = evaluations;
        Ok(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::tests::quick_bundle;
    use adsala_gemm::dispatch::{Routine, SyrkArgs};

    fn handle() -> AdsalaGemm {
        AdsalaGemm::from_bundle(quick_bundle())
    }

    #[test]
    fn decision_is_a_candidate() {
        let mut g = handle();
        let d = g.select_threads(256, 256, 256);
        assert!(g.candidates().contains(&d.threads()));
        assert!(d.predicted_runtime_s > 0.0);
        assert!(!d.memoised);
    }

    #[test]
    fn repeated_shape_is_memoised() {
        let mut g = handle();
        let first = g.select_threads(128, 512, 128);
        let second = g.select_threads(128, 512, 128);
        assert!(!first.memoised);
        assert!(second.memoised);
        assert_eq!(first.threads(), second.threads());
        assert_eq!(g.evaluations, 1, "memo hit must not re-evaluate");
    }

    #[test]
    fn different_shape_invalidates_last_memo() {
        let mut g = handle();
        g.select_threads(128, 512, 128);
        let other = g.select_threads(64, 64, 64);
        assert!(!other.memoised);
        assert_eq!(g.evaluations, 2);
        // Returning to the first shape without full cache re-evaluates:
        // the capacity-1 memo re-sweeps on every shape change and
        // replays only an immediate repeat.
        for (i, shape) in
            [(128, 512, 128), (64, 64, 64), (64, 64, 64), (128, 512, 128)].into_iter().enumerate()
        {
            let d = g.select_threads(shape.0, shape.1, shape.2);
            assert_eq!(d.memoised, i == 2, "call {i}");
        }
        assert_eq!(g.evaluations, 5);
    }

    #[test]
    fn routine_change_is_a_memo_miss_even_at_equal_feature_point() {
        // SYRK (m, k) and GEMM (m, k, m) share a feature-space point but
        // are distinct operations; §III-C memoisation must not cross them.
        let mut g = handle();
        let gemm = g.select_threads(300, 40, 300);
        let syrk = g.select_for(OpShape::syrk(Precision::F32, 300, 40));
        assert!(!syrk.memoised, "routines must not share memo slots");
        assert_eq!(g.evaluations, 2);
        // Without a dedicated SYRK model both sweeps see the same
        // features, so the decision itself agrees bit for bit.
        assert_eq!(gemm.threads(), syrk.threads());
        assert_eq!(gemm.predicted_runtime_s.to_bits(), syrk.predicted_runtime_s.to_bits());
    }

    #[test]
    fn full_cache_remembers_all_shapes() {
        let mut g = handle().with_full_cache();
        g.select_threads(128, 512, 128);
        g.select_threads(64, 64, 64);
        let back = g.select_threads(128, 512, 128);
        assert!(back.memoised);
        assert_eq!(g.evaluations, 2);
    }

    #[test]
    fn clear_memo_forces_reevaluation() {
        let mut g = handle();
        g.select_threads(100, 100, 100);
        g.clear_memo();
        let d = g.select_threads(100, 100, 100);
        assert!(!d.memoised);
        assert_eq!(g.evaluations, 2);
    }

    #[test]
    fn facade_agrees_with_service_decisions() {
        let mut g = handle();
        let svc = AdsalaService::with_config(
            g.bundle().clone().into_shared(),
            ServiceConfig { pool_workers: 1, ..ServiceConfig::default() },
        );
        for (m, k, n) in [(64, 64, 64), (128, 512, 128), (64, 4096, 64)] {
            assert_eq!(g.select_threads(m, k, n).threads(), svc.select_threads(m, k, n).threads());
        }
        let shape = OpShape::syrk(Precision::F64, 500, 100);
        assert_eq!(g.select_for(shape).threads(), svc.select_for(shape).threads());
    }

    #[test]
    fn sgemm_host_computes_correct_product() {
        let mut g = handle();
        let m = 33;
        let k = 17;
        let n = 29;
        let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 - 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 * 0.5).collect();
        let mut c = vec![0.0f32; m * n];
        let (decision, stats) =
            g.sgemm_host(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n, 4).unwrap();
        assert!(decision.threads() >= 1);
        assert!(stats.exec.threads_used >= 1 && stats.exec.threads_used <= 4);
        // Verify against the naive oracle.
        let mut c_ref = vec![0.0f32; m * n];
        adsala_gemm::naive::naive_gemm(
            adsala_gemm::Transpose::No,
            adsala_gemm::Transpose::No,
            m,
            n,
            k,
            1.0f32,
            &a,
            k,
            &b,
            n,
            0.0,
            &mut c_ref,
            n,
        );
        for (x, y) in c.iter().zip(&c_ref) {
            assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn run_serves_syrk_and_reports_shape_errors() {
        let mut g = handle();
        let (m, k) = (20usize, 12usize);
        let a: Vec<f64> = (0..m * k).map(|i| (i % 11) as f64 - 5.0).collect();
        let mut c = vec![0.0f64; m * m];
        let mut req: OpRequest<'_, f64> =
            SyrkArgs { m, k, alpha: 1.0, a: &a, lda: k, beta: 0.0, c: &mut c, ldc: m }.into();
        let (_, stats) = g.run(&mut req).unwrap();
        assert_eq!(stats.routine, Routine::Syrk);

        let mut short = vec![0.0f64; m]; // far too small for m×m
        let mut bad: OpRequest<'_, f64> =
            SyrkArgs { m, k, alpha: 1.0, a: &a, lda: k, beta: 0.0, c: &mut short, ldc: m }.into();
        match g.run(&mut bad) {
            Err(AdsalaError::Shape(e)) => assert_eq!(e.routine, Routine::Syrk),
            other => panic!("expected shape error, got {other:?}"),
        }
    }

    #[test]
    fn serde_roundtrip_preserves_decisions() {
        let mut g = handle();
        let before = g.select_threads(512, 512, 512);
        let json = serde_json::to_string(&g).unwrap();
        let mut back: AdsalaGemm = serde_json::from_str(&json).unwrap();
        back.clear_memo();
        let after = back.select_threads(512, 512, 512);
        assert_eq!(before.threads(), after.threads());
    }
}
