//! Operand buffers, request construction, and the public entry points an
//! op can be sent through.

use adsala::{
    AdsalaError, AdsalaService, GemmArgs, GemvArgs, OpRequest, OpShape, OpStats, Precision,
    Routine, ServiceScheduler, SyrkArgs,
};
use adsala_gemm::plan::ExecutionPlan;
use adsala_gemm::Element;

use crate::rng::Rng;
use crate::workload::OpSpec;

/// The element types the benchmark sends.
pub trait Scalar: Element {
    /// Unit round-off of the type.
    const EPS: f64;
    /// Relative tolerance the algorithm-equivalence suite documents for
    /// Strassen against the blocked driver.
    const STRASSEN_REL_TOL: f64;
    fn from_f64(x: f64) -> Self;
    fn to_f64(self) -> f64;
}

impl Scalar for f32 {
    const EPS: f64 = f32::EPSILON as f64;
    const STRASSEN_REL_TOL: f64 = 1e-3;
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Scalar for f64 {
    const EPS: f64 = f64::EPSILON;
    const STRASSEN_REL_TOL: f64 = 1e-9;
    fn from_f64(x: f64) -> Self {
        x
    }
    fn to_f64(self) -> f64 {
        self
    }
}

impl OpSpec {
    /// The decision key the service memoises on.
    pub fn shape(&self) -> OpShape {
        let (m, n, k) = (self.m as u64, self.n as u64, self.k as u64);
        match self.routine {
            Routine::Gemm => OpShape::gemm(self.precision, m, k, n),
            Routine::Syrk => OpShape::syrk(self.precision, m, k),
            Routine::Gemv => OpShape::gemv(self.precision, m, n),
        }
    }

    /// Elements of `(A, B or x, C or y)` the op touches.
    pub fn operand_lens(&self) -> (usize, usize, usize) {
        let (m, n, k) = (self.m, self.n, self.k);
        match self.routine {
            Routine::Gemm => (m * k, k * n, m * n),
            Routine::Syrk => (m * k, 0, m * m),
            Routine::Gemv => (m * n, n, m),
        }
    }
}

/// One precision's operands for one client. `A` and `B` are filled once
/// and only read; `C` is reused by every op, as a caller's output buffer
/// would be.
#[derive(Debug, Default, Clone)]
pub struct Buffers<T> {
    pub a: Vec<T>,
    pub b: Vec<T>,
    pub c: Vec<T>,
}

/// Values uniform in `[-1, 1)`.
pub fn filled<T: Scalar>(len: usize, rng: &mut Rng) -> Vec<T> {
    (0..len).map(|_| T::from_f64(2.0 * rng.unit() - 1.0)).collect()
}

impl<T: Scalar> Buffers<T> {
    /// Buffers large enough for every op in `ops` of this precision.
    pub fn for_ops<'o>(ops: impl Iterator<Item = &'o OpSpec>, rng: &mut Rng) -> Self {
        let (mut a, mut b, mut c) = (0, 0, 0);
        for op in ops.filter(|op| op.precision == T::PRECISION) {
            let (la, lb, lc) = op.operand_lens();
            a = a.max(la);
            b = b.max(lb);
            c = c.max(lc);
        }
        Buffers { a: filled(a, rng), b: filled(b, rng), c: filled(c, rng) }
    }
}

/// A client's operands in both precisions.
#[derive(Debug, Default, Clone)]
pub struct ClientBuffers {
    pub f32: Buffers<f32>,
    pub f64: Buffers<f64>,
}

/// The `B` operands every client shares (read-only).
#[derive(Debug, Default)]
pub struct SharedB {
    pub f32: Vec<f32>,
    pub f64: Vec<f64>,
}

/// Build the request for `op` over `bufs`, with `shared` as `B` for a
/// shared-`B` GEMM.
pub fn request<'a, T: Scalar>(
    op: &OpSpec,
    bufs: &'a mut Buffers<T>,
    shared: &'a [T],
) -> OpRequest<'a, T> {
    let (m, n, k) = (op.m, op.n, op.k);
    let (la, lb, lc) = op.operand_lens();
    let alpha = T::from_f64(1.0);
    let beta = T::from_f64(op.beta.value());
    let a = &bufs.a[..la];
    let c = &mut bufs.c[..lc];
    match op.routine {
        Routine::Gemm => {
            let b = if op.shared_b { &shared[..lb] } else { &bufs.b[..lb] };
            GemmArgs::untransposed(m, n, k, alpha, a, k, b, n, beta, c, n).into()
        }
        Routine::Syrk => SyrkArgs { m, k, alpha, a, lda: k, beta, c, ldc: m }.into(),
        Routine::Gemv => GemvArgs { m, n, alpha, a, lda: n, x: &bufs.b[..lb], beta, y: c }.into(),
    }
}

/// The public call an op is sent through.
#[derive(Clone, Copy)]
pub enum Entry<'s> {
    /// `AdsalaService::run`: decide (memo or model sweep), then execute.
    Serve(&'s AdsalaService),
    /// `ServiceScheduler::submit`: admission, wave planning, fusion.
    Submit(&'s ServiceScheduler),
    /// `AdsalaService::run_pinned` under a fixed plan (the baselines).
    Pinned(&'s AdsalaService, ExecutionPlan),
}

impl Entry<'_> {
    /// Span name of a call through this entry.
    pub fn span(&self) -> &'static str {
        match self {
            Entry::Serve(_) => "serve",
            Entry::Submit(_) => "submit",
            Entry::Pinned(..) => "pinned",
        }
    }

    pub fn call_typed<T: Element>(
        &self,
        req: &mut OpRequest<'_, T>,
    ) -> Result<(ExecutionPlan, OpStats), AdsalaError> {
        match self {
            Entry::Serve(service) => service.run(req).map(|(d, stats)| (d.plan, stats)),
            Entry::Submit(scheduler) => scheduler.submit(req).map(|r| (r.plan, r.stats)),
            Entry::Pinned(service, plan) => service.run_pinned(req, plan).map(|s| (*plan, s)),
        }
    }

    /// Send `op` over the client's buffers.
    pub fn send(
        &self,
        op: &OpSpec,
        bufs: &mut ClientBuffers,
        shared: &SharedB,
    ) -> Result<(ExecutionPlan, OpStats), AdsalaError> {
        match op.precision {
            Precision::F32 => self.call_typed(&mut request(op, &mut bufs.f32, &shared.f32)),
            Precision::F64 => self.call_typed(&mut request(op, &mut bufs.f64, &shared.f64)),
        }
    }
}
