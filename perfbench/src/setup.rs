//! The workload's set-up: a host install (gather, preprocess, train,
//! select) timed through a counting [`GemmTimer`], the artefact's JSON
//! round trip, service construction and warm-up.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

use adsala::install::Installation;
use adsala::{AdsalaService, Artifact, GemmArgs, OpRequest};
use adsala_gemm::plan::{ExecutionPlan, PlanPoint};
use adsala_gemm::BlockSizes;
use adsala_machine::{GemmTimer, HostTimer};
use adsala_sampling::GemmShape;

use crate::ops::Scalar;
use crate::trace::Tracer;
use crate::workload::Workload;

/// `HostTimer` behind a wrapper that times and counts every call the
/// install makes into it, and records each as an `install.timer` span.
pub struct CountingTimer<'a> {
    inner: HostTimer,
    calls: Cell<u64>,
    ns: Cell<u64>,
    tracer: &'a RefCell<Tracer>,
}

impl<'a> CountingTimer<'a> {
    pub fn new(inner: HostTimer, tracer: &'a RefCell<Tracer>) -> Self {
        CountingTimer { inner, calls: Cell::new(0), ns: Cell::new(0), tracer }
    }

    fn timed(&self, f: impl FnOnce() -> f64) -> f64 {
        let start = Instant::now();
        let seconds = f();
        let end = Instant::now();
        self.calls.set(self.calls.get() + 1);
        self.ns.set(self.ns.get() + (end - start).as_nanos() as u64);
        self.tracer.borrow_mut().record("install.timer", 0, start, end);
        seconds
    }
}

impl GemmTimer for CountingTimer<'_> {
    fn time(&self, shape: GemmShape, threads: u32, reps: u32) -> f64 {
        self.timed(|| self.inner.time(shape, threads, reps))
    }

    fn time_plan(&self, shape: GemmShape, point: &PlanPoint, reps: u32) -> f64 {
        self.timed(|| self.inner.time_plan(shape, point, reps))
    }

    fn max_threads(&self) -> u32 {
        self.inner.max_threads()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// What one set-up cost and produced.
pub struct Setup {
    /// The model family the install selected.
    pub family: String,
    pub grid_points: usize,
    /// Whole set-up wall time.
    pub total_s: f64,
    /// `Installation::run` wall time.
    pub install_s: f64,
    /// Time spent inside the timer (measuring GEMMs).
    pub timer_s: f64,
    pub timer_calls: u64,
    /// `Artifact::from_json` plus `into_service`.
    pub load_s: f64,
}

pub fn set_up(
    workload: Workload,
    nproc: usize,
    tracer: &RefCell<Tracer>,
) -> Result<(Arc<AdsalaService>, Setup), String> {
    let start = Instant::now();
    tracer.borrow_mut().begin("setup", 0);
    let cfg = workload.install_config(nproc as u32);
    let timer = CountingTimer::new(HostTimer::with_max_threads(nproc as u32), tracer);

    tracer.borrow_mut().begin("install", 0);
    let install_start = Instant::now();
    let install = Installation::run(&timer, &cfg).map_err(|e| format!("host install: {e}"))?;
    let install_s = install_start.elapsed().as_secs_f64();
    tracer.borrow_mut().end();

    let family = format!("{:?}", install.selected);
    let grid_points = install.grid.len();
    let json = install.to_artifact().to_json().map_err(|e| format!("artifact: {e}"))?;
    drop(install);

    let load_start = Instant::now();
    let artifact = Artifact::from_json(&json).map_err(|e| format!("artifact: {e}"))?;
    let service = Arc::new(artifact.into_service());
    let load_end = Instant::now();
    tracer.borrow_mut().record("artifact.load", 0, load_start, load_end);

    let warm_start = Instant::now();
    warm_up(&service, workload, nproc)?;
    tracer.borrow_mut().record("warmup", 0, warm_start, Instant::now());

    tracer.borrow_mut().end();
    let setup = Setup {
        family,
        grid_points,
        total_s: start.elapsed().as_secs_f64(),
        install_s,
        timer_s: timer.ns.get() as f64 * 1e-9,
        timer_calls: timer.calls.get(),
        load_s: (load_end - load_start).as_secs_f64(),
    };
    Ok((service, setup))
}

/// Start the pool's workers and grow the calling thread's and the pool's
/// packing arenas to the workload's largest cache blocks, through
/// `run_pinned` so that the decision memo stays cold.
pub fn warm_up(service: &AdsalaService, workload: Workload, nproc: usize) -> Result<(), String> {
    warm_precision::<f32>(service, workload, nproc)?;
    if workload != Workload::SmallStream {
        warm_precision::<f64>(service, workload, nproc)?;
    }
    Ok(())
}

fn warm_precision<T: Scalar>(
    service: &AdsalaService,
    workload: Workload,
    nproc: usize,
) -> Result<(), String> {
    let (max_m, max_n, max_k) = workload.max_dims();
    let blocks = BlockSizes::dispatched_for(T::PRECISION);
    let (m, n, k) = (max_m.min(blocks.mc * nproc), max_n, max_k.min(blocks.kc));
    let a = vec![T::from_f64(0.5); m * k];
    let b = vec![T::from_f64(0.25); k * n];
    let mut c = vec![T::from_f64(0.0); m * n];
    for threads in [nproc, 1] {
        let mut req: OpRequest<'_, T> = GemmArgs::untransposed(
            m,
            n,
            k,
            T::from_f64(1.0),
            &a,
            k,
            &b,
            n,
            T::from_f64(0.0),
            &mut c,
            n,
        )
        .into();
        service
            .run_pinned(&mut req, &ExecutionPlan::with_threads(threads as u32))
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(())
}
