//! The two workloads: what each one sends, which host install it
//! serves, and the seeded generators of its op streams.
//!
//! Every workload is a closed loop — a BLAS caller waits for its result
//! before it sends the next call — with at most `nproc` client threads.
//! The benchmark derives every input from `--seed`; the program under
//! test only ever sees the generated operations.

use std::collections::VecDeque;

use adsala::gather::ThreadLadder;
use adsala::install::InstallConfig;
use adsala::{Precision, Routine};
use adsala_gemm::plan::PlanGrid;
use adsala_sampling::MemoryCap;

use crate::rng::{derive, Rng};

/// The install's seed. It is apart from the op streams' and the same for
/// every `--seed`: a run's seed varies the traffic, while the installed
/// model varies only through the host's own timing noise, which every
/// result record shows (families by set-up, served-plan digest).
const INSTALL_SEED: u64 = 0xADA_2023;

/// Salts that split a seed into independent streams.
const SALT_INSTALL: u64 = 0x1;
const SALT_GATHER: u64 = 0x20;
const SALT_JITTER: u64 = 0x3;
const SALT_SHARED: u64 = 0x4;
const SALT_CLIENT: u64 = 0x10;
/// Operand values are a function of the run seed only, never of the op.
pub const SALT_OPERANDS: u64 = 0x5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client, small f32 GEMMs (≤ 2 MiB), shapes recurring ~4–5×,
    /// served by a widened-grid install: the decision step is visible.
    SmallStream,
    /// Two clients submitting mixed GEMM/SYRK/GEMV through the
    /// co-scheduler: admission, waves, fusion and gangs do work.
    ConcurrentMixed,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::SmallStream, Workload::ConcurrentMixed];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallStream => "small_stream",
            Workload::ConcurrentMixed => "concurrent_mixed",
        }
    }

    /// Client threads sending ops (never more than the host's cores).
    pub fn clients(self, nproc: usize) -> usize {
        match self {
            Workload::ConcurrentMixed => 2.min(nproc.max(1)),
            Workload::SmallStream => 1,
        }
    }

    /// `true` when clients submit through `ServiceScheduler::submit`
    /// rather than calling `AdsalaService::run` directly.
    pub fn scheduled(self) -> bool {
        self == Workload::ConcurrentMixed
    }

    /// The host install this workload serves.
    pub fn install_config(self, nproc: u32) -> InstallConfig {
        let ladder = ThreadLadder::geometric(nproc.max(1)).counts;
        let mut cfg = InstallConfig::quick();
        cfg.seed = derive(INSTALL_SEED, SALT_INSTALL + self as u64);
        cfg.gather.seed = derive(INSTALL_SEED, SALT_GATHER + self as u64);
        cfg.gather.reps = 2;
        cfg.speedup_reps = 2;
        cfg.max_speedup_shapes = 12;
        let (cap_mb, shapes, grid) = match self {
            // 36 plans on a 2-rung host: threads × blocking × algorithm.
            Workload::SmallStream => (2, 40, PlanGrid::widened(ladder, 128)),
            // The paper's configuration: the thread ladder alone.
            Workload::ConcurrentMixed => (8, 48, PlanGrid::threads_only(ladder)),
        };
        cfg.gather.cap = MemoryCap::from_mb(cap_mb);
        cfg.gather.n_shapes = shapes;
        cfg.gather.grid = Some(grid);
        cfg
    }

    /// The op stream of client `client` (deterministic in `seed`).
    pub fn stream(self, seed: u64, client: usize) -> OpStream {
        OpStream::new(self, seed, client)
    }

    /// Largest `(m, n, k)` any op of this workload can have, for sizing
    /// buffers and warming packing arenas.
    pub fn max_dims(self) -> (usize, usize, usize) {
        match self {
            Workload::SmallStream => (SMALL_MN_MAX, SMALL_MN_MAX, SMALL_K_MAX),
            Workload::ConcurrentMixed => {
                let (private, shared) = self.classes();
                let max = |f: fn(&OpSpec) -> usize| {
                    let d = private.iter().chain(&shared).map(f).max().unwrap_or(0);
                    (d as f64 * (1.0 + JITTER)).ceil() as usize
                };
                (max(|o| o.m), max(|o| o.n), max(|o| o.k))
            }
        }
    }
}

/// How an op treats its output before writing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Beta {
    /// β = 0: write-only output.
    Zero,
    /// β = 1: accumulate into the output.
    One,
    /// β = 0.5: read-modify-write with scaling.
    Half,
}

impl Beta {
    pub fn value(self) -> f64 {
        match self {
            Beta::Zero => 0.0,
            Beta::One => 1.0,
            Beta::Half => 0.5,
        }
    }
}

/// One generated operation. Dimensions by routine: GEMM `C(m×n) =
/// A(m×k)·B(k×n)`; SYRK `C(m×m) = A(m×k)·A(m×k)ᵀ` (`n == m`); GEMV
/// `y(m) = A(m×n)·x(n)` (`k == 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpSpec {
    pub routine: Routine,
    pub precision: Precision,
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub beta: Beta,
    /// GEMM whose `B` is the one buffer every client shares, so that two
    /// clients' same-shape calls can fuse in the co-scheduler.
    pub shared_b: bool,
}

impl OpSpec {
    pub fn gemm(precision: Precision, m: usize, n: usize, k: usize, beta: Beta) -> Self {
        OpSpec { routine: Routine::Gemm, precision, m, n, k, beta, shared_b: false }
    }

    /// Nominal floating-point operations: `2mnk` for GEMM, `m(m+1)k` for
    /// SYRK's lower triangle, `2mn` for GEMV.
    pub fn flops(&self) -> f64 {
        let (m, n, k) = (self.m as f64, self.n as f64, self.k as f64);
        match self.routine {
            Routine::Gemm => 2.0 * m * n * k,
            Routine::Syrk => m * (m + 1.0) * k,
            Routine::Gemv => 2.0 * m * n,
        }
    }

    /// Operand footprint in bytes.
    pub fn working_set(&self) -> usize {
        let elems = match self.routine {
            Routine::Gemm => self.m * self.k + self.k * self.n + self.m * self.n,
            Routine::Syrk => self.m * self.k + self.m * self.m,
            Routine::Gemv => self.m * self.n + self.n + self.m,
        };
        elems * self.element_bytes()
    }

    pub fn element_bytes(&self) -> usize {
        match self.precision {
            Precision::F32 => 4,
            Precision::F64 => 8,
        }
    }

    /// Short stable label, e.g. `gemm.f32.64x48x2048.b1`.
    pub fn label(&self) -> String {
        let routine = match self.routine {
            Routine::Gemm => "gemm",
            Routine::Syrk => "syrk",
            Routine::Gemv => "gemv",
        };
        let precision = match self.precision {
            Precision::F32 => "f32",
            Precision::F64 => "f64",
        };
        let beta = match self.beta {
            Beta::Zero => "b0",
            Beta::One => "b1",
            Beta::Half => "bh",
        };
        let shared = if self.shared_b { ".sharedB" } else { "" };
        format!("{routine}.{precision}.{}x{}x{}.{beta}{shared}", self.m, self.n, self.k)
    }
}

const MB: usize = 1 << 20;

const SMALL_MN_MAX: usize = 512;
const SMALL_K_MAX: usize = 4096;
const SMALL_WS_MAX: usize = 2 * MB;
/// Distinct shapes introduced per block of the small stream.
const SMALL_BLOCK_SHAPES: usize = 48;

/// Each run scales every class dimension by a seeded factor within ±1.5%:
/// seeds differ, the mix of work does not.
const JITTER: f64 = 0.015;
/// Seed of the class tables. The tables are part of a workload's
/// definition, the same for every `--seed`.
const CLASS_SEED: u64 = 0x0C1A_55E5;

/// Shape classes per cycle. Many classes whose working sets are spread
/// evenly (in log scale) over the range keep the latency distribution
/// smooth: one class changing speed moves the median by one small step.
const MIXED_CLASSES: usize = 31;
/// MiB; inside 0.1–8 MiB after jitter.
const MIXED_WS: (f64, f64) = (0.11, 7.6);
/// GEMMs whose `B` every client shares; they sit at the same positions of
/// every client's cycle, so two clients' calls can meet in the queue.
const MIXED_SHARED: usize = 5;
const MIXED_SHARED_WS: (f64, f64) = (0.5, 4.0);

/// `count` classes, `kind(i)` giving class `i`'s routine and precision,
/// with working sets stratified in log scale over `ws_mib` and seeded
/// shapes: square, tall, shallow or wide GEMMs; SYRKs of depth ¼–2× the
/// order; GEMVs of aspect ¼–4.
fn class_table(
    count: usize,
    ws_mib: (f64, f64),
    salt: u64,
    kind: impl Fn(usize) -> (Routine, Precision),
) -> Vec<OpSpec> {
    let mut rng = Rng::new(derive(CLASS_SEED, salt));
    let mut strata: Vec<usize> = (0..count).collect();
    rng.shuffle(&mut strata);
    let (lo, hi) = (ws_mib.0.ln(), ws_mib.1.ln());
    (0..count)
        .map(|i| {
            let (routine, precision) = kind(i);
            let mib = (lo + (hi - lo) * (strata[i] as f64 + rng.unit()) / count as f64).exp();
            let elems = mib * MB as f64
                / OpSpec::gemm(precision, 1, 1, 1, Beta::Zero).element_bytes() as f64;
            let ratio =
                |rng: &mut Rng, lo: f64, hi: f64| (lo.ln() + (hi / lo).ln() * rng.unit()).exp();
            let (m, n, k) = match routine {
                Routine::Gemm => {
                    let r = ratio(&mut rng, 2.0, 8.0);
                    match rng.range(0, 3) {
                        0 => {
                            let d = (elems / 3.0).sqrt();
                            (d, d, d)
                        }
                        1 => {
                            let d = (elems / (2.0 * r + 1.0)).sqrt();
                            (r * d, d, d)
                        }
                        2 => {
                            let d = (elems / (1.0 + 2.0 / r)).sqrt();
                            (d, d, d / r)
                        }
                        _ => {
                            let d = (elems / (2.0 * r + 1.0)).sqrt();
                            (d, r * d, d)
                        }
                    }
                }
                Routine::Syrk => {
                    let q = ratio(&mut rng, 0.25, 2.0);
                    let m = (elems / (1.0 + q)).sqrt();
                    (m, m, q * m)
                }
                Routine::Gemv => {
                    let a = ratio(&mut rng, 0.25, 4.0);
                    let m = (elems / a).sqrt();
                    (m, a * m, 0.0)
                }
            };
            let dim = |x: f64| x.round() as usize;
            OpSpec {
                routine,
                precision,
                m: dim(m),
                n: dim(n),
                k: dim(k),
                beta: Beta::Zero,
                shared_b: false,
            }
        })
        .collect()
}

fn alternate(i: usize) -> Precision {
    if i % 2 == 0 {
        Precision::F32
    } else {
        Precision::F64
    }
}

impl Workload {
    /// The unjittered classes `(private, shared-B)` of the mixed workload.
    fn classes(self) -> (Vec<OpSpec>, Vec<OpSpec>) {
        match self {
            Workload::SmallStream => (Vec::new(), Vec::new()),
            Workload::ConcurrentMixed => {
                let routine = |i: usize| match i % 4 {
                    0 | 1 => Routine::Gemm,
                    2 => Routine::Syrk,
                    _ => Routine::Gemv,
                };
                let private =
                    class_table(MIXED_CLASSES, MIXED_WS, 2, |i| (routine(i), alternate(i / 4)));
                let shared = class_table(MIXED_SHARED, MIXED_SHARED_WS, 3, |i| {
                    (Routine::Gemm, alternate(i))
                });
                (private, shared)
            }
        }
    }
}

/// A client's infinite, seeded op stream, generated one block at a time.
#[derive(Debug, Clone)]
pub struct OpStream {
    workload: Workload,
    /// This client's own order.
    own: Rng,
    /// Identical on every client: places the shared-`B` GEMMs.
    shared: Rng,
    /// The fixed classes of the mixed workload, jittered.
    pool: Vec<OpSpec>,
    shared_pool: Vec<OpSpec>,
    queue: VecDeque<OpSpec>,
}

impl OpStream {
    fn new(workload: Workload, seed: u64, client: usize) -> Self {
        let mut jitter = Rng::new(derive(seed, SALT_JITTER));
        let mut jittered = |i: usize, class: &OpSpec| {
            let mut scale = |d: usize| {
                (d as f64 * (1.0 - JITTER + 2.0 * JITTER * jitter.unit())).round() as usize
            };
            let (m, k) = (scale(class.m), scale(class.k));
            let n = if class.routine == Routine::Syrk { m } else { scale(class.n) };
            let beta = if i % 2 == 0 { Beta::Zero } else { Beta::Half };
            OpSpec { m, n, k, beta, ..*class }
        };
        let (classes, shared_classes) = workload.classes();
        let pool = classes.iter().enumerate().map(|(i, c)| jittered(i, c)).collect();
        let shared_pool = shared_classes
            .iter()
            .enumerate()
            .map(|(i, c)| OpSpec { shared_b: true, ..jittered(i, c) })
            .collect();
        OpStream {
            workload,
            own: Rng::new(derive(seed, SALT_CLIENT + client as u64)),
            shared: Rng::new(derive(seed, SALT_SHARED)),
            pool,
            shared_pool,
            queue: VecDeque::new(),
        }
    }

    /// Ops that need the largest operands this stream can send (buffers
    /// sized for them fit every op).
    pub fn sizing_ops(&self) -> Vec<OpSpec> {
        match self.workload {
            Workload::SmallStream => vec![
                OpSpec::gemm(Precision::F32, 64, 64, SMALL_K_MAX, Beta::Zero),
                OpSpec::gemm(Precision::F32, SMALL_MN_MAX, SMALL_MN_MAX, 48, Beta::Zero),
            ],
            Workload::ConcurrentMixed => {
                self.pool.iter().chain(&self.shared_pool).copied().collect()
            }
        }
    }

    /// The shared-`B` GEMMs every client of this stream sends.
    pub fn shared_ops(&self) -> &[OpSpec] {
        &self.shared_pool
    }

    fn refill(&mut self) {
        match self.workload {
            Workload::SmallStream => {
                // A block of fresh shapes, each recurring 4–5× in shuffled
                // order: the memo misses each shape's first call and hits
                // the rest, at the same rate throughout the run.
                let mut block = Vec::new();
                for _ in 0..SMALL_BLOCK_SHAPES {
                    let op = small_op(&mut self.own);
                    let repeats = self.own.range(4, 5);
                    block.extend(std::iter::repeat_n(op, repeats));
                }
                self.own.shuffle(&mut block);
                self.queue.extend(block);
            }
            Workload::ConcurrentMixed => {
                // Every private class and every shared GEMM once per cycle;
                // the shared ones at positions (and in an order) all
                // clients agree on, the private ones in this client's order.
                let len = self.pool.len() + self.shared_pool.len();
                let mut slots: Vec<usize> = (0..len).collect();
                self.shared.shuffle(&mut slots);
                let mut shared = self.shared_pool.clone();
                self.shared.shuffle(&mut shared);
                let mut private = self.pool.clone();
                self.own.shuffle(&mut private);
                let mut cycle: Vec<Option<OpSpec>> = vec![None; len];
                for (slot, op) in slots.iter().zip(shared) {
                    cycle[*slot] = Some(op);
                }
                let mut private = private.into_iter();
                for entry in cycle.iter_mut().filter(|e| e.is_none()) {
                    *entry = private.next();
                }
                self.queue.extend(cycle.into_iter().flatten());
            }
        }
    }
}

impl Iterator for OpStream {
    type Item = OpSpec;

    fn next(&mut self) -> Option<OpSpec> {
        if self.queue.is_empty() {
            self.refill();
        }
        self.queue.pop_front()
    }
}

fn small_op(rng: &mut Rng) -> OpSpec {
    loop {
        let (m, n, k) = match rng.range(0, 3) {
            // Skinny output, deep contraction.
            0 => (rng.log_range(8, 64), rng.log_range(8, 64), rng.log_range(1024, SMALL_K_MAX)),
            // Wide output, shallow contraction.
            1 => (
                rng.log_range(128, SMALL_MN_MAX),
                rng.log_range(128, SMALL_MN_MAX),
                rng.log_range(8, 48),
            ),
            // Near-square.
            2 => (rng.log_range(32, 320), rng.log_range(32, 320), rng.log_range(32, 320)),
            // Tiny.
            _ => (rng.log_range(8, 64), rng.log_range(8, 64), rng.log_range(8, 64)),
        };
        let beta = if rng.chance(0.5) { Beta::Zero } else { Beta::One };
        let op = OpSpec::gemm(Precision::F32, m, n, k, beta);
        if op.working_set() <= SMALL_WS_MAX {
            return op;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(w: Workload, seed: u64, client: usize, n: usize) -> Vec<OpSpec> {
        w.stream(seed, client).take(n).collect()
    }

    #[test]
    fn same_seed_same_stream_and_different_seed_different_stream() {
        for w in Workload::ALL {
            for client in 0..w.clients(2) {
                assert_eq!(prefix(w, 7, client, 500), prefix(w, 7, client, 500), "{}", w.name());
                assert_ne!(prefix(w, 7, client, 500), prefix(w, 8, client, 500), "{}", w.name());
            }
        }
    }

    #[test]
    fn ops_stay_inside_their_workload_domain() {
        for w in Workload::ALL {
            let (mm, mn, mk) = w.max_dims();
            for seed in 0..20 {
                let stream = w.stream(seed, 0);
                for op in stream.sizing_ops().iter().chain(prefix(w, seed, 0, 300).iter()) {
                    assert!(op.m >= 1 && op.m <= mm && op.n <= mn && op.k <= mk, "{op:?}");
                    let ws = op.working_set();
                    match w {
                        Workload::SmallStream => assert!(ws <= SMALL_WS_MAX + 64 * 64 * 4),
                        Workload::ConcurrentMixed => {
                            assert!((MB / 10..=8 * MB).contains(&ws), "{op:?}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn small_stream_shapes_recur_four_to_five_times() {
        let ops = prefix(Workload::SmallStream, 11, 0, 20_000);
        let mut counts = std::collections::HashMap::new();
        for op in &ops {
            *counts.entry(*op).or_insert(0usize) += 1;
        }
        let mean = ops.len() as f64 / counts.len() as f64;
        assert!((3.8..=5.2).contains(&mean), "mean recurrence {mean}");
    }

    #[test]
    fn mixed_clients_send_shared_gemms_in_step() {
        let a = prefix(Workload::ConcurrentMixed, 5, 0, 180);
        let b = prefix(Workload::ConcurrentMixed, 5, 1, 180);
        let shared: Vec<usize> = (0..a.len()).filter(|&i| a[i].shared_b).collect();
        assert_eq!(shared.len(), 25, "five cycles of five shared GEMMs");
        assert!(shared.iter().all(|&i| b[i] == a[i]));
        assert_ne!(a, b, "clients order their private ops independently");
        assert!(a.iter().any(|op| op.routine == Routine::Syrk));
        assert!(a.iter().any(|op| op.routine == Routine::Gemv));
    }
}
