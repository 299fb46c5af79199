//! Closed-loop passes: each client sends its next op only after the
//! previous one returned, through one public entry point, until the
//! pass's time (or op count) is used up.

use std::collections::HashMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use adsala::{AdsalaService, OpStats, Precision, Routine};
use adsala_gemm::plan::ExecutionPlan;
use adsala_gemm::strassen::strassen_arena_stats;
use adsala_gemm::workspace::thread_arena_stats;

use crate::ops::{ClientBuffers, Entry, SharedB};
use crate::setup::warm_up;
use crate::trace::Tracer;
use crate::workload::{OpSpec, Workload};

/// One client: its id and its operand buffers.
pub struct Client {
    pub id: usize,
    pub bufs: ClientBuffers,
}

/// How long a pass runs.
#[derive(Debug, Clone)]
pub enum Length {
    /// Until this much time has passed (every client sends at least one op).
    Seconds(f64),
    /// Exactly this many ops per client (the replays).
    Ops(Vec<usize>),
}

/// Sums over the `OpStats` of completed ops.
#[derive(Debug, Default, Clone)]
pub struct ExecTotals {
    pub ops: u64,
    pub multi_thread_ops: u64,
    pub threads_used: u64,
    pub sync_ns: u64,
    pub wall_ns: u64,
    /// GEMM-only kernel counters, indexed by precision (f32, f64).
    pub gemm_flops: [f64; 2],
    pub gemm_kernel_ns: [u64; 2],
    pub gemm_pack_ns: u64,
    pub gemm_packed_bytes: u64,
}

impl ExecTotals {
    fn add(&mut self, op: &OpSpec, plan: &ExecutionPlan, stats: &OpStats) {
        self.ops += 1;
        self.multi_thread_ops += u64::from(plan.threads > 1);
        self.threads_used += stats.exec.threads_used as u64;
        self.sync_ns += stats.exec.sync_ns;
        self.wall_ns += stats.exec.wall_ns;
        if op.routine == Routine::Gemm {
            let p = usize::from(op.precision == Precision::F64);
            self.gemm_flops[p] += op.flops();
            self.gemm_kernel_ns[p] += stats.exec.kernel_ns;
            self.gemm_pack_ns += stats.exec.pack_ns;
            self.gemm_packed_bytes += stats.exec.packed_bytes();
        }
    }

    fn merge(&mut self, o: &ExecTotals) {
        self.ops += o.ops;
        self.multi_thread_ops += o.multi_thread_ops;
        self.threads_used += o.threads_used;
        self.sync_ns += o.sync_ns;
        self.wall_ns += o.wall_ns;
        for p in 0..2 {
            self.gemm_flops[p] += o.gemm_flops[p];
            self.gemm_kernel_ns[p] += o.gemm_kernel_ns[p];
        }
        self.gemm_pack_ns += o.gemm_pack_ns;
        self.gemm_packed_bytes += o.gemm_packed_bytes;
    }
}

/// What one client saw during a pass.
pub struct ClientPass {
    pub client: usize,
    /// Per-op latency at the public entry, in send order.
    pub latencies_ns: Vec<u64>,
    pub attempted: u64,
    pub errors: u64,
    pub first_error: Option<String>,
    /// Nominal flops of the ops that completed.
    pub flops: f64,
    /// Distinct ops in first-seen order, with their occurrence counts
    /// and the plan each was served with.
    pub distinct: Vec<(OpSpec, u64, ExecutionPlan)>,
    pub exec: ExecTotals,
    pub tracer: Tracer,
    /// Traced `select_for` calls that swept the model / hit the memo.
    pub decide_miss_ns: Vec<u64>,
    pub decide_hit_ns: Vec<u64>,
    /// Traced entry-call span minus the op's `exec.wall_ns`.
    pub call_overhead_ns: Vec<u64>,
    /// Packing-arena growths on this client's thread during the pass.
    pub arena_allocs: u64,
}

/// A pass over every client.
pub struct Pass {
    pub clients: Vec<ClientPass>,
    /// From the common start to the last client's last op.
    pub wall_s: f64,
}

impl Pass {
    pub fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted).sum()
    }

    pub fn errors(&self) -> u64 {
        self.clients.iter().map(|c| c.errors).sum()
    }

    pub fn flops(&self) -> f64 {
        self.clients.iter().map(|c| c.flops).sum()
    }

    pub fn gflops(&self) -> f64 {
        self.flops() / self.wall_s.max(1e-9) / 1e9
    }

    pub fn latencies_ns(&self) -> Vec<u64> {
        self.clients.iter().flat_map(|c| c.latencies_ns.iter().copied()).collect()
    }

    pub fn exec(&self) -> ExecTotals {
        let mut t = ExecTotals::default();
        for c in &self.clients {
            t.merge(&c.exec);
        }
        t
    }
}

/// Everything a pass needs besides the clients.
pub struct PassCtx<'s> {
    pub workload: Workload,
    pub seed: u64,
    pub nproc: usize,
    pub service: &'s AdsalaService,
    pub shared: &'s SharedB,
    pub epoch: Instant,
}

/// Run one closed-loop pass through `entry` on every client at once.
pub fn run_pass(
    ctx: &PassCtx<'_>,
    clients: &mut [Client],
    entry: Entry<'_>,
    length: &Length,
    trace: bool,
) -> Result<Pass, String> {
    let barrier = Barrier::new(clients.len());
    let results: Vec<Result<(ClientPass, Instant, Instant), String>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|client| {
                    let barrier = &barrier;
                    scope.spawn(move || client_loop(ctx, client, entry, length, trace, barrier))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
    let mut clients_out = Vec::new();
    let (mut start, mut end) = (None::<Instant>, None::<Instant>);
    for r in results {
        let (c, s, e) = r?;
        start = Some(start.map_or(s, |x| x.min(s)));
        end = Some(end.map_or(e, |x| x.max(e)));
        clients_out.push(c);
    }
    let wall_s = match (start, end) {
        (Some(s), Some(e)) => (e - s).as_secs_f64(),
        _ => 0.0,
    };
    Ok(Pass { clients: clients_out, wall_s })
}

fn client_loop(
    ctx: &PassCtx<'_>,
    client: &mut Client,
    entry: Entry<'_>,
    length: &Length,
    trace: bool,
    barrier: &Barrier,
) -> Result<(ClientPass, Instant, Instant), String> {
    // This thread's own packing arenas start cold: grow them before the
    // clock starts, as the set-up did for the pool's.
    warm_up(ctx.service, ctx.workload, ctx.nproc)?;
    let mut stream = ctx.workload.stream(ctx.seed, client.id);
    let (limit, seconds) = match length {
        Length::Seconds(s) => (usize::MAX, *s),
        Length::Ops(counts) => (counts[client.id], f64::INFINITY),
    };
    // Explicit decide spans only where the entry decides per call.
    let decider = match entry {
        Entry::Serve(service) if trace => Some(service),
        _ => None,
    };
    let mut out = ClientPass {
        client: client.id,
        latencies_ns: Vec::new(),
        attempted: 0,
        errors: 0,
        first_error: None,
        flops: 0.0,
        distinct: Vec::new(),
        exec: ExecTotals::default(),
        tracer: Tracer::new(ctx.epoch, trace, client.id),
        decide_miss_ns: Vec::new(),
        decide_hit_ns: Vec::new(),
        call_overhead_ns: Vec::new(),
        arena_allocs: 0,
    };
    let mut index: HashMap<OpSpec, usize> = HashMap::new();
    let allocs = || thread_arena_stats().allocations + strassen_arena_stats().allocations;
    let allocs_before = allocs();

    barrier.wait();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds.min(1e6));
    let mut end = start;
    while (out.attempted as usize) < limit && (out.attempted == 0 || end < deadline) {
        let op = stream.next().expect("op streams are endless");
        out.attempted += 1;
        let id = out.attempted;
        out.tracer.begin("op", id);
        if let Some(service) = decider {
            let evals = service.evaluations();
            let t0 = Instant::now();
            std::hint::black_box(service.select_for(op.shape()));
            let t1 = Instant::now();
            out.tracer.record("decide", id, t0, t1);
            let ns = (t1 - t0).as_nanos() as u64;
            if service.evaluations() > evals {
                out.decide_miss_ns.push(ns);
            } else {
                out.decide_hit_ns.push(ns);
            }
        }
        let t_call = Instant::now();
        let result = entry.send(&op, &mut client.bufs, ctx.shared);
        end = Instant::now();
        out.tracer.record(entry.span(), id, t_call, end);
        out.tracer.end();
        let latency = (end - t_call).as_nanos() as u64;
        out.latencies_ns.push(latency);
        match result {
            Ok((plan, stats)) => {
                out.flops += op.flops();
                out.exec.add(&op, &plan, &stats);
                if trace {
                    out.call_overhead_ns.push(latency.saturating_sub(stats.exec.wall_ns));
                }
                match index.get(&op) {
                    Some(&i) => out.distinct[i].1 += 1,
                    None => {
                        index.insert(op, out.distinct.len());
                        out.distinct.push((op, 1, plan));
                    }
                }
            }
            Err(e) => {
                out.errors += 1;
                out.first_error.get_or_insert_with(|| format!("{}: {e}", op.label()));
            }
        }
    }
    out.arena_allocs = allocs() - allocs_before;
    Ok((out, start, end))
}
