//! One benchmark run: set up several times, serve the workload's op
//! streams, check outputs, and turn what was measured into metrics.
//!
//! Each set-up serves one untraced segment of the window, starting from
//! the same op stream, so that every run sees several installed models
//! and several stretches of the host's time. An untraced run
//! (`trace = false`) gives the end-to-end metrics, each the median over
//! the segments (or set-ups). A traced run gives the per-layer metrics:
//! after the segments, a traced pass over the same op stream on the last
//! set-up (the ratio of its throughput to the last segment's is the
//! tracing overhead), then the last segment's first third replayed
//! through `run_pinned` at all threads and at one thread — the baselines
//! of the model's selection.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use adsala::{AdsalaService, Precision, ServiceScheduler, ServiceStats};
use adsala_gemm::plan::ExecutionPlan;

use crate::host::{self, Fingerprint};
use crate::metrics::{self, median_f64, percentile, ratio, END_TO_END, PER_LAYER};
use crate::ops::{Buffers, ClientBuffers, Entry, SharedB};
use crate::oracle;
use crate::rng::{derive, Rng};
use crate::serve::{run_pass, Client, Length, Pass, PassCtx};
use crate::setup::{set_up, Setup};
use crate::trace::{self, Tracer};
use crate::workload::{OpSpec, Workload, SALT_OPERANDS};

/// Set-ups per run, each serving one segment: `setup_s` and the timing
/// metrics report medians over them.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where result records and spans go (`None`: not written).
    pub out_dir: Option<PathBuf>,
}

/// Everything a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines (printed before the result line).
    pub report: Vec<String>,
}

impl Outcome {
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The contract's last line: end-to-end metrics when untraced,
    /// per-layer metrics when traced.
    pub fn result_line(&self, trace: bool) -> String {
        let table = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
        metrics::result_line(self.correct, self.attempted, self.failed, table, |name| {
            self.metrics.get(name).copied().unwrap_or(0.0)
        })
    }
}

/// Counters read around one pass.
struct Counters {
    before: ServiceStats,
    after: ServiceStats,
    scheduler: Option<adsala::SchedulerStats>,
}

impl Counters {
    fn delta(&self, f: impl Fn(&ServiceStats) -> u64) -> u64 {
        f(&self.after).saturating_sub(f(&self.before))
    }

    /// Mean |ln(measured/predicted)| over the ops of this pass alone.
    fn pred_abs_log_err(&self) -> f64 {
        let (b, a) = (&self.before.prediction, &self.after.prediction);
        let sum = a.mean_abs_log_error * a.samples as f64 - b.mean_abs_log_error * b.samples as f64;
        ratio(sum, a.samples.saturating_sub(b.samples) as f64)
    }
}

/// Serve one pass through the workload's own entry point (`run`, or
/// `submit` on a fresh scheduler), reading counters around it.
fn served_pass(
    ctx: &PassCtx<'_>,
    service: &Arc<AdsalaService>,
    clients: &mut [Client],
    seconds: f64,
    trace: bool,
) -> Result<(Pass, Counters), String> {
    let scheduler = ctx.workload.scheduled().then(|| ServiceScheduler::new(Arc::clone(service)));
    let entry = match &scheduler {
        Some(s) => Entry::Submit(s),
        None => Entry::Serve(service),
    };
    let before = service.stats();
    let pass = run_pass(ctx, clients, entry, &Length::Seconds(seconds), trace)?;
    let after = service.stats();
    Ok((pass, Counters { before, after, scheduler: scheduler.map(|s| s.stats()) }))
}

fn client_buffers(workload: Workload, seed: u64, clients: usize) -> (Vec<Client>, SharedB) {
    let mut rng = Rng::new(derive(seed, SALT_OPERANDS));
    let mut shared_ops: Vec<OpSpec> = Vec::new();
    let clients = (0..clients)
        .map(|id| {
            let stream = workload.stream(seed, id);
            let ops = stream.sizing_ops();
            shared_ops.extend(stream.shared_ops());
            let bufs = ClientBuffers {
                f32: Buffers::for_ops(ops.iter(), &mut rng),
                f64: Buffers::for_ops(ops.iter(), &mut rng),
            };
            Client { id, bufs }
        })
        .collect();
    let shared_len = |p: Precision| {
        shared_ops.iter().filter(|o| o.precision == p).map(|o| o.k * o.n).max().unwrap_or(0)
    };
    let shared = SharedB {
        f32: crate::ops::filled(shared_len(Precision::F32), &mut rng),
        f64: crate::ops::filled(shared_len(Precision::F64), &mut rng),
    };
    (clients, shared)
}

/// Ops per client whose summed latency fits in `seconds` (at least one).
fn prefix_len(latencies: &[u64], seconds: f64) -> usize {
    let budget = (seconds * 1e9) as u64;
    let mut sum = 0u64;
    let n = latencies.iter().take_while(|&&l| {
        sum += l;
        sum <= budget
    });
    n.count().max(1).min(latencies.len())
}

/// Slowest client's summed latency over its first `counts[c]` ops.
fn makespan_ns(pass: &Pass, counts: &[usize]) -> f64 {
    pass.clients
        .iter()
        .map(|c| c.latencies_ns[..counts[c.client].min(c.latencies_ns.len())].iter().sum::<u64>())
        .max()
        .unwrap_or(0) as f64
}

/// Check every distinct op the pass served; returns the number of served
/// ops that failed the check and one message per failing op.
fn run_oracle(
    ctx: &PassCtx<'_>,
    service: &Arc<AdsalaService>,
    clients: &mut [Client],
    pass: &Pass,
) -> (u64, Vec<String>) {
    let scheduler = ctx.workload.scheduled().then(|| ServiceScheduler::new(Arc::clone(service)));
    let entry = match &scheduler {
        Some(s) => Entry::Submit(s),
        None => Entry::Serve(service),
    };
    // Distinct ops per client, first-seen order, with served counts.
    let mut per_client_ops: Vec<Vec<(OpSpec, u64)>> = vec![Vec::new(); clients.len()];
    for c in &pass.clients {
        per_client_ops[c.client] = c.distinct.iter().map(|(op, count, _)| (*op, *count)).collect();
    }
    // One checker per core: a client's ops are split over several
    // checkers when there are fewer clients than cores, each extra one on
    // a copy of the client's operands.
    let checkers = (ctx.nproc / clients.len()).max(1);
    let mut copies: Vec<Vec<ClientBuffers>> =
        clients.iter().map(|c| (1..checkers).map(|_| c.bufs.clone()).collect()).collect();
    let results: Vec<(u64, Vec<String>)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for ((client, ops), extra) in clients.iter_mut().zip(&per_client_ops).zip(&mut copies) {
            let chunk = ops.len().div_ceil(checkers).max(1);
            let buffers = std::iter::once(&mut client.bufs).chain(extra.iter_mut());
            for (bufs, part) in buffers.zip(ops.chunks(chunk)) {
                let entry = &entry;
                handles.push(scope.spawn(move || {
                    let mut failed = 0u64;
                    let mut messages = Vec::new();
                    for (op, count) in part {
                        if let Err(msg) = oracle::check(op, entry, bufs, ctx.shared, ctx.seed) {
                            failed += count;
                            messages.push(msg);
                        }
                    }
                    (failed, messages)
                }));
            }
        }
        handles.into_iter().map(|h| h.join().expect("oracle thread panicked")).collect()
    });
    results.into_iter().fold((0, Vec::new()), |(f, mut m), (f2, m2)| {
        m.extend(m2);
        (f + f2, m)
    })
}

/// FNV-1a over the sorted `op → plan` pairs a pass served.
fn plan_digest(passes: &[&Pass]) -> (String, usize) {
    let mut lines: Vec<String> = passes
        .iter()
        .flat_map(|p| p.clients.iter())
        .flat_map(|c| c.distinct.iter())
        .map(|(op, _, plan)| format!("{}={}", op.label(), plan.describe()))
        .collect();
    lines.sort();
    lines.dedup();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    (format!("{h:016x}"), lines.len())
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let workload = opts.workload;
    let nproc = host::nproc();
    let epoch = Instant::now();
    let mut report = vec![format!(
        "[run] workload={} seed={} seconds={} trace={} clients={} setups={}",
        workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        workload.clients(nproc),
        SETUP_REPS,
    )];

    // Set up several times; each set-up serves one segment of the window,
    // and its outputs are checked before the next set-up replaces it. The
    // last set-up's service stays for the traced pass and the replays.
    let (mut clients, shared) = client_buffers(workload, opts.seed, workload.clients(nproc));
    let segment_seconds = opts.seconds / (SETUP_REPS + usize::from(opts.trace)) as f64;
    let setup_tracer = RefCell::new(Tracer::new(epoch, opts.trace, 0));
    let mut setups: Vec<Setup> = Vec::new();
    let mut segments: Vec<(Pass, Counters)> = Vec::new();
    let mut service = None;
    let (mut oracle_failed, mut oracle_messages, mut oracle_s) = (0u64, Vec::new(), 0.0);
    let mut check =
        |ctx: &PassCtx<'_>, service: &Arc<AdsalaService>, clients: &mut [Client], pass: &Pass| {
            let start = Instant::now();
            let (failed, messages) = run_oracle(ctx, service, clients, pass);
            oracle_failed += failed;
            oracle_messages.extend(messages);
            oracle_s += start.elapsed().as_secs_f64();
        };
    for _ in 0..SETUP_REPS {
        // Replacing the previous service stops its pool: only the current
        // set-up's workers are alive while it serves.
        drop(service.take());
        let (svc, setup) = set_up(workload, nproc, &setup_tracer)?;
        setups.push(setup);
        let ctx =
            PassCtx { workload, seed: opts.seed, nproc, service: &svc, shared: &shared, epoch };
        let (pass, counters) = served_pass(&ctx, &svc, &mut clients, segment_seconds, false)?;
        check(&ctx, &svc, &mut clients, &pass);
        segments.push((pass, counters));
        service = Some(svc);
    }
    let service = service.expect("at least one set-up");
    let med = |f: fn(&Setup) -> f64| median_f64(&setups.iter().map(f).collect::<Vec<_>>());
    let families: Vec<&str> = setups.iter().map(|s| s.family.as_str()).collect();
    let ctx =
        PassCtx { workload, seed: opts.seed, nproc, service: &service, shared: &shared, epoch };

    let (untraced, counters) = segments.last().expect("at least one segment");
    let mut traced_run = None;
    if opts.trace {
        // The last segment's op stream again, on a cold memo, spans on.
        service.clear_cache();
        let (traced, _) = served_pass(&ctx, &service, &mut clients, segment_seconds, true)?;
        check(&ctx, &service, &mut clients, &traced);
        let counts: Vec<usize> = untraced
            .clients
            .iter()
            .map(|c| prefix_len(&c.latencies_ns, segment_seconds / 3.0))
            .collect();
        let mut replay = |threads: usize| {
            let entry = Entry::Pinned(&service, ExecutionPlan::with_threads(threads as u32));
            run_pass(&ctx, &mut clients, entry, &Length::Ops(counts.clone()), true)
        };
        let all_threads = replay(nproc)?;
        let serial = replay(1)?;
        traced_run = Some((traced, counts, all_threads, serial));
    }

    let mut served: Vec<&Pass> = segments.iter().map(|(p, _)| p).collect();
    if let Some((traced, ..)) = &traced_run {
        served.push(traced);
    }
    let peak_rss = host::peak_rss_mib();
    let probe_start = Instant::now();
    let host = Fingerprint::probe(service.pool_workers());
    let probe_s = probe_start.elapsed().as_secs_f64();

    let mut all_passes = served.clone();
    if let Some((_, _, a, s)) = &traced_run {
        all_passes.extend([a, s]);
    }
    report.push(format!(
        "[phases] set-ups {:.2}s, passes {:.2}s, oracle {oracle_s:.2}s, host probe {probe_s:.2}s",
        setups.iter().map(|s| s.total_s).sum::<f64>(),
        all_passes.iter().map(|p| p.wall_s).sum::<f64>(),
    ));
    let attempted: u64 = all_passes.iter().map(|p| p.attempted()).sum();
    let errors: u64 = all_passes.iter().map(|p| p.errors()).sum();
    let failed = errors + oracle_failed;
    let (digest, digest_ops) = plan_digest(&served);

    report.push(format!("[host] {}", host.summary()));
    report.push(format!(
        "[install] served_family={} families_by_setup={} grid_points={} plan_digest={digest} ({digest_ops} distinct ops)",
        families.last().copied().unwrap_or("-"),
        families.join(","),
        setups.last().map_or(0, |s| s.grid_points),
    ));
    let setup_times: Vec<String> = setups.iter().map(|s| format!("{:.3}", s.total_s)).collect();
    let mut by_threads: BTreeMap<u32, usize> = BTreeMap::new();
    for (_, _, plan) in untraced.clients.iter().flat_map(|c| c.distinct.iter()) {
        *by_threads.entry(plan.threads).or_default() += 1;
    }
    report.push(format!(
        "[install] set-up seconds {}; distinct ops by served thread count {by_threads:?}",
        setup_times.join(","),
    ));
    for msg in oracle_messages.iter().take(5) {
        report.push(format!("[oracle] FAILED {msg}"));
    }
    for pass in &all_passes {
        if let Some(e) = pass.clients.iter().find_map(|c| c.first_error.clone()) {
            report.push(format!("[error] {e}"));
        }
    }

    // Timing metrics: per segment, then the median over segments, so
    // that one set-up's model or one slow stretch of the host moves them
    // by at most a step.
    let per_segment: Vec<[f64; 4]> = segments
        .iter()
        .map(|(pass, _)| {
            let latencies = pass.latencies_ns();
            let (tail_p, tail_ns) = metrics::tail(&latencies);
            [pass.gflops(), percentile(&latencies, 50.0) / 1e3, tail_ns / 1e3, tail_p]
        })
        .collect();
    let seg_med = |i: usize| median_f64(&per_segment.iter().map(|s| s[i]).collect::<Vec<_>>());
    let described: Vec<String> = per_segment
        .iter()
        .zip(&families)
        .map(|(s, family)| {
            format!("{family} {:.2} GFLOP/s p50 {:.1} us p{} {:.1} us", s[0], s[1], s[3], s[2])
        })
        .collect();
    report.push(format!("[segments] {}", described.join("; ")));

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("setup_s", med(|s| s.total_s));
    m.insert("throughput_gflops", seg_med(0));
    m.insert("latency_p50_us", seg_med(1));
    m.insert("latency_tail_us", seg_med(2));
    m.insert("success_rate", 1.0 - ratio(failed as f64, attempted as f64));
    m.insert("peak_rss_mb", peak_rss);
    report.push(format!(
        "[e2e] medians over {} segments of {segment_seconds:.2}s; {} ops served; error_rate = {} ({failed} failed of {attempted} attempted); {} distinct ops checked",
        segments.len(),
        segments.iter().map(|(p, _)| p.attempted()).sum::<u64>(),
        ratio(failed as f64, attempted as f64),
        served.iter().flat_map(|p| p.clients.iter()).map(|c| c.distinct.len()).sum::<usize>(),
    ));

    if let Some((traced, counts, all_threads, serial)) = &traced_run {
        layer_metrics(
            &mut m,
            &setups,
            untraced,
            counters,
            traced,
            counts,
            all_threads,
            serial,
            &host,
        );
        let setup_tracer = setup_tracer.into_inner();
        let mut tracers: Vec<&Tracer> = vec![&setup_tracer];
        for pass in [traced, all_threads, serial] {
            tracers.extend(pass.clients.iter().map(|c| &c.tracer));
        }
        let table = trace::layer_table(&tracers);
        report.push("[trace] self time per span (traced pass, replays, set-ups):".into());
        report.extend(trace::format_table(&table).lines().map(|l| format!("[trace] {l}")));
        report.push(format!("[counters] untraced pass: {}", describe_counters(counters)));
        report.push(
            "[labels] gemm.packed_bytes_per_flop is computed from packed-byte counters, not measured traffic"
                .into(),
        );
        if let Some(dir) = &opts.out_dir {
            let path = dir.join(format!("{}.spans.csv", workload.name()));
            trace::write_spans(&path, &tracers).map_err(|e| format!("{}: {e}", path.display()))?;
            report.push(format!("[trace] spans written to {}", path.display()));
        }
    }

    let metric_table = if opts.trace { &PER_LAYER[..] } else { &END_TO_END[..] };
    for (name, unit, _) in metric_table {
        report.push(format!("[metric] {name} = {} {unit}", m.get(name).copied().unwrap_or(0.0)));
    }

    let outcome = Outcome { correct: failed == 0, attempted, failed, metrics: m, report };
    if let Some(dir) = &opts.out_dir {
        write_record(dir, opts, &outcome, &host, &families, &digest)?;
    }
    Ok(outcome)
}

fn describe_counters(c: &Counters) -> String {
    let d = |f: fn(&ServiceStats) -> u64| c.delta(f);
    let mut s = format!(
        "evaluations +{} cache hits +{} misses +{} evictions +{} gang reserved +{} refused +{} arena allocations +{} downgrades +{} strassen +{} zorder +{} blocked +{}",
        d(|s| s.evaluations),
        d(|s| s.cache.hits),
        d(|s| s.cache.misses),
        d(|s| s.cache.evictions),
        d(|s| s.pool.gang_reserved),
        d(|s| s.pool.gang_refused),
        d(|s| s.workspace.allocations),
        d(|s| s.plan_downgrades),
        d(|s| s.algorithms.strassen),
        d(|s| s.algorithms.zorder),
        d(|s| s.algorithms.blocked),
    );
    if let Some(st) = &c.scheduler {
        let _ = write!(
            s,
            "; scheduler submitted {} completed {} waves {} fused {} admission waits {} max depth {} predicted {:.4}s measured {:.4}s",
            st.submitted,
            st.completed,
            st.waves,
            st.fused_ops,
            st.admission_waits,
            st.max_queue_depth,
            st.predicted_makespan_s,
            st.measured_makespan_s,
        );
    }
    s
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    setups: &[Setup],
    untraced: &Pass,
    counters: &Counters,
    traced: &Pass,
    counts: &[usize],
    all_threads: &Pass,
    serial: &Pass,
    host: &Fingerprint,
) {
    let med = |f: &dyn Fn(&Setup) -> f64| median_f64(&setups.iter().map(f).collect::<Vec<_>>());
    m.insert("install.timer_s", med(&|s| s.timer_s));
    m.insert("install.timer_calls", med(&|s| s.timer_calls as f64));
    m.insert("install.fit_s", med(&|s| s.install_s - s.timer_s));
    m.insert("install.grid_points", setups.last().map_or(0, |s| s.grid_points) as f64);
    m.insert("artifact.load_ms", med(&|s| s.load_s * 1e3));

    let gather = |f: fn(&crate::serve::ClientPass) -> &Vec<u64>| -> Vec<u64> {
        traced.clients.iter().flat_map(|c| f(c).iter().copied()).collect()
    };
    let misses = gather(|c| &c.decide_miss_ns);
    let hits = gather(|c| &c.decide_hit_ns);
    let decide_ns: u64 = misses.iter().chain(&hits).sum();
    let call_ns: u64 = traced.latencies_ns().iter().sum();
    m.insert("decide.miss_us", percentile(&misses, 50.0) / 1e3);
    m.insert("decide.hit_ns", percentile(&hits, 50.0));
    m.insert("decide.misses", misses.len() as f64);
    m.insert("decide.share", ratio(decide_ns as f64, (decide_ns + call_ns) as f64));
    let hits_d = counters.delta(|s| s.cache.hits) as f64;
    let lookups = hits_d + counters.delta(|s| s.cache.misses) as f64;
    m.insert("cache.hit_rate", ratio(hits_d, lookups));

    let overhead = percentile(&gather(|c| &c.call_overhead_ns), 50.0) / 1e3;
    let scheduled = counters.scheduler.is_some();
    m.insert("service.overhead_us", if scheduled { 0.0 } else { overhead });
    m.insert("sched.queue_wait_us", if scheduled { overhead } else { 0.0 });

    let e = untraced.exec();
    let kernel_s = |p: usize| e.gemm_kernel_ns[p] as f64 * 1e-9;
    let gemm_flops = e.gemm_flops[0] + e.gemm_flops[1];
    let kernel_total = kernel_s(0) + kernel_s(1);
    let peak_s = kernel_s(0) * host.fma_peak_f32 * 1e9 + kernel_s(1) * host.fma_peak_f64 * 1e9;
    m.insert("gemm.kernel_gflops_per_core", ratio(gemm_flops, kernel_total) / 1e9);
    m.insert("gemm.peak_fraction", ratio(gemm_flops, peak_s));
    m.insert(
        "gemm.pack_share",
        ratio(
            e.gemm_pack_ns as f64,
            (e.gemm_pack_ns + e.gemm_kernel_ns[0] + e.gemm_kernel_ns[1]) as f64,
        ),
    );
    m.insert("gemm.packed_bytes_per_flop", ratio(e.gemm_packed_bytes as f64, gemm_flops));
    let thread_allocs: u64 = untraced.clients.iter().map(|c| c.arena_allocs).sum();
    m.insert(
        "gemm.arena_allocs_after_warmup",
        (thread_allocs + counters.delta(|s| s.workspace.allocations)) as f64,
    );

    m.insert("pool.sync_share", ratio(e.sync_ns as f64, e.wall_ns as f64));
    m.insert("pool.threads_used_mean", ratio(e.threads_used as f64, e.ops as f64));
    m.insert("pool.gang_fallbacks", counters.delta(|s| s.pool.gang_refused) as f64);

    let served_ns = makespan_ns(untraced, counts);
    m.insert("select.speedup_vs_all_threads", ratio(makespan_ns(all_threads, counts), served_ns));
    m.insert("select.speedup_vs_serial", ratio(makespan_ns(serial, counts), served_ns));
    m.insert("select.multi_thread_share", ratio(e.multi_thread_ops as f64, e.ops as f64));
    m.insert("select.pred_abs_log_err", counters.pred_abs_log_err());
    let executed = (counters.delta(|s| s.algorithms.blocked)
        + counters.delta(|s| s.algorithms.strassen)
        + counters.delta(|s| s.algorithms.zorder)) as f64;
    m.insert(
        "select.algo_strassen_share",
        ratio(counters.delta(|s| s.algorithms.strassen) as f64, executed),
    );
    m.insert(
        "select.algo_zorder_share",
        ratio(counters.delta(|s| s.algorithms.zorder) as f64, executed),
    );
    let sched_downgrades = counters.scheduler.map_or(0, |s| s.plan_downgrades);
    m.insert(
        "select.plan_downgrades",
        (counters.delta(|s| s.plan_downgrades) + sched_downgrades) as f64,
    );

    let st = counters.scheduler;
    m.insert("sched.fused_ops", st.map_or(0, |s| s.fused_ops) as f64);
    m.insert("sched.waves", st.map_or(0, |s| s.waves) as f64);
    m.insert("sched.admission_waits", st.map_or(0, |s| s.admission_waits) as f64);
    m.insert("sched.max_queue_depth", st.map_or(0, |s| s.max_queue_depth) as f64);
    m.insert(
        "sched.makespan_error",
        st.filter(|s| s.predicted_makespan_s > 0.0 && s.measured_makespan_s > 0.0)
            .map_or(0.0, |s| (s.measured_makespan_s / s.predicted_makespan_s).ln().abs()),
    );
    m.insert("trace.overhead", ratio(traced.gflops(), untraced.gflops()));
}

/// The run's result record: fingerprint, labels and every metric.
fn write_record(
    dir: &Path,
    opts: &Options,
    outcome: &Outcome,
    host: &Fingerprint,
    families: &[&str],
    digest: &str,
) -> Result<(), String> {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"workload\": \"{}\",", opts.workload.name());
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"seconds\": {},", opts.seconds);
    let _ = writeln!(json, "  \"trace\": {},", opts.trace);
    let _ = writeln!(
        json,
        "  \"host\": {{\"cpu\": \"{}\", \"kernel_isa\": \"{}\", \"nproc\": {}, \"pool_workers\": {}, \"caches\": \"{}\", \
         \"fma_peak_gflops_per_core_f32\": {}, \"fma_peak_gflops_per_core_f64\": {}, \"stream_read_gbs\": {}, \"stream_bytes\": {}}},",
        esc(&host.cpu),
        host.kernel_isa,
        host.nproc,
        host.pool_workers,
        esc(&host.caches),
        host.fma_peak_f32,
        host.fma_peak_f64,
        host.stream_gbs,
        host.stream_bytes,
    );
    let fams: Vec<String> = families.iter().map(|f| format!("\"{f}\"")).collect();
    let _ = writeln!(json, "  \"install_families\": [{}],", fams.join(", "));
    let _ = writeln!(json, "  \"plan_digest\": \"{digest}\",");
    let _ = writeln!(json, "  \"error_rate\": {},", outcome.error_rate());
    let _ = writeln!(json, "  \"result\": {}", outcome.result_line(opts.trace));
    json.push_str("}\n");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}
