//! The host fingerprint every result record carries, so that numbers from
//! different machines (or from a run whose install selected another
//! model family) are never compared as if they were alike.

use std::hint::black_box;
use std::time::Instant;

use adsala_gemm::blocking::CacheInfo;
use adsala_gemm::KernelIsa;
use adsala_machine::HostCaches;

#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub cpu: String,
    pub kernel_isa: KernelIsa,
    pub nproc: usize,
    pub pool_workers: usize,
    pub caches: String,
    /// Single-core FMA throughput of the dispatched ISA, GFLOP/s.
    pub fma_peak_f32: f64,
    pub fma_peak_f64: f64,
    /// Single-core streaming read bandwidth, GB/s, over `stream_bytes`.
    pub stream_gbs: f64,
    pub stream_bytes: usize,
}

impl Fingerprint {
    /// Probe the host. Run after the measured passes: the bandwidth probe
    /// touches an array of several times the last-level cache.
    pub fn probe(pool_workers: usize) -> Fingerprint {
        let kernel_isa = KernelIsa::dispatched();
        let (stream_gbs, stream_bytes) = stream_read_gbs();
        Fingerprint {
            cpu: cpu_model(),
            kernel_isa,
            nproc: nproc(),
            pool_workers,
            caches: HostCaches::probe().summary(),
            fma_peak_f32: fma_peak(kernel_isa, false),
            fma_peak_f64: fma_peak(kernel_isa, true),
            stream_gbs,
            stream_bytes,
        }
    }

    pub fn summary(&self) -> String {
        format!(
            "cpu=\"{}\" nproc={} pool_workers={} {} fma_peak_gflops_per_core=f32:{:.1},f64:{:.1} \
             stream_read_gbs={:.2} (1 thread, {} MiB array)",
            self.cpu,
            self.nproc,
            self.pool_workers,
            self.caches,
            self.fma_peak_f32,
            self.fma_peak_f64,
            self.stream_gbs,
            self.stream_bytes >> 20,
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Best of several timed bursts of independent multiply-adds, GFLOP/s on
/// one core, using the vector ISA the GEMM dispatcher selected.
fn fma_peak(isa: KernelIsa, double: bool) -> f64 {
    const ITERS: u64 = 4_000_000;
    let mut best = 0.0f64;
    for _ in 0..5 {
        let start = Instant::now();
        let flops = fma_burst(isa, double, black_box(ITERS));
        best = best.max(flops / start.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// Run `iters` rounds of multiply-adds and return the flops performed.
fn fma_burst(isa: KernelIsa, double: bool, iters: u64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx2Fma
        && is_x86_feature_detected!("avx2")
        && is_x86_feature_detected!("fma")
    {
        // SAFETY: the CPU supports AVX2 and FMA (checked just above),
        // which is all the target-feature functions require.
        let lanes = unsafe {
            if double {
                black_box(avx2::fma_f64(iters));
                4
            } else {
                black_box(avx2::fma_f32(iters));
                8
            }
        };
        return (iters * avx2::ACCUMULATORS as u64 * lanes * 2) as f64;
    }
    let _ = (isa, double);
    // Portable fallback: independent scalar multiply-add chains.
    let mut acc = [1.0f64; 8];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = black_box(*a) * 0.999_999 + 1e-7;
        }
    }
    black_box(acc);
    (iters * 8 * 2) as f64
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Enough independent chains to cover the FMA latency on two ports.
    pub const ACCUMULATORS: usize = 12;

    #[target_feature(enable = "avx2,fma")]
    pub fn fma_f32(iters: u64) -> f32 {
        let mut acc = [_mm256_set1_ps(1.0); ACCUMULATORS];
        let a = _mm256_set1_ps(0.999_999);
        let b = _mm256_set1_ps(1e-7);
        for _ in 0..iters {
            for r in acc.iter_mut() {
                *r = _mm256_fmadd_ps(*r, a, b);
            }
        }
        let mut sum = _mm256_setzero_ps();
        for r in acc {
            sum = _mm256_add_ps(sum, r);
        }
        _mm256_cvtss_f32(sum)
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn fma_f64(iters: u64) -> f64 {
        let mut acc = [_mm256_set1_pd(1.0); ACCUMULATORS];
        let a = _mm256_set1_pd(0.999_999);
        let b = _mm256_set1_pd(1e-7);
        for _ in 0..iters {
            for r in acc.iter_mut() {
                *r = _mm256_fmadd_pd(*r, a, b);
            }
        }
        let mut sum = _mm256_setzero_pd();
        for r in acc {
            sum = _mm256_add_pd(sum, r);
        }
        _mm256_cvtsd_f64(sum)
    }
}

/// Single-thread read bandwidth over an array four times the last-level
/// cache (capped at 512 MiB), best of three passes.
fn stream_read_gbs() -> (f64, usize) {
    let llc = CacheInfo::detected().map_or(32 << 20, |c| c.l3);
    let bytes = (4 * llc).clamp(64 << 20, 512 << 20);
    let data = vec![1u64; bytes / 8];
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        let mut lanes = [0u64; 8];
        for chunk in black_box(&data).chunks_exact(8) {
            for (l, v) in lanes.iter_mut().zip(chunk) {
                *l = l.wrapping_add(*v);
            }
        }
        black_box(lanes);
        best = best.max(bytes as f64 / start.elapsed().as_secs_f64() / 1e9);
    }
    (best, bytes)
}
