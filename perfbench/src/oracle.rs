//! Correctness oracle: re-send every distinct op a pass served, through
//! the same public entry, and compare its output with
//! `adsala_gemm::naive::naive_gemm`.
//!
//! The reference runs the plain `i,j,l` loop at well under 1/20 of the
//! served rate, so comparing whole outputs of every distinct op would
//! take longer than the measured window itself. Each distinct GEMM or
//! SYRK is therefore checked on a seeded grid of output entries that
//! always includes the first and last rows and columns and the first
//! register-tile edges (rows 5/6, columns 7/8 and 15/16); GEMV outputs
//! are checked whole. SYRK entries above the diagonal must be left
//! untouched.
//!
//! Tolerances are the ones the crates' own test suites document: the
//! reordering bound `8·ε·(k+2)·(|α|·Σ|a||b| + |β|·|c₀|)` for every
//! algorithm, plus the relative Strassen tolerance `(1e-3 for f32, 1e-9
//! for f64)·(1 + |ref|)` for ops the Strassen recursion executed.
//!
//! The oracle fills `C` with finite values before each check. The
//! β = 0 NaN-in-`C` case is a property of the kernels, not of a served
//! workload, and belongs to the repository's property tests.

use adsala::{Precision, Routine};
use adsala_gemm::naive::naive_gemm;
use adsala_gemm::plan::Algorithm;
use adsala_gemm::Transpose;

use crate::ops::{filled, request, Buffers, ClientBuffers, Entry, Scalar, SharedB};
use crate::rng::{derive, Rng};
use crate::workload::OpSpec;

/// Check one op; `Err` carries a description of the first mismatch or
/// of the error the call returned.
pub fn check(
    op: &OpSpec,
    entry: &Entry<'_>,
    bufs: &mut ClientBuffers,
    shared: &SharedB,
    seed: u64,
) -> Result<(), String> {
    match op.precision {
        Precision::F32 => check_typed(op, entry, &mut bufs.f32, &shared.f32, seed),
        Precision::F64 => check_typed(op, entry, &mut bufs.f64, &shared.f64, seed),
    }
}

/// Rows (or columns) to sample out of `len`: the ends, the tile edges
/// near the start, the middle, and two seeded picks.
fn sample(len: usize, edges: &[usize], rng: &mut Rng) -> Vec<usize> {
    let mut idx: Vec<usize> =
        edges.iter().copied().chain([len / 2, len.saturating_sub(1)]).collect();
    idx.push(rng.range(0, len - 1));
    idx.push(rng.range(0, len - 1));
    idx.retain(|&i| i < len);
    idx.sort_unstable();
    idx.dedup();
    idx
}

fn check_typed<T: Scalar>(
    op: &OpSpec,
    entry: &Entry<'_>,
    bufs: &mut Buffers<T>,
    shared: &[T],
    seed: u64,
) -> Result<(), String> {
    let mut rng =
        Rng::new(derive(seed, op.m as u64 * 1_000_003 + op.n as u64 * 1009 + op.k as u64));
    let (_, _, lc) = op.operand_lens();
    let c0: Vec<T> = filled(lc, &mut rng);
    bufs.c[..lc].copy_from_slice(&c0);

    let (_, stats) = entry
        .call_typed(&mut request(op, bufs, shared))
        .map_err(|e| format!("{}: {e}", op.label()))?;
    let strassen = matches!(stats.exec.algorithm, Algorithm::Strassen { .. });

    let (m, n, k) = (op.m, op.n, op.k);
    let a = &bufs.a;
    let alpha = T::from_f64(1.0);
    let beta = T::from_f64(op.beta.value());
    let entries: Vec<(usize, usize)> = match op.routine {
        Routine::Gemv => (0..m).map(|i| (i, 0)).collect(),
        _ => {
            let rows = sample(m, &[0, 5, 6], &mut rng);
            let cols = sample(n, &[0, 7, 8, 15, 16], &mut rng);
            rows.iter().flat_map(|&i| cols.iter().map(move |&j| (i, j))).collect()
        }
    };
    for (i, j) in entries {
        let (out_idx, depth) = match op.routine {
            Routine::Gemv => (i, n),
            Routine::Syrk => (i * m + j, k),
            Routine::Gemm => (i * n + j, k),
        };
        let got = bufs.c[out_idx];
        let before = c0[out_idx];
        if op.routine == Routine::Syrk && j > i {
            if got != before {
                return Err(format!("{}: upper entry ({i},{j}) changed", op.label()));
            }
            continue;
        }
        // A 1×1 view of the product at (i, j): row i of op(A) against
        // column j of op(B), with the stored strides.
        let mut reference = [before];
        let mut magnitude = 0.0f64;
        match op.routine {
            Routine::Gemm => {
                let b = if op.shared_b { shared } else { &bufs.b[..] };
                let a_row = &a[i * k..];
                let b_col = &b[j..];
                naive_gemm(
                    Transpose::No,
                    Transpose::No,
                    1,
                    1,
                    k,
                    alpha,
                    a_row,
                    k,
                    b_col,
                    n,
                    beta,
                    &mut reference,
                    1,
                );
                magnitude +=
                    (0..k).map(|l| (a_row[l].to_f64() * b_col[l * n].to_f64()).abs()).sum::<f64>();
            }
            Routine::Syrk => {
                let (a_row, a_col) = (&a[i * k..], &a[j * k..]);
                naive_gemm(
                    Transpose::No,
                    Transpose::Yes,
                    1,
                    1,
                    k,
                    alpha,
                    a_row,
                    k,
                    a_col,
                    k,
                    beta,
                    &mut reference,
                    1,
                );
                magnitude +=
                    (0..k).map(|l| (a_row[l].to_f64() * a_col[l].to_f64()).abs()).sum::<f64>();
            }
            Routine::Gemv => {
                let (a_row, x) = (&a[i * n..], &bufs.b[..n]);
                naive_gemm(
                    Transpose::No,
                    Transpose::No,
                    1,
                    1,
                    n,
                    alpha,
                    a_row,
                    n,
                    x,
                    1,
                    beta,
                    &mut reference,
                    1,
                );
                magnitude += (0..n).map(|l| (a_row[l].to_f64() * x[l].to_f64()).abs()).sum::<f64>();
            }
        }
        magnitude += (op.beta.value() * before.to_f64()).abs();
        let want = reference[0].to_f64();
        let mut tol = 8.0 * T::EPS * (depth as f64 + 2.0) * magnitude + f64::MIN_POSITIVE;
        if strassen {
            tol += T::STRASSEN_REL_TOL * (1.0 + want.abs());
        }
        let err = (got.to_f64() - want).abs();
        // A NaN output fails too.
        if err.is_nan() || err > tol {
            return Err(format!(
                "{}: ({i},{j}) = {} but naive gives {want} (|err| {err:e} > tol {tol:e}, {})",
                op.label(),
                got.to_f64(),
                stats.exec.algorithm.as_str(),
            ));
        }
    }
    Ok(())
}
