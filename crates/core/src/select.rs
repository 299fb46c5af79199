//! Speedup-based model selection (§IV-D).
//!
//! Predictive accuracy alone does not pick the best model: a slow-to-
//! evaluate model pays its evaluation time on every GEMM call. The paper
//! scores each tuned candidate by the estimated speedup
//!
//! ```text
//! s = t_original / (t_ADSALA + t_eval)
//! ```
//!
//! averaged over the test GEMMs, where `t_original` uses the maximum
//! thread count (the conventional default) and `t_ADSALA` uses the
//! model-chosen count. The candidate with the highest estimated mean
//! speedup wins.

use adsala_gemm::plan::{PlanGrid, PlanPoint};
use adsala_machine::GemmTimer;
use adsala_ml::{AnyModel, Regressor};
use adsala_sampling::GemmShape;
use serde::{Deserialize, Serialize};

use crate::preprocess::PreprocessConfig;

/// Speedup estimates for one model over a set of test shapes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedupEstimate {
    pub ideal_mean: f64,
    pub ideal_aggregate: f64,
    pub est_mean: f64,
    pub est_aggregate: f64,
}

/// One model sweep over a plan grid under a thread cap (§III-C): the
/// global argmin plus the best point at every distinct thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// The runtime-minimising point and its predicted runtime in seconds.
    pub best: (PlanPoint, f64),
    /// For each distinct capped thread count, the best point at that
    /// count (argmin over the other axes) and its predicted runtime in
    /// seconds, ascending by thread count. This is what a co-scheduler
    /// trades one op's threads for another's with.
    pub curve: Vec<(PlanPoint, f64)>,
}

/// Sweep `grid` for `shape` with every candidate's thread count clamped
/// to `cap` *before* the model prices it, so the argmin and its
/// prediction describe a configuration that respects the cap. Pass
/// `u32::MAX` for no cap.
///
/// Clamping can alias grid points (ladder `[1, 2, 4, 8]` under cap 3
/// yields `1, 2, 3, 3`); each distinct capped point is evaluated once, in
/// grid order, and the argmin is taken over the raw predictions with a
/// strict `<`, so the first minimum in grid order wins. A threads-only
/// grid visits exactly the legacy ladder with the legacy 17-feature rows
/// (migrated pre-grid artefacts decide bit-identically); grid-trained
/// artefacts ([`PlanGrid::plan_features`]) get the plan axes appended to
/// every row. The winner's prediction comes from the sweep itself:
/// callers must not re-evaluate it, which would double the per-call
/// `t_eval` the paper's speedup score charges.
pub fn sweep(
    model: &AnyModel,
    config: &PreprocessConfig,
    grid: &PlanGrid,
    shape: adsala_gemm::OpShape,
    cap: u32,
) -> Sweep {
    debug_assert!(!grid.is_empty());
    let cap = cap.max(1);
    // Distinct grid points can only collide once clamped onto the cap, so
    // dedup is needed only when some thread count exceeds it, and only
    // among the points that end up at the cap.
    let clamps = grid.threads.iter().any(|&t| t > cap);
    let mut seen: Vec<PlanPoint> = Vec::new();
    let mut best = PlanPoint::threads_only(grid.threads.first().copied().unwrap_or(1).min(cap));
    let mut best_pred = f64::INFINITY;
    // (best point, best raw prediction) per thread count, first-seen order.
    let mut per_count: Vec<(PlanPoint, f64)> = Vec::new();
    for mut point in grid.points() {
        if clamps && point.threads >= cap {
            point.threads = cap;
            if seen.contains(&point) {
                continue;
            }
            seen.push(point);
        }
        let pred = model.predict_row(&point_features(config, grid, &shape, &point));
        if pred < best_pred {
            best_pred = pred;
            best = point;
        }
        match per_count.iter_mut().find(|(p, _)| p.threads == point.threads) {
            Some(row) if pred < row.1 => *row = (point, pred),
            Some(_) => {}
            None => per_count.push((point, pred)),
        }
    }
    per_count.sort_by_key(|(p, _)| p.threads);
    let runtime = |pred| config.runtime_from_prediction(pred);
    Sweep {
        best: (best, runtime(best_pred)),
        curve: per_count.into_iter().map(|(p, pred)| (p, runtime(pred))).collect(),
    }
}

/// The model-ready feature row for one candidate point: the legacy
/// 17-feature row on a threads-only grid, with the plan axes appended on
/// a grid-trained one. The conservative fallback and the retrainer build
/// their rows here too, so no two paths disagree on the feature layout.
pub(crate) fn point_features(
    config: &PreprocessConfig,
    grid: &PlanGrid,
    shape: &adsala_gemm::OpShape,
    point: &PlanPoint,
) -> Vec<f64> {
    if grid.plan_features {
        config.features_for_op_plan(shape, point, grid.feature_rev)
    } else {
        config.features_for_op(shape, point.threads)
    }
}

/// Estimate ideal and evaluation-inclusive speedups of `model` over
/// `shapes`, timing through `timer`. The model's choice is a full
/// plan-grid point; the baseline stays the conventional default (all
/// threads, default plan axes).
///
/// `t_eval_s` is the measured per-call model evaluation time (seconds);
/// `reps` is the timing repetition count per configuration.
pub fn estimate_speedups<T: GemmTimer + ?Sized>(
    model: &AnyModel,
    config: &PreprocessConfig,
    grid: &PlanGrid,
    shapes: &[GemmShape],
    timer: &T,
    t_eval_s: f64,
    reps: u32,
) -> SpeedupEstimate {
    let p_max = timer.max_threads();
    let mut ideal_ratios = Vec::with_capacity(shapes.len());
    let mut est_ratios = Vec::with_capacity(shapes.len());
    let mut total_orig = 0.0;
    let mut total_adsala = 0.0;
    let mut total_adsala_eval = 0.0;
    for &shape in shapes {
        let t_orig = timer.time(shape, p_max, reps);
        let op = adsala_gemm::OpShape::gemm(adsala_gemm::Precision::F32, shape.m, shape.k, shape.n);
        let (chosen, _) = sweep(model, config, grid, op, u32::MAX).best;
        let t_adsala = timer.time_plan(shape, &chosen, reps);
        ideal_ratios.push(t_orig / t_adsala);
        est_ratios.push(t_orig / (t_adsala + t_eval_s));
        total_orig += t_orig;
        total_adsala += t_adsala;
        total_adsala_eval += t_adsala + t_eval_s;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    SpeedupEstimate {
        ideal_mean: mean(&ideal_ratios),
        ideal_aggregate: total_orig / total_adsala.max(f64::MIN_POSITIVE),
        est_mean: mean(&est_ratios),
        est_aggregate: total_orig / total_adsala_eval.max(f64::MIN_POSITIVE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::{GatherConfig, TrainingData};
    use crate::preprocess::fit_preprocess;
    use adsala_gemm::plan::ExecutionPlan;
    use adsala_gemm::{OpShape, Precision};
    use adsala_machine::{MachineModel, SimTimer};
    use adsala_ml::tune::ModelSpec;

    fn setup() -> (SimTimer, PreprocessConfig, AnyModel, Vec<u32>) {
        let timer = SimTimer::new(MachineModel::gadi());
        let config = GatherConfig { n_shapes: 80, reps: 2, ..GatherConfig::quick() };
        let data = TrainingData::gather(&timer, &config);
        let fitted = fit_preprocess(&data).unwrap();
        let spec = ModelSpec::XgBoost { n_rounds: 60, max_depth: 5, eta: 0.15, lambda: 1.0 };
        let mut model = spec.build(0);
        model.fit(&fitted.dataset.x, &fitted.dataset.y).unwrap();
        let candidates = data.ladder.counts.clone();
        (timer, fitted.config, model, candidates)
    }

    fn gemm(m: u64, k: u64, n: u64) -> OpShape {
        OpShape::gemm(Precision::F32, m, k, n)
    }

    #[test]
    fn predicted_threads_are_candidates() {
        let (_, config, model, candidates) = setup();
        let grid = PlanGrid::threads_only(candidates.clone());
        for shape in [gemm(64, 64, 64), gemm(2000, 2000, 2000), gemm(64, 4096, 64)] {
            let (point, _) = sweep(&model, &config, &grid, shape, u32::MAX).best;
            assert!(candidates.contains(&point.threads));
        }
    }

    #[test]
    fn sweep_runtime_matches_argmin_reevaluation() {
        let (_, config, model, candidates) = setup();
        let grid = PlanGrid::threads_only(candidates);
        for (m, k, n) in [(128, 512, 128), (2000, 64, 2000)] {
            let (point, runtime_s) = sweep(&model, &config, &grid, gemm(m, k, n), u32::MAX).best;
            let row = config.features_for(m, k, n, point.threads);
            let expected = config.runtime_from_prediction(model.predict_row(&row));
            assert_eq!(runtime_s, expected, "sweep must reuse the argmin's prediction");
            assert!(runtime_s > 0.0);
        }
    }

    #[test]
    fn threads_only_grid_sweep_is_bit_identical_to_the_ladder_sweep() {
        let (_, config, model, candidates) = setup();
        let grid = PlanGrid::threads_only(candidates.clone());
        for shape in
            [gemm(64, 64, 64), gemm(128, 512, 128), gemm(2000, 64, 2000), gemm(1, 74_000, 1)]
        {
            // The pre-grid ladder sweep: legacy 17-feature rows, ladder
            // order, strict-`<` argmin.
            let (mut t, mut pred) = (candidates[0], f64::INFINITY);
            for &p in &candidates {
                let q = model.predict_row(&config.features_for_op(&shape, p));
                if q < pred {
                    (t, pred) = (p, q);
                }
            }
            let (point, rt) = sweep(&model, &config, &grid, shape, u32::MAX).best;
            assert_eq!(point, PlanPoint::threads_only(t));
            assert_eq!(rt.to_bits(), config.runtime_from_prediction(pred).to_bits());
            let plan = point.materialise(shape.precision);
            assert_eq!(plan, ExecutionPlan::with_threads(t));
            assert!(plan.is_threads_only());
        }
    }

    #[test]
    fn capped_sweep_respects_cap_and_generalises_the_uncapped_sweep() {
        let (_, config, model, candidates) = setup();
        let grid = PlanGrid::threads_only(candidates.clone());
        let max = candidates.iter().copied().max().unwrap();
        for shape in [gemm(64, 64, 64), gemm(128, 512, 128), gemm(2000, 64, 2000)] {
            // Off-ladder cap: the winner must obey it, and its prediction
            // must be a genuine model evaluation at the clamped count.
            let (point, rt) = sweep(&model, &config, &grid, shape, 3).best;
            assert!(point.threads <= 3, "{point:?}");
            let row = point_features(&config, &grid, &shape, &point);
            let re = config.runtime_from_prediction(model.predict_row(&row));
            assert_eq!(rt.to_bits(), re.to_bits(), "prediction must match the clamped point");

            // Cap at/above the grid max is bit-identical to no cap.
            let uncapped = sweep(&model, &config, &grid, shape, u32::MAX);
            for wide in [max, max + 1] {
                let capped = sweep(&model, &config, &grid, shape, wide);
                assert_eq!(capped.best.0, uncapped.best.0);
                assert_eq!(capped.best.1.to_bits(), uncapped.best.1.to_bits());
                assert_eq!(capped.curve, uncapped.curve);
            }

            // Cap 1 forces the serial plan.
            assert_eq!(sweep(&model, &config, &grid, shape, 1).best.0.threads, 1);
        }
    }

    #[test]
    fn curve_minimum_is_the_capped_decision() {
        let (_, config, model, candidates) = setup();
        let grid = PlanGrid::threads_only(candidates.clone());
        for (shape, cap) in
            [(gemm(64, 64, 64), u32::MAX), (gemm(128, 512, 128), 3), (gemm(2000, 64, 2000), 8)]
        {
            let Sweep { best: (best_point, best_rt), curve } =
                sweep(&model, &config, &grid, shape, cap);
            // One row per distinct clamped thread count, ascending.
            let counts: Vec<u32> = curve.iter().map(|(p, _)| p.threads).collect();
            let mut expected: Vec<u32> = candidates.iter().map(|&t| t.min(cap)).collect::<Vec<_>>();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(counts, expected);
            assert!(curve.iter().all(|&(_, rt)| rt > 0.0));

            // The curve's argmin row is exactly the capped decision.
            let min = curve
                .iter()
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .expect("curve is non-empty");
            assert_eq!(min.0, best_point);
            assert_eq!(min.1.to_bits(), best_rt.to_bits());
        }
    }

    #[test]
    fn ties_go_to_the_first_point_in_grid_order() {
        // A constant model ties every candidate: the argmin is the first
        // point in grid order, not the first row of the sorted curve.
        let (_, config, _, _) = setup();
        let mut model = ModelSpec::DecisionTree { max_depth: 2, min_samples_leaf: 1 }.build(0);
        let x = adsala_ml::data::Matrix::from_rows(&vec![vec![0.0; config.pruner.kept.len()]; 2]);
        model.fit(&x, &[0.5, 0.5]).unwrap();
        let grid = PlanGrid::threads_only(vec![4, 1, 2]);
        let Sweep { best, curve } = sweep(&model, &config, &grid, gemm(64, 64, 64), u32::MAX);
        assert_eq!(best.0.threads, 4);
        assert_eq!(curve.iter().map(|(p, _)| p.threads).collect::<Vec<_>>(), vec![1, 2, 4]);
    }

    #[test]
    fn model_avoids_max_threads_for_tiny_gemm() {
        let (_, config, model, candidates) = setup();
        let grid = PlanGrid::threads_only(candidates);
        let (point, _) = sweep(&model, &config, &grid, gemm(48, 48, 48), u32::MAX).best;
        assert!(point.threads < 96, "model chose max threads for a tiny GEMM");
    }

    #[test]
    fn speedup_estimate_beats_one_on_small_shapes() {
        let (timer, config, model, candidates) = setup();
        let shapes: Vec<GemmShape> = vec![
            GemmShape::new(64, 64, 64),
            GemmShape::new(128, 256, 128),
            GemmShape::new(64, 2048, 64),
            GemmShape::new(300, 300, 300),
            GemmShape::new(64, 64, 4096),
        ];
        let grid = PlanGrid::threads_only(candidates);
        let est = estimate_speedups(&model, &config, &grid, &shapes, &timer, 0.0, 2);
        assert!(
            est.ideal_mean > 1.2,
            "ML thread selection should clearly beat max threads: {est:?}"
        );
        assert!(est.ideal_aggregate > 1.0, "{est:?}");
    }

    #[test]
    fn eval_overhead_lowers_estimates() {
        let (timer, config, model, candidates) = setup();
        let shapes = vec![GemmShape::new(64, 64, 64), GemmShape::new(128, 128, 128)];
        let grid = PlanGrid::threads_only(candidates);
        let no_overhead = estimate_speedups(&model, &config, &grid, &shapes, &timer, 0.0, 2);
        let heavy = estimate_speedups(&model, &config, &grid, &shapes, &timer, 1.0, 2);
        assert!(heavy.est_mean < no_overhead.est_mean);
        // The baseline at max threads is itself tens of milliseconds for
        // these shapes (contention), so only a very large eval overhead is
        // guaranteed to push the estimate below break-even.
        assert!(heavy.est_mean < 1.0, "1 s of eval overhead must sink tiny GEMMs");
        // Ideal columns are oblivious to the overhead.
        assert!((heavy.ideal_mean - no_overhead.ideal_mean).abs() < 1e-12);
    }
}
