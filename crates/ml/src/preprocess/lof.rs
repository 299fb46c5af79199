//! Local Outlier Factor (Breunig et al., SIGMOD 2000).
//!
//! Density-based outlier detection: each point's *local reachability
//! density* is compared with that of its k nearest neighbours. A LOF score
//! near 1 means the point sits in a region of density similar to its
//! neighbours; scores well above 1 flag local outliers that global
//! statistical filters miss. The paper runs LOF after standardisation
//! (distances need comparable scales) to clean the gathered timings.
//!
//! The training sets here are ~10³ points, so exact brute-force k-NN is
//! both simplest and fast enough.

use crate::data::Matrix;
use crate::MlError;

/// LOF detector configuration.
#[derive(Debug, Clone)]
pub struct LocalOutlierFactor {
    /// Neighbourhood size `k` (scikit-learn defaults to 20).
    pub k: usize,
    /// Points with `LOF > threshold` are flagged (1.5 is a common choice).
    pub threshold: f64,
}

impl Default for LocalOutlierFactor {
    fn default() -> Self {
        Self { k: 20, threshold: 1.5 }
    }
}

impl LocalOutlierFactor {
    /// Create a detector with explicit parameters.
    pub fn new(k: usize, threshold: f64) -> Self {
        Self { k: k.max(1), threshold }
    }

    /// Compute LOF scores for every row of `x`.
    ///
    /// # Errors
    /// Fails when there are fewer than `k + 1` samples.
    pub fn scores(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let n = x.rows();
        if n <= self.k {
            return Err(MlError::BadShape(format!("need more than k={} samples, got {n}", self.k)));
        }

        let neighbours = self.neighbours(x);

        // k-distance of each point = distance to its k-th neighbour.
        let k_dist: Vec<f64> = neighbours.iter().map(|nb| nb[nb.len() - 1].0).collect();

        // Local reachability density.
        let lrd: Vec<f64> = neighbours
            .iter()
            .map(|nb| {
                let sum: f64 = nb.iter().map(|&(d, j)| d.max(k_dist[j])).sum();
                if sum == 0.0 {
                    // All neighbours coincide: infinite density; use a large
                    // finite stand-in so ratios stay meaningful.
                    f64::MAX / 1e6
                } else {
                    nb.len() as f64 / sum
                }
            })
            .collect();

        // LOF = mean neighbour density / own density.
        Ok(neighbours
            .iter()
            .enumerate()
            .map(|(i, nb)| {
                let mean_nb: f64 = nb.iter().map(|&(_, j)| lrd[j]).sum::<f64>() / nb.len() as f64;
                mean_nb / lrd[i]
            })
            .collect())
    }

    /// The k nearest neighbours of each row as `(distance, index)`,
    /// ordered by distance with ties to the lower index. Only k entries
    /// per row are kept, so memory is O(n·k); one scratch row is reused.
    fn neighbours(&self, x: &Matrix) -> Vec<Vec<(f64, usize)>> {
        let n = x.rows();
        let by_dist_then_index = |a: &(f64, usize), b: &(f64, usize)| {
            a.0.partial_cmp(&b.0).expect("finite distances").then(a.1.cmp(&b.1))
        };
        let mut dists: Vec<(f64, usize)> = Vec::with_capacity(n);
        (0..n)
            .map(|i| {
                let ri = x.row(i);
                dists.clear();
                dists.extend((0..n).filter(|&j| j != i).map(|j| {
                    let d2: f64 = ri.iter().zip(x.row(j)).map(|(&a, &b)| (a - b) * (a - b)).sum();
                    (d2.sqrt(), j)
                }));
                dists.select_nth_unstable_by(self.k - 1, by_dist_then_index);
                let mut nearest = dists[..self.k].to_vec();
                nearest.sort_unstable_by(by_dist_then_index);
                nearest
            })
            .collect()
    }

    /// Indices of rows whose LOF score is at or below the threshold
    /// (i.e. the inliers to keep), in the original order.
    pub fn inlier_indices(&self, x: &Matrix) -> Result<Vec<usize>, MlError> {
        Ok(self
            .scores(x)?
            .iter()
            .enumerate()
            .filter(|(_, &s)| s <= self.threshold)
            .map(|(i, _)| i)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tight cluster plus one far-away point.
    fn cluster_with_outlier() -> Matrix {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..30 {
            let a = (i % 6) as f64 * 0.1;
            let b = (i / 6) as f64 * 0.1;
            rows.push(vec![a, b]);
        }
        rows.push(vec![10.0, 10.0]);
        Matrix::from_rows(&rows)
    }

    #[test]
    fn outlier_gets_high_score() {
        let x = cluster_with_outlier();
        let lof = LocalOutlierFactor::new(5, 1.5);
        let scores = lof.scores(&x).unwrap();
        let outlier = scores[30];
        let max_inlier = scores[..30].iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            outlier > 3.0 && outlier > 2.0 * max_inlier,
            "outlier {outlier} vs max inlier {max_inlier}"
        );
    }

    #[test]
    fn inliers_score_near_one() {
        let x = cluster_with_outlier();
        let lof = LocalOutlierFactor::new(5, 1.5);
        let scores = lof.scores(&x).unwrap();
        let mean_inlier: f64 = scores[..30].iter().sum::<f64>() / 30.0;
        assert!((0.8..1.3).contains(&mean_inlier), "mean inlier LOF {mean_inlier}");
    }

    #[test]
    fn inlier_indices_drop_the_outlier() {
        let x = cluster_with_outlier();
        let keep = LocalOutlierFactor::new(5, 1.5).inlier_indices(&x).unwrap();
        assert!(!keep.contains(&30), "outlier retained");
        assert!(keep.len() >= 28, "too many inliers dropped: kept {}", keep.len());
    }

    #[test]
    fn local_outlier_in_varying_density() {
        // Dense cluster at origin, sparse-but-regular cluster far away, and
        // a point that is globally mid-range but locally isolated from the
        // dense cluster. Global z-score methods would keep it; LOF flags it.
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..25 {
            rows.push(vec![(i % 5) as f64 * 0.05, (i / 5) as f64 * 0.05]);
        }
        for i in 0..25 {
            rows.push(vec![50.0 + (i % 5) as f64 * 2.0, (i / 5) as f64 * 2.0]);
        }
        rows.push(vec![1.5, 1.5]); // near dense cluster but locally isolated
        let x = Matrix::from_rows(&rows);
        let scores = LocalOutlierFactor::new(5, 1.5).scores(&x).unwrap();
        assert!(scores[50] > 1.5, "local outlier score {} too low", scores[50]);
    }

    #[test]
    fn too_few_samples_rejected() {
        let x = Matrix::zeros(5, 2);
        assert!(LocalOutlierFactor::new(5, 1.5).scores(&x).is_err());
    }

    #[test]
    fn neighbours_match_the_full_sort_reference_with_duplicate_rows() {
        // A lattice with every point doubled plus three copies of an
        // outlier: many equal distances, so the tie order decides which
        // neighbours (and hence which scores) come out.
        let mut rows: Vec<Vec<f64>> =
            (0..60).map(|i| vec![(i % 5) as f64 * 0.3, (i % 30 / 5) as f64 * 0.7]).collect();
        rows.extend(vec![vec![9.0, 9.0]; 3]);
        let x = Matrix::from_rows(&rows);
        for k in [1, 3, 5, 20] {
            // The selection-free reference: a stable sort of every
            // distance per row (ties keep index order), truncated to k.
            let want: Vec<Vec<(f64, usize)>> = (0..x.rows())
                .map(|i| {
                    let mut d: Vec<(f64, usize)> = (0..x.rows())
                        .filter(|&j| j != i)
                        .map(|j| {
                            let d2: f64 =
                                x.row(i).iter().zip(x.row(j)).map(|(a, b)| (a - b) * (a - b)).sum();
                            (d2.sqrt(), j)
                        })
                        .collect();
                    d.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                    d.truncate(k);
                    d
                })
                .collect();
            assert_eq!(LocalOutlierFactor::new(k, 1.5).neighbours(&x), want, "k={k}");
        }
    }

    #[test]
    fn duplicate_points_do_not_panic() {
        let x = Matrix::from_rows(&vec![vec![1.0, 1.0]; 10]);
        let scores = LocalOutlierFactor::new(3, 1.5).scores(&x).unwrap();
        assert!(scores.iter().all(|s| s.is_finite()));
    }
}
