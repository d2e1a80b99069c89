//! Differential oracle for the distance-space k-means: TD-AC's k-sweep
//! runs [`KMeans::fit_hamming`] on the exact pairwise Hamming matrix,
//! and this module holds it to the feature-space [`KMeans::fit`] it
//! replaced, on the same 0/1 rows and the same seed configuration.
//!
//! The two fits must agree on the assignments, the iteration count and
//! the winning restart. The feature-space fit decides with `f64`
//! centroids, so where two choices are *exactly* tied its rounding may
//! pick either; the distance-space fit always picks the lowest cluster
//! index and the earliest restart. A divergence therefore passes only
//! with a proof of the tie, computed here from the Hamming matrix in
//! exact integer arithmetic, independently of the library code:
//!
//! * each restart is replayed alone (`n_init = 1` with that restart's
//!   seed) and truncated at every iteration count, to find the first
//!   Lloyd step where the two fits part; at that step some row must be
//!   exactly equidistant from the two centroids the fits chose, or the
//!   empty-cluster repair must face two exactly equally far rows;
//! * different winning restarts need equal exact inertia (or a winner
//!   whose own trajectory parted on a proven tie).
//!
//! Anything else panics with the first unexplained divergence.

use clustering::{BitMatrix, Inertia, KMeans, KMeansConfig, Matrix, Metric, SqEuclidean};
use td_algorithms::TruthDiscovery;
use td_model::Dataset;
use tdac_core::{truth_vector_matrix, Observer, TdacConfig};

/// What [`check_hamming_fit`] found.
#[derive(Debug, Clone, Default)]
pub struct FitComparison {
    /// Restarts replayed.
    pub restarts: usize,
    /// One line per divergence, each naming the exact tie that allows
    /// it. Empty when the fits agree outright.
    pub ties: Vec<String>,
}

/// Summary of [`check_truth_vector_fits`] over one k-sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepComparison {
    /// k values compared.
    pub fits: usize,
    /// k values whose winners agree outright.
    pub identical: usize,
    /// Every proven tie, prefixed with its k.
    pub ties: Vec<String>,
}

/// The config of restart `restart` of `config` alone: `KMeans` seeds
/// restart `r` with `seed + φ·(r + 1)`, so `n_init = 1` at
/// `seed + φ·r` replays it.
fn restart_config(config: KMeansConfig, restart: usize) -> KMeansConfig {
    KMeansConfig {
        n_init: 1,
        seed: config
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(restart as u64)),
        ..config
    }
}

/// `‖x − mean(S)‖²` exactly, as `(numerator, denominator)`:
/// `(2|S|·Σ_{j∈S} H(x, j) − Σ_{i,j∈S} H(i, j)) / (2|S|²)`.
fn exact_dist(h: &[u64], n: usize, x: usize, set: &[usize]) -> (i128, i128) {
    let m = set.len() as i128;
    let a: i128 = set.iter().map(|&j| h[x * n + j] as i128).sum();
    let b: i128 = set
        .iter()
        .flat_map(|&i| set.iter().map(move |&j| h[i * n + j] as i128))
        .sum();
    (2 * m * a - b, 2 * m * m)
}

fn cmp_frac((p, q): (i128, i128), (r, s): (i128, i128)) -> std::cmp::Ordering {
    (p * s).cmp(&(r * q))
}

fn members(assignments: &[usize], k: usize) -> Vec<Vec<usize>> {
    let mut sets = vec![Vec::new(); k];
    for (i, &c) in assignments.iter().enumerate() {
        sets[c].push(i);
    }
    sets
}

/// Looks for the exact tie that lets one Lloyd step from the common
/// state `prev` end in `ft` (feature space) and `et` (distance space).
fn step_tie(
    h: &[u64],
    n: usize,
    k: usize,
    prev: &[usize],
    ft: &[usize],
    et: &[usize],
) -> Option<String> {
    let sets = members(prev, k);
    let dist = |x: usize, c: usize| exact_dist(h, n, x, &sets[c]);
    let nearest = |x: usize| {
        (1..k).fold((0, dist(x, 0)), |best, c| {
            let d = dist(x, c);
            if cmp_frac(d, best.1).is_lt() {
                (c, d)
            } else {
                best
            }
        })
    };
    // Assignment step: a row whose two choices are both exactly nearest.
    for x in (0..n).filter(|&x| ft[x] != et[x]) {
        let (df, de) = (dist(x, ft[x]), dist(x, et[x]));
        if cmp_frac(df, de).is_eq() && cmp_frac(de, nearest(x).1).is_eq() {
            return Some(format!(
                "row {x} is exactly equidistant ({}/{}) from centroids {} and {}",
                de.0, de.1, ft[x], et[x]
            ));
        }
    }
    // Repair: the exact labels leave a cluster empty and the farthest
    // row among those that may move is not unique.
    let labels: Vec<usize> = (0..n).map(|x| nearest(x).0).collect();
    let mut counts = vec![0usize; k];
    for &c in &labels {
        counts[c] += 1;
    }
    if counts.contains(&0) {
        let movable: Vec<(usize, (i128, i128))> = (0..n)
            .filter(|&x| counts[labels[x]] > 1)
            .map(|x| (x, nearest(x).1))
            .collect();
        let far = movable
            .iter()
            .map(|&(_, d)| d)
            .max_by(|a, b| cmp_frac(*a, *b))?;
        let tied: Vec<usize> = movable
            .iter()
            .filter(|&&(_, d)| cmp_frac(d, far).is_eq())
            .map(|&(x, _)| x)
            .collect();
        if tied.len() > 1 {
            return Some(format!(
                "repair: rows {tied:?} are exactly equally far ({}/{}) from their centroids",
                far.0, far.1
            ));
        }
    }
    None
}

/// Replays one restart truncated at every iteration count and proves
/// the tie at the first step where the fits part.
fn prove_restart_divergence(
    data: &Matrix,
    h: &[u64],
    config: KMeansConfig,
    iterations: (u32, u32),
) -> Result<String, String> {
    let n = data.n_rows();
    let obs = Observer::disabled();
    let mut prev: Option<Vec<usize>> = None;
    for t in 1..=iterations.0.min(iterations.1) {
        let step = KMeansConfig {
            max_iterations: t,
            ..config
        };
        let ft = KMeans::new(step).fit(data).expect("feasible k").assignments;
        let et = KMeans::new(step)
            .fit_hamming(h, n, &obs)
            .expect("feasible k")
            .assignments;
        if ft != et {
            let Some(prev) = prev else {
                return Err(format!(
                    "iteration 1 diverged ({ft:?} vs {et:?}), where every distance is an exact integer"
                ));
            };
            return step_tie(h, n, config.k, &prev, &ft, &et)
                .map(|tie| format!("iteration {t}: {tie}"))
                .ok_or_else(|| {
                    format!("iteration {t} diverged ({ft:?} vs {et:?}) with no exact tie")
                });
        }
        prev = Some(ft);
    }
    Err(format!(
        "the stop rule diverged: {} vs {} iterations over identical steps",
        iterations.0, iterations.1
    ))
}

/// Checks [`KMeans::fit_hamming`] against [`KMeans::fit`] on the 0/1
/// rows of `data` under `config`: per restart and for the full fit,
/// same assignments, same iteration count and same winning restart,
/// unless a proven exact tie explains the difference.
///
/// # Panics
/// Panics on any unexplained divergence, on non-binary `data`, or when
/// the distance-space fit's reported inertia is not the exact inertia
/// of its own assignments.
pub fn check_hamming_fit(data: &Matrix, config: KMeansConfig) -> FitComparison {
    let n = data.n_rows();
    let h = BitMatrix::pack(data).expect("0/1 rows").hamming_matrix();
    for i in 0..n {
        for j in 0..n {
            assert_eq!(
                h[i * n + j] as f64,
                SqEuclidean.distance(data.row(i), data.row(j)),
                "H({i}, {j}) is not the squared distance"
            );
        }
    }
    let obs = Observer::disabled();
    let restarts = config.n_init.max(1) as usize;
    let mut report = FitComparison {
        restarts,
        ties: Vec::new(),
    };
    let mut diverged = vec![false; restarts];
    let (mut feature, mut exact) = (Vec::new(), Vec::new());
    for (r, parted) in diverged.iter_mut().enumerate() {
        let one = restart_config(config, r);
        let f = KMeans::new(one).fit(data).expect("feasible k");
        let e = KMeans::new(one)
            .fit_hamming(&h, n, &obs)
            .expect("feasible k");
        assert!(
            e.inertia == Inertia::of_partition(&h, n, &e.assignments),
            "k = {}, restart {r}: reported inertia is not that of the assignments",
            config.k
        );
        if f.assignments == e.assignments && f.iterations == e.iterations {
            let scale = f.inertia.abs().max(1.0);
            assert!(
                (e.inertia.value() - f.inertia).abs() <= 1e-9 * scale,
                "k = {}, restart {r}: inertia {} vs {}",
                config.k,
                e.inertia.value(),
                f.inertia
            );
        } else {
            match prove_restart_divergence(data, &h, one, (f.iterations, e.iterations)) {
                Ok(tie) => report.ties.push(format!("restart {r}: {tie}")),
                Err(why) => panic!("k = {}, restart {r}: {why}", config.k),
            }
            *parted = true;
        }
        feature.push(f);
        exact.push(e);
    }

    // Each fit's winner by its own rule, then the full fits must be
    // exactly those restarts.
    let rf = (1..restarts).fold(0, |b, r| {
        if feature[r].inertia < feature[b].inertia {
            r
        } else {
            b
        }
    });
    let re = (1..restarts).fold(0, |b, r| {
        if exact[r].inertia < exact[b].inertia {
            r
        } else {
            b
        }
    });
    let full_f = KMeans::new(config).fit(data).expect("feasible k");
    let full_e = KMeans::new(config)
        .fit_hamming(&h, n, &obs)
        .expect("feasible k");
    assert_eq!(
        full_f.assignments, feature[rf].assignments,
        "k = {}: feature-space winner",
        config.k
    );
    assert_eq!(
        full_e.restart as usize, re,
        "k = {}: distance-space winner",
        config.k
    );
    assert_eq!(
        full_e.assignments, exact[re].assignments,
        "k = {}",
        config.k
    );
    assert_eq!(full_e.iterations, exact[re].iterations, "k = {}", config.k);
    if rf != re {
        let tie = Inertia::of_partition(&h, n, &feature[rf].assignments);
        if tie == full_e.inertia {
            let (num, den) = tie.ratio().expect("in range");
            report.ties.push(format!(
                "restarts {rf} and {re} tie at exact inertia {num}/{den}"
            ));
        } else if diverged[rf] || diverged[re] {
            report.ties.push(format!(
                "winner {rf} vs {re} follows a tie-diverged restart"
            ));
        } else {
            panic!(
                "k = {}: winning restart {rf} (feature space) vs {re} (exact), exact inertia {:?} vs {:?}",
                config.k,
                tie.ratio(),
                full_e.inertia.ratio()
            );
        }
    }
    report
}

/// [`check_hamming_fit`] at every k of TD-AC's sweep over the truth
/// vectors of `base` on `dataset`, under the default TD-AC seed config.
pub fn check_truth_vector_fits(base: &dyn TruthDiscovery, dataset: &Dataset) -> SweepComparison {
    let config = TdacConfig::default();
    let (matrix, _) = truth_vector_matrix(base, &dataset.view_all(), &Observer::disabled());
    let n = matrix.n_rows();
    let k_hi = config
        .k_max
        .unwrap_or(n.saturating_sub(1))
        .min(n.saturating_sub(1));
    let mut sweep = SweepComparison::default();
    for k in config.k_min..=k_hi {
        let fit = check_hamming_fit(
            &matrix,
            KMeansConfig {
                k,
                n_init: config.n_init,
                seed: config.seed,
                ..KMeansConfig::with_k(k)
            },
        );
        sweep.fits += 1;
        if fit.ties.is_empty() {
            sweep.identical += 1;
        }
        sweep
            .ties
            .extend(fit.ties.into_iter().map(|t| format!("k = {k}, {t}")));
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustering::Init;

    fn hamming(rows: &[Vec<f64>]) -> Vec<u64> {
        BitMatrix::pack(&Matrix::from_rows(rows))
            .unwrap()
            .hamming_matrix()
    }

    #[test]
    fn a_step_tie_is_proven_only_when_the_distances_are_exactly_equal() {
        // Both clusters of `prev` have the mean (½, ½): every row is
        // exactly equidistant from both centroids.
        let rows = [
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        ];
        let h = hamming(&rows);
        let tie = step_tie(&h, 4, 2, &[0, 0, 1, 1], &[0, 0, 1, 1], &[1, 0, 0, 0]);
        assert!(tie.unwrap().contains("row 0 is exactly equidistant (4/8)"));
        // Row 0 sits on centroid 0 and 2 away from centroid 1: choosing
        // centroid 1 is a wrong step, not a tie.
        let rows = [
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        ];
        let h = hamming(&rows);
        assert_eq!(
            step_tie(&h, 4, 2, &[0, 1, 0, 1], &[1, 1, 0, 1], &[0, 1, 0, 1]),
            None
        );
    }

    #[test]
    fn tied_winning_restarts_are_reported_with_their_exact_inertia() {
        // Every restart ends at inertia exactly 5; float rounding makes
        // the feature-space fit prefer a later one.
        let base = [
            [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0],
        ];
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|i| {
                let mut r = base[i % 2].to_vec();
                r[i] = 1.0 - r[i];
                r
            })
            .collect();
        let config = KMeansConfig {
            init: Init::Random,
            ..KMeansConfig::with_k(3)
        };
        let report = check_hamming_fit(&Matrix::from_rows(&rows), config);
        assert_eq!(report.restarts, 10);
        assert_eq!(report.ties.len(), 1, "{:?}", report.ties);
        assert!(
            report.ties[0].ends_with("tie at exact inertia 5/1"),
            "{:?}",
            report.ties
        );
    }
}
