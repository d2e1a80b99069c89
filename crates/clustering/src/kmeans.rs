//! Lloyd's k-means with k-means++ initialization, seeded restarts and
//! empty-cluster repair — the optimizer behind TD-AC's Eq. 3.
//!
//! Two fits share one seeding path, one restart schedule, one stop rule
//! and one repair rule:
//!
//! * [`KMeans::fit`] runs in feature space on a dense [`Matrix`], with
//!   explicit `f64` centroids. It serves any real-valued data.
//! * [`KMeans::fit_hamming`] runs on the exact pairwise Hamming matrix of
//!   0/1 rows and never materializes a centroid. On binary rows the
//!   squared distance to the mean of a member set `S` is
//!   `‖x − μ_S‖² = (2|S|·Σ_{j∈S} H(x,j) − Σ_{i,j∈S} H(i,j)) / (2|S|²)`,
//!   so each Lloyd iteration costs `O(n²)` integer work whatever the
//!   dimension (kernel k-means with a linear kernel; Dhillon, Guan &
//!   Kulis, KDD 2004). Every comparison is exact: ties go to the lowest
//!   cluster index, and between restarts to the earliest restart with
//!   the lowest exact [`Inertia`]. This is the fit TD-AC's k-sweep runs.

use rand::distributions::{Distribution, WeightedIndex};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Ordering;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::distance::{Metric, SqEuclidean};
use crate::error::ClusterError;
use crate::matrix::Matrix;

/// Centroid initialization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Init {
    /// D²-weighted seeding (Arthur & Vassilvitskii 2007) — the default.
    KMeansPlusPlus,
    /// Uniformly random distinct observations.
    Random,
}

/// Configuration of a [`KMeans`] run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Lloyd iteration cap per restart.
    pub max_iterations: u32,
    /// Stop when the inertia improvement falls below this value.
    pub tolerance: f64,
    /// Independent restarts; the lowest-inertia run wins.
    pub n_init: u32,
    /// Initialization strategy.
    pub init: Init,
    /// RNG seed — identical seeds give identical clusterings.
    pub seed: u64,
}

impl KMeansConfig {
    /// Defaults (aside from `k`, which has no sensible default):
    /// 100 iterations, tolerance `1e-9`, 10 restarts, k-means++, seed 42.
    pub fn with_k(k: usize) -> Self {
        Self {
            k,
            max_iterations: 100,
            tolerance: 1e-9,
            n_init: 10,
            init: Init::KMeansPlusPlus,
            seed: 42,
        }
    }
}

/// The outcome of a k-means fit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KMeansResult {
    /// Cluster index of every observation.
    pub assignments: Vec<usize>,
    /// Final centroids, `k` rows.
    pub centroids: Matrix,
    /// Sum of squared distances of observations to their centroid
    /// (the paper's inertia objective, Eq. 3).
    pub inertia: f64,
    /// Lloyd iterations of the winning restart.
    pub iterations: u32,
}

impl KMeansResult {
    /// Observation indices grouped per cluster, preserving observation
    /// order inside each group.
    pub fn clusters(&self, k: usize) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); k];
        for (i, &c) in self.assignments.iter().enumerate() {
            groups[c].push(i);
        }
        groups
    }
}

/// Lloyd's algorithm. See module docs.
#[derive(Debug, Clone, Copy)]
pub struct KMeans {
    config: KMeansConfig,
}

impl KMeans {
    /// A k-means instance with the given configuration.
    pub fn new(config: KMeansConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &KMeansConfig {
        &self.config
    }

    /// Fits `k` clusters to the rows of `data`.
    pub fn fit(&self, data: &Matrix) -> Result<KMeansResult, ClusterError> {
        self.fit_observed(data, &td_obs::Observer::disabled())
    }

    /// [`KMeans::fit`] with instrumentation: bumps
    /// [`td_obs::Counter::KMeansIterations`] by the Lloyd iterations
    /// summed over *all* restarts (the real work done, not just the
    /// winner's count). Observation never alters the fit.
    pub fn fit_observed(
        &self,
        data: &Matrix,
        observer: &td_obs::Observer,
    ) -> Result<KMeansResult, ClusterError> {
        self.check(data.n_rows())?;
        let runs = self.run_restarts(observer, |rng| self.single_run(data, rng), |r| r.iterations);
        let best = earliest_lowest(runs.iter().map(|r| r.inertia));
        Ok(runs.into_iter().nth(best).expect("n_init >= 1"))
    }

    /// Fits `k` clusters to `n` binary rows given only their exact
    /// pairwise Hamming matrix (`hamming[i·n + j] = H(i, j)`, as
    /// [`crate::BitMatrix::hamming_matrix`] builds it).
    ///
    /// This is [`KMeans::fit`] on the same rows, computed without the
    /// rows: the same seeds (k-means++ D² weights are the Hamming
    /// counts), the same restarts, stop rule and empty-cluster repair,
    /// with every distance comparison decided exactly in integers. Where
    /// the feature-space fit's float rounding could break an exact tie
    /// either way, this one sends it to the lowest cluster index (and,
    /// between restarts, to the earliest restart). Each iteration costs
    /// `O(n²)`, independent of the row width.
    ///
    /// Bumps [`td_obs::Counter::KMeansIterations`] by the Lloyd
    /// iterations summed over all restarts, exactly as
    /// [`KMeans::fit_observed`] does.
    ///
    /// # Panics
    /// Panics if `hamming.len() != n * n`.
    pub fn fit_hamming(
        &self,
        hamming: &[u64],
        n: usize,
        observer: &td_obs::Observer,
    ) -> Result<HammingKMeansResult, ClusterError> {
        assert_eq!(hamming.len(), n * n, "hamming matrix must be n × n");
        self.check(n)?;
        let runs = self.run_restarts(
            observer,
            |rng| self.single_run_hamming(hamming, n, rng),
            |r| r.iterations,
        );
        let best = earliest_lowest(runs.iter().map(|r| r.inertia));
        let mut winner = runs.into_iter().nth(best).expect("n_init >= 1");
        winner.restart = best as u32;
        Ok(winner)
    }

    /// Runs every restart and bumps
    /// [`td_obs::Counter::KMeansIterations`] by their summed iterations.
    /// Restarts are independent (each derives its RNG from its restart
    /// index alone), so they run in parallel; the runs come back in
    /// restart order.
    fn run_restarts<R: Send>(
        &self,
        observer: &td_obs::Observer,
        run: impl Fn(&mut ChaCha8Rng) -> R + Sync,
        iterations: impl Fn(&R) -> u32,
    ) -> Vec<R> {
        let runs: Vec<R> = (0..self.config.n_init.max(1) as usize)
            .into_par_iter()
            .map(|restart| run(&mut self.restart_rng(restart)))
            .collect();
        observer.incr(
            td_obs::Counter::KMeansIterations,
            runs.iter().map(|r| iterations(r) as u64).sum(),
        );
        runs
    }

    fn check(&self, n: usize) -> Result<(), ClusterError> {
        let k = self.config.k;
        if k == 0 {
            return Err(ClusterError::ZeroK);
        }
        if n == 0 {
            return Err(ClusterError::EmptyInput);
        }
        if k > n {
            return Err(ClusterError::TooFewObservations { k, n });
        }
        if self.config.max_iterations == 0 {
            return Err(ClusterError::ZeroIterationCap);
        }
        Ok(())
    }

    /// The RNG of one restart, derived from the seed and the restart
    /// index alone.
    fn restart_rng(&self, restart: usize) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(
            self.config
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(restart as u64 + 1)),
        )
    }

    /// The initial centroids as observation indices; `dist(i, j)` is the
    /// squared distance between observations `i` and `j`.
    fn seeds(
        &self,
        n: usize,
        rng: &mut ChaCha8Rng,
        dist: impl Fn(usize, usize) -> f64,
    ) -> Vec<usize> {
        match self.config.init {
            Init::KMeansPlusPlus => init_plus_plus(n, self.config.k, rng, dist),
            Init::Random => init_random(n, self.config.k, rng),
        }
    }

    /// Whether an iteration whose inertia dropped by `improvement` keeps
    /// Lloyd going (the first iteration improves on an infinite one).
    fn keeps_going(&self, improvement: f64, iterations: u32) -> bool {
        improvement > self.config.tolerance && iterations < self.config.max_iterations
    }

    fn single_run(&self, data: &Matrix, rng: &mut ChaCha8Rng) -> KMeansResult {
        let (n, d, k) = (data.n_rows(), data.n_cols(), self.config.k);
        let metric = SqEuclidean;
        let seeds = self.seeds(n, rng, |i, j| metric.distance(data.row(i), data.row(j)));
        let mut centroids = Matrix::zeros(k, d);
        for (c, &i) in seeds.iter().enumerate() {
            centroids.row_mut(c).copy_from_slice(data.row(i));
        }
        let mut assignments = vec![0usize; n];
        let mut counts = vec![0usize; k];
        let mut inertia = f64::INFINITY;
        let mut iterations = 0u32;

        loop {
            iterations += 1;
            // Assignment step: rows are independent, so label them in
            // parallel; the inertia is summed over the collected labels in
            // row order, keeping the total bit-identical to a sequential
            // pass at any thread count.
            let centroids_ref = &centroids;
            let labeled: Vec<(usize, f64)> = (0..n)
                .into_par_iter()
                .map(|i| {
                    let row = data.row(i);
                    let mut best_c = 0usize;
                    let mut best_d = f64::INFINITY;
                    for c in 0..k {
                        let dist = metric.distance(row, centroids_ref.row(c));
                        if dist < best_d {
                            best_d = dist;
                            best_c = c;
                        }
                    }
                    (best_c, best_d)
                })
                .collect();
            let mut new_inertia = 0.0;
            for (i, (best_c, best_d)) in labeled.into_iter().enumerate() {
                assignments[i] = best_c;
                new_inertia += best_d;
            }

            // Update step.
            let mut next = Matrix::zeros(k, d);
            counts.iter_mut().for_each(|c| *c = 0);
            for i in 0..n {
                let c = assignments[i];
                counts[c] += 1;
                let row = data.row(i);
                let cr = next.row_mut(c);
                for j in 0..d {
                    cr[j] += row[j];
                }
            }
            // Empty-cluster repair: move the observation farthest from its
            // centroid into each empty cluster (a classic, deterministic
            // fix that keeps exactly k non-empty clusters).
            for c in 0..k {
                if counts[c] == 0 {
                    let (mut far_i, mut far_d) = (0usize, -1.0);
                    for i in 0..n {
                        if counts[assignments[i]] > 1 {
                            let dist = metric.distance(data.row(i), centroids.row(assignments[i]));
                            if dist > far_d {
                                far_d = dist;
                                far_i = i;
                            }
                        }
                    }
                    let old = assignments[far_i];
                    counts[old] -= 1;
                    let row = data.row(far_i);
                    let or = next.row_mut(old);
                    for j in 0..d {
                        or[j] -= row[j];
                    }
                    assignments[far_i] = c;
                    counts[c] = 1;
                    let cr = next.row_mut(c);
                    for j in 0..d {
                        cr[j] += row[j];
                    }
                }
            }
            for c in 0..k {
                let cnt = counts[c].max(1) as f64;
                let cr = next.row_mut(c);
                for j in 0..d {
                    cr[j] /= cnt;
                }
            }
            centroids = next;

            let improvement = inertia - new_inertia;
            inertia = new_inertia;
            if !self.keeps_going(improvement, iterations) {
                break;
            }
        }

        // Recompute the final inertia against the final centroids.
        let mut final_inertia = 0.0;
        for i in 0..n {
            final_inertia += metric.distance(data.row(i), centroids.row(assignments[i]));
        }

        KMeansResult {
            assignments,
            centroids,
            inertia: final_inertia,
            iterations,
        }
    }

    fn single_run_hamming(
        &self,
        hamming: &[u64],
        n: usize,
        rng: &mut ChaCha8Rng,
    ) -> HammingKMeansResult {
        let k = self.config.k;
        // Iteration 1 measures against the seed rows: singleton sets.
        let mut members: Vec<Vec<usize>> = self
            .seeds(n, rng, |i, j| hamming[i * n + j] as f64)
            .into_iter()
            .map(|s| vec![s])
            .collect();
        let mut assignments = vec![0usize; n];
        let mut inertia: Option<Inertia> = None;
        let mut iterations = 0u32;

        loop {
            iterations += 1;
            let centroids = SetCentroids::new(hamming, n, &members);

            // Assignment step; the inertia of the labeling is summed per
            // cluster, exactly.
            let mut assigned = vec![0i128; k];
            for (x, slot) in assignments.iter_mut().enumerate() {
                let (c, (num, _)) = centroids.nearest(x);
                *slot = c;
                assigned[c] += num;
            }
            let new_inertia = Inertia::sum(
                (0..k)
                    .filter(|&c| assigned[c] > 0)
                    .map(|c| (assigned[c] as u128, 2 * centroids.size_sq(c) as u128)),
            );

            // Empty-cluster repair against this iteration's centroids,
            // as in the feature-space fit: the observation farthest from
            // its centroid (earliest on ties) among clusters that can
            // spare one moves into each empty cluster.
            let mut counts = vec![0usize; k];
            for &c in &assignments {
                counts[c] += 1;
            }
            for c in 0..k {
                if counts[c] == 0 {
                    let mut far: Option<(usize, (i128, i128))> = None;
                    for i in 0..n {
                        let own = assignments[i];
                        if counts[own] > 1 {
                            let d = centroids.dist(i, own);
                            if far.is_none_or(|(_, fd)| closer(fd, d)) {
                                far = Some((i, d));
                            }
                        }
                    }
                    let (far_i, _) = far.expect("k <= n: some cluster has two members");
                    counts[assignments[far_i]] -= 1;
                    assignments[far_i] = c;
                    counts[c] = 1;
                }
            }
            members = group(&assignments, k);

            let improvement = match &inertia {
                None => f64::INFINITY,
                Some(prev) => prev.minus(&new_inertia),
            };
            inertia = Some(new_inertia);
            if !self.keeps_going(improvement, iterations) {
                break;
            }
        }

        HammingKMeansResult {
            inertia: Inertia::of_partition(hamming, n, &assignments),
            assignments,
            iterations,
            restart: 0,
        }
    }
}

/// The outcome of [`KMeans::fit_hamming`].
#[derive(Debug, Clone, PartialEq)]
pub struct HammingKMeansResult {
    /// Cluster index of every observation.
    pub assignments: Vec<usize>,
    /// The exact inertia (Eq. 3) of the final clustering.
    pub inertia: Inertia,
    /// Lloyd iterations of the winning restart.
    pub iterations: u32,
    /// Index of the winning restart (`0..n_init`).
    pub restart: u32,
}

/// Index of the earliest run with the lowest inertia: a later run must
/// be strictly lower to win.
fn earliest_lowest<T: PartialOrd>(inertias: impl Iterator<Item = T>) -> usize {
    let mut best: Option<(usize, T)> = None;
    for (i, inertia) in inertias.enumerate() {
        if best.as_ref().is_none_or(|(_, b)| inertia < *b) {
            best = Some((i, inertia));
        }
    }
    best.map_or(0, |(i, _)| i)
}

/// Cluster members in observation order.
fn group(assignments: &[usize], k: usize) -> Vec<Vec<usize>> {
    let mut groups = vec![Vec::new(); k];
    for (i, &c) in assignments.iter().enumerate() {
        groups[c].push(i);
    }
    groups
}

/// The centroids of one Lloyd iteration — each the mean of a member set
/// `S_c` — known only through Hamming sums:
/// `a[c·n + x] = Σ_{j∈S_c} H(x, j)` and `b[c] = Σ_{i,j∈S_c} H(i, j)`.
struct SetCentroids {
    n: usize,
    a: Vec<u64>,
    b: Vec<i128>,
    size: Vec<i128>,
}

impl SetCentroids {
    fn new(hamming: &[u64], n: usize, members: &[Vec<usize>]) -> Self {
        let k = members.len();
        let mut a = vec![0u64; k * n];
        let mut b = Vec::with_capacity(k);
        for (c, set) in members.iter().enumerate() {
            let row = &mut a[c * n..(c + 1) * n];
            for &j in set {
                for (acc, &h) in row.iter_mut().zip(&hamming[j * n..(j + 1) * n]) {
                    *acc += h;
                }
            }
            b.push(set.iter().map(|&i| row[i] as i128).sum());
        }
        Self {
            n,
            a,
            b,
            size: members.iter().map(|s| s.len() as i128).collect(),
        }
    }

    fn size_sq(&self, c: usize) -> i128 {
        self.size[c] * self.size[c]
    }

    /// `‖x − μ_c‖²` as the fraction `(2m·A − B) / (2m²)`, returned as
    /// `(2m·A − B, m²)`: the common factor 2 cancels in comparisons.
    fn dist(&self, x: usize, c: usize) -> (i128, i128) {
        let m = self.size[c];
        (2 * m * self.a[c * self.n + x] as i128 - self.b[c], m * m)
    }

    /// The nearest centroid of `x`; ties go to the lowest index.
    fn nearest(&self, x: usize) -> (usize, (i128, i128)) {
        let mut best = (0, self.dist(x, 0));
        for c in 1..self.size.len() {
            let d = self.dist(x, c);
            if closer(d, best.1) {
                best = (c, d);
            }
        }
        best
    }
}

/// Whether `p/q < r/s` (positive denominators), exactly.
fn closer((p, q): (i128, i128), (r, s): (i128, i128)) -> bool {
    p * s < r * q
}

/// A k-means objective value (Eq. 3) over 0/1 rows.
///
/// Every term is a ratio of integer Hamming sums, so the total is kept
/// exactly, as a fraction in lowest terms, for as long as numerator and
/// denominator fit in `u128`. The denominator is a multiple of the
/// cluster sizes' least common multiple, which stays small for any
/// realistic attribute count. Past that range the value is carried as
/// an `f64` sum. Two values compare exactly when both are exact, and by
/// their `f64` values otherwise.
#[derive(Debug, Clone, Copy)]
pub struct Inertia {
    exact: Option<(u128, u128)>,
    approx: f64,
}

impl Inertia {
    /// `Σ num / den` over `terms` (positive denominators), over the
    /// terms' least common denominator, reduced once at the end.
    fn sum(terms: impl IntoIterator<Item = (u128, u128)>) -> Self {
        let terms: Vec<(u128, u128)> = terms.into_iter().collect();
        let exact = (|| {
            let mut den = 1u128;
            for &(_, d) in &terms {
                den = (den / gcd(den, d)).checked_mul(d)?;
            }
            let mut num = 0u128;
            for &(n, d) in &terms {
                num = num.checked_add(n.checked_mul(den / d)?)?;
            }
            Some(reduce((num, den)))
        })();
        let approx = match exact {
            Some(r) => ratio_to_f64(r),
            None => terms.iter().map(|&t| ratio_to_f64(t)).sum(),
        };
        Self { exact, approx }
    }

    /// The inertia of a partition of binary rows around its cluster
    /// means, from their pairwise Hamming matrix:
    /// `Σ_c Σ_{i,j∈c} H(i, j) / (2|c|)`.
    ///
    /// # Panics
    /// Panics if `hamming.len() != n * n` or `assignments.len() != n`.
    pub fn of_partition(hamming: &[u64], n: usize, assignments: &[usize]) -> Self {
        assert_eq!(hamming.len(), n * n, "hamming matrix must be n × n");
        assert_eq!(assignments.len(), n, "one assignment per observation");
        let k = assignments.iter().copied().max().map_or(0, |m| m + 1);
        Self::sum(
            group(assignments, k)
                .iter()
                .filter(|s| !s.is_empty())
                .map(|set| {
                    let scatter: u128 = set
                        .iter()
                        .flat_map(|&i| set.iter().map(move |&j| hamming[i * n + j] as u128))
                        .sum();
                    (scatter, 2 * set.len() as u128)
                }),
        )
    }

    /// The value, rounded to `f64`.
    pub fn value(&self) -> f64 {
        self.approx
    }

    /// The exact value as `(numerator, denominator)` in lowest terms,
    /// or `None` once it left the `u128` range.
    pub fn ratio(&self) -> Option<(u128, u128)> {
        self.exact
    }

    /// `self − later` as an `f64` (exact before the final rounding when
    /// both values are exact and `later <= self`).
    fn minus(&self, later: &Self) -> f64 {
        if let (Some(a), Some(b)) = (self.exact, later.exact) {
            if a == b {
                return 0.0;
            }
            if let Some(d) = sub_ratio(a, b) {
                return ratio_to_f64(d);
            }
        }
        self.approx - later.approx
    }
}

impl PartialEq for Inertia {
    fn eq(&self, other: &Self) -> bool {
        self.partial_cmp(other) == Some(Ordering::Equal)
    }
}

impl PartialOrd for Inertia {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match (self.exact, other.exact) {
            (Some(a), Some(b)) => Some(mul_wide(a.0, b.1).cmp(&mul_wide(b.0, a.1))),
            _ => self.approx.partial_cmp(&other.approx),
        }
    }
}

/// Binary GCD: shifts and subtractions only, no 128-bit division.
fn gcd(mut a: u128, mut b: u128) -> u128 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

fn reduce((num, den): (u128, u128)) -> (u128, u128) {
    let g = gcd(num, den);
    (num / g, den / g)
}

/// `a/b − c/d`, or `None` when negative or out of range.
fn sub_ratio((a, b): (u128, u128), (c, d): (u128, u128)) -> Option<(u128, u128)> {
    let l = (b / gcd(b, d)).checked_mul(d)?;
    let num = a.checked_mul(l / b)?.checked_sub(c.checked_mul(l / d)?)?;
    Some(reduce((num, l)))
}

fn ratio_to_f64((num, den): (u128, u128)) -> f64 {
    num as f64 / den as f64
}

/// The full 256-bit product `a·b` as `(high, low)` words, so products
/// of two in-range fractions compare without overflow.
fn mul_wide(a: u128, b: u128) -> (u128, u128) {
    const LO: u128 = u64::MAX as u128;
    let (a1, a0) = (a >> 64, a & LO);
    let (b1, b0) = (b >> 64, b & LO);
    let (p00, p01, p10, p11) = (a0 * b0, a0 * b1, a1 * b0, a1 * b1);
    let mid = (p00 >> 64) + (p01 & LO) + (p10 & LO);
    let low = (p00 & LO) | (mid << 64);
    let high = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
    (high, low)
}

fn init_random(n: usize, k: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.truncate(k);
    idx
}

fn init_plus_plus(
    n: usize,
    k: usize,
    rng: &mut ChaCha8Rng,
    dist: impl Fn(usize, usize) -> f64,
) -> Vec<usize> {
    let mut centers: Vec<usize> = Vec::with_capacity(k);
    centers.push(rng.gen_range(0..n));
    let mut d2: Vec<f64> = (0..n).map(|i| dist(i, centers[0])).collect();
    while centers.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a center; pick any
            // non-center deterministically, else repeat a center.
            (0..n).find(|i| !centers.contains(i)).unwrap_or(0)
        } else {
            WeightedIndex::new(d2.iter().map(|&w| w.max(0.0)))
                .map(|w| w.sample(rng))
                .unwrap_or(0)
        };
        centers.push(next);
        for i in 0..n {
            let d = dist(i, next);
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centers
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated blobs on a line.
    fn blobs() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 0.1],
            vec![0.1, 0.0],
            vec![0.05, 0.05],
            vec![10.0, 10.1],
            vec![10.1, 10.0],
            vec![10.05, 9.95],
        ])
    }

    #[test]
    fn separates_obvious_blobs() {
        let r = KMeans::new(KMeansConfig::with_k(2)).fit(&blobs()).unwrap();
        assert_eq!(r.assignments.len(), 6);
        let a = r.assignments[0];
        assert!(r.assignments[..3].iter().all(|&c| c == a));
        let b = r.assignments[3];
        assert!(r.assignments[3..].iter().all(|&c| c == b));
        assert_ne!(a, b);
        assert!(r.inertia < 0.1, "inertia {}", r.inertia);
    }

    #[test]
    fn every_point_is_assigned_and_every_cluster_nonempty() {
        let r = KMeans::new(KMeansConfig::with_k(3)).fit(&blobs()).unwrap();
        assert!(r.assignments.iter().all(|&c| c < 3));
        let groups = r.clusters(3);
        assert!(groups.iter().all(|g| !g.is_empty()), "{groups:?}");
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 6);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = Matrix::from_rows(&[vec![0.0], vec![5.0], vec![9.0]]);
        let r = KMeans::new(KMeansConfig::with_k(3)).fit(&data).unwrap();
        assert!(r.inertia < 1e-12);
    }

    #[test]
    fn k_one_centroid_is_mean() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![2.0, 4.0]]);
        let r = KMeans::new(KMeansConfig::with_k(1)).fit(&data).unwrap();
        assert_eq!(r.centroids.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn errors_on_degenerate_input() {
        let data = blobs();
        assert_eq!(
            KMeans::new(KMeansConfig::with_k(0)).fit(&data).unwrap_err(),
            ClusterError::ZeroK
        );
        assert_eq!(
            KMeans::new(KMeansConfig::with_k(7)).fit(&data).unwrap_err(),
            ClusterError::TooFewObservations { k: 7, n: 6 }
        );
        let empty = Matrix::from_rows(&[]);
        assert_eq!(
            KMeans::new(KMeansConfig::with_k(1)).fit(&empty).unwrap_err(),
            ClusterError::EmptyInput
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs();
        let cfg = KMeansConfig::with_k(2);
        let r1 = KMeans::new(cfg).fit(&data).unwrap();
        let r2 = KMeans::new(cfg).fit(&data).unwrap();
        assert_eq!(r1.assignments, r2.assignments);
        assert_eq!(r1.inertia, r2.inertia);
    }

    #[test]
    fn random_init_also_works() {
        let mut cfg = KMeansConfig::with_k(2);
        cfg.init = Init::Random;
        let r = KMeans::new(cfg).fit(&blobs()).unwrap();
        assert!(r.inertia < 0.1);
    }

    #[test]
    fn duplicate_points_are_handled() {
        let data = Matrix::from_rows(&vec![vec![1.0]; 5]);
        let r = KMeans::new(KMeansConfig::with_k(2)).fit(&data).unwrap();
        assert_eq!(r.assignments.len(), 5);
        assert!(r.inertia < 1e-12);
    }

    #[test]
    fn thread_count_does_not_change_the_fit() {
        let data = blobs();
        let cfg = KMeansConfig::with_k(2);
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| KMeans::new(cfg).fit(&data).unwrap());
        let four = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(|| KMeans::new(cfg).fit(&data).unwrap());
        assert_eq!(one.assignments, four.assignments);
        assert_eq!(one.inertia.to_bits(), four.inertia.to_bits());
        assert_eq!(one.iterations, four.iterations);
    }

    #[test]
    fn binary_truth_vectors_cluster_by_pattern() {
        // The paper's use case: 0/1 rows, correlated attribute groups.
        let data = Matrix::from_rows(&[
            vec![1.0, 1.0, 0.0, 0.0, 1.0, 1.0],
            vec![1.0, 1.0, 0.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 1.0, 0.0, 1.0],
        ]);
        let r = KMeans::new(KMeansConfig::with_k(2)).fit(&data).unwrap();
        assert_eq!(r.assignments[0], r.assignments[1]);
        assert_eq!(r.assignments[2], r.assignments[3]);
        assert_ne!(r.assignments[0], r.assignments[2]);
    }

    /// The pairwise Hamming matrix of 0/1 rows.
    fn hamming_of(data: &Matrix) -> Vec<u64> {
        crate::BitMatrix::pack(data)
            .expect("binary rows")
            .hamming_matrix()
    }

    /// Two planted patterns with one-bit noise, in interleaved order.
    fn noisy_patterns() -> Matrix {
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
        Matrix::from_rows(&rows)
    }

    #[test]
    fn hamming_fit_reproduces_the_feature_space_fit() {
        for data in [
            noisy_patterns(),
            Matrix::from_rows(&[
                vec![1.0, 1.0, 0.0, 0.0, 1.0, 1.0],
                vec![1.0, 1.0, 0.0, 0.0, 1.0, 0.0],
                vec![0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
                vec![0.0, 0.0, 1.0, 1.0, 0.0, 1.0],
            ]),
        ] {
            let h = hamming_of(&data);
            let n = data.n_rows();
            for k in 1..=n {
                for init in [Init::KMeansPlusPlus, Init::Random] {
                    let cfg = KMeansConfig {
                        init,
                        ..KMeansConfig::with_k(k)
                    };
                    let (fo, ho) = (td_obs::Observer::enabled(), td_obs::Observer::enabled());
                    let feature = KMeans::new(cfg).fit_observed(&data, &fo).unwrap();
                    let exact = KMeans::new(cfg).fit_hamming(&h, n, &ho).unwrap();
                    if exact.assignments != feature.assignments {
                        // Only an exact tie between the two winners may
                        // be broken differently (see the next test).
                        assert_eq!(
                            Inertia::of_partition(&h, n, &feature.assignments),
                            exact.inertia,
                            "k = {k}, {init:?}"
                        );
                    } else {
                        assert_eq!(exact.iterations, feature.iterations, "k = {k}, {init:?}");
                    }
                    assert!((exact.inertia.value() - feature.inertia).abs() < 1e-9);
                    assert_eq!(
                        exact.inertia,
                        Inertia::of_partition(&h, n, &exact.assignments)
                    );
                    // The counter sums iterations over every restart, as
                    // the feature-space fit does.
                    assert_eq!(
                        ho.counter_value(td_obs::Counter::KMeansIterations),
                        fo.counter_value(td_obs::Counter::KMeansIterations),
                    );
                }
            }
        }
    }

    #[test]
    fn restarts_tied_in_exact_inertia_go_to_the_earliest() {
        // At k = 3 every restart on these rows ends at inertia exactly 5,
        // in different partitions. Float rounding makes the feature-space
        // fit see some of them as 5.000000000000001 and pick a later
        // restart; the exact fit keeps restart 0.
        let data = noisy_patterns();
        let h = hamming_of(&data);
        let cfg = KMeansConfig {
            init: Init::Random,
            ..KMeansConfig::with_k(3)
        };
        let exact = KMeans::new(cfg)
            .fit_hamming(&h, 8, &td_obs::Observer::disabled())
            .unwrap();
        let feature = KMeans::new(cfg).fit(&data).unwrap();
        assert_eq!(exact.restart, 0);
        assert_eq!(exact.inertia.ratio(), Some((5, 1)));
        assert_ne!(feature.assignments, exact.assignments);
        assert_eq!(
            Inertia::of_partition(&h, 8, &feature.assignments),
            exact.inertia
        );
        let first = KMeans::new(KMeansConfig { n_init: 1, ..cfg })
            .fit(&data)
            .unwrap();
        assert_eq!(first.assignments, exact.assignments);
    }

    #[test]
    fn hamming_fit_breaks_exact_ties_by_lowest_index_and_earliest_restart() {
        // Four identical rows: every centroid is equidistant from every
        // row, so everything stays on the lowest-index clusters, and all
        // restarts tie at zero inertia — the first one wins.
        let data = Matrix::from_rows(&vec![vec![1.0, 0.0, 1.0]; 4]);
        let h = hamming_of(&data);
        let r = KMeans::new(KMeansConfig::with_k(2))
            .fit_hamming(&h, 4, &td_obs::Observer::disabled())
            .unwrap();
        assert_eq!(r.restart, 0);
        assert_eq!(r.inertia.ratio(), Some((0, 1)));
        // Repair moves the first row farthest from its centroid — every
        // row ties at distance 0, so row 0.
        assert_eq!(r.assignments, vec![1, 0, 0, 0]);
    }

    #[test]
    fn hamming_fit_is_exact_on_degenerate_shapes() {
        let data = Matrix::from_rows(&[vec![0.0; 5], vec![0.0; 5], vec![1.0; 5], vec![0.0; 5]]);
        let h = hamming_of(&data);
        let fit = |k| {
            KMeans::new(KMeansConfig::with_k(k)).fit_hamming(&h, 4, &td_obs::Observer::disabled())
        };
        // k = n: every row alone, zero inertia.
        assert_eq!(fit(4).unwrap().inertia.ratio(), Some((0, 1)));
        // k = 2: the all-ones row alone, the three zero rows together.
        let two = fit(2).unwrap();
        assert_eq!(two.inertia.ratio(), Some((0, 1)));
        assert_eq!(two.assignments[0], two.assignments[1]);
        assert_ne!(two.assignments[0], two.assignments[2]);
        // k = 1: the centroid is (1/4, ...): inertia 5 · 3/4 · 1/4 · 4 / ... = 15/4.
        assert_eq!(fit(1).unwrap().inertia.ratio(), Some((15, 4)));
        assert_eq!(fit(0).unwrap_err(), ClusterError::ZeroK);
        assert_eq!(
            fit(5).unwrap_err(),
            ClusterError::TooFewObservations { k: 5, n: 4 }
        );
        assert_eq!(
            KMeans::new(KMeansConfig::with_k(1))
                .fit_hamming(&[], 0, &td_obs::Observer::disabled())
                .unwrap_err(),
            ClusterError::EmptyInput
        );
    }

    #[test]
    fn hamming_fit_does_not_depend_on_the_thread_count() {
        let data = noisy_patterns();
        let h = hamming_of(&data);
        let fit = |threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    KMeans::new(KMeansConfig::with_k(3))
                        .fit_hamming(&h, 8, &td_obs::Observer::disabled())
                        .unwrap()
                })
        };
        assert_eq!(fit(1), fit(4));
    }

    #[test]
    fn inertia_sums_and_compares_exactly() {
        // 1/3 + 1/6 = 1/2 exactly (f64 would round both addends).
        let a = Inertia::sum([(1, 3), (1, 6)]);
        assert_eq!(a.ratio(), Some((1, 2)));
        assert_eq!(a, Inertia::sum([(2, 4)]));
        assert!(Inertia::sum([(1, 3)]) < Inertia::sum([(1_000_000_001, 3_000_000_000)]));
        assert_eq!(a.minus(&Inertia::sum([(1, 3)])), 1.0 / 6.0);
        // Out of u128 range the value degrades to an f64 sum.
        let big = Inertia::sum([(1, u128::MAX), (1, u128::MAX - 1)]);
        assert_eq!(big.ratio(), None);
        assert!(big.value() > 0.0);
        // The wide product behind exact comparison.
        assert_eq!(mul_wide(u128::MAX, u128::MAX), (u128::MAX - 1, 1));
        assert_eq!(mul_wide(1 << 64, 1 << 64), (1, 0));
        assert_eq!(mul_wide(6, 7), (0, 42));
    }
}
