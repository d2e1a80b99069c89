//! Attribute truth vectors — the paper's abstract representation of the
//! truth in the data (§3.1, Eq. 1).
//!
//! For a reference truth `v_F(a, o)` produced by a base algorithm, the
//! truth vector of attribute `a` has one coordinate per `(object,
//! source)` pair:
//!
//! ```text
//! x(a, o, s) = 1  if v(a, o, s) exists and equals v_F(a, o)
//!              0  otherwise
//! ```
//!
//! Two attributes end up with nearby truth vectors exactly when sources
//! perform equally well on them — i.e. when they are structurally
//! correlated — which is what lets plain k-means recover the hidden
//! attribute grouping.

use clustering::{BitMatrix, Matrix, Rows};
use td_algorithms::{TruthDiscovery, TruthResult};
use td_model::DatasetView;

/// The attribute truth vectors of Eq. 1, bit-packed: one `u64`-word row
/// per attribute. Truth vectors are exactly 0/1, so the packed rows are
/// the whole representation — the popcount kernel reads them directly,
/// k-means runs on their exact Hamming matrix, and metrics that need
/// floats densify them on the fly.
#[derive(Debug, Clone)]
pub struct TruthVectors {
    /// The 0/1 rows packed into `u64` words.
    pub packed: BitMatrix,
}

impl TruthVectors {
    /// Wraps an already-packed matrix — the `td-store` load path. The
    /// words are canonical, so the result is bit-identical to the matrix
    /// the scatter pass would have built against the same reference.
    pub fn from_packed(packed: BitMatrix) -> Self {
        Self { packed }
    }

    /// The rows, for representation-aware distance kernels.
    pub fn rows(&self) -> Rows<'_> {
        Rows::Packed(&self.packed)
    }

    /// Appends `extra` all-zero attribute rows. New attributes always
    /// arrive with claims, so the incremental engine rescatters the
    /// appended rows right after via [`rescatter_rows`].
    pub fn append_attribute_rows(&mut self, extra: usize) {
        self.packed.append_zero_rows(extra);
    }

    /// Appends `extra` all-zero `(object, source)` columns. Because the
    /// column index is `object.index() * n_sources + source.index()`,
    /// **new objects** extend the column space purely at the tail (their
    /// block of `n_sources` columns comes after every existing one), so
    /// existing entries keep their coordinates bit-for-bit. New
    /// *sources* shift every object's block and need a full rebuild
    /// instead — the session enforces that distinction.
    pub fn append_pair_cols(&mut self, extra: usize) {
        self.packed.append_cols(extra);
    }
}

/// Rescatters the truth-vector rows of the `dirty` attributes against
/// `reference`, leaving every other row untouched bit-for-bit.
///
/// A dirty row is first cleared to all-zero, then rebuilt by the same
/// claim scatter as [`truth_vector_set_from_result`] — so a rescattered
/// row is *identical* to the row a from-scratch build would produce,
/// which is what lets the incremental session maintain the matrix
/// instead of rebuilding it. Dirty attributes outside the view are
/// ignored.
pub fn rescatter_rows(
    vectors: &mut TruthVectors,
    view: &DatasetView<'_>,
    reference: &TruthResult,
    dirty: &[td_model::AttributeId],
) {
    let dataset = view.dataset();
    let n_sources = dataset.n_sources();
    let mut row_of = vec![usize::MAX; dataset.n_attributes()];
    for (r, a) in view.attributes().iter().enumerate() {
        row_of[a.index()] = r;
    }
    let mut dirty_row = vec![false; view.attributes().len()];
    for a in dirty {
        let row = row_of[a.index()];
        if row == usize::MAX {
            continue;
        }
        dirty_row[row] = true;
        vectors.packed.clear_row(row);
    }
    for cell in view.cells() {
        let row = row_of[cell.attribute.index()];
        if row == usize::MAX || !dirty_row[row] {
            continue;
        }
        let Some(truth) = reference.prediction(cell.object, cell.attribute) else {
            continue;
        };
        for claim in view.cell_claims(cell) {
            if claim.value == truth {
                let col = cell.object.index() * n_sources + claim.source.index();
                vectors.packed.set_bit(row, col, true);
            }
        }
    }
}

/// Runs `base` on `view` and builds the truth-vector matrix: one row per
/// attribute of the view (in `view.attributes()` order), one column per
/// `(object, source)` pair (objects × sources of the parent dataset,
/// lexicographic).
///
/// Returns the matrix and the base run's result (so TD-AC can reuse the
/// reference truth instead of re-running `F`). The reference base run is
/// recorded against `observer` (fixpoint iterations, per-algorithm
/// label); observation never changes the matrix or the reference.
/// [`truth_vector_set`] returns the packed rows the pipeline clusters
/// instead.
pub fn truth_vector_matrix(
    base: &dyn TruthDiscovery,
    view: &DatasetView<'_>,
    observer: &td_obs::Observer,
) -> (Matrix, TruthResult) {
    let reference = base.discover_observed(view, observer);
    let matrix = truth_vectors_from_result(view, &reference);
    (matrix, reference)
}

/// Like [`truth_vector_matrix`] but returns the bit-packed
/// [`TruthVectors`] — what the TD-AC pipeline clusters.
pub fn truth_vector_set(
    base: &dyn TruthDiscovery,
    view: &DatasetView<'_>,
    observer: &td_obs::Observer,
) -> (TruthVectors, TruthResult) {
    let reference = base.discover_observed(view, observer);
    let vectors = truth_vector_set_from_result(view, &reference);
    (vectors, reference)
}

/// Builds the dense truth-vector matrix against an already-computed
/// reference truth (Eq. 1 verbatim; for feature-space clusterers, tests,
/// and oracle variants where the reference is the ground truth). It is
/// the unpacked [`truth_vector_set_from_result`].
pub fn truth_vectors_from_result(view: &DatasetView<'_>, reference: &TruthResult) -> Matrix {
    truth_vector_set_from_result(view, reference)
        .packed
        .to_dense()
}

/// Builds the packed truth vectors against an already-computed reference
/// truth, setting one bit per claim that matches the reference.
pub fn truth_vector_set_from_result(
    view: &DatasetView<'_>,
    reference: &TruthResult,
) -> TruthVectors {
    let dataset = view.dataset();
    let n_objects = dataset.n_objects();
    let n_sources = dataset.n_sources();
    let attrs = view.attributes();
    let n_attrs = attrs.len();

    // Row index per attribute id for O(1) scatter.
    let mut row_of = vec![usize::MAX; dataset.n_attributes()];
    for (r, a) in attrs.iter().enumerate() {
        row_of[a.index()] = r;
    }

    let mut bits = BitMatrix::zeros(n_attrs, n_objects * n_sources);
    for cell in view.cells() {
        let Some(truth) = reference.prediction(cell.object, cell.attribute) else {
            continue;
        };
        let row = row_of[cell.attribute.index()];
        for claim in view.cell_claims(cell) {
            if claim.value == truth {
                let col = cell.object.index() * n_sources + claim.source.index();
                bits.set_bit(row, col, true);
            }
        }
    }
    TruthVectors { packed: bits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_algorithms::MajorityVote;
    use td_model::{Dataset, DatasetBuilder, Value};

    /// The paper's running example (Table 1): objects FB and CS, three
    /// questions, three sources.
    fn running_example() -> Dataset {
        let mut b = DatasetBuilder::new();
        let rows: &[(&str, &str, &str, Value)] = &[
            ("s1", "FB", "Q1", Value::text("Algeria")),
            ("s2", "FB", "Q1", Value::text("Senegal")),
            ("s3", "FB", "Q1", Value::text("Algeria")),
            ("s1", "FB", "Q2", Value::int(2000)),
            ("s2", "FB", "Q2", Value::int(2019)),
            ("s3", "FB", "Q2", Value::int(1994)),
            ("s1", "FB", "Q3", Value::int(12)),
            ("s2", "FB", "Q3", Value::int(11)),
            ("s3", "FB", "Q3", Value::int(12)),
            ("s1", "CS", "Q1", Value::text("Linus Torvalds")),
            ("s2", "CS", "Q1", Value::text("Bill Gates")),
            ("s3", "CS", "Q1", Value::text("Steve Jobs")),
            ("s1", "CS", "Q2", Value::int(1830)),
            ("s2", "CS", "Q2", Value::int(1991)),
            ("s3", "CS", "Q2", Value::int(1991)),
            ("s1", "CS", "Q3", Value::int(7)),
            ("s2", "CS", "Q3", Value::int(8)),
            ("s3", "CS", "Q3", Value::int(10)),
        ];
        for (s, o, a, v) in rows {
            b.claim(s, o, a, v.clone()).unwrap();
        }
        b.build()
    }

    #[test]
    fn matrix_shape_is_attrs_by_object_source_pairs() {
        let d = running_example();
        let (m, _) = truth_vector_matrix(&MajorityVote, &d.view_all(), &td_obs::Observer::disabled());
        assert_eq!(m.n_rows(), 3); // Q1..Q3
        assert_eq!(m.n_cols(), 2 * 3); // 2 objects × 3 sources
    }

    #[test]
    fn entries_match_equation_one_with_majority_reference() {
        let d = running_example();
        let (m, reference) = truth_vector_matrix(&MajorityVote, &d.view_all(), &td_obs::Observer::disabled());
        // Majority on FB-Q1: Algeria (2 votes). s1 and s3 match.
        let fb = d.object_id("FB").unwrap();
        let q1 = d.attribute_id("Q1").unwrap();
        assert_eq!(
            reference.prediction(fb, q1),
            Some(d.value_id(&Value::text("Algeria")).unwrap())
        );
        let n_sources = d.n_sources();
        let s = |name: &str| d.source_id(name).unwrap().index();
        let row_q1 = m.row(q1.index());
        let col = |o: usize, src: usize| o * n_sources + src;
        assert_eq!(row_q1[col(fb.index(), s("s1"))], 1.0);
        assert_eq!(row_q1[col(fb.index(), s("s2"))], 0.0);
        assert_eq!(row_q1[col(fb.index(), s("s3"))], 1.0);
    }

    #[test]
    fn missing_claims_are_zero() {
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o", "a", Value::int(1)).unwrap();
        b.claim("s2", "o", "a", Value::int(1)).unwrap();
        b.source("absent");
        let d = b.build();
        let (m, _) = truth_vector_matrix(&MajorityVote, &d.view_all(), &td_obs::Observer::disabled());
        let absent = d.source_id("absent").unwrap();
        assert_eq!(m.get(0, absent.index()), 0.0, "no claim ⇒ 0 (Eq. 1)");
    }

    #[test]
    fn correlated_attributes_have_identical_rows() {
        // Two attributes answered identically by every source must yield
        // identical truth vectors.
        let mut b = DatasetBuilder::new();
        for o in ["o1", "o2"] {
            for (s, v) in [("s1", 1), ("s2", 1), ("s3", 9)] {
                b.claim(s, o, "a1", Value::int(v)).unwrap();
                b.claim(s, o, "a2", Value::int(v)).unwrap();
            }
        }
        let d = b.build();
        let (m, _) = truth_vector_matrix(&MajorityVote, &d.view_all(), &td_obs::Observer::disabled());
        assert_eq!(m.row(0), m.row(1));
    }

    #[test]
    fn view_restriction_shrinks_rows_not_columns() {
        let d = running_example();
        let q2 = d.attribute_id("Q2").unwrap();
        let (m, _) = truth_vector_matrix(&MajorityVote, &d.view_of(&[q2]), &td_obs::Observer::disabled());
        assert_eq!(m.n_rows(), 1);
        assert_eq!(m.n_cols(), 6);
    }

    #[test]
    fn rescatter_matches_from_scratch_build() {
        // Rescattering against the reference the rows were built from
        // reproduces them; a corrupted row comes back, and the rows of
        // other attributes are never touched.
        let d = running_example();
        let view = d.view_all();
        let (mut tv, reference) =
            truth_vector_set(&MajorityVote, &view, &td_obs::Observer::disabled());

        // Rescattering every attribute against the same reference is a
        // no-op bit-for-bit.
        let all: Vec<_> = d.attribute_ids().collect();
        let before = tv.clone();
        rescatter_rows(&mut tv, &view, &reference, &all);
        assert_eq!(tv.packed, before.packed);

        // Corrupt two rows, then rescatter only one attribute: that row
        // comes back, the other keeps its corruption.
        let (q1, q2) = (d.attribute_id("Q1").unwrap(), d.attribute_id("Q2").unwrap());
        tv.packed.set_bit(q2.index(), 0, true);
        tv.packed.set_bit(q1.index(), 1, true);
        rescatter_rows(&mut tv, &view, &reference, &[q2]);
        assert_eq!(
            tv.packed.row_words(q2.index()),
            before.packed.row_words(q2.index())
        );
        assert!(tv.packed.get_bit(q1.index(), 1));
    }

    #[test]
    fn append_grows_rows_and_pair_columns_with_zeros() {
        let d = running_example();
        let (mut tv, _) =
            truth_vector_set(&MajorityVote, &d.view_all(), &td_obs::Observer::disabled());
        let before = tv.packed.to_dense();
        let (rows, cols) = (before.n_rows(), before.n_cols());
        tv.append_attribute_rows(2);
        tv.append_pair_cols(67); // crosses a word boundary
        let after = tv.packed.to_dense();
        assert_eq!((after.n_rows(), after.n_cols()), (rows + 2, cols + 67));
        for i in 0..after.n_rows() {
            for j in 0..after.n_cols() {
                let want = if i < rows && j < cols {
                    before.get(i, j)
                } else {
                    0.0
                };
                assert_eq!(after.get(i, j), want, "({i}, {j})");
            }
        }
    }

    #[test]
    fn values_are_binary() {
        let d = running_example();
        let (m, _) = truth_vector_matrix(&MajorityVote, &d.view_all(), &td_obs::Observer::disabled());
        for v in m.as_slice() {
            assert!(*v == 0.0 || *v == 1.0);
        }
    }
}
