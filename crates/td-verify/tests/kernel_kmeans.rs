//! Distance-space k-means oracle: TD-AC's k-sweep fit
//! ([`clustering::KMeans::fit_hamming`], Lloyd on the exact Hamming
//! matrix) against the feature-space `KMeans::fit` on the same 0/1
//! rows and seed config — same assignments, same iteration count and
//! same winning restart at every k, unless the oracle proves an exact
//! tie (see `td_verify::hamming_kmeans`).
//!
//! `scripts/verify.sh` runs this file next to the kernel-parity gate.

use clustering::{KMeansConfig, Matrix};
use datagen::{generate_exam, generate_synthetic, ExamConfig, SyntheticConfig};
use proptest::prelude::*;
use td_algorithms::{Accu, MajorityVote, TruthDiscovery, TruthFinder};
use td_model::Dataset;
use td_verify::hamming_kmeans::{check_hamming_fit, check_truth_vector_fits};

fn bases() -> [(&'static str, Box<dyn TruthDiscovery>); 3] {
    [
        ("MajorityVote", Box::new(MajorityVote)),
        ("TruthFinder", Box::new(TruthFinder::default())),
        ("Accu", Box::new(Accu::default())),
    ]
}

fn check_every_base(name: &str, dataset: &Dataset) {
    for (base_name, base) in bases() {
        let sweep = check_truth_vector_fits(base.as_ref(), dataset);
        assert!(sweep.fits > 0, "{name}/{base_name}: empty sweep");
        eprintln!(
            "{name}/{base_name}: {} k values, {} identical, {} proven ties",
            sweep.fits,
            sweep.identical,
            sweep.ties.len()
        );
        for tie in &sweep.ties {
            eprintln!("  {tie}");
        }
    }
}

#[test]
fn synthetic_presets_fit_identically() {
    for (name, config) in [
        ("DS1", SyntheticConfig::ds1()),
        ("DS2", SyntheticConfig::ds2()),
        ("DS3", SyntheticConfig::ds3()),
    ] {
        check_every_base(name, &generate_synthetic(&config).dataset);
    }
}

#[test]
fn exam32_fits_identically() {
    check_every_base("exam32", &generate_exam(&ExamConfig::new(32, 100)).0);
}

#[test]
fn exam62_fits_identically() {
    check_every_base("exam62", &generate_exam(&ExamConfig::new(62, 100)).0);
}

/// Random 0/1 matrices with duplicate and all-zero rows mixed in, at
/// word-boundary widths.
fn arb_rows() -> impl Strategy<Value = Matrix> {
    (
        1usize..11,
        prop_oneof![Just(1usize), Just(63), Just(64), Just(65), 2usize..130],
    )
        .prop_flat_map(|(n, width)| {
            proptest::collection::vec(
                (
                    0u32..4,
                    proptest::collection::vec(any::<bool>(), width..=width),
                    0usize..16,
                ),
                n..=n,
            )
            .prop_map(move |specs| {
                let mut rows: Vec<Vec<f64>> = Vec::new();
                for (kind, bits, src) in specs {
                    let row = match kind {
                        0 => vec![0.0; width],
                        1 if !rows.is_empty() => rows[src % rows.len()].clone(),
                        _ => bits.iter().map(|&b| f64::from(u8::from(b))).collect(),
                    };
                    rows.push(row);
                }
                Matrix::from_rows(&rows)
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_binary_matrices_fit_identically_up_to_proven_ties(
        data in arb_rows(),
        seed in 0u64..1000,
    ) {
        for k in 1..=data.n_rows() {
            check_hamming_fit(&data, KMeansConfig { seed, ..KMeansConfig::with_k(k) });
        }
    }
}
