//! Seeded workload inputs: generated claims, the interning step the
//! program's set-up pays for, and the query and ingest scripts.
//!
//! Everything here is a pure function of the seed. Generation itself
//! is the benchmark's own work and is never timed; interning the
//! generated claims is the program's work and is.

use datagen::{generate_exam, generate_synthetic, ExamConfig, SyntheticConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use td_model::{
    AttributeId, Dataset, DatasetBuilder, GroundTruth, ObjectId, SourceId, Value, ValueId,
};
use td_serve::WireClaim;
use tdac_core::TruthQuery;

/// Untimed batches at the head of every ingest script (warm-up).
pub const WARMUP_BATCHES: usize = 4;
/// Timed batches per ingest script: enough for a p90 with ten samples
/// beyond it from a single script.
pub const TIMED_BATCHES: usize = 100;
/// Sources that claim each fresh cell of an ingest batch (all of them
/// on DS1; a fixed subset on the 248-source Exam shape).
const BATCH_SOURCES: usize = 10;
/// Share of wrong fresh claims that repeat the cell's shared lie (the
/// DS1 generator's `false_unification`).
const FALSE_UNIFICATION: f64 = 0.8;

/// A generated dataset with its ground truth.
pub struct Generated {
    pub dataset: Dataset,
    pub truth: GroundTruth,
    pub shape: Shape,
}

/// The structure the ingest script draws fresh claims from.
pub struct Shape {
    /// Attribute groups that fresh single-group batches cover.
    pub groups: Vec<Vec<AttributeId>>,
    /// `reliability[source][group]`: probability a source states the
    /// truth of a fresh cell.
    pub reliability: Vec<Vec<f64>>,
    /// Size of each attribute's value domain.
    pub domain: i64,
}

/// The paper's Exam shape: 124 questions, 248 students, false range 100.
pub fn exam(seed: u64) -> Generated {
    let config = ExamConfig {
        seed,
        ..ExamConfig::new(124, 100)
    };
    let (dataset, truth) = generate_exam(&config);
    // Fresh single-group batches cover contiguous question blocks.
    let attrs: Vec<AttributeId> = dataset.attribute_ids().collect();
    let groups = attrs
        .chunks(attrs.len().div_ceil(4))
        .map(<[_]>::to_vec)
        .collect();
    let n_sources = dataset.n_sources();
    Generated {
        dataset,
        truth,
        shape: Shape {
            groups,
            reliability: vec![vec![0.7; 4]; n_sources],
            domain: config.false_range,
        },
    }
}

/// The DS1 shape (6 attributes, 10 sources, 4 planted groups) at
/// `n_objects` objects, from the generator seed [`ds1_seed`] picks.
pub fn ds1(seed: u64, n_objects: usize) -> Generated {
    let config = SyntheticConfig {
        seed: ds1_seed(seed),
        ..SyntheticConfig::ds1().scaled(n_objects)
    };
    let generated = generate_synthetic(&config);
    Generated {
        dataset: generated.dataset,
        truth: generated.truth,
        shape: Shape {
            groups: generated.planted.groups,
            reliability: generated.reliability,
            domain: config.domain,
        },
    }
}

/// The generator seed for `--seed`: `seed` itself, or the first of
/// `seed + k * 2^32` (k = 1, 2, ...) whose drawn reliabilities leave
/// reliable sources a majority in every planted group.
///
/// DS1 draws each (source, group) reliability at random; about one seed
/// in four makes most sources of some group agree on the same lie, and
/// no method can recover that group's truth. Such a draw would make
/// accuracy and the selected partition (hence run time) a matter of the
/// seed's luck rather than of the program. The reliabilities are drawn
/// before any claim, so a one-object generation shows them.
pub fn ds1_seed(seed: u64) -> u64 {
    (0..)
        .map(|k: u64| seed.wrapping_add(k << 32))
        .find(|&s| {
            let probe = generate_synthetic(&SyntheticConfig {
                seed: s,
                ..SyntheticConfig::ds1().scaled(1)
            });
            let n_sources = probe.reliability.len();
            (0..probe.planted.groups.len())
                .all(|g| 2 * probe.reliability.iter().filter(|r| r[g] < 0.5).count() < n_sources)
        })
        .expect("some candidate seed draws a recoverable world")
}

/// Interns the generated claims by name, as a loader of named claim
/// rows does. Entities are registered in the generator's id order
/// first, so the interned dataset has the generated dataset's ids.
pub fn intern(generated: &Generated) -> (Dataset, GroundTruth) {
    let d = &generated.dataset;
    let mut b = entity_builder(d);
    for o in 0..d.n_objects() {
        b.object(d.object_name(ObjectId::new(o as u32)));
    }
    for v in 0..d.n_values() {
        b.value(d.value(ValueId::new(v as u32)).clone());
    }
    for c in d.claims() {
        b.claim(
            d.source_name(c.source),
            d.object_name(c.object),
            d.attribute_name(c.attribute),
            d.value(c.value).clone(),
        )
        .expect("generated claims never conflict");
    }
    for (o, a, v) in generated.truth.iter() {
        b.truth(d.object_name(o), d.attribute_name(a), d.value(v).clone());
    }
    b.build_with_truth()
}

/// A builder holding `d`'s sources and attributes (ids as in `d`) and
/// no claims: where the batch path interns fresh claims.
pub fn entity_builder(d: &Dataset) -> DatasetBuilder {
    let mut b = DatasetBuilder::new();
    for s in 0..d.n_sources() {
        b.source(d.source_name(SourceId::new(s as u32)));
    }
    for a in 0..d.n_attributes() {
        b.attribute(d.attribute_name(AttributeId::new(a as u32)));
    }
    b
}

/// One ingest batch with the true value of each fresh cell.
pub struct Batch {
    pub claims: Vec<WireClaim>,
    pub truth: Vec<(String, String, Value)>,
}

/// The fixed ingest script: `WARMUP_BATCHES + TIMED_BATCHES` batches of
/// `objects` fresh objects each. Batches cycle full-width (every
/// attribute dirty), full-width, single attribute group (the other
/// groups' partials stay reusable). Two thirds full-width keeps the
/// median inside one cost mode; an even mix would put it on the edge
/// between the two.
pub fn ingest_script(d: &Dataset, shape: &Shape, objects: usize, seed: u64) -> Vec<Batch> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1A6E_57C0_FFEE);
    let n_sources = d.n_sources().min(BATCH_SOURCES);
    let group_of = |a: AttributeId| {
        shape
            .groups
            .iter()
            .position(|g| g.contains(&a))
            .expect("groups cover every attribute")
    };
    (0..WARMUP_BATCHES + TIMED_BATCHES)
        .map(|bi| {
            let attrs: Vec<AttributeId> = if bi % 3 != 2 {
                d.attribute_ids().collect()
            } else {
                shape.groups[rng.gen_range(0..shape.groups.len())].clone()
            };
            let mut claims = Vec::new();
            let mut truth = Vec::new();
            for j in 0..objects {
                let object = format!("ingest-b{bi}-o{j}");
                for &a in &attrs {
                    let attribute = d.attribute_name(a).to_string();
                    let t = rng.gen_range(1..=shape.domain);
                    for s in 0..n_sources {
                        // As the DS1 generator: unreliable sources mostly
                        // repeat the cell's one shared lie.
                        let r = shape.reliability[s][group_of(a)];
                        let v = if rng.gen::<f64>() < r {
                            t
                        } else if rng.gen::<f64>() < FALSE_UNIFICATION {
                            t % shape.domain + 1
                        } else {
                            (t + rng.gen_range(1..shape.domain) - 1) % shape.domain + 1
                        };
                        claims.push(WireClaim {
                            source: d.source_name(SourceId::new(s as u32)).to_string(),
                            object: object.clone(),
                            attribute: attribute.clone(),
                            value: Value::int(v),
                        });
                    }
                    truth.push((object.clone(), attribute, Value::int(t)));
                }
            }
            Batch { claims, truth }
        })
        .collect()
}

/// A seeded, cycled script of point queries over the base dataset's
/// entities: `Object` queries, and a `Source` query with probability
/// `source_share`.
pub fn query_script(
    dataset: &Dataset,
    seed: u64,
    len: usize,
    source_share: f64,
) -> Vec<TruthQuery> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0BE5_7AC7);
    (0..len)
        .map(|_| {
            if rng.gen::<f64>() < source_share {
                let s = rng.gen_range(0..dataset.n_sources());
                TruthQuery::Source(dataset.source_name(SourceId::new(s as u32)).to_string())
            } else {
                let o = rng.gen_range(0..dataset.n_objects());
                TruthQuery::Object(dataset.object_name(ObjectId::new(o as u32)).to_string())
            }
        })
        .collect()
}

/// Runs `set_up` at least three times, and a quick one up to 60 times
/// paced over two seconds, so a set-up time is a median over moments,
/// not one cold sample.
pub fn repeat_setup<T>(mut set_up: impl FnMut() -> Result<T, String>) -> Result<Vec<T>, String> {
    const SPAN_S: f64 = 2.0;
    const MAX: usize = 60;
    let start = std::time::Instant::now();
    let mut out = Vec::new();
    while out.len() < 3 || (start.elapsed().as_secs_f64() < SPAN_S && out.len() < MAX) {
        out.push(set_up()?);
        let left = SPAN_S * out.len() as f64 / MAX as f64 - start.elapsed().as_secs_f64();
        if left > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(left));
        }
    }
    Ok(out)
}
