//! The batch workloads: `exam_wide` (in memory), `ds1_store` (`.tds`
//! store, in process) and `ds1_sharded` (the same store through
//! `td-shard` worker processes).

use std::path::Path;
use std::time::{Duration, Instant};

use td_algorithms::{algorithm_by_name, TruthDiscovery, TruthResult};
use td_metrics::evaluate_fn;
use td_model::{Dataset, DatasetBuilder, GroundTruth};
use td_obs::{Counter, Observer};
use td_shard::ShardRunner;
use td_store::DatasetStore;
use td_verify::OutcomeFingerprint;
use tdac_core::{
    ExecutionBackend, ModelSelection, Parallelism, ShardPlan, ShardStrategy, Tdac, TdacConfig,
    TdacOutcome, TruthQuery,
};

use crate::inputs::{self, Generated, WARMUP_BATCHES};
use crate::stats::{median, peak_rss_mb, timed, Gate, Report};
use crate::Ctx;

/// Objects in the DS1-shaped store: 2.4M claims.
const DS1_OBJECTS: usize = 40_000;
/// Fresh objects per DS1 ingest batch (one per Exam batch: an Exam
/// object is 124 attributes wide).
pub const DS1_BATCH_OBJECTS: usize = 20;
/// Timed executions per untraced run, at least (more if `--seconds`
/// allows).
const MIN_SAMPLES: usize = 3;
/// Length of the cycled point-query script. Batch point queries are
/// `Object` lookups only: an in-process `Source` lookup costs about a
/// microsecond, so a mix would set the median at a quantile of the
/// `Object` latencies that depends on the mix rather than at their
/// median. (`serve_mixed` sends both kinds over the wire.)
const QUERY_SCRIPT: usize = 4_096;
/// Seconds of point operations per run, in slices between executions:
/// latencies of short operations drift with the machine's load from
/// one moment to the next, and a sample taken in one burst would catch
/// a single moment.
const POINT_SPAN_S: f64 = 10.0;
/// Point queries start at most this often, which bounds the samples a
/// cheap query leaves.
const QUERY_GAP_S: f64 = 20e-6;
/// Spacing of the quick set-up samples inside the slices.
const TICK_S: f64 = 0.1;
/// A set-up quicker than this is sampled inside the slices.
const QUICK_SETUP_S: f64 = 0.05;
/// Worker processes of the sharded workload.
const SHARDS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ExamWide,
    Ds1Store,
    Ds1Sharded,
}

/// An in-process config at a fixed thread budget.
pub fn config(parallelism: Parallelism, observer: Observer) -> TdacConfig {
    TdacConfig {
        backend: ExecutionBackend::in_process(parallelism),
        observer,
        ..TdacConfig::default()
    }
}

/// The sharded config: `SHARDS` workers at `Threads(1)`, by attribute
/// group (Accu refuses `HashByObject`).
fn shard_config(observer: Observer) -> TdacConfig {
    let plan = ShardPlan {
        worker_parallelism: Parallelism::Threads(1),
        ..ShardPlan::new(ShardStrategy::ByAttributeGroup, SHARDS)
    };
    TdacConfig {
        backend: ExecutionBackend::Sharded(plan),
        observer,
        ..TdacConfig::default()
    }
}

/// Share of ground-truth cells the result gets right.
pub fn accuracy(dataset: &Dataset, truth: &GroundTruth, result: &TruthResult) -> f64 {
    evaluate_fn(dataset, truth, |o, a| result.prediction(o, a)).cell_accuracy
}

/// The program's set-up, timed per component.
#[derive(Default)]
struct SetupTimes {
    intern: Vec<f64>,
    pack: Vec<f64>,
    save: Vec<f64>,
    total: Vec<f64>,
}

/// Where a step-by-step execution reads its dataset from.
#[derive(Clone, Copy)]
pub enum Input<'a> {
    Memory(&'a Dataset),
    Store(&'a Path),
}

/// One step-by-step execution, each step timed from outside (seconds).
pub struct Steps {
    load: f64,
    select: f64,
    groups: Vec<f64>,
    group_wall: f64,
    assemble: f64,
    wall: f64,
    k_values: usize,
}

impl Steps {
    /// Share of the execution's wall time the timed steps account for.
    fn coverage(&self) -> f64 {
        (self.load + self.select + self.group_wall + self.assemble) / self.wall
    }
}

/// The in-process pipeline called step by step from outside — model
/// selection, the per-group base runs, the merge — at `nproc` threads.
/// Counters land on `obs`.
pub fn decompose(
    base: &(dyn TruthDiscovery + Sync),
    input: Input<'_>,
    nproc: usize,
    obs: &Observer,
) -> Result<(TdacOutcome, Steps), String> {
    let start = Instant::now();
    let tdac = Tdac::new(config(Parallelism::Threads(nproc), obs.clone()));
    let (store, load) = match input {
        Input::Store(path) => {
            let (store, t) = timed(|| DatasetStore::load_observed(path, obs));
            (Some(store.map_err(|e| format!("store load: {e}"))?), t)
        }
        Input::Memory(_) => (None, 0.0),
    };
    let dataset = match (&store, input) {
        (Some(store), _) => &store.dataset,
        (None, Input::Memory(d)) => d,
        (None, Input::Store(_)) => unreachable!("a store input always loads a store"),
    };
    let (selection, select) = timed(|| match &store {
        Some(store) => tdac.select_model_store(base, store),
        None => tdac.select_model_view(base, &dataset.view_all()),
    });
    let mut steps = Steps {
        load,
        select,
        groups: Vec::new(),
        group_wall: 0.0,
        assemble: 0.0,
        wall: 0.0,
        k_values: 0,
    };
    let model = match selection.map_err(|e| e.to_string())? {
        ModelSelection::Complete(outcome) => {
            steps.k_values = outcome.k_scores.len();
            steps.wall = start.elapsed().as_secs_f64();
            return Ok((outcome, steps));
        }
        ModelSelection::Partitioned(model) => model,
    };
    steps.k_values = model.k_scores.len();
    let groups = model.partition.groups().to_vec();
    // The same static split over the same thread budget as the
    // pipeline's own per-group phase.
    let chunk = groups.len().div_ceil(nproc).max(1);
    let (timed_partials, group_wall) = timed(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = groups
                .chunks(chunk)
                .map(|gs| {
                    s.spawn(move || {
                        gs.iter()
                            .map(|g| timed(|| base.discover_observed(&dataset.view_of(g), obs)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("a per-group base run panicked"))
                .collect::<Vec<_>>()
        })
    });
    let (partials, group_times): (Vec<TruthResult>, Vec<f64>) = timed_partials.into_iter().unzip();
    let (outcome, assemble) = timed(|| model.assemble(&partials, obs));
    steps.groups = group_times;
    steps.group_wall = group_wall;
    steps.assemble = assemble;
    steps.wall = start.elapsed().as_secs_f64();
    Ok((outcome, steps))
}

/// The pipeline layers' per-layer metrics from step-by-step executions
/// (medians) and the counters they left on `counters`.
pub fn report_pipeline(
    steps: &[Steps],
    counters: &Observer,
    reference_s: f64,
    dataset: &Dataset,
    report: &mut Report,
) {
    let med = |f: &dyn Fn(&Steps) -> f64| median(&steps.iter().map(f).collect::<Vec<_>>());
    let med_ms = |f: &dyn Fn(&Steps) -> f64| med(f) * 1e3;
    let count = |c: Counter| counters.counter_value(c) as f64;
    if steps.iter().any(|s| s.load > 0.0) {
        report.metric(
            "td-store.bytes_mapped",
            count(Counter::BytesMapped),
            "count",
        );
        report.metric(
            "td-store.zero_copy_loads",
            count(Counter::ZeroCopyLoads),
            "count",
        );
    }
    report.metric("td-algorithms.reference_ms", reference_s * 1e3, "ms");
    report.metric(
        "td-algorithms.group_runs_ms",
        med_ms(&|s| s.groups.iter().sum()),
        "ms",
    );
    report.metric(
        "td-algorithms.group_run_max_ms",
        med_ms(&|s| s.groups.iter().copied().fold(0.0, f64::max)),
        "ms",
    );
    report.metric(
        "td-algorithms.fixpoint_iterations",
        count(Counter::FixpointIterations),
        "count",
    );
    report.metric("core.select_ms", med_ms(&|s| s.select), "ms");
    report.metric("clustering.k_values", med(&|s| s.k_values as f64), "count");
    report.metric(
        "clustering.kmeans_iterations",
        count(Counter::KMeansIterations),
        "count",
    );
    report.metric(
        "clustering.distance_evals",
        count(Counter::DistanceEvals),
        "count",
    );
    report.metric("core.assemble_ms", med_ms(&|s| s.assemble), "ms");
    let d = dataset;
    report.metric(
        "core.dense_matrix_mb",
        (d.n_attributes() * d.n_objects() * d.n_sources() * 8) as f64 / 1e6,
        "MB-computed",
    );
    report.note(
        "core.dense_matrix_mb",
        "computed as |A|*|O|*|S|*8 B, not measured",
    );
    report.note(
        "trace.steps",
        "load -> select_model_store/view -> per-group discover (parallel, same split) -> assemble",
    );
}

struct Workload<'a> {
    kind: Kind,
    ctx: &'a Ctx,
    base: Box<dyn TruthDiscovery + Send + Sync>,
    /// The generated claims set-up interns.
    generated: Generated,
    /// The first set-up's interned dataset.
    dataset: Dataset,
    store_path: std::path::PathBuf,
}

impl Workload<'_> {
    fn uses_store(&self) -> bool {
        self.kind != Kind::ExamWide
    }

    fn load(&self, obs: &Observer) -> Result<DatasetStore, String> {
        DatasetStore::load_observed(&self.store_path, obs).map_err(|e| format!("store load: {e}"))
    }

    /// One untraced execution: the workload's end-to-end operation.
    fn execute(&self) -> Result<TdacOutcome, String> {
        let threads = Parallelism::Threads(self.ctx.nproc);
        let tdac = Tdac::new(config(threads, Observer::disabled()));
        match self.kind {
            Kind::ExamWide => tdac
                .run(&*self.base, &self.dataset)
                .map_err(|e| e.to_string()),
            Kind::Ds1Store => {
                let store = self.load(&Observer::disabled())?;
                tdac.run_store(&*self.base, &store)
                    .map_err(|e| e.to_string())
            }
            Kind::Ds1Sharded => {
                let store = self.load(&Observer::disabled())?;
                self.run_sharded(&store, Observer::disabled())
            }
        }
    }

    /// `ShardRunner::run_store`, with the coordinator's own model
    /// selection pinned to the in-process budget.
    fn run_sharded(&self, store: &DatasetStore, obs: Observer) -> Result<TdacOutcome, String> {
        let runner = ShardRunner::new(shard_config(obs)).map_err(|e| e.to_string())?;
        Parallelism::Threads(self.ctx.nproc)
            .install(|| runner.run_store(self.base.name(), store))
            .map_err(|e| e.to_string())
    }
}

/// Runs one batch workload and fills `report`.
pub fn run(kind: Kind, ctx: &Ctx, report: &mut Report, gate: &mut Gate) -> Result<(), String> {
    let generated = match kind {
        Kind::ExamWide => inputs::exam(ctx.seed),
        Kind::Ds1Store | Kind::Ds1Sharded => inputs::ds1(ctx.seed, DS1_OBJECTS),
    };
    let algorithm = if kind == Kind::ExamWide {
        "truthfinder"
    } else {
        "accu"
    };
    let base = algorithm_by_name(algorithm).expect("registered algorithm");
    let store_path = ctx.work_dir.join("ds1.tds");

    let d = &generated.dataset;
    report.note("algorithm", algorithm);
    if kind != Kind::ExamWide {
        report.note("generator_seed", inputs::ds1_seed(ctx.seed));
    }
    report.note("nproc", ctx.nproc);
    report.note(
        "threads",
        match kind {
            Kind::Ds1Sharded => format!(
                "coordinator Threads({}), {SHARDS} workers at Threads(1), ByAttributeGroup",
                ctx.nproc
            ),
            _ => format!("Threads({})", ctx.nproc),
        },
    );
    report.note(
        "input",
        format!(
            "claims={} |A|={} |O|={} |S|={}",
            d.n_claims(),
            d.n_attributes(),
            d.n_objects(),
            d.n_sources()
        ),
    );
    let mut w = Workload {
        kind,
        ctx,
        base,
        dataset: DatasetBuilder::new().build(), // replaced by the first set-up
        generated,
        store_path,
    };
    let mut setup = SetupTimes::default();
    w.dataset = set_up_once(&w, &mut setup)?;
    if ctx.trace {
        inputs::repeat_setup(|| set_up_once(&w, &mut setup).map(drop))?;
    }

    // One untimed warm-up; its outcome is the reference every later
    // execution must reproduce bit for bit.
    let (warm, warm_s) = timed(|| w.execute());
    let warm = warm?;
    let reference = OutcomeFingerprint::of(&warm);
    gate.check(true, String::new);

    if ctx.trace {
        drop(warm);
        traced(&w, &reference, &setup, report, gate)
    } else {
        untraced(&w, &warm, warm_s, setup, report, gate)
    }
}

/// One set-up: intern, and for the store workloads pack and save.
fn set_up_once(w: &Workload<'_>, times: &mut SetupTimes) -> Result<Dataset, String> {
    let ((dataset, _), intern) = timed(|| inputs::intern(&w.generated));
    let (mut pack, mut save) = (0.0, 0.0);
    if w.uses_store() {
        let tdac = Tdac::new(config(
            Parallelism::Threads(w.ctx.nproc),
            Observer::disabled(),
        ));
        let (store, t) = timed(|| tdac.pack(&*w.base, &dataset));
        pack = t;
        let (saved, t) = timed(|| store.save(&w.store_path));
        saved.map_err(|e| format!("store save: {e}"))?;
        save = t;
    }
    times.intern.push(intern);
    times.pack.push(pack);
    times.save.push(save);
    times.total.push(intern + pack + save);
    Ok(dataset)
}

fn untraced(
    w: &Workload<'_>,
    warm: &TdacOutcome,
    warm_s: f64,
    mut setup: SetupTimes,
    report: &mut Report,
    gate: &mut Gate,
) -> Result<(), String> {
    let reference = OutcomeFingerprint::of(warm);
    // Executions and point-operation slices take turns, so each kind of
    // sample is spread over the whole run. A quick set-up is sampled
    // every `TICK_S` inside the slices; a slow one runs between
    // executions until there are three samples.
    let quick_setup = setup.total[0] < QUICK_SETUP_S;
    let iterations = MIN_SAMPLES.max((w.ctx.seconds as f64 / warm_s).ceil() as usize);
    let mut ops = PointOps::new(w, iterations + 1);
    let mut samples = Vec::new();
    for i in 0..=iterations {
        if i > 0 {
            let (outcome, t) = timed(|| w.execute());
            let fp = OutcomeFingerprint::of(&outcome?);
            gate.check(fp == reference, || {
                format!(
                    "execution {i} differs from the first: {:?}",
                    fp.diff(&reference)
                )
            });
            samples.push(t);
        }
        if quick_setup {
            ops.slice(w, warm, gate, &mut || set_up_once(w, &mut setup).map(drop))?;
        } else {
            ops.slice(w, warm, gate, &mut || Ok(()))?;
            if i > 0 && setup.total.len() < 3 {
                set_up_once(w, &mut setup)?;
            }
        }
    }

    if w.kind == Kind::Ds1Sharded {
        // The sharded outcome must equal the in-process one.
        let store = w.load(&Observer::disabled())?;
        let tdac = Tdac::new(config(
            Parallelism::Threads(w.ctx.nproc),
            Observer::disabled(),
        ));
        let inproc = tdac
            .run_store(&*w.base, &store)
            .map_err(|e| e.to_string())?;
        let fp = OutcomeFingerprint::of(&inproc);
        gate.check(fp == reference, || {
            format!(
                "sharded outcome differs from in-process run_store: {:?}",
                fp.diff(&reference)
            )
        });
    }

    report.metric("run_s", median(&samples), "s");
    report.note("run_s.samples", samples.len());
    report.metric("setup_s", median(&setup.total), "s");
    report.note("setup_s.samples", setup.total.len());
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric(
        "accuracy",
        accuracy(&w.dataset, &w.generated.truth, &warm.result),
        "fraction",
    );
    report.metric("ok_frac", gate.ok_frac(), "fraction");
    report.percentile("query_p50_ms", &ops.queries_ms, 0.50, "ms")?;
    report.percentile("query_p99_ms", &ops.queries_ms, 0.99, "ms")?;
    report.percentile("ingest_p50_ms", &ops.ingests_ms, 0.50, "ms")?;
    report.percentile("ingest_p90_ms", &ops.ingests_ms, 0.90, "ms")?;
    report.note(
        "query_ms",
        "in-process TruthQuery::answer on the batch outcome (Object point queries)",
    );
    report.note(
        "ingest_ms",
        "in-process DatasetBuilder::claim of each script batch of fresh objects (append-only, conflict-checked; no re-run)",
    );
    Ok(())
}

/// The typed query and ingest surfaces on a batch result, in process:
/// point queries answered against the outcome, and the ingest script's
/// batches interned by the model layer. Run in slices between
/// executions; latencies in ms.
struct PointOps {
    queries: Vec<TruthQuery>,
    script: Vec<inputs::Batch>,
    builder: DatasetBuilder,
    held: usize,
    next_query: usize,
    next_batch: usize,
    batches_per_slice: usize,
    slice_s: f64,
    queries_ms: Vec<f64>,
    ingests_ms: Vec<f64>,
}

impl PointOps {
    fn new(w: &Workload<'_>, slices: usize) -> Self {
        let d = &w.dataset;
        let objects = if w.kind == Kind::ExamWide {
            1
        } else {
            DS1_BATCH_OBJECTS
        };
        let script = inputs::ingest_script(d, &w.generated.shape, objects, w.ctx.seed);
        PointOps {
            queries: inputs::query_script(d, w.ctx.seed, QUERY_SCRIPT, 0.0),
            batches_per_slice: script.len().div_ceil(slices),
            script,
            builder: inputs::entity_builder(d),
            held: 0,
            next_query: 0,
            next_batch: 0,
            slice_s: POINT_SPAN_S / slices as f64,
            queries_ms: Vec::new(),
            ingests_ms: Vec::new(),
        }
    }

    /// One slice: this slice's share of the ingest batches and a `tick`
    /// every `TICK_S`, each evenly spaced, with point queries back to
    /// back in between.
    fn slice(
        &mut self,
        w: &Workload<'_>,
        outcome: &TdacOutcome,
        gate: &mut Gate,
        tick: &mut dyn FnMut() -> Result<(), String>,
    ) -> Result<(), String> {
        let start = Instant::now();
        let batches = self
            .batches_per_slice
            .min(self.script.len() - self.next_batch);
        let (mut ingested, mut ticks, mut queried) = (0, 0, 0);
        loop {
            let t = start.elapsed().as_secs_f64();
            if t >= self.slice_s && ingested == batches {
                return Ok(());
            }
            if ingested < batches && t >= self.slice_s * ingested as f64 / batches as f64 {
                self.ingest(gate);
                ingested += 1;
            } else if t >= TICK_S * ticks as f64 {
                tick()?;
                ticks += 1;
            } else if t >= QUERY_GAP_S * queried as f64 {
                self.query(&w.dataset, outcome, gate);
                queried += 1;
            } else {
                std::hint::spin_loop();
            }
        }
    }

    fn query(&mut self, d: &Dataset, outcome: &TdacOutcome, gate: &mut Gate) {
        let q = &self.queries[self.next_query % self.queries.len()];
        self.next_query += 1;
        let (resp, t) = timed(|| q.answer(d, outcome));
        let ok = match (q, &resp) {
            (TruthQuery::Object(_), Ok(r)) => !r.predictions.is_empty(),
            (TruthQuery::Source(_), Ok(r)) => r.sources.len() == 1,
            _ => false,
        };
        gate.check(ok, || format!("query {q:?} answered {resp:?}"));
        self.queries_ms.push(t * 1e3);
    }

    fn ingest(&mut self, gate: &mut Gate) {
        let i = self.next_batch;
        self.next_batch += 1;
        let batch = &self.script[i];
        let builder = &mut self.builder;
        let (appended, t) = timed(|| {
            batch.claims.iter().try_for_each(|c| {
                builder.claim(&c.source, &c.object, &c.attribute, c.value.clone())
            })
        });
        self.held += batch.claims.len();
        let ok = appended.is_ok() && builder.n_claims() == self.held;
        gate.check(ok, || {
            format!(
                "ingest batch {i}: {appended:?}, {} claims held",
                builder.n_claims()
            )
        });
        if i >= WARMUP_BATCHES {
            self.ingests_ms.push(t * 1e3);
        }
    }
}

fn traced(
    w: &Workload<'_>,
    reference: &OutcomeFingerprint,
    setup: &SetupTimes,
    report: &mut Report,
    gate: &mut Gate,
) -> Result<(), String> {
    let budget = Duration::from_secs(w.ctx.seconds);
    let start = Instant::now();
    let (mut untraced, mut traced_walls, mut coverage) = (Vec::new(), Vec::new(), Vec::new());
    let mut steps_seen = Vec::new();
    let (mut shard_runs, mut inproc_runs) = (Vec::new(), Vec::new());
    let mut counters = Observer::disabled();
    let mut shard_obs = Observer::disabled();
    let input = if w.uses_store() {
        Input::Store(&w.store_path)
    } else {
        Input::Memory(&w.dataset)
    };
    while untraced.is_empty() || start.elapsed() < budget {
        let (outcome, t) = timed(|| w.execute());
        outcome?;
        untraced.push(t);

        let obs = Observer::enabled();
        let (decomposed, steps) = decompose(&*w.base, input, w.ctx.nproc, &obs)?;
        let fp = OutcomeFingerprint::of(&decomposed);
        gate.check(fp == *reference, || {
            format!(
                "step-by-step pipeline differs from the workload's outcome: {:?}",
                fp.diff(reference)
            )
        });
        if w.kind == Kind::Ds1Sharded {
            // The sharded operation itself, traced, and in-process
            // run_store on the same store at the same budget.
            let sobs = Observer::enabled();
            let wall_start = Instant::now();
            let (store, load) = timed(|| w.load(&sobs));
            let store = store?;
            let (outcome, run) = timed(|| w.run_sharded(&store, sobs.clone()));
            let wall = wall_start.elapsed().as_secs_f64();
            let fp = OutcomeFingerprint::of(&outcome?);
            gate.check(fp == *reference, || {
                format!("traced sharded run differs: {:?}", fp.diff(reference))
            });
            shard_runs.push(run);
            traced_walls.push(wall);
            coverage.push((load + run) / wall);
            let tdac = Tdac::new(config(
                Parallelism::Threads(w.ctx.nproc),
                Observer::disabled(),
            ));
            let (inproc, t) = timed(|| tdac.run_store(&*w.base, &store));
            inproc.map_err(|e| e.to_string())?;
            inproc_runs.push(t);
            shard_obs = sobs;
        } else {
            traced_walls.push(steps.wall);
            coverage.push(steps.coverage());
        }
        steps_seen.push(steps);
        counters = obs;
    }

    let (_, reference_s) = timed(|| w.base.discover(&w.dataset.view_all()));
    let file_mb = std::fs::metadata(&w.store_path).map_or(0.0, |m| m.len() as f64 / 1e6);
    report.metric("td-model.intern_ms", median(&setup.intern) * 1e3, "ms");
    if w.uses_store() {
        let loads: Vec<f64> = steps_seen.iter().map(|s| s.load).collect();
        report.metric("td-store.load_ms", median(&loads) * 1e3, "ms");
        report.metric("td-store.save_ms", median(&setup.save) * 1e3, "ms");
        report.metric("td-store.file_mb", file_mb, "MB");
        report.metric("core.pack_ms", median(&setup.pack) * 1e3, "ms");
    }
    report_pipeline(&steps_seen, &counters, reference_s, &w.dataset, report);
    if w.kind == Kind::Ds1Sharded {
        let run = median(&shard_runs);
        let count = |c: Counter| shard_obs.counter_value(c) as f64;
        report.metric("td-shard.run_ms", run * 1e3, "ms");
        report.metric(
            "td-shard.overhead_ms",
            (run - median(&inproc_runs)) * 1e3,
            "ms",
        );
        report.metric(
            "td-shard.shards_spawned",
            count(Counter::ShardsSpawned),
            "count",
        );
        report.metric("td-shard.partials", count(Counter::ShardPartials), "count");
        report.metric("td-shard.retries", count(Counter::ShardRetries), "count");
    }
    report.metric("trace.coverage_frac", median(&coverage), "fraction");
    report.metric(
        "trace.overhead_frac",
        median(&traced_walls) / median(&untraced) - 1.0,
        "fraction",
    );
    report.note("trace.samples", untraced.len());
    Ok(())
}
