//! The `serve_mixed` workload: `td-serve` on loopback, one connection
//! sending point queries back to back while another sends the ingest
//! script, both closed-loop.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use td_algorithms::algorithm_by_name;
use td_model::GroundTruth;
use td_obs::Observer;
use td_serve::{claims_to_batch, Client, ResponseBody, ServeConfig, Server, WireErrorKind};
use td_store::DatasetStore;
use td_verify::OutcomeFingerprint;
use tdac_core::{Parallelism, QueryResponse, RepartitionPolicy, Tdac, TdacSession, TruthQuery};

use crate::batch::{self, Input};
use crate::inputs::{self, Batch, Generated, WARMUP_BATCHES};
use crate::stats::{median, peak_rss_mb, percentile, timed, Gate, Report};
use crate::Ctx;

/// Objects in the served DS1-shaped store.
const SERVE_OBJECTS: usize = 5_000;
/// Server worker threads, and client connections.
const CONNECTIONS: usize = 2;
/// `tdc serve`'s default session budget.
const SESSION_THREADS: usize = 1;
const POLICY: RepartitionPolicy = RepartitionPolicy::OnDrift(0.05);
const ALGORITHM: &str = "majorityvote";
/// Served rounds per untraced run, at least: each round starts a fresh
/// server, so thread placement and allocator state are drawn anew and
/// the medians pool over several draws.
const MIN_ROUNDS: usize = 4;
/// Batches of the untimed warm-up round.
const WARMUP_ROUND_BATCHES: usize = 30;
/// Share of `Source` queries in the query connection's script (the
/// rest are `Object` queries).
const SOURCE_SHARE: f64 = 0.25;
/// Length of the cycled query script.
const QUERY_SCRIPT: usize = 4_096;
/// In-process answers timed for `core.query.answer_us`.
const ANSWERS: usize = 2_000;

/// One set-up's component times, in seconds.
#[derive(Default, Clone, Copy)]
struct SetupTimes {
    intern: f64,
    pack: f64,
    save: f64,
    load: f64,
    start: f64,
    bind: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.intern + self.pack + self.save + self.load + self.start + self.bind
    }
}

/// What one served round measured.
struct Round {
    script_s: f64,
    queries_ms: Vec<f64>,
    ingests_ms: Vec<f64>,
    rejected: u64,
    final_all: Option<QueryResponse>,
}

fn session_config(obs: Observer) -> tdac_core::TdacConfig {
    batch::config(Parallelism::Threads(SESSION_THREADS), obs)
}

fn boxed_base() -> td_serve::BoxedBase {
    algorithm_by_name(ALGORITHM).expect("registered algorithm")
}

/// The program's set-up: intern, pack, save, load, start the session
/// from the store, bind the server.
fn set_up(
    generated: &Generated,
    path: &Path,
    obs: &Observer,
) -> Result<(Server, SetupTimes), String> {
    let mut t = SetupTimes::default();
    let ((dataset, _truth), s) = timed(|| inputs::intern(generated));
    t.intern = s;
    let tdac = Tdac::new(session_config(Observer::disabled()));
    let (store, s) = timed(|| tdac.pack(&*boxed_base(), &dataset));
    t.pack = s;
    let (saved, s) = timed(|| store.save(path));
    saved.map_err(|e| format!("store save: {e}"))?;
    t.save = s;
    drop(store);
    let (store, s) = timed(|| DatasetStore::load(path));
    let store = store.map_err(|e| format!("store load: {e}"))?;
    t.load = s;
    let (session, s) = timed(|| {
        TdacSession::start_store(boxed_base(), session_config(obs.clone()), POLICY, &store)
    });
    let session = session.map_err(|e| format!("session start: {e}"))?;
    t.start = s;
    drop(store);
    let config = ServeConfig {
        max_inflight: 64,
        workers: CONNECTIONS,
        default_deadline_ms: None,
    };
    let (server, s) = timed(|| Server::bind("127.0.0.1:0", session, config));
    let server = server.map_err(|e| format!("bind: {e}"))?;
    t.bind = s;
    Ok((server, t))
}

/// Whether two answers agree bit for bit on every prediction and trust.
fn same_answer(a: &QueryResponse, b: &QueryResponse) -> bool {
    a.predictions.len() == b.predictions.len()
        && a.sources.len() == b.sources.len()
        && a.predictions.iter().zip(&b.predictions).all(|(x, y)| {
            x.object == y.object
                && x.attribute == y.attribute
                && x.value == y.value
                && x.confidence.to_bits() == y.confidence.to_bits()
        })
        && a.sources
            .iter()
            .zip(&b.sources)
            .all(|(x, y)| x.source == y.source && x.trust.to_bits() == y.trust.to_bits())
}

/// Drives the script against a bound server: the ingest connection on
/// this thread, the query connection on another. Latencies are kept
/// from the first timed batch on.
fn drive(
    server: &Server,
    script: &[Batch],
    queries: &[TruthQuery],
    n_attributes: usize,
    gate: &mut Gate,
) -> Result<Round, String> {
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);
    let timing = AtomicBool::new(false);
    let mut ingest_client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut query_client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    std::thread::scope(|s| {
        let query_thread = s.spawn(|| {
            let mut local = Gate::default();
            let (mut lat, mut rejected) = (Vec::new(), 0u64);
            let mut i = 0;
            while !stop.load(Ordering::Acquire) {
                let q = &queries[i % queries.len()];
                i += 1;
                let measured = timing.load(Ordering::Acquire);
                let (resp, t) = timed(|| query_client.query(q.clone(), None));
                let ok = match resp.as_ref().map(|r| &r.body) {
                    Ok(ResponseBody::Query(r)) => match q {
                        TruthQuery::Object(_) => r.predictions.len() == n_attributes,
                        _ => r.sources.len() == 1,
                    },
                    Ok(ResponseBody::Error(e)) => {
                        if matches!(
                            e.kind,
                            WireErrorKind::Overloaded | WireErrorKind::DeadlineExceeded
                        ) {
                            rejected += 1;
                        }
                        false
                    }
                    _ => false,
                };
                local.check(ok, || {
                    format!("query {q:?} answered {:?}", resp.map(|r| r.body))
                });
                if measured {
                    lat.push(t * 1e3);
                }
            }
            (lat, rejected, local)
        });

        let mut ingests_ms = Vec::new();
        let mut rejected = 0;
        let mut script_start = Instant::now();
        for (i, batch) in script.iter().enumerate() {
            if i == WARMUP_BATCHES {
                timing.store(true, Ordering::Release);
                script_start = Instant::now();
            }
            let (resp, t) = timed(|| ingest_client.ingest(batch.claims.clone(), None));
            let ok = match resp.as_ref() {
                Ok(r) => match &r.body {
                    ResponseBody::Ingest(ack) => {
                        r.generation == i as u64 + 1
                            && ack.appended_claims == batch.claims.len()
                            && ack.degradation.is_none()
                    }
                    ResponseBody::Error(e) => {
                        if matches!(
                            e.kind,
                            WireErrorKind::Overloaded | WireErrorKind::DeadlineExceeded
                        ) {
                            rejected += 1;
                        }
                        false
                    }
                    _ => false,
                },
                Err(_) => false,
            };
            gate.check(ok, || {
                format!("ingest batch {i} answered {:?}", resp.map(|r| r.body))
            });
            if i >= WARMUP_BATCHES {
                ingests_ms.push(t * 1e3);
            }
        }
        let script_s = script_start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        let (queries_ms, q_rejected, local) = query_thread
            .join()
            .expect("query connection thread panicked");
        gate.attempted += local.attempted;
        gate.failed += local.failed;
        gate.mismatches.extend(local.mismatches);

        let final_all = match ingest_client.query(TruthQuery::All, None).map(|r| r.body) {
            Ok(ResponseBody::Query(r)) => Some(r),
            _ => None,
        };
        Ok(Round {
            script_s,
            queries_ms,
            ingests_ms,
            rejected: rejected + q_rejected,
            final_all,
        })
    })
}

/// The in-process twin: the same store, config and script, no wire.
struct Twin {
    ingests_ms: Vec<f64>,
    reused: usize,
    total: usize,
    dirty: usize,
    repartitions: usize,
    final_all: QueryResponse,
    answer_us: Vec<f64>,
    accuracy: f64,
}

fn twin(
    path: &Path,
    script: &[Batch],
    queries: &[TruthQuery],
    truth: &GroundTruth,
) -> Result<Twin, String> {
    let store = DatasetStore::load(path).map_err(|e| format!("store load: {e}"))?;
    let mut session = TdacSession::start_store(
        boxed_base(),
        session_config(Observer::disabled()),
        POLICY,
        &store,
    )
    .map_err(|e| format!("twin session start: {e}"))?;
    drop(store);
    let mut out = Twin {
        ingests_ms: Vec::new(),
        reused: 0,
        total: 0,
        dirty: 0,
        repartitions: 0,
        final_all: QueryResponse::default(),
        answer_us: Vec::new(),
        accuracy: 0.0,
    };
    for (i, batch) in script.iter().enumerate() {
        let claims = claims_to_batch(&batch.claims);
        let (report, t) = timed(|| session.ingest(&claims));
        let report = report.map_err(|e| format!("twin ingest {i}: {e}"))?;
        if i >= WARMUP_BATCHES {
            out.ingests_ms.push(t * 1e3);
            out.reused += report.groups_reused;
            out.total += report.groups_total;
            out.dirty += report.dirty_attributes.len();
            out.repartitions += usize::from(report.repartitioned);
        }
    }
    let (d, outcome) = (session.dataset(), session.outcome());
    out.final_all = TruthQuery::All
        .answer(d, outcome)
        .map_err(|e| format!("twin answer: {e}"))?;
    for q in queries.iter().cycle().take(ANSWERS) {
        let (resp, t) = timed(|| q.answer(d, outcome));
        resp.map_err(|e| format!("twin answer: {e}"))?;
        out.answer_us.push(t * 1e6);
    }
    // Ground truth of the final dataset: the base cells plus every
    // fresh cell the script added.
    let mut final_truth = GroundTruth::new();
    for (o, a, v) in truth.iter() {
        final_truth.set(o, a, v);
    }
    for (object, attribute, value) in script.iter().flat_map(|b| &b.truth) {
        if let (Some(o), Some(a), Some(v)) = (
            d.object_id(object),
            d.attribute_id(attribute),
            d.value_id(value),
        ) {
            final_truth.set(o, a, v);
        }
    }
    out.accuracy = batch::accuracy(d, &final_truth, &outcome.result);
    Ok(out)
}

/// Runs `serve_mixed` and fills `report`. With `layers_only` (a traced
/// run only), reports just the session and serving layers, under
/// `serving.`-prefixed notes: the serving tail another workload's
/// traced run carries.
pub fn run(
    ctx: &Ctx,
    report: &mut Report,
    gate: &mut Gate,
    layers_only: bool,
) -> Result<(), String> {
    let prefix = if layers_only { "serving." } else { "" };
    let note = |report: &mut Report, key: &str, value: String| {
        report.note(&format!("{prefix}{key}"), value)
    };
    let generated = inputs::ds1(ctx.seed, SERVE_OBJECTS);
    let script = inputs::ingest_script(
        &generated.dataset,
        &generated.shape,
        batch::DS1_BATCH_OBJECTS,
        ctx.seed,
    );
    let queries = inputs::query_script(&generated.dataset, ctx.seed, QUERY_SCRIPT, SOURCE_SHARE);
    let path = ctx.work_dir.join("serve.tds");
    let n_attributes = generated.dataset.n_attributes();
    note(report, "algorithm", ALGORITHM.to_string());
    note(
        report,
        "generator_seed",
        inputs::ds1_seed(ctx.seed).to_string(),
    );
    note(report, "nproc", ctx.nproc.to_string());
    note(
        report,
        "threads",
        format!("session Threads({SESSION_THREADS}), {CONNECTIONS} server workers, {CONNECTIONS} closed-loop connections (1 query, 1 ingest)"),
    );
    let d = &generated.dataset;
    note(
        report,
        "input",
        format!(
            "claims={} |A|={} |O|={} |S|={}; script: {} warm-up + {} timed batches of {} objects",
            d.n_claims(),
            d.n_attributes(),
            d.n_objects(),
            d.n_sources(),
            WARMUP_BATCHES,
            script.len() - WARMUP_BATCHES,
            batch::DS1_BATCH_OBJECTS
        ),
    );

    // Untraced: after a warm-up, served rounds until the time is used
    // (at least `MIN_ROUNDS`), each on a fresh server set up from
    // scratch; traced: one untraced and one traced round, for the
    // tracing overhead.
    let mut setups = Vec::new();
    {
        // One untimed warm-up round over a prefix of the script.
        let (mut server, times) = set_up(&generated, &path, &Observer::disabled())?;
        setups.push(times);
        let round = drive(
            &server,
            &script[..WARMUP_ROUND_BATCHES],
            &queries,
            n_attributes,
            gate,
        );
        server.shutdown();
        round?;
    }
    let budget = Duration::from_secs(ctx.seconds);
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let traced = ctx.trace && rounds.len() == 1;
        let obs = if traced {
            Observer::enabled()
        } else {
            Observer::disabled()
        };
        let (mut server, times) = set_up(&generated, &path, &obs)?;
        setups.push(times);
        let round = drive(&server, &script, &queries, n_attributes, gate);
        server.shutdown();
        rounds.push(round?);
        let done = if ctx.trace {
            rounds.len() == 2
        } else {
            rounds.len() >= MIN_ROUNDS && start.elapsed() >= budget
        };
        if done {
            break;
        }
    }
    // More set-ups, without serving, so `setup_s` is a median.
    setups.extend(inputs::repeat_setup(|| {
        let (mut server, times) = set_up(&generated, &path, &Observer::disabled())?;
        server.shutdown();
        Ok(times)
    })?);

    let twin = twin(&path, &script, &queries, &generated.truth)?;
    for (i, round) in rounds.iter().enumerate() {
        let ok = round
            .final_all
            .as_ref()
            .is_some_and(|a| same_answer(a, &twin.final_all));
        gate.check(ok, || {
            format!("round {i}: final wire TruthQuery::All differs from the in-process twin")
        });
    }

    if ctx.trace {
        let (untraced, traced) = (&rounds[0], &rounds[1]);
        let setup_med =
            |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>()) * 1e3;
        if !layers_only {
            report.metric("td-model.intern_ms", setup_med(|s| s.intern), "ms");
            report.metric("td-store.save_ms", setup_med(|s| s.save), "ms");
            report.metric(
                "td-store.file_mb",
                std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64 / 1e6),
                "MB",
            );
            report.metric("core.pack_ms", setup_med(|s| s.pack), "ms");
            report.metric("td-store.load_ms", setup_med(|s| s.load), "ms");

            // The batch layers on the served store, step by step.
            let base = boxed_base();
            let obs = Observer::enabled();
            let (outcome, steps) =
                batch::decompose(&*base, Input::Store(&path), SESSION_THREADS, &obs)?;
            let store = DatasetStore::load(&path).map_err(|e| format!("store load: {e}"))?;
            let whole = Tdac::new(session_config(Observer::disabled()))
                .run_store(&*base, &store)
                .map_err(|e| e.to_string())?;
            let (fp, want) = (
                OutcomeFingerprint::of(&outcome),
                OutcomeFingerprint::of(&whole),
            );
            gate.check(fp == want, || {
                format!(
                    "step-by-step pipeline differs from run_store: {:?}",
                    fp.diff(&want)
                )
            });
            let (_, reference_t) = timed(|| base.discover(&store.dataset.view_all()));
            batch::report_pipeline(&[steps], &obs, reference_t, &store.dataset, report);

            let sum_twin: f64 = twin.ingests_ms.iter().sum::<f64>() / 1e3;
            report.metric(
                "trace.coverage_frac",
                sum_twin / traced.script_s,
                "fraction",
            );
            report.metric(
                "trace.overhead_frac",
                traced.script_s / untraced.script_s - 1.0,
                "fraction",
            );
            report.note(
                "trace.coverage_frac",
                "sum of in-process twin ingests / traced wire script time",
            );
        }

        let answer = median(&twin.answer_us);
        let twin_ingest = median(&twin.ingests_ms);
        let n = twin.ingests_ms.len() as f64;
        report.metric("core.session.start_ms", setup_med(|s| s.start), "ms");
        report.metric("td-serve.bind_ms", setup_med(|s| s.bind), "ms");
        report.metric("core.session.ingest_ms", twin_ingest, "ms");
        report.metric(
            "core.session.groups_reused_frac",
            twin.reused as f64 / twin.total.max(1) as f64,
            "fraction",
        );
        note(
            report,
            "core.session.groups_reused_frac.base",
            format!("{} of {} groups", twin.reused, twin.total),
        );
        report.metric("core.session.dirty_attrs", twin.dirty as f64 / n, "count");
        note(
            report,
            "core.session.dirty_attrs",
            "mean per timed ingest".to_string(),
        );
        report.metric(
            "core.session.repartitions",
            twin.repartitions as f64,
            "count",
        );
        report.metric("core.query.answer_us", answer, "us");
        report.metric(
            "td-serve.query_overhead_us",
            median(&traced.queries_ms) * 1e3 - answer,
            "us",
        );
        report.metric(
            "td-serve.ingest_overhead_ms",
            median(&traced.ingests_ms) - twin_ingest,
            "ms",
        );
        report.metric("td-serve.rejected", traced.rejected as f64, "count");
    } else {
        let all_queries: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.queries_ms.iter().copied())
            .collect();
        let all_ingests: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.ingests_ms.iter().copied())
            .collect();
        report.metric(
            "run_s",
            median(&rounds.iter().map(|r| r.script_s).collect::<Vec<_>>()),
            "s",
        );
        report.note("run_s.samples", rounds.len());
        for (i, r) in rounds.iter().enumerate() {
            let p = |v: &[f64], q| percentile(v, q).unwrap_or(f64::NAN);
            report.note(
                &format!("round{i}"),
                format!(
                    "script_s={:.3} query_p50_ms={:.4} query_p99_ms={:.4} ingest_p50_ms={:.2} ingest_p90_ms={:.2}",
                    r.script_s,
                    p(&r.queries_ms, 0.5),
                    p(&r.queries_ms, 0.99),
                    p(&r.ingests_ms, 0.5),
                    p(&r.ingests_ms, 0.9)
                ),
            );
        }
        report.metric(
            "setup_s",
            median(&setups.iter().map(SetupTimes::total).collect::<Vec<_>>()),
            "s",
        );
        report.note("setup_s.samples", setups.len());
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.metric("accuracy", twin.accuracy, "fraction");
        report.metric("ok_frac", gate.ok_frac(), "fraction");
        report.percentile("query_p50_ms", &all_queries, 0.50, "ms")?;
        report.percentile("query_p99_ms", &all_queries, 0.99, "ms")?;
        report.percentile("ingest_p50_ms", &all_ingests, 0.50, "ms")?;
        report.percentile("ingest_p90_ms", &all_ingests, 0.90, "ms")?;
        report.note("rejected", rounds.iter().map(|r| r.rejected).sum::<u64>());
    }
    Ok(())
}
