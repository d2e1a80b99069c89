//! The metric catalogue: every end-to-end metric an untraced run
//! reports, and every per-layer metric a traced run reports, with the
//! end-to-end metric and workload each layer metric should move.

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "fraction"),
    ("ok_frac", "fraction"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p90_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`): name, unit, what it should move.
pub const PER_LAYER: [(&str, &str, &str); 34] = [
    ("td-model.intern_ms", "ms", "setup_s (all workloads)"),
    ("td-store.save_ms", "ms", "setup_s"),
    ("td-store.load_ms", "ms", "run_s on ds1_store/ds1_sharded"),
    ("td-store.file_mb", "MB", "td-store.load_ms"),
    ("td-store.bytes_mapped", "count", "td-store.load_ms"),
    ("td-store.zero_copy_loads", "count", "td-store.load_ms"),
    (
        "td-algorithms.reference_ms",
        "ms",
        "setup_s on ds1_store/ds1_sharded (run_s on exam_wide)",
    ),
    (
        "td-algorithms.group_runs_ms",
        "ms",
        "run_s on ds1_store (about 0 on exam_wide)",
    ),
    (
        "td-algorithms.group_run_max_ms",
        "ms",
        "run_s on ds1_store (critical path)",
    ),
    ("td-algorithms.fixpoint_iterations", "count", "-"),
    ("core.pack_ms", "ms", "setup_s"),
    (
        "core.select_ms",
        "ms",
        "run_s on ds1_store and ds1_sharded (exam_wide)",
    ),
    ("clustering.k_values", "count", "core.select_ms"),
    ("clustering.kmeans_iterations", "count", "core.select_ms"),
    ("clustering.distance_evals", "count", "core.select_ms"),
    ("core.assemble_ms", "ms", "run_s on ds1_store"),
    (
        "core.dense_matrix_mb",
        "MB-computed",
        "peak_rss_mb on ds1_store",
    ),
    ("td-shard.run_ms", "ms", "run_s on ds1_sharded"),
    ("td-shard.overhead_ms", "ms", "run_s on ds1_sharded"),
    (
        "td-shard.shards_spawned",
        "count",
        "run_s on ds1_sharded; ok_frac",
    ),
    (
        "td-shard.partials",
        "count",
        "run_s on ds1_sharded; ok_frac",
    ),
    ("td-shard.retries", "count", "run_s on ds1_sharded; ok_frac"),
    (
        "core.session.start_ms",
        "ms",
        "setup_s on serve_mixed (serving tail of the ds1_store traced run)",
    ),
    (
        "td-serve.bind_ms",
        "ms",
        "setup_s on serve_mixed (serving tail of the ds1_store traced run)",
    ),
    (
        "core.session.ingest_ms",
        "ms",
        "ingest_p50_ms on serve_mixed (serving tail of the ds1_store traced run)",
    ),
    (
        "core.session.groups_reused_frac",
        "fraction",
        "ingest_p50_ms on serve_mixed (serving tail of the ds1_store traced run)",
    ),
    (
        "core.session.dirty_attrs",
        "count",
        "ingest_p90_ms on serve_mixed (serving tail of the ds1_store traced run)",
    ),
    (
        "core.session.repartitions",
        "count",
        "ingest_p90_ms on serve_mixed (serving tail of the ds1_store traced run)",
    ),
    (
        "core.query.answer_us",
        "us",
        "query_p50_ms on serve_mixed (serving tail of the ds1_store traced run)",
    ),
    (
        "td-serve.query_overhead_us",
        "us",
        "query_p50_ms, query_p99_ms on serve_mixed (serving tail of the ds1_store traced run)",
    ),
    (
        "td-serve.ingest_overhead_ms",
        "ms",
        "ingest_p50_ms, ingest_p90_ms on serve_mixed (serving tail of the ds1_store traced run)",
    ),
    (
        "td-serve.rejected",
        "count",
        "ok_frac on serve_mixed (serving tail of the ds1_store traced run)",
    ),
    ("trace.coverage_frac", "fraction", "-"),
    ("trace.overhead_frac", "fraction", "-"),
];
