//! End-to-end telemetry smoke test: runs the GALE loop with observability
//! enabled and asserts (1) the pipeline metrics match the `GaleConfig`,
//! (2) the JSONL trace is well-formed, carries the expected spans and
//! events, and stamps the ambient request id into every record emitted
//! inside the `request_scope`, (3) the embedded run report round-trips,
//! and (4) enabling telemetry does not change a single bit of the
//! pipeline's output.
//!
//! A single `#[test]` in its own integration binary: the metrics registry
//! and the enabled flag are process-global, so this file must not share a
//! process with other telemetry scenarios.

use gale::prelude::*;

fn quick_cfg(seed: u64) -> GaleConfig {
    let mut cfg = GaleConfig {
        local_budget: 6,
        iterations: 3,
        seed,
        ..Default::default()
    };
    cfg.sgan.epochs = 40;
    cfg.sgan.incremental_epochs = 5;
    cfg.sgan.early_stop_patience = 0;
    cfg.augment.feat.gae.epochs = 8;
    cfg
}

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|f| f.to_bits()).collect()
}

#[test]
fn telemetry_smoke_end_to_end() {
    let d = prepare(
        DatasetId::UserGroup1,
        0.12,
        &ErrorGenConfig {
            node_error_rate: 0.08,
            ..Default::default()
        },
        11,
    );
    let mut rng = Rng::seed_from_u64(12);
    let split = DataSplit::paper_default(d.graph.node_count(), &mut rng);
    let cfg = quick_cfg(11);
    let run = || {
        let mut oracle = GroundTruthOracle::new(&d.truth);
        run_gale(
            &d.graph,
            &d.constraints,
            &split,
            &[],
            &[],
            &mut oracle,
            &cfg,
        )
    };

    // Baseline with telemetry off.
    gale_obs::set_enabled(false);
    let off = run();

    // Instrumented run: count metric deltas against this run only. The
    // whole run executes under a request scope, the way a traced serving
    // request would, so every span and event must carry `"req"`.
    const REQ_ID: u64 = 9001;
    let iters_before = gale_obs::metrics::counter("gale.iterations").get();
    let queries_before = gale_obs::metrics::counter("gale.oracle.queries").get();
    gale_obs::set_enabled(true);
    let trace = gale_obs::trace::capture_to_memory();
    let on = {
        let _scope = gale_obs::span::request_scope(REQ_ID);
        run()
    };
    gale_obs::set_enabled(false);
    assert_eq!(gale_obs::span::current_request(), 0, "scope must restore");

    // (1) Metrics match the config. The train fold is far larger than the
    // total budget, so every iteration issues exactly `local_budget`
    // queries and the loop never terminates early.
    let iters = gale_obs::metrics::counter("gale.iterations").get() - iters_before;
    let queries = gale_obs::metrics::counter("gale.oracle.queries").get() - queries_before;
    assert_eq!(iters as usize, cfg.iterations);
    assert_eq!(iters as usize, on.history.len());
    assert_eq!(queries as usize, cfg.local_budget * cfg.iterations);
    assert_eq!(queries as usize, on.queries_issued);
    let per_record: usize = on.history.iter().map(|r| r.queries.len()).sum();
    assert_eq!(queries as usize, per_record);

    // (2) Every trace line is a standalone JSON document with the expected
    // span/event vocabulary.
    let lines = trace.lock().unwrap().clone();
    assert!(!lines.is_empty(), "instrumented run emitted no trace");
    let mut spans = Vec::new();
    let mut events = Vec::new();
    for line in &lines {
        let v = gale_json::from_str(line).unwrap_or_else(|e| panic!("bad trace line {line}: {e}"));
        assert_eq!(
            v["req"].as_u64(),
            Some(REQ_ID),
            "record missing the ambient request id: {line}"
        );
        match v["t"].as_str() {
            Some("span") => spans.push(v),
            Some("event") => events.push(v),
            other => panic!("unknown record type {other:?} in {line}"),
        }
    }
    let span_names: Vec<&str> = spans.iter().filter_map(|s| s["name"].as_str()).collect();
    for expected in [
        "gale.run",
        "gale.represent",
        "gale.iteration",
        "gale.select",
        "gale.annotate",
        "gale.train",
        "gale.score",
    ] {
        assert!(span_names.contains(&expected), "missing span {expected}");
    }
    assert_eq!(
        span_names
            .iter()
            .filter(|&&n| n == "gale.iteration")
            .count(),
        cfg.iterations,
        "one gale.iteration span per iteration"
    );
    assert!(
        events
            .iter()
            .any(|e| e["name"].as_str() == Some("sgan.epoch")),
        "missing sgan.epoch events"
    );
    // Spans carry timing and nesting metadata.
    let run_span = spans
        .iter()
        .find(|s| s["name"].as_str() == Some("gale.run"))
        .unwrap();
    assert!(run_span["us"].as_u64().is_some());
    assert_eq!(run_span["queries_issued"].as_u64(), Some(queries));

    // (3) The run-report event round-trips through RunReport.
    let report_event = events
        .iter()
        .find(|e| e["name"].as_str() == Some("gale.run_report"))
        .expect("missing gale.run_report event");
    let report = gale_obs::RunReport::from_json(&report_event["report"]).unwrap();
    assert_eq!(report.rows.len(), cfg.iterations);
    assert_eq!(
        report
            .totals
            .iter()
            .find(|(k, _)| k == "queries_issued")
            .map(|(_, v)| v.as_u64()),
        Some(Some(queries))
    );
    let rendered = report.render();
    assert!(rendered.contains("GALE run") && rendered.contains("queries_issued"));

    // (4) Telemetry is observation-only: bitwise-identical outcome.
    assert_eq!(on.predictions, off.predictions);
    assert_eq!(bits(&on.error_scores), bits(&off.error_scores));
    assert_eq!(on.queries_issued, off.queries_issued);
    let qa: Vec<_> = on.history.iter().map(|r| r.queries.clone()).collect();
    let qb: Vec<_> = off.history.iter().map(|r| r.queries.clone()).collect();
    assert_eq!(qa, qb);
}
