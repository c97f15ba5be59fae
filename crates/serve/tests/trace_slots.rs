//! The serving shell is backend-blind: each `start*` constructor hands the
//! worker loop its own engine, and the engine-phase slots of the recorded
//! [`RequestTrace`] are whatever that engine's stats map themselves onto
//! (`QueryStats::trace`, `TreeQueryStats::trace`, `IngestAnswer::trace`).
//! This serves the same queries through all three constructors and checks
//! every recorded trace against a direct `engine.query(..)` on an identical
//! stack — timings and the lifecycle fields excluded.

use std::sync::Arc;
use std::time::Duration;

use hc_cache::concurrent::{ConcurrentNodeCache, SharedNodeCache, SharedPointCache};
use hc_core::dataset::{Dataset, PointId};
use hc_core::histogram::classic::equi_width;
use hc_core::quantize::Quantizer;
use hc_core::scheme::{ApproxScheme, GlobalScheme};
use hc_index::traits::CandidateIndex;
use hc_index::IDistance;
use hc_ingest::{IngestConfig, IngestEngine, WalDevice};
use hc_obs::{MetricsRegistry, RequestTrace, TraceOutcome};
use hc_query::{SharedParts, TreeSharedParts};
use hc_serve::{
    QueryOutcome, QueryResponse, QueryServer, ServeConfig, ShardedCompactCache, ShardedNodeCache,
};
use hc_storage::point_file::PointFile;

const N: usize = 240;
const DIM: usize = 6;
const K: usize = 4;

fn row(i: usize) -> Vec<f32> {
    (0..DIM)
        .map(|j| ((i * 37 + j * 11) % 97) as f32 + (i % 5) as f32 * 0.25)
        .collect()
}

fn dataset() -> Dataset {
    Dataset::from_rows(&(0..N).map(row).collect::<Vec<_>>())
}

/// The first two queries are the same point, so the second one runs on
/// whatever the first admitted: hits and misses both get exercised.
fn queries() -> Vec<Vec<f32>> {
    [17, 17, 101, 202]
        .iter()
        .map(|&i| {
            let mut q = row(i);
            q[0] += 0.4;
            q
        })
        .collect()
}

fn scheme() -> Arc<dyn ApproxScheme> {
    Arc::new(GlobalScheme::new(
        equi_width(256, 32),
        Quantizer::new(0.0, 100.0, 256),
        DIM,
    ))
}

/// A third of the dataset per query, chosen by the query's first coordinate.
struct SliceIndex;

impl CandidateIndex for SliceIndex {
    fn candidates(&self, q: &[f32], _k: usize) -> Vec<PointId> {
        let start = q[0] as usize % N;
        (0..N / 3)
            .map(|i| PointId(((start + i) % N) as u32))
            .collect()
    }

    fn name(&self) -> &'static str {
        "slice"
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

/// The trace with everything the engine's stats do not determine cleared:
/// phase timings and the serving lifecycle.
fn engine_slots(t: RequestTrace) -> RequestTrace {
    RequestTrace {
        seq: 0,
        gen_ns: 0,
        reduce_ns: 0,
        refine_ns: 0,
        queue_wait_us: 0,
        total_us: 0,
        worker: 0,
        cache_generation: 0,
        has_deadline: false,
        deadline_slack_us: 0,
        outcome: TraceOutcome::Done,
        ..t
    }
}

/// Serve `queries()` one at a time and return each response with the trace
/// the server recorded for it.
fn serve_all(
    server: QueryServer,
    registry: &MetricsRegistry,
) -> Vec<(QueryResponse, RequestTrace)> {
    let responses: Vec<QueryResponse> = queries()
        .into_iter()
        .map(|q| {
            let ticket = server.submit(q, K, None).expect("admitted");
            match ticket.wait() {
                QueryOutcome::Done(response) => response,
                other => panic!("expected Done, got {other:?}"),
            }
        })
        .collect();
    server.shutdown();
    let traces = registry.traces().to_vec();
    assert_eq!(traces.len(), responses.len(), "one trace per request");
    responses.into_iter().zip(traces).collect()
}

/// What every backend must satisfy: same ids, the engine's own slot
/// mapping in the ring, and a response that reads its figures off it.
fn check(
    backend: &str,
    served: Vec<(QueryResponse, RequestTrace)>,
    direct: Vec<(Vec<PointId>, RequestTrace)>,
) {
    assert!(served.iter().any(|(_, t)| t.cache_hits > 0), "{backend}");
    for (i, ((response, trace), (ids, want))) in served.into_iter().zip(direct).enumerate() {
        assert_eq!(response.ids, ids, "{backend} query {i}: ids");
        assert_eq!(
            engine_slots(trace),
            engine_slots(want),
            "{backend} query {i}: engine slots"
        );
        assert_eq!(response.io_pages, u64::from(trace.io_pages), "{backend}");
        assert_eq!(response.cache_hits, trace.cache_hits as usize, "{backend}");
        assert_eq!(response.candidates, trace.candidates as usize, "{backend}");
        assert_eq!(trace.worker, 0, "{backend}");
        assert_eq!(trace.outcome, TraceOutcome::Done, "{backend}");
    }
}

#[test]
fn flat_server_records_the_engines_own_slot_mapping() {
    let stack = || {
        let parts = SharedParts::new(Arc::new(SliceIndex), Arc::new(PointFile::new(dataset())));
        let s = scheme();
        let cache = Arc::new(ShardedCompactCache::lru(
            Arc::clone(&s),
            s.bytes_per_point() * N / 4,
            2,
        ));
        (parts, cache)
    };
    let registry = MetricsRegistry::new();
    let (parts, cache) = stack();
    let served = serve_all(
        QueryServer::start(parts, cache, config(), &registry),
        &registry,
    );

    let (parts, cache) = stack();
    let mut engine = parts.engine(Box::new(SharedPointCache::new(cache)));
    engine.io_model = config().io_model;
    let direct = queries()
        .iter()
        .map(|q| {
            let (ids, stats) = engine.query(q, K);
            (ids, stats.trace())
        })
        .collect();
    check("flat", served, direct);
}

#[test]
fn tree_server_records_the_engines_own_slot_mapping() {
    let stack = || {
        let dataset = Arc::new(dataset());
        let parts = TreeSharedParts::new(
            Arc::new(IDistance::build(&dataset, 4, 8, 3)),
            Arc::clone(&dataset),
            Arc::new(PointFile::new(dataset.as_ref().clone())),
        );
        let s = scheme();
        let cache: Arc<dyn ConcurrentNodeCache> = Arc::new(ShardedNodeCache::lru(
            Arc::clone(&s),
            s.bytes_per_point() * N / 2,
            2,
        ));
        (parts, cache)
    };
    let registry = MetricsRegistry::new();
    let (parts, cache) = stack();
    let served = serve_all(
        QueryServer::start_tree(parts, cache, config(), &registry),
        &registry,
    );

    let (parts, cache) = stack();
    let adapter = SharedNodeCache::new(cache);
    let mut engine = parts.engine(&adapter);
    engine.io_model = config().io_model;
    let direct = queries()
        .iter()
        .map(|q| {
            let (results, stats) = engine.query(q, K);
            let ids = results.into_iter().map(|(id, _)| id).collect();
            (ids, stats.trace())
        })
        .collect();
    check("tree", served, direct);
}

#[test]
fn ingest_server_records_the_engines_own_slot_mapping() {
    // Two sealed segments and a live memtable tail, so the answer mixes
    // sidecar-pruned rows, fetched rows and memtable rows.
    let stack = |registry: &MetricsRegistry| {
        let engine =
            IngestEngine::new(Arc::new(WalDevice::new()), IngestConfig::new(DIM), registry);
        for i in 0..N {
            engine.insert(PointId(i as u32), row(i)).expect("admitted");
            if i == N / 3 || i == 2 * N / 3 {
                engine.seal();
            }
        }
        Arc::new(engine)
    };
    let registry = MetricsRegistry::new();
    let served = serve_all(
        QueryServer::start_ingest(stack(&registry), config(), &registry),
        &registry,
    );

    let engine = stack(&MetricsRegistry::new());
    let direct = queries()
        .iter()
        .map(|q| {
            let answer = engine.query(q, K);
            let ids = answer.hits.iter().map(|&(_, id)| id).collect();
            (ids, answer.trace(Duration::ZERO, config().io_model))
        })
        .collect();
    check("ingest", served, direct);
}
