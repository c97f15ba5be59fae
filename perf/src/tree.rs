//! `tree_warm`: the same caching idea at leaf-node granularity.
//!
//! `IDistance` → `PointFile` → `FaultInjector` (no faults) →
//! `SwappableNodeCache(ShardedNodeCache::lru)` → `QueryServer::start_tree`.
//! `TreeSearchEngine` runs its own traversal and deferred pass over the
//! node-cache tower, so this workload must stay flat under a point-cache or
//! C2LSH change, and must not slow when the refiners or the cache towers
//! are unified. The tree engine is exact over the whole dataset, so the
//! oracle here is brute force.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use hc_cache::{ConcurrentNodeCache, SharedNodeCache, SwappableNodeCache};
use hc_fleet::FleetConfig;
use hc_index::{IDistance, LeafedIndex};
use hc_obs::MetricsRegistry;
use hc_query::{TreeSearchEngine, TreeSharedParts};
use hc_serve::{QueryServer, ServeConfig, ShardedNodeCache};
use hc_storage::{FaultConfig, FaultInjector, IoSnapshot, PointFile, PAGE_SIZE};

use crate::layers::{
    check_same_reads, concurrent_window, degraded_share, end_to_end_metrics, lane_metrics,
    measured_window, storage_metrics, LaneLatencies, TRACE_LIMIT_PCT,
};
use crate::load::{interleave, serve, Answer, Lane};
use crate::oracle::{PoolOracle, Truth};
use crate::report::Report;
use crate::stats::ratio;
use crate::trace::{Layer, LayerTotals, TimedLeafed, TimedNodeCache, TimedStore, Tracer};
use crate::world::{request_stream, Draw, World, K};
use crate::{finish_dominance, median_setup, Options};

const NAME: &str = "tree_warm";
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Node-cache budget as a share of the point file's bytes.
const CACHE_SHARE: f64 = 0.30;
/// iDistance reference points and k-means seed (the repository's own
/// tree benches use the same).
const REFERENCE_POINTS: usize = 16;
const KMEANS_SEED: u64 = 3;
/// Untimed requests before the timed window: enough Zipf draws to bring
/// the leaves the pool touches into the cache.
const WARMUP: usize = 200;
/// A tree query takes about 10 ms, so the traced passes are short.
const TRACED_PER_SECOND: usize = 30;
const TRACED_WARMUP: usize = 50;
const BLOCK: usize = 10;
/// Nearest points kept per brute-force ranking beyond `K`.
const RANKING_SLACK: usize = 16;

/// What the stacks of one run share: the world plus the tree over it.
struct Forest {
    world: World,
    index: Arc<IDistance>,
}

impl Forest {
    fn build() -> Self {
        let world = World::build();
        let leaf_capacity = (PAGE_SIZE / world.dataset.point_bytes()).max(1);
        let index = Arc::new(IDistance::build(
            &world.dataset,
            REFERENCE_POINTS,
            leaf_capacity,
            KMEANS_SEED,
        ));
        Self { world, index }
    }
}

struct Stack {
    parts: TreeSharedParts,
    cache: Arc<dyn ConcurrentNodeCache>,
    file: Arc<PointFile>,
    registry: MetricsRegistry,
    timed_cache: Option<Arc<TimedNodeCache>>,
}

impl Stack {
    fn build(forest: &Forest, registry: MetricsRegistry, tracer: Option<Arc<Tracer>>) -> Self {
        let world = &forest.world;
        let cache_bytes = (world.file_bytes() as f64 * CACHE_SHARE) as usize;
        let file = Arc::new(PointFile::new((*world.dataset).clone()));
        let injector = Arc::new(FaultInjector::new(Arc::clone(&file), FaultConfig::none()));
        let index: Arc<dyn LeafedIndex + Send + Sync> = forest.index.clone();
        let cache: Arc<dyn ConcurrentNodeCache> =
            Arc::new(SwappableNodeCache::new(Arc::new(ShardedNodeCache::lru(
                Arc::clone(&world.scheme),
                cache_bytes,
                FleetConfig::default().cache_shards,
            ))));
        let (parts, cache, timed_cache) = match tracer {
            None => (
                TreeSharedParts::new(index, Arc::clone(&world.dataset), injector),
                cache,
                None,
            ),
            Some(t) => {
                let index = Arc::new(TimedLeafed::new(index, Arc::clone(&t)));
                let store = Arc::new(TimedStore::new(injector, Arc::clone(&t), Layer::Storage));
                let cache = Arc::new(TimedNodeCache::new(cache, t));
                (
                    TreeSharedParts::new(index, Arc::clone(&world.dataset), store),
                    cache.clone() as Arc<dyn ConcurrentNodeCache>,
                    Some(cache),
                )
            }
        };
        Self {
            parts,
            cache,
            file,
            registry,
            timed_cache,
        }
    }

    fn serve_config(workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            ..ServeConfig::default()
        }
    }

    fn start(&self, workers: usize) -> QueryServer {
        QueryServer::start_tree(
            self.parts.clone(),
            Arc::clone(&self.cache),
            Self::serve_config(workers),
            &self.registry,
        )
    }

    /// The adapter a server worker owns for its engine's lifetime.
    fn adapter(&self) -> SharedNodeCache {
        SharedNodeCache::new(Arc::clone(&self.cache))
    }

    /// The engine a server worker would build (`hc-serve`'s `build_engine`),
    /// for calling directly on this thread.
    fn engine<'a>(&'a self, adapter: &'a SharedNodeCache) -> TreeSearchEngine<'a> {
        let config = Self::serve_config(1);
        // What `QueryServer::start_tree` binds once for the whole pool.
        self.cache.bind_obs(&self.registry);
        self.parts.file.bind_obs(&self.registry);
        let mut engine = self
            .parts
            .engine(adapter)
            .with_retry(config.retry)
            .with_clock(config.clock)
            .with_lookahead(config.lookahead);
        engine.io_model = config.io_model;
        engine.bind_obs_labeled(&self.registry, "worker0");
        engine
    }

    fn io(&self) -> IoSnapshot {
        self.file.stats().snapshot()
    }
}

/// Tree universe: the whole dataset, brute force. No faults are injected,
/// so nothing may be declared lost.
fn oracle(world: &World) -> PoolOracle<'_> {
    PoolOracle::new(&world.pool, &world.dataset, true, |q| {
        Truth::of_dataset(q, world.dataset.iter(), K + RANKING_SLACK)
    })
}

pub fn run(opts: &Options) -> Report {
    if opts.trace {
        traced(opts)
    } else {
        timed(opts)
    }
}

fn timed(opts: &Options) -> Report {
    let mut report = Report::new(NAME, opts.seed, opts.seconds, false);
    let (setup_s, setups, (forest, stack, server)) = median_setup(opts, || {
        let forest = Forest::build();
        let stack = Stack::build(&forest, MetricsRegistry::new(), None);
        let server = stack.start(WORKERS);
        (forest, stack, server)
    });
    let world = &forest.world;
    let stream = request_stream(world.pool.len(), Draw::Zipf, opts.seed, 1 << 16);
    let window = measured_window(
        CLIENTS,
        opts.scaled(WARMUP),
        &stream,
        Duration::from_secs_f64(opts.seconds),
        || stack.io(),
        |pool| serve(&server, &world.pool[pool as usize]),
    );
    server.shutdown();

    let mut oracle = oracle(world);
    for s in &window.all {
        oracle.check(&mut report, "served", s.pool, &s.reply.answer);
    }
    // No broker on this path: every page a query needs is a device read.
    end_to_end_metrics(
        &mut report.metrics,
        &window,
        window.io.pages_read,
        (setup_s, setups),
    );
    report
}

/// The per-layer run: the same three lanes as the flat workloads, over the
/// tree's own trait objects (`LeafedIndex`, `ConcurrentNodeCache`, one
/// `PageStore` — there is no broker on this path).
fn traced(opts: &Options) -> Report {
    let mut report = Report::new(NAME, opts.seed, opts.seconds, true);
    let forest = Forest::build();
    let world = &forest.world;
    let stream = request_stream(world.pool.len(), Draw::Zipf, opts.seed, 1 << 16);
    let mut oracle = oracle(world);

    let concurrent_qps = {
        let stack = Stack::build(&forest, MetricsRegistry::new(), None);
        let server = stack.start(WORKERS);
        let window = concurrent_window(
            &mut report,
            opts,
            CLIENTS,
            opts.scaled(WARMUP),
            &stream,
            || stack.io(),
            |pool| serve(&server, &world.pool[pool as usize]),
        );
        server.shutdown();
        for s in &window.all {
            oracle.check(&mut report, "concurrent", s.pool, &s.reply.answer);
        }
        window.stats.qps
    };

    let tracer = Tracer::new();
    let stack_a = Stack::build(&forest, MetricsRegistry::new(), Some(Arc::clone(&tracer)));
    let stack_plain = Stack::build(&forest, MetricsRegistry::new(), None);
    let stack_b = Stack::build(&forest, MetricsRegistry::new(), None);
    let server_b = stack_b.start(1);
    let (adapter_a, adapter_plain) = (stack_a.adapter(), stack_plain.adapter());
    let (engine_a, engine_plain) = (
        stack_a.engine(&adapter_a),
        stack_plain.engine(&adapter_plain),
    );
    let direct = |engine: &TreeSearchEngine<'_>, q: &[f32]| {
        let (results, stats) = engine.query(q, K);
        Answer::Answered {
            ids: results.into_iter().map(|(id, _)| id).collect(),
            missing: stats.missing,
        }
    };
    let mut lanes: Vec<Lane<'_, Answer>> = vec![
        Box::new(|position, q| {
            tracer.set_request(position);
            tracer.span(Layer::Query, || direct(&engine_a, q))
        }),
        Box::new(|_, q| direct(&engine_plain, q)),
        Box::new(|_, q| serve(&server_b, q).answer),
    ];

    let warm = opts.scaled(TRACED_WARMUP);
    let count = opts.traced_requests(TRACED_PER_SECOND);
    let warmup = interleave(&mut lanes, &world.pool, &stream, 0, warm, BLOCK);
    tracer.take();
    let timed_cache = stack_a.timed_cache.as_ref().expect("lane A is decorated");
    let cache_before = (
        timed_cache.lookups.load(Ordering::Relaxed),
        timed_cache.hits.load(Ordering::Relaxed),
    );
    let io_before = [stack_a.io(), stack_plain.io(), stack_b.io()];
    let passes = interleave(&mut lanes, &world.pool, &stream, warm, count, BLOCK);
    drop(lanes);
    let spans = tracer.take();

    for samples in warmup.iter().chain(&passes) {
        for s in samples {
            oracle.check(&mut report, "lane", s.pool, &s.reply);
        }
    }
    let io = check_same_reads(
        &mut report,
        io_before,
        [stack_a.io(), stack_plain.io(), stack_b.io()],
    );

    let totals = LayerTotals::of(&spans);
    let per = |layer: Layer| totals.self_us_per(layer, count);
    let lookups = timed_cache.lookups.load(Ordering::Relaxed) - cache_before.0;
    let hits = timed_cache.hits.load(Ordering::Relaxed) - cache_before.1;
    let lanes = LaneLatencies::of(&passes);
    let m = &mut report.metrics;
    m.set("index.leaf_bounds_us", per(Layer::LeafBounds), count);
    m.set("cache.node_lookup_us", per(Layer::NodeLookup), count);
    m.set(
        "cache.node_hit_ratio",
        ratio(hits as f64, lookups as f64),
        lookups as usize,
    );
    m.set("cache.admit_us", per(Layer::CacheAdmit), count);
    m.set(
        "cache.used_share",
        ratio(
            stack_a.cache.used_bytes() as f64,
            stack_a.cache.capacity_bytes() as f64,
        ),
        1,
    );
    m.set("query.self_us", per(Layer::Query), count);
    m.set(
        "query.fetched_per_query",
        totals.calls(Layer::Storage) as f64 / count as f64,
        count,
    );
    m.set(
        "query.degraded_share",
        degraded_share(passes[0].iter().map(|s| &s.reply)),
        count,
    );
    storage_metrics(m, &totals, io, count);
    let dominance = lane_metrics(
        m,
        &totals,
        lanes,
        concurrent_qps,
        CLIENTS,
        count,
        TRACE_LIMIT_PCT,
    );
    finish_dominance(&mut report, opts, dominance);
    server_b.shutdown();
    report.spans = spans;
    report
}
