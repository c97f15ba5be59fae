//! `flat_warm` and `flat_cold`: the point-cache stack a fleet replica runs.
//!
//! C2LSH → `PointFile` → `FaultInjector` → `FetchBroker` →
//! `SwappablePointCache(ShardedCompactCache::lru)` → `QueryServer` with a
//! `WorkloadSampler` attached — the stack `hc_fleet::Shard::build` assembles,
//! plus the fetch broker DESIGN.md §16 slots between injector and engines.
//! Every config field not named here keeps its crate default, so a later
//! change to a default is measured.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hc_cache::{ConcurrentPointCache, SharedPointCache, SwappablePointCache};
use hc_fleet::FleetConfig;
use hc_index::CandidateIndex;
use hc_io::{BrokerConfig, FetchBroker};
use hc_maint::{MaintDaemon, WorkloadSampler};
use hc_obs::MetricsRegistry;
use hc_query::{KnnEngine, MaintenanceConfig, QueryObs, SharedParts};
use hc_serve::{QueryServer, ServeConfig, ShardedCompactCache};
use hc_storage::{FaultConfig, FaultInjector, IoSnapshot, PointFile};

use crate::layers::{
    check_same_reads, concurrent_window, degraded_share, end_to_end_metrics, lane_latency_us,
    lane_metrics, measured_window, pages_needed, share_of_direct, storage_metrics, LaneLatencies,
    TRACE_LIMIT_PCT,
};
use crate::load::{closed_loop, interleave, serve, Answer, Lane, Stop};
use crate::oracle::{PoolOracle, Truth};
use crate::report::Report;
use crate::stats::ratio;
use crate::trace::{Layer, LayerTotals, TimedIndex, TimedPointCache, TimedStore, Tracer};
use crate::world::{mix, request_stream, Draw, World, K, TAU};
use crate::{finish_dominance, median_setup, Options};

/// Server workers and closed-loop clients of the timed run: with two cores,
/// two workers keep both busy while their two clients block on tickets.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Requests per lane switch in the interleaved traced passes.
const BLOCK: usize = 50;
/// Verified queries after the maintenance swap.
const POST_SWAP_QUERIES: usize = 200;

/// What differs between the two flat workloads.
struct Spec {
    name: &'static str,
    /// Cache budget as a share of the point file's bytes.
    cache_share: f64,
    /// Fill the cache from the HFF ranking before serving.
    warm_fill: bool,
    draw: Draw,
    /// Hot-page budget as a share of the file's pages; `None` keeps the
    /// broker default.
    hot_share: Option<f64>,
    /// Retry-curable faults at 1% of physical reads.
    faults: bool,
    /// Untimed requests before the timed window.
    warmup: usize,
    /// Traced requests per second of `--seconds`, and their warm-up.
    traced_per_second: usize,
    traced_warmup: usize,
    /// What the decorators may add to a directly called query, percent.
    trace_limit_pct: f64,
}

const WARM: Spec = Spec {
    name: "flat_warm",
    cache_share: 0.30,
    warm_fill: true,
    draw: Draw::Zipf,
    hot_share: None,
    faults: false,
    warmup: 500,
    traced_per_second: 200,
    traced_warmup: 200,
    trace_limit_pct: TRACE_LIMIT_PCT,
};

const COLD: Spec = Spec {
    name: "flat_cold",
    cache_share: 0.02,
    warm_fill: false,
    // Uniform draws and a cache of 2% leave no working set to retain.
    draw: Draw::Uniform,
    // The default 4,096 hot pages exceed the whole 3,267-page file and
    // would turn every read into a residency hit.
    hot_share: Some(0.05),
    faults: true,
    warmup: 500,
    traced_per_second: 100,
    traced_warmup: 100,
    // A cold query opens some 2,700 spans (890 fetched points, each read at
    // two boundaries and admitted); at 0.12 µs a span that is a tenth of
    // the query before anything else is counted.
    trace_limit_pct: 15.0,
};

impl Spec {
    fn fault(&self, seed: u64) -> FaultConfig {
        if !self.faults {
            return FaultConfig::none();
        }
        FaultConfig {
            seed: mix(seed, 0xFA17),
            transient_rate: 0.005,
            corrupt_rate: 0.0025,
            torn_rate: 0.0025,
            ..FaultConfig::none()
        }
    }
}

/// One private serving stack over the shared world.
struct Stack {
    parts: SharedParts,
    cache: Arc<dyn ConcurrentPointCache>,
    swappable: Arc<SwappablePointCache>,
    sampler: Arc<WorkloadSampler>,
    file: Arc<PointFile>,
    registry: MetricsRegistry,
    /// Decorator handles of a traced stack.
    timed: Option<Timed>,
}

struct Timed {
    index: Arc<TimedIndex>,
    cache: Arc<TimedPointCache>,
}

impl Stack {
    fn build(
        world: &World,
        spec: &Spec,
        seed: u64,
        registry: MetricsRegistry,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        let fleet_defaults = FleetConfig::default();
        let cache_bytes = (world.file_bytes() as f64 * spec.cache_share) as usize;
        let file = Arc::new(PointFile::new((*world.dataset).clone()));
        let injector = Arc::new(FaultInjector::new(Arc::clone(&file), spec.fault(seed)));
        let mut broker_config = BrokerConfig::default();
        if let Some(share) = spec.hot_share {
            broker_config.hot_pages = (file.num_pages() as f64 * share) as usize;
        }
        let sharded = Arc::new(ShardedCompactCache::lru(
            Arc::clone(&world.scheme),
            cache_bytes,
            fleet_defaults.cache_shards,
        ));
        if spec.warm_fill {
            sharded.warm_fill(&world.dataset, &world.ranking);
        }
        let swappable = Arc::new(SwappablePointCache::new(sharded));
        let sampler = Arc::new(WorkloadSampler::new(
            MaintenanceConfig::new(fleet_defaults.sampler_window, TAU, cache_bytes, K),
            &registry,
        ));

        let index: Arc<dyn CandidateIndex + Send + Sync> = world.index.clone();
        let cache: Arc<dyn ConcurrentPointCache> = swappable.clone();
        let (parts, cache, timed) = match tracer {
            None => {
                let broker = Arc::new(FetchBroker::with_config(injector, broker_config));
                (SharedParts::new(index, broker), cache, None)
            }
            Some(t) => {
                let index = Arc::new(TimedIndex::new(index, Arc::clone(&t)));
                let device = Arc::new(TimedStore::new(injector, Arc::clone(&t), Layer::Storage));
                let broker = Arc::new(FetchBroker::with_config(device, broker_config));
                let io = Arc::new(TimedStore::new(broker, Arc::clone(&t), Layer::Io));
                let cache = Arc::new(TimedPointCache::new(cache, t));
                (
                    SharedParts::new(index.clone(), io),
                    cache.clone() as Arc<dyn ConcurrentPointCache>,
                    Some(Timed { index, cache }),
                )
            }
        };
        Self {
            parts,
            cache,
            swappable,
            sampler,
            file,
            registry,
            timed,
        }
    }

    fn serve_config(&self, workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            sampler: Some(Arc::clone(&self.sampler) as _),
            ..ServeConfig::default()
        }
    }

    fn start(&self, workers: usize) -> QueryServer {
        QueryServer::start(
            self.parts.clone(),
            Arc::clone(&self.cache),
            self.serve_config(workers),
            &self.registry,
        )
    }

    /// The engine a server worker would build (`hc-serve`'s `build_engine`),
    /// for calling directly on this thread.
    fn engine(&self) -> KnnEngine<'_> {
        let config = self.serve_config(1);
        // What `QueryServer::start` binds once for the whole pool.
        self.cache.bind_obs(&self.registry);
        self.parts.file.bind_obs(&self.registry);
        let mut engine = self
            .parts
            .engine(Box::new(SharedPointCache::new(Arc::clone(&self.cache))));
        engine.io_model = config.io_model;
        engine.eager_refetch = config.eager_refetch;
        engine.lookahead = config.lookahead;
        engine.retry = config.retry;
        engine.clock = config.clock;
        engine.obs = QueryObs::bind_labeled(&self.registry, "worker0").without_traces();
        engine.retry_obs.bind(&self.registry);
        engine
    }

    fn io(&self) -> IoSnapshot {
        self.file.stats().snapshot()
    }
}

/// Flat universe: the candidate set the index reports for the query.
fn oracle<'w>(world: &'w World, spec: &Spec) -> PoolOracle<'w> {
    PoolOracle::new(&world.pool, &world.dataset, !spec.faults, |q| {
        Truth::of_candidates(
            q,
            world
                .index
                .candidates(q, K)
                .into_iter()
                .map(|id| (id, world.dataset.point(id))),
        )
    })
}

pub fn run_warm(opts: &Options) -> Report {
    run(&WARM, opts)
}

pub fn run_cold(opts: &Options) -> Report {
    run(&COLD, opts)
}

fn run(spec: &Spec, opts: &Options) -> Report {
    if opts.trace {
        traced(spec, opts)
    } else {
        timed(spec, opts)
    }
}

/// The end-to-end run: tracing off, two workers, two closed-loop clients.
fn timed(spec: &Spec, opts: &Options) -> Report {
    let mut report = Report::new(spec.name, opts.seed, opts.seconds, false);
    let (setup_s, setups, (world, stack, server)) = median_setup(opts, || {
        let world = World::build();
        let stack = Stack::build(&world, spec, opts.seed, MetricsRegistry::new(), None);
        let server = stack.start(WORKERS);
        (world, stack, server)
    });
    let stream = request_stream(world.pool.len(), spec.draw, opts.seed, 1 << 16);
    let window = measured_window(
        CLIENTS,
        opts.scaled(spec.warmup),
        &stream,
        Duration::from_secs_f64(opts.seconds),
        || stack.io(),
        |pool| serve(&server, &world.pool[pool as usize]),
    );
    server.shutdown();

    let mut oracle = oracle(&world, spec);
    for s in &window.all {
        oracle.check(&mut report, "served", s.pool, &s.reply.answer);
    }
    end_to_end_metrics(
        &mut report.metrics,
        &window,
        pages_needed(window.io),
        (setup_s, setups),
    );
    report
}

/// The per-layer run. A short two-client window supplies the figures that
/// only exist under concurrency; then the same requests go, interleaved on
/// this one thread, through (A) a decorated stack called directly, (A′) an
/// undecorated one called directly, and (B) an undecorated one behind a
/// one-worker server — each over its own fresh stack, so all three see the
/// same cache, buffer and fault state and their counts are identical.
fn traced(spec: &Spec, opts: &Options) -> Report {
    let mut report = Report::new(spec.name, opts.seed, opts.seconds, true);
    let world = World::build();
    let stream = request_stream(world.pool.len(), spec.draw, opts.seed, 1 << 16);
    let mut oracle = oracle(&world, spec);

    let concurrent_qps = {
        let stack = Stack::build(&world, spec, opts.seed, MetricsRegistry::new(), None);
        let server = stack.start(WORKERS);
        let window = concurrent_window(
            &mut report,
            opts,
            CLIENTS,
            opts.scaled(spec.warmup),
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
    let stack_a = Stack::build(
        &world,
        spec,
        opts.seed,
        MetricsRegistry::new(),
        Some(Arc::clone(&tracer)),
    );
    let stack_plain = Stack::build(&world, spec, opts.seed, MetricsRegistry::new(), None);
    let stack_b = Stack::build(&world, spec, opts.seed, MetricsRegistry::new(), None);
    // Only `flat_warm` prices the ops plane: same stack, disabled registry.
    let stack_noop = spec
        .warm_fill
        .then(|| Stack::build(&world, spec, opts.seed, MetricsRegistry::noop(), None));
    let server_b = stack_b.start(1);

    let direct = |engine: &mut KnnEngine<'_>, q: &[f32]| {
        let (ids, stats) = engine.query(q, K);
        Answer::Answered {
            ids,
            missing: stats.missing,
        }
    };
    let mut engine_a = stack_a.engine();
    let mut engine_plain = stack_plain.engine();
    let mut engine_noop = stack_noop.as_ref().map(Stack::engine);
    let mut lanes: Vec<Lane<'_, Answer>> = vec![
        Box::new(|position, q| {
            tracer.set_request(position);
            tracer.span(Layer::Query, || direct(&mut engine_a, q))
        }),
        Box::new(|_, q| direct(&mut engine_plain, q)),
        Box::new(|_, q| serve(&server_b, q).answer),
    ];
    if let Some(engine) = engine_noop.as_mut() {
        lanes.push(Box::new(|_, q| direct(engine, q)));
    }

    let warm = opts.scaled(spec.traced_warmup);
    let count = opts.traced_requests(spec.traced_per_second);
    let warmup = interleave(&mut lanes, &world.pool, &stream, 0, warm, BLOCK);
    tracer.take();
    let timed_a = stack_a.timed.as_ref().expect("lane A is decorated");
    let cache_before = (
        timed_a.cache.lookups.load(Ordering::Relaxed),
        timed_a.cache.hits.load(Ordering::Relaxed),
    );
    let candidates_before = timed_a.index.candidates.load(Ordering::Relaxed);
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
    let fetches = totals.calls(Layer::Io);
    let lookups = timed_a.cache.lookups.load(Ordering::Relaxed) - cache_before.0;
    let hits = timed_a.cache.hits.load(Ordering::Relaxed) - cache_before.1;
    let candidates = timed_a.index.candidates.load(Ordering::Relaxed) - candidates_before;
    let lanes = LaneLatencies::of(&passes);

    let m = &mut report.metrics;
    m.set("index.candidates_us", per(Layer::Index), count);
    m.set(
        "index.candidates_per_query",
        candidates as f64 / count as f64,
        count,
    );
    m.set("cache.lookup_us", per(Layer::CacheLookup), count);
    m.set(
        "cache.lookup_ns_per_hit",
        ratio(totals.total_ns(Layer::CacheLookup) as f64, hits as f64),
        hits as usize,
    );
    m.set(
        "cache.hit_ratio",
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
        fetches as f64 / count as f64,
        count,
    );
    m.set(
        "query.refine_share",
        ratio(fetches as f64, candidates as f64),
        candidates as usize,
    );
    m.set(
        "query.degraded_share",
        degraded_share(passes[0].iter().map(|s| &s.reply)),
        count,
    );
    m.set("io.self_us", per(Layer::Io), count);
    let first_touches = io.hot_hits + io.pages_read + io.pages_coalesced;
    m.set(
        "io.hot_hit_ratio",
        ratio(io.hot_hits as f64, first_touches as f64),
        first_touches as usize,
    );
    m.set(
        "io.lookahead_wasted_share",
        ratio(io.lookahead_wasted as f64, io.lookahead_issued as f64),
        io.lookahead_issued as usize,
    );
    storage_metrics(m, &totals, io, count);
    let mut dominance = lane_metrics(
        m,
        &totals,
        lanes,
        concurrent_qps,
        CLIENTS,
        count,
        spec.trace_limit_pct,
    );
    if let Some(noop) = passes.get(3) {
        let noop_us = lane_latency_us(noop);
        m.set(
            "obs.overhead_pct",
            (lanes.plain_us - noop_us) / noop_us * 100.0,
            count,
        );
    }

    // Do the two flat workloads still separate the layers?
    if spec.warm_fill {
        let compute = share_of_direct(
            &totals,
            &[Layer::Index, Layer::CacheLookup, Layer::CacheAdmit],
        );
        let fetch = share_of_direct(&totals, &[Layer::Io, Layer::Storage]);
        dominance.push((
            compute >= 0.85,
            format!("index + cache = {compute:.3} of the direct span, want >= 0.85"),
        ));
        dominance.push((
            fetch <= 0.05,
            format!("io + storage = {fetch:.3} of the direct span, want <= 0.05"),
        ));
    } else {
        // Admission counts with the fetch path: it is paid once per fetched
        // point, and at a quarter of a cold query it is exactly the kind of
        // work this workload exists to expose.
        let fetch_path = share_of_direct(
            &totals,
            &[Layer::Query, Layer::Io, Layer::Storage, Layer::CacheAdmit],
        );
        dominance.push((
            fetch_path >= 0.60,
            format!(
                "query.self + io + storage + cache.admit = {fetch_path:.3} of the direct span, want >= 0.60"
            ),
        ));
    }
    finish_dominance(&mut report, opts, dominance);

    // hc-maint: one rebuild-and-swap, the cost of what the Swappable tower
    // exists for, then verified queries against the new generation.
    if spec.warm_fill {
        let daemon = MaintDaemon::new(
            Arc::clone(&stack_b.sampler),
            world.index.clone(),
            Arc::clone(&world.dataset),
            world.quantizer.clone(),
            Arc::clone(&stack_b.swappable),
            FleetConfig::default().cache_shards,
            &stack_b.registry,
        );
        let started = Instant::now();
        let rebuilt = daemon.run_once();
        let swap_ms = started.elapsed().as_secs_f64() * 1e3;
        report.verdict(
            "maintenance cycle swapped a generation in",
            rebuilt.map(|_| ()).ok_or("the sampler window was empty"),
        );
        let cursor = AtomicUsize::new(warm + count);
        let after = closed_loop(
            1,
            &stream,
            &cursor,
            Stop::After(opts.scaled(POST_SWAP_QUERIES)),
            |pool| serve(&server_b, &world.pool[pool as usize]),
        );
        let (mut hit, mut probed) = (0usize, 0usize);
        for s in &after {
            oracle.check(&mut report, "post-swap", s.pool, &s.reply.answer);
            hit += s.reply.cache_hits;
            probed += s.reply.candidates;
        }
        let m = &mut report.metrics;
        m.set("maint.rebuild_swap_ms", swap_ms, 1);
        m.set(
            "maint.post_swap_hit_ratio",
            ratio(hit as f64, probed as f64),
            probed,
        );
    }
    server_b.shutdown();
    report.spans = spans;
    report
}
