//! The live-mutable engine (DESIGN.md §13.5): WAL → memtable → segments,
//! glued together so every query is exact mid-ingest.
//!
//! ## Write path
//! One writer mutex serializes insert/delete/seal/compact. A mutation is
//! framed and appended to the WAL *first* (that append is the ack), then
//! applied to the memtable. When the memtable exceeds its byte budget the
//! writer seals inline; the background [`crate::IngestDaemon`]-style loop
//! (hc-maint) also calls [`IngestEngine::seal`] and
//! [`IngestEngine::maybe_compact`] on its cadence.
//!
//! ## Seal/query ordering
//! A seal builds the segment from a memtable snapshot, swaps the manifest
//! (briefly duplicating the data), publishes the new generation to the WAL
//! device's superblock, and only then clears the memtable. A query reads
//! the memtable *first* (exact scan + shadow mask) and the manifest
//! *second*: if it saw pre-seal memtable contents, the mask hides the new
//! segment's duplicates; if it saw the cleared memtable, the swap has
//! already published the segment. Every interleaving yields the exact live
//! set — no global read lock needed.
//!
//! ## Recovery
//! "Crash" = the engine (RAM) is gone, the [`WalDevice`] (disk) remains.
//! [`IngestEngine::recover`] replays the verified WAL prefix through the
//! normal apply path (without re-appending), so acked writes — and only
//! acked writes — are reconstructed; the manifest resumes from the
//! device's persisted generation floor, keeping generations monotonic
//! across restarts.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use hc_core::dataset::PointId;
use hc_obs::trace::{duration_ns, saturate_u32};
use hc_obs::{Counter, Gauge, MetricsRegistry, RequestTrace};
use hc_storage::fault::FaultConfig;
use hc_storage::io_stats::IoModel;
use hc_storage::scrub::{ScrubReport, ScrubbablePageStore, Scrubber};

use crate::manifest::{Manifest, ManifestVersion};
use crate::memtable::{MemEntry, Memtable};
use crate::segment::{Segment, SidecarConfig};
use crate::wal::{
    decode_segment_snapshot, encode_segment_snapshot, replay, Replay, Wal, WalDevice, WalOp,
};

/// Tuning for one engine instance.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Dimensionality of ingested vectors.
    pub dim: usize,
    /// Memtable byte budget; exceeding it seals inline on the write path.
    pub memtable_max_bytes: usize,
    /// Hard memtable admission cap: once `approx_bytes` reaches it, writes
    /// are refused with a retryable [`AdmissionError::Busy`] instead of
    /// growing RAM without bound. Inline seals normally keep the memtable
    /// far below this; it bites when sealing is deferred to a background
    /// cadence (the hc-maint ingest daemon) and the writers outrun it.
    pub admission_max_bytes: usize,
    /// Segment count at which [`IngestEngine::maybe_compact`] fires.
    pub compact_min_segments: usize,
    /// Per-segment compact-code sidecar fit.
    pub sidecar: SidecarConfig,
    /// Transient-read retry budget on the segment refine path.
    pub max_read_retries: u32,
    /// Fault profile applied to sealed segment files (seed is re-derived
    /// per segment so each seal rolls its own fault schedule).
    pub fault: Option<FaultConfig>,
    /// Persist each sealed segment's image to the device and truncate the
    /// WAL prefix it covers (DESIGN.md §13.6). Recovery then rebuilds
    /// segments from images and replays only the log tail. Off, the WAL
    /// grows forever and replay starts at byte 0 — the pre-checkpoint
    /// discipline, kept for the raw-log crash properties.
    pub checkpoint_on_seal: bool,
}

impl IngestConfig {
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            memtable_max_bytes: 1 << 20,
            admission_max_bytes: (1 << 20) * 4,
            compact_min_segments: 4,
            sidecar: SidecarConfig::default(),
            max_read_retries: 3,
            fault: None,
            checkpoint_on_seal: true,
        }
    }
}

/// Why a write was refused at admission. Retryable by contract: the engine
/// refused to *take* the op — nothing was logged or applied — so the caller
/// may back off and resubmit without risking a duplicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The memtable is at its admission cap and sealing has not caught up.
    Busy {
        /// Memtable size at refusal.
        memtable_bytes: usize,
        /// The configured [`IngestConfig::admission_max_bytes`].
        limit: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Busy {
                memtable_bytes,
                limit,
            } => write!(
                f,
                "ingest busy: memtable at {memtable_bytes} bytes (admission cap {limit}); retry after a seal"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// What one exact mid-ingest query did and found.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct IngestAnswer {
    /// Ascending `(exact distance, id)`, at most k — exact over the live
    /// set (memtable ∪ segments − tombstones) minus `missing`.
    pub hits: Vec<(f64, PointId)>,
    /// Candidates considered (memtable live rows + segment bound evals).
    pub considered: usize,
    /// Segment candidates eliminated by sidecar lower bounds (no I/O).
    pub pruned: usize,
    /// Exact vectors fetched from segment files.
    pub fetched: usize,
    /// Page reads issued across all segments (device or segment broker).
    pub io_pages: usize,
    /// Transient-fault retries spent.
    pub pages_retried: usize,
    /// Ids lost to unreadable pages that no sidecar bound could exclude
    /// (degraded, never wrong).
    pub missing: Vec<PointId>,
    /// Unreadable rows proven irrelevant by their sidecar lower bound —
    /// losses absorbed without degrading the answer (DESIGN.md §10).
    pub fault_excluded: usize,
    /// Sealed segments visited.
    pub segments_visited: usize,
}

impl IngestAnswer {
    /// The engine-phase slots of a [`RequestTrace`]. The slots are named
    /// after Algorithm 1; a segment's sidecar plays the compact cache, so:
    ///
    /// | slot | ingest meaning |
    /// |---|---|
    /// | `candidates` | memtable rows scanned + segment bound evals (`considered`) |
    /// | `cache_hits`, `pruned` | segment candidates the sidecar bounds answered alone, no I/O |
    /// | `true_results` | hits returned |
    /// | `c_refine`, `fetched` | exact rows fetched from segment files |
    /// | `fault_excluded` | unreadable rows the sidecar bounds proved irrelevant |
    /// | `gen_ns`, `reduce_ns` | 0 — the engine has no phase clock |
    /// | `refine_ns` | `elapsed`, the caller's wall time around [`IngestEngine::query`] |
    /// | `modeled_refine_secs` | `io_model` priced over `io_pages` |
    ///
    /// `io_pages`, `pages_retried` and `missing` (a count) mean what they
    /// mean for the frozen engines.
    pub fn trace(&self, elapsed: Duration, io_model: IoModel) -> RequestTrace {
        RequestTrace {
            candidates: saturate_u32(self.considered),
            cache_hits: saturate_u32(self.pruned),
            pruned: saturate_u32(self.pruned),
            true_results: saturate_u32(self.hits.len()),
            c_refine: saturate_u32(self.fetched),
            fetched: saturate_u32(self.fetched),
            io_pages: saturate_u32(self.io_pages),
            pages_retried: saturate_u32(self.pages_retried),
            fault_excluded: saturate_u32(self.fault_excluded),
            missing: saturate_u32(self.missing.len()),
            refine_ns: duration_ns(elapsed),
            modeled_refine_secs: io_model.modeled_time(self.io_pages as u64).as_secs_f64(),
            ..RequestTrace::default()
        }
    }
}

/// A point-in-time ops summary for `/statusz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestStatus {
    pub wal_bytes: usize,
    /// First WAL sequence not covered by persisted segment images — how far
    /// the log has been checkpointed away.
    pub wal_checkpoint_seq: u64,
    pub memtable_points: usize,
    pub memtable_tombstones: usize,
    pub segments: usize,
    pub segment_rows_live: usize,
    pub segment_tombstones: usize,
    pub manifest_generation: u64,
    pub seals: u64,
    pub compactions: u64,
}

/// `ingest.*` telemetry handles (shared-series get-or-create, so several
/// engines on one registry sum).
struct IngestObs {
    inserts: Counter,
    deletes: Counter,
    seals: Counter,
    compactions: Counter,
    wal_replayed: Counter,
    checkpoints: Counter,
    backpressure: Counter,
    wal_bytes: Gauge,
    memtable_points: Gauge,
    segments: Gauge,
    tombstones: Gauge,
    manifest_generation: Gauge,
}

impl IngestObs {
    fn new(registry: &MetricsRegistry) -> Self {
        Self {
            inserts: registry.counter("ingest.inserts"),
            deletes: registry.counter("ingest.deletes"),
            seals: registry.counter("ingest.seals"),
            compactions: registry.counter("ingest.compactions"),
            wal_replayed: registry.counter("ingest.wal_replayed_records"),
            checkpoints: registry.counter("ingest.wal_checkpoints"),
            backpressure: registry.counter("ingest.backpressure"),
            wal_bytes: registry.gauge("ingest.wal_bytes"),
            memtable_points: registry.gauge("ingest.memtable_points"),
            segments: registry.gauge("ingest.segments"),
            tombstones: registry.gauge("ingest.tombstones"),
            manifest_generation: registry.gauge("ingest.manifest_generation"),
        }
    }
}

/// The live-mutable dataset engine.
pub struct IngestEngine {
    config: IngestConfig,
    device: Arc<WalDevice>,
    wal: Wal,
    memtable: RwLock<Memtable>,
    manifest: Manifest,
    /// Serializes the write path (insert/delete/seal/compact). Queries
    /// never take it.
    writer: Mutex<()>,
    next_segment_seq: AtomicU64,
    seals: AtomicU64,
    compactions: AtomicU64,
    obs: IngestObs,
    registry: MetricsRegistry,
}

impl IngestEngine {
    /// A fresh engine over `device` (normally empty; use
    /// [`IngestEngine::recover`] for a device with history).
    pub fn new(device: Arc<WalDevice>, config: IngestConfig, registry: &MetricsRegistry) -> Self {
        assert!(config.dim > 0);
        assert!(config.compact_min_segments >= 2);
        Self {
            config,
            wal: Wal::new(Arc::clone(&device)),
            memtable: RwLock::new(Memtable::new(config.dim)),
            manifest: Manifest::new(device.generation_floor()),
            writer: Mutex::new(()),
            next_segment_seq: AtomicU64::new(1),
            seals: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            obs: IngestObs::new(registry),
            registry: registry.clone(),
            device,
        }
    }

    /// Rebuild the engine's RAM state from the device: restore sealed
    /// segments from persisted images (checkpointed history), then replay
    /// the verified WAL tail — records at or above the checkpoint sequence
    /// — through the normal apply path. The manifest resumes at the
    /// persisted generation floor. On a never-checkpointed device this is
    /// exactly the old replay-from-byte-0 recovery.
    pub fn recover(
        device: Arc<WalDevice>,
        config: IngestConfig,
        registry: &MetricsRegistry,
    ) -> (Self, Replay) {
        let replayed = replay(&device.snapshot());
        let checkpoint = device.checkpoint_seq();
        let engine = Self::new(Arc::clone(&device), config, registry);
        let restored = {
            let _writer = engine.writer.lock().expect("writer lock poisoned");
            let restored = engine.restore_segments();
            for record in &replayed.records {
                // A record below the checkpoint is already inside a
                // restored segment (a crash landed between persist and
                // truncate); applying it again would be harmless (upsert
                // shadowing) but skipping is cleaner.
                if record.seq >= checkpoint {
                    engine.apply(record.op.clone());
                }
            }
            restored
        };
        // Resume sequencing after everything durable: the highest replayed
        // record or the checkpoint floor, whichever is further along.
        let next = replayed
            .records
            .last()
            .map_or(0, |r| r.seq + 1)
            .max(checkpoint);
        let recovered = Wal::resume(Arc::clone(&device), next);
        // SAFETY-free swap: `wal` is only used behind &self, but we own the
        // engine here, so replacing the appender before sharing is fine.
        let mut engine = engine;
        engine.wal = recovered;
        let applied = replayed
            .records
            .iter()
            .filter(|r| r.seq >= checkpoint)
            .count();
        engine.obs.wal_replayed.add(applied as u64);
        engine.registry.event(
            "ingest.wal_replay",
            &format!(
                "records={applied} segments_restored={restored} checkpoint_seq={checkpoint} \
                 end={:?} verified_bytes={} generation_floor={}",
                replayed.end,
                replayed.verified_bytes,
                device.generation_floor()
            ),
        );
        engine.refresh_gauges();
        (engine, replayed)
    }

    /// Rebuild sealed segments from the device's persisted images, oldest
    /// first so newer segments shadow older ones exactly as live seals did.
    /// Returns how many were restored. Caller holds the writer lock.
    fn restore_segments(&self) -> usize {
        let blobs = self.device.load_segments();
        if blobs.is_empty() {
            return 0;
        }
        let mut version = (*self.manifest.current()).clone();
        let mut max_seq = 0;
        let mut restored = 0;
        for (seq, bytes) in blobs {
            let Some((image_seq, dim, rows, tombstones)) = decode_segment_snapshot(&bytes) else {
                continue; // structurally invalid image: discarded whole
            };
            if image_seq != seq || dim != self.config.dim {
                continue;
            }
            version = version.with_new_segment(self.build_segment(seq, rows, tombstones));
            max_seq = max_seq.max(seq);
            restored += 1;
        }
        if restored > 0 {
            let generation = self.manifest.swap(version);
            self.device.publish_generation(generation);
            self.next_segment_seq
                .fetch_max(max_seq + 1, Ordering::AcqRel);
        }
        restored
    }

    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// The durable medium (share it across engine incarnations to simulate
    /// crash/restart).
    pub fn device(&self) -> &Arc<WalDevice> {
        &self.device
    }

    /// Durable upsert. `Ok` carries the WAL sequence number — by the time
    /// this returns, the write survives any crash. `Err(Busy)` means the
    /// memtable is at its admission cap: nothing was logged or applied, and
    /// the caller should back off and retry after a seal catches up.
    pub fn insert(&self, id: PointId, vector: Vec<f32>) -> Result<u64, AdmissionError> {
        assert_eq!(vector.len(), self.config.dim, "dimensionality mismatch");
        let _writer = self.writer.lock().expect("writer lock poisoned");
        self.admit()?;
        let seq = self.wal.append(WalOp::Insert {
            id,
            vector: vector.clone(),
        });
        self.obs.inserts.inc();
        self.apply(WalOp::Insert { id, vector });
        Ok(seq)
    }

    /// Durable delete (tombstone). Same admission contract as
    /// [`IngestEngine::insert`] — a tombstone is a memtable entry too.
    pub fn delete(&self, id: PointId) -> Result<u64, AdmissionError> {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        self.admit()?;
        let seq = self.wal.append(WalOp::Delete { id });
        self.obs.deletes.inc();
        self.apply(WalOp::Delete { id });
        Ok(seq)
    }

    /// Admission control on the write path: refuse (retryably, before the
    /// WAL append) once the memtable has blown past its hard cap. Caller
    /// holds the writer lock.
    fn admit(&self) -> Result<(), AdmissionError> {
        let memtable_bytes = self
            .memtable
            .read()
            .expect("memtable lock poisoned")
            .approx_bytes();
        if memtable_bytes >= self.config.admission_max_bytes {
            self.obs.backpressure.inc();
            return Err(AdmissionError::Busy {
                memtable_bytes,
                limit: self.config.admission_max_bytes,
            });
        }
        Ok(())
    }

    /// Apply one (already durable) op to the memtable; seal inline if the
    /// budget is blown. Caller holds the writer lock.
    fn apply(&self, op: WalOp) {
        let over_budget = {
            let mut mem = self.memtable.write().expect("memtable lock poisoned");
            match op {
                WalOp::Insert { id, vector } => mem.insert(id, vector),
                WalOp::Delete { id } => mem.delete(id),
            }
            mem.approx_bytes() > self.config.memtable_max_bytes
        };
        if over_budget {
            self.seal_locked();
        }
        self.refresh_gauges();
    }

    /// Seal the memtable into a new segment (no-op when empty). Returns
    /// `true` if a segment was published.
    pub fn seal(&self) -> bool {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let sealed = self.seal_locked();
        self.refresh_gauges();
        sealed
    }

    fn seal_locked(&self) -> bool {
        let (live, tombstones) = {
            let mem = self.memtable.read().expect("memtable lock poisoned");
            if mem.is_empty() {
                return false;
            }
            mem.snapshot_for_seal()
        };
        let seq = self.next_segment_seq.fetch_add(1, Ordering::AcqRel);
        let rows = live.len();
        let tombs = tombstones.len();
        // Encode the durable image before the snapshot moves into the
        // segment build.
        let image = self
            .config
            .checkpoint_on_seal
            .then(|| encode_segment_snapshot(seq, self.config.dim, &live, &tombstones));
        let segment = self.build_segment(seq, live, tombstones);
        let version = self.manifest.current().with_new_segment(segment);
        let generation = self.manifest.swap(version);
        self.device.publish_generation(generation);
        if let Some(image) = image {
            // Persist the image, then checkpoint. The writer lock is held,
            // so the log holds exactly the records applied to this seal's
            // snapshot or to earlier (already persisted) seals — the whole
            // log is covered and truncates away. A crash between the two
            // calls merely leaves records double-covered; replay skips them
            // by sequence number.
            self.device.persist_segment(seq, image);
            self.device.checkpoint(self.wal.next_seq());
            self.obs.checkpoints.inc();
        }
        // Swap first, clear second: queries between the two see the data
        // twice-shadowed (mask wins), never zero times.
        self.memtable
            .write()
            .expect("memtable lock poisoned")
            .clear();
        self.seals.fetch_add(1, Ordering::Relaxed);
        self.obs.seals.inc();
        self.registry.event(
            "ingest.seal",
            &format!(
                "seq={seq} rows={rows} tombstones={tombs} generation={generation} \
                 checkpoint_seq={}",
                self.device.checkpoint_seq()
            ),
        );
        true
    }

    /// Build segment `seq` under this engine's sidecar fit, with its own
    /// fault schedule (same profile, fresh seed per seal) and its read
    /// retries counted in the engine's registry.
    fn build_segment(
        &self,
        seq: u64,
        live: Vec<(u32, Vec<f32>)>,
        tombstones: Vec<u32>,
    ) -> Arc<Segment> {
        let fault = self.config.fault.map(|f| FaultConfig {
            seed: f.seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..f
        });
        let segment = Segment::build(
            seq,
            live,
            tombstones,
            self.config.dim,
            self.config.sidecar,
            fault,
        );
        segment.bind_obs(&self.registry);
        Arc::new(segment)
    }

    /// Merge the whole segment stack into one when it has grown to
    /// `compact_min_segments` — the cache-rebuild-on-compaction step: the
    /// merged segment gets a fresh compact-code sidecar fitted to the
    /// merged distribution, and every tombstone is dropped (the output is
    /// the oldest level). Returns `true` if a compaction ran.
    pub fn maybe_compact(&self) -> bool {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let version = self.manifest.current();
        if version.num_segments() < self.config.compact_min_segments {
            return false;
        }
        let inputs = version.num_segments();
        let input_seqs: Vec<u64> = version.segments().iter().map(|e| e.segment.seq()).collect();
        let rows = version.merged_rows();
        let dropped_tombstones = version.total_tombstones();
        let out_rows = rows.len();
        let seq = self.next_segment_seq.fetch_add(1, Ordering::AcqRel);
        let image = self
            .config
            .checkpoint_on_seal
            .then(|| encode_segment_snapshot(seq, self.config.dim, &rows, &[]));
        let merged = self.build_segment(seq, rows, Vec::new());
        let generation = self.manifest.swap(ManifestVersion::compacted(merged));
        self.device.publish_generation(generation);
        if let Some(image) = image {
            // Same persist-then-remove ordering as seal: a crash between
            // the two leaves inputs and merged output both on the device,
            // where restore's newest-shadows-oldest makes the duplication
            // harmless.
            self.device.persist_segment(seq, image);
            self.device.remove_segments(&input_seqs);
        }
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.obs.compactions.inc();
        self.registry.event(
            "ingest.compaction",
            &format!(
                "inputs={inputs} rows={out_rows} dropped_tombstones={dropped_tombstones} generation={generation}"
            ),
        );
        self.refresh_gauges();
        true
    }

    /// Exact top-k over the live set, mid-ingest. See the module docs for
    /// why the memtable-then-manifest read order is exact lock-free.
    pub fn query(&self, q: &[f32], k: usize) -> IngestAnswer {
        assert_eq!(q.len(), self.config.dim, "query dimensionality mismatch");
        let (mem_hits, mask, mem_live) = {
            let mem = self.memtable.read().expect("memtable lock poisoned");
            (mem.top_k(q, k), mem.mask(), mem.live_points())
        };
        let version = self.manifest.current();
        let mut answer = IngestAnswer {
            considered: mem_live,
            segments_visited: version.num_segments(),
            ..IngestAnswer::default()
        };
        let mut merged = mem_hits;
        for entry in version.segments() {
            let search = entry.segment.top_k(
                q,
                k,
                &entry.live_locals,
                &mask,
                self.config.max_read_retries,
            );
            answer.considered += search.considered;
            answer.pruned += search.pruned;
            answer.fetched += search.fetched;
            answer.io_pages += search.io_pages;
            answer.pages_retried += search.pages_retried;
            answer.missing.extend(search.missing);
            answer.fault_excluded += search.fault_excluded;
            merged.extend(search.hits);
        }
        merged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        merged.truncate(k);
        answer.hits = merged;
        answer
    }

    /// The exact vector currently live for `id`, if any — offline (memtable
    /// or segment replica), for verification harnesses.
    pub fn get(&self, id: PointId) -> Option<Vec<f32>> {
        {
            let mem = self.memtable.read().expect("memtable lock poisoned");
            match mem.get(id) {
                Some(MemEntry::Live(v)) => return Some(v.clone()),
                Some(MemEntry::Tombstone) => return None,
                None => {}
            }
        }
        let version = self.manifest.current();
        for entry in version.segments() {
            if entry.segment.is_tombstoned(id.0) {
                return None;
            }
            if let Ok(at) = entry
                .live_locals
                .binary_search_by_key(&id.0, |&local| entry.segment.key_of(local))
            {
                return Some(entry.segment.row(entry.live_locals[at]).to_vec());
            }
            // A key stored but not in live_locals is shadowed *here*, which
            // can't happen while scanning newest-first — but a tombstone in
            // a newer segment already returned None above.
            if entry.segment.contains_key(id.0) {
                return None;
            }
        }
        None
    }

    /// All live ids (memtable ∪ segments − tombstones) — the brute-force
    /// reference set for exactness checks.
    pub fn live_ids(&self) -> HashSet<u32> {
        let (mut ids, mask) = {
            let mem = self.memtable.read().expect("memtable lock poisoned");
            let live: HashSet<u32> = mem
                .mask()
                .into_iter()
                .filter(|&id| matches!(mem.get(PointId(id)), Some(MemEntry::Live(_))))
                .collect();
            (live, mem.mask())
        };
        for entry in self.manifest.current().segments() {
            for &local in &entry.live_locals {
                let id = entry.segment.key_of(local);
                if !mask.contains(&id) {
                    ids.insert(id);
                }
            }
        }
        ids
    }

    /// Scrub every sealed segment's pages (transient retries, replica
    /// repair) in one fleet pass — the base `PointFile` discipline applied
    /// to the mutable path's files.
    pub fn scrub(&self) -> ScrubReport {
        let version = self.manifest.current();
        let stores: Vec<Arc<dyn ScrubbablePageStore>> = version
            .segments()
            .iter()
            .map(|e| Arc::clone(e.segment.store()))
            .collect();
        Scrubber::default().run_many(stores.iter().map(|s| s.as_ref()))
    }

    /// Point-in-time ops summary (the `/statusz` ingest section).
    pub fn status(&self) -> IngestStatus {
        let (memtable_points, memtable_tombstones) = {
            let mem = self.memtable.read().expect("memtable lock poisoned");
            (mem.live_points(), mem.tombstones())
        };
        let version = self.manifest.current();
        IngestStatus {
            wal_bytes: self.device.len(),
            wal_checkpoint_seq: self.device.checkpoint_seq(),
            memtable_points,
            memtable_tombstones,
            segments: version.num_segments(),
            segment_rows_live: version.total_live(),
            segment_tombstones: version.total_tombstones(),
            manifest_generation: self.manifest.generation(),
            seals: self.seals.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }

    pub fn manifest_generation(&self) -> u64 {
        self.manifest.generation()
    }

    fn refresh_gauges(&self) {
        let s = self.status();
        self.obs.wal_bytes.set(s.wal_bytes as f64);
        self.obs.memtable_points.set(s.memtable_points as f64);
        self.obs.segments.set(s.segments as f64);
        self.obs
            .tombstones
            .set((s.memtable_tombstones + s.segment_tombstones) as f64);
        self.obs
            .manifest_generation
            .set(s.manifest_generation as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_core::distance::euclidean;

    fn vec_for(id: u32, dim: usize) -> Vec<f32> {
        (0..dim)
            .map(|j| ((id as usize * 31 + j * 7) % 23) as f32)
            .collect()
    }

    fn engine(dim: usize) -> IngestEngine {
        IngestEngine::new(
            Arc::new(WalDevice::new()),
            IngestConfig::new(dim),
            &MetricsRegistry::new(),
        )
    }

    /// The answer → trace slot mapping, pinned where it lives. Every input
    /// is a distinct value, so a swapped pair of slots cannot pass.
    #[test]
    fn trace_maps_the_answer_onto_the_engine_slots() {
        let answer = IngestAnswer {
            hits: vec![(0.5, PointId(1)), (0.7, PointId(2)), (0.9, PointId(4))],
            considered: 120,
            pruned: 90,
            fetched: 17,
            io_pages: 14,
            pages_retried: 6,
            missing: vec![PointId(7), PointId(8)],
            fault_excluded: 5,
            segments_visited: 2,
        };
        let io_model = IoModel::SSD;
        assert_eq!(
            answer.trace(Duration::from_micros(250), io_model),
            RequestTrace {
                candidates: 120,
                cache_hits: 90, // sidecar-pruned: answered without I/O
                pruned: 90,
                true_results: 3,
                c_refine: 17, // exact fetches
                fetched: 17,
                io_pages: 14,
                pages_retried: 6,
                fault_excluded: 5,
                missing: 2,
                gen_ns: 0,
                reduce_ns: 0,
                refine_ns: 250_000, // the whole evaluation
                modeled_refine_secs: io_model.modeled_time(14).as_secs_f64(),
                ..RequestTrace::default()
            }
        );
    }

    /// Brute-force oracle over the engine's own live set.
    fn oracle(e: &IngestEngine, q: &[f32], k: usize) -> Vec<(f64, PointId)> {
        let mut hits: Vec<(f64, PointId)> = e
            .live_ids()
            .into_iter()
            .map(|id| {
                let v = e.get(PointId(id)).expect("live id must resolve");
                (euclidean(q, &v), PointId(id))
            })
            .collect();
        hits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        hits.truncate(k);
        hits
    }

    #[test]
    fn queries_stay_exact_through_seal_and_compaction() {
        let e = engine(6);
        let q: Vec<f32> = (0..6).map(|j| j as f32 * 1.3).collect();
        for id in 0..40u32 {
            e.insert(PointId(id), vec_for(id, 6)).expect("admitted");
            if id % 10 == 3 {
                e.delete(PointId(id / 2)).expect("admitted");
            }
            // Exact after every single mutation.
            assert_eq!(e.query(&q, 5).hits, oracle(&e, &q, 5), "after op {id}");
        }
        assert!(e.seal());
        assert_eq!(e.query(&q, 5).hits, oracle(&e, &q, 5), "after seal");
        // More traffic over sealed data, then more seals and a compaction.
        for id in 40..80u32 {
            e.insert(PointId(id), vec_for(id + 1, 6)).expect("admitted");
            e.delete(PointId(id - 35)).expect("admitted");
            if id % 10 == 0 {
                e.seal();
            }
        }
        assert!(e.status().segments >= 4);
        assert_eq!(e.query(&q, 7).hits, oracle(&e, &q, 7), "multi-segment");
        assert!(e.maybe_compact());
        let s = e.status();
        assert_eq!(s.segments, 1);
        assert_eq!(s.segment_tombstones, 0, "compaction drops tombstones");
        assert_eq!(e.query(&q, 7).hits, oracle(&e, &q, 7), "after compaction");
    }

    #[test]
    fn upserts_resolve_to_the_newest_version_across_levels() {
        let e = engine(2);
        e.insert(PointId(1), vec![1.0, 1.0]).expect("admitted");
        e.seal();
        e.insert(PointId(1), vec![100.0, 100.0]).expect("admitted"); // rewrite in memtable
        let hits = e.query(&[99.0, 99.0], 1).hits;
        assert_eq!(hits[0].1, PointId(1));
        assert!(
            (hits[0].0 - 2.0f64.sqrt()).abs() < 1e-6,
            "newest version wins"
        );
        e.seal(); // now two segments, newer shadows older
        let hits = e.query(&[99.0, 99.0], 1).hits;
        assert!((hits[0].0 - 2.0f64.sqrt()).abs() < 1e-6);
        assert_eq!(e.get(PointId(1)), Some(vec![100.0, 100.0]));
    }

    #[test]
    fn deletes_mask_sealed_data() {
        let e = engine(2);
        e.insert(PointId(1), vec![0.0, 0.0]).expect("admitted");
        e.insert(PointId(2), vec![1.0, 1.0]).expect("admitted");
        e.seal();
        e.delete(PointId(1)).expect("admitted"); // tombstone in memtable over sealed row
        assert_eq!(e.query(&[0.0, 0.0], 5).hits.len(), 1);
        assert_eq!(e.get(PointId(1)), None);
        e.seal(); // tombstone sealed into its own segment
        assert_eq!(e.query(&[0.0, 0.0], 5).hits.len(), 1);
        assert_eq!(e.get(PointId(1)), None);
        assert_eq!(e.live_ids().len(), 1);
    }

    #[test]
    fn memtable_budget_seals_inline() {
        let mut config = IngestConfig::new(4);
        config.memtable_max_bytes = 200; // a few entries
        let e = IngestEngine::new(Arc::new(WalDevice::new()), config, &MetricsRegistry::new());
        for id in 0..50u32 {
            e.insert(PointId(id), vec_for(id, 4)).expect("admitted");
        }
        let s = e.status();
        assert!(s.seals > 0, "budget must force seals");
        assert!(s.memtable_points < 50);
        assert_eq!(e.live_ids().len(), 50);
    }

    #[test]
    fn crash_and_recover_preserves_exactly_the_acked_writes() {
        let device = Arc::new(WalDevice::new());
        let registry = MetricsRegistry::new();
        let q = [0.5f32, 0.5];
        let (pre_hits, pre_generation) = {
            let e = IngestEngine::new(Arc::clone(&device), IngestConfig::new(2), &registry);
            for id in 0..30u32 {
                e.insert(PointId(id), vec![id as f32, (id % 7) as f32])
                    .expect("admitted");
            }
            e.delete(PointId(4)).expect("admitted");
            e.seal();
            e.insert(PointId(40), vec![0.25, 0.25]).expect("admitted");
            (e.query(&q, 5).hits, e.manifest_generation())
        }; // crash: engine dropped, device survives
        assert!(pre_generation > 0);

        // A torn half-record on the tail — an unacked write mid-crash.
        let torn = crate::wal::encode_record(&crate::wal::WalRecord {
            seq: 999,
            op: WalOp::Insert {
                id: PointId(41),
                vector: vec![9.0, 9.0],
            },
        });
        device.append_torn(&torn, torn.len() - 3);

        let (e2, replayed) =
            IngestEngine::recover(Arc::clone(&device), IngestConfig::new(2), &registry);
        // The seal checkpointed: the 31 pre-seal records live in the
        // persisted segment image, so replay surfaces only the tail insert.
        assert_eq!(replayed.records.len(), 1, "post-checkpoint tail only");
        assert_eq!(replayed.end, crate::wal::ReplayEnd::TornTail);
        assert_eq!(e2.status().wal_checkpoint_seq, 31);
        assert_eq!(e2.get(PointId(41)), None, "unacked write must not surface");
        assert_eq!(e2.get(PointId(4)), None, "acked delete survives");
        assert_eq!(e2.get(PointId(40)), Some(vec![0.25, 0.25]));
        assert_eq!(e2.live_ids().len(), 30); // 30 inserts − 1 delete + 1 insert
        assert_eq!(e2.query(&q, 5).hits, pre_hits, "recovered answers match");
        assert!(
            e2.manifest_generation() >= pre_generation,
            "generation resumes at or above the persisted floor"
        );
        assert_eq!(
            registry.snapshot().counter("ingest.wal_replayed_records"),
            Some(1)
        );
    }

    #[test]
    fn seal_checkpoints_the_wal_and_compaction_swaps_the_images() {
        let device = Arc::new(WalDevice::new());
        let registry = MetricsRegistry::new();
        let mut config = IngestConfig::new(2);
        config.compact_min_segments = 2;
        let e = IngestEngine::new(Arc::clone(&device), config, &registry);
        for id in 0..10u32 {
            e.insert(PointId(id), vec![id as f32, 0.0])
                .expect("admitted");
        }
        let before_seal = device.len();
        assert!(before_seal > 0);
        assert!(e.seal());
        // The log is truncated; the sealed data lives in one durable image.
        assert_eq!(device.len(), 0, "seal must checkpoint the WAL away");
        assert_eq!(device.checkpoint_seq(), 10);
        assert_eq!(device.segment_count(), 1);
        assert_eq!(e.status().wal_checkpoint_seq, 10);

        for id in 10..14u32 {
            e.insert(PointId(id), vec![id as f32, 1.0])
                .expect("admitted");
        }
        e.seal();
        assert_eq!(device.segment_count(), 2);
        assert!(e.maybe_compact());
        // Compaction persisted the merged image and removed its inputs.
        assert_eq!(device.segment_count(), 1);
        assert_eq!(
            registry.snapshot().counter("ingest.wal_checkpoints"),
            Some(2)
        );

        // Crash with an empty log: everything comes back from images alone.
        drop(e);
        let (e2, replayed) = IngestEngine::recover(Arc::clone(&device), config, &registry);
        assert_eq!(replayed.records.len(), 0, "no log tail to replay");
        assert_eq!(e2.live_ids().len(), 14);
        for id in 0..14u32 {
            let y = if id < 10 { 0.0 } else { 1.0 };
            assert_eq!(e2.get(PointId(id)), Some(vec![id as f32, y]));
        }
    }

    #[test]
    fn recovery_replays_only_the_tail_across_many_checkpoints() {
        let device = Arc::new(WalDevice::new());
        let registry = MetricsRegistry::new();
        let mut config = IngestConfig::new(2);
        config.memtable_max_bytes = 4 * (24 + 2 * 4); // ~4 entries per seal
        let e = IngestEngine::new(Arc::clone(&device), config, &registry);
        for id in 0..40u32 {
            e.insert(PointId(id), vec![id as f32, 2.0])
                .expect("admitted");
            if id % 9 == 0 {
                e.delete(PointId(id / 3)).expect("admitted");
            }
        }
        let status = e.status();
        assert!(status.seals >= 3, "budget must force several seals");
        assert!(status.wal_checkpoint_seq > 0);
        let live_before: usize = e.live_ids().len();
        let tail_records = replay(&device.snapshot()).records.len();
        assert!(
            device.len() < 40 * (2 * 4 + 64),
            "the log must hold only the post-checkpoint tail"
        );
        drop(e);
        let (e2, replayed) = IngestEngine::recover(Arc::clone(&device), config, &registry);
        assert_eq!(replayed.records.len(), tail_records);
        assert_eq!(e2.live_ids().len(), live_before);
    }

    #[test]
    fn admission_cap_refuses_retryably_under_memtable_pressure() {
        let registry = MetricsRegistry::new();
        let mut config = IngestConfig::new(4);
        // Sealing deferred (background cadence owns it); tiny admission cap.
        config.memtable_max_bytes = usize::MAX;
        config.admission_max_bytes = 5 * (4 * 4 + 64);
        let e = IngestEngine::new(Arc::new(WalDevice::new()), config, &registry);
        let mut admitted = 0u32;
        let err = loop {
            match e.insert(PointId(admitted), vec_for(admitted, 4)) {
                Ok(_) => admitted += 1,
                Err(err) => break err,
            }
        };
        assert!(admitted >= 4, "cap must admit a few entries first");
        let AdmissionError::Busy {
            memtable_bytes,
            limit,
        } = err;
        assert!(memtable_bytes >= limit);
        // Deletes are refused under the same pressure (tombstones are
        // memtable entries too), and nothing was logged for refused ops.
        assert_eq!(
            e.delete(PointId(0)).unwrap_err(),
            AdmissionError::Busy {
                memtable_bytes,
                limit
            }
        );
        let wal_bytes = e.status().wal_bytes;
        assert_eq!(e.live_ids().len(), admitted as usize);
        // A seal drains the memtable; admission reopens — the error was
        // genuinely retryable.
        assert!(e.seal());
        e.insert(PointId(999), vec_for(999, 4)).expect("readmitted");
        assert!(e.status().wal_bytes < wal_bytes, "checkpoint ran at seal");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ingest.backpressure"), Some(2));
        assert_eq!(snap.counter("ingest.inserts"), Some(admitted as u64 + 1));
    }

    #[test]
    fn faulted_segments_degrade_but_never_lie_and_scrub_recovers() {
        // 150-dim rows → 6 per page → real multi-page segments for faults.
        let mut config = IngestConfig::new(150);
        config.memtable_max_bytes = usize::MAX; // seal manually
        config.fault = Some(FaultConfig {
            seed: 21,
            transient_rate: 0.2,
            unreadable_rate: 0.2,
            ..FaultConfig::none()
        });
        config.max_read_retries = 4;
        let e = IngestEngine::new(Arc::new(WalDevice::new()), config, &MetricsRegistry::new());
        for id in 0..150u32 {
            e.insert(PointId(id), vec_for(id, 150)).expect("admitted");
        }
        e.seal();
        let q: Vec<f32> = (0..150).map(|j| ((j % 8) * 2) as f32).collect();
        let answer = e.query(&q, 8);
        // Hits are exact over live − missing.
        let missing: HashSet<u32> = answer.missing.iter().map(|id| id.0).collect();
        let want: Vec<(f64, PointId)> = {
            let mut all: Vec<(f64, PointId)> = e
                .live_ids()
                .into_iter()
                .filter(|id| !missing.contains(id))
                .map(|id| (euclidean(&q, &e.get(PointId(id)).unwrap()), PointId(id)))
                .collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            all.truncate(8);
            all
        };
        assert_eq!(answer.hits, want);
        // Scrub the fleet; afterwards nothing is missing.
        let report = e.scrub();
        assert!(report.is_clean(), "scrub must repair sealed segments");
        let after = e.query(&q, 8);
        assert!(after.missing.is_empty());
        assert_eq!(after.hits, oracle(&e, &q, 8));
    }

    #[test]
    fn status_and_gauges_reflect_the_lifecycle() {
        let registry = MetricsRegistry::new();
        let e = IngestEngine::new(Arc::new(WalDevice::new()), IngestConfig::new(2), &registry);
        for id in 0..10u32 {
            e.insert(PointId(id), vec![id as f32, 0.0])
                .expect("admitted");
        }
        e.delete(PointId(0)).expect("admitted");
        e.seal();
        let s = e.status();
        assert_eq!(s.segments, 1);
        assert_eq!(s.memtable_points, 0);
        assert_eq!(s.segment_rows_live, 9);
        assert_eq!(s.segment_tombstones, 1);
        assert_eq!(s.wal_bytes, 0, "the seal checkpointed the log away");
        assert_eq!(s.wal_checkpoint_seq, 11);
        assert_eq!(s.manifest_generation, 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ingest.inserts"), Some(10));
        assert_eq!(snap.counter("ingest.deletes"), Some(1));
        assert_eq!(snap.counter("ingest.seals"), Some(1));
        assert_eq!(snap.gauge("ingest.segments"), Some(1.0));
        assert_eq!(snap.gauge("ingest.manifest_generation"), Some(1.0));
        let events = registry.events().to_vec();
        assert!(events.iter().any(|ev| ev.kind == "ingest.seal"));
    }
}
