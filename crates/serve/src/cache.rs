//! The daemon's memory: an LRU-bounded map from canonical IR hashes to
//! per-application entries holding the parsed blocks, their reusable
//! [`ContextData`] and memoised selections.
//!
//! Submitting the same block twice costs one parse and zero context
//! builds; requesting the same selection twice costs a map lookup. Both
//! hit/miss pairs are counted and exposed through the `stats` request.

use crate::disk::{DiskLog, Record};
use isegen_core::{BlockContext, ContextData, IseConfig, IseSelection, SearchConfig};
use isegen_ir::{text, Application, LatencyModel, TextError};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Why a submit was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The IR text did not parse.
    Ir(TextError),
    /// A different program already occupies this content hash. FNV-1a is
    /// not collision-resistant, so identity is verified by comparing the
    /// canonical text on every hit — serving one program's ISEs for
    /// another would be silently wrong hardware.
    HashCollision,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Ir(e) => write!(f, "{e}"),
            SubmitError::HashCollision => write!(
                f,
                "content hash collides with a different cached program; \
                 rename the app or evict the cache"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// FNV-1a 64-bit hash — the content key of canonical IR text.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Locks a mutex, surviving poisoning: a panicking worker thread must
/// not take the whole cache down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Everything that distinguishes one selection run from another on the
/// same application. Thread count is deliberately absent: the driver's
/// selection is byte-identical at every thread count, so one memoised
/// selection serves them all.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SelectionKey {
    pub(crate) io: (u32, u32),
    pub(crate) max_ises: usize,
    pub(crate) reuse_matching: bool,
    pub(crate) max_passes: usize,
    pub(crate) restarts: usize,
    /// Gain weights by bit pattern (exact; `-0.0` and `0.0` differ).
    pub(crate) weights: [u64; 5],
    /// Multilevel knobs `(min_coarse_ops, max_levels, boundary_band)`
    /// when the coarsen→K-L→uncoarsen pipeline is on; `None` keeps
    /// single-level memos from ever aliasing multilevel ones.
    pub(crate) multilevel: Option<(usize, usize, usize)>,
}

impl SelectionKey {
    /// Derives the key from a driver + search configuration.
    pub fn new(config: &IseConfig, search: &SearchConfig) -> Self {
        let w = &search.weights;
        SelectionKey {
            io: (config.io.max_inputs(), config.io.max_outputs()),
            max_ises: config.max_ises,
            reuse_matching: config.reuse_matching,
            max_passes: search.max_passes,
            restarts: search.restarts,
            weights: [
                w.merit().to_bits(),
                w.io_penalty().to_bits(),
                w.affinity().to_bits(),
                w.growth().to_bits(),
                w.independence().to_bits(),
            ],
            multilevel: search
                .multilevel
                .map(|ml| (ml.min_coarse_ops, ml.max_levels, ml.boundary_band)),
        }
    }
}

/// One cached application: parsed blocks, canonical text, per-block
/// context data and memoised selections.
#[derive(Debug)]
pub struct AppEntry {
    /// The parsed application.
    pub app: Application,
    /// Canonical serialization (the hashed bytes).
    pub canonical: String,
    /// Per-block search precomputation, in block order.
    pub contexts: Vec<Arc<ContextData>>,
    selections: Mutex<HashMap<SelectionKey, Arc<IseSelection>>>,
}

impl AppEntry {
    fn build(text_ir: &str, model: &LatencyModel) -> Result<AppEntry, TextError> {
        let app = text::parse_application(text_ir)?;
        let canonical = text::write_application(&app);
        let contexts = app
            .blocks()
            .iter()
            .map(|b| BlockContext::new(b, model).data())
            .collect();
        Ok(AppEntry {
            app,
            canonical,
            contexts,
            selections: Mutex::new(HashMap::new()),
        })
    }

    /// Reattaches the cached data to live [`BlockContext`]s (cheap; no
    /// recomputation).
    pub fn contexts(&self) -> Vec<BlockContext<'_>> {
        self.app
            .blocks()
            .iter()
            .zip(&self.contexts)
            .map(|(b, d)| BlockContext::with_data(b, Arc::clone(d)))
            .collect()
    }

    /// The memoised selection for `key`, if any.
    pub fn cached_selection(&self, key: &SelectionKey) -> Option<Arc<IseSelection>> {
        lock(&self.selections).get(key).cloned()
    }

    /// Memoises `selection` under `key` (first writer wins; the race can
    /// only store identical values because the drivers are
    /// deterministic). Returns whether this call was the first writer.
    pub fn store_selection(&self, key: SelectionKey, selection: Arc<IseSelection>) -> bool {
        let mut selections = lock(&self.selections);
        if selections.contains_key(&key) {
            return false;
        }
        selections.insert(key, selection);
        true
    }
}

/// A point-in-time view of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found an application entry.
    pub context_hits: u64,
    /// Lookups that missed (unknown hash or fresh submit).
    pub context_misses: u64,
    /// Selection requests answered from the memo.
    pub selection_hits: u64,
    /// Selection requests that had to run the driver.
    pub selection_misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
}

/// Whether a replayed selection's shape still matches the application
/// it claims to memoise: every block index in range and every node set
/// sized exactly to its block's DAG. Anything else would feed the
/// search structures sets of the wrong capacity.
fn selection_fits(entry: &AppEntry, selection: &IseSelection) -> bool {
    let blocks = entry.app.blocks();
    let fits = |block_index: usize, nodes: &isegen_graph::NodeSet| {
        blocks
            .get(block_index)
            .is_some_and(|b| b.dag().node_count() == nodes.capacity())
    };
    selection.ises.iter().all(|ise| {
        fits(ise.block_index, ise.cut.nodes())
            && ise
                .instances
                .iter()
                .all(|inst| fits(inst.block_index, &inst.nodes))
    })
}

#[derive(Default)]
struct Lru {
    map: HashMap<u64, Arc<AppEntry>>,
    /// Keys from least- to most-recently used.
    order: VecDeque<u64>,
}

impl Lru {
    fn touch(&mut self, hash: u64) {
        if let Some(i) = self.order.iter().position(|&h| h == hash) {
            self.order.remove(i);
        }
        self.order.push_back(hash);
    }
}

/// A snapshot of the disk-tier counters, present when the cache was
/// opened with a log path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskCounters {
    /// Records successfully appended (and fsync'd) this run.
    pub appends: u64,
    /// Append attempts that failed at the I/O layer (the cache keeps
    /// serving from memory; the log may miss those records).
    pub append_errors: u64,
    /// Applications rebuilt from the log on boot.
    pub replayed_apps: u64,
    /// Selection memos rebuilt from the log on boot.
    pub replayed_selections: u64,
    /// Replayed records skipped because they no longer validate against
    /// their application (shape mismatch after a format change).
    pub skipped_records: u64,
    /// Bytes of corrupt tail truncated on boot (torn write recovery).
    pub truncated_bytes: u64,
}

/// Mutable state behind the disk tier.
struct DiskTier {
    log: DiskLog,
    appends: AtomicU64,
    append_errors: AtomicU64,
    replayed_apps: u64,
    replayed_selections: u64,
    skipped_records: u64,
    truncated_bytes: u64,
}

/// The LRU-bounded application cache shared by every worker thread.
pub struct ServeCache {
    capacity: usize,
    model: LatencyModel,
    lru: Mutex<Lru>,
    disk: Option<DiskTier>,
    context_hits: AtomicU64,
    context_misses: AtomicU64,
    selection_hits: AtomicU64,
    selection_misses: AtomicU64,
    evictions: AtomicU64,
}

impl ServeCache {
    /// An empty cache bounded to `capacity` applications (minimum 1).
    pub fn new(capacity: usize, model: LatencyModel) -> ServeCache {
        ServeCache {
            capacity: capacity.max(1),
            model,
            lru: Mutex::new(Lru::default()),
            disk: None,
            context_hits: AtomicU64::new(0),
            context_misses: AtomicU64::new(0),
            selection_hits: AtomicU64::new(0),
            selection_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache backed by the append-only log at `path`: the log's valid
    /// prefix is replayed into memory (warm restart) and every fresh
    /// submit / computed selection is appended and fsync'd from then on.
    ///
    /// Replay is two-pass (applications first, then selections), so log
    /// record order across threads never loses a memo. Records that no
    /// longer validate — unknown app hash, block index or node-set shape
    /// out of range — are counted in
    /// [`DiskCounters::skipped_records`] and ignored.
    pub fn with_disk(
        capacity: usize,
        model: LatencyModel,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<ServeCache> {
        let (log, report) = DiskLog::open(path)?;
        let mut cache = ServeCache::new(capacity, model);
        let mut replayed_apps = 0u64;
        let mut replayed_selections = 0u64;
        let mut skipped = 0u64;
        {
            let mut lru = lock(&cache.lru);
            for record in &report.records {
                let Record::App { hash, canonical } = record else {
                    continue;
                };
                if lru.map.contains_key(hash) {
                    continue;
                }
                match AppEntry::build(canonical, &cache.model) {
                    Ok(entry) if fnv1a(entry.canonical.as_bytes()) == *hash => {
                        lru.map.insert(*hash, Arc::new(entry));
                        lru.touch(*hash);
                        replayed_apps += 1;
                    }
                    _ => skipped += 1,
                }
            }
            for record in report.records {
                let Record::Selection {
                    app_hash,
                    key,
                    selection,
                } = record
                else {
                    continue;
                };
                let Some(entry) = lru.map.get(&app_hash) else {
                    skipped += 1;
                    continue;
                };
                if !selection_fits(entry, &selection) {
                    skipped += 1;
                    continue;
                }
                if entry.store_selection(key, Arc::new(selection)) {
                    replayed_selections += 1;
                }
            }
            // Replaying more applications than the LRU bound keeps the
            // most recently logged ones, like any other insertion burst.
            while lru.map.len() > cache.capacity {
                if let Some(oldest) = lru.order.pop_front() {
                    lru.map.remove(&oldest);
                }
            }
        }
        cache.disk = Some(DiskTier {
            log,
            appends: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
            replayed_apps,
            replayed_selections,
            skipped_records: skipped,
            truncated_bytes: report.truncated_bytes,
        });
        Ok(cache)
    }

    /// Appends `record`, counting instead of failing: a full or broken
    /// disk degrades the warm-restart guarantee, never live serving.
    fn disk_append(&self, record: &Record) {
        if let Some(disk) = &self.disk {
            match disk.log.append(record) {
                Ok(()) => {
                    disk.appends.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    disk.append_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Memoises a *computed* selection and writes it through to the
    /// disk log (replayed selections and memo-hit races append nothing).
    pub fn record_selection(
        &self,
        hash: u64,
        entry: &AppEntry,
        key: SelectionKey,
        selection: Arc<IseSelection>,
    ) {
        if entry.store_selection(key.clone(), Arc::clone(&selection)) {
            self.disk_append(&Record::Selection {
                app_hash: hash,
                key,
                selection: (*selection).clone(),
            });
        }
    }

    /// Snapshot of the disk-tier counters (`None` without a disk tier).
    pub fn disk_counters(&self) -> Option<DiskCounters> {
        self.disk.as_ref().map(|d| DiskCounters {
            appends: d.appends.load(Ordering::Relaxed),
            append_errors: d.append_errors.load(Ordering::Relaxed),
            replayed_apps: d.replayed_apps,
            replayed_selections: d.replayed_selections,
            skipped_records: d.skipped_records,
            truncated_bytes: d.truncated_bytes,
        })
    }

    /// Forces the disk log to stable storage (no-op without a disk
    /// tier). Returns whether the sync succeeded.
    pub fn sync_disk(&self) -> bool {
        match &self.disk {
            Some(d) => d.log.sync().is_ok(),
            None => true,
        }
    }

    /// The latency model entries are built against.
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    /// Parses `text_ir` and returns `(hash, entry, fresh)`, building and
    /// inserting the entry when its canonical form is not cached.
    /// Equivalent texts (whitespace, comments, node naming) dedupe onto
    /// one entry because the hash covers the canonical serialization.
    pub fn submit(&self, text_ir: &str) -> Result<(u64, Arc<AppEntry>, bool), SubmitError> {
        // Parse outside the lock (the expensive part; also the fallible
        // part — a malformed submit never touches the cache).
        let candidate = AppEntry::build(text_ir, &self.model).map_err(SubmitError::Ir)?;
        let hash = fnv1a(candidate.canonical.as_bytes());
        let mut lru = lock(&self.lru);
        if let Some(entry) = lru.map.get(&hash).cloned() {
            if entry.canonical != candidate.canonical {
                return Err(SubmitError::HashCollision);
            }
            lru.touch(hash);
            self.context_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((hash, entry, false));
        }
        self.context_misses.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(candidate);
        lru.map.insert(hash, Arc::clone(&entry));
        lru.touch(hash);
        while lru.map.len() > self.capacity {
            if let Some(oldest) = lru.order.pop_front() {
                lru.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(lru);
        // Write-through outside the LRU lock: replay is two-pass, so a
        // selection append racing ahead of this app record is harmless.
        self.disk_append(&Record::App {
            hash,
            canonical: entry.canonical.clone(),
        });
        Ok((hash, entry, true))
    }

    /// Looks an entry up by hash, counting the hit or miss.
    pub fn get(&self, hash: u64) -> Option<Arc<AppEntry>> {
        let mut lru = lock(&self.lru);
        match lru.map.get(&hash).cloned() {
            Some(entry) => {
                lru.touch(hash);
                self.context_hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            None => {
                self.context_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records the outcome of a selection-memo probe.
    pub fn count_selection(&self, hit: bool) {
        if hit {
            self.selection_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.selection_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            context_hits: self.context_hits.load(Ordering::Relaxed),
            context_misses: self.context_misses.load(Ordering::Relaxed),
            selection_hits: self.selection_hits.load(Ordering::Relaxed),
            selection_misses: self.selection_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: lock(&self.lru).map.len(),
        }
    }
}

impl std::fmt::Debug for ServeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeCache")
            .field("capacity", &self.capacity)
            .field("counters", &self.counters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ir(name: &str) -> String {
        format!("app {name}\nblock b freq 3\n  x = in\n  y = add x x\nend\n")
    }

    #[test]
    fn submit_dedupes_on_canonical_form() {
        let cache = ServeCache::new(8, LatencyModel::paper_default());
        let (h1, _, fresh1) = cache.submit(&tiny_ir("a")).unwrap();
        // Same program, different whitespace/comments/node names.
        let noisy =
            "# hi\napp \"a\"\nblock \"b\" freq 3\n\n  alpha = in\n  beta = add alpha alpha\nend\n";
        let (h2, _, fresh2) = cache.submit(noisy).unwrap();
        assert_eq!(h1, h2);
        assert!(fresh1);
        assert!(!fresh2, "second submit is a cache hit");
        let c = cache.counters();
        assert_eq!((c.context_hits, c.context_misses, c.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let cache = ServeCache::new(2, LatencyModel::paper_default());
        let (ha, ..) = cache.submit(&tiny_ir("a")).unwrap();
        let (hb, ..) = cache.submit(&tiny_ir("b")).unwrap();
        assert!(cache.get(ha).is_some(), "touch a: b is now oldest");
        let (hc, ..) = cache.submit(&tiny_ir("c")).unwrap();
        assert!(cache.get(hb).is_none(), "b evicted");
        assert!(cache.get(ha).is_some());
        assert!(cache.get(hc).is_some());
        let c = cache.counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.entries, 2);
    }

    #[test]
    fn malformed_ir_is_rejected_without_insertion() {
        let cache = ServeCache::new(8, LatencyModel::paper_default());
        assert!(cache.submit("app a\nblock b\n  x = frob\nend\n").is_err());
        assert_eq!(cache.counters().entries, 0);
    }

    #[test]
    fn selection_keys_distinguish_configs() {
        use isegen_core::{GainWeights, IoConstraints};
        let base = IseConfig::paper_default();
        let search = SearchConfig::default();
        let k1 = SelectionKey::new(&base, &search);
        assert_eq!(k1, SelectionKey::new(&base.clone(), &search.clone()));
        let other = IseConfig {
            io: IoConstraints::new(6, 3),
            ..base
        };
        assert_ne!(k1, SelectionKey::new(&other, &search));
        let heavy = GainWeights::new(2.0, 50.0, 1.0, 1.0, 0.5).unwrap();
        let heavy_search = search.clone().with_weights(heavy);
        let kw = SelectionKey::new(&base, &heavy_search);
        assert_ne!(k1, kw);
        assert_eq!(kw, SelectionKey::new(&base, &heavy_search.clone()));
        // Multilevel on/off and each knob must produce distinct keys —
        // a single-level memo must never answer a multilevel request.
        use isegen_core::MultilevelConfig;
        let ml = search.clone().with_multilevel(MultilevelConfig::default());
        let km = SelectionKey::new(&base, &ml);
        assert_ne!(k1, km);
        let ml2 = search
            .clone()
            .with_multilevel(MultilevelConfig::default().with_boundary_band(5));
        assert_ne!(km, SelectionKey::new(&base, &ml2));
        assert_eq!(km, SelectionKey::new(&base, &ml.clone()));
    }
}
