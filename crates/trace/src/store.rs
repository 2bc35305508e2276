//! On-disk trace cache with graceful fallback and corruption quarantine.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rvp_isa::Program;
use rvp_obs::log;

use crate::format::{TraceError, TraceMeta};
use crate::reader::TraceReader;
use crate::writer::capture;

/// Counters describing how a [`TraceStore`] has been used; shared by
/// clones of the store, so a parallel grid reports one total.
#[derive(Debug, Default)]
pub struct StoreCounters {
    hits: AtomicU64,
    captures: AtomicU64,
    fallbacks: AtomicU64,
    quarantined: AtomicU64,
    evicted: AtomicU64,
}

impl StoreCounters {
    /// Traces served straight from disk.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// The counters as unified-registry samples (`rvp_trace_*`).
    pub fn metrics(&self) -> Vec<rvp_obs::Metric> {
        vec![
            rvp_obs::Metric::counter("rvp_trace_cache_hits_total", self.hits()),
            rvp_obs::Metric::counter("rvp_trace_captures_total", self.captures()),
            rvp_obs::Metric::counter("rvp_trace_fallbacks_total", self.fallbacks()),
            rvp_obs::Metric::counter("rvp_trace_quarantined_total", self.quarantined()),
            rvp_obs::Metric::counter("rvp_trace_evicted_total", self.evicted()),
        ]
    }

    /// Traces captured because none (valid) existed.
    pub fn captures(&self) -> u64 {
        self.captures.load(Ordering::Relaxed)
    }

    /// Cached traces that were rejected (corrupt, truncated, version or
    /// metadata skew) and silently re-captured.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Rejected cache files moved into the quarantine directory so they
    /// can never be re-read (and remain available for postmortems).
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay under the store's byte budget.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

/// A directory of captured traces, keyed by [`TraceMeta`].
///
/// The store never lets a bad cache entry surface to an experiment:
/// anything wrong with a cached file — stale format version, checksum
/// mismatch, truncation, a different program hash — counts as a miss
/// and triggers a fresh capture over the live emulator. The offending
/// file is *moved* into `dir/quarantine/` first, so a corrupt entry is
/// preserved for diagnosis but can never be opened again.
#[derive(Debug, Clone)]
pub struct TraceStore {
    dir: PathBuf,
    counters: Arc<StoreCounters>,
    /// Disk budget in bytes over `*.rvpt` entries and persisted
    /// sampling plans; 0 = ungoverned (never evict).
    budget_bytes: u64,
}

/// Subdirectory rejected cache entries are moved into.
pub const QUARANTINE_SUBDIR: &str = "quarantine";

/// Failpoint consulted before every capture write — the disk-full
/// drill. The same site name as the serve result cache's, so one
/// armed plan exercises both stores.
pub const DISK_FULL_SITE: &str = "store.disk.full";

impl TraceStore {
    /// Creates a store rooted at `dir` (created if absent). Stale
    /// temporary files from a previous crashed capture are swept out.
    pub fn new(dir: impl Into<PathBuf>) -> Result<TraceStore, TraceError> {
        TraceStore::with_budget(dir, 0)
    }

    /// Creates a store with a disk budget in bytes (`0` = unlimited).
    /// Beyond it, the least-recently-used traces and sampling plans are
    /// evicted after each capture; eviction only costs a re-capture.
    pub fn with_budget(
        dir: impl Into<PathBuf>,
        budget_bytes: u64,
    ) -> Result<TraceStore, TraceError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = TraceStore { dir, counters: Arc::new(StoreCounters::default()), budget_bytes };
        store.sweep_stale_tmp();
        Ok(store)
    }

    /// Builds a store from the `RVP_TRACE_DIR` environment variable, or
    /// `None` when the variable is unset or empty.
    pub fn from_env() -> Option<TraceStore> {
        let dir = std::env::var("RVP_TRACE_DIR").ok()?;
        if dir.is_empty() {
            return None;
        }
        match TraceStore::new(&dir) {
            Ok(store) => Some(store),
            Err(e) => {
                log::warn(
                    "rvp_trace::store",
                    "RVP_TRACE_DIR unusable; tracing disabled",
                    &[("dir", dir.as_str().into()), ("error", e.to_string().into())],
                );
                None
            }
        }
    }

    /// Usage counters shared across clones of this store.
    pub fn counters(&self) -> &Arc<StoreCounters> {
        &self.counters
    }

    /// Root directory of the cache.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Directory quarantined (rejected) cache files are moved into.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join(QUARANTINE_SUBDIR)
    }

    /// On-disk path for a given key.
    pub fn path_for(&self, meta: &TraceMeta) -> PathBuf {
        self.dir.join(format!("{}-{}-{}.rvpt", meta.workload, meta.input.tag(), meta.budget))
    }

    /// Removes leftover `*.tmp.<pid>` files from captures that died
    /// before their atomic rename. Only files whose pid no longer names
    /// a temp file written by *this* process are candidates, and the
    /// sweep is best-effort: a livelocked unlink never fails a run.
    ///
    /// Several stores may open the same directory at once — a second
    /// grid process starting up, or the serve daemon opening the store
    /// while a grid run is active. A candidate vanishing between the
    /// directory listing and the unlink (someone else swept it, or its
    /// owner finished the atomic rename) is the expected outcome of
    /// that race, not an error.
    fn sweep_stale_tmp(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return };
        let own = format!(".tmp.{}", std::process::id());
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !name.contains(".tmp.") || name.ends_with(own.as_str()) {
                continue;
            }
            match std::fs::remove_file(&path) {
                Ok(()) => log::debug(
                    "rvp_trace::store",
                    "removed stale capture temp file",
                    &[("path", path.display().to_string().into())],
                ),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => log::debug(
                    "rvp_trace::store",
                    "could not remove stale temp file; leaving it",
                    &[("path", path.display().to_string().into()), ("error", e.to_string().into())],
                ),
            }
        }
    }

    /// Opens the cached trace for `meta` if one exists and is valid in
    /// every respect (format, checksums deferred to iteration, and the
    /// full metadata key including the program hash).
    pub fn open(
        &self,
        meta: &TraceMeta,
    ) -> Result<TraceReader<std::io::BufReader<std::fs::File>>, TraceError> {
        let _span = rvp_obs::span!("trace.read", {
            workload: meta.workload.as_str(),
            budget: meta.budget,
        });
        rvp_fail::io_at("trace.store.open")?;
        let path = self.path_for(meta);
        let reader = TraceReader::open(&path)?;
        if let Some(field) = meta_diff(reader.meta(), meta) {
            return Err(TraceError::MetaMismatch { field });
        }
        if self.budget_bytes > 0 {
            // Touch-on-hit keeps the budget sweep LRU rather than FIFO.
            if let Ok(f) = std::fs::File::open(&path) {
                let _ = f.set_modified(std::time::SystemTime::now());
            }
        }
        Ok(reader)
    }

    /// Opens the cached trace for `meta`, capturing it first if absent
    /// or invalid. This is the graceful-fallback entry point: a corrupt
    /// or stale cache entry is quarantined and replaced, never reported.
    pub fn open_or_capture(
        &self,
        program: &Program,
        meta: &TraceMeta,
    ) -> Result<TraceReader<std::io::BufReader<std::fs::File>>, TraceError> {
        match self.open(meta) {
            Ok(reader) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(reader);
            }
            Err(TraceError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                // Stale, corrupt or foreign file: quarantine it so the
                // bad bytes can never be re-read, then fall back to a
                // fresh capture.
                self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
                self.quarantine(&self.path_for(meta), &e);
            }
        }
        self.capture(program, meta)?;
        self.counters.captures.fetch_add(1, Ordering::Relaxed);
        self.open(meta)
    }

    /// Moves a rejected cache file into the quarantine directory under a
    /// unique name. Best-effort: when even the move fails the file is
    /// deleted instead, because leaving it in place would let the next
    /// open read the same bad bytes again.
    fn quarantine(&self, path: &Path, reason: &TraceError) {
        if !path.exists() {
            return;
        }
        let _span = rvp_obs::span!("trace.quarantine", {
            path: path.display().to_string(),
        });
        let qdir = self.quarantine_dir();
        let _ = std::fs::create_dir_all(&qdir);
        let n = self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        let name = path.file_name().map_or_else(|| "trace".into(), |s| s.to_string_lossy());
        let dest = qdir.join(format!("{name}.{}.q{n}", std::process::id()));
        let moved = std::fs::rename(path, &dest);
        if moved.is_err() {
            let _ = std::fs::remove_file(path);
        }
        log::warn(
            "rvp_trace::store",
            "quarantined rejected trace cache entry",
            &[
                ("path", path.display().to_string().into()),
                ("reason", reason.to_string().into()),
                (
                    "quarantined_to",
                    if moved.is_ok() {
                        dest.display().to_string().into()
                    } else {
                        "(deleted; quarantine move failed)".into()
                    },
                ),
            ],
        );
    }

    /// Captures `program` under `meta`, atomically replacing any
    /// existing entry: the trace is written to a temp file, fsynced, and
    /// renamed into place, so a reader in another process never observes
    /// a half-written trace — and a failed capture never leaves a
    /// partial temp file behind.
    pub fn capture(&self, program: &Program, meta: &TraceMeta) -> Result<u64, TraceError> {
        let _span = rvp_obs::span!("trace.write", {
            workload: meta.workload.as_str(),
            budget: meta.budget,
        });
        let path = self.path_for(meta);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let result = (|| {
            rvp_fail::io_at(DISK_FULL_SITE)?;
            let n = capture(program, meta, &tmp)?;
            // Make the bytes durable before the rename publishes them:
            // after a crash the cache holds either the old entry or the
            // complete new one, never a torn file.
            std::fs::File::open(&tmp)?.sync_all()?;
            rvp_fail::io_at("trace.store.rename")?;
            std::fs::rename(&tmp, &path)?;
            Ok(n)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        if self.budget_bytes > 0 {
            // Enforce the budget even after a failed write (a full disk
            // is exactly when freeing space helps the next capture).
            self.evict_to_budget(&path);
        }
        result
    }

    /// Total bytes of governed files (traces and persisted sampling
    /// plans; quarantined files are diagnostic state, not cache).
    pub fn disk_bytes(&self) -> u64 {
        self.governed_files().into_iter().map(|(_, _, len)| len).sum()
    }

    fn governed_files(&self) -> Vec<(std::time::SystemTime, PathBuf, u64)> {
        let mut files = Vec::new();
        let mut scan = |dir: &Path, ext: &str| {
            let Ok(entries) = std::fs::read_dir(dir) else { return };
            for path in entries.filter_map(Result::ok).map(|e| e.path()) {
                if path.extension().is_none_or(|x| x != ext) {
                    continue;
                }
                let Ok(meta) = std::fs::metadata(&path) else { continue };
                let Ok(mtime) = meta.modified() else { continue };
                files.push((mtime, path, meta.len()));
            }
        };
        scan(&self.dir, "rvpt");
        scan(&self.dir.join("plans"), "json");
        files
    }

    /// Evicts least-recently-used governed files (hits touch mtime)
    /// until the store fits its budget, never evicting `keep` (the
    /// entry just captured). Loss here is only a cache loss: an evicted
    /// trace re-captures, an evicted plan re-profiles.
    fn evict_to_budget(&self, keep: &Path) {
        let mut files = self.governed_files();
        let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
        if total <= self.budget_bytes {
            return;
        }
        files.sort_by_key(|(mtime, _, _)| *mtime);
        let start_us = rvp_obs::span::now_us();
        let over = total - self.budget_bytes;
        let mut evicted = 0u64;
        for (_, path, len) in files {
            if total <= self.budget_bytes {
                break;
            }
            if path == keep {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                total -= len;
                evicted += 1;
                self.counters.evicted.fetch_add(1, Ordering::Relaxed);
                log::debug(
                    "rvp_trace::store",
                    "evicted cache entry to stay under budget",
                    &[("path", path.display().to_string().into())],
                );
            }
        }
        if evicted > 0 && rvp_obs::span::armed() {
            rvp_obs::span::record(
                "cache.evict",
                rvp_obs::span::current(),
                start_us,
                rvp_obs::span::now_us(),
                vec![
                    ("cache".into(), "trace.store".into()),
                    ("evicted".into(), evicted.into()),
                    ("over_bytes".into(), over.into()),
                ],
            );
        }
    }
}

/// First field on which two keys differ, if any.
fn meta_diff(found: &TraceMeta, want: &TraceMeta) -> Option<&'static str> {
    if found.workload != want.workload {
        Some("workload")
    } else if found.input != want.input {
        Some("input")
    } else if found.budget != want.budget {
        Some("budget")
    } else if found.program_len != want.program_len {
        Some("program_len")
    } else if found.program_hash != want.program_hash {
        Some("program_hash")
    } else {
        None
    }
}
