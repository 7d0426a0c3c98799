//! On-disk content-addressed result cache.
//!
//! Each simulation result is stored in its own file, named by the FNV-1a
//! hash of the job's full cache key (see [`crate::Job::cache_key`]). An
//! entry is self-validating:
//!
//! ```text
//! ms-sweep-cache v1
//! key <full cache key>
//! <RunStats key/value lines>
//! checksum <fnv1a-64 of every preceding byte, 16 hex digits>
//! ```
//!
//! A load only succeeds if the header matches, the stored key is exactly
//! the requested key (guarding against filename-hash collisions), the
//! checksum verifies, and the stats parse strictly. Anything else —
//! truncation, bit rot, a format change, a different crate version — is
//! a miss, and the point is recomputed rather than trusted.
//!
//! Writes go to a temp file first, are fsynced, and are published with
//! an atomic rename, so a sweep killed mid-write (or a host crash) never
//! leaves a half-entry that a resumed run could read.
//!
//! A file that exists but fails validation — torn by a crashed writer
//! that predates the fsync discipline, bit rot, or deliberate chaos
//! injection — is *quarantined*: renamed to `<name>.corrupt` so it can
//! be inspected post-mortem, counted (see [`SweepCache::quarantined`]),
//! and the point recomputed. The sweep never fails because of a bad
//! cache file, and never silently re-reads the same torn bytes twice.

use crate::statsio::{stats_from_kv, stats_to_kv};
use ms_trace::hash::{fnv1a_64, FNV1A_64_OFFSET};
use ms_workloads::cli::CliArgs;
use multiscalar::RunStats;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const HEADER: &str = "ms-sweep-cache v1";

/// Environment variable overriding the cache directory.
pub const CACHE_ENV: &str = "MS_SWEEP_CACHE";

/// Default cache directory (relative to the current working directory).
pub const DEFAULT_CACHE_DIR: &str = ".ms-sweep-cache";

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A cache directory that cannot be created or used, named precisely so
/// CLIs can fail up front with a structured error instead of surfacing
/// a raw `io::Error` mid-sweep. Produced by [`SweepCache::ensure_ready`].
#[derive(Debug)]
pub struct CacheDirError {
    /// The directory that was requested.
    pub dir: PathBuf,
    /// Why it is unusable.
    pub source: std::io::Error,
}

impl std::fmt::Display for CacheDirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cache directory `{}` is unusable: {}", self.dir.display(), self.source)
    }
}

impl std::error::Error for CacheDirError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The on-disk result cache. A `SweepCache` is cheap to clone and safe
/// to share across worker threads (all state lives on disk; publishes
/// are atomic renames).
#[derive(Clone, Debug)]
pub struct SweepCache {
    dir: Option<PathBuf>,
    /// Count of entries quarantined to `.corrupt` files, shared across
    /// clones so per-thread cache handles report into one tally.
    quarantined: Arc<AtomicU64>,
}

impl SweepCache {
    /// A disabled cache: every lookup misses, stores are dropped.
    pub fn disabled() -> SweepCache {
        SweepCache { dir: None, quarantined: Arc::new(AtomicU64::new(0)) }
    }

    /// A cache rooted at `dir` (created lazily on first store).
    pub fn at(dir: impl Into<PathBuf>) -> SweepCache {
        SweepCache { dir: Some(dir.into()), quarantined: Arc::new(AtomicU64::new(0)) }
    }

    /// The conventional cache: `$MS_SWEEP_CACHE` if set and non-empty,
    /// else [`DEFAULT_CACHE_DIR`].
    pub fn from_env() -> SweepCache {
        match std::env::var(CACHE_ENV) {
            Ok(dir) if !dir.is_empty() => SweepCache::at(dir),
            _ => SweepCache::at(DEFAULT_CACHE_DIR),
        }
    }

    /// The cache a command line asks for: disabled by `--no-cache`, else
    /// rooted at `--cache-dir DIR`, else [`SweepCache::from_env`]. The
    /// one reading of these options that `tables`, `mssweep` and
    /// `msserve` share.
    pub fn from_cli(args: &CliArgs) -> SweepCache {
        match args.value("--cache-dir") {
            _ if args.has("--no-cache") => SweepCache::disabled(),
            Some(dir) => SweepCache::at(dir),
            None => SweepCache::from_env(),
        }
    }

    /// Validates the cache directory up front: creates it (and any
    /// missing parents) if absent, and verifies it is actually a
    /// writable directory by creating and removing a probe file.
    ///
    /// Stores remain best-effort either way; this exists so CLIs
    /// (`mssweep`, `msserve`) can reject a bad `--cache-dir` at startup
    /// with a structured error naming the path, instead of warning on
    /// every job mid-run. A disabled cache is trivially ready.
    ///
    /// # Errors
    /// Returns a [`CacheDirError`] naming the directory if it cannot be
    /// created, is not a directory, or is not writable.
    pub fn ensure_ready(&self) -> Result<(), CacheDirError> {
        let Some(dir) = self.dir.as_deref() else { return Ok(()) };
        let fail = |source| CacheDirError { dir: dir.to_path_buf(), source };
        fs::create_dir_all(dir).map_err(fail)?;
        let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let probe = dir.join(format!(".probe-{}-{n}", std::process::id()));
        fs::write(&probe, b"ms-sweep cache probe").map_err(fail)?;
        fs::remove_file(&probe).map_err(fail)
    }

    /// Whether lookups can ever hit.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The cache directory, if enabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn entry_path(dir: &Path, key: &str) -> PathBuf {
        dir.join(format!("{:016x}.entry", fnv1a_64(FNV1A_64_OFFSET, key.as_bytes())))
    }

    /// Renders the entry bytes for `key`/`stats` (checksum included).
    fn render(key: &str, stats: &RunStats) -> String {
        let mut body = format!("{HEADER}\nkey {key}\n{}", stats_to_kv(stats));
        let sum = fnv1a_64(FNV1A_64_OFFSET, body.as_bytes());
        body.push_str(&format!("checksum {sum:016x}\n"));
        body
    }

    /// Validates entry `text` against `key`. `Ok(None)` means the entry
    /// is well-formed but stores a *different* key (a filename-hash
    /// collision — the other key's entry is intact and must not be
    /// quarantined); `Err(())` means the bytes are torn or tampered.
    fn parse(text: &str, key: &str) -> Result<Option<RunStats>, ()> {
        // Split off the trailing `checksum <hex>` line.
        let body = text.strip_suffix('\n').ok_or(())?;
        let (prefix, checksum_line) = body.rsplit_once('\n').ok_or(())?;
        let stored_sum = checksum_line.strip_prefix("checksum ").ok_or(())?;
        let mut prefix = prefix.to_string();
        prefix.push('\n');
        if format!("{:016x}", fnv1a_64(FNV1A_64_OFFSET, prefix.as_bytes())) != stored_sum {
            return Err(());
        }
        let rest = prefix.strip_prefix(HEADER).and_then(|r| r.strip_prefix('\n')).ok_or(())?;
        let (key_line, stats_text) = rest.split_once('\n').ok_or(())?;
        if key_line.strip_prefix("key ").ok_or(())? != key {
            return Ok(None);
        }
        Ok(Some(stats_from_kv(stats_text).ok_or(())?))
    }

    /// Moves a torn entry aside to `<name>.corrupt` (best-effort) and
    /// counts the quarantine. The original path is freed either way, so
    /// the recomputed result can be stored cleanly.
    fn quarantine(&self, path: &Path) {
        let mut corrupt = path.as_os_str().to_os_string();
        corrupt.push(".corrupt");
        if fs::rename(path, &corrupt).is_err() {
            let _ = fs::remove_file(path);
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// How many torn entries this cache (including all clones of it) has
    /// quarantined to `.corrupt` files and scheduled for recompute.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Looks up `key`. Returns `None` on a miss *or* on any validation
    /// failure — a corrupt entry is never trusted. A file that exists
    /// but fails validation is quarantined to `<name>.corrupt` (and
    /// counted) so the recompute can republish cleanly; a well-formed
    /// entry for a colliding key is left alone.
    pub fn load(&self, key: &str) -> Option<RunStats> {
        let dir = self.dir.as_deref()?;
        let path = Self::entry_path(dir, key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            // Unreadable or non-UTF-8 bytes at the entry path: torn.
            Err(_) => {
                self.quarantine(&path);
                return None;
            }
        };
        match Self::parse(&text, key) {
            Ok(stats) => stats,
            Err(()) => {
                self.quarantine(&path);
                None
            }
        }
    }

    /// Stores `stats` under `key`. Best-effort: an I/O failure (read-only
    /// filesystem, disk full) degrades to "not cached" rather than
    /// failing the sweep; the error is reported for diagnostics.
    ///
    /// The write is crash-safe: bytes go to a private temp file, are
    /// fsynced to stable storage, and only then atomically renamed onto
    /// the entry path, so no crash ordering can publish a half-entry.
    pub fn store(&self, key: &str, stats: &RunStats) -> std::io::Result<()> {
        let Some(dir) = self.dir.as_deref() else { return Ok(()) };
        fs::create_dir_all(dir)?;
        let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(".tmp-{}-{n}", std::process::id()));
        let publish = (|| {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(Self::render(key, stats).as_bytes())?;
            f.sync_all()?;
            drop(f);
            fs::rename(&tmp, Self::entry_path(dir, key))
        })();
        publish.inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("ms-sweep-cache-unit-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn stats(cycles: u64) -> RunStats {
        RunStats { cycles, instructions: cycles / 2, ..RunStats::default() }
    }

    #[test]
    fn round_trip_and_miss() {
        let dir = tmpdir("roundtrip");
        let c = SweepCache::at(&dir);
        assert!(c.load("k1").is_none());
        c.store("k1", &stats(100)).unwrap();
        assert_eq!(c.load("k1").unwrap().cycles, 100);
        assert!(c.load("k2").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let dir = tmpdir("corrupt");
        let c = SweepCache::at(&dir);
        c.store("k", &stats(42)).unwrap();
        let path = SweepCache::entry_path(&dir, "k");

        // Truncated.
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(c.load("k").is_none(), "truncated entry must miss");

        // Flipped value (checksum no longer matches).
        fs::write(&path, full.replace("cycles 42", "cycles 43")).unwrap();
        assert!(c.load("k").is_none(), "tampered entry must miss");

        // Wrong key under the right filename (hash collision defense).
        fs::write(&path, SweepCache::render("other-key", &stats(42))).unwrap();
        assert!(c.load("k").is_none(), "key mismatch must miss");

        // Restored entry hits again.
        fs::write(&path, &full).unwrap();
        assert_eq!(c.load("k").unwrap().cycles, 42);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_entries_are_quarantined_and_recomputable() {
        let dir = tmpdir("quarantine");
        let c = SweepCache::at(&dir);
        c.store("k", &stats(7)).unwrap();
        let path = SweepCache::entry_path(&dir, "k");
        let full = fs::read_to_string(&path).unwrap();

        // Tear the entry; the load misses, moves the file aside, counts.
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(c.load("k").is_none());
        assert_eq!(c.quarantined(), 1);
        assert!(!path.exists(), "torn entry must leave the entry path");
        let mut corrupt = path.clone().into_os_string();
        corrupt.push(".corrupt");
        assert!(std::path::Path::new(&corrupt).exists(), "torn bytes preserved for post-mortem");

        // The freed path accepts the recompute; later loads hit again.
        c.store("k", &stats(7)).unwrap();
        assert_eq!(c.load("k").unwrap().cycles, 7);
        assert_eq!(c.quarantined(), 1, "clean reload must not re-quarantine");

        // A clone shares the tally.
        let clone = c.clone();
        fs::write(&path, b"\xff\xfe not utf8 \xff").unwrap();
        assert!(clone.load("k").is_none());
        assert_eq!(c.quarantined(), 2);

        // A well-formed entry for a *different* key (filename collision)
        // is a plain miss: not quarantined, not destroyed.
        fs::write(&path, SweepCache::render("other-key", &stats(9))).unwrap();
        assert!(c.load("k").is_none());
        assert_eq!(c.quarantined(), 2);
        assert!(path.exists(), "colliding entry left intact");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ensure_ready_creates_missing_directories() {
        let dir = tmpdir("ensure").join("nested").join("deeper");
        let c = SweepCache::at(&dir);
        c.ensure_ready().expect("nested cache dir is created");
        assert!(dir.is_dir());
        // Idempotent on an existing directory.
        c.ensure_ready().expect("existing cache dir is fine");
        let _ = fs::remove_dir_all(dir.parent().unwrap().parent().unwrap());
    }

    #[test]
    fn ensure_ready_rejects_a_file_path_with_the_path_named() {
        let dir = tmpdir("ensure-file");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("not-a-dir");
        fs::write(&file, b"occupied").unwrap();
        let err = SweepCache::at(&file).ensure_ready().expect_err("a file is not a cache dir");
        assert_eq!(err.dir, file);
        assert!(err.to_string().contains("not-a-dir"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ensure_ready_on_disabled_cache_is_ok() {
        SweepCache::disabled().ensure_ready().expect("disabled cache is trivially ready");
    }

    #[test]
    fn disabled_cache_never_hits() {
        let c = SweepCache::disabled();
        c.store("k", &stats(1)).unwrap();
        assert!(c.load("k").is_none());
        assert!(!c.is_enabled());
    }
}
