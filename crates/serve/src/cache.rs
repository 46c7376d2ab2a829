//! The byte-budgeted artifact cache behind the serving layer.
//!
//! Requests name a program version by the FNV-1a hash of its sources and
//! inputs; the cache holds everything the pipeline derives from them —
//! for `/locate` the built [`DebugSession`] (programs, analysis, failing
//! trace, value profile, ground-truth oracle), for `/slice` the program,
//! analysis and trace — shared immutably across concurrent requests
//! behind `Arc`s. Eviction follows the `VerifyMemo` discipline: a
//! deterministic logical tick orders entries and the least-recently-used
//! one is dropped when the byte budget overflows, so a request replayed
//! against a warm or a cold cache sees identical artifacts either way.
//! Concurrent requests for one uncached locate session share one build
//! ([`ArtifactCache::session_or_build`]).

use omislice::DebugSession;
use omislice_analysis::ProgramAnalysis;
use omislice_lang::Program;
use omislice_trace::{Fnv1a, Trace};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Default cache budget: a handful of sed×1000-sized working sets.
pub const DEFAULT_CACHE_CAPACITY: usize = 64 * 1024 * 1024;

/// FNV-1a over length-delimited parts, so `("ab","c")` and `("a","bc")`
/// hash differently.
pub fn fnv64(parts: &[&[u8]]) -> u64 {
    let mut h = Fnv1a::default();
    for part in parts {
        h.write(&(part.len() as u64).to_le_bytes());
        h.write(part);
    }
    h.finish()
}

/// Renders a cache key the way responses report it.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

/// Parses a `key_hex` string back into a key.
pub fn parse_key_hex(text: &str) -> Option<u64> {
    (text.len() == 16)
        .then(|| u64::from_str_radix(text, 16).ok())
        .flatten()
}

/// Everything `POST /slice` derives from one (source, input) version.
pub struct SliceArtifacts {
    pub key: u64,
    pub program: Program,
    pub analysis: ProgramAnalysis,
    pub trace: Trace,
}

/// One cached artifact. Served keys hash a `locate` or `slice` tag
/// first, so the two kinds never share a key and live in one map.
enum Artifact {
    Session(Arc<DebugSession>),
    Slice(Arc<SliceArtifacts>),
}

impl Artifact {
    fn session(&self) -> Option<Arc<DebugSession>> {
        match self {
            Artifact::Session(s) => Some(Arc::clone(s)),
            Artifact::Slice(_) => None,
        }
    }
}

struct Entry<T> {
    value: T,
    bytes: usize,
    tick: u64,
}

#[derive(Default)]
struct Inner {
    tick: u64,
    entries: HashMap<u64, Entry<Artifact>>,
    /// Locate sessions being built, by key: a request for one waits for
    /// its build instead of starting another.
    building: HashMap<u64, Arc<Flight>>,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Inner {
    /// The entry under `key` if `pick` accepts its kind, refreshing its
    /// LRU tick; an entry of the other kind is a miss and keeps its tick.
    fn find<T>(&mut self, key: u64, pick: impl FnOnce(&Artifact) -> Option<T>) -> Option<T> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.entries.get_mut(&key)?;
        let value = pick(&e.value)?;
        e.tick = tick;
        Some(value)
    }
}

/// One locate session build in flight, which requests for its key wait
/// on. It ends with the session it shares, or `None` when it has none to
/// share (it failed, panicked, or was cut short by its own deadline).
type Flight = OnceLock<Option<Arc<DebugSession>>>;

/// A locate session fresh from a build, as
/// [`ArtifactCache::session_or_build`] takes it.
pub struct Built {
    pub session: Arc<DebugSession>,
    /// What the cache charges for it.
    pub bytes: usize,
    /// Whether it may be cached and handed to the requests that waited
    /// for it: a build cut short by its own deadline holds a partial
    /// trace and may not.
    pub shared: bool,
}

/// The one builder of a key while it builds. Dropped when the build
/// returns, fails or unwinds: it retires the flight, caches what the
/// build shares under the same lock, so a later request finds one or the
/// other, and wakes the waiters.
struct Lead<'a> {
    cache: &'a ArtifactCache,
    key: u64,
    shared: Option<(Arc<DebugSession>, usize)>,
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        let mut inner = self.cache.lock();
        let flight = inner.building.remove(&self.key);
        let shared = self.shared.take().map(|(session, bytes)| {
            let entry = Artifact::Session(Arc::clone(&session));
            self.cache.insert_locked(&mut inner, self.key, entry, bytes);
            session
        });
        drop(inner);
        if let Some(flight) = flight {
            let _ = flight.set(shared);
        }
    }
}

/// Occupancy counters for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub bytes: usize,
    pub capacity: usize,
    pub sessions: usize,
    pub slices: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// The byte-budgeted LRU itself. One mutex guards the index; the cached
/// artifacts live outside it behind `Arc`s, so lookups are cheap and the
/// pipeline never runs under the lock.
pub struct ArtifactCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl ArtifactCache {
    pub fn new(capacity: usize) -> Self {
        ArtifactCache {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Looks up a locate session, refreshing its LRU tick on a hit.
    pub fn get_session(&self, key: u64) -> Option<Arc<DebugSession>> {
        self.get(key, Artifact::session)
    }

    /// Looks up slice artifacts, refreshing their LRU tick on a hit.
    pub fn get_slice(&self, key: u64) -> Option<Arc<SliceArtifacts>> {
        self.get(key, |a| match a {
            Artifact::Slice(s) => Some(Arc::clone(s)),
            Artifact::Session(_) => None,
        })
    }

    /// The locate session under `key`, and whether it was a hit: the
    /// cached session; the one a concurrent build of `key` shares when it
    /// ends (a hit too, since nothing is built twice); or, as the key's
    /// one builder, `build`'s, cached when it may be shared. Misses count
    /// builds. A build that fails, panics or may not be shared releases
    /// the requests waiting on it to look again, and one of them builds.
    pub fn session_or_build<E>(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<Built, E>,
    ) -> Result<(Arc<DebugSession>, bool), E> {
        loop {
            let flight = {
                let mut inner = self.lock();
                if let Some(session) = inner.find(key, Artifact::session) {
                    inner.hits += 1;
                    return Ok((session, true));
                }
                match inner.building.get(&key) {
                    Some(flight) => Arc::clone(flight),
                    None => {
                        inner.building.insert(key, Arc::default());
                        inner.misses += 1;
                        break;
                    }
                }
            };
            if let Some(session) = flight.wait().clone() {
                self.lock().hits += 1;
                return Ok((session, true));
            }
        }
        let mut lead = Lead {
            cache: self,
            key,
            shared: None,
        };
        let built = build()?;
        if built.shared {
            lead.shared = Some((Arc::clone(&built.session), built.bytes));
        }
        drop(lead);
        Ok((built.session, false))
    }

    /// Inserts slice artifacts under the same budget as sessions.
    pub fn insert_slice(&self, key: u64, value: Arc<SliceArtifacts>, bytes: usize) {
        self.insert(key, Artifact::Slice(value), bytes);
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("no cache operation panics holding the lock")
    }

    /// [`Inner::find`], counting a hit or a miss.
    fn get<T>(&self, key: u64, pick: impl FnOnce(&Artifact) -> Option<T>) -> Option<T> {
        let mut inner = self.lock();
        let hit = inner.find(key, pick);
        if hit.is_some() {
            inner.hits += 1;
        } else {
            inner.misses += 1;
        }
        hit
    }

    fn insert(&self, key: u64, value: Artifact, bytes: usize) {
        let mut inner = self.lock();
        self.insert_locked(&mut inner, key, value, bytes);
    }

    fn insert_locked(&self, inner: &mut Inner, key: u64, value: Artifact, bytes: usize) {
        inner.tick += 1;
        let tick = inner.tick;
        if inner.entries.contains_key(&key) {
            return;
        }
        inner.entries.insert(key, Entry { value, bytes, tick });
        inner.bytes += bytes;
        self.evict(inner);
    }

    /// Drops least-recently-used entries, of either kind, until the
    /// budget holds. At least one entry always survives so an oversized
    /// single working set still serves.
    fn evict(&self, inner: &mut Inner) {
        while inner.bytes > self.capacity && inner.entries.len() > 1 {
            let Some(oldest) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(&k, _)| k)
            else {
                return;
            };
            let freed = inner.entries.remove(&oldest).map_or(0, |e| e.bytes);
            inner.bytes -= freed;
            inner.evictions += 1;
        }
    }

    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        let sessions = inner
            .entries
            .values()
            .filter(|e| matches!(e.value, Artifact::Session(_)))
            .count();
        CacheStats {
            bytes: inner.bytes,
            capacity: self.capacity,
            sessions,
            slices: inner.entries.len() - sessions,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omislice_interp::RunConfig;

    fn slice_artifacts(src: &str) -> (u64, Arc<SliceArtifacts>) {
        let program = omislice_lang::compile(src).unwrap();
        let analysis = ProgramAnalysis::build(&program);
        let config = RunConfig::with_inputs(vec![]);
        let trace = omislice_interp::run_traced(&program, &analysis, &config).trace;
        let key = fnv64(&[src.as_bytes()]);
        (
            key,
            Arc::new(SliceArtifacts {
                key,
                program,
                analysis,
                trace,
            }),
        )
    }

    #[test]
    fn hex_round_trips() {
        assert_eq!(parse_key_hex(&key_hex(0xdead_beef)), Some(0xdead_beef));
        assert_eq!(parse_key_hex("xyz"), None);
        assert_eq!(parse_key_hex("00"), None);
    }

    #[test]
    fn fnv_separates_parts() {
        assert_ne!(fnv64(&[b"ab", b"c"]), fnv64(&[b"a", b"bc"]));
        assert_eq!(fnv64(&[b"ab", b"c"]), fnv64(&[b"ab", b"c"]));
    }

    #[test]
    fn served_keys_are_stable() {
        // The `/slice` key of one version, as responses have reported
        // it: a changed hash would orphan every key a client holds.
        let key = fnv64(&[b"slice", b"fn main() { print(input()); }", b"7"]);
        assert_eq!(key_hex(key), "af7ff05ac67cd401");
    }

    #[test]
    fn lru_evicts_oldest_when_over_budget() {
        let cache = ArtifactCache::new(100);
        let (k1, a1) = slice_artifacts("fn main() { print(1); }");
        let (k2, a2) = slice_artifacts("fn main() { print(2); }");
        let (k3, a3) = slice_artifacts("fn main() { print(3); }");
        cache.insert_slice(k1, a1, 60);
        cache.insert_slice(k2, a2, 60); // evicts k1
        assert!(cache.get_slice(k1).is_none());
        assert!(cache.get_slice(k2).is_some()); // refresh k2
        cache.insert_slice(k3, a3, 60); // over budget again: k2 is newest
        let stats = cache.stats();
        assert_eq!(stats.evictions, 2);
        assert!(stats.bytes <= 100 || stats.sessions + stats.slices == 1);
    }

    /// Builds and caches, under `key` at `bytes`, a locate session for
    /// `faulty` against a program printing 0.
    fn cache_session(cache: &ArtifactCache, key: u64, faulty: &str, bytes: usize) {
        let build = || -> Result<Built, ()> {
            let session = DebugSession::builder(faulty)
                .reference("fn main() { print(0); }")
                .build()
                .unwrap();
            Ok(Built {
                session: Arc::new(session),
                bytes,
                shared: true,
            })
        };
        let (_, hit) = cache.session_or_build(key, build).unwrap();
        assert!(!hit, "{faulty} was not cached yet");
    }

    #[test]
    fn eviction_crosses_kinds_in_tick_order() {
        let cache = ArtifactCache::new(100);
        let (k1, a1) = slice_artifacts("fn main() { print(1); }");
        let (k3, a3) = slice_artifacts("fn main() { print(3); }");
        let k2 = fnv64(&[b"locate", b"2"]);
        let k4 = fnv64(&[b"locate", b"4"]);
        cache.insert_slice(k1, a1, 40);
        cache_session(&cache, k2, "fn main() { print(2); }", 40);
        // A session probe under a slice's key misses (the served 404
        // `unknown-program`) and leaves the slice's tick alone.
        assert!(cache.get_session(k1).is_none());
        assert!(cache.get_slice(k2).is_none());
        // The session is now the most recently used entry.
        assert!(cache.get_session(k2).is_some());
        cache.insert_slice(k3, a3, 40); // 120 B: the slice k1 is oldest
        assert!(cache.get_slice(k1).is_none());
        assert!(cache.get_slice(k3).is_some()); // refresh k3 past k2
        cache_session(&cache, k4, "fn main() { print(4); }", 40);
        assert!(cache.get_session(k2).is_none(), "the session k2 is oldest");
        assert!(cache.get_slice(k3).is_some());
        assert!(cache.get_session(k4).is_some());
        let stats = cache.stats();
        assert_eq!((stats.sessions, stats.slices), (1, 1));
        assert_eq!((stats.evictions, stats.bytes), (2, 80));
        // Misses: the two session builds and four probes that found nothing.
        assert_eq!((stats.hits, stats.misses), (4, 6));
    }

    #[test]
    fn first_insert_wins_on_key_race() {
        let cache = ArtifactCache::new(1 << 20);
        let (k, a) = slice_artifacts("fn main() { print(1); }");
        let (_, b) = slice_artifacts("fn main() { print(1); }");
        cache.insert_slice(k, Arc::clone(&a), 10);
        cache.insert_slice(k, b, 10);
        let got = cache.get_slice(k).unwrap();
        assert!(Arc::ptr_eq(&got, &a));
        assert_eq!(cache.stats().bytes, 10);
    }
}
