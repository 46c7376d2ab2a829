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

use omislice::DebugSession;
use omislice_analysis::ProgramAnalysis;
use omislice_lang::Program;
use omislice_trace::Trace;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Default cache budget: a handful of sed×1000-sized working sets.
pub const DEFAULT_CACHE_CAPACITY: usize = 64 * 1024 * 1024;

/// FNV-1a over length-delimited parts, so `("ab","c")` and `("a","bc")`
/// hash differently.
pub fn fnv64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut byte = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for part in parts {
        for b in (part.len() as u64).to_le_bytes() {
            byte(b);
        }
        for &b in *part {
            byte(b);
        }
    }
    h
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

struct Entry<T> {
    value: T,
    bytes: usize,
    tick: u64,
}

#[derive(Default)]
struct Inner {
    tick: u64,
    sessions: HashMap<u64, Entry<Arc<DebugSession>>>,
    slices: HashMap<u64, Entry<Arc<SliceArtifacts>>>,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
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
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let hit = inner.sessions.get_mut(&key).map(|e| {
            e.tick = tick;
            Arc::clone(&e.value)
        });
        match hit {
            Some(v) => {
                inner.hits += 1;
                Some(v)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts a locate session, evicting least-recently-used entries
    /// until the byte budget holds. First insert wins on a key race so
    /// concurrent builders agree on the shared value.
    pub fn insert_session(&self, key: u64, value: Arc<DebugSession>, bytes: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.sessions.contains_key(&key) {
            return;
        }
        inner.sessions.insert(key, Entry { value, bytes, tick });
        inner.bytes += bytes;
        self.evict(&mut inner);
    }

    /// Looks up slice artifacts, refreshing their LRU tick on a hit.
    pub fn get_slice(&self, key: u64) -> Option<Arc<SliceArtifacts>> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let hit = inner.slices.get_mut(&key).map(|e| {
            e.tick = tick;
            Arc::clone(&e.value)
        });
        match hit {
            Some(v) => {
                inner.hits += 1;
                Some(v)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts slice artifacts under the same budget as sessions.
    pub fn insert_slice(&self, key: u64, value: Arc<SliceArtifacts>, bytes: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.slices.contains_key(&key) {
            return;
        }
        inner.slices.insert(key, Entry { value, bytes, tick });
        inner.bytes += bytes;
        self.evict(&mut inner);
    }

    /// Drops least-recently-used entries (across both kinds) until the
    /// budget holds. At least one entry always survives so an oversized
    /// single working set still serves.
    fn evict(&self, inner: &mut Inner) {
        while inner.bytes > self.capacity && inner.sessions.len() + inner.slices.len() > 1 {
            let oldest_session = inner
                .sessions
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, e)| (*k, e.tick));
            let oldest_slice = inner
                .slices
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, e)| (*k, e.tick));
            let evict_session = match (oldest_session, oldest_slice) {
                (Some((_, st)), Some((_, lt))) => st <= lt,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return,
            };
            let freed = if evict_session {
                let (k, _) = oldest_session.unwrap();
                inner.sessions.remove(&k).map(|e| e.bytes)
            } else {
                let (k, _) = oldest_slice.unwrap();
                inner.slices.remove(&k).map(|e| e.bytes)
            };
            inner.bytes -= freed.unwrap_or(0);
            inner.evictions += 1;
        }
    }

    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            bytes: inner.bytes,
            capacity: self.capacity,
            sessions: inner.sessions.len(),
            slices: inner.slices.len(),
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
