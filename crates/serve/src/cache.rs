//! Content-hashed cache of compiled hyperblock programs and their lint
//! results.
//!
//! The scheduler — never a worker — performs lookups and inserts, at
//! virtual-time events in deterministic order, so which attempts hit is
//! a pure function of the job schedule; each attempt's span records it,
//! and the hit/miss totals are counted off those spans at drain. Workers
//! only *compile* on a miss and hand the finished [`CompiledWorkload`]
//! back for insertion at the completion event.

use clp_core::CompiledWorkload;
use clp_workloads::Workload;
use std::fmt::Write;
use std::sync::Arc;

/// FNV-1a over the `Debug` rendering of everything that affects
/// compilation and verification: the IR program, the arguments, the
/// initial memory, and the check spec. Two workloads with identical
/// content share one cache entry regardless of name. The rendering is
/// hashed as it is written, never built.
#[must_use]
pub fn content_hash(w: &Workload) -> u64 {
    let mut hash = clp_obs::Fnv1a64::default();
    write!(
        hash,
        "{:?}|{:?}|{:?}|{:?}",
        w.program, w.args, w.init_mem, w.check
    )
    .expect("hashing text cannot fail");
    hash.finish()
}

/// One cached compilation: the compiled program (with its golden) plus
/// the lint warning count recorded when it was first compiled.
#[derive(Clone)]
pub(crate) struct CacheEntry {
    /// The compiled workload, shared with in-flight executions.
    pub compiled: Arc<CompiledWorkload>,
    /// Warning-severity lint diagnostics found at compile time.
    pub lint_warnings: u64,
}

/// Entries by content hash. Looked up and inserted by key; the one
/// walk over it sums a count, so hash order cannot reach a result.
#[allow(clippy::disallowed_types)]
type Entries = std::collections::HashMap<u64, CacheEntry>;

/// The compile cache.
#[derive(Default)]
pub(crate) struct CompileCache {
    entries: Entries,
}

impl CompileCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a content hash.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<CacheEntry> {
        self.entries.get(&key).cloned()
    }

    /// Inserts a freshly compiled entry. A concurrent miss on the same
    /// key may insert twice; the first insertion wins so every later
    /// hit shares one allocation.
    pub fn insert(&mut self, key: u64, entry: CacheEntry) {
        self.entries.entry(key).or_insert(entry);
    }

    /// Distinct programs cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total lint warnings across distinct cached programs.
    #[must_use]
    pub fn lint_warnings(&self) -> u64 {
        self.entries.values().map(|e| e.lint_warnings).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clp_workloads::suite;

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        let a = suite::by_name("conv").unwrap();
        let b = suite::by_name("conv").unwrap();
        assert_eq!(content_hash(&a), content_hash(&b));
        let c = suite::by_name("bezier").unwrap();
        assert_ne!(content_hash(&a), content_hash(&c));
        // Same program, different args: different entry.
        let mut d = suite::by_name("conv").unwrap();
        d.args.push(1);
        assert_ne!(content_hash(&a), content_hash(&d));
    }

    #[test]
    fn streamed_hash_equals_the_hash_of_the_rendered_text() {
        for w in suite::all() {
            let rendered = format!(
                "{:?}|{:?}|{:?}|{:?}",
                w.program, w.args, w.init_mem, w.check
            );
            assert_eq!(
                content_hash(&w),
                clp_obs::fnv1a64(rendered.as_bytes()),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn lookup_finds_what_was_inserted() {
        let mut cache = CompileCache::new();
        let w = suite::by_name("conv").unwrap();
        let key = content_hash(&w);
        assert!(cache.lookup(key).is_none());
        let cw = clp_core::compile_workload(&w).unwrap();
        cache.insert(
            key,
            CacheEntry {
                compiled: Arc::new(cw),
                lint_warnings: 2,
            },
        );
        assert!(cache.lookup(key).is_some());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lint_warnings(), 2);
    }

    #[test]
    fn first_insert_wins() {
        let mut cache = CompileCache::new();
        let w = suite::by_name("conv").unwrap();
        let key = content_hash(&w);
        let cw = Arc::new(clp_core::compile_workload(&w).unwrap());
        cache.insert(
            key,
            CacheEntry {
                compiled: cw.clone(),
                lint_warnings: 1,
            },
        );
        cache.insert(
            key,
            CacheEntry {
                compiled: cw,
                lint_warnings: 9,
            },
        );
        assert_eq!(cache.lint_warnings(), 1);
    }
}
