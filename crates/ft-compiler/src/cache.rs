//! Object cache: compile each `(module, CV)` pair once.
//!
//! The paper's framework drives a real build system (modified to use
//! Intel's `xiar`/`xild`, §3.2); per-loop tuning naturally reuses
//! object files — CFR's re-sampling phase recombines the same top-X
//! per-module objects a thousand times and only the *link* step is
//! new. This cache reproduces that build-system behaviour and
//! accelerates the harness the same way object reuse accelerates the
//! real prototype.
//!
//! Built on [`ShardedLru`]: lock-striped (searches evaluate candidates
//! from parallel worker threads), single-flight (concurrent lookups of
//! one key block instead of racing duplicate compiles, so
//! `compiles == misses` exactly), and optionally capacity-bounded so a
//! long campaign's cache stays O(working set). Entries are shared as
//! `Arc<CompiledModule>` so a hit is a pointer bump, and an object
//! shares its module descriptor (`Arc<Module>`), so even an owned copy
//! of a hit (the link step's input) is a refcount bump plus `Copy`
//! decisions. Callers that already hold the CV digest look up by it
//! ([`ObjectCache::object`]) without re-hashing the CV.

use crate::compiler::Compiler;
use crate::decisions::CompiledModule;
use crate::ir::Module;
use crate::lru::{CacheCapacity, LruStats, ShardedLru};
use ft_flags::Cv;
use std::sync::Arc;

pub use crate::lru::SHARDS;

/// A concurrent compile cache keyed by `(module id, CV digest)`.
///
/// ```
/// use ft_compiler::{Compiler, LoopFeatures, Module, ObjectCache, Target};
/// let compiler = Compiler::icc(Target::avx2_256());
/// let module = Module::hot_loop(0, "k", LoopFeatures::synthetic(1), &[]);
/// let cache = ObjectCache::new();
/// let cv = compiler.space().baseline();
/// let a = cache.compile(&compiler, &module, &cv);
/// let b = cache.compile(&compiler, &module, &cv);
/// assert_eq!(a, b);
/// assert_eq!(cache.stats(), (1, 1)); // one hit, one miss
/// ```
pub struct ObjectCache {
    lru: ShardedLru<(usize, u64), CompiledModule>,
}

impl Default for ObjectCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectCache {
    /// An empty, unbounded cache (the historical behaviour).
    pub fn new() -> Self {
        Self::with_capacity(CacheCapacity::Unbounded)
    }

    /// An empty cache that evicts least-recently-used objects once
    /// `capacity` is exceeded. Eviction is result-invariant:
    /// compilation is a pure function of the key, so a re-miss only
    /// re-derives a bit-identical object.
    pub fn with_capacity(capacity: CacheCapacity) -> Self {
        ObjectCache {
            lru: ShardedLru::new(capacity),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> CacheCapacity {
        self.lru.capacity()
    }

    /// Looks up (or computes, single-flight) the object of module
    /// slot `module_id` compiled with the CV whose digest is
    /// `cv_digest`. `compute` runs only on a miss and must compile
    /// exactly that pair. Returns the shared object and whether this
    /// was a hit — the same shape as the cross-context store's lookup,
    /// for callers that already hold the digest.
    pub fn object(
        &self,
        module_id: usize,
        cv_digest: u64,
        compute: impl FnOnce() -> CompiledModule,
    ) -> (Arc<CompiledModule>, bool) {
        self.lru.get_or_compute((module_id, cv_digest), compute)
    }

    /// Compiles `module` with `cv`, reusing a cached object when one
    /// exists. The result is bit-identical to
    /// [`Compiler::compile_module`] (compilation is deterministic);
    /// hits share the stored object instead of deep-cloning it.
    pub fn compile_arc(
        &self,
        compiler: &Compiler,
        module: &Module,
        cv: &Cv,
    ) -> Arc<CompiledModule> {
        self.object(module.id, cv.digest(), || {
            compiler.compile_module(module, cv)
        })
        .0
    }

    /// Owned-value variant of [`ObjectCache::compile_arc`] for callers
    /// that mutate or store the object (e.g. the link step).
    pub fn compile(&self, compiler: &Compiler, module: &Module, cv: &Cv) -> CompiledModule {
        (*self.compile_arc(compiler, module, cv)).clone()
    }

    /// Compiles a full per-module assignment through the cache.
    pub fn compile_assignment(
        &self,
        compiler: &Compiler,
        modules: &[Module],
        assignment: &[Cv],
    ) -> Vec<CompiledModule> {
        assert_eq!(modules.len(), assignment.len(), "one CV per module");
        modules
            .iter()
            .zip(assignment)
            .map(|(m, cv)| self.compile(compiler, m, cv))
            .collect()
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        let s = self.lru.stats();
        (s.hits, s.misses)
    }

    /// Full counter snapshot including evictions and the ledger fields.
    pub fn lru_stats(&self) -> LruStats {
        self.lru.stats()
    }

    /// High-water mark of resident objects over the cache's lifetime.
    pub fn peak_resident(&self) -> u64 {
        self.lru.peak_resident()
    }

    /// Resident objects per shard (diagnostics / spread tests).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.lru.shard_lens()
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True when nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Drops all cached objects (e.g. when switching programs).
    pub fn clear(&self) {
        self.lru.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Target;
    use crate::ir::LoopFeatures;
    use ft_flags::rng::rng_for;

    fn setup() -> (Compiler, Module, Cv) {
        let c = Compiler::icc(Target::avx2_256());
        let m = Module::hot_loop(0, "k", LoopFeatures::synthetic(5), &[]);
        let cv = c.space().sample(&mut rng_for(1, "cache"));
        (c, m, cv)
    }

    #[test]
    fn cache_returns_identical_objects() {
        let (c, m, cv) = setup();
        let cache = ObjectCache::new();
        let direct = c.compile_module(&m, &cv);
        let cached1 = cache.compile(&c, &m, &cv);
        let cached2 = cache.compile(&c, &m, &cv);
        assert_eq!(direct, cached1);
        assert_eq!(direct, cached2);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hits_share_one_allocation() {
        let (c, m, cv) = setup();
        let cache = ObjectCache::new();
        let a = cache.compile_arc(&c, &m, &cv);
        let b = cache.compile_arc(&c, &m, &cv);
        assert!(Arc::ptr_eq(&a, &b), "hit must be a pointer bump");
    }

    #[test]
    fn different_cvs_are_different_entries() {
        let (c, m, cv) = setup();
        let cache = ObjectCache::new();
        let cv2 = c.space().sample(&mut rng_for(2, "cache"));
        cache.compile(&c, &m, &cv);
        cache.compile(&c, &m, &cv2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats(), (0, 2));
    }

    #[test]
    fn different_modules_do_not_collide() {
        let (c, m, cv) = setup();
        let m2 = Module::hot_loop(1, "k2", LoopFeatures::synthetic(6), &[]);
        let cache = ObjectCache::new();
        let a = cache.compile(&c, &m, &cv);
        let b = cache.compile(&c, &m2, &cv);
        assert_ne!(a, b);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn entries_spread_across_shards() {
        let (c, _, _) = setup();
        let cache = ObjectCache::new();
        // Many (module, CV) pairs must not all land in one stripe.
        let mut rng = rng_for(7, "spread");
        for id in 0..64 {
            let m = Module::hot_loop(
                id,
                &format!("k{id}"),
                LoopFeatures::synthetic(id as u64),
                &[],
            );
            let cv = c.space().sample(&mut rng);
            cache.compile(&c, &m, &cv);
        }
        let occupied = cache.shard_lens().iter().filter(|&&l| l > 0).count();
        assert!(
            occupied > SHARDS / 2,
            "only {occupied}/{SHARDS} shards used"
        );
        assert_eq!(cache.len(), 64);
    }

    #[test]
    fn clear_resets_everything() {
        let (c, m, cv) = setup();
        let cache = ObjectCache::new();
        cache.compile(&c, &m, &cv);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), (0, 0));
    }

    #[test]
    fn concurrent_compiles_are_consistent() {
        let (c, m, cv) = setup();
        let cache = ObjectCache::new();
        let expected = c.compile_module(&m, &cv);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        assert_eq!(cache.compile(&c, &m, &cv), expected);
                    }
                });
            }
        });
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, 400);
        assert_eq!(misses, 1, "single-flight: exactly one real compile");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn bounded_cache_recompiles_identically() {
        let (c, _, _) = setup();
        let bounded = ObjectCache::with_capacity(CacheCapacity::Entries(1));
        let unbounded = ObjectCache::new();
        let mut rng = rng_for(11, "bounded");
        let modules: Vec<Module> = (0..24)
            .map(|id| {
                Module::hot_loop(
                    id,
                    &format!("k{id}"),
                    LoopFeatures::synthetic(id as u64 * 3 + 1),
                    &[],
                )
            })
            .collect();
        let cvs: Vec<Cv> = (0..24).map(|_| c.space().sample(&mut rng)).collect();
        // Two sweeps: the bounded cache thrashes, the unbounded one
        // hits; every object must still come out bit-identical.
        for _ in 0..2 {
            for (m, cv) in modules.iter().zip(&cvs) {
                assert_eq!(bounded.compile(&c, m, cv), unbounded.compile(&c, m, cv));
            }
        }
        assert!(bounded.len() <= SHARDS);
        assert!(bounded.lru_stats().evictions > 0, "tiny cache must evict");
        let s = bounded.lru_stats();
        assert_eq!(s.hits + s.misses, s.lookups);
        assert_eq!(s.computes, s.misses);
    }

    #[test]
    fn byte_capacity_uses_modeled_code_size() {
        let (c, _, _) = setup();
        let cache = ObjectCache::with_capacity(CacheCapacity::ModeledBytes(16.0 * 1024.0));
        let mut rng = rng_for(13, "bytes");
        for id in 0..64 {
            let m = Module::hot_loop(
                id,
                &format!("k{id}"),
                LoopFeatures::synthetic(id as u64 * 7 + 2),
                &[],
            );
            let cv = c.space().sample(&mut rng);
            cache.compile(&c, &m, &cv);
        }
        assert!(
            cache.lru_stats().evictions > 0,
            "64 objects must blow a 16 KiB modeled budget"
        );
        assert!(cache.len() < 64);
    }

    #[test]
    #[should_panic(expected = "one CV per module")]
    fn assignment_length_checked() {
        let (c, m, cv) = setup();
        let cache = ObjectCache::new();
        let _ = cache.compile_assignment(&c, &[m], &[cv.clone(), cv]);
    }
}
