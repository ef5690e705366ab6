//! LRU set-associative cache.

use starnuma_obs::{MetricsFrame, Observe};
use starnuma_types::BlockAddr;

/// Geometry of a set-associative cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// The scaled-down per-socket LLC of Table II: 4 cores × 2 MB/core,
    /// 16-way, 64 B blocks → 8 MiB / 64 B / 16 ways = 8192 sets.
    pub fn scaled_llc() -> Self {
        CacheConfig {
            sets: 8192,
            ways: 16,
        }
    }

    /// The full-scale per-socket LLC of Table I: 28 cores × 2 MB/core,
    /// 16-way → 57344 blocks… rounded to the next power-of-two set count.
    pub fn full_scale_llc() -> Self {
        CacheConfig {
            sets: 65536,
            ways: 16,
        }
    }

    /// A small cache for unit tests.
    pub fn tiny(sets: usize, ways: usize) -> Self {
        CacheConfig { sets, ways }
    }

    /// Capacity in 64 B blocks.
    pub fn capacity_blocks(&self) -> usize {
        self.sets * self.ways
    }
}

/// Result of a cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    /// The block was present.
    Hit,
    /// The block was absent and has been filled; `evicted` is the victim (if
    /// any) with its dirty state — a dirty victim implies a writeback.
    Miss {
        /// Evicted victim block and whether it was dirty.
        evicted: Option<(BlockAddr, bool)>,
    },
}

impl CacheOutcome {
    /// Returns `true` on [`CacheOutcome::Hit`].
    pub const fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// Hit/miss counters of a [`SetAssocCache`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty evictions (writebacks).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]` (0 if no accesses).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

impl Observe for CacheStats {
    fn observe(&self, prefix: &str, frame: &mut MetricsFrame) {
        frame.add_counter(&format!("{prefix}.hits"), self.hits);
        frame.add_counter(&format!("{prefix}.misses"), self.misses);
        frame.add_counter(&format!("{prefix}.writebacks"), self.writebacks);
    }
}

/// Tag of an empty way (no block address has this frame number).
const EMPTY: u64 = u64::MAX;

/// An LRU set-associative cache of 64 B blocks.
///
/// Used as each socket's shared LLC: it filters the memory-access stream
/// (only misses reach the interconnect) and tracks dirty state so evictions
/// generate writeback traffic.
///
/// Ways are stored as two parallel arrays so a lookup scans only tags (one
/// `u64` per way): `tags` holds each way's block frame number or
/// `u64::MAX` for an empty way, and `meta` holds `lru << 1 | dirty`,
/// where a larger `lru` is more recently used.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    tags: Vec<u64>,
    meta: Vec<u64>,
    tick: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `config.sets` is not a power of two or `ways` is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.sets.is_power_of_two(),
            "set count must be a power of two, got {}",
            config.sets
        );
        assert!(config.ways > 0, "associativity must be positive");
        SetAssocCache {
            tags: vec![EMPTY; config.sets * config.ways],
            meta: vec![0; config.sets * config.ways],
            config,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Returns the geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Returns hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The way range of `block`'s set, and its tag.
    fn set_range(&self, block: BlockAddr) -> (core::ops::Range<usize>, u64) {
        let tag = block.bfn();
        debug_assert_ne!(tag, EMPTY, "block frame number collides with the empty tag");
        let base = ((tag as usize) & (self.config.sets - 1)) * self.config.ways;
        (base..base + self.config.ways, tag)
    }

    /// Accesses `block`; `is_write` marks the line dirty on hit or fill.
    pub fn access(&mut self, block: BlockAddr, is_write: bool) -> CacheOutcome {
        self.tick += 1;
        let (ways, tag) = self.set_range(block);
        let base = ways.start;
        let tags = &self.tags[ways.clone()];
        if let Some(way) = tags.iter().position(|&t| t == tag) {
            let meta = &mut self.meta[base + way];
            *meta = self.tick << 1 | (*meta & 1) | u64::from(is_write);
            self.stats.hits += 1;
            return CacheOutcome::Hit;
        }
        // Miss: the first empty way, else the first way with the minimum LRU.
        self.stats.misses += 1;
        let victim = base
            + tags.iter().position(|&t| t == EMPTY).unwrap_or_else(|| {
                let meta = &self.meta[ways];
                let mut victim = 0;
                for (way, &m) in meta.iter().enumerate().skip(1) {
                    if m >> 1 < meta[victim] >> 1 {
                        victim = way;
                    }
                }
                victim
            });
        let evicted = match self.tags[victim] {
            EMPTY => None,
            old => {
                let dirty = self.meta[victim] & 1 == 1;
                if dirty {
                    self.stats.writebacks += 1;
                }
                Some((BlockAddr::new(old), dirty))
            }
        };
        self.tags[victim] = tag;
        self.meta[victim] = self.tick << 1 | u64::from(is_write);
        CacheOutcome::Miss { evicted }
    }

    /// Returns `true` if `block` is currently cached (no LRU update).
    pub fn contains(&self, block: BlockAddr) -> bool {
        let (ways, tag) = self.set_range(block);
        self.tags[ways].contains(&tag)
    }

    /// Invalidates `block` if present; returns whether it was dirty.
    ///
    /// Used for coherence back-invalidations.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        let (ways, tag) = self.set_range(block);
        let way = ways.start + self.tags[ways].iter().position(|&t| t == tag)?;
        self.tags[way] = EMPTY;
        Some(self.meta[way] & 1 == 1)
    }

    /// Empties the cache and clears statistics.
    pub fn reset(&mut self) {
        self.tags.fill(EMPTY);
        self.meta.fill(0);
        self.tick = 0;
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        SetAssocCache::new(CacheConfig::tiny(2, 2))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(BlockAddr::new(0), false).is_hit());
        assert!(c.access(BlockAddr::new(0), false).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().miss_ratio(), 0.5);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Blocks 0, 2, 4 all map to set 0 (even bfn).
        c.access(BlockAddr::new(0), false);
        c.access(BlockAddr::new(2), false);
        c.access(BlockAddr::new(0), false); // 0 is now MRU
        let out = c.access(BlockAddr::new(4), false); // evicts 2
        assert_eq!(
            out,
            CacheOutcome::Miss {
                evicted: Some((BlockAddr::new(2), false))
            }
        );
        assert!(c.contains(BlockAddr::new(0)));
        assert!(!c.contains(BlockAddr::new(2)));
    }

    #[test]
    fn dirty_eviction_is_writeback() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), true);
        c.access(BlockAddr::new(2), false);
        let out = c.access(BlockAddr::new(4), false); // evicts dirty 0
        assert_eq!(
            out,
            CacheOutcome::Miss {
                evicted: Some((BlockAddr::new(0), true))
            }
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), false);
        c.access(BlockAddr::new(0), true); // now dirty
        c.access(BlockAddr::new(2), false); // 0 becomes LRU
        let out = c.access(BlockAddr::new(4), false); // evicts 0, dirty
        assert_eq!(
            out,
            CacheOutcome::Miss {
                evicted: Some((BlockAddr::new(0), true))
            }
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), true);
        assert_eq!(c.invalidate(BlockAddr::new(0)), Some(true));
        assert!(!c.contains(BlockAddr::new(0)));
        assert_eq!(c.invalidate(BlockAddr::new(0)), None);
    }

    #[test]
    fn sets_isolate_addresses() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), false); // set 0
        c.access(BlockAddr::new(1), false); // set 1
        c.access(BlockAddr::new(3), false); // set 1
        c.access(BlockAddr::new(5), false); // set 1, evicts 1
        assert!(c.contains(BlockAddr::new(0)), "set 0 unaffected");
        assert!(!c.contains(BlockAddr::new(1)));
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), true);
        c.reset();
        assert!(!c.contains(BlockAddr::new(0)));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn scaled_llc_geometry() {
        let cfg = CacheConfig::scaled_llc();
        assert_eq!(cfg.capacity_blocks() * 64, 8 * 1024 * 1024); // 8 MiB
        let c = SetAssocCache::new(cfg);
        assert_eq!(c.config().ways, 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = SetAssocCache::new(CacheConfig::tiny(3, 2));
    }

    #[test]
    fn miss_ratio_zero_when_empty() {
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use starnuma_types::SimRng;

    /// The cache never holds more blocks than its capacity, and a
    /// just-filled block is always resident immediately afterwards.
    #[test]
    fn fill_then_resident() {
        let mut rng = SimRng::seed_from_u64(0x11c0);
        for _case in 0..64 {
            let len = rng.gen_range(1usize..200);
            let mut c = SetAssocCache::new(CacheConfig::tiny(4, 4));
            for _ in 0..len {
                let a = rng.gen_range(0u64..512);
                let b = BlockAddr::new(a);
                c.access(b, a.is_multiple_of(3));
                assert!(c.contains(b));
            }
        }
    }

    /// Hits + misses always equals total accesses; miss ratio is in [0,1].
    #[test]
    fn stats_are_consistent() {
        let mut rng = SimRng::seed_from_u64(0x11c1);
        for _case in 0..64 {
            let len = rng.gen_range(0usize..100);
            let mut c = SetAssocCache::new(CacheConfig::tiny(2, 2));
            for _ in 0..len {
                c.access(BlockAddr::new(rng.gen_range(0u64..64)), false);
            }
            let s = c.stats();
            assert_eq!(s.accesses(), len as u64);
            assert!((0.0..=1.0).contains(&s.miss_ratio()));
        }
    }

    /// Accessing a working set no larger than one set's associativity
    /// never evicts: everything stays resident (LRU is safe at capacity).
    #[test]
    fn small_working_set_never_evicts() {
        let mut rng = SimRng::seed_from_u64(0x11c2);
        for _case in 0..32 {
            let reps = rng.gen_range(1usize..20);
            let mut c = SetAssocCache::new(CacheConfig::tiny(1, 4));
            let ws: Vec<u64> = (0..4).collect();
            for _ in 0..reps {
                for &a in &ws {
                    c.access(BlockAddr::new(a), false);
                }
            }
            let s = c.stats();
            assert_eq!(s.misses, 4); // only the cold misses
        }
    }
}

/// The array-of-lines LRU cache the packed layout replaced, kept as the
/// reference model for [`SetAssocCache`].
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Clone, Copy)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        lru: u64, // larger = more recently used
    }

    const INVALID: Line = Line {
        tag: 0,
        valid: false,
        dirty: false,
        lru: 0,
    };

    pub struct RefCache {
        config: CacheConfig,
        lines: Vec<Line>,
        tick: u64,
        pub stats: CacheStats,
    }

    impl RefCache {
        pub fn new(config: CacheConfig) -> Self {
            RefCache {
                lines: vec![INVALID; config.sets * config.ways],
                config,
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn set_range(&self, block: BlockAddr) -> (usize, u64) {
            let set = (block.bfn() as usize) & (self.config.sets - 1);
            (set * self.config.ways, block.bfn())
        }

        pub fn access(&mut self, block: BlockAddr, is_write: bool) -> CacheOutcome {
            self.tick += 1;
            let (base, tag) = self.set_range(block);
            let ways = self.config.ways;
            for line in &mut self.lines[base..base + ways] {
                if line.valid && line.tag == tag {
                    line.lru = self.tick;
                    line.dirty |= is_write;
                    self.stats.hits += 1;
                    return CacheOutcome::Hit;
                }
            }
            self.stats.misses += 1;
            let mut victim = base;
            let mut victim_lru = u64::MAX;
            for i in base..base + ways {
                if !self.lines[i].valid {
                    victim = i;
                    break;
                }
                if self.lines[i].lru < victim_lru {
                    victim = i;
                    victim_lru = self.lines[i].lru;
                }
            }
            let old = self.lines[victim];
            let evicted = if old.valid {
                if old.dirty {
                    self.stats.writebacks += 1;
                }
                Some((BlockAddr::new(old.tag), old.dirty))
            } else {
                None
            };
            self.lines[victim] = Line {
                tag,
                valid: true,
                dirty: is_write,
                lru: self.tick,
            };
            CacheOutcome::Miss { evicted }
        }

        pub fn contains(&self, block: BlockAddr) -> bool {
            let (base, tag) = self.set_range(block);
            self.lines[base..base + self.config.ways]
                .iter()
                .any(|l| l.valid && l.tag == tag)
        }

        pub fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
            let (base, tag) = self.set_range(block);
            for line in &mut self.lines[base..base + self.config.ways] {
                if line.valid && line.tag == tag {
                    line.valid = false;
                    return Some(line.dirty);
                }
            }
            None
        }

        pub fn reset(&mut self) {
            self.lines.fill(INVALID);
            self.tick = 0;
            self.stats = CacheStats::default();
        }
    }
}

#[cfg(test)]
mod reference_equivalence {
    use super::reference::RefCache;
    use super::*;
    use starnuma_types::SimRng;

    /// Random streams of accesses with invalidations, reset and
    /// (LRU-neutral) lookups interleaved produce the same hit/miss, victim,
    /// dirty bit and statistics as the reference model, step by step.
    #[test]
    fn packed_cache_matches_reference_model() {
        let mut rng = SimRng::seed_from_u64(0x11c3);
        for (sets, ways) in [(1, 1), (1, 4), (2, 2), (4, 3), (8, 16), (64, 16)] {
            let config = CacheConfig::tiny(sets, ways);
            for _case in 0..16 {
                let mut packed = SetAssocCache::new(config);
                let mut reference = RefCache::new(config);
                // A key range a few times the capacity forces evictions.
                let keys = (config.capacity_blocks() as u64 * 3).max(4);
                for step in 0..2_000 {
                    let block = BlockAddr::new(rng.gen_range(0..keys));
                    match rng.gen_range(0u32..100) {
                        0 => {
                            packed.reset();
                            reference.reset();
                        }
                        1..=12 => assert_eq!(
                            packed.invalidate(block),
                            reference.invalidate(block),
                            "invalidate {block:?} at step {step}"
                        ),
                        13..=20 => assert_eq!(packed.contains(block), reference.contains(block)),
                        _ => {
                            let write = rng.gen_bool(0.4);
                            assert_eq!(
                                packed.access(block, write),
                                reference.access(block, write),
                                "access {block:?} at step {step} ({sets}×{ways})"
                            );
                        }
                    }
                    assert_eq!(packed.stats(), reference.stats);
                }
            }
        }
    }
}
