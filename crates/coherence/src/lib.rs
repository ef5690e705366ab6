//! Directory-based MESI coherence for the multi-socket system and the
//! CXL memory pool (§III-C of the paper).
//!
//! Directory information is distributed across the sockets and the pool,
//! aligned with the address-space distribution: the directory entry for a
//! block lives at the block's *home node* — the socket (or pool) whose
//! memory currently holds the containing page. Accesses that miss in their
//! originating socket's LLC are routed to the home node, which initiates all
//! subsequent coherence actions.
//!
//! Two socket-to-socket transfer patterns arise (Fig. 4):
//!
//! * home is a **socket** → classic 3-hop cache-to-cache transfer
//!   R→H→O→R (`BT_Socket`, 333 ns average unloaded network latency);
//! * home is the **pool** → 4-hop transfer via the pool R→H→O→H→R
//!   (`BT_Pool`, 200 ns: two CXL roundtrips) — counter-intuitively *faster*
//!   on average than 3-hop, because it avoids cross-chassis traversals.
//!
//! # Examples
//!
//! ```
//! use starnuma_coherence::{Directory, TransferKind};
//! use starnuma_types::{BlockAddr, Location, SocketId};
//!
//! let mut dir = Directory::new(16);
//! let b = BlockAddr::new(42);
//! let home = Location::Pool;
//! // Socket 0 writes the block: plain memory access, 0 becomes owner.
//! let w = dir.access(b, SocketId::new(0), true, home);
//! assert_eq!(w.transfer, TransferKind::FromMemory);
//! // Socket 1 reads it: dirty data is forwarded — a 4-hop pool transfer.
//! let r = dir.access(b, SocketId::new(1), false, home);
//! assert_eq!(r.transfer, TransferKind::CacheToCache { owner: SocketId::new(0) });
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use starnuma_obs::{MetricsFrame, Observe};
use starnuma_types::{BlockAddr, Location, SocketId};

/// How the requested data was supplied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransferKind {
    /// Served from memory at the home node (clean, or requester already had
    /// the only copy).
    FromMemory,
    /// Forwarded from the owning socket's cache: a 3-hop (socket home) or
    /// 4-hop (pool home) block transfer.
    CacheToCache {
        /// The socket whose cache supplied the block.
        owner: SocketId,
    },
}

/// The directory's response to one LLC-missing access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoherenceOutcome {
    /// How the data was supplied.
    pub transfer: TransferKind,
    /// Bitmask of sockets whose cached copies must be invalidated (writes
    /// only; bit `i` is socket `i`). Each set bit generates an invalidation
    /// message on the interconnect and a back-invalidation into that
    /// socket's LLC.
    pub invalidations: u32,
}

impl CoherenceOutcome {
    /// The sockets to invalidate, in ascending socket order.
    pub fn invalidated_sockets(&self) -> impl Iterator<Item = SocketId> {
        sockets_in(self.invalidations)
    }
}

/// The sockets whose bits are set in `mask`, in ascending order.
fn sockets_in(mut mask: u32) -> impl Iterator<Item = SocketId> {
    core::iter::from_fn(move || {
        let s = mask.trailing_zeros();
        (s < 32).then(|| {
            mask &= mask - 1;
            SocketId::new(s as u16)
        })
    })
}

/// Coherence-protocol statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DirectoryStats {
    /// Total directory transactions (every LLC-missing access is one).
    pub transactions: u64,
    /// Transactions whose home was the memory pool — the CXL directory load
    /// discussed in §V-A ("a coherence transaction every 100 ns").
    pub pool_transactions: u64,
    /// Cache-to-cache transfers with a socket home (3-hop, `BT_Socket`).
    pub bt_socket: u64,
    /// Cache-to-cache transfers via the pool (4-hop, `BT_Pool`).
    pub bt_pool: u64,
    /// Invalidation messages sent.
    pub invalidations: u64,
    /// Dirty writebacks received.
    pub writebacks: u64,
}

impl Observe for DirectoryStats {
    fn observe(&self, prefix: &str, frame: &mut MetricsFrame) {
        frame.add_counter(&format!("{prefix}.transactions"), self.transactions);
        frame.add_counter(
            &format!("{prefix}.pool_transactions"),
            self.pool_transactions,
        );
        frame.add_counter(&format!("{prefix}.bt_socket"), self.bt_socket);
        frame.add_counter(&format!("{prefix}.bt_pool"), self.bt_pool);
        frame.add_counter(&format!("{prefix}.invalidations"), self.invalidations);
        frame.add_counter(&format!("{prefix}.writebacks"), self.writebacks);
    }
}

/// The distributed coherence directory.
///
/// One logical object models every home node's directory slice; per-home
/// statistics are kept so the pool directory's transaction rate can be
/// reported separately.
///
/// State is stored densely by block frame number, 4 bytes and one bit per
/// block: `sharers[b]` is the bitmask of sockets holding block `b` (0 means
/// the block has no directory state), and bit `b` of `modified` marks a
/// Modified/Exclusive owner. A block with an owner has exactly the owner's
/// bit as its sharers, so the owner is `sharers[b].trailing_zeros()`. Both
/// arrays grow by powers of two from zeroed allocations, so only the host
/// pages around touched blocks become resident; blocks are bounded by the
/// workload's footprint.
#[derive(Clone, Debug)]
pub struct Directory {
    num_sockets: usize,
    sharers: Vec<u32>,
    modified: Vec<u64>,
    tracked: usize,
    stats: DirectoryStats,
}

impl Directory {
    /// Creates an empty directory for an `num_sockets`-socket system.
    ///
    /// # Panics
    ///
    /// Panics if `num_sockets` is zero or exceeds 32 (the sharer bitmask
    /// width; the paper targets 8–32 sockets).
    pub fn new(num_sockets: usize) -> Self {
        assert!(
            (1..=32).contains(&num_sockets),
            "socket count must be in 1..=32, got {num_sockets}"
        );
        Directory {
            num_sockets,
            sharers: Vec::new(),
            modified: Vec::new(),
            tracked: 0,
            stats: DirectoryStats::default(),
        }
    }

    /// Returns protocol statistics.
    pub fn stats(&self) -> DirectoryStats {
        self.stats
    }

    /// Number of blocks with directory state.
    pub fn tracked_blocks(&self) -> usize {
        self.tracked
    }

    fn bit(s: SocketId) -> u32 {
        1u32 << s.index()
    }

    /// Dense index of `block`, growing the arrays to cover it.
    fn slot(&mut self, block: BlockAddr) -> usize {
        // audit:allow(SN001) — panic contract documented on `access`.
        let i = usize::try_from(block.bfn()).expect("block frame number exceeds usize");
        if i >= self.sharers.len() {
            // At least one whole `modified` word, so its length is exact.
            let len = (i + 1).next_power_of_two().max(64);
            let mut sharers = vec![0; len];
            sharers[..self.sharers.len()].copy_from_slice(&self.sharers);
            self.sharers = sharers;
            let mut modified = vec![0; len / 64];
            modified[..self.modified.len()].copy_from_slice(&self.modified);
            self.modified = modified;
        }
        i
    }

    /// Dense index of `block` if the arrays already cover it.
    fn covered(&self, block: BlockAddr) -> Option<usize> {
        usize::try_from(block.bfn())
            .ok()
            .filter(|&i| i < self.sharers.len())
    }

    fn is_modified(&self, i: usize) -> bool {
        self.modified[i / 64] >> (i % 64) & 1 == 1
    }

    fn set_modified(&mut self, i: usize, on: bool) {
        let word = &mut self.modified[i / 64];
        let bit = 1u64 << (i % 64);
        if on {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// The Modified owner of the block at dense index `i`, if any.
    fn owner_at(&self, i: usize) -> Option<SocketId> {
        let sharers = self.sharers[i];
        debug_assert!(
            !self.is_modified(i) || sharers.is_power_of_two(),
            "owned block {i} must have exactly its owner as sharer, got {sharers:#x}"
        );
        self.is_modified(i)
            .then(|| SocketId::new(sharers.trailing_zeros() as u16))
    }

    /// Processes an LLC-missing access to `block` by `requester`, with the
    /// block's page homed at `home`. Returns how the data is supplied and
    /// which sockets must be invalidated.
    ///
    /// # Panics
    ///
    /// Panics if `requester` is outside the configured socket count, or if
    /// `block`'s frame number does not fit in `usize`.
    pub fn access(
        &mut self,
        block: BlockAddr,
        requester: SocketId,
        is_write: bool,
        home: Location,
    ) -> CoherenceOutcome {
        assert!(
            (requester.index() as usize) < self.num_sockets,
            "requester {requester:?} out of range"
        );
        self.stats.transactions += 1;
        if home.is_pool() {
            self.stats.pool_transactions += 1;
        }
        let i = self.slot(block);
        let req_bit = Self::bit(requester);
        let owner = self.owner_at(i);
        if self.sharers[i] == 0 {
            self.tracked += 1;
        }

        // Determine data source.
        let transfer = match owner {
            Some(owner) if owner != requester => {
                if home.is_pool() {
                    self.stats.bt_pool += 1;
                } else {
                    self.stats.bt_socket += 1;
                }
                TransferKind::CacheToCache { owner }
            }
            _ => TransferKind::FromMemory,
        };

        let mut invalidations = 0;
        if is_write {
            // All other copies are invalidated; requester becomes owner.
            invalidations = self.sharers[i] & !req_bit;
            self.stats.invalidations += u64::from(invalidations.count_ones());
            self.sharers[i] = req_bit;
            self.set_modified(i, true);
        } else {
            // Read: previous owner (if different) downgrades to Shared.
            if owner.is_some_and(|owner| owner != requester) {
                self.set_modified(i, false);
            }
            self.sharers[i] |= req_bit;
        }
        CoherenceOutcome {
            transfer,
            invalidations,
        }
    }

    /// Records that `socket` evicted `block` from its LLC; `dirty` evictions
    /// write data back to the home memory.
    pub fn evict(&mut self, block: BlockAddr, socket: SocketId, dirty: bool) {
        let Some(i) = self.covered(block).filter(|&i| self.sharers[i] != 0) else {
            return;
        };
        if self.owner_at(i) == Some(socket) {
            self.set_modified(i, false);
        }
        self.sharers[i] &= !Self::bit(socket);
        if dirty {
            self.stats.writebacks += 1;
        }
        if self.sharers[i] == 0 {
            self.tracked -= 1;
        }
    }

    /// Current sharers of `block` (for tests and diagnostics).
    pub fn sharers(&self, block: BlockAddr) -> Vec<SocketId> {
        sockets_in(self.covered(block).map_or(0, |i| self.sharers[i])).collect()
    }

    /// Current Modified owner of `block`, if any.
    pub fn owner(&self, block: BlockAddr) -> Option<SocketId> {
        self.covered(block).and_then(|i| self.owner_at(i))
    }

    /// Clears all directory state and statistics (between phases).
    pub fn reset(&mut self) {
        // Fresh zeroed allocations release the touched host pages.
        self.sharers = vec![0; self.sharers.len()];
        self.modified = vec![0; self.modified.len()];
        self.tracked = 0;
        self.stats = DirectoryStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOME_SOCKET: Location = Location::Socket(SocketId::new(2));

    fn s(i: u16) -> SocketId {
        SocketId::new(i)
    }

    #[test]
    fn cold_read_comes_from_memory() {
        let mut d = Directory::new(16);
        let out = d.access(BlockAddr::new(1), s(0), false, HOME_SOCKET);
        assert_eq!(out.transfer, TransferKind::FromMemory);
        assert_eq!(out.invalidations, 0);
        assert_eq!(d.sharers(BlockAddr::new(1)), vec![s(0)]);
    }

    #[test]
    fn read_of_dirty_block_is_cache_to_cache() {
        let mut d = Directory::new(16);
        let b = BlockAddr::new(1);
        d.access(b, s(0), true, HOME_SOCKET);
        let out = d.access(b, s(1), false, HOME_SOCKET);
        assert_eq!(out.transfer, TransferKind::CacheToCache { owner: s(0) });
        // Owner downgraded; both are sharers now.
        assert_eq!(d.owner(b), None);
        assert_eq!(d.sharers(b), vec![s(0), s(1)]);
        assert_eq!(d.stats().bt_socket, 1);
        assert_eq!(d.stats().bt_pool, 0);
    }

    #[test]
    fn pool_home_transfer_counts_as_bt_pool() {
        let mut d = Directory::new(16);
        let b = BlockAddr::new(1);
        d.access(b, s(0), true, Location::Pool);
        let out = d.access(b, s(1), false, Location::Pool);
        assert_eq!(out.transfer, TransferKind::CacheToCache { owner: s(0) });
        assert_eq!(d.stats().bt_pool, 1);
        assert_eq!(d.stats().pool_transactions, 2);
    }

    #[test]
    fn write_invalidates_all_sharers() {
        let mut d = Directory::new(16);
        let b = BlockAddr::new(9);
        d.access(b, s(0), false, HOME_SOCKET);
        d.access(b, s(1), false, HOME_SOCKET);
        d.access(b, s(3), false, HOME_SOCKET);
        let out = d.access(b, s(5), true, HOME_SOCKET);
        assert_eq!(
            out.invalidated_sockets().collect::<Vec<_>>(),
            vec![s(0), s(1), s(3)]
        );
        assert_eq!(d.owner(b), Some(s(5)));
        assert_eq!(d.sharers(b), vec![s(5)]);
        assert_eq!(d.stats().invalidations, 3);
    }

    #[test]
    fn write_by_owner_is_silent() {
        let mut d = Directory::new(16);
        let b = BlockAddr::new(2);
        d.access(b, s(4), true, HOME_SOCKET);
        let out = d.access(b, s(4), true, HOME_SOCKET);
        assert_eq!(out.transfer, TransferKind::FromMemory);
        assert_eq!(out.invalidations, 0);
        assert_eq!(d.owner(b), Some(s(4)));
    }

    #[test]
    fn write_after_reads_then_new_owner_transfer() {
        let mut d = Directory::new(16);
        let b = BlockAddr::new(7);
        d.access(b, s(0), true, Location::Pool); // 0 owns
        let out = d.access(b, s(8), true, Location::Pool); // 8 takes ownership
        assert_eq!(out.transfer, TransferKind::CacheToCache { owner: s(0) });
        assert_eq!(out.invalidated_sockets().collect::<Vec<_>>(), vec![s(0)]);
        assert_eq!(d.owner(b), Some(s(8)));
    }

    #[test]
    fn eviction_removes_sharer_and_owner() {
        let mut d = Directory::new(16);
        let b = BlockAddr::new(3);
        d.access(b, s(0), true, HOME_SOCKET);
        d.evict(b, s(0), true);
        assert_eq!(d.owner(b), None);
        assert!(d.sharers(b).is_empty());
        assert_eq!(d.stats().writebacks, 1);
        assert_eq!(d.tracked_blocks(), 0, "empty entries are garbage-collected");
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut d = Directory::new(16);
        let b = BlockAddr::new(3);
        d.access(b, s(0), false, HOME_SOCKET);
        d.evict(b, s(0), false);
        assert_eq!(d.stats().writebacks, 0);
    }

    #[test]
    fn eviction_of_untracked_block_is_noop() {
        let mut d = Directory::new(16);
        d.evict(BlockAddr::new(99), s(0), true);
        assert_eq!(d.stats().writebacks, 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut d = Directory::new(16);
        d.access(BlockAddr::new(1), s(0), true, Location::Pool);
        d.reset();
        assert_eq!(d.tracked_blocks(), 0);
        assert_eq!(d.stats().transactions, 0);
    }

    #[test]
    #[should_panic(expected = "socket count must be in 1..=32")]
    fn rejects_oversized_system() {
        let _ = Directory::new(33);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_requester() {
        let mut d = Directory::new(4);
        d.access(BlockAddr::new(0), s(7), false, HOME_SOCKET);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use starnuma_types::SimRng;

    #[derive(Clone, Debug)]
    struct Op {
        block: u64,
        socket: u16,
        write: bool,
        evict: bool,
    }

    fn random_op(rng: &mut SimRng) -> Op {
        Op {
            block: rng.gen_range(0u64..8),
            socket: rng.gen_range(0u16..16),
            write: rng.gen_bool(0.5),
            evict: rng.gen_bool(0.2),
        }
    }

    /// Protocol invariant: whenever a block has a Modified owner, the
    /// owner is its only sharer (single-writer / multiple-reader).
    #[test]
    fn single_writer_invariant() {
        let mut rng = SimRng::seed_from_u64(0xc04e);
        for _case in 0..64 {
            let len = rng.gen_range(1usize..300);
            let mut d = Directory::new(16);
            for _ in 0..len {
                let op = random_op(&mut rng);
                let b = BlockAddr::new(op.block);
                let sid = SocketId::new(op.socket);
                if op.evict {
                    d.evict(b, sid, op.write);
                } else {
                    d.access(b, sid, op.write, Location::Pool);
                }
                if let Some(owner) = d.owner(b) {
                    assert_eq!(d.sharers(b), vec![owner]);
                }
            }
        }
    }

    /// Invalidations never include the requester, and after a write the
    /// requester is the sole sharer.
    #[test]
    fn writes_leave_exactly_one_sharer() {
        let mut rng = SimRng::seed_from_u64(0xc04f);
        for _case in 0..64 {
            let len = rng.gen_range(1usize..200);
            let mut d = Directory::new(16);
            for _ in 0..len {
                let op = random_op(&mut rng);
                let b = BlockAddr::new(op.block);
                let sid = SocketId::new(op.socket);
                if op.evict {
                    d.evict(b, sid, false);
                    continue;
                }
                let out = d.access(b, sid, op.write, Location::Socket(SocketId::new(0)));
                assert!(!out.invalidated_sockets().any(|s| s == sid));
                if op.write {
                    assert_eq!(d.sharers(b), vec![sid]);
                }
            }
        }
    }
}

/// The map-of-entries directory the dense layout replaced, kept as the
/// reference model for [`Directory`].
#[cfg(test)]
mod reference {
    use super::*;
    use starnuma_types::DetMap;

    #[derive(Clone, Copy, Default)]
    struct Entry {
        sharers: u32,
        owner: Option<SocketId>,
    }

    pub struct RefDirectory {
        num_sockets: usize,
        entries: DetMap<BlockAddr, Entry>,
        pub stats: DirectoryStats,
    }

    impl RefDirectory {
        pub fn new(num_sockets: usize) -> Self {
            RefDirectory {
                num_sockets,
                entries: DetMap::new(),
                stats: DirectoryStats::default(),
            }
        }

        pub fn tracked_blocks(&self) -> usize {
            self.entries.len()
        }

        fn bit(s: SocketId) -> u32 {
            1u32 << s.index()
        }

        /// Returns the transfer kind and the invalidated sockets in order.
        pub fn access(
            &mut self,
            block: BlockAddr,
            requester: SocketId,
            is_write: bool,
            home: Location,
        ) -> (TransferKind, Vec<SocketId>) {
            self.stats.transactions += 1;
            if home.is_pool() {
                self.stats.pool_transactions += 1;
            }
            let entry = self.entries.entry_or_insert_with(block, Entry::default);
            let req_bit = Self::bit(requester);
            let transfer = match entry.owner {
                Some(owner) if owner != requester => {
                    if home.is_pool() {
                        self.stats.bt_pool += 1;
                    } else {
                        self.stats.bt_socket += 1;
                    }
                    TransferKind::CacheToCache { owner }
                }
                _ => TransferKind::FromMemory,
            };
            let mut invalidations = Vec::new();
            if is_write {
                let others = entry.sharers & !req_bit;
                for s in 0..self.num_sockets as u16 {
                    let sid = SocketId::new(s);
                    if others & Self::bit(sid) != 0 {
                        invalidations.push(sid);
                    }
                }
                self.stats.invalidations += invalidations.len() as u64;
                entry.sharers = req_bit;
                entry.owner = Some(requester);
            } else {
                if let Some(owner) = entry.owner {
                    if owner != requester {
                        entry.owner = None;
                    }
                }
                entry.sharers |= req_bit;
            }
            (transfer, invalidations)
        }

        pub fn evict(&mut self, block: BlockAddr, socket: SocketId, dirty: bool) {
            if let Some(entry) = self.entries.get_mut(&block) {
                entry.sharers &= !Self::bit(socket);
                if entry.owner == Some(socket) {
                    entry.owner = None;
                }
                if dirty {
                    self.stats.writebacks += 1;
                }
                if entry.sharers == 0 && entry.owner.is_none() {
                    self.entries.remove(&block);
                }
            }
        }

        pub fn sharers(&self, block: BlockAddr) -> Vec<SocketId> {
            match self.entries.get(&block) {
                None => Vec::new(),
                Some(e) => (0..self.num_sockets as u16)
                    .map(SocketId::new)
                    .filter(|s| e.sharers & Self::bit(*s) != 0)
                    .collect(),
            }
        }

        pub fn owner(&self, block: BlockAddr) -> Option<SocketId> {
            self.entries.get(&block).and_then(|e| e.owner)
        }

        pub fn reset(&mut self) {
            self.entries.clear();
            self.stats = DirectoryStats::default();
        }
    }
}

#[cfg(test)]
mod reference_equivalence {
    use super::reference::RefDirectory;
    use super::*;
    use starnuma_types::SimRng;

    /// Asserts the packed layout's invariant over every block: a block
    /// with a Modified owner has exactly the owner's bit as its sharers
    /// (`owner_at` recovers the owner from it), and `tracked` counts the
    /// blocks with state.
    fn assert_layout_invariant(d: &Directory) {
        let mut tracked = 0;
        for (i, &sharers) in d.sharers.iter().enumerate() {
            if d.is_modified(i) {
                assert_eq!(sharers.count_ones(), 1, "owned block {i}: {sharers:#x}");
            }
            tracked += usize::from(sharers != 0);
        }
        assert_eq!(tracked, d.tracked_blocks());
    }

    /// Random access/evict streams with resets interleaved give the same
    /// transfers, invalidation sets, sharers, owners, statistics and
    /// tracked-block counts as the reference model, at 16 and 32 sockets.
    #[test]
    fn dense_directory_matches_reference_model() {
        let mut rng = SimRng::seed_from_u64(0xc050);
        for sockets in [16usize, 32] {
            for case in 0..24 {
                let mut dense = Directory::new(sockets);
                let mut reference = RefDirectory::new(sockets);
                // Few blocks and many sharers per block, or a wide, sparse
                // block range that makes the arrays grow.
                let blocks: u64 = if case % 2 == 0 { 16 } else { 1 << 14 };
                for step in 0..3_000 {
                    let b = BlockAddr::new(rng.gen_range(0..blocks));
                    let sid = SocketId::new(rng.gen_range(0..sockets as u16));
                    let write = rng.gen_bool(0.4);
                    match rng.gen_range(0u32..100) {
                        0 => {
                            dense.reset();
                            reference.reset();
                        }
                        1..=30 => {
                            dense.evict(b, sid, write);
                            reference.evict(b, sid, write);
                        }
                        _ => {
                            let home = if rng.gen_bool(0.3) {
                                Location::Pool
                            } else {
                                Location::Socket(SocketId::new(rng.gen_range(0..sockets as u16)))
                            };
                            let out = dense.access(b, sid, write, home);
                            let (transfer, invalidated) = reference.access(b, sid, write, home);
                            assert_eq!(out.transfer, transfer, "step {step}");
                            assert_eq!(
                                out.invalidated_sockets().collect::<Vec<_>>(),
                                invalidated,
                                "step {step}"
                            );
                        }
                    }
                    assert_eq!(dense.sharers(b), reference.sharers(b), "step {step}");
                    assert_eq!(dense.owner(b), reference.owner(b), "step {step}");
                    assert_eq!(dense.stats(), reference.stats);
                    assert_eq!(dense.tracked_blocks(), reference.tracked_blocks());
                }
                assert_layout_invariant(&dense);
            }
        }
    }

    /// The owner invariant the dense layout relies on holds after every
    /// operation, including on blocks beyond the arrays' current length.
    #[test]
    fn owner_implies_single_sharer_bit() {
        let mut rng = SimRng::seed_from_u64(0xc051);
        for sockets in [16usize, 32] {
            let mut d = Directory::new(sockets);
            for _ in 0..5_000 {
                let b = BlockAddr::new(rng.gen_range(0u64..300));
                let sid = SocketId::new(rng.gen_range(0..sockets as u16));
                if rng.gen_bool(0.3) {
                    d.evict(b, sid, rng.gen_bool(0.5));
                } else {
                    d.access(b, sid, rng.gen_bool(0.5), Location::Pool);
                }
                if let Some(owner) = d.owner(b) {
                    assert_eq!(d.sharers(b), vec![owner]);
                }
                assert_layout_invariant(&d);
            }
            assert_eq!(d.owner(BlockAddr::new(1 << 40)), None);
            assert!(d.sharers(BlockAddr::new(1 << 40)).is_empty());
        }
    }
}
