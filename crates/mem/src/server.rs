//! A FIFO bandwidth server: the primitive behind every link and channel.

use starnuma_obs::{MetricsFrame, Observe};
use starnuma_types::{Cycles, GbPerSec};

/// Cumulative utilization statistics of a [`FifoServer`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServerStats {
    /// Total transfers serviced.
    pub transfers: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Total cycles the server was busy transferring.
    pub busy_cycles: Cycles,
    /// Total cycles transfers spent waiting for the server.
    pub wait_cycles: Cycles,
}

impl ServerStats {
    /// Mean queuing delay per transfer in cycles (0 if no transfers).
    pub fn mean_wait(&self) -> f64 {
        if self.transfers == 0 {
            0.0
        } else {
            self.wait_cycles.raw() as f64 / self.transfers as f64
        }
    }

    /// Server utilization over `elapsed` (0 if `elapsed` is zero).
    pub fn utilization(&self, elapsed: Cycles) -> f64 {
        if elapsed == Cycles::ZERO {
            0.0
        } else {
            self.busy_cycles.raw() as f64 / elapsed.raw() as f64
        }
    }
}

impl Observe for ServerStats {
    fn observe(&self, prefix: &str, frame: &mut MetricsFrame) {
        frame.add_counter(&format!("{prefix}.transfers"), self.transfers);
        frame.add_counter(&format!("{prefix}.bytes"), self.bytes);
        frame.add_counter(&format!("{prefix}.busy_cycles"), self.busy_cycles.raw());
        frame.add_counter(&format!("{prefix}.wait_cycles"), self.wait_cycles.raw());
    }
}

/// A work-conserving FIFO server with a fixed per-direction bandwidth.
///
/// A transfer of `b` bytes occupies the server for `ceil(b / rate)` cycles;
/// a transfer arriving while the server is busy waits until it drains. The
/// returned value of [`FifoServer::enqueue`] is that *waiting time* — the
/// contention delay the transfer suffers before its (separately accounted)
/// propagation latency.
///
/// Transfers must be enqueued in nondecreasing arrival-time order per server;
/// the discrete-event simulator guarantees this by processing events in
/// timestamp order.
#[derive(Clone, Debug)]
pub struct FifoServer {
    bandwidth: GbPerSec,
    /// `bandwidth.bytes_per_cycle()`, computed once.
    bytes_per_cycle: f64,
    busy_until: Cycles,
    stats: ServerStats,
}

impl FifoServer {
    /// Creates an idle server with the given per-direction bandwidth.
    pub fn new(bandwidth: GbPerSec) -> Self {
        FifoServer {
            bandwidth,
            bytes_per_cycle: bandwidth.bytes_per_cycle(),
            busy_until: Cycles::ZERO,
            stats: ServerStats::default(),
        }
    }

    /// Returns the configured bandwidth.
    pub fn bandwidth(&self) -> GbPerSec {
        self.bandwidth
    }

    /// Returns the time the server becomes idle.
    pub fn busy_until(&self) -> Cycles {
        self.busy_until
    }

    /// Enqueues a transfer of `bytes` arriving at `now` and returns the
    /// queuing delay it suffers (0 when the server is idle).
    pub fn enqueue(&mut self, now: Cycles, bytes: u64) -> Cycles {
        let start = self.busy_until.max(now);
        let wait = start - now;
        let occupancy = Cycles::for_bytes(bytes, self.bytes_per_cycle);
        self.busy_until = start + occupancy;
        self.stats.transfers += 1;
        self.stats.bytes += bytes;
        self.stats.busy_cycles += occupancy;
        self.stats.wait_cycles += wait;
        wait
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Resets the server to idle and clears statistics (used between
    /// simulation phases).
    pub fn reset(&mut self) {
        self.busy_until = Cycles::ZERO;
        self.stats = ServerStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> FifoServer {
        // 24 GB/s at 2.4 GHz = 10 bytes/cycle → 64 B occupies 7 cycles.
        FifoServer::new(GbPerSec::new(24.0))
    }

    #[test]
    fn idle_server_no_wait() {
        let mut s = server();
        assert_eq!(s.enqueue(Cycles::new(100), 64), Cycles::ZERO);
        assert_eq!(s.busy_until(), Cycles::new(107));
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let mut s = server();
        assert_eq!(s.enqueue(Cycles::new(0), 64), Cycles::ZERO);
        assert_eq!(s.enqueue(Cycles::new(0), 64), Cycles::new(7));
        assert_eq!(s.enqueue(Cycles::new(0), 64), Cycles::new(14));
        assert_eq!(s.busy_until(), Cycles::new(21));
    }

    #[test]
    fn spaced_transfers_do_not_queue() {
        let mut s = server();
        assert_eq!(s.enqueue(Cycles::new(0), 64), Cycles::ZERO);
        assert_eq!(s.enqueue(Cycles::new(50), 64), Cycles::ZERO);
        assert_eq!(s.busy_until(), Cycles::new(57));
    }

    #[test]
    fn partial_overlap() {
        let mut s = server();
        s.enqueue(Cycles::new(0), 64); // busy until 7
        assert_eq!(s.enqueue(Cycles::new(4), 64), Cycles::new(3));
    }

    #[test]
    fn stats_accumulate() {
        let mut s = server();
        s.enqueue(Cycles::new(0), 64);
        s.enqueue(Cycles::new(0), 64);
        let st = s.stats();
        assert_eq!(st.transfers, 2);
        assert_eq!(st.bytes, 128);
        assert_eq!(st.busy_cycles, Cycles::new(14));
        assert_eq!(st.wait_cycles, Cycles::new(7));
        assert_eq!(st.mean_wait(), 3.5);
        assert_eq!(st.utilization(Cycles::new(28)), 0.5);
    }

    #[test]
    fn reset_clears_state() {
        let mut s = server();
        s.enqueue(Cycles::new(0), 64);
        s.reset();
        assert_eq!(s.busy_until(), Cycles::ZERO);
        assert_eq!(s.stats().transfers, 0);
        assert_eq!(s.stats().mean_wait(), 0.0);
    }

    #[test]
    fn utilization_handles_zero_elapsed() {
        let s = server();
        assert_eq!(s.stats().utilization(Cycles::ZERO), 0.0);
    }

    #[test]
    fn wait_scales_inversely_with_bandwidth() {
        let mut slow = FifoServer::new(GbPerSec::new(3.0)); // scaled UPI
        let mut fast = FifoServer::new(GbPerSec::new(12.0)); // 4× NUMALink bundle
        slow.enqueue(Cycles::new(0), 64);
        fast.enqueue(Cycles::new(0), 64);
        let w_slow = slow.enqueue(Cycles::new(0), 64);
        let w_fast = fast.enqueue(Cycles::new(0), 64);
        assert!(w_slow.raw() > 3 * w_fast.raw());
    }
}
