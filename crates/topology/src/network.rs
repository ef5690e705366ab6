//! The directed-link database and routing.
//!
//! Every physical channel of Fig. 1 is represented as a *directed link* with
//! its own per-direction bandwidth, so the simulator can model each direction
//! as an independent FIFO server and capture queuing delays:
//!
//! * intra-chassis, per ordered socket pair: one direct UPI link;
//! * per socket: an uplink and a downlink UPI connection to the chassis'
//!   FLEX ASIC complex (used by inter-chassis traffic);
//! * per ordered chassis pair: the aggregated NUMALinks (two FLEX ASICs per
//!   chassis give four NUMALinks per chassis pair);
//! * per socket (StarNUMA only): a CXL uplink and downlink to the pool.
//!
//! A one-way message follows these hop rules: none within a socket (or
//! within the pool); one direct UPI link within a chassis; UPI uplink,
//! NUMALink, UPI downlink across chassis; one CXL link between a socket and
//! the pool. Every route is resolved once, at construction, into a dense
//! `(sockets + 1)²` table indexed by endpoint (the pool is endpoint
//! `num_sockets`), so [`Network::leg`] is a lookup that allocates nothing.

use core::fmt;
use std::collections::BTreeMap;

use starnuma_types::{ChassisId, Diagnostic, Location, SocketId, StarNumaError};

use crate::latency::LatencyModel;
use crate::params::SystemParams;

/// Index of one directed link in a [`Network`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(u32);

impl LinkId {
    /// Returns the raw index (dense, `0..Network::link_count()`).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// The physical technology of a link.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LinkKind {
    /// An intra-chassis UPI link (socket↔socket or socket↔FLEX ASIC).
    Upi,
    /// An inter-chassis NUMALink bundle between two FLEX ASIC complexes.
    NumaLink,
    /// A CXL link between a socket and the memory pool's MHD.
    Cxl,
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkKind::Upi => f.write_str("UPI"),
            LinkKind::NumaLink => f.write_str("NUMALink"),
            LinkKind::Cxl => f.write_str("CXL"),
        }
    }
}

/// Classification of a demand memory access by its target distance, matching
/// the access-type breakdown of Fig. 8c.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessClass {
    /// Local DRAM of the requesting socket (80 ns unloaded).
    Local,
    /// DRAM of another socket in the same chassis (130 ns unloaded).
    OneHop,
    /// DRAM of a socket in a different chassis (360 ns unloaded).
    TwoHop,
    /// The CXL memory pool (180 ns unloaded).
    Pool,
    /// Coherence-triggered 3-hop socket-to-socket block transfer (§III-C).
    BtSocket,
    /// Coherence-triggered 4-hop block transfer via the pool (§III-C).
    BtPool,
}

impl AccessClass {
    /// All classes, in Fig. 8c presentation order.
    pub const ALL: [AccessClass; 6] = [
        AccessClass::Local,
        AccessClass::OneHop,
        AccessClass::TwoHop,
        AccessClass::Pool,
        AccessClass::BtSocket,
        AccessClass::BtPool,
    ];

    /// This class's position in [`AccessClass::ALL`] (stats array index).
    pub const fn index(self) -> usize {
        match self {
            AccessClass::Local => 0,
            AccessClass::OneHop => 1,
            AccessClass::TwoHop => 2,
            AccessClass::Pool => 3,
            AccessClass::BtSocket => 4,
            AccessClass::BtPool => 5,
        }
    }

    /// Short label used in harness output.
    pub fn label(self) -> &'static str {
        match self {
            AccessClass::Local => "Local",
            AccessClass::OneHop => "1-hop",
            AccessClass::TwoHop => "2-hop",
            AccessClass::Pool => "Pool",
            AccessClass::BtSocket => "BT_Socket",
            AccessClass::BtPool => "BT_Pool",
        }
    }
}

impl fmt::Display for AccessClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The link database and router for one system configuration.
///
/// # Examples
///
/// ```
/// use starnuma_topology::{Network, SystemParams};
/// use starnuma_types::{Location, SocketId};
///
/// let net = Network::new(&SystemParams::scaled_starnuma());
/// let (s0, s5) = (SocketId::new(0), Location::Socket(SocketId::new(5)));
/// assert_eq!(net.leg(Location::Socket(s0), s5).len(), 3); // UPI uplink, NUMALink, UPI downlink
/// assert_eq!(net.latency().demand_access(s0, s5).raw(), 360.0);
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    latency: LatencyModel,
    kinds: Vec<LinkKind>,
    bandwidths: Vec<f64>,
    num_sockets: usize,
    /// Row-major `(num_sockets + 1)²` leg table; see [`Network::leg`].
    legs: Vec<Leg>,
}

/// One precomputed one-way route: up to three links, or [`NO_POOL`].
#[derive(Clone, Copy, Debug)]
struct Leg {
    links: [LinkId; 3],
    len: u8,
}

/// `Leg::len` of a socket↔pool leg on a configuration without a pool.
const NO_POOL: u8 = u8::MAX;

impl Network {
    /// Builds the link database for the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`SystemParams::diagnostics`]; use
    /// [`Network::try_new`] to get the findings instead.
    pub fn new(params: &SystemParams) -> Self {
        // audit:allow(SN001) — documented panicking convenience wrapper.
        Self::try_new(params).expect("invalid system parameters")
    }

    /// Builds the link database after running the Pass 2 model checks.
    ///
    /// # Errors
    ///
    /// Returns [`StarNumaError::InvalidModel`] carrying every error-severity
    /// [`SystemParams::diagnostics`] finding.
    pub fn try_new(params: &SystemParams) -> Result<Self, StarNumaError> {
        let errors: Vec<_> = params
            .diagnostics()
            .into_iter()
            .filter(Diagnostic::is_error)
            .collect();
        if !errors.is_empty() {
            return Err(StarNumaError::InvalidModel(errors));
        }
        let mut net = Network {
            latency: LatencyModel::new(params.clone()),
            kinds: Vec::new(),
            bandwidths: Vec::new(),
            num_sockets: params.num_sockets,
            legs: Vec::new(),
        };
        let n = params.num_sockets;
        // Direct intra-chassis UPI links (each direction its own server).
        let mut upi_direct = BTreeMap::new();
        for s in SocketId::all(n) {
            for t in SocketId::all(n) {
                if s != t && s.same_chassis(t) {
                    let id = net.push(LinkKind::Upi, params.upi_bw.raw());
                    upi_direct.insert((s, t), id);
                }
            }
        }
        // Socket ↔ FLEX ASIC UPI connections.
        let upi_uplink: Vec<LinkId> = SocketId::all(n)
            .map(|_| net.push(LinkKind::Upi, params.upi_bw.raw()))
            .collect();
        let upi_downlink: Vec<LinkId> = SocketId::all(n)
            .map(|_| net.push(LinkKind::Upi, params.upi_bw.raw()))
            .collect();
        // Aggregated NUMALinks per ordered chassis pair.
        let numalink_bw = params.numalink_bw.raw() * params.numalinks_per_chassis_pair as f64;
        let chassis = params.num_chassis() as u8;
        let mut numalink = BTreeMap::new();
        for c in 0..chassis {
            for d in 0..chassis {
                if c != d {
                    let id = net.push(LinkKind::NumaLink, numalink_bw);
                    numalink.insert((ChassisId::new(c), ChassisId::new(d)), id);
                }
            }
        }
        // CXL star links (StarNUMA only).
        let (cxl_up, cxl_down): (Vec<LinkId>, Vec<LinkId>) = if params.has_pool {
            let up = SocketId::all(n)
                .map(|_| net.push(LinkKind::Cxl, params.cxl_bw.raw()))
                .collect();
            let down = SocketId::all(n)
                .map(|_| net.push(LinkKind::Cxl, params.cxl_bw.raw()))
                .collect();
            (up, down)
        } else {
            (Vec::new(), Vec::new())
        };
        // Resolve every (src, dst) leg once; the pool is endpoint `n`.
        let endpoints: Vec<Location> = SocketId::all(n)
            .map(Location::Socket)
            .chain([Location::Pool])
            .collect();
        let leg = |links: &[LinkId]| {
            let mut leg = Leg {
                links: [LinkId(0); 3],
                len: links.len() as u8,
            };
            leg.links[..links.len()].copy_from_slice(links);
            leg
        };
        let no_pool = Leg {
            links: [LinkId(0); 3],
            len: NO_POOL,
        };
        for &src in &endpoints {
            for &dst in &endpoints {
                net.legs.push(match (src, dst) {
                    (Location::Pool, Location::Pool) => leg(&[]),
                    (Location::Socket(s), Location::Pool) => cxl_up
                        .get(s.index() as usize)
                        .map_or(no_pool, |&up| leg(&[up])),
                    (Location::Pool, Location::Socket(t)) => cxl_down
                        .get(t.index() as usize)
                        .map_or(no_pool, |&down| leg(&[down])),
                    (Location::Socket(s), Location::Socket(t)) => {
                        if s == t {
                            leg(&[])
                        } else if s.same_chassis(t) {
                            leg(&[upi_direct[&(s, t)]])
                        } else {
                            leg(&[
                                upi_uplink[s.index() as usize],
                                numalink[&(s.chassis(), t.chassis())],
                                upi_downlink[t.index() as usize],
                            ])
                        }
                    }
                });
            }
        }
        Ok(net)
    }

    fn push(&mut self, kind: LinkKind, bw: f64) -> LinkId {
        let id = LinkId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.bandwidths.push(bw);
        id
    }

    /// Returns the system parameters this network was built from.
    pub fn params(&self) -> &SystemParams {
        self.latency.params()
    }

    /// Returns the latency model for this network.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Total number of directed links.
    pub fn link_count(&self) -> usize {
        self.kinds.len()
    }

    /// The technology of a link.
    pub fn link_kind(&self, id: LinkId) -> LinkKind {
        self.kinds[id.index()]
    }

    /// Per-direction bandwidth of a link in GB/s.
    pub fn link_bandwidth_gbps(&self, id: LinkId) -> f64 {
        self.bandwidths[id.index()]
    }

    /// Iterates over all link ids, in dense index order
    /// (`LinkId::index()` runs `0..link_count()`).
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.kinds.len() as u32).map(LinkId)
    }

    /// The links traversed by one one-way message from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if a pool endpoint is used on a configuration without a pool,
    /// or a socket is outside the configured socket count.
    pub fn leg(&self, src: Location, dst: Location) -> &[LinkId] {
        let leg = &self.legs[self.endpoint(src) * (self.num_sockets + 1) + self.endpoint(dst)];
        assert!(leg.len != NO_POOL, "no memory pool in this configuration");
        &leg.links[..leg.len as usize]
    }

    /// Dense leg-table index of an endpoint; the pool is `num_sockets`.
    fn endpoint(&self, loc: Location) -> usize {
        match loc {
            Location::Socket(s) => {
                let i = s.index() as usize;
                assert!(i < self.num_sockets, "socket {s:?} out of range");
                i
            }
            Location::Pool => self.num_sockets,
        }
    }

    /// Classifies a demand access from `requester` to memory at `target`.
    pub fn classify(&self, requester: SocketId, target: Location) -> AccessClass {
        match target {
            Location::Pool => AccessClass::Pool,
            Location::Socket(t) => {
                if requester == t {
                    AccessClass::Local
                } else if requester.same_chassis(t) {
                    AccessClass::OneHop
                } else {
                    AccessClass::TwoHop
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn starnuma_net() -> Network {
        Network::new(&SystemParams::scaled_starnuma())
    }

    #[test]
    fn link_counts_16_socket() {
        let net = starnuma_net();
        // Per chassis: 4×3 = 12 directed intra-chassis UPI; ×4 chassis = 48.
        // Uplinks 16 + downlinks 16 = 32 socket↔ASIC links.
        // NUMALink: 4×3 = 12 ordered chassis pairs.
        // CXL: 16 up + 16 down = 32.
        assert_eq!(net.link_count(), 48 + 32 + 12 + 32);
        let baseline = Network::new(&SystemParams::scaled_baseline());
        assert_eq!(baseline.link_count(), 48 + 32 + 12);
    }

    #[test]
    fn local_leg_is_empty() {
        let net = starnuma_net();
        let s = Location::Socket(SocketId::new(3));
        assert!(net.leg(s, s).is_empty());
        assert!(net.leg(Location::Pool, Location::Pool).is_empty());
    }

    #[test]
    fn intra_chassis_leg_is_one_upi() {
        let net = starnuma_net();
        let leg = net.leg(
            Location::Socket(SocketId::new(0)),
            Location::Socket(SocketId::new(2)),
        );
        assert_eq!(leg.len(), 1);
        assert_eq!(net.link_kind(leg[0]), LinkKind::Upi);
    }

    #[test]
    fn inter_chassis_leg_is_three_links() {
        let net = starnuma_net();
        let leg = net.leg(
            Location::Socket(SocketId::new(1)),
            Location::Socket(SocketId::new(9)),
        );
        assert_eq!(leg.len(), 3);
        assert_eq!(net.link_kind(leg[0]), LinkKind::Upi);
        assert_eq!(net.link_kind(leg[1]), LinkKind::NumaLink);
        assert_eq!(net.link_kind(leg[2]), LinkKind::Upi);
    }

    #[test]
    fn pool_leg_is_one_cxl() {
        let net = starnuma_net();
        let up = net.leg(Location::Socket(SocketId::new(7)), Location::Pool);
        let down = net.leg(Location::Pool, Location::Socket(SocketId::new(7)));
        assert_eq!(up.len(), 1);
        assert_eq!(down.len(), 1);
        assert_ne!(up[0], down[0], "directions are independent servers");
        assert_eq!(net.link_kind(up[0]), LinkKind::Cxl);
    }

    #[test]
    #[should_panic(expected = "no memory pool")]
    fn baseline_rejects_pool_routes() {
        let net = Network::new(&SystemParams::scaled_baseline());
        let _ = net.leg(Location::Socket(SocketId::new(0)), Location::Pool);
    }

    #[test]
    fn route_classification() {
        let net = starnuma_net();
        let s0 = SocketId::new(0);
        assert_eq!(net.classify(s0, Location::Socket(s0)), AccessClass::Local);
        assert_eq!(
            net.classify(s0, Location::Socket(SocketId::new(3))),
            AccessClass::OneHop
        );
        assert_eq!(
            net.classify(s0, Location::Socket(SocketId::new(12))),
            AccessClass::TwoHop
        );
        assert_eq!(net.classify(s0, Location::Pool), AccessClass::Pool);
    }

    #[test]
    fn route_latency_matches_model() {
        let net = starnuma_net();
        let (s0, s8) = (SocketId::new(0), Location::Socket(SocketId::new(8)));
        assert_eq!(net.latency().demand_access(s0, s8).raw(), 360.0);
        assert_eq!(net.leg(Location::Socket(s0), s8).len(), 3);
        assert_eq!(net.leg(s8, Location::Socket(s0)).len(), 3);
        assert_eq!(net.latency().demand_access(s0, Location::Pool).raw(), 180.0);
        assert_eq!(net.classify(s0, Location::Pool), AccessClass::Pool);
    }

    #[test]
    fn numalink_bandwidth_is_aggregated() {
        let net = starnuma_net();
        let leg = net.leg(
            Location::Socket(SocketId::new(0)),
            Location::Socket(SocketId::new(15)),
        );
        // Scaled NUMALink: 3 GB/s × 4 links per chassis pair = 12 GB/s.
        assert_eq!(net.link_bandwidth_gbps(leg[1]), 12.0);
        assert_eq!(net.link_bandwidth_gbps(leg[0]), 3.0);
    }

    #[test]
    fn distinct_directions_distinct_links() {
        let net = starnuma_net();
        let ab = net.leg(
            Location::Socket(SocketId::new(0)),
            Location::Socket(SocketId::new(1)),
        );
        let ba = net.leg(
            Location::Socket(SocketId::new(1)),
            Location::Socket(SocketId::new(0)),
        );
        assert_ne!(ab[0], ba[0]);
    }

    #[test]
    fn thirty_two_socket_network_builds() {
        let params = SystemParams::scaled_starnuma()
            .with_num_sockets(32)
            .unwrap();
        let net = Network::new(&params);
        let (s0, s31) = (SocketId::new(0), Location::Socket(SocketId::new(31)));
        assert_eq!(net.classify(s0, s31), AccessClass::TwoHop);
        assert_eq!(net.latency().demand_access(s0, s31).raw(), 360.0);
        // 8 chassis: 8×12 intra + 2×32 asic + 8×7 numalink + 2×32 cxl.
        assert_eq!(net.link_count(), 96 + 64 + 56 + 64);
    }

    /// Checks every `(src, dst)` entry of the dense leg table against the
    /// hop rules of the module doc: each UPI uplink/downlink and CXL link
    /// belongs to exactly one socket, each direct UPI link to one ordered
    /// socket pair, and each NUMALink to one ordered chassis pair.
    fn assert_hop_rules(params: &SystemParams) {
        let net = Network::new(params);
        let n = params.num_sockets;
        // Link → (role, a, b): sockets `a`/`b`, chassis for NUMALinks, and
        // `n` for the pool.
        let mut owners: BTreeMap<LinkId, (&str, usize, usize)> = BTreeMap::new();
        let mut claim = |id: LinkId, role: &'static str, a: usize, b: usize| {
            let prev = owners.insert(id, (role, a, b));
            assert!(
                prev.is_none() || prev == Some((role, a, b)),
                "link {id:?} is both {prev:?} and {:?}",
                (role, a, b)
            );
        };
        let sockets: Vec<SocketId> = SocketId::all(n).collect();
        for &s in &sockets {
            let (src, si) = (Location::Socket(s), s.index() as usize);
            for &t in &sockets {
                let (dst, ti) = (Location::Socket(t), t.index() as usize);
                let leg = net.leg(src, dst);
                let kinds: Vec<LinkKind> = leg.iter().map(|&l| net.link_kind(l)).collect();
                if s == t {
                    assert!(leg.is_empty(), "{s:?}→{t:?}");
                } else if s.same_chassis(t) {
                    assert_eq!(kinds, [LinkKind::Upi], "{s:?}→{t:?}");
                    claim(leg[0], "direct", si, ti);
                } else {
                    assert_eq!(
                        kinds,
                        [LinkKind::Upi, LinkKind::NumaLink, LinkKind::Upi],
                        "{s:?}→{t:?}"
                    );
                    let (cs, ct) = (s.chassis().index(), t.chassis().index());
                    claim(leg[0], "uplink", si, si);
                    claim(leg[1], "numalink", cs.into(), ct.into());
                    claim(leg[2], "downlink", ti, ti);
                }
            }
            if params.has_pool {
                let up = net.leg(src, Location::Pool);
                let down = net.leg(Location::Pool, src);
                assert_eq!(up.len(), 1);
                assert_eq!(down.len(), 1);
                assert_eq!(net.link_kind(up[0]), LinkKind::Cxl);
                assert_eq!(net.link_kind(down[0]), LinkKind::Cxl);
                claim(up[0], "cxl_up", si, n);
                claim(down[0], "cxl_down", n, si);
            } else {
                for (a, b) in [(src, Location::Pool), (Location::Pool, src)] {
                    let panicked = std::panic::catch_unwind(|| net.leg(a, b).len()).is_err();
                    assert!(panicked, "{a:?}→{b:?} must reject a missing pool");
                }
            }
        }
        assert!(net.leg(Location::Pool, Location::Pool).is_empty());
        // Every link of the database is reached by some leg.
        assert_eq!(owners.len(), net.link_count());
    }

    #[test]
    fn dense_leg_table_follows_hop_rules() {
        for params in [
            SystemParams::scaled_baseline(),
            SystemParams::scaled_starnuma(),
        ] {
            assert_hop_rules(&params);
            assert_hop_rules(&params.with_num_sockets(32).unwrap());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn leg_rejects_sockets_beyond_the_configuration() {
        let net = starnuma_net();
        let _ = net.leg(Location::Socket(SocketId::new(16)), Location::Pool);
    }

    #[test]
    fn access_class_labels() {
        for c in AccessClass::ALL {
            assert!(!c.label().is_empty());
        }
        assert_eq!(AccessClass::Pool.to_string(), "Pool");
    }
}
