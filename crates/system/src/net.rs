//! The datacenter network cost model shared by the analytical simulator
//! and the live serving runtime.
//!
//! §II-A reaches hardware microservices "directly through an IP address"
//! over the datacenter network, and §I's latency argument only holds if
//! that network is accounted for. `bw-serve`'s scatter/gather coordinator
//! charges each leg with [`NetworkModel::one_way_on`] and consults
//! [`NetworkModel::link_up`] for injected link faults, and
//! [`PreloadModel`](crate::PreloadModel) prices a weight image's trip with
//! the same call.

/// Per-hop latency + bandwidth + optional link fault injection.
///
/// A transfer of `b` bytes over one hop costs
/// `hop_latency_s + b / bandwidth_bytes_per_s` one way; a zero (or
/// non-finite) bandwidth means "latency only" — the serialization term is
/// dropped. Links are identified by a small integer (the serving runtime
/// uses the worker id); [`NetworkModel::fail_link`] marks a link down for
/// fault injection. The model is `Copy` on purpose — it rides inside
/// configuration structs — so the fault set is a 64-bit mask: links 64 and
/// above are always up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// One-way per-message latency of a hop, in seconds.
    pub hop_latency_s: f64,
    /// Link bandwidth in bytes per second. `0.0` (the default) models an
    /// infinitely fast link: only `hop_latency_s` is charged.
    pub bandwidth_bytes_per_s: f64,
    /// Bitmask of links that are down (bit `i` = link `i`). Normally 0;
    /// set via [`NetworkModel::fail_link`] for fault injection.
    pub down_links: u64,
    /// Bitmask of links that are up but slow (bit `i` = link `i`).
    /// Transfers over a degraded link cost
    /// [`degraded_factor`](NetworkModel::degraded_factor) times the
    /// healthy price. Set via [`NetworkModel::degrade_link`].
    pub degraded_links: u64,
    /// Cost multiplier applied to degraded links (≥ 1.0; default 1.0).
    pub degraded_factor: f64,
}

impl Default for NetworkModel {
    fn default() -> NetworkModel {
        NetworkModel {
            hop_latency_s: 0.0,
            bandwidth_bytes_per_s: 0.0,
            down_links: 0,
            degraded_links: 0,
            // A factor-of-one slowdown, so a degraded mask without an
            // explicit factor changes nothing.
            degraded_factor: 1.0,
        }
    }
}

impl NetworkModel {
    /// The ideal network: zero latency, infinite bandwidth, all links up.
    /// This is also the [`Default`], so existing single-host setups keep
    /// their exact behavior.
    pub fn ideal() -> NetworkModel {
        NetworkModel::default()
    }

    /// A latency-only network with the given one-way hop cost.
    pub fn with_hop(hop_latency_s: f64) -> NetworkModel {
        NetworkModel {
            hop_latency_s,
            ..NetworkModel::default()
        }
    }

    /// Sets the link bandwidth (builder style).
    pub fn bandwidth(mut self, bytes_per_s: f64) -> NetworkModel {
        self.bandwidth_bytes_per_s = bytes_per_s;
        self
    }

    /// Marks `link` down (builder style). Links ≥ 64 cannot be failed.
    pub fn fail_link(mut self, link: usize) -> NetworkModel {
        if link < 64 {
            self.down_links |= 1 << link;
        }
        self
    }

    /// Marks `link` degraded — up, but `factor` times as expensive
    /// (builder style). The factor is shared by every degraded link and
    /// clamped to at least 1.0. Links ≥ 64 cannot be degraded.
    pub fn degrade_link(mut self, link: usize, factor: f64) -> NetworkModel {
        if link < 64 {
            self.degraded_links |= 1 << link;
            self.degraded_factor = if factor.is_finite() {
                factor.max(1.0)
            } else {
                1.0
            };
        }
        self
    }

    /// Whether `link` is up. Links ≥ 64 are always up.
    pub fn link_up(&self, link: usize) -> bool {
        link >= 64 || self.down_links & (1 << link) == 0
    }

    /// Whether `link` is marked degraded. Links ≥ 64 never are.
    pub fn link_degraded(&self, link: usize) -> bool {
        link < 64 && self.degraded_links & (1 << link) != 0
    }

    /// The one-way cost of moving `payload_bytes` over one hop:
    /// `hop_latency_s` plus the serialization time at the configured
    /// bandwidth (zero if bandwidth is unset).
    pub(crate) fn one_way_s(&self, payload_bytes: usize) -> f64 {
        let serial = if self.bandwidth_bytes_per_s > 0.0 && self.bandwidth_bytes_per_s.is_finite() {
            payload_bytes as f64 / self.bandwidth_bytes_per_s
        } else {
            0.0
        };
        self.hop_latency_s + serial
    }

    /// The one-way cost of moving `payload_bytes` over `link`
    /// specifically: the healthy price over one hop (`hop_latency_s` plus
    /// the serialization time at the configured bandwidth, zero if
    /// bandwidth is unset),
    /// multiplied by [`degraded_factor`](NetworkModel::degraded_factor)
    /// if the link is marked degraded.
    pub fn one_way_on(&self, link: usize, payload_bytes: usize) -> f64 {
        let base = self.one_way_s(payload_bytes);
        if self.link_degraded(link) {
            base * self.degraded_factor.max(1.0)
        } else {
            base
        }
    }

    /// Whether the model charges anything at all — `false` for
    /// [`NetworkModel::ideal`], letting hot paths skip the charge.
    pub fn is_ideal(&self) -> bool {
        self.hop_latency_s == 0.0 && self.bandwidth_bytes_per_s == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_charges_nothing() {
        let net = NetworkModel::ideal();
        assert!(net.is_ideal());
        assert_eq!(net.one_way_s(1 << 20), 0.0);
        assert!(net.link_up(0));
    }

    #[test]
    fn latency_and_bandwidth_compose() {
        let net = NetworkModel::with_hop(10e-6).bandwidth(1e9);
        assert!(!net.is_ideal());
        // 4 KiB at 1 GB/s = 4.096 µs serialization on top of the hop.
        let t = net.one_way_s(4096);
        assert!((t - (10e-6 + 4096.0 / 1e9)).abs() < 1e-12);
        // An empty message still pays the hop.
        assert_eq!(net.one_way_s(0), 10e-6);
    }

    #[test]
    fn zero_bandwidth_means_latency_only() {
        let net = NetworkModel::with_hop(5e-6);
        assert_eq!(net.one_way_s(usize::MAX / 2), 5e-6);
    }

    #[test]
    fn link_faults_are_per_link_and_bounded() {
        let net = NetworkModel::ideal().fail_link(2).fail_link(63);
        assert!(net.link_up(0));
        assert!(!net.link_up(2));
        assert!(!net.link_up(63));
        // Out-of-mask links are always up, and failing them is a no-op.
        let net = net.fail_link(64);
        assert!(net.link_up(64));
        assert!(net.link_up(usize::MAX));
    }

    #[test]
    fn degraded_links_multiply_the_cost() {
        let net = NetworkModel::with_hop(10e-6)
            .bandwidth(1e9)
            .degrade_link(3, 4.0);
        assert!(net.link_up(3), "degraded is not down");
        assert!(net.link_degraded(3));
        assert!(!net.link_degraded(0));
        let healthy = net.one_way_on(0, 4096);
        let slow = net.one_way_on(3, 4096);
        assert!((healthy - net.one_way_s(4096)).abs() < 1e-15);
        assert!((slow - 4.0 * healthy).abs() < 1e-12, "{slow} vs {healthy}");
    }

    #[test]
    fn degrade_factor_is_clamped_sane() {
        let net = NetworkModel::with_hop(1e-6).degrade_link(0, 0.25);
        // Sub-unity factors would make a degraded link *faster*; clamp.
        assert_eq!(net.degraded_factor, 1.0);
        assert_eq!(net.one_way_on(0, 0), net.one_way_s(0));
        let nan = NetworkModel::with_hop(1e-6).degrade_link(0, f64::NAN);
        assert_eq!(nan.degraded_factor, 1.0);
    }
}
