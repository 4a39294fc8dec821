//! The weight-preload cost model: what it costs, in simulated time, to
//! pin a model's weights into a worker's matrix register file.
//!
//! §II's hardware-microservices story pins a model onto FPGAs once and
//! then serves it for days, which is why the serving runtime could treat
//! pinning as free. A fleet controller cannot: scaling a replica up means
//! shipping the model's MRF image across the datacenter network and
//! streaming it into on-chip SRAM before the first request can land, and
//! that window is exactly what the controller must hide. [`PreloadModel`]
//! prices that window from the artifact's MRF fill size (see
//! `ModelArtifact::mrf_fill_bytes` in `bw-gir`) and the shared
//! [`NetworkModel`](crate::NetworkModel) — including its degraded-link
//! multiplier, so preloading over a sick link is honestly slower.

use crate::NetworkModel;

/// Prices a weight preload: `network transfer + MRF fill + fixed setup`.
///
/// The network leg charges the weight image over the destination
/// worker's link at [`NetworkModel::one_way_on`] (so down-stream
/// degradation is felt); the fill leg streams the same bytes into the
/// matrix register file at `fill_bandwidth_bytes_per_s`; `setup_s` is a
/// fixed per-pin overhead (reconfiguration, control handshakes). The
/// default is [`PreloadModel::free`] — zero cost — so existing
/// boot-time-pinning setups keep their exact behavior; a fleet
/// controller opts into a real price.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PreloadModel {
    /// On-chip fill bandwidth in bytes per second. `0.0` (the default)
    /// models an instantaneous fill: only the network and setup terms
    /// are charged.
    pub fill_bandwidth_bytes_per_s: f64,
    /// Fixed per-pin overhead in seconds (control handshakes, partial
    /// reconfiguration).
    pub setup_s: f64,
}

impl PreloadModel {
    /// The free preload: pinning costs nothing, as the original
    /// boot-time-only runtime assumed. This is also the [`Default`].
    pub fn free() -> PreloadModel {
        PreloadModel::default()
    }

    /// Sets the MRF fill bandwidth (builder style).
    pub fn fill_bandwidth(mut self, bytes_per_s: f64) -> PreloadModel {
        self.fill_bandwidth_bytes_per_s = bytes_per_s;
        self
    }

    /// Sets the fixed per-pin setup time (builder style).
    pub fn setup(mut self, seconds: f64) -> PreloadModel {
        self.setup_s = seconds;
        self
    }

    /// The simulated seconds to preload a `weight_bytes`-byte MRF image
    /// onto the worker behind `link`: one network leg for the image
    /// (degradation-aware), the on-chip fill, and the fixed setup.
    pub fn preload_s(&self, weight_bytes: usize, net: &NetworkModel, link: usize) -> f64 {
        let fill = if self.fill_bandwidth_bytes_per_s > 0.0
            && self.fill_bandwidth_bytes_per_s.is_finite()
        {
            weight_bytes as f64 / self.fill_bandwidth_bytes_per_s
        } else {
            0.0
        };
        net.one_way_on(link, weight_bytes) + fill + self.setup_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_model_costs_nothing_over_ideal_network() {
        let m = PreloadModel::free();
        assert_eq!(m.preload_s(1 << 20, &NetworkModel::ideal(), 0), 0.0);
    }

    #[test]
    fn terms_compose() {
        let net = NetworkModel::with_hop(10e-6).bandwidth(1e9);
        let m = PreloadModel::free().fill_bandwidth(2e9).setup(100e-6);
        let bytes = 1 << 20;
        let expect = net.one_way_s(bytes) + bytes as f64 / 2e9 + 100e-6;
        assert!((m.preload_s(bytes, &net, 0) - expect).abs() < 1e-12);
    }

    #[test]
    fn degraded_destination_link_slows_the_preload() {
        let net = NetworkModel::with_hop(10e-6)
            .bandwidth(1e9)
            .degrade_link(1, 5.0);
        let m = PreloadModel::free().setup(1e-6);
        let healthy = m.preload_s(4096, &net, 0);
        let slow = m.preload_s(4096, &net, 1);
        assert!(slow > healthy, "{slow} vs {healthy}");
        let expect = 5.0 * net.one_way_s(4096) + 1e-6;
        assert!((slow - expect).abs() < 1e-12);
    }

    #[test]
    fn zero_fill_bandwidth_means_instant_fill() {
        let m = PreloadModel::free().setup(2e-6);
        assert_eq!(m.preload_s(usize::MAX / 2, &NetworkModel::ideal(), 0), 2e-6);
    }
}
