//! Wireless control-channel model (Bluetooth / WiFi).
//!
//! The paper wraps Android Wear's MessageAPI and ChannelAPI; we model
//! the two transports with latency + throughput distributions matching
//! the Fig. 11 measurements' structure: WiFi messages are a few tens of
//! milliseconds, Bluetooth messages slower; file transfers (the
//! recorded audio clip shipped from watch to phone for offloading) are
//! throughput-bound and far slower over Bluetooth.

use rand::distributions::StandardNormal;
use rand::Rng;

use wearlock_dsp::units::Seconds;

/// Wireless transport between phone and watch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Bluetooth (always available when paired; slow).
    Bluetooth,
    /// WiFi (when both devices share a network; fast).
    Wifi,
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Transport::Bluetooth => f.write_str("Bluetooth"),
            Transport::Wifi => f.write_str("WiFi"),
        }
    }
}

/// A modelled wireless link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirelessLink {
    transport: Transport,
    /// Median one-way small-message latency, seconds.
    message_latency: f64,
    /// Sustained throughput, bytes/second.
    throughput: f64,
    /// Multiplicative jitter spread (lognormal σ).
    jitter_sigma: f64,
    /// Radio power draw while transmitting, watts.
    radio_tx_power_w: f64,
    /// Radio power draw while receiving, watts.
    radio_rx_power_w: f64,
}

impl WirelessLink {
    /// A Bluetooth link (Android Wear defaults): ~60 ms messages,
    /// ~110 kB/s file throughput.
    pub fn bluetooth() -> Self {
        WirelessLink {
            transport: Transport::Bluetooth,
            message_latency: 0.060,
            throughput: 110e3,
            jitter_sigma: 0.25,
            radio_tx_power_w: 0.10,
            radio_rx_power_w: 0.065,
        }
    }

    /// A WiFi link: ~15 ms messages, ~1.8 MB/s throughput.
    pub fn wifi() -> Self {
        WirelessLink {
            transport: Transport::Wifi,
            message_latency: 0.015,
            throughput: 1.8e6,
            jitter_sigma: 0.20,
            radio_tx_power_w: 0.28,
            radio_rx_power_w: 0.18,
        }
    }

    /// Builds a link for a transport.
    pub fn new(transport: Transport) -> Self {
        match transport {
            Transport::Bluetooth => Self::bluetooth(),
            Transport::Wifi => Self::wifi(),
        }
    }

    /// The transport of this link.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// A degraded copy of this link: median latency multiplied and
    /// throughput divided by `factor` (congestion / interference on the
    /// radio path slows both directions). Factors ≤ 1 or non-finite are
    /// treated as no degradation.
    pub fn with_latency_factor(&self, factor: f64) -> Self {
        let f = if factor.is_finite() && factor > 1.0 {
            factor
        } else {
            1.0
        };
        WirelessLink {
            message_latency: self.message_latency * f,
            throughput: self.throughput / f,
            ..*self
        }
    }

    /// Radio power draw while transmitting, watts.
    pub fn radio_tx_power_w(&self) -> f64 {
        self.radio_tx_power_w
    }

    /// Radio power draw while receiving, watts. Receive chains draw
    /// less than transmit chains on both radios (no PA output stage).
    pub fn radio_rx_power_w(&self) -> f64 {
        self.radio_rx_power_w
    }

    fn jitter<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Lognormal multiplicative jitter.
        let z: f64 = rng.sample(StandardNormal);
        (self.jitter_sigma * z).exp()
    }

    /// One-way delay of a small control message.
    pub fn message_delay<R: Rng + ?Sized>(&self, rng: &mut R) -> Seconds {
        Seconds(self.message_latency * self.jitter(rng))
    }

    /// Round-trip time of a message exchange.
    pub fn round_trip<R: Rng + ?Sized>(&self, rng: &mut R) -> Seconds {
        Seconds(self.message_delay(rng).value() + self.message_delay(rng).value())
    }

    /// Delay to transfer a file of `bytes` (latency + throughput).
    pub fn file_delay<R: Rng + ?Sized>(&self, bytes: usize, rng: &mut R) -> Seconds {
        let base = self.message_latency + bytes as f64 / self.throughput;
        Seconds(base * self.jitter(rng))
    }

    /// Median (jitter-free) file-transfer delay for `bytes`.
    pub fn file_delay_median(&self, bytes: usize) -> Seconds {
        Seconds(self.message_latency + bytes as f64 / self.throughput)
    }

    /// Radio energy in joules the *sender* spends transferring `bytes`
    /// (median transfer time × transmit power).
    pub fn tx_energy(&self, bytes: usize) -> f64 {
        self.file_delay_median(bytes).value() * self.radio_tx_power_w
    }

    /// Radio energy in joules the *receiver* spends accepting `bytes`
    /// (median transfer time × receive power).
    pub fn rx_energy(&self, bytes: usize) -> f64 {
        self.file_delay_median(bytes).value() * self.radio_rx_power_w
    }

    /// Total radio energy in joules to move `bytes` across the link —
    /// both ends combined, i.e. [`WirelessLink::tx_energy`] +
    /// [`WirelessLink::rx_energy`]. Ledgers charging per battery should
    /// use the split figures instead.
    pub fn transfer_energy(&self, bytes: usize) -> f64 {
        self.tx_energy(bytes) + self.rx_energy(bytes)
    }
}

/// Size in bytes of a mono 16-bit PCM clip of `samples` samples — the
/// payload the watch ships to the phone when offloading.
pub fn pcm_bytes(samples: usize) -> usize {
    samples * 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    #[test]
    fn wifi_messages_beat_bluetooth() {
        let mut r = rng();
        let bt: f64 = (0..200)
            .map(|_| WirelessLink::bluetooth().message_delay(&mut r).value())
            .sum::<f64>()
            / 200.0;
        let wifi: f64 = (0..200)
            .map(|_| WirelessLink::wifi().message_delay(&mut r).value())
            .sum::<f64>()
            / 200.0;
        assert!(wifi < bt / 2.0, "wifi {wifi} bt {bt}");
    }

    #[test]
    fn file_transfer_scales_with_size() {
        let link = WirelessLink::bluetooth();
        let small = link.file_delay_median(10_000).value();
        let big = link.file_delay_median(200_000).value();
        assert!(big > 10.0 * small, "small {small} big {big}");
    }

    #[test]
    fn audio_clip_over_bluetooth_takes_seconds() {
        // ~1.5 s of audio at 44.1 kHz mono 16-bit = ~130 kB: over
        // Bluetooth that's a >1 s transfer (the Fig. 11 pain point).
        let bytes = pcm_bytes(66_000);
        let d = WirelessLink::bluetooth().file_delay_median(bytes).value();
        assert!(d > 1.0, "{d}");
        let dw = WirelessLink::wifi().file_delay_median(bytes).value();
        assert!(dw < 0.2, "{dw}");
    }

    #[test]
    fn jitter_is_positive_and_centred() {
        let link = WirelessLink::wifi();
        let mut r = rng();
        let xs: Vec<f64> = (0..500)
            .map(|_| link.message_delay(&mut r).value())
            .collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean / 0.015 - 1.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn round_trip_is_two_messages() {
        let link = WirelessLink::bluetooth();
        let mut r = rng();
        let rtt: f64 = (0..300)
            .map(|_| link.round_trip(&mut r).value())
            .sum::<f64>()
            / 300.0;
        assert!((rtt / 0.12 - 1.0).abs() < 0.25, "rtt {rtt}");
    }

    #[test]
    fn transfer_energy_positive() {
        assert!(WirelessLink::bluetooth().transfer_energy(100_000) > 0.0);
        assert_eq!(pcm_bytes(100), 200);
    }

    #[test]
    fn radio_energy_splits_into_tx_and_rx() {
        for link in [WirelessLink::bluetooth(), WirelessLink::wifi()] {
            let bytes = 50_000;
            let tx = link.tx_energy(bytes);
            let rx = link.rx_energy(bytes);
            assert!(tx > 0.0 && rx > 0.0);
            // Receive chains draw less than transmit chains.
            assert!(rx < tx, "{:?}", link.transport());
            // The combined figure is exactly the sum of the two sides.
            assert!((link.transfer_energy(bytes) - (tx + rx)).abs() < 1e-15);
        }
    }

    #[test]
    fn latency_factor_degrades_both_directions() {
        let base = WirelessLink::bluetooth();
        let slow = base.with_latency_factor(4.0);
        assert!(
            (slow.file_delay_median(0).value() - 4.0 * base.file_delay_median(0).value()).abs()
                < 1e-12
        );
        // Throughput-bound part also slows by the factor.
        let bytes = 200_000;
        let base_xfer = base.file_delay_median(bytes).value();
        let slow_xfer = slow.file_delay_median(bytes).value();
        assert!((slow_xfer - 4.0 * base_xfer).abs() < 1e-9, "{slow_xfer}");
        // Energy model scales with the stretched transfer time.
        assert!(slow.tx_energy(bytes) > base.tx_energy(bytes));
        // Degenerate factors are identity.
        assert_eq!(base.with_latency_factor(0.5), base);
        assert_eq!(base.with_latency_factor(f64::NAN), base);
        assert_eq!(base.with_latency_factor(1.0), base);
    }

    #[test]
    fn constructor_by_transport() {
        assert_eq!(
            WirelessLink::new(Transport::Wifi).transport(),
            Transport::Wifi
        );
        assert_eq!(Transport::Bluetooth.to_string(), "Bluetooth");
    }
}
