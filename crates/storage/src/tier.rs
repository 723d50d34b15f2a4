//! Tier performance/capacity descriptions.

/// Static description of one storage tier.
///
/// Transfer cost is modeled as `latency_s + bytes / bandwidth`; the
/// defaults below are calibrated to the published characteristics of the
/// technologies the paper names (tmpfs/DRAM, NVRAM, burst-buffer SSDs,
/// Lustre, campaign storage). Absolute values matter less than ratios —
/// the paper itself notes Canopus "performs the best on a system when the
/// performance gap between tiers is pronounced".
#[derive(Debug, Clone, PartialEq)]
pub struct TierSpec {
    /// Human-readable tier name (also used in reports).
    pub name: String,
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Sustained read bandwidth in bytes/second.
    pub read_bandwidth: f64,
    /// Sustained write bandwidth in bytes/second.
    pub write_bandwidth: f64,
    /// Per-operation latency in seconds (metadata + seek + request).
    pub latency_s: f64,
}

impl TierSpec {
    pub fn new(
        name: impl Into<String>,
        capacity: u64,
        read_bandwidth: f64,
        write_bandwidth: f64,
        latency_s: f64,
    ) -> Self {
        assert!(
            read_bandwidth > 0.0 && write_bandwidth > 0.0,
            "bandwidth must be positive"
        );
        assert!(latency_s >= 0.0, "latency cannot be negative");
        Self {
            name: name.into(),
            capacity,
            read_bandwidth,
            write_bandwidth,
            latency_s,
        }
    }

    /// DRAM-backed tmpfs — the paper's fast tier on Titan.
    pub fn tmpfs(capacity: u64) -> Self {
        Self::new("tmpfs", capacity, 8e9, 6e9, 2e-6)
    }

    /// Byte-addressable NVRAM (e.g. 3D-XPoint class).
    pub fn nvram(capacity: u64) -> Self {
        Self::new("nvram", capacity, 2.5e9, 1.5e9, 1e-5)
    }

    /// Node-local SSD / burst buffer allocation.
    pub fn burst_buffer(capacity: u64) -> Self {
        Self::new("burst-buffer", capacity, 1.2e9, 0.8e9, 1e-4)
    }

    /// Lustre parallel file system share (per-job slice of a few OSTs) —
    /// the paper's slow tier on Titan.
    pub fn lustre(capacity: u64) -> Self {
        Self::new("lustre", capacity, 0.25e9, 0.2e9, 5e-3)
    }

    /// Campaign / archival storage.
    pub fn campaign(capacity: u64) -> Self {
        Self::new("campaign", capacity, 0.05e9, 0.04e9, 5e-2)
    }

    /// Modeled seconds to read `bytes` from this tier.
    pub fn read_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.read_bandwidth
    }

    /// Modeled seconds to write `bytes` to this tier.
    pub fn write_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.write_bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_fast_to_slow() {
        let tiers = [
            TierSpec::tmpfs(1 << 30),
            TierSpec::nvram(1 << 30),
            TierSpec::burst_buffer(1 << 30),
            TierSpec::lustre(1 << 30),
            TierSpec::campaign(1 << 30),
        ];
        for pair in tiers.windows(2) {
            assert!(
                pair[0].read_bandwidth > pair[1].read_bandwidth,
                "{} should be faster than {}",
                pair[0].name,
                pair[1].name
            );
            assert!(pair[0].latency_s < pair[1].latency_s);
        }
    }

    #[test]
    fn transfer_time_model() {
        let t = TierSpec::new("t", 1000, 100.0, 50.0, 1.0);
        assert!((t.read_time(200) - 3.0).abs() < 1e-12); // 1 + 200/100
        assert!((t.write_time(200) - 5.0).abs() < 1e-12); // 1 + 200/50
        assert!((t.read_time(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        let _ = TierSpec::new("bad", 0, 0.0, 1.0, 0.0);
    }

    #[test]
    fn pronounced_gap_between_tmpfs_and_lustre() {
        // The paper's two-tier testbed: reading 1 MiB should be >10x
        // faster from tmpfs than from Lustre.
        let fast = TierSpec::tmpfs(1 << 30).read_time(1 << 20);
        let slow = TierSpec::lustre(1 << 30).read_time(1 << 20);
        assert!(slow / fast > 10.0);
    }
}
