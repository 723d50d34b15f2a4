//! Canopus pipeline configuration.

use canopus_compress::CodecKind;
use canopus_refactor::levels::RefactorConfig;
use canopus_storage::FaultPlan;

/// End-to-end configuration: how to refactor, how to compress, how to
/// lay out and read back. Placement has no knob: every product goes by
/// the paper's one rule ([`canopus_storage::choose_tier`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CanopusConfig {
    /// Levels / ratio / estimator (paper §III-B/C).
    pub refactor: RefactorConfig,
    /// Codec for the base and deltas. The paper integrates ZFP; the
    /// tolerance here is *relative to the variable's value range* —
    /// each `write` multiplies it by `max - min` of the data, so one
    /// config works across variables of different scales.
    pub codec: RelativeCodec,
    /// Number of spatial chunks each delta is split into — the one
    /// layout knob. Every delta is stored as shard objects with a chunk
    /// index (byte ranges, bounding boxes, per-chunk checksums) in the
    /// manifest. `1` — the default — is one chunk in vertex order: no
    /// Morton sort on either side, and the decoded buffer is the
    /// level's delta as it stands. `k > 1` stores `k` Morton (Z-order)
    /// chunks, 8 to a shard object, and enables the paper's focused data
    /// retrieval: a region refinement fetches only the chunks whose
    /// bounding boxes intersect the request, via ranged reads ("reading
    /// smaller subsets of high accuracy data", §III-E/§IV-D), turning
    /// region I/O from O(level) into O(region).
    pub delta_chunks: u32,
    /// Capacity (in entries) of the decoded-level LRU cache each reader
    /// keeps, keyed by `(var, level)`. A repeat read of a cached level
    /// performs zero tier I/O and zero decompression. `0` disables the
    /// cache.
    pub level_cache: u32,
    /// Retry budget for transient tier faults on the read path: capped
    /// exponential backoff with deterministic jitter. Under
    /// transient-only faults a restore that stays within this budget is
    /// byte-identical to the fault-free run.
    pub retry: RetryPolicy,
    /// Fault plan injected into every tier of the hierarchy an engine is
    /// built on ([`FaultPlan::none()`] — the default — injects nothing
    /// and costs nothing). Used by the reliability tests and the
    /// fault-injection benchmarks.
    pub fault: FaultPlan,
    /// Worker threads of the shared serving layer
    /// ([`CanopusService`](crate::serve::CanopusService)). `0` — the
    /// default — is one accuracy worker per available core plus a
    /// dedicated quick-look lane (`available_parallelism() + 1`
    /// threads); `N > 0` is N threads in total. With 2+ workers, worker
    /// 0 serves only `QuickLook` requests, which is what guarantees a
    /// cheap base read is never stuck behind a running full restore.
    pub serve_workers: u32,
    /// Bound on the serving layer's admission queue. `submit` blocks
    /// until a slot frees up (closed-loop backpressure), so a burst of
    /// clients cannot queue unbounded work. `0` is treated as `1`.
    pub serve_queue: u32,
}

/// Retry budget for fault-class read failures (transient tier errors,
/// down tiers, checksum mismatches). Missing keys are *not* retried.
///
/// Backoff before retry `n` (1-based) is
/// `min(max_backoff_s, base_backoff_s * 2^(n-1))`, scaled by a
/// deterministic jitter in `[0.5, 1.0]` derived from
/// `(jitter_seed, block key, n)` — so a given run backs off identically
/// every time, but concurrent readers of different blocks don't
/// stampede in lockstep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total fetch attempts per block (`1` = no retries, `0` is treated
    /// as `1`).
    pub max_attempts: u32,
    /// Backoff before the first retry, in wall-clock seconds.
    pub base_backoff_s: f64,
    /// Cap on any single backoff sleep, in wall-clock seconds.
    pub max_backoff_s: f64,
    /// Seed of the deterministic jitter.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// Default budget: four attempts with sub-millisecond backoff —
    /// enough to ride out injected transients without slowing tests.
    pub const fn new() -> Self {
        Self {
            max_attempts: 4,
            base_backoff_s: 2e-4,
            max_backoff_s: 2e-3,
            jitter_seed: 0,
        }
    }

    /// A policy that never retries (single attempt, no backoff).
    pub const fn no_retries() -> Self {
        Self {
            max_attempts: 1,
            base_backoff_s: 0.0,
            max_backoff_s: 0.0,
            jitter_seed: 0,
        }
    }

    /// Seconds to sleep before retry number `retry` (1-based) of `key`.
    pub fn backoff_s(&self, key: &str, retry: u32) -> f64 {
        let exp = retry.saturating_sub(1).min(52);
        let raw = self.base_backoff_s * (1u64 << exp) as f64;
        let capped = raw.min(self.max_backoff_s);
        // splitmix64 over (seed, key, retry) -> jitter factor in [0.5, 1].
        let mut h = self.jitter_seed ^ 0x9E37_79B9_7F4A_7C15;
        for chunk in key.as_bytes().chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            h = splitmix64(h ^ u64::from_le_bytes(buf));
        }
        h = splitmix64(h ^ retry as u64);
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        capped * (0.5 + 0.5 * unit)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::new()
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Default for CanopusConfig {
    fn default() -> Self {
        Self {
            refactor: RefactorConfig::default(),
            codec: RelativeCodec::ZfpLike {
                rel_tolerance: 1e-6,
            },
            delta_chunks: 1,
            level_cache: 8,
            retry: RetryPolicy::new(),
            fault: FaultPlan::none(),
            serve_workers: 0,
            serve_queue: 64,
        }
    }
}

/// Codec choice with range-relative error bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RelativeCodec {
    ZfpLike { rel_tolerance: f64 },
    SzLike { rel_error_bound: f64 },
    Fpc,
    Raw,
}

impl RelativeCodec {
    /// Resolve to an absolute-parameter codec for data spanning `range`.
    pub fn resolve(&self, range: f64) -> CodecKind {
        // Degenerate (constant) data still needs a positive bound.
        let range = if range > 0.0 { range } else { 1.0 };
        match *self {
            RelativeCodec::ZfpLike { rel_tolerance } => CodecKind::ZfpLike {
                tolerance: rel_tolerance * range,
            },
            RelativeCodec::SzLike { rel_error_bound } => CodecKind::SzLike {
                error_bound: rel_error_bound * range,
            },
            RelativeCodec::Fpc => CodecKind::Fpc,
            RelativeCodec::Raw => CodecKind::Raw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_three_level_zfp() {
        let c = CanopusConfig::default();
        assert_eq!(c.refactor.num_levels, 3);
        assert!(matches!(c.codec, RelativeCodec::ZfpLike { .. }));
        assert_eq!(c.delta_chunks, 1, "one chunk per delta by default");
        assert!(c.level_cache > 0, "decoded-level cache on by default");
        assert!(c.fault.is_none(), "no fault injection by default");
        assert!(c.retry.max_attempts > 1, "read retries on by default");
        assert_eq!(c.serve_workers, 0, "serve pool auto-sized by default");
        assert!(c.serve_queue > 0, "bounded admission queue by default");
    }

    #[test]
    fn backoff_is_capped_jittered_and_deterministic() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff_s: 1.0,
            max_backoff_s: 4.0,
            jitter_seed: 7,
        };
        // Deterministic: the same (key, retry) always backs off the same.
        assert_eq!(p.backoff_s("f/v/delta_0", 1), p.backoff_s("f/v/delta_0", 1));
        // Jittered within [0.5, 1.0] of the nominal value.
        let b1 = p.backoff_s("k", 1);
        assert!((0.5..=1.0).contains(&b1), "first backoff {b1}");
        // Exponential until the cap, never past it.
        let b4 = p.backoff_s("k", 4); // nominal 8.0 -> capped at 4.0
        assert!(b4 <= 4.0, "capped backoff {b4}");
        assert!(b4 >= 2.0, "cap * min jitter");
        // Different keys de-synchronize.
        assert_ne!(p.backoff_s("a", 2), p.backoff_s("b", 2));
        // No-retry policy sleeps zero.
        assert_eq!(RetryPolicy::no_retries().backoff_s("k", 1), 0.0);
    }

    #[test]
    fn relative_codec_scales_with_range() {
        let rc = RelativeCodec::ZfpLike {
            rel_tolerance: 1e-3,
        };
        match rc.resolve(100.0) {
            CodecKind::ZfpLike { tolerance } => assert!((tolerance - 0.1).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
        // Constant data (range 0) still yields a positive tolerance.
        match rc.resolve(0.0) {
            CodecKind::ZfpLike { tolerance } => assert!(tolerance > 0.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lossless_choices_pass_through() {
        assert_eq!(RelativeCodec::Fpc.resolve(5.0), CodecKind::Fpc);
        assert_eq!(RelativeCodec::Raw.resolve(5.0), CodecKind::Raw);
    }
}
