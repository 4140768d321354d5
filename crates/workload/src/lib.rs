//! # rss-workload — parallel-stream striping
//!
//! Every flow is the memory-to-memory bulk transfer of the paper's §4 (an
//! iperf-style source, unbounded or of a given size). What this crate adds
//! is the GridFTP-style workload that motivated the authors: one logical
//! transfer striped over N connections ([`stripe_bytes`]).

#![warn(missing_docs)]

/// Split a transfer of `total_bytes` over `streams` parallel connections
/// (GridFTP-style striping): returns per-stream byte counts that sum exactly
/// to the total, differing by at most one byte.
pub fn stripe_bytes(total_bytes: u64, streams: u32) -> Vec<u64> {
    assert!(streams > 0);
    let base = total_bytes / streams as u64;
    let extra = (total_bytes % streams as u64) as u32;
    (0..streams).map(|i| base + u64::from(i < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striping_conserves_bytes() {
        for streams in 1..=16 {
            for total in [0u64, 1, 999, 1_000_000, 12_345_677] {
                let parts = stripe_bytes(total, streams);
                assert_eq!(parts.len(), streams as usize);
                assert_eq!(parts.iter().sum::<u64>(), total);
                let min = parts.iter().min().unwrap();
                let max = parts.iter().max().unwrap();
                assert!(max - min <= 1, "uneven stripe: {parts:?}");
            }
        }
    }
}
