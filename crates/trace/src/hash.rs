//! Stable hashes, identical across processes, platforms and Rust
//! releases (unlike `std`'s randomized default hasher): the workspace's
//! one FNV-1a and one splitmix64. Workload fingerprints and sweep cache
//! keys and checksums are FNV-1a; fuzz case seeds and chaos plan
//! decisions are splitmix64.

/// The 64-bit FNV-1a offset basis: the hash of no bytes.
pub const FNV1A_64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues the 64-bit FNV-1a hash `h` over `bytes`; a hash starts from
/// [`FNV1A_64_OFFSET`].
pub fn fnv1a_64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The splitmix64 finalizer: a pure mixing function, so decisions drawn
/// from it depend only on their inputs, never on call order.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a_64(FNV1A_64_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(FNV1A_64_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(FNV1A_64_OFFSET, b"foobar"), 0x85944171f73967e8);
        // Hashing in pieces continues the same hash.
        assert_eq!(fnv1a_64(fnv1a_64(FNV1A_64_OFFSET, b"foo"), b"bar"), 0x85944171f73967e8);
        // splitmix64's first output for seed 0 (the state advanced once).
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }
}
