//! The splitmix64 generator: one 64-bit state word, advanced by a Weyl
//! step and finalised by two xor-shift-multiply rounds.
//!
//! Every seeded, dependency-free pseudo-random stream in the workspace
//! (greedy cover-free families, the synthesizer's polish, randomized
//! partitions, Requirement 3 spot checks, random schedules) draws from
//! this one function, so their outputs stay tied to the reference
//! sequence.

/// Advances `state` by one splitmix64 step and returns the next output.
///
/// Seeding `state` with `s` yields the reference splitmix64 sequence for
/// seed `s` (seed 0 starts `0xE220A8397B1DCDAF`).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_sequence() {
        let mut state = 0;
        let got: Vec<u64> = (0..3).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(
            got,
            [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        );
        assert_eq!(state, 3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
}
