//! Seed derivation: every input of a run is a function of `--seed`.

/// Independent streams derived from one run seed.
#[derive(Debug, Clone, Copy)]
#[repr(u64)]
pub enum Salt {
    /// Speaker panel, phoneme selection and corpus synthesis.
    Setup = 1,
    /// Weight initialisation and shuffling of the deployed selector.
    Selector = 2,
    /// Per-trial seeds of the decision pool.
    Pool = 3,
    /// Speakers of the decision pool.
    Speakers = 4,
    /// RNG of each decision.
    Decision = 5,
    /// Evaluation jobs.
    Eval = 6,
    /// Weight initialisation and shuffling in the train workload.
    Train = 7,
}

impl From<Salt> for u64 {
    fn from(s: Salt) -> u64 {
        s as u64
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a seed for stream `salt` of `seed`.
pub fn mix(seed: u64, salt: impl Into<u64>) -> u64 {
    splitmix64(seed ^ splitmix64(salt.into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_distinct_and_deterministic() {
        assert_eq!(mix(1, Salt::Pool), mix(1, Salt::Pool));
        assert_ne!(mix(1, Salt::Pool), mix(2, Salt::Pool));
        assert_ne!(mix(1, Salt::Pool), mix(1, Salt::Setup));
        assert_ne!(mix(1, 0u64), mix(1, 1u64));
    }
}
