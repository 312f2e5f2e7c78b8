//! Case-running machinery: config, deterministic RNG, failure type.
//!
//! Two environment variables override a property run without editing
//! the test:
//!
//! * `RVCAP_PROPTEST_SEED=<n>` (decimal or `0x` hex) seeds every
//!   property with `n` instead of its name-derived seed. A failing
//!   case prints the seed it ran with, so exporting that value (with
//!   a test-name filter) replays the failure.
//! * `RVCAP_PROPTEST_CASES=<n>` (`n` ≥ 1) runs `n` cases per property,
//!   replacing the default and any `with_cases` setting.
//!
//! Unset, every property runs its configured case count from its
//! name-derived seed. `scripts/check.sh` sets both to run the
//! memory-model and replay properties a second time from a fixed
//! non-default seed.

/// Environment variable that overrides every property's seed.
pub const SEED_ENV: &str = "RVCAP_PROPTEST_SEED";

/// Environment variable that overrides every property's case count.
pub const CASES_ENV: &str = "RVCAP_PROPTEST_CASES";

/// The value of override variable `var`, if set.
fn env_override(var: &str) -> Option<u64> {
    std::env::var(var).ok().map(|raw| parse_override(var, &raw))
}

/// Parse an override value: decimal, or hex with a `0x` prefix.
/// Panics naming the variable on a malformed value — a typo must not
/// silently fall back to the default run.
fn parse_override(var: &str, raw: &str) -> u64 {
    let text = raw.trim();
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.unwrap_or_else(|_| panic!("{var}={raw:?} is not a decimal or 0x-hex integer"))
}

/// A case-count override as a `u32`. Zero is refused: it would pass
/// every property without running it.
fn override_cases(cases: u64) -> u32 {
    u32::try_from(cases)
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(|| panic!("{CASES_ENV}={cases} must be in 1..=u32::MAX"))
}

/// Per-test configuration. Only `cases` is honoured by the shim.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` cases (the real crate's constructor of the same name).
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// This configuration with the `RVCAP_PROPTEST_CASES` override
    /// applied, if set.
    pub fn with_env_overrides(self) -> Self {
        match env_override(CASES_ENV) {
            Some(cases) => ProptestConfig {
                cases: override_cases(cases),
            },
            None => self,
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real default (256) is tuned for a shrinking runner; 64
        // keeps wall-clock reasonable for the heavier FAT32/crossbar
        // properties while still exercising plenty of inputs.
        ProptestConfig { cases: 64 }
    }
}

/// A failed property case (produced by `prop_assert*`).
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Wrap a failure message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TestCaseError {}

/// The seed a property named `name` runs with: `RVCAP_PROPTEST_SEED`
/// when set, else [`name_seed`].
pub fn seed_for(name: &str) -> u64 {
    env_override(SEED_ENV).unwrap_or_else(|| name_seed(name))
}

/// FNV-1a over the name's bytes, forced odd.
pub fn name_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h | 1
}

/// Deterministic xorshift64* generator. Seeded from the test name so
/// every run of a given property explores the identical case sequence
/// (unless `RVCAP_PROPTEST_SEED` overrides it).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test name (see [`name_seed`]).
    pub fn from_name(name: &str) -> Self {
        TestRng::from_seed(name_seed(name))
    }

    /// Seed directly. Zero, which xorshift cannot leave, maps to one.
    pub fn from_seed(seed: u64) -> Self {
        TestRng { state: seed.max(1) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    /// Multiply-shift reduction — bias is negligible for test sizes.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        let mut c = TestRng::from_name("y");
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn name_seed_matches_explicit_seed() {
        // A name seeds exactly like its printed seed, so a reported
        // seed replays the same cases.
        let mut a = TestRng::from_name("replay");
        let mut b = TestRng::from_seed(name_seed("replay"));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(name_seed("replay") & 1, 1);
        assert_eq!(TestRng::from_seed(0).state, 1);
    }

    #[test]
    fn overrides_parse_decimal_and_hex() {
        assert_eq!(parse_override(SEED_ENV, "42"), 42);
        assert_eq!(parse_override(SEED_ENV, " 0x2a "), 42);
    }

    #[test]
    #[should_panic(expected = "RVCAP_PROPTEST_CASES")]
    fn malformed_override_names_the_variable() {
        parse_override(CASES_ENV, "lots");
    }

    #[test]
    #[should_panic(expected = "RVCAP_PROPTEST_CASES=0 must be")]
    fn zero_cases_override_is_refused() {
        override_cases(0);
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut r = TestRng::from_name("bounds");
        for bound in [1u64, 2, 3, 7, 100, u64::MAX] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }
}
