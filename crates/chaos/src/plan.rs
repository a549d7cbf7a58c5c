//! The [`ChaosPlan`]: a seeded description of how failpoints perturb the
//! schedule.

/// Deterministic 64-bit PRNG (SplitMix64).
///
/// A private copy: `citrus-chaos` sits below `citrus-api` in the crate
/// graph (the testkit builds on this crate), so it cannot reuse the
/// testkit's generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SplitMix64 {
    state: u64,
}

#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
impl SplitMix64 {
    pub(crate) const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }
}

/// Finalizer of SplitMix64; also used to mix point names into rolls.
#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
pub(crate) fn mix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic schedule-perturbation plan.
///
/// Installed with [`install`](crate::install), a plan makes every
/// [`point`](fn@crate::point) on a thread armed with it roll (per thread,
/// from a SplitMix64 stream derived from the plan seed and the thread's
/// stream id) whether to pass through, yield the OS scheduler, or
/// spin-delay; every
/// [`should_fail`](fn@crate::should_fail) rolls whether to force the calling
/// operation to restart. The same seed always produces the same decision
/// sequence on the same operation sequence, so a failing interleaving is
/// replayable from its seed alone.
///
/// Probabilities are in permille (`0..=1000`).
///
/// # Example
///
/// ```
/// use citrus_chaos::ChaosPlan;
///
/// let plan = ChaosPlan::from_seed(0xC17).yields(300).fails(0).traced(true);
/// assert_eq!(plan.seed(), 0xC17);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    pub(crate) seed: u64,
    pub(crate) yield_permille: u16,
    pub(crate) spin_permille: u16,
    pub(crate) fail_permille: u16,
    pub(crate) max_spin: u32,
    pub(crate) trace: bool,
}

impl ChaosPlan {
    /// A plan with default perturbation rates: 15% yields, 25% spin delays
    /// (up to 64 spin-loop hints), 5% forced restarts, tracing off.
    #[must_use]
    pub const fn from_seed(seed: u64) -> Self {
        Self {
            seed,
            yield_permille: 150,
            spin_permille: 250,
            fail_permille: 50,
            max_spin: 64,
            trace: false,
        }
    }

    /// Sets the probability (permille) that a failpoint yields the
    /// scheduler.
    #[must_use]
    pub const fn yields(mut self, permille: u16) -> Self {
        self.yield_permille = permille;
        self
    }

    /// Sets the probability (permille) that a failpoint spin-delays, and
    /// the maximum number of spin-loop hints per delay.
    #[must_use]
    pub const fn spins(mut self, permille: u16, max_spin: u32) -> Self {
        self.spin_permille = permille;
        self.max_spin = max_spin;
        self
    }

    /// Sets the probability (permille) that a
    /// [`should_fail`](fn@crate::should_fail) site forces a restart.
    #[must_use]
    pub const fn fails(mut self, permille: u16) -> Self {
        self.fail_permille = permille;
        self
    }

    /// Enables or disables per-thread trace recording (see
    /// [`take_trace`](crate::take_trace)).
    #[must_use]
    pub const fn traced(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// The plan's seed — quote it in failure reports so the run replays.
    #[must_use]
    pub const fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(SplitMix64::new(7).next_u64(), SplitMix64::new(8).next_u64());
    }

    #[test]
    fn builder_sets_fields() {
        let p = ChaosPlan::from_seed(1)
            .yields(10)
            .spins(20, 5)
            .fails(30)
            .traced(true);
        assert_eq!(p.yield_permille, 10);
        assert_eq!(p.spin_permille, 20);
        assert_eq!(p.max_spin, 5);
        assert_eq!(p.fail_permille, 30);
        assert!(p.trace);
    }
}
