//! Seeded input generation. Every input a run feeds the program — prefill
//! keys, operation streams, Zipfian ranks — is generated here from the
//! `--seed` argument before timing starts; the same seed gives the same
//! inputs.

/// SplitMix64: tiny, fast, and good enough for workload draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one run (`seed`), so
    /// prefill, per-thread streams and key permutations never share draws.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)` (multiply-shift; bias below 2^-40 for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The value stored under `key`: a fixed function of the key, so every
/// read can be checked without knowing the interleaving.
#[must_use]
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xC17_0510
}

/// One map operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `get(key)`.
    Get,
    /// `insert(key, value_of(key))`.
    Insert,
    /// `remove(key)`.
    Remove,
    /// `range_scan(key, key + span - 1)`.
    Scan,
}

impl OpKind {
    /// All kinds, in report order.
    pub const ALL: [OpKind; 4] = [OpKind::Get, OpKind::Insert, OpKind::Remove, OpKind::Scan];

    /// Metric-name label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Insert => "insert",
            OpKind::Remove => "remove",
            OpKind::Scan => "scan",
        }
    }

    /// Index into per-kind arrays ordered like [`ALL`](Self::ALL).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What to do.
    pub kind: OpKind,
    /// The key (a scan's low bound).
    pub key: u64,
}

/// An operation mix in percent; the four weights sum to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// `get` share.
    pub get: u32,
    /// `insert` share.
    pub insert: u32,
    /// `remove` share.
    pub remove: u32,
    /// `range_scan` share.
    pub scan: u32,
}

impl Mix {
    /// Draws one operation kind.
    fn draw(&self, rng: &mut Rng) -> OpKind {
        debug_assert_eq!(self.get + self.insert + self.remove + self.scan, 100);
        let r = rng.below(100) as u32;
        if r < self.get {
            OpKind::Get
        } else if r < self.get + self.insert {
            OpKind::Insert
        } else if r < self.get + self.insert + self.remove {
            OpKind::Remove
        } else {
            OpKind::Scan
        }
    }
}

/// How operation keys are drawn.
#[derive(Debug, Clone)]
pub enum Keys {
    /// Uniform over `[0, range)`.
    Uniform {
        /// Key range.
        range: u64,
    },
    /// Zipfian ranks mapped through a seeded permutation of the range.
    Zipf(Zipf),
}

impl Keys {
    /// Draws one key.
    pub fn draw(&self, rng: &mut Rng) -> u64 {
        match self {
            Keys::Uniform { range } => rng.below(*range),
            Keys::Zipf(z) => z.draw(rng),
        }
    }
}

/// Gray et al.'s closed-form Zipfian sampler (as in YCSB) over ranks
/// `[0, n)`, with the ranks scattered over the key range by a seeded
/// permutation (so the hot keys are not simply the smallest ones).
#[derive(Debug, Clone)]
pub struct Zipf {
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    perm: Vec<u64>,
}

impl Zipf {
    /// Sampler over `[0, n)` with skew `theta` in `(0, 1)`.
    #[must_use]
    pub fn new(n: u64, theta: f64, rng: &mut Rng) -> Self {
        assert!(
            n >= 2 && theta > 0.0 && theta < 1.0,
            "bad zipf({n}, {theta})"
        );
        let zetan: f64 = (1..=n).map(|i| (i as f64).powf(-theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        let mut perm: Vec<u64> = (0..n).collect();
        shuffle(&mut perm, rng);
        Self {
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
            perm,
        }
    }

    /// Draws one key.
    pub fn draw(&self, rng: &mut Rng) -> u64 {
        let n = self.perm.len() as u64;
        let uz = rng.unit() * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            let r = (n as f64 * (self.eta * rng.unit() - self.eta + 1.0).powf(self.alpha)) as u64;
            r.min(n - 1)
        };
        self.perm[rank as usize]
    }
}

/// Fisher–Yates shuffle.
fn shuffle(v: &mut [u64], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// `count` distinct keys of `[0, range)` in random insertion order (the
/// tree is unbalanced, so prefill order must be random).
#[must_use]
pub fn prefill_keys(range: u64, count: usize, rng: &mut Rng) -> Vec<u64> {
    assert!(count as u64 <= range, "prefill larger than the key range");
    let mut all: Vec<u64> = (0..range).collect();
    shuffle(&mut all, rng);
    all.truncate(count);
    all.shrink_to_fit();
    all
}

/// `len` operations drawn from `mix` and `keys`.
#[must_use]
pub fn ops(len: usize, mix: &Mix, keys: &Keys, rng: &mut Rng) -> Vec<Op> {
    (0..len)
        .map(|_| {
            let kind = mix.draw(rng);
            Op {
                kind,
                key: keys.draw(rng),
            }
        })
        .collect()
}
