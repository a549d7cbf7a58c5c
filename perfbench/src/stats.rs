//! Order statistics for timing samples.
//!
//! Percentiles are nearest-rank: the `p`-th percentile of `n` ascending
//! samples is the sample at 1-based rank `ceil(p/100 · n)`, so every
//! reported value is one that was actually measured.

/// Percentiles a [`Summary`] may name as its tail, highest last.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentile `p` in parts per million, so ranks are computed in exact
/// integer arithmetic (`99.9 * 1000 / 100` is not 999 in binary floating
/// point).
fn ppm(p: f64) -> u128 {
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile {p} outside [0, 100]"
    );
    (p * 10_000.0).round() as u128
}

/// 1-based nearest rank of percentile `p` among `n` samples.
#[must_use]
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "no samples");
    let rank = (ppm(p) * n as u128).div_ceil(1_000_000) as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile `p` of ascending `sorted` samples.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond its rank, if any.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - nearest_rank(n, p) >= TAIL_MIN_BEYOND)
}

/// A timing distribution: sample count, median, p99, maximum, and the
/// highest percentile that has enough samples beyond it to mean something.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
    /// `(percentile, value)` of the highest trustworthy percentile.
    pub tail: Option<(f64, u64)>,
}

impl Summary {
    /// Sorts `samples` and summarizes them; `None` when empty.
    #[must_use]
    pub fn of(samples: &mut [u64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let n = samples.len();
        Some(Self {
            n,
            p50: percentile(samples, 50.0),
            p99: percentile(samples, 99.0),
            max: samples[n - 1],
            tail: tail_percentile(n).map(|p| (p, percentile(samples, p))),
        })
    }

    /// One human-readable line: count, median, p99, tail, max, in `unit`
    /// after dividing by `scale`.
    #[must_use]
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) if p > 99.0 => format!(" p{p}={:.3}{unit}", v as f64 / scale),
            Some(_) => String::new(),
            None => " (fewer than 10 samples beyond p50)".to_string(),
        };
        format!(
            "n={} p50={:.3}{unit} p99={:.3}{unit}{tail} max={:.3}{unit}",
            self.n,
            self.p50 as f64 / scale,
            self.p99 as f64 / scale,
            self.max as f64 / scale,
        )
    }
}

/// Median of `values` (mean of the two middle values for an even count).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sub-bucket bits of [`LogHistogram`]: each power of two is split into
/// `2^7 = 128` buckets, so a recorded value is known to within 1/128.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

/// A fixed-size log-linear histogram of `u64` values (an HDR-style
/// layout): exact below 128, then 128 buckets per power of two. Its memory
/// does not grow with the number of samples, so recording into it cannot
/// make a faster program look bigger.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB as usize],
            n: 0,
        }
    }
}

impl LogHistogram {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
        (((e - SUB_BITS + 1) as u64) << SUB_BITS | sub) as usize
    }

    /// Smallest value that falls in bucket `b`.
    fn low(b: usize) -> u64 {
        let (hi, sub) = ((b as u64) >> SUB_BITS, b as u64 & (SUB - 1));
        if hi == 0 {
            sub
        } else {
            (SUB | sub) << (hi - 1)
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
    }

    /// Adds `other`'s counts.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Number of recorded values.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Nearest-rank percentile `p`, as the low edge of the bucket holding
    /// the ranked value (at most 1/128 below it); `None` when empty.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let rank = nearest_rank(usize::try_from(self.n).expect("count fits usize"), p) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::low(b));
            }
        }
        unreachable!("rank {rank} <= total count {}", self.n)
    }

    /// The same summary as [`Summary::of`], at bucket resolution.
    #[must_use]
    pub fn summary(&self) -> Option<Summary> {
        let n = usize::try_from(self.n).expect("count fits usize");
        Some(Summary {
            n,
            p50: self.percentile(50.0)?,
            p99: self.percentile(99.0)?,
            max: self.percentile(100.0)?,
            tail: tail_percentile(n).and_then(|p| Some((p, self.percentile(p)?))),
        })
    }
}
