//! Sample statistics, digests and the seeded request mix.

use oscache_core::Experiment;

/// FNV-1a 64 over `bytes`: the digest reports and statistics are compared by.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Nearest-rank percentile (`p` in `0..=1`) of `samples`; `None` when empty.
///
/// With `n` samples the result is the `ceil(p * n)`-th smallest, so
/// `n - ceil(p * n)` samples lie strictly beyond its rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of `samples` (mean of the two middle values for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// SplitMix64: a tiny seeded generator for the request mix.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The serve-warm request mix: each round asks for every experiment
/// exactly once, in an order shuffled by `rng`. Fixing the composition
/// keeps the share of slow renders (`table4`, `scorecard`) equal across
/// seeds, so the seed changes only the order requests arrive in.
pub fn mix_round(rng: &mut SplitMix64) -> Vec<Experiment> {
    let mut round = Experiment::all().to_vec();
    for i in (1..round.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        round.swap(i, j);
    }
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_of_200_samples_leaves_ten_beyond() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&samples, 0.95).unwrap();
        assert_eq!(p95, 190.0);
        assert_eq!(samples.iter().filter(|&&s| s > p95).count(), 10);
        // Order of arrival does not matter.
        let reversed: Vec<f64> = samples.iter().rev().copied().collect();
        assert_eq!(percentile(&reversed, 0.95), Some(190.0));
    }

    #[test]
    fn percentile_and_median_edges() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 1.0), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fnv_matches_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn request_mix_is_seeded_and_complete() {
        let rounds = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..5).map(|_| mix_round(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(rounds(11), rounds(11));
        assert_ne!(rounds(11), rounds(12));
        for round in rounds(11) {
            let mut names: Vec<&str> = round.iter().map(|e| e.name()).collect();
            names.sort_unstable();
            let mut all: Vec<&str> = Experiment::all().iter().map(|e| e.name()).collect();
            all.sort_unstable();
            assert_eq!(names, all, "a round asks for every experiment once");
        }
    }
}
