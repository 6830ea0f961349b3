//! Order statistics, the reportable-percentile rule and the loss digest.

/// Median of `values` (sorts in place). 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The fewest samples at which a p95 is reportable.
pub const P95_MIN_SAMPLES: usize = 20 * MIN_SAMPLES_BEYOND;

/// The highest percentile of the ladder 50/75/90/95/99/99.9 that still
/// has [`MIN_SAMPLES_BEYOND`] samples beyond it; `None` under 20 samples.
pub fn highest_reportable_percentile(samples: usize) -> Option<f64> {
    // per mille, so the comparison is exact
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|p| samples * (1000 - p) >= MIN_SAMPLES_BEYOND * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Geometric mean (the right average for speedups). 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean. 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// What a timed (`--trace 0`) run measured, before it is boiled down to
/// the end-to-end metrics — one definition for every workload.
pub struct Timed {
    /// Seconds per item (training step, `plan_sweep` config), in order.
    pub item_s: Vec<f64>,
    /// Work one item stands for (tokens over all ranks; 1 for a config).
    pub work_per_item: f64,
    pub objective: f64,
    /// Seconds of each set-up of the run.
    pub setups_s: Vec<f64>,
    /// Items that failed.
    pub failed: usize,
    /// Gate misses, one line each.
    pub misses: Vec<String>,
    pub loss_digest: Option<u64>,
}

impl Timed {
    /// The end-to-end metrics, by name.
    pub fn metrics(&self) -> [(&'static str, f64); 4] {
        [
            ("throughput", throughput(&self.item_s, self.work_per_item)),
            ("latency_ms_p50", median(&mut self.item_s.clone()) * 1e3),
            ("objective", self.objective),
            ("setup_s", median(&mut self.setups_s.clone())),
        ]
    }
}

/// Work per second of back-to-back items: all the work over all the
/// wall time, so every stall counts.
pub fn throughput(item_s: &[f64], work_per_item: f64) -> f64 {
    item_s.len() as f64 * work_per_item / item_s.iter().sum::<f64>()
}

/// 95th percentile of `item_s`, ms; `None` when the samples are too few
/// for it to be reportable.
pub fn p95_ms(item_s: &[f64]) -> Option<f64> {
    if highest_reportable_percentile(item_s.len())? < 95.0 {
        return None;
    }
    let mut sorted = item_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, 95.0) * 1e3)
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the rule the benchmark contract measures run-to-run spread by.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median; `None` under two
/// values or at a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(&mut values.to_vec());
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// FNV-1a over the bit patterns of a float sequence (per-step losses,
/// replicated weights): equal digests mean bit-identical values.
pub fn bits_digest(values: impl IntoIterator<Item = f32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// SplitMix64 — derives independent sub-seeds (weights, batches,
/// routing, plan sample) from the one `--seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_reportable_percentile(19), None);
        assert_eq!(highest_reportable_percentile(20), Some(50.0));
        assert_eq!(highest_reportable_percentile(40), Some(75.0));
        assert_eq!(highest_reportable_percentile(100), Some(90.0));
        assert_eq!(highest_reportable_percentile(199), Some(90.0));
        assert_eq!(highest_reportable_percentile(200), Some(95.0));
        assert_eq!(highest_reportable_percentile(1000), Some(99.0));
        assert_eq!(highest_reportable_percentile(10_000), Some(99.9));
        assert_eq!(p95_ms(&[0.001; P95_MIN_SAMPLES - 1]), None);
        assert_eq!(p95_ms(&[0.001; P95_MIN_SAMPLES]), Some(1.0));
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 50.0), 3.0);
        assert_eq!(percentile_sorted(&v, 100.0), 5.0);
        assert!((percentile_sorted(&v, 95.0) - 4.8).abs() < 1e-12);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartile_spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn throughput_counts_every_stall() {
        let mut samples = vec![0.01; 100];
        assert!((throughput(&samples, 5.0) - 500.0).abs() < 1e-9);
        for s in &mut samples[40..50] {
            *s = 1.0;
        }
        // 1 s of steps became 10.9 s
        assert!((throughput(&samples, 5.0) - 500.0 / 10.9).abs() < 1e-9);
    }

    #[test]
    fn digest_sees_single_bit_changes() {
        let a = [1.0f32, 2.0, 3.0];
        let mut b = a;
        b[1] = f32::from_bits(b[1].to_bits() ^ 1);
        assert_eq!(bits_digest(a), bits_digest(a));
        assert_ne!(bits_digest(a), bits_digest(b));
    }

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
