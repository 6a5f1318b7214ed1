/// Slices shorter than this are sorted by comparison: below it, the
/// bucket pass's fixed cost (the key range, the bucket table and a key
/// buffer) is not repaid.
const BUCKET_MIN_LEN: usize = 256;

/// Sorts `xs` ascending by [`f64::total_cmp`].
///
/// Long slices are distributed by one counting pass over the top bits of
/// each value's total-order key (about four values per bucket between the
/// smallest and largest key), and each bucket is then sorted by key. A
/// key's top bits are its sign, exponent and leading mantissa bits, so
/// the buckets split the values' range about evenly on a log scale. A
/// slice whose range is stretched by a few extreme values falls back, in
/// effect, to sorting a few large buckets by comparison.
///
/// Values equal under [`f64::total_cmp`] are bit-equal, so the result is
/// the same bits as `xs.sort_by(f64::total_cmp)` whatever the sort's
/// stability. NaNs sort by sign and payload, as under [`f64::total_cmp`].
pub fn sort_total(xs: &mut [f64]) {
    let n = xs.len();
    if n < BUCKET_MIN_LEN {
        xs.sort_unstable_by(f64::total_cmp);
        return;
    }
    let (lo, hi) = xs.iter().fold((u64::MAX, 0), |(lo, hi), &x| {
        let k = total_key(x);
        (lo.min(k), hi.max(k))
    });
    let bits = (n / 4).next_power_of_two().trailing_zeros().min(16);
    let shift = (u64::BITS - (hi - lo).leading_zeros()).saturating_sub(bits);
    let bucket = |x: f64| ((total_key(x) - lo) >> shift) as usize;
    // Counts, then each bucket's next free slot, then each bucket's end.
    let mut ends = vec![0usize; 1 << bits];
    for &x in xs.iter() {
        ends[bucket(x)] += 1;
    }
    let mut sum = 0;
    for end in &mut ends {
        let count = *end;
        *end = sum;
        sum += count;
    }
    let mut keys = vec![0u64; n];
    for &x in xs.iter() {
        let b = bucket(x);
        keys[ends[b]] = total_key(x);
        ends[b] += 1;
    }
    let mut start = 0;
    for &end in &ends {
        keys[start..end].sort_unstable();
        start = end;
    }
    for (x, k) in xs.iter_mut().zip(keys) {
        *x = from_total_key(k);
    }
}

/// An unsigned key whose order is [`f64::total_cmp`]'s: a positive value's
/// sign bit is set, a negative value's bits are all flipped.
#[inline]
fn total_key(x: f64) -> u64 {
    let bits = x.to_bits();
    let mask = ((bits as i64 >> 63) as u64) | (1 << 63);
    bits ^ mask
}

/// The inverse of [`total_key`].
#[inline]
fn from_total_key(k: u64) -> f64 {
    let mask = if k >> 63 == 1 { 1 << 63 } else { u64::MAX };
    f64::from_bits(k ^ mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A value drawn to collide: signed zeros, infinities, NaNs of both
    /// signs, subnormals, the extremes, a few repeated levels and ordinary
    /// values.
    fn value() -> impl Strategy<Value = f64> {
        (0u32..16, -1e6f64..1e6, 1u64..(1 << 52)).prop_map(|(kind, v, mantissa)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::NAN,
            5 => -f64::NAN,
            6 => f64::from_bits(mantissa),  // positive subnormal
            7 => -f64::from_bits(mantissa), // negative subnormal
            8 => f64::MIN_POSITIVE,
            9 => f64::MAX,
            10 => f64::MIN,
            11..=12 => (v / 1e5).round(), // heavy duplicates in -10..=10
            _ => v,
        })
    }

    /// A mostly ordinary value: KPI-like levels with heavy duplicates, and
    /// now and then a signed zero, a subnormal or a negative value, so the
    /// bucket pass spreads the values over many buckets.
    fn ordinary() -> impl Strategy<Value = f64> {
        (0u32..40, 0.0f64..400.0, 1u64..(1 << 52)).prop_map(|(kind, v, mantissa)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(mantissa),
            3 => -v,
            4..=12 => v.round(),
            _ => v,
        })
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The bucket sort returns `sort_by(f64::total_cmp)`'s bits at every
        /// length from 0 to 300, on both sides of the comparison cutoff.
        #[test]
        fn matches_total_cmp_sort_bit_for_bit(
            values in prop::collection::vec(value(), 300..301),
            len in 0usize..301,
        ) {
            let mut got = values[..len].to_vec();
            let mut want = got.clone();
            sort_total(&mut got);
            want.sort_by(f64::total_cmp);
            prop_assert_eq!(bits(&got), bits(&want), "len {}", len);
        }

        /// The same over longer slices of mostly ordinary values, which
        /// fill many buckets.
        #[test]
        fn matches_total_cmp_sort_on_spread_values(
            values in prop::collection::vec(ordinary(), 3000..3001),
            len in 0usize..3001,
        ) {
            let mut got = values[..len].to_vec();
            let mut want = got.clone();
            sort_total(&mut got);
            want.sort_by(f64::total_cmp);
            prop_assert_eq!(bits(&got), bits(&want), "len {}", len);
        }
    }

    #[test]
    fn keys_round_trip_and_order() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            2.0,
            f64::INFINITY,
        ];
        for w in xs.windows(2) {
            assert!(total_key(w[0]) < total_key(w[1]), "{} < {}", w[0], w[1]);
        }
        for &x in &xs {
            assert_eq!(from_total_key(total_key(x)).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn one_repeated_value_is_left_as_is() {
        let mut xs = vec![3.25; 1000];
        sort_total(&mut xs);
        assert!(xs.iter().all(|x| x.to_bits() == 3.25f64.to_bits()));
    }
}
