//! Aggregation of repeated measurements: medians, quartiles and PAR-2.

/// The median of `values` (the mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The first and third quartiles of `values`, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// the spreads printed here match the ones a reader recomputes from the
/// printed samples. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        // Signed: for tiny samples Python extrapolates past the ends.
        let delta = m as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Table II's PAR-2 score in seconds: each solved instance contributes its
/// runtime, each unsolved one twice the nominal timeout.
///
/// # Panics
///
/// Panics when a solved runtime exceeds the nominal timeout: the benchmark
/// sets the timeout above every runtime so that PAR-2 is never clipped, and
/// a clipped score would hide a slowdown.
pub fn par2(runs: &[(f64, bool)], timeout_s: f64) -> f64 {
    runs.iter()
        .map(|&(seconds, solved)| {
            if solved {
                assert!(
                    seconds <= timeout_s,
                    "a solved run took {seconds} s, above the {timeout_s} s nominal timeout"
                );
                seconds
            } else {
                2.0 * timeout_s
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([7, 1, 4], n=4) == [1.0, 4.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 4.0]), Some((1.0, 7.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn par2_sums_solved_runtimes_and_doubles_the_timeout_for_unsolved() {
        assert_eq!(par2(&[], 60.0), 0.0);
        assert_eq!(par2(&[(1.5, true), (2.0, true)], 60.0), 3.5);
        assert_eq!(par2(&[(1.5, true), (9.0, false)], 60.0), 121.5);
    }

    #[test]
    #[should_panic(expected = "nominal timeout")]
    fn par2_refuses_to_clip_a_solved_runtime() {
        par2(&[(61.0, true)], 60.0);
    }
}
