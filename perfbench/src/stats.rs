//! Order statistics and aggregate helpers shared by every workload.

/// The Harrell–Davis estimate of the `q`-quantile of `values` (`q` in
/// `(0, 1)`): a Beta-weighted mean of every order statistic. A workload
/// whose ops cluster by input (one cluster per kernel) has gaps between
/// clusters; a nearest-rank percentile jumps across a gap when one op
/// moves, while this estimate moves smoothly. Returns `NaN` for an empty
/// slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let (a, b) = ((n + 1.0) * q, (n + 1.0) * (1.0 - q));
    // Beta(a, b) puts all but a negligible weight within 12 standard
    // deviations of q; order statistics outside that window are skipped.
    let sd = (q * (1.0 - q) / n).sqrt();
    let first = (((q - 12.0 * sd) * n).floor().max(0.0)) as usize;
    let last = (((q + 12.0 * sd) * n).ceil().min(n)) as usize;
    let mut below = beta_cdf(a, b, first as f64 / n);
    let mut estimate = 0.0;
    for (i, value) in sorted.iter().enumerate().take(last).skip(first) {
        let upto = beta_cdf(a, b, (i + 1) as f64 / n);
        estimate += (upto - below) * value;
        below = upto;
    }
    estimate
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7, n = 9).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |acc, (i, c)| acc + c / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The regularized incomplete beta function `I_x(a, b)`, by its
/// continued fraction (modified Lentz).
fn beta_cdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_fraction(a, b, x) / a
    } else {
        1.0 - ln_front.exp() * beta_fraction(b, a, 1.0 - x) / b
    }
}

fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..10_000 {
        let m = f64::from(m);
        for numerator in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + numerator * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + numerator / c;
            if c.abs() < TINY {
                c = TINY;
            }
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// The nearest-rank median (the lower middle for an even count): robust
/// to a single outlier, which calibration windows and set-up repeats
/// need. Returns `NaN` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// Samples strictly above the nearest-rank `q`-quantile — the "at least
/// ten samples beyond it" test for a reported percentile.
#[must_use]
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Geometric mean, folded in the order given. Callers that need a
/// bit-identical result across runs pass the values in a canonical order.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean (`NaN` for an empty slice).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_estimates() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Reference values from numerically integrating the Beta density.
        for (q, want) in [(0.5, 50.5), (0.9, 90.5), (0.99, 99.42)] {
            let got = quantile(&v, q);
            assert!((got - want).abs() < 0.005, "q={q}: {got}");
        }
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        // Across a gap between two clusters the estimate moves smoothly.
        let mut clusters: Vec<f64> = vec![10.0; 50];
        clusters.extend(vec![20.0; 50]);
        let mid = quantile(&clusters, 0.5);
        assert!(mid > 10.0 && mid < 20.0);
        assert_eq!(median(&[3.0, 1.0, 100.0, 2.0]), 2.0);
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
