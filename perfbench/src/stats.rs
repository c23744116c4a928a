//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! the calm-piece estimators, failure shares and the metric-name grammar.

/// Percentiles tried, highest first, when reporting a latency tail.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank index of percentile `p` in a sorted sample of `n`:
/// the smallest rank whose cumulative share reaches `p`.
fn rank(p: f64, n: usize) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(p, n)
}

/// A reported latency tail: which percentile it is, its value, and the
/// sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (100 means the maximum).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] of `n` samples beyond it; 100 (the maximum) when none
/// has.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER.into_iter().find(|&p| samples_beyond(p, n) >= MIN_BEYOND).unwrap_or(100.0)
}

/// The [`tail_percentile`] of `values` and its value. `None` when empty.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let percentile = tail_percentile(n);
    Some(Tail { percentile, value: v[rank(percentile, n) - 1], samples: n })
}

/// Quantile of the pieces' rates reported as a rate. Other tenants of a
/// shared host only ever slow a piece down, so the fast end of the
/// distribution is the program's own speed; the median drifts with the
/// host's load.
pub const CALM_RATE_Q: f64 = 0.95;

/// Quantile of the pieces' latency percentiles reported as a latency,
/// by the same reasoning from the low end.
pub const CALM_LATENCY_Q: f64 = 0.05;

/// Nearest-rank quantile `q` (0 to 1) of `values`; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (n > 0).then(|| v[rank(100.0 * q, n) - 1])
}

/// One completed operation: completion time in s since the window
/// opened, scope units done, latency in µs.
pub type Op = (f64, u64, f64);

/// A fixed amount of work done in one stretch of the window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Piece {
    /// Wall time the piece took, s.
    pub secs: f64,
    /// Scope units completed.
    pub units: u64,
    /// Per-operation latencies, µs.
    pub lat_us: Vec<f64>,
}

/// Cuts `ops` into pieces of `per` operations consecutive in completion
/// order. A piece lasts from the previous piece's last completion (the
/// window's opening, for the first) to its own last completion. A
/// trailing partial piece is dropped unless it is the only one.
pub fn pieces(ops: &[Op], per: usize) -> Vec<Piece> {
    let mut ops = ops.to_vec();
    ops.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<Piece> = Vec::new();
    let mut from = 0.0;
    for chunk in ops.chunks(per.max(1)) {
        if chunk.len() < per && !out.is_empty() {
            break;
        }
        let to = chunk[chunk.len() - 1].0;
        out.push(Piece {
            secs: to - from,
            units: chunk.iter().map(|o| o.1).sum(),
            lat_us: chunk.iter().map(|o| o.2).collect(),
        });
        from = to;
    }
    out
}

/// Rate and latencies of the calm pieces of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calm {
    /// The [`CALM_RATE_Q`] quantile of the pieces' units per second.
    pub rate: f64,
    /// The [`CALM_LATENCY_Q`] quantile of the pieces' median latencies.
    pub p50: f64,
    /// The percentile each piece reports as its tail: the [`tail`] rule
    /// applied to the smallest piece.
    pub tail_p: f64,
    /// The [`CALM_LATENCY_Q`] quantile of the pieces' `tail_p` latencies.
    pub tail: f64,
    /// Pieces the figures are taken over.
    pub pieces: usize,
}

/// The calm figures of `pieces`; `None` when there are none, or one has
/// no latencies or no duration.
pub fn calm(pieces: &[Piece]) -> Option<Calm> {
    let smallest = pieces.iter().map(|p| p.lat_us.len()).min()?;
    if smallest == 0 || pieces.iter().any(|p| p.secs <= 0.0) {
        return None;
    }
    let tail_p = tail_percentile(smallest);
    let rates: Vec<f64> = pieces.iter().map(|p| p.units as f64 / p.secs).collect();
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    for p in pieces {
        let mut v = p.lat_us.clone();
        v.sort_by(f64::total_cmp);
        p50s.push(median(&v)?);
        tails.push(v[rank(tail_p, v.len()) - 1]);
    }
    Some(Calm {
        rate: quantile(&rates, CALM_RATE_Q)?,
        p50: quantile(&p50s, CALM_LATENCY_Q)?,
        tail_p,
        tail: quantile(&tails, CALM_LATENCY_Q)?,
        pieces: pieces.len(),
    })
}

/// Failed or refused operations over attempted operations. Every
/// attempted operation counts in the denominator, the failed ones
/// included; `None` when nothing was attempted, which is itself an
/// invalid run.
pub fn failed_share(failed: u64, attempted: u64) -> Option<f64> {
    if attempted == 0 || failed > attempted {
        return None;
    }
    Some(failed as f64 / attempted as f64)
}

/// True when `name` is a valid metric or workload name: it starts with
/// a letter or digit and is at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// True when `unit` is a valid unit: at most 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        assert_eq!(samples_beyond(99.0, 1000), 10);
        // One sample short: p99 has only 9 beyond it, so p95 is reported.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(samples_beyond(99.0, 999), 9);
        assert_eq!((t.percentile, t.value), (95.0, 950.0));
    }

    #[test]
    fn tail_steps_down_the_ladder_then_falls_back_to_the_maximum() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().percentile, 50.0);
        assert_eq!(tail(&v).unwrap().value, 10.0);
        let v = [5.0, 1.0, 9.0];
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (100.0, 9.0, 3));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut v: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let a = tail(&v).unwrap();
        v.sort_by(f64::total_cmp);
        assert_eq!(a, tail(&v).unwrap());
        // 2000 samples: p99 is rank 1980 (value 1979), 20 beyond.
        assert_eq!((a.percentile, a.value), (99.0, 1979.0));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), Some(9.0));
        assert_eq!(quantile(&v, 0.1), Some(1.0));
        assert_eq!(quantile(&v, 0.5), Some(5.0), "the lower middle value, not a mean");
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn pieces_are_consecutive_completions() {
        // Out of completion order, as two clients' logs concatenate.
        let ops = [(0.5, 2, 10.0), (0.2, 1, 20.0), (1.5, 4, 30.0), (1.0, 3, 40.0), (2.0, 9, 50.0)];
        let got = pieces(&ops, 2);
        assert_eq!(
            got,
            vec![
                Piece { secs: 0.5, units: 3, lat_us: vec![20.0, 10.0] },
                Piece { secs: 1.0, units: 7, lat_us: vec![40.0, 30.0] },
            ],
            "the trailing partial piece is dropped"
        );
        assert_eq!(pieces(&ops, 9).len(), 1, "a lone partial piece is kept");
        assert!(pieces(&[], 4).is_empty());
    }

    #[test]
    fn calm_takes_the_fast_end_of_the_pieces() {
        // Ten pieces of 20 operations; piece k is k times slower than piece 1.
        let pieces: Vec<Piece> = (1..=10)
            .map(|k| Piece { secs: f64::from(k), units: 100, lat_us: (1..=20).map(|i| f64::from(i * k)).collect() })
            .collect();
        let c = calm(&pieces).unwrap();
        // Rates 100/k: the 0.95 quantile of ten is the fastest piece.
        assert_eq!(c.rate, 100.0);
        // 20 samples per piece: p50 is the highest with 10 beyond.
        assert_eq!(c.tail_p, 50.0);
        assert_eq!(c.tail, 10.0);
        assert_eq!(c.p50, 10.5);
        assert_eq!(c.pieces, 10);
        assert_eq!(calm(&[]), None);
        assert_eq!(calm(&[Piece { secs: 1.0, units: 1, lat_us: vec![] }]), None);
    }

    #[test]
    fn failed_share_counts_every_attempt_in_the_denominator() {
        assert_eq!(failed_share(0, 10), Some(0.0));
        assert_eq!(failed_share(1, 4), Some(0.25));
        assert_eq!(failed_share(4, 4), Some(1.0));
        assert_eq!(failed_share(0, 0), None, "no attempts is not a clean run");
        assert_eq!(failed_share(5, 4), None, "more failures than attempts is a bookkeeping bug");
    }

    #[test]
    fn metric_name_grammar() {
        for good in ["units_per_s", "features.ns_per_unit", "p-99", "9lives", "a"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "has space", "semi;colon", "ü", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for good in ["ms", "s", "1/s", "count", "%", "MiB", "us", "share"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "per second", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }
}
