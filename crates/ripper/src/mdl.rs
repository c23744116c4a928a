//! Minimum-description-length arithmetic for the RIPPER stopping rule.
//!
//! Description lengths follow Cohen's scheme (as popularized by the Weka
//! `JRip` implementation): the total cost of a rule set is the cost of
//! transmitting the *theory* (the rules themselves) plus the cost of
//! transmitting the *exceptions* (which covered instances are false
//! positives and which uncovered ones are false negatives). Rule-set
//! growth stops when the total exceeds the best total seen so far by more
//! than [`DL_BUDGET`] bits.

/// Extra description-length budget (bits) past the minimum before rule
/// growth stops; 64 in Cohen's paper and in JRip.
pub const DL_BUDGET: f64 = 64.0;

/// `log2(n choose k)` computed stably via a sum of logarithms.
///
/// Returns 0 for the degenerate cases (`k == 0` or `k == n`); callers
/// guarantee `k <= n`.
fn log2_binomial(n: usize, k: usize) -> f64 {
    debug_assert!(k <= n, "k must be at most n");
    let k = k.min(n - k.min(n));
    if k == 0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for i in 1..=k {
        sum += ((n - k + i) as f64).log2() - (i as f64).log2();
    }
    sum
}

/// Bits to transmit which `errors` elements of a `total`-element set are
/// exceptional: the subset identity plus its cardinality.
fn subset_dl(total: usize, errors: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    log2_binomial(total, errors.min(total)) + ((total + 1) as f64).log2()
}

/// Bits to transmit the classification errors of a rule set that covers
/// `covered` instances with `fp` false positives and leaves `uncovered`
/// instances with `fn_` false negatives.
fn data_dl(covered: usize, fp: usize, uncovered: usize, fn_: usize) -> f64 {
    subset_dl(covered, fp) + subset_dl(uncovered, fn_)
}

/// Bits to transmit one rule with `conds` conditions chosen among
/// `attr_count` numeric attributes.
///
/// Each condition costs the choice of attribute, a direction bit and an
/// (approximate) threshold cost; the total is halved as in Cohen's scheme
/// to account for the redundancy of condition orderings.
fn theory_dl(conds: usize, attr_count: usize) -> f64 {
    if conds == 0 {
        return 0.0;
    }
    let per_cond = (attr_count.max(2) as f64).log2() + 1.0 + THRESHOLD_BITS;
    0.5 * (conds as f64 * per_cond + ((conds + 1) as f64).log2())
}

/// Approximate bits to encode one numeric threshold.
const THRESHOLD_BITS: f64 = 8.0;

/// Total description length of a rule set summarized by its per-rule
/// condition counts and its training errors.
pub(crate) fn total_dl(
    rule_cond_counts: &[usize],
    attr_count: usize,
    covered: usize,
    fp: usize,
    uncovered: usize,
    fn_: usize,
) -> f64 {
    let theory: f64 = rule_cond_counts.iter().map(|&c| theory_dl(c, attr_count)).sum();
    theory + data_dl(covered, fp, uncovered, fn_)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_small_cases() {
        assert!((log2_binomial(4, 2) - (6.0f64).log2()).abs() < 1e-9);
        assert_eq!(log2_binomial(10, 0), 0.0);
        assert_eq!(log2_binomial(10, 10), 0.0);
        assert!((log2_binomial(5, 1) - (5.0f64).log2()).abs() < 1e-9);
    }

    #[test]
    fn binomial_is_symmetric() {
        assert!((log2_binomial(20, 6) - log2_binomial(20, 14)).abs() < 1e-9);
    }

    #[test]
    fn binomial_monotone_in_n() {
        assert!(log2_binomial(100, 5) < log2_binomial(200, 5));
    }

    #[test]
    fn subset_dl_zero_total() {
        assert_eq!(subset_dl(0, 0), 0.0);
        assert!(subset_dl(10, 0) > 0.0, "still costs the cardinality");
    }

    #[test]
    fn data_dl_grows_with_errors() {
        let clean = data_dl(100, 0, 100, 0);
        let dirty = data_dl(100, 10, 100, 10);
        assert!(dirty > clean);
    }

    #[test]
    fn theory_dl_grows_with_conditions() {
        assert_eq!(theory_dl(0, 13), 0.0);
        assert!(theory_dl(1, 13) > 0.0);
        assert!(theory_dl(3, 13) > theory_dl(1, 13));
    }

    #[test]
    fn total_combines() {
        let t = total_dl(&[2, 1], 13, 50, 2, 50, 3);
        let expect = theory_dl(2, 13) + theory_dl(1, 13) + data_dl(50, 2, 50, 3);
        assert!((t - expect).abs() < 1e-9);
    }

    #[test]
    fn more_rules_cost_more_theory_bits() {
        let few = total_dl(&[2], 13, 100, 5, 100, 5);
        let many = total_dl(&[2, 2, 2], 13, 100, 5, 100, 5);
        assert!(many > few);
    }
}
