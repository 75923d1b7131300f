//! Test-resource partitioning: scheduling BIST acquisitions under a
//! SoC memory budget.
//!
//! The paper's framing (refs. \[1\]–\[2\]) is test-resource reuse in a SoC.
//! With one comparator per test point, the *analog* side is always
//! parallel — but the stored bitstreams compete for the same on-chip
//! memory. This module plans how many points can be captured
//! concurrently per pass given a budget, and how many passes a full
//! test of `n` points needs.

use crate::resources::{one_bit_usage, ResourceBudget, ResourceUsage};
use crate::SocError;

/// A planned acquisition schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestPlan {
    /// Number of test points captured concurrently in each pass.
    pub points_per_pass: usize,
    /// Number of passes needed to cover all points (hot+cold pairs per
    /// point are captured within a pass).
    pub passes: usize,
    /// Memory used in the widest pass, in bytes.
    pub pass_memory_bytes: usize,
    /// Per-measurement resource estimate the plan was built from.
    pub per_point: ResourceUsage,
}

impl TestPlan {
    /// Total test points covered by the plan.
    pub fn total_points(&self) -> usize {
        // The last pass may be partial; the plan records the covering
        // count, so this is an upper bound consistent with `new`.
        self.points_per_pass * self.passes
    }
}

/// Plans the acquisition schedule for `points` test points, each needing
/// a hot+cold pair of `samples`-long 1-bit records analyzed with
/// `nfft`-point segments, under `budget`.
///
/// The FFT working buffer is shared across points (processing is
/// sequential on the SoC CPU), so each concurrent point costs only its
/// two records.
///
/// # Errors
///
/// Returns [`SocError::InvalidParameter`] for zero points and
/// [`SocError::BudgetExceeded`] when even a single point does not fit.
///
/// # Examples
///
/// ```
/// use nfbist_soc::resources::ResourceBudget;
/// use nfbist_soc::testplan::plan_acquisitions;
///
/// # fn main() -> Result<(), nfbist_soc::SocError> {
/// // 8 test points, paper-size records, 1 MB of SRAM.
/// let plan = plan_acquisitions(8, 1_000_000, 10_000, ResourceBudget::new(1 << 20))?;
/// assert!(plan.points_per_pass >= 2);
/// assert!(plan.passes * plan.points_per_pass >= 8);
/// # Ok(())
/// # }
/// ```
pub fn plan_acquisitions(
    points: usize,
    samples: usize,
    nfft: usize,
    budget: ResourceBudget,
) -> Result<TestPlan, SocError> {
    if points == 0 {
        return Err(SocError::InvalidParameter {
            name: "points",
            reason: "need at least one test point",
        });
    }
    let per_point = one_bit_usage(samples, nfft);
    // Shared FFT buffer + per-point hot/cold records.
    let fft_buffer = per_point.peak_memory_bytes - 2 * per_point.record_bytes;
    let per_point_records = 2 * per_point.record_bytes;
    if fft_buffer + per_point_records > budget.memory_bytes() {
        return Err(SocError::BudgetExceeded {
            requested_bytes: fft_buffer + per_point_records,
            budget_bytes: budget.memory_bytes(),
        });
    }
    let concurrent = ((budget.memory_bytes() - fft_buffer) / per_point_records).max(1);
    let points_per_pass = concurrent.min(points);
    let passes = points.div_ceil(points_per_pass);
    Ok(TestPlan {
        points_per_pass,
        passes,
        pass_memory_bytes: fft_buffer + points_per_pass * per_point_records,
        per_point,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(plan_acquisitions(0, 1000, 100, ResourceBudget::new(1 << 20)).is_err());
        // A budget smaller than one point's needs is rejected with the
        // numbers attached.
        let err = plan_acquisitions(1, 1_000_000, 10_000, ResourceBudget::new(1_000));
        assert!(matches!(err, Err(SocError::BudgetExceeded { .. })));
    }

    #[test]
    fn single_point_fits_one_pass() {
        let plan =
            plan_acquisitions(1, 1_000_000, 10_000, ResourceBudget::new(512 * 1024)).unwrap();
        assert_eq!(plan.points_per_pass, 1);
        assert_eq!(plan.passes, 1);
        assert!(plan.pass_memory_bytes <= 512 * 1024);
    }

    #[test]
    fn bigger_budget_means_fewer_passes() {
        let small =
            plan_acquisitions(16, 1_000_000, 10_000, ResourceBudget::new(512 * 1024)).unwrap();
        let large = plan_acquisitions(16, 1_000_000, 10_000, ResourceBudget::new(8 << 20)).unwrap();
        assert!(large.passes < small.passes, "{large:?} vs {small:?}");
        assert!(large.points_per_pass > small.points_per_pass);
        assert!(large.total_points() >= 16);
    }

    #[test]
    fn pass_memory_never_exceeds_budget() {
        for budget_kb in [300usize, 512, 1024, 4096] {
            let budget = ResourceBudget::new(budget_kb * 1024);
            if let Ok(plan) = plan_acquisitions(32, 1_000_000, 10_000, budget) {
                assert!(
                    plan.pass_memory_bytes <= budget.memory_bytes(),
                    "budget {budget_kb} kB: {plan:?}"
                );
                assert!(plan.points_per_pass * plan.passes >= 32);
            }
        }
    }

    #[test]
    fn concurrency_capped_at_point_count() {
        let plan = plan_acquisitions(2, 10_000, 1_000, ResourceBudget::new(64 << 20)).unwrap();
        assert_eq!(plan.points_per_pass, 2);
        assert_eq!(plan.passes, 1);
    }

    #[test]
    fn plans_use_the_fewest_passes_the_budget_allows() {
        for points in [1usize, 2, 5, 8, 17] {
            for budget in [96 << 10, 256 << 10, 1 << 20, 4 << 20] {
                let Ok(plan) =
                    plan_acquisitions(points, 200_000, 4_096, ResourceBudget::new(budget))
                else {
                    continue;
                };
                let records = 2 * plan.per_point.record_bytes;
                let fft = plan.per_point.peak_memory_bytes - records;
                // Every point is covered, and no pass could be dropped.
                assert!(plan.total_points() >= points);
                assert!((plan.passes - 1) * plan.points_per_pass < points);
                assert!(plan.pass_memory_bytes <= budget);
                assert_eq!(plan.pass_memory_bytes, fft + plan.points_per_pass * records);
                // One more concurrent point would not fit (unless every
                // point already shares one pass).
                if plan.points_per_pass < points {
                    assert!(fft + (plan.points_per_pass + 1) * records > budget);
                }
            }
        }
    }
}
