//! Shared table-cell formatting for the harness binaries.
//!
//! These helpers are the single source of the Wilson-interval cell
//! (`estimate [lo, hi]`) and the depth column, shared by the
//! spec-driven `experiment` table and the `concentration` harness.

use nakamoto_sim::montecarlo::{TrialAggregate, WilsonInterval};

/// The standard failure-rate cell: `estimate [lo, hi]` at two
/// decimals (e.g. `0.40 [0.12, 0.77]`).
#[must_use]
pub fn ci_cell(w: &WilsonInterval) -> String {
    format!("{:.2} [{:.2}, {:.2}]", w.estimate, w.lo, w.hi)
}

/// Just the interval bracket at a chosen precision (the concentration
/// tables print the estimate separately): `[lo, hi]`.
#[must_use]
pub fn ci_bracket(w: &WilsonInterval, decimals: usize) -> String {
    format!("[{:.decimals$}, {:.decimals$}]", w.lo, w.hi)
}

/// The failure-rate cell for threshold `t` of an aggregate, or `"n/a"`
/// when the threshold was not tallied (or the aggregate is empty).
#[must_use]
pub fn failure_cell(aggregate: &TrialAggregate, t: u64, z: f64) -> String {
    aggregate
        .failure_interval(t, z)
        .map_or_else(|| "n/a".into(), |w| ci_cell(&w))
}

/// The deepest disturbance a cell observed: max of the worst reorg and
/// the worst cross-group divergence (the `depth` column of the
/// `experiment` table).
#[must_use]
pub fn depth_cell(aggregate: &TrialAggregate) -> u64 {
    aggregate
        .max_reorg_depth
        .max(aggregate.max_divergence_depth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_cell_formats_two_decimals() {
        let w = WilsonInterval::new(2, 5, 1.96);
        let cell = ci_cell(&w);
        assert_eq!(
            cell,
            format!("{:.2} [{:.2}, {:.2}]", w.estimate, w.lo, w.hi)
        );
        assert!(cell.starts_with("0.40 ["), "{cell}");
    }

    #[test]
    fn ci_bracket_respects_precision() {
        let w = WilsonInterval::new(1, 4, 1.96);
        assert_eq!(ci_bracket(&w, 3), format!("[{:.3}, {:.3}]", w.lo, w.hi));
        assert!(ci_bracket(&w, 1).len() < ci_bracket(&w, 4).len());
    }

    #[test]
    fn failure_cell_handles_missing_thresholds() {
        use nakamoto_sim::adversary::PrivateChainAdversary;
        use nakamoto_sim::config::SimConfig;
        use nakamoto_sim::montecarlo::TrialPlan;
        let cfg = SimConfig::from_c(60, 2, 1.0, 0.3, 5).unwrap();
        let run = TrialPlan::new(cfg, 500, 3)
            .unwrap()
            .thresholds(vec![12])
            .run(|_| PrivateChainAdversary::new(2));
        let cell = failure_cell(&run.aggregate, 12, 1.96);
        assert!(cell.contains('['), "{cell}");
        assert_eq!(failure_cell(&run.aggregate, 7, 1.96), "n/a");
        assert!(depth_cell(&run.aggregate) >= run.aggregate.max_reorg_depth);
    }
}
