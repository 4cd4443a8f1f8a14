//! Memory-budget admission for offloaded jobs, the engine's alone.
//!
//! Before a job is submitted to an SD node, its working-set footprint is
//! checked against that node's [`MemoryModel`]. A job that would thrash or
//! hard-overflow the node is not sent as-is: the planner shrinks the
//! partition fragment (halving from the full input) until the
//! per-fragment verdict clears, flooring at a configurable minimum fragment
//! size. Only when even the floor fragment would exceed the node's hard
//! memory limit is the job refused outright with the typed
//! [`McsdError::MemoryOverflow`] — everything else is admitted,
//! possibly re-partitioned, and the number of halvings is reported so the
//! overload counters can account for the adaptation.

use crate::error::McsdError;
use mcsd_phoenix::{MemoryModel, MemoryVerdict};

/// Default floor for admission-driven re-partitioning. Matches the
/// smallest fragment the partitioned runtime handles gracefully at test
/// scales while keeping fragment counts bounded at paper scales.
pub const DEFAULT_MIN_FRAGMENT_BYTES: u64 = 4 * 1024;

/// How an over-footprint job was adapted to fit its target node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPlan {
    /// Fragment size to run with; `None` means the job fits natively and
    /// needs no partitioning at all.
    pub fragment_bytes: Option<u64>,
    /// Halvings applied to reach `fragment_bytes` (0 for a native fit).
    pub repartitions: u64,
}

/// Plan how (whether) to run a job with `input_bytes` of input and the
/// given footprint factor on a node described by `model`, re-partitioning
/// adaptively down to `min_fragment_bytes`.
pub fn plan_admission(
    model: &MemoryModel,
    input_bytes: u64,
    footprint_factor: f64,
    min_fragment_bytes: u64,
) -> Result<AdmissionPlan, McsdError> {
    let floor = min_fragment_bytes.max(1);
    if matches!(
        model.verdict(input_bytes, footprint_factor),
        MemoryVerdict::Fits
    ) {
        return Ok(AdmissionPlan {
            fragment_bytes: None,
            repartitions: 0,
        });
    }
    let mut fragment = input_bytes.max(1);
    let mut repartitions = 0u64;
    while !matches!(
        model.verdict(fragment, footprint_factor),
        MemoryVerdict::Fits
    ) && fragment / 2 >= floor
    {
        fragment /= 2;
        repartitions += 1;
    }
    // At the floor a thrashing fragment is still admitted (it runs, just
    // degraded); a fragment over the hard limit cannot run at all.
    if model.verdict(fragment, footprint_factor).is_overflow() {
        return Err(McsdError::MemoryOverflow {
            input_bytes,
            limit_bytes: model.hard_limit_bytes(),
            min_fragment_bytes: floor,
        });
    }
    Ok(AdmissionPlan {
        fragment_bytes: Some(fragment),
        repartitions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(total: u64) -> MemoryModel {
        // hard limit = 750, available = 900 per 1000 bytes of memory.
        MemoryModel::new(total)
    }

    #[test]
    fn fitting_job_is_admitted_natively() {
        let plan = plan_admission(&model(1_000_000), 100_000, 3.0, 1024).unwrap();
        assert_eq!(plan.fragment_bytes, None);
        assert_eq!(plan.repartitions, 0);
    }

    #[test]
    fn over_footprint_job_halves_until_it_fits() {
        // 1_000_000 total: available 900_000. Input 900_000 x3 footprint
        // overflows the 750_000 hard limit natively; 450_000 fragments
        // thrash (1_350_000 > 900_000); 225_000 fragments fit (675_000).
        let plan = plan_admission(&model(1_000_000), 900_000, 3.0, 1024).unwrap();
        assert_eq!(plan.fragment_bytes, Some(225_000));
        assert_eq!(plan.repartitions, 2);
    }

    #[test]
    fn floor_thrashing_is_admitted_degraded() {
        // Floor so high that no fitting fragment is reachable, but the
        // floor fragment is still under the hard limit: admit, thrashing.
        let m = model(1_000);
        let plan = plan_admission(&m, 700, 3.0, 600).unwrap();
        assert_eq!(plan.fragment_bytes, Some(700));
        assert_eq!(plan.repartitions, 0);
        assert!(!m.verdict(700, 3.0).is_overflow());
    }

    #[test]
    fn floor_over_hard_limit_is_refused() {
        // Input over the hard limit and a floor that forbids shrinking
        // below it: nothing admissible remains.
        let refusal = plan_admission(&model(1_000), 900, 3.0, 800);
        let exact = McsdError::MemoryOverflow {
            input_bytes: 900,
            limit_bytes: 750,
            min_fragment_bytes: 800,
        };
        assert_eq!(refusal.unwrap_err().to_string(), exact.to_string());
    }
}
