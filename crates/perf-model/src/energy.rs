//! Energy-efficiency accounting (paper §7.2).
//!
//! "When steady state is reached during the experiments, the CS-2 consumes
//! an average 23 kW of power. This corresponds to 13.67 GFLOP/W ... the
//! A100 runs consume a peak of 250 W under the same workload. The dataflow
//! implementation achieves a 2.2× energy efficiency with respect to the
//! reference implementation in aggregate and without considering the host
//! or the networking equipment."

use serde::{Deserialize, Serialize};

/// Power × time → efficiency for one machine/workload pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Steady-state power \[W\].
    pub power_watts: f64,
}

impl EnergyModel {
    /// Creates the model.
    pub fn new(power_watts: f64) -> Self {
        assert!(power_watts > 0.0);
        Self { power_watts }
    }

    /// Energy for a run \[J\].
    pub fn energy_joules(&self, time_s: f64) -> f64 {
        self.power_watts * time_s
    }

    /// Efficiency in GFLOP/W for a workload of `total_flops` completed in
    /// `time_s` (i.e. FLOP/s per watt).
    pub fn gflop_per_watt(&self, total_flops: f64, time_s: f64) -> f64 {
        total_flops / time_s / self.power_watts / 1.0e9
    }
}

/// Ratio of two efficiencies (the paper's "2.2× energy efficiency").
pub fn efficiency_ratio(a: f64, b: f64) -> f64 {
    a / b
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's workload: 140 FLOP/cell × 183 393 000 cells × 1000.
    const PAPER_FLOPS: f64 = 140.0 * 183_393_000.0 * 1000.0;

    #[test]
    fn cs2_matches_papers_gflop_per_watt() {
        // 311.85 TFLOP/s at 23 kW → 13.67 GFLOP/W (using the paper's own
        // wall-clock of 0.0823 s).
        let m = EnergyModel::new(23.0e3);
        let eff = m.gflop_per_watt(PAPER_FLOPS, 0.0823);
        assert!((eff - 13.67).abs() < 0.15, "CS-2 efficiency {eff}");
    }

    #[test]
    fn a100_vs_cs2_ratio_is_about_2_2x() {
        let cs2 = EnergyModel::new(23.0e3).gflop_per_watt(PAPER_FLOPS, 0.0823);
        let a100 = EnergyModel::new(250.0).gflop_per_watt(PAPER_FLOPS, 16.8378);
        let ratio = efficiency_ratio(cs2, a100);
        assert!(
            (ratio - 2.2).abs() < 0.1,
            "paper: 2.2× energy efficiency; model: {ratio}"
        );
    }

    #[test]
    fn energy_scales_with_time() {
        let m = EnergyModel::new(100.0);
        assert_eq!(m.energy_joules(2.0), 200.0);
        assert_eq!(m.energy_joules(0.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_power_rejected() {
        let _ = EnergyModel::new(0.0);
    }
}
