//! Bit-identity pin for the ideal (Oracle) fluid simulation.
//!
//! The FCTs below were captured before the oracle's coordinate step was
//! reworked; any change to the solver that moves a single rate bit moves
//! some completion time here.

use numfabric_num::utility::{FctUtility, UtilityRef};
use numfabric_sim::topology::{LeafSpineConfig, Topology};
use numfabric_sim::SimDuration;
use numfabric_workloads::{
    poisson_arrivals, EmpiricalCdf, IdealFluidSimulator, PoissonWorkloadConfig,
};
use std::sync::Arc;

/// Ideal FCTs in nanoseconds of the first 40 flows below.
const FCT_NS: [u64; 40] = [
    3365203, 12831, 960300, 1078322, 11924892, 1581720, 6660327, 7974, 128242, 2106739, 1134130,
    87516, 14535, 290528, 29343517, 7573, 2701, 4095, 285524, 3937, 1008063, 1302160, 9271410,
    40262, 18719, 1234, 2316, 7488, 14854, 13556, 20330540, 12298, 104801, 7339, 783981, 5044,
    3764297, 17053, 2109225, 3562,
];

#[test]
fn fct_minimization_run_matches_golden_fcts() {
    // The arrivals of `generate_arrivals(&DynamicRun::reduced(0.8, 31),
    // &EmpiricalCdf::web_search())` in `numfabric-bench`: web-search sizes
    // at load 0.8 on a 32-host, 4-leaf, 2-spine fabric over 20 ms.
    let cfg = LeafSpineConfig::small(32, 4, 2);
    let topo = Topology::leaf_spine(&cfg);
    let workload = PoissonWorkloadConfig {
        load: 0.8,
        host_link_bps: cfg.host_link_bps,
        duration: SimDuration::from_millis(20),
        seed: 31,
        num_spines: cfg.spines,
    };
    let mut arrivals = poisson_arrivals(topo.hosts(), &EmpiricalCdf::web_search(), &workload);
    arrivals.truncate(40);
    let done = IdealFluidSimulator::new(&topo).run(&arrivals, |a| {
        Arc::new(FctUtility::new(a.size_bytes.max(1) as f64)) as UtilityRef
    });
    let fct_ns: Vec<u64> = done.iter().map(|c| c.fct.as_nanos()).collect();
    assert_eq!(fct_ns, FCT_NS, "ideal FCTs diverged from the golden run");
}
