//! Bit-identity pins for the NUM oracle.
//!
//! The oracle is the reference every transport is judged against, so a
//! change that only makes it faster must not move a single output bit. The
//! golden values below were captured before the per-link coordinate step
//! was reworked (settled-link skipping, hoisted path prices, short-circuit
//! load sums, bisection stopped at its fixed point); the solver must still
//! reproduce them exactly — rates, prices, sweep count and convergence flag.
//! The instances cover two converging FCT-utility solves, one that stops at
//! the sweep cap, two disjoint components (so settled links are skipped while
//! the other component is still moving) and the multipath pooling solve.

use numfabric_num::utility::{FctUtility, LogUtility};
use numfabric_num::{FluidFlow, FluidNetwork, MultipathGroups, Oracle, OracleSolution};

/// The settings `IdealFluidSimulator` solves with.
fn ideal_oracle() -> Oracle {
    Oracle {
        tolerance: 1e-3,
        max_sweeps: 200,
        bisection_iters: 60,
    }
}

/// SplitMix64, so the instances do not depend on any RNG crate.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Appends `links` fresh links (10 or 40 Gb/s) and `flows` FCT-utility flows
/// over 1–3 of them, with sizes log-uniform in 1 kB–30 MB.
fn add_fct_component(net: &mut FluidNetwork, seed: u64, links: usize, flows: usize) {
    let mut rng = SplitMix(seed);
    let base = net.num_links();
    for _ in 0..links {
        net.add_link(if rng.unit() < 0.5 { 10.0 } else { 40.0 });
    }
    for _ in 0..flows {
        let len = 1 + (rng.next() % 3) as usize;
        let mut path = Vec::new();
        while path.len() < len.min(links) {
            let l = base + (rng.next() % links as u64) as usize;
            if !path.contains(&l) {
                path.push(l);
            }
        }
        let size = 10f64.powf(3.0 + 4.5 * rng.unit()).round();
        net.add_flow(FluidFlow::new(path, FctUtility::new(size)));
    }
}

fn fct_instance(seed: u64, links: usize, flows: usize) -> FluidNetwork {
    let mut net = FluidNetwork::new();
    add_fct_component(&mut net, seed, links, flows);
    net
}

/// Converges to tolerance `1e-3` after 164 sweeps.
fn converging() -> FluidNetwork {
    fct_instance(1, 3, 6)
}

/// Converges after 15 sweeps, but only because links whose own update
/// left their price unchanged are re-solved once their neighbours move:
/// skipping on that alone would run this instance to the sweep cap.
fn resettling() -> FluidNetwork {
    fct_instance(10, 3, 6)
}

/// Stops unconverged at the 200-sweep cap.
fn capped() -> FluidNetwork {
    fct_instance(20, 3, 6)
}

/// Two disjoint components: the capped one above, then one that converges
/// in a few sweeps on its own and then only waits for the other.
fn disjoint() -> FluidNetwork {
    let mut net = capped();
    add_fct_component(&mut net, 0, 2, 4);
    net
}

/// The resource-pooling instance of the oracle's unit tests: one aggregate
/// with a subflow on a 10 and on a 2 capacity link.
fn pooling() -> (FluidNetwork, MultipathGroups) {
    let mut net = FluidNetwork::new();
    let a = net.add_link(10.0);
    let b = net.add_link(2.0);
    net.add_flow(FluidFlow::new(vec![a], LogUtility::new()).in_group(0));
    net.add_flow(FluidFlow::new(vec![b], LogUtility::new()).in_group(0));
    let groups = MultipathGroups::from_network(&net);
    (net, groups)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

const CONVERGING_RATES: [u64; 6] = [
    4472406533629990549,
    4472406533629990549,
    4610283646141103604,
    4585910419366203469,
    4630583051003826181,
    4517798403265377657,
];
const CONVERGING_PRICES: [u64; 3] = [0, 4554655199050360664, 4545274691430976158];

const RESETTLING_RATES: [u64; 6] = [
    4524359557261452975,
    4621819117588408564,
    4472406533629990549,
    4472406533629990549,
    4626322669829713521,
    4621819210449393830,
];
const RESETTLING_PRICES: [u64; 3] = [
    4519177698400720862,
    4497385296952274372,
    4559946409112607382,
];

const CAPPED_RATES: [u64; 6] = [
    4472406533629990549,
    4582524051681102443,
    4472406533629990549,
    4621819117586719720,
    4472406533629990549,
    4472406533629990549,
];
const CAPPED_PRICES: [u64; 3] = [
    4554940680986525868,
    4546963683899673162,
    4536434736735086792,
];

const DISJOINT_RATES: [u64; 10] = [
    4472406533629990549,
    4582524051681102443,
    4472406533629990549,
    4621819117586719720,
    4472406533629990549,
    4472406533629990549,
    4555733457839955765,
    4472406533629990549,
    4472406533629990549,
    4621818900979136030,
];
const DISJOINT_PRICES: [u64; 5] = [
    4554940680986525868,
    4546963683899673162,
    4536434736735086792,
    0,
    4546263835396299160,
];

const POOLING_RATES: [u64; 2] = [4621813496013209149, 4611686018427383896];
const POOLING_PRICES: [u64; 2] = [4590674942580512470, 4590677824163993024];

fn assert_solution(
    name: &str,
    sol: &OracleSolution,
    rates: &[u64],
    prices: &[u64],
    sweeps: usize,
    converged: bool,
) {
    assert_eq!(
        bits(&sol.rates),
        rates,
        "{name}: rates diverged from the golden run"
    );
    assert_eq!(
        bits(&sol.prices),
        prices,
        "{name}: prices diverged from the golden run"
    );
    assert_eq!(sol.sweeps, sweeps, "{name}: sweep count changed");
    assert_eq!(sol.converged, converged, "{name}: convergence flag changed");
}

#[test]
fn converging_fct_instance_matches_golden_bits() {
    let sol = ideal_oracle().solve(&converging());
    assert_solution(
        "converging",
        &sol,
        &CONVERGING_RATES,
        &CONVERGING_PRICES,
        164,
        true,
    );
}

#[test]
fn resettling_fct_instance_matches_golden_bits() {
    let sol = ideal_oracle().solve(&resettling());
    assert_solution(
        "resettling",
        &sol,
        &RESETTLING_RATES,
        &RESETTLING_PRICES,
        15,
        true,
    );
}

#[test]
fn capped_fct_instance_matches_golden_bits() {
    let sol = ideal_oracle().solve(&capped());
    assert_solution("capped", &sol, &CAPPED_RATES, &CAPPED_PRICES, 200, false);
}

#[test]
fn disjoint_components_match_golden_bits() {
    let sol = ideal_oracle().solve(&disjoint());
    assert_solution(
        "disjoint",
        &sol,
        &DISJOINT_RATES,
        &DISJOINT_PRICES,
        200,
        false,
    );
}

#[test]
fn multipath_pooling_matches_golden_bits() {
    let (net, groups) = pooling();
    let sol = Oracle::new().solve_multipath(&net, &groups, 1e-4);
    assert_solution("pooling", &sol, &POOLING_RATES, &POOLING_PRICES, 1593, true);
}

#[test]
fn settled_links_are_skipped_without_changing_the_sweep_count() {
    let net = disjoint();
    let sol = ideal_oracle().solve(&net);
    // The small component settles within a few sweeps and is then skipped
    // while the capped one keeps moving; the solve still runs to the cap.
    assert!(sol.skipped_steps > 0, "no settled link was skipped");
    assert_eq!(sol.sweeps, 200);
    let used_links = net
        .flows_per_link()
        .iter()
        .filter(|f| !f.is_empty())
        .count();
    assert_eq!(sol.coordinate_steps, sol.sweeps * used_links);
    assert!(sol.skipped_steps < sol.coordinate_steps);
}
