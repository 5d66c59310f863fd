//! The ideal (Oracle) fluid simulation used as the reference for the dynamic
//! workloads (§6.1, Fig. 5).
//!
//! "We compare the average rates of the flows ... to what they would have
//! achieved with an ideal Oracle that assigns all flows their optimal NUM
//! rates instantaneously." [`IdealFluidSimulator`] is that reference: a fluid
//! event simulation in which, at every flow arrival or departure, the rates
//! of all active flows snap to the NUM optimum for the current flow
//! population; bytes then drain at those rates until the next event.

use crate::arrivals::FlowArrival;
use numfabric_num::utility::UtilityRef;
use numfabric_num::{FluidNetworkBuilder, Oracle};
use numfabric_sim::topology::{Route, Topology};
use numfabric_sim::{SimDuration, SimTime};

/// The ideal completion results of one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdealCompletion {
    /// Index of the flow in the arrival list.
    pub flow: usize,
    /// Ideal (oracle) flow completion time.
    pub fct: SimDuration,
    /// Ideal average rate in bits per second (size / FCT).
    pub rate_bps: f64,
}

/// Event-driven fluid simulator computing oracle FCTs for a dynamic workload.
pub struct IdealFluidSimulator<'a> {
    topo: &'a Topology,
    oracle: Oracle,
}

struct ActiveFlow {
    index: usize,
    route: Route,
    utility: UtilityRef,
    remaining_bytes: f64,
    started: SimTime,
}

impl<'a> IdealFluidSimulator<'a> {
    /// A simulator on the given topology. The oracle tolerance is relaxed to
    /// `1e-3` — amply precise for FCT references while keeping thousands of
    /// re-solves affordable — and each solve is capped at 200 sweeps. A
    /// solve that reaches the cap without meeting the tolerance returns the
    /// best KKT point it visited (see [`Oracle::solve`]); on dense FCT
    /// workloads many solves end that way.
    pub fn new(topo: &'a Topology) -> Self {
        let oracle = Oracle {
            tolerance: 1e-3,
            max_sweeps: 200,
            bisection_iters: 60,
        };
        Self { topo, oracle }
    }

    /// Run the workload: each arrival is routed with its recorded spine
    /// choice and given the utility returned by `utility_for` (which receives
    /// the arrival, e.g. to build size-dependent FCT utilities). Returns one
    /// completion record per arrival, in arrival order.
    ///
    /// Arrivals need not be sorted: flows are admitted in `(start, index)`
    /// order, so sorted input is admitted in index order.
    pub fn run(
        &self,
        arrivals: &[FlowArrival],
        utility_for: impl Fn(&FlowArrival) -> UtilityRef,
    ) -> Vec<IdealCompletion> {
        let mut completions: Vec<Option<IdealCompletion>> = vec![None; arrivals.len()];
        let mut active: Vec<ActiveFlow> = Vec::new();
        // Admission order; the sort is stable, so equal starts keep index order.
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.sort_by_key(|&i| arrivals[i].start);
        let mut next_arrival = 0usize;
        let mut now = SimTime::ZERO;

        loop {
            if active.is_empty() && next_arrival >= order.len() {
                break;
            }
            // Admit every arrival scheduled at the current instant.
            while next_arrival < order.len() && arrivals[order[next_arrival]].start <= now {
                let index = order[next_arrival];
                let a = &arrivals[index];
                active.push(ActiveFlow {
                    index,
                    route: self.topo.host_route(a.src, a.dst, a.spine_choice),
                    utility: utility_for(a),
                    remaining_bytes: a.size_bytes as f64,
                    started: a.start,
                });
                next_arrival += 1;
            }
            if active.is_empty() {
                // Jump to the next arrival.
                now = arrivals[order[next_arrival]].start;
                continue;
            }

            // Oracle rates for the current population.
            let rates_bps = self.solve_rates(&active);

            // Time until the first completion at these rates.
            let mut dt_complete = f64::INFINITY;
            for (f, &rate) in active.iter().zip(rates_bps.iter()) {
                let t = f.remaining_bytes * 8.0 / rate.max(1.0);
                dt_complete = dt_complete.min(t);
            }
            // Time until the next arrival.
            let dt_arrival = if next_arrival < order.len() {
                arrivals[order[next_arrival]]
                    .start
                    .duration_since(now)
                    .as_secs_f64()
            } else {
                f64::INFINITY
            };
            let dt = dt_complete.min(dt_arrival).max(0.0);

            // Drain bytes for dt seconds.
            for (f, &rate) in active.iter_mut().zip(rates_bps.iter()) {
                f.remaining_bytes -= rate * dt / 8.0;
            }
            now += SimDuration::from_secs_f64(dt);

            // Retire completed flows.
            let mut i = 0;
            while i < active.len() {
                if active[i].remaining_bytes <= 1e-6 {
                    let f = active.swap_remove(i);
                    let fct = now.duration_since(f.started);
                    let size = arrivals[f.index].size_bytes as f64;
                    completions[f.index] = Some(IdealCompletion {
                        flow: f.index,
                        fct,
                        rate_bps: if fct.is_zero() {
                            f64::INFINITY
                        } else {
                            size * 8.0 / fct.as_secs_f64()
                        },
                    });
                } else {
                    i += 1;
                }
            }
        }
        completions
            .into_iter()
            .map(|c| c.expect("every admitted flow completes in the fluid model"))
            .collect()
    }

    fn solve_rates(&self, active: &[ActiveFlow]) -> Vec<f64> {
        let mut builder = FluidNetworkBuilder::new();
        for f in active {
            builder.add_flow_on(
                f.route
                    .links()
                    .iter()
                    .map(|&l| (l, self.topo.links()[l].capacity_bps / 1e9)),
                f.utility.clone(),
            );
        }
        self.oracle
            .solve(&builder.finish())
            .rates
            .iter()
            .map(|r| r * 1e9)
            .collect()
    }
}

/// The lowest possible FCT for a flow of `size_bytes` on `route` in an
/// otherwise empty network: serialization at the bottleneck plus one base
/// RTT of latency. This is the normalization used for Fig. 7 ("the results
/// are normalized to the lowest possible FCT for each flow given its size").
pub fn empty_network_fct(topo: &Topology, route: &Route, size_bytes: u64) -> SimDuration {
    let bottleneck_bps = route
        .links()
        .iter()
        .map(|&l| topo.links()[l].capacity_bps)
        .fold(f64::INFINITY, f64::min);
    let packets = size_bytes.div_ceil(1460).max(1);
    let wire_bytes = size_bytes + packets * 40;
    let serialization = SimDuration::transmission(wire_bytes, bottleneck_bps);
    let rtt = topo.base_rtt(route, 1500, 40);
    serialization + rtt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{poisson_arrivals, PoissonWorkloadConfig};
    use crate::distributions::EmpiricalCdf;
    use numfabric_num::utility::{FctUtility, LogUtility};
    use numfabric_sim::topology::LeafSpineConfig;
    use std::sync::Arc;

    fn topo() -> Topology {
        Topology::leaf_spine(&LeafSpineConfig::small(8, 2, 2))
    }

    fn arrival(start_us: u64, src: usize, dst: usize, size: u64) -> FlowArrival {
        FlowArrival {
            start: SimTime::from_micros(start_us),
            src,
            dst,
            size_bytes: size,
            spine_choice: 0,
        }
    }

    #[test]
    fn single_flow_ideal_fct_is_size_over_line_rate() {
        let topo = topo();
        let hosts = topo.hosts().to_vec();
        let sim = IdealFluidSimulator::new(&topo);
        // 10 MB at 10 Gbps = 8 ms.
        let arrivals = vec![arrival(0, hosts[0], hosts[4], 10_000_000)];
        let done = sim.run(&arrivals, |_| Arc::new(LogUtility::new()) as UtilityRef);
        assert_eq!(done.len(), 1);
        let fct_ms = done[0].fct.as_secs_f64() * 1e3;
        assert!((fct_ms - 8.0).abs() < 0.05, "fct = {fct_ms} ms");
        assert!((done[0].rate_bps - 10e9).abs() / 10e9 < 0.01);
    }

    #[test]
    fn two_overlapping_flows_share_the_bottleneck_in_the_ideal_model() {
        let topo = topo();
        let hosts = topo.hosts().to_vec();
        let sim = IdealFluidSimulator::new(&topo);
        // Both 5 MB to the same destination, started together: with equal
        // sharing each takes 8 ms (5 MB at 5 Gbps).
        let arrivals = vec![
            arrival(0, hosts[0], hosts[4], 5_000_000),
            arrival(0, hosts[1], hosts[4], 5_000_000),
        ];
        let done = sim.run(&arrivals, |_| Arc::new(LogUtility::new()) as UtilityRef);
        for d in &done {
            let fct_ms = d.fct.as_secs_f64() * 1e3;
            assert!((fct_ms - 8.0).abs() < 0.1, "fct = {fct_ms} ms");
        }
    }

    #[test]
    fn staggered_flows_speed_up_after_the_first_one_leaves() {
        let topo = topo();
        let hosts = topo.hosts().to_vec();
        let sim = IdealFluidSimulator::new(&topo);
        // Flow 0: 1 MB starting at t=0. Flow 1: 2 MB starting at t=0.
        // Sharing until flow 0 finishes (at 1.6 ms), then flow 1 alone.
        let arrivals = vec![
            arrival(0, hosts[0], hosts[4], 1_000_000),
            arrival(0, hosts[1], hosts[4], 2_000_000),
        ];
        let done = sim.run(&arrivals, |_| Arc::new(LogUtility::new()) as UtilityRef);
        let fct0 = done[0].fct.as_secs_f64() * 1e3;
        let fct1 = done[1].fct.as_secs_f64() * 1e3;
        // Flow 0: 1 MB at 5 Gbps = 1.6 ms. Flow 1: 1 MB at 5 Gbps + 1 MB at
        // 10 Gbps = 1.6 + 0.8 = 2.4 ms.
        assert!((fct0 - 1.6).abs() < 0.05, "fct0 = {fct0}");
        assert!((fct1 - 2.4).abs() < 0.05, "fct1 = {fct1}");
    }

    #[test]
    fn disjoint_flows_do_not_interact() {
        let topo = topo();
        let hosts = topo.hosts().to_vec();
        let sim = IdealFluidSimulator::new(&topo);
        let arrivals = vec![
            arrival(0, hosts[0], hosts[4], 2_000_000),
            arrival(0, hosts[1], hosts[5], 2_000_000),
        ];
        let done = sim.run(&arrivals, |_| Arc::new(LogUtility::new()) as UtilityRef);
        for d in &done {
            assert!((d.rate_bps - 10e9).abs() / 10e9 < 0.01, "{d:?}");
        }
    }

    #[test]
    fn unsorted_arrivals_keep_their_own_start_times() {
        let topo = topo();
        let hosts = topo.hosts().to_vec();
        let sim = IdealFluidSimulator::new(&topo);
        // 125 kB at 10 Gbps = 100 µs each, on disjoint paths; the second flow
        // starts first even though it is listed second.
        let arrivals = vec![
            arrival(500, hosts[0], hosts[4], 125_000),
            arrival(0, hosts[1], hosts[5], 125_000),
        ];
        let done = sim.run(&arrivals, |_| Arc::new(LogUtility::new()) as UtilityRef);
        for d in &done {
            let fct_us = d.fct.as_secs_f64() * 1e6;
            assert!((fct_us - 100.0).abs() < 1.0, "{d:?}");
        }
    }

    #[test]
    fn permuting_arrivals_permutes_the_completions_and_nothing_else() {
        let topo = topo();
        let workload = PoissonWorkloadConfig::new(0.8, SimDuration::from_millis(2), 5);
        let mut arrivals = poisson_arrivals(topo.hosts(), &EmpiricalCdf::web_search(), &workload);
        arrivals.truncate(16);
        assert!(arrivals.windows(2).all(|w| w[0].start < w[1].start));
        let utility =
            |a: &FlowArrival| Arc::new(FctUtility::new(a.size_bytes as f64)) as UtilityRef;
        let sim = IdealFluidSimulator::new(&topo);
        let sorted = sim.run(&arrivals, utility);

        // permuted[j] = arrivals[perm[j]]
        let n = arrivals.len();
        let perm: Vec<usize> = (0..n).map(|j| (7 * j + 3) % n).collect();
        let permuted: Vec<FlowArrival> = perm.iter().map(|&i| arrivals[i]).collect();
        let done = sim.run(&permuted, utility);
        for (j, d) in done.iter().enumerate() {
            let want = sorted[perm[j]];
            assert_eq!(d.flow, j);
            assert_eq!(d.fct, want.fct, "flow {j}");
            assert_eq!(d.rate_bps.to_bits(), want.rate_bps.to_bits(), "flow {j}");
        }
    }

    #[test]
    fn empty_network_fct_matches_hand_arithmetic() {
        let topo = topo();
        let hosts = topo.hosts().to_vec();
        let route = topo.host_route(hosts[0], hosts[7], 0);
        // 146 kB = 100 packets: 150 kB wire at 10 Gbps = 120 µs, plus ~16 µs RTT.
        let fct = empty_network_fct(&topo, &route, 146_000);
        assert!(fct >= SimDuration::from_micros(130), "fct = {fct}");
        assert!(fct <= SimDuration::from_micros(145), "fct = {fct}");
    }
}
