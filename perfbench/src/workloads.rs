//! The benchmark's workloads, each driven two ways:
//!
//! * **untraced** — through the library's own drivers (`run_churn`,
//!   `run_dynamic`), so the timing is what users of the repository run;
//! * **traced** — re-driven step by step through the same public calls
//!   those drivers make, with probed queues, controllers, agents and
//!   utilities and a span around every driver-level step.
//!
//! Both ways must give the same `sim_digest`, which shows the re-drive and
//! the probes leave the simulation unchanged.

use crate::probe::{self, CountingUtility, ProbedAgent, ProbedController, ProbedQueue, Totals};
use crate::spans::Recorder;
use numfabric_baselines::{pfabric_network, PfabricAgent, PfabricConfig};
use numfabric_bench::protocols::Protocol;
use numfabric_bench::report::{churn_report_json, ChurnSummary, ClassStats, QuantileSketch};
use numfabric_bench::{generate_arrivals, run_churn, run_dynamic, ChurnRun, DynamicFlowResult};
use numfabric_bench::{DynamicRun, Objective};
use numfabric_core::{numfabric_network, NumFabricAgent, NumFabricConfig, XwiPriceController};
use numfabric_num::utility::{LogUtility, UtilityRef};
use numfabric_sim::topology::Topology;
use numfabric_sim::{FlowAgent, FlowId, Network, PfabricQueue, SimDuration, SimTime, StfqQueue};
use numfabric_workloads::churn::{foreground_background, ChurnConfig, ChurnStream};
use numfabric_workloads::distributions::{EmpiricalCdf, FlowSizeDistribution};
use numfabric_workloads::ideal::{empty_network_fct, IdealFluidSimulator};
use numfabric_workloads::{derive_cell_seed, FlowArrival};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Mirrors the library churn driver's injection batch cap.
const ARRIVAL_BATCH: usize = 256;
/// Mirrors the library churn driver's harvest slice.
const HARVEST_SLICE: SimDuration = SimDuration::from_millis(2);

/// A churn configuration: NUMFabric with default parameters at load 0.6
/// with a 25 % web-search foreground share, as `numfabric-run churn` runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSpec {
    /// Fabric, as `--topology` spells it.
    pub topology: &'static str,
    /// Arrival window in milliseconds.
    pub window_ms: u64,
    /// Drain after the window in milliseconds.
    pub drain_ms: u64,
    /// Partitions of the network.
    pub partitions: usize,
    /// Threads the partitions run on.
    pub threads: usize,
}

const CHURN_LOAD: f64 = 0.6;
const CHURN_FG_SHARE: f64 = 0.25;

impl ChurnSpec {
    /// The `churn_k8` configuration.
    pub const K8: ChurnSpec = ChurnSpec {
        topology: "fat-tree:k=8",
        window_ms: 20,
        drain_ms: 5,
        partitions: 1,
        threads: 1,
    };

    /// The same churn on two partitions and two threads. Its results must
    /// be bit-identical; its cost is the partition layer's.
    pub fn par2(self) -> ChurnSpec {
        ChurnSpec {
            partitions: 2,
            threads: 2,
            ..self
        }
    }

    fn run(&self, seed: u64) -> ChurnRun {
        ChurnRun {
            topology: self.topology.parse().expect("valid topology spec"),
            load: CHURN_LOAD,
            fg_share: CHURN_FG_SHARE,
            arrival_window: SimDuration::from_millis(self.window_ms),
            drain: SimDuration::from_millis(self.drain_ms),
            seed,
        }
    }
}

/// Flows per `fct_oracle` call.
const FCT_FLOWS: usize = 100;
/// Arrival window the `fct_oracle` trace is drawn from; long enough that it
/// holds [`FCT_FLOWS`] arrivals for any seed (about 150 are expected).
const FCT_GEN_WINDOW: SimDuration = SimDuration::from_millis(8);
/// Drain after the last `fct_oracle` arrival: short enough that about one
/// flow in eight, the largest, is still running at the horizon.
const FCT_DRAIN: SimDuration = SimDuration::from_millis(2);
const FCT_LOAD: f64 = 0.8;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// NUMFabric churn on `fat-tree:k=8`, one partition. Its traced run
    /// also simulates every input on two partitions and two threads.
    ChurnK8,
    /// pFabric dynamic run plus the ideal fluid NUM oracle.
    FctOracle,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::ChurnK8, Workload::FctOracle];

    /// Resolve a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnK8 => "churn_k8",
            Workload::FctOracle => "fct_oracle",
        }
    }

    /// Host seconds of one untraced simulation call on the reference
    /// machine (2-core x86-64 VM); sets how many calls fill a run.
    pub fn nominal_call_s(self) -> f64 {
        match self {
            Workload::ChurnK8 => 1.6,
            Workload::FctOracle => 2.6,
        }
    }

    /// The churn configuration of a churn workload.
    pub fn churn_spec(self) -> Option<ChurnSpec> {
        match self {
            Workload::ChurnK8 => Some(ChurnSpec::K8),
            Workload::FctOracle => None,
        }
    }
}

/// The seed of simulation call `index` of a run with seed `seed`. Each call
/// of a run simulates a different input, so a run's figures average over
/// many arrival traces rather than repeating one.
pub fn call_seed(seed: u64, index: usize) -> u64 {
    derive_cell_seed(seed, index as u64)
}

/// What one simulation call produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Flows offered by the arrival trace.
    pub offered: u64,
    /// Flows completed by the horizon.
    pub completed: u64,
    /// FNV-1a digest of the simulated results.
    pub digest: u64,
    /// Simulated statistics, human-readable.
    pub stats: String,
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn churn_outcome(spec: &ChurnSpec, seed: u64, summary: &ChurnSummary) -> Outcome {
    let report = churn_report_json(
        spec.topology,
        "NUMFabric",
        CHURN_LOAD,
        spec.window_ms,
        seed,
        summary,
    )
    .render();
    let (fct, slowdown) = summary.overall();
    let q = |s: &QuantileSketch, p: f64| s.quantile(p).unwrap_or(f64::NAN);
    Outcome {
        offered: summary.offered,
        completed: summary.completed,
        digest: fnv1a(report.as_bytes(), FNV_BASIS),
        stats: format!(
            "fct_p50_ms={:.4} fct_p99_ms={:.4} slowdown_p50={:.3} slowdown_p99={:.3}",
            q(&fct, 0.5) * 1e3,
            q(&fct, 0.99) * 1e3,
            q(&slowdown, 0.5),
            q(&slowdown, 0.99)
        ),
    }
}

fn dynamic_outcome(results: &[DynamicFlowResult]) -> Outcome {
    let mut digest = FNV_BASIS;
    for r in results {
        let fct = r.fct.map_or(u64::MAX, SimDuration::as_nanos);
        for v in [
            r.size_bytes,
            fct,
            r.ideal_fct.as_nanos(),
            r.empty_fct.as_nanos(),
        ] {
            digest = fnv1a(&v.to_le_bytes(), digest);
        }
    }
    let mut normalized: Vec<f64> = results.iter().filter_map(|r| r.normalized_fct()).collect();
    normalized.sort_by(f64::total_cmp);
    let mean = normalized.iter().sum::<f64>() / normalized.len().max(1) as f64;
    let rank = |p: f64| {
        let i = ((p * normalized.len() as f64).ceil() as usize).clamp(1, normalized.len().max(1));
        normalized.get(i - 1).copied().unwrap_or(f64::NAN)
    };
    Outcome {
        offered: results.len() as u64,
        completed: normalized.len() as u64,
        digest,
        stats: format!(
            "norm_fct_mean={mean:.4} norm_fct_p50={:.4} norm_fct_p99={:.4}",
            rank(0.5),
            rank(0.99)
        ),
    }
}

/// The `fct_oracle` input of `seed`: [`FCT_FLOWS`] web-search flows at
/// load 0.8, sampled by Latin hypercube. Endpoints and spine pins are the
/// first arrivals `generate_arrivals` draws; sizes are the web-search CDF
/// at the quantiles `(i + 0.5) / n`, and the gaps between starts are the
/// exponential distribution of the Poisson process at the same quantiles,
/// each set in its own seed-driven order. Every call thus offers the same
/// sizes and gaps, and the seed decides which flow gets which, and where.
/// With plain Poisson draws the few largest and most crowded flows of a
/// trace set most of its cost, which then varies about fivefold between
/// seeds.
fn dynamic_inputs(seed: u64) -> (DynamicRun, Vec<FlowArrival>) {
    let mut run = DynamicRun::reduced(FCT_LOAD, seed);
    run.arrival_window = FCT_GEN_WINDOW;
    let cdf = EmpiricalCdf::web_search();
    let mut arrivals = generate_arrivals(&run, &cdf);
    arrivals.truncate(FCT_FLOWS);
    let n = arrivals.len();
    let hosts = Topology::leaf_spine(&run.topology).hosts().len();
    // The arrival rate `generate_arrivals` uses.
    let lambda = run.load * run.topology.host_link_bps * hosts as f64 / (8.0 * cdf.mean_bytes());
    let quantile = |rank: usize| (rank as f64 + 0.5) / n as f64;
    let mut t = 0.0;
    for (a, (size_rank, gap_rank)) in arrivals.iter_mut().zip(
        shuffled_ranks(n, seed, 0)
            .into_iter()
            .zip(shuffled_ranks(n, seed, 1)),
    ) {
        a.size_bytes = (cdf.quantile(quantile(size_rank)) as u64).max(1);
        t += -(1.0 - quantile(gap_rank)).ln() / lambda;
        a.start = SimTime::from_secs_f64(t);
    }
    run.arrival_window = SimDuration::from_secs_f64(t);
    run.drain = FCT_DRAIN;
    (run, arrivals)
}

/// `0..n` in a Fisher-Yates order driven by `(seed, stream)`.
fn shuffled_ranks(n: usize, seed: u64, stream: u64) -> Vec<usize> {
    let key = derive_cell_seed(seed, stream);
    let mut ranks: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (derive_cell_seed(key, i as u64) % (i as u64 + 1)) as usize;
        ranks.swap(i, j);
    }
    ranks
}

/// Build the topology and network and generate the inputs of one call —
/// the set-up a user pays before simulating. Returns nothing; the work is
/// kept alive through [`black_box`].
pub fn setup(workload: Workload, seed: u64) {
    match workload.churn_spec() {
        Some(spec) => {
            let run = spec.run(seed);
            let topo = run.topology.build(false);
            let mut net = numfabric_network(topo.clone(), &NumFabricConfig::default());
            net.set_partitions(spec.partitions);
            net.set_partition_threads(spec.threads);
            let mix = foreground_background(run.fg_share);
            let config = churn_config(&run, &topo);
            let trace: Vec<_> = ChurnStream::new(topo.hosts(), &mix, &config).collect();
            black_box((net, trace));
        }
        None => {
            let (run, arrivals) = dynamic_inputs(seed);
            let topo = Topology::leaf_spine(&run.topology);
            let net = pfabric_network(topo, &PfabricConfig::default());
            black_box((net, arrivals));
        }
    }
}

fn churn_config(run: &ChurnRun, topo: &Topology) -> ChurnConfig {
    ChurnConfig {
        load: run.load,
        duration: run.arrival_window,
        seed: run.seed,
        num_spines: topo.spines().len().max(1),
        host_link_bps: topo.links()[0].capacity_bps,
    }
}

/// The input of one simulation call.
pub enum Inputs {
    /// A churn run; the driver draws its arrivals from the seed itself.
    Churn(ChurnSpec, u64),
    /// A pFabric dynamic run over pre-generated arrivals.
    Dynamic(DynamicRun, Vec<FlowArrival>),
}

/// Generate the input of `workload` for call seed `seed`.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    match workload.churn_spec() {
        Some(spec) => Inputs::Churn(spec, seed),
        None => {
            let (run, arrivals) = dynamic_inputs(seed);
            Inputs::Dynamic(run, arrivals)
        }
    }
}

/// One untraced simulation call through the library's own driver. Returns
/// the outcome and the call's host seconds.
pub fn run_untraced(inputs: &Inputs) -> (Outcome, f64) {
    match inputs {
        Inputs::Churn(spec, seed) => {
            let protocol = Protocol::NumFabric(NumFabricConfig::default());
            let run = spec.run(*seed);
            let start = Instant::now();
            let summary = run_churn(&protocol, &run, spec.partitions, spec.threads);
            let wall = start.elapsed().as_secs_f64();
            (churn_outcome(spec, *seed, &summary), wall)
        }
        Inputs::Dynamic(run, arrivals) => {
            let protocol = Protocol::Pfabric(PfabricConfig::default());
            let start = Instant::now();
            let results = run_dynamic(&protocol, run, arrivals, Objective::FctMinimization);
            let wall = start.elapsed().as_secs_f64();
            (dynamic_outcome(&results), wall)
        }
    }
}

/// Driver-level counts and busy times of one traced call (the probe
/// counters of the hot layers are in [`Totals`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverStats {
    /// Events the network processed.
    pub events: u64,
    /// `Network::run_until` calls.
    pub run_until_calls: u64,
    /// Nanoseconds inside `Network::run_until`.
    pub run_until_ns: u64,
    /// `Network::add_flow` calls.
    pub add_flow_calls: u64,
    /// Nanoseconds inside `Network::add_flow`.
    pub add_flow_ns: u64,
    /// Nanoseconds inside `Topology::host_route`.
    pub host_route_ns: u64,
    /// Nanoseconds inside `empty_network_fct`.
    pub empty_fct_ns: u64,
    /// Nanoseconds drawing arrivals from the churn stream.
    pub churn_next_ns: u64,
    /// `Network::try_retire_flow` calls.
    pub retire_attempts: u64,
    /// Successful retirements.
    pub retire_ok: u64,
    /// Flow slots the network allocated (slab high-water mark).
    pub flow_slots: u64,
    /// `ClassStats::record` calls.
    pub record_calls: u64,
    /// Nanoseconds inside `ClassStats::record`.
    pub record_ns: u64,
    /// Nanoseconds inside `IdealFluidSimulator::run`.
    pub fluid_ns: u64,
    /// Probe counters of work done inside `run_until`.
    pub inside: Totals,
    /// Probe counters of work done outside `run_until`.
    pub outside: Totals,
}

impl std::ops::AddAssign<&DriverStats> for DriverStats {
    fn add_assign(&mut self, o: &DriverStats) {
        self.events += o.events;
        self.run_until_calls += o.run_until_calls;
        self.run_until_ns += o.run_until_ns;
        self.add_flow_calls += o.add_flow_calls;
        self.add_flow_ns += o.add_flow_ns;
        self.host_route_ns += o.host_route_ns;
        self.empty_fct_ns += o.empty_fct_ns;
        self.churn_next_ns += o.churn_next_ns;
        self.retire_attempts += o.retire_attempts;
        self.retire_ok += o.retire_ok;
        self.flow_slots += o.flow_slots;
        self.record_calls += o.record_calls;
        self.record_ns += o.record_ns;
        self.fluid_ns += o.fluid_ns;
        self.inside += o.inside;
        self.outside += o.outside;
    }
}

impl DriverStats {
    /// `run_until` time minus the exclusive time of the probed layers
    /// inside it, in nanoseconds.
    pub fn run_until_self_ns(&self) -> f64 {
        self.run_until_ns as f64 - self.inside.outermost_ns as f64
    }

    /// The probe counters inside and outside `run_until` together.
    pub fn totals(&self) -> Totals {
        let mut t = self.inside;
        t += self.outside;
        t
    }
}

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// One traced simulation call: re-drive `inputs` with probes on (or, with
/// `probed` false, with plain components — the reference the probes are
/// checked against). Spans go to `rec` under a `call` span.
pub fn run_traced(inputs: &Inputs, probed: bool, rec: &mut Recorder) -> (Outcome, DriverStats) {
    // Probed work left over from earlier code must not be charged here.
    probe::take_totals();
    let mut stats = DriverStats::default();
    let call = rec.open("call", None);
    let outcome = match inputs {
        Inputs::Churn(spec, seed) => drive_churn(spec, *seed, probed, rec, call, &mut stats),
        Inputs::Dynamic(run, arrivals) => {
            drive_dynamic(run, arrivals, probed, rec, call, &mut stats)
        }
    };
    rec.close(call);
    stats.outside += probe::take_totals();
    (outcome, stats)
}

/// `Network::run_until` inside a span, with the probe counters split into
/// work inside and outside the call.
fn run_until(
    net: &mut Network,
    until: SimTime,
    rec: &mut Recorder,
    parent: usize,
    s: &mut DriverStats,
) {
    s.outside += probe::take_totals();
    let ns = {
        let id = rec.open("sim.run_until", Some(parent));
        net.run_until(until);
        rec.close(id)
    };
    s.inside += probe::take_totals();
    s.run_until_calls += 1;
    s.run_until_ns += ns;
}

struct LiveFlow {
    id: FlowId,
    class: usize,
    size_bytes: u64,
    empty_fct: SimDuration,
}

/// The churn driver's loop, step by step (mirrors `run_churn`).
fn drive_churn(
    spec: &ChurnSpec,
    seed: u64,
    probed: bool,
    rec: &mut Recorder,
    call: usize,
    s: &mut DriverStats,
) -> Outcome {
    let run = spec.run(seed);
    let setup = rec.open("setup", Some(call));
    let topo = run.topology.build(false);
    let hosts = topo.hosts().to_vec();
    let mix = foreground_background(run.fg_share);
    let config = churn_config(&run, &topo);
    let nf = NumFabricConfig::default();
    let utility: UtilityRef = Arc::new(LogUtility::new());
    let mut net = if probed {
        let mut net = Network::new(topo.clone(), |_| {
            Box::new(ProbedQueue(StfqQueue::with_default_buffer()))
        });
        net.set_all_link_controllers(|_, capacity_bps| {
            Box::new(ProbedController(XwiPriceController::new(&nf, capacity_bps)))
        });
        net
    } else {
        numfabric_network(topo.clone(), &nf)
    };
    net.set_partitions(spec.partitions);
    net.set_partition_threads(spec.threads);
    net.set_impairment_seed(run.seed);
    let mut classes: Vec<ClassStats> = mix.iter().map(|c| ClassStats::new(c.name)).collect();
    let mut live: Vec<LiveFlow> = Vec::new();
    let mut stream = ChurnStream::new(&hosts, &mix, &config).peekable();
    rec.close(setup);

    let mut offered = 0u64;
    let mut peak_concurrent = 0usize;
    loop {
        let inject = rec.open("inject", Some(call));
        let t = Instant::now();
        let first = stream.peek().map(|a| a.arrival.start);
        s.churn_next_ns += ns_since(t);
        let Some(first) = first else {
            rec.close(inject);
            break;
        };
        let slice_end = first + HARVEST_SLICE;
        let mut batch_end = first;
        let mut injected = 0usize;
        while injected < ARRIVAL_BATCH {
            let t = Instant::now();
            let next = match stream.peek() {
                Some(head) if injected == 0 || head.arrival.start < slice_end => stream.next(),
                _ => None,
            };
            s.churn_next_ns += ns_since(t);
            let Some(a) = next else { break };
            let t = Instant::now();
            let route = topo.host_route(a.arrival.src, a.arrival.dst, a.arrival.spine_choice);
            s.host_route_ns += ns_since(t);
            let t = Instant::now();
            let empty_fct = empty_network_fct(&topo, &route, a.arrival.size_bytes);
            s.empty_fct_ns += ns_since(t);
            let agent = NumFabricAgent::with_utility_ref(nf.clone(), utility.clone());
            let agent: Box<dyn FlowAgent> = if probed {
                Box::new(ProbedAgent(Box::new(agent)))
            } else {
                Box::new(agent)
            };
            let t = Instant::now();
            let id = net.add_flow(
                a.arrival.src,
                a.arrival.dst,
                Some(a.arrival.size_bytes),
                a.arrival.start,
                a.arrival.spine_choice,
                None,
                agent,
            );
            s.add_flow_ns += ns_since(t);
            s.add_flow_calls += 1;
            live.push(LiveFlow {
                id,
                class: a.class,
                size_bytes: a.arrival.size_bytes,
                empty_fct,
            });
            batch_end = a.arrival.start;
            offered += 1;
            injected += 1;
        }
        peak_concurrent = peak_concurrent.max(live.len());
        rec.close(inject);
        run_until(&mut net, batch_end, rec, call, s);
        rec.span("harvest", call, || {
            harvest(&mut net, &mut live, &mut classes, s)
        });
    }
    run_until(
        &mut net,
        SimTime::ZERO + run.arrival_window + run.drain,
        rec,
        call,
        s,
    );
    rec.span("harvest", call, || {
        harvest(&mut net, &mut live, &mut classes, s)
    });

    s.events = net.events_processed();
    s.flow_slots = net.num_flows() as u64;
    let summary = ChurnSummary {
        offered,
        completed: classes.iter().map(|c| c.flows).sum(),
        peak_concurrent,
        flow_slots: net.num_flows(),
        classes,
    };
    churn_outcome(spec, seed, &summary)
}

/// The churn driver's harvest pass (mirrors the library's), counted.
fn harvest(
    net: &mut Network,
    live: &mut Vec<LiveFlow>,
    classes: &mut [ClassStats],
    s: &mut DriverStats,
) {
    live.retain(|flow| {
        let Some(fct) = net.flow_stats(flow.id).fct() else {
            return true;
        };
        s.retire_attempts += 1;
        if !net.try_retire_flow(flow.id) {
            return true;
        }
        s.retire_ok += 1;
        let fct_secs = fct.as_secs_f64();
        let slowdown = fct_secs / flow.empty_fct.as_secs_f64().max(1e-12);
        let t = Instant::now();
        classes[flow.class].record(flow.size_bytes, fct_secs, slowdown);
        s.record_ns += ns_since(t);
        s.record_calls += 1;
        false
    });
}

/// The dynamic driver, step by step (mirrors `run_dynamic` with pFabric and
/// FCT minimization).
fn drive_dynamic(
    run: &DynamicRun,
    arrivals: &[FlowArrival],
    probed: bool,
    rec: &mut Recorder,
    call: usize,
    s: &mut DriverStats,
) -> Outcome {
    let objective = Objective::FctMinimization;
    let cfg = PfabricConfig::default();
    let setup = rec.open("setup", Some(call));
    let topo = Topology::leaf_spine(&run.topology);
    let mut net = if probed {
        let buffer = cfg.buffer_bytes;
        Network::new(topo.clone(), move |_| {
            Box::new(ProbedQueue(PfabricQueue::new(buffer)))
        })
    } else {
        pfabric_network(topo.clone(), &cfg)
    };
    rec.close(setup);

    let inject = rec.open("inject", Some(call));
    let mut flow_ids = Vec::with_capacity(arrivals.len());
    for a in arrivals {
        let agent = PfabricAgent::new(cfg.clone());
        let agent: Box<dyn FlowAgent> = if probed {
            Box::new(ProbedAgent(Box::new(agent)))
        } else {
            Box::new(agent)
        };
        let t = Instant::now();
        let id = net.add_flow(
            a.src,
            a.dst,
            Some(a.size_bytes),
            a.start,
            a.spine_choice,
            None,
            agent,
        );
        s.add_flow_ns += ns_since(t);
        s.add_flow_calls += 1;
        flow_ids.push(id);
    }
    rec.close(inject);
    run_until(
        &mut net,
        SimTime::ZERO + run.arrival_window + run.drain,
        rec,
        call,
        s,
    );

    let fluid = rec.open("workloads.ideal.fluid", Some(call));
    let ideal = IdealFluidSimulator::new(&topo).run(arrivals, |a| {
        let utility = objective.utility_for(a.size_bytes);
        if probed {
            CountingUtility::wrap(utility)
        } else {
            utility
        }
    });
    s.fluid_ns += rec.close(fluid);

    let results_span = rec.open("results", Some(call));
    let results: Vec<DynamicFlowResult> = arrivals
        .iter()
        .zip(flow_ids)
        .zip(ideal)
        .map(|((a, id), ideal)| {
            let t = Instant::now();
            let route = topo.host_route(a.src, a.dst, a.spine_choice);
            s.host_route_ns += ns_since(t);
            let t = Instant::now();
            let empty_fct = empty_network_fct(&topo, &route, a.size_bytes);
            s.empty_fct_ns += ns_since(t);
            DynamicFlowResult {
                size_bytes: a.size_bytes,
                fct: net.flow_stats(id).fct(),
                ideal_fct: ideal.fct,
                empty_fct,
            }
        })
        .collect();
    rec.close(results_span);
    s.events = net.events_processed();
    s.flow_slots = net.num_flows() as u64;
    dynamic_outcome(&results)
}
