//! The probes and the step-by-step re-drive must leave the simulation
//! unchanged, and the seed must reach the generators.

use numfabric_perfbench::probe::Totals;
use numfabric_perfbench::spans::Recorder;
use numfabric_perfbench::workloads::{
    call_seed, inputs, run_traced, run_untraced, ChurnSpec, Inputs, Workload,
};
use std::sync::Mutex;

/// Probe counters are merged over every thread of the process, so tests
/// that read them must not overlap.
static PROBES: Mutex<()> = Mutex::new(());

const K4: ChurnSpec = ChurnSpec {
    topology: "fat-tree:k=4",
    window_ms: 2,
    drain_ms: 3,
    partitions: 1,
    threads: 1,
};

#[test]
fn probed_churn_matches_plain_and_library_runs() {
    let _guard = PROBES.lock().unwrap_or_else(|e| e.into_inner());
    let input = Inputs::Churn(K4, 5);
    let (library, _) = run_untraced(&input);
    let (plain, plain_stats) = run_traced(&input, false, &mut Recorder::new());
    let (probed, probed_stats) = run_traced(&input, true, &mut Recorder::new());
    assert!(library.completed > 0, "no flow completed");
    assert_eq!(
        library.digest, plain.digest,
        "re-drive differs from run_churn"
    );
    assert_eq!(plain.digest, probed.digest, "probes changed the results");
    assert!(plain_stats.events > 0);
    assert_eq!(plain_stats.events, probed_stats.events);
    let t = probed_stats.totals();
    assert!(t.queue_enqueues > 0 && t.queue_dequeues > 0);
    assert!(t.xwi_calls > 0 && t.agent_calls > 0);
    assert_eq!(
        plain_stats.totals(),
        Totals::default(),
        "plain run was probed"
    );
}

#[test]
fn two_partitions_give_the_same_results_and_counts() {
    let _guard = PROBES.lock().unwrap_or_else(|e| e.into_inner());
    let one = Inputs::Churn(K4, 9);
    let two = Inputs::Churn(K4.par2(), 9);
    let (o1, s1) = run_traced(&one, true, &mut Recorder::new());
    let (o2, s2) = run_traced(&two, true, &mut Recorder::new());
    assert_eq!(o1.digest, o2.digest);
    assert_eq!(s1.events, s2.events);
    // Counts made on the partition worker threads are all merged.
    let (t1, t2) = (s1.totals(), s2.totals());
    assert_eq!(t1.queue_enqueues, t2.queue_enqueues);
    assert_eq!(t1.queue_dequeues, t2.queue_dequeues);
    assert_eq!(t1.xwi_calls, t2.xwi_calls);
    assert_eq!(t1.agent_calls, t2.agent_calls);
}

#[test]
fn seeds_reach_the_generators() {
    let (a, _) = run_untraced(&Inputs::Churn(K4, call_seed(1, 0)));
    let (b, _) = run_untraced(&Inputs::Churn(K4, call_seed(2, 0)));
    let (a2, _) = run_untraced(&Inputs::Churn(K4, call_seed(1, 0)));
    assert_ne!(a.digest, b.digest, "two seeds gave the same churn results");
    assert_eq!(a.digest, a2.digest, "one seed gave two churn results");

    let arrivals = |seed| match inputs(Workload::FctOracle, seed) {
        Inputs::Dynamic(_, arrivals) => arrivals,
        Inputs::Churn(..) => unreachable!("fct_oracle is a dynamic run"),
    };
    let (x, y) = (arrivals(call_seed(1, 0)), arrivals(call_seed(2, 0)));
    assert_eq!(x.len(), 100);
    assert_ne!(x, y, "two seeds gave the same oracle input");
    assert_eq!(x, arrivals(call_seed(1, 0)));
    // Both inputs offer the same size mix.
    let sizes = |v: &[numfabric_workloads::FlowArrival]| {
        let mut s: Vec<u64> = v.iter().map(|a| a.size_bytes).collect();
        s.sort_unstable();
        s
    };
    assert_eq!(sizes(&x), sizes(&y));
}
