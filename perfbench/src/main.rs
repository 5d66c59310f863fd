//! `numfabric-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 if an output check fails and 2 on bad arguments.

use numfabric_perfbench::procfs::{cpu_seconds, peak_rss_mb};
use numfabric_perfbench::spans::Recorder;
use numfabric_perfbench::workloads::{
    call_seed, fnv1a, inputs, run_traced, run_untraced, setup, DriverStats, Inputs, Outcome,
    Workload, FNV_BASIS,
};
use std::time::Instant;

/// Fewest simulation calls in a run.
const MIN_CALLS: usize = 3;
/// Set-ups timed before each untraced call; `setup_s` is their median.
const SETUPS_PER_CALL: usize = 5;
/// Host time of one traced input, in untraced calls: the untraced call
/// plus the probed re-drive, and for churn also the two-partition pair.
const TRACE_COST: f64 = 2.6;
const TRACE_COST_CHURN: f64 = 5.4;
/// A run stops starting new calls after this many times `--seconds`.
const DEADLINE_FACTOR: f64 = 3.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: numfabric-perfbench --workload <churn_k8|fct_oracle> \
     [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 40u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let correct = report.errors.is_empty();
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    println!(
        "sim_digest={:016x} calls={} offered={} completed={}",
        report.digest, report.calls, report.offered, report.completed
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[derive(Default)]
struct Report {
    /// Simulation calls made, every variant counted.
    attempted: u64,
    /// Calls whose outputs failed a check.
    failed: u64,
    /// Calls of the workload itself, which the digest and flow totals cover.
    calls: u64,
    offered: u64,
    completed: u64,
    digest: u64,
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn new() -> Self {
        Self {
            digest: FNV_BASIS,
            ..Self::default()
        }
    }

    /// Check one call of the workload and fold it into the run's digest.
    fn record(&mut self, index: usize, seed: u64, o: &Outcome, wall: f64) {
        println!(
            "call={index} seed={seed} wall_s={wall:.4} offered={} completed={} digest={:016x} {}",
            o.offered, o.completed, o.digest, o.stats
        );
        let mut bad = Vec::new();
        if o.completed == 0 {
            bad.push(format!("call {index} (seed {seed}) completed zero flows"));
        }
        if o.completed > o.offered {
            bad.push(format!(
                "call {index} (seed {seed}) completed {} > offered {}",
                o.completed, o.offered
            ));
        }
        self.calls += 1;
        self.offered += o.offered;
        self.completed += o.completed;
        self.digest = fnv1a(&o.digest.to_le_bytes(), self.digest);
        self.check(bad);
    }

    /// Count one call, failed if `bad` holds any error.
    fn check(&mut self, bad: Vec<String>) {
        self.attempted += 1;
        if !bad.is_empty() {
            self.failed += 1;
            self.errors.extend(bad);
        }
    }

    /// Check that `other`, a traced or partitioned variant of call seed
    /// `seed`, reproduced `reference`, and with `events` given as
    /// `(reference, other)`, its event count.
    fn check_same(
        &mut self,
        what: &str,
        seed: u64,
        reference: &Outcome,
        other: &Outcome,
        events: Option<(u64, u64)>,
    ) {
        let mut bad = Vec::new();
        if reference.digest != other.digest {
            bad.push(format!(
                "{what} digest differs for seed {seed}: {:016x} vs {:016x}",
                other.digest, reference.digest
            ));
        }
        if let Some((a, b)) = events.filter(|(a, b)| a != b) {
            bad.push(format!(
                "{what} event count differs for seed {seed}: {b} vs {a}"
            ));
        }
        self.check(bad);
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Number of calls that fill `seconds` when each costs `cost` nominal calls.
fn calls_for(args: &Args, cost: f64) -> usize {
    let n = args.seconds as f64 / (args.workload.nominal_call_s() * cost);
    (n.round() as usize).max(MIN_CALLS)
}

/// True once the run has used its time; it then starts no further call.
fn past_deadline(args: &Args, start: Instant, done: usize) -> bool {
    let late = start.elapsed().as_secs_f64() > DEADLINE_FACTOR * args.seconds as f64;
    if late && done >= MIN_CALLS {
        eprintln!("warning: deadline reached after {done} calls");
        return true;
    }
    false
}

/// The untraced run: calls of the library's own driver, each on its own
/// input and each preceded by timed set-ups, so that set-up samples are
/// spread over the whole run.
fn untraced(args: &Args) -> Report {
    let w = args.workload;
    let mut report = Report::new();
    let calls = calls_for(args, 1.0);
    let start = Instant::now();
    let (mut setups, mut walls, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..calls {
        if past_deadline(args, start, i) {
            break;
        }
        let seed = call_seed(args.seed, i);
        for _ in 0..SETUPS_PER_CALL {
            let t = Instant::now();
            setup(w, seed);
            setups.push(t.elapsed().as_secs_f64());
        }
        let input = inputs(w, seed);
        let (outcome, wall) = run_untraced(&input);
        report.record(i, seed, &outcome, wall);
        walls.push(wall);
        rates.push(outcome.completed as f64 / wall);
    }
    let unfinished = (report.offered - report.completed.min(report.offered)) as f64
        / report.offered.max(1) as f64;
    report.metrics = vec![
        ("wall_s", median(&mut walls), "s"),
        ("flows_per_s", median(&mut rates), "1/s"),
        ("setup_s", median(&mut setups), "s"),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"),
        ("unfinished_frac", unfinished, "ratio"),
    ];
    report
}

/// One untraced call, with the process CPU seconds it used.
fn untraced_with_cpu(input: &Inputs) -> (Outcome, f64, f64) {
    let cpu0 = cpu_seconds().unwrap_or(f64::NAN);
    let (outcome, wall) = run_untraced(input);
    (outcome, wall, cpu_seconds().unwrap_or(f64::NAN) - cpu0)
}

/// Sums over the traced inputs of one variant (one partition, or two).
#[derive(Default)]
struct Variant {
    stats: DriverStats,
    walls: Vec<f64>,
    cpu: f64,
}

/// The traced run: each input is simulated untraced through the library
/// driver and then re-driven with probes and spans; both must agree. For
/// churn, each input is also simulated on two partitions and two threads,
/// untraced and probed, and must give the same results and event count.
fn traced(args: &Args) -> Report {
    let w = args.workload;
    let churn = w.churn_spec();
    let mut report = Report::new();
    let calls = calls_for(
        args,
        if churn.is_some() {
            TRACE_COST_CHURN
        } else {
            TRACE_COST
        },
    );
    let mut rec = Recorder::new();
    let (mut one, mut two) = (Variant::default(), Variant::default());
    let start = Instant::now();
    for i in 0..calls {
        if past_deadline(args, start, i) {
            break;
        }
        let seed = call_seed(args.seed, i);
        let input = inputs(w, seed);
        let (plain, wall, cpu) = untraced_with_cpu(&input);
        report.record(i, seed, &plain, wall);
        one.walls.push(wall);
        one.cpu += cpu;
        let (probed, stats) = run_traced(&input, true, &mut rec);
        println!(
            "traced call={i} digest={:016x} events={} queue_drops={}",
            probed.digest,
            stats.events,
            stats.totals().queue_drops
        );
        report.check_same("traced", seed, &plain, &probed, None);
        one.stats += &stats;

        if let Some(spec) = churn {
            let input2 = Inputs::Churn(spec.par2(), seed);
            let (plain2, wall2, cpu2) = untraced_with_cpu(&input2);
            report.check_same("2-partition", seed, &plain, &plain2, None);
            two.walls.push(wall2);
            two.cpu += cpu2;
            let (probed2, stats2) = run_traced(&input2, true, &mut Recorder::new());
            println!(
                "2-partition call={i} wall_s={wall2:.4} digest={:016x} events={}",
                plain2.digest, stats2.events
            );
            report.check_same(
                "2-partition traced",
                seed,
                &probed,
                &probed2,
                Some((stats.events, stats2.events)),
            );
            two.stats += &stats2;
        }
    }
    write_spans(w, args.seed, &rec);

    let n = one.walls.len() as f64;
    let (s, t) = (&one.stats, one.stats.totals());
    let secs = |ns: u64| ns as f64 / 1e9 / n;
    let per = |count: u64| count as f64 / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let wall_one: f64 = one.walls.iter().sum();
    let wall_two: f64 = two.walls.iter().sum();
    let call_ns = rec.total_ns("call") as f64;
    report.metrics = vec![
        ("sim.run_until.self_s", s.run_until_self_ns() / 1e9 / n, "s"),
        ("sim.events", per(s.events), "count"),
        (
            "sim.ns_per_event",
            ratio(s.run_until_self_ns(), s.events as f64),
            "ns",
        ),
        ("sim.run_until.calls", per(s.run_until_calls), "count"),
        ("sim.queue.enqueues", per(t.queue_enqueues), "count"),
        ("sim.queue.dequeues", per(t.queue_dequeues), "count"),
        ("sim.queue.drops", per(t.queue_drops), "count"),
        ("sim.queue.busy_s", secs(t.queue_ns), "s"),
        (
            "sim.queue.ns_per_op",
            ratio(
                t.queue_ns as f64,
                (t.queue_enqueues + t.queue_dequeues) as f64,
            ),
            "ns",
        ),
        ("core.xwi.calls", per(t.xwi_calls), "count"),
        ("core.xwi.busy_s", secs(t.xwi_ns), "s"),
        ("agent.calls", per(t.agent_calls), "count"),
        ("agent.busy_s", secs(t.agent_ns), "s"),
        (
            "agent.ns_per_call",
            ratio(t.agent_ns as f64, t.agent_calls as f64),
            "ns",
        ),
        ("sim.add_flow.calls", per(s.add_flow_calls), "count"),
        ("sim.add_flow.busy_s", secs(s.add_flow_ns), "s"),
        ("sim.topology.host_route.busy_s", secs(s.host_route_ns), "s"),
        (
            "workloads.ideal.empty_fct_busy_s",
            secs(s.empty_fct_ns),
            "s",
        ),
        ("workloads.churn.next_busy_s", secs(s.churn_next_ns), "s"),
        ("sim.retire.attempts", per(s.retire_attempts), "count"),
        (
            "sim.retire.ok_ratio",
            ratio(s.retire_ok as f64, s.retire_attempts as f64),
            "ratio",
        ),
        ("sim.flow_slots", per(s.flow_slots), "count"),
        ("bench.report.record.calls", per(s.record_calls), "count"),
        ("bench.report.record.busy_s", secs(s.record_ns), "s"),
        ("workloads.ideal.fluid_busy_s", secs(s.fluid_ns), "s"),
        ("num.utility.evals", per(t.utility_evals), "count"),
        ("proc.cpu_s", one.cpu / n, "s"),
        ("proc.cpu_util", ratio(one.cpu, wall_one), "ratio"),
        ("par2.wall_s", median(&mut two.walls), "s"),
        ("par2.speedup", ratio(wall_one, wall_two), "ratio"),
        ("par2.cpu_util", ratio(two.cpu, wall_two), "ratio"),
        (
            "par2.run_until.self_s",
            two.stats.run_until_self_ns() / 1e9 / n,
            "s",
        ),
        ("trace.overhead", ratio(call_ns / 1e9, wall_one), "ratio"),
        (
            "trace.coverage",
            ratio(rec.children_ns("call") as f64, call_ns),
            "ratio",
        ),
    ];
    report
}

/// Write the recorded spans to `out/trace-<workload>-<seed>.json` in this
/// package's directory.
fn write_spans(w: Workload, seed: u64, rec: &Recorder) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}-{seed}.json", w.name());
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, rec.to_json()));
    match written {
        Ok(()) => eprintln!("spans written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}
