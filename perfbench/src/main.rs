//! End-to-end and per-layer benchmark of the Strings simulator.
//!
//! ```text
//! perfbench --workload paper_fig12|cluster_serve|cluster_incident
//!           --seed N --seconds S --trace 0|1 [--spans PATH]
//! ```
//!
//! One client runs whole simulations back to back on one thread (a closed
//! loop of ops) for `--seconds`, checks every op's outputs, and prints a
//! human-readable table followed by one JSON line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics (see
//! README.md). End-to-end numbers come only from untraced runs.

mod host;
mod layers;
mod workload;

use host::{median, quantile, Spans};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{consistent, fnv1a, pinned, OpTimes, Outputs, Spec, Workload, FNV_OFFSET};

/// Traced ops run for the per-layer counts and the tracing overhead.
const TRACED_OPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} wants a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds wants a value in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        spans,
    })
}

/// Seeds one run cycles through, derived from the benchmark seed. A
/// single seed's simulation size varies by tens of percent on
/// `paper_fig12` (60 requests); cycling through several keeps one run's
/// figures from hinging on one draw.
const SUB_SEEDS: u64 = 32;

fn sub_seeds(seed: u64) -> Vec<u64> {
    (0..SUB_SEEDS)
        .map(|i| seed.wrapping_mul(SUB_SEEDS).wrapping_add(i))
        .collect()
}

/// What the closed loop of untraced ops measured.
struct Measured {
    /// Reference outputs per sub-seed: those of its first op (`None` if
    /// every op of that seed panicked). The first seed's is always set.
    refs: Vec<Option<Outputs>>,
    /// (sub-seed index, stage times) of every op that passed its check.
    times: Vec<(usize, OpTimes)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Measured {
    fn first(&self) -> &Outputs {
        self.refs[0]
            .as_ref()
            .expect("the warm-up op sets the first reference")
    }

    /// FNV-1a over the sub-seeds' fingerprints, in order.
    fn fingerprint(&self) -> u64 {
        self.refs.iter().fold(FNV_OFFSET, |h, r| {
            fnv1a(h, &r.map_or(0, |r| r.fingerprint).to_le_bytes())
        })
    }

    /// Mean of `f` over the sub-seeds' outputs.
    fn mean(&self, f: impl Fn(&Outputs) -> f64) -> f64 {
        let outs: Vec<f64> = self.refs.iter().flatten().map(f).collect();
        outs.iter().sum::<f64>() / outs.len() as f64
    }

    /// Quantile `q` of `f` over every checked op.
    fn quantile(&self, q: f64, f: impl Fn(usize, &OpTimes) -> f64) -> f64 {
        let mut xs: Vec<f64> = self.times.iter().map(|(sub, t)| f(*sub, t)).collect();
        quantile(&mut xs, q)
    }

    /// Median ns of `f` over every checked op.
    fn median_ns(&self, f: impl Fn(&OpTimes) -> u64) -> f64 {
        self.quantile(0.5, |_, t| f(t) as f64)
    }
}

/// Ops run round-robin over `seeds` until `seconds` have passed and every
/// seed ran at least once. Each op is checked against the first op of its
/// seed; a panic or a mismatch counts as a failed op and the loop goes on.
fn run_ops(
    spec: &Spec,
    seeds: &[u64],
    seconds: f64,
    spans: &mut Spans,
) -> Result<Measured, String> {
    // The library's own run path must agree with the staged op; the same
    // op doubles as the warm-up that fills caches before timing starts.
    let library = catch_unwind(AssertUnwindSafe(|| spec.library_outputs(seeds[0])))
        .map_err(|_| "the library run path panicked".to_string())?;
    spans.set_op(Some(0));
    let warm = catch_unwind(AssertUnwindSafe(|| spec.op(seeds[0], false, spans)))
        .map_err(|_| "the warm-up op panicked".to_string())?;
    let mut problems = Vec::new();
    if warm.out.core() != library {
        problems.push(format!(
            "staged op {:?} != library run {:?}",
            warm.out.core(),
            library
        ));
    }
    let mut refs: Vec<Option<Outputs>> = vec![None; seeds.len()];
    refs[0] = Some(warm.out);
    let mut times = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || (attempted as usize) < seeds.len() {
        let sub = attempted as usize % seeds.len();
        attempted += 1;
        spans.set_op(Some(attempted));
        match catch_unwind(AssertUnwindSafe(|| spec.op(seeds[sub], false, spans))) {
            Ok(op) => {
                let reference = refs[sub].get_or_insert(op.out);
                if op.out == *reference && consistent(&op.out) {
                    times.push((sub, op.times));
                } else {
                    failed += 1;
                    problems.push(format!(
                        "op {attempted} (seed {}): {:?}, reference {:?}",
                        seeds[sub], op.out, reference
                    ));
                }
            }
            Err(_) => {
                spans.unwind();
                failed += 1;
                problems.push(format!("op {attempted} (seed {}) panicked", seeds[sub]));
            }
        }
    }
    if let Some(i) = refs.iter().position(Option::is_none) {
        problems.push(format!("no op of seed {} completed", seeds[i]));
    }
    Ok(Measured {
        refs,
        times,
        attempted,
        failed,
        problems,
    })
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(m: &Measured) -> Result<Vec<Metric>, String> {
    // Host times are the slow tail of the run's ops, the statistic that
    // holds still on a host whose speed drifts (README.md, "Host noise");
    // set-up is the median. The sim_* model outputs are means over the
    // run's seeds.
    let p90_ns = |f: fn(&OpTimes) -> u64| m.quantile(0.9, |_, t| f(t) as f64);
    let sim_per_host = m.quantile(0.1, |sub, t| {
        m.refs[sub]
            .expect("checked ops have a reference")
            .makespan_ns as f64
            / t.run_ns as f64
    });
    Ok(vec![
        ("op_ms_p90", p90_ns(OpTimes::op_ns) / 1e6, "ms"),
        ("sim_s_per_host_s", sim_per_host, "sim_s/s"),
        ("setup_s", m.median_ns(OpTimes::setup_ns) / 1e9, "s"),
        ("report_s", p90_ns(|t| t.report_ns) / 1e9, "s"),
        (
            "peak_rss_mb",
            host::peak_rss_mb().ok_or("VmHWM is unavailable")?,
            "MB",
        ),
        (
            "sim_makespan_s",
            m.mean(|o| o.makespan_ns as f64 / 1e9),
            "sim_s",
        ),
        (
            "sim_latency_p99_s",
            m.mean(|o| o.latency_p99_ns as f64 / 1e9),
            "sim_s",
        ),
        (
            "sim_good_ratio",
            m.mean(|o| o.completed as f64 / o.offered() as f64),
            "ratio",
        ),
    ])
}

/// Per-layer metrics. Stage times are medians over the untraced ops;
/// counts, sizes and the reconstruction describe the first seed's
/// simulation, which the traced ops rerun.
fn per_layer(
    spec: &Spec,
    seed: u64,
    m: &Measured,
    calib_ms: f64,
    spans: &mut Spans,
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let first = m.first();
    let median_ms = |f: fn(&OpTimes) -> u64| m.median_ns(f) / 1e6;
    let mut first_run_ns: Vec<f64> = m
        .times
        .iter()
        .filter(|(sub, _)| *sub == 0)
        .map(|(_, t)| t.run_ns as f64)
        .collect();
    let first_run_ns = median(&mut first_run_ns);

    let mut traced_run_ns = Vec::new();
    let mut trace_counts = None;
    for i in 0..TRACED_OPS {
        spans.set_op(Some(m.attempted + 1 + i as u64));
        let Ok(op) = catch_unwind(AssertUnwindSafe(|| spec.op(seed, true, spans))) else {
            spans.unwind();
            problems.push(format!("traced op {} panicked", i + 1));
            continue;
        };
        // Tracing may add events (it turns off the idle-epoch fast path)
        // but must not change what the simulated system did.
        let seen = (
            op.out.makespan_ns,
            op.out.completed,
            op.out.shed,
            op.out.failed,
        );
        if seen != (first.makespan_ns, first.completed, first.shed, first.failed) {
            problems.push(format!("traced op differs: {:?} vs {:?}", op.out, first));
        }
        traced_run_ns.push(op.times.run_ns as f64);
        if let Some(trace) = &op.stats.trace {
            trace_counts = Some(layers::TraceCounts::of(trace, op.out.events));
        }
    }
    let traced_rss = host::peak_rss_mb().unwrap_or(f64::NAN);
    // Without a traced op the trace counts stay empty and the overhead
    // reads 0; `correct` is false from the problem recorded above.
    let tc = trace_counts.unwrap_or_else(|| {
        problems.push("no traced op recorded a trace".into());
        layers::TraceCounts::default()
    });
    let overhead_ratio = if traced_run_ns.is_empty() {
        0.0
    } else {
        median(&mut traced_run_ns) / first_run_ns
    };

    let topo = spec.topology();
    let nodes = topo.nodes().len();
    let sizes = layers::Sizes {
        depth: first.peak_live_depth as usize,
        nodes,
        devices_per_node: topo.num_devices() / nodes,
        tenants: spec.tenants(),
        kernels: tc.peak_kernels,
    };
    spans.set_op(None);
    let c = layers::measure(spec, &sizes, spans);
    let recon_ratio = layers::recon_ns(spec, first, &tc, &c) / first_run_ns;

    let mut ops_ms: Vec<f64> = m
        .times
        .iter()
        .map(|(_, t)| t.op_ns() as f64 / 1e6)
        .collect();
    let n = ops_ms.len();
    // The highest percentile with at least ten ops beyond it.
    let tail_pct = if n > 10 {
        100.0 * (n - 10) as f64 / n as f64
    } else {
        0.0
    };
    let tail = quantile(&mut ops_ms, tail_pct / 100.0);
    let part = |i: usize| m.median_ns(|t| t.parts_ns[i]) / 1e6;
    let count = |v: u64| v as f64;
    vec![
        ("host.calib_ms", calib_ms, "ms"),
        ("host.cores", host::cores() as f64, "count"),
        ("workloads.plan_ms", median_ms(|t| t.plan_ns), "ms"),
        ("workloads.requests", count(first.requests), "count"),
        ("harness.world_new_ms", median_ms(|t| t.new_ns), "ms"),
        ("harness.run_ms", median_ms(|t| t.run_ns), "ms"),
        ("harness.events", count(first.events), "count"),
        (
            "harness.ns_per_event",
            first_run_ns / first.events as f64,
            "ns",
        ),
        ("harness.op_ms_p50", median_ms(OpTimes::op_ns), "ms"),
        ("harness.op_ms_tail", tail, "ms"),
        ("harness.op_ms_tail_pct", tail_pct, "%"),
        ("harness.op_samples", n as f64, "count"),
        ("sim_core.event.schedule_pop_ns", c.schedule_pop_ns, "ns"),
        ("sim_core.event.keyed_resched_ns", c.keyed_resched_ns, "ns"),
        (
            "sim_core.event.peak_live_depth",
            count(first.peak_live_depth),
            "count",
        ),
        (
            "sim_core.event.cancelled_wakeups",
            count(first.cancelled_wakeups),
            "count",
        ),
        (
            "sim_core.event.stale_pop_ratio",
            first.stale_pops as f64 / first.events as f64,
            "ratio",
        ),
        ("sim_core.flight.record_ns", c.flight_record_ns, "ns"),
        (
            "sim_core.flight.records",
            count(first.flight_records),
            "count",
        ),
        ("gpu_sim.compute.advance_ns", c.advance_ns, "ns"),
        ("gpu_sim.kernels", count(tc.get("kernel")), "count"),
        (
            "gpu_sim.context_switches",
            count(first.context_switches),
            "count",
        ),
        (
            "cuda_sim.copies",
            count(tc.get("h2d") + tc.get("d2h")),
            "count",
        ),
        ("core.device_sched.epoch_tick_ns", c.epoch_tick_ns, "ns"),
        ("core.device_sched.epochs", count(tc.get("epoch")), "count"),
        ("core.mapper.select_ns", c.select_ns, "ns"),
        ("core.mapper.select_256_ns", c.select_256_ns, "ns"),
        (
            "core.mapper.select_frag_mig8_ns",
            c.select_frag_mig8_ns,
            "ns",
        ),
        (
            "core.mapper.placements",
            count(tc.get("placement")),
            "count",
        ),
        ("core.admission.try_admit_ns", c.try_admit_ns, "ns"),
        ("core.admission.try_admit_slo_ns", c.try_admit_slo_ns, "ns"),
        ("core.admission.shed", count(first.admission_shed), "count"),
        ("core.placement.place_ns", c.place_ns, "ns"),
        ("remoting.gpool.fail_rebuild_us", c.fail_rebuild_us, "us"),
        ("remoting.rpc_timeouts", count(first.rpc_timeouts), "count"),
        ("remoting.rpc_retries", count(first.rpc_retries), "count"),
        ("remoting.failovers", count(first.failovers), "count"),
        (
            "remoting.gmap_rebuilds",
            count(first.gmap_rebuilds),
            "count",
        ),
        ("metrics.slo_report_ms", part(0), "ms"),
        ("metrics.openmetrics_ms", part(1), "ms"),
        ("metrics.attribution_ms", part(2), "ms"),
        ("metrics.forensics_ms", part(3), "ms"),
        ("metrics.alerts_observe_ns", c.alerts_observe_ns, "ns"),
        ("metrics.report_bytes", count(first.report_bytes), "bytes"),
        ("metrics.stage_charges", count(tc.stage_charges), "count"),
        ("layers.recon_ratio", recon_ratio, "ratio"),
        ("trace.overhead_ratio", overhead_ratio, "ratio"),
        ("trace.peak_rss_mb", traced_rss, "MB"),
    ]
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let spec = Spec::new(w);
    let seeds = sub_seeds(args.seed);
    let calib_ms = host::calib_ms();
    // The probe's table is freed by now; the peak resident set reported
    // below must be the workload's alone.
    if let Err(e) = host::reset_peak_rss() {
        eprintln!("perfbench: cannot reset the peak resident set: {e}");
        return ExitCode::from(1);
    }
    println!(
        "perfbench {} seed={} (simulation seeds {}..={}) seconds={} trace={}",
        w.name(),
        args.seed,
        seeds[0],
        seeds[seeds.len() - 1],
        args.seconds,
        args.trace as u8
    );
    println!(
        "host cores={} cpu=\"{}\" host.calib_ms={calib_ms:.3}",
        host::cores(),
        host::cpu_model()
    );
    let mut spans = Spans::new(args.trace);
    // Traced mode spends half its time on the untraced loop and the rest
    // on traced reruns and microbenches.
    let loop_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let m = match run_ops(&spec, &seeds, loop_seconds, &mut spans) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut problems = m.problems.clone();
    let fingerprint = m.fingerprint();
    let pin = pinned(w, args.seed);
    if let Some(p) = pin.filter(|p| *p != fingerprint) {
        problems.push(format!("fingerprint {fingerprint:016x} != pinned {p:016x}"));
    }
    let metrics = if args.trace {
        per_layer(&spec, seeds[0], &m, calib_ms, &mut spans, &mut problems)
    } else {
        match end_to_end(&m) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    };
    if let Some(path) = &args.spans {
        if let Err(e) = spans.write(path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("spans: {} written to {}", spans.len(), path.display());
    }
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: a metric is not finite: {metrics:?}");
        return ExitCode::from(1);
    }

    println!(
        "fingerprint={fingerprint:016x} pinned={}",
        match pin {
            Some(_) => "yes",
            None => "no (seed not pinned)",
        }
    );
    println!(
        "{:>6} {:>16} {:>8} {:>16} {:>9} {:>6} {:>6} {:>12} {:>10} {:>10} {:>6}",
        "seed",
        "fingerprint",
        "events",
        "makespan_ns",
        "completed",
        "shed",
        "failed",
        "goodput_rps",
        "bad_ratio",
        "p99_ns",
        "ops"
    );
    for (sub, (seed, o)) in seeds.iter().zip(&m.refs).enumerate() {
        let Some(o) = o else {
            println!("{seed:>6} every op panicked");
            continue;
        };
        println!(
            "{seed:>6} {:016x} {:>8} {:>16} {:>9} {:>6} {:>6} {:>12.2} {:>10.6} {:>10} {:>6}",
            o.fingerprint,
            o.events,
            o.makespan_ns,
            o.completed,
            o.shed,
            o.failed,
            o.goodput_rps,
            (o.shed + o.failed) as f64 / o.offered() as f64,
            o.latency_p99_ns,
            m.times.iter().filter(|(s, _)| *s == sub).count()
        );
    }
    println!("ops attempted={} failed={}", m.attempted, m.failed);
    for (stage, f) in [
        ("op_ms", OpTimes::op_ns as fn(&OpTimes) -> u64),
        ("run_ms", |t| t.run_ns),
        ("setup_ms", OpTimes::setup_ns),
        ("report_ms", |t| t.report_ns),
    ] {
        let mut xs: Vec<f64> = m.times.iter().map(|(_, t)| f(t) as f64 / 1e6).collect();
        let q: Vec<String> = [0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9]
            .iter()
            .map(|&p| format!("{:.4}", quantile(&mut xs, p)))
            .collect();
        println!("{stage} min/p5/p10/p25/p50/p75/p90: {}", q.join(" "));
    }
    for p in problems.iter().take(10) {
        println!("problem: {p}");
    }
    if problems.len() > 10 {
        println!("problem: ... {} more", problems.len() - 10);
    }
    // End-to-end figures printed for reading only: the JSON carries
    // failures as attempted/failed, the median op time moves with host
    // drift (README.md, "Host noise"), and goodput means little for a
    // fixed-count batch.
    let outside: [Metric; 4] = [
        (
            "op_fail_ratio",
            m.failed as f64 / m.attempted as f64,
            "ratio",
        ),
        ("op_ms_p50", m.median_ns(OpTimes::op_ns) / 1e6, "ms"),
        ("sim_goodput_rps", m.mean(|o| o.goodput_rps), "rps"),
        (
            "sim_bad_ratio",
            m.mean(|o| (o.shed + o.failed) as f64 / o.offered() as f64),
            "ratio",
        ),
    ];
    println!("{:<36} {:>18}  unit", "metric", "value");
    for (name, v, unit) in &metrics {
        println!("{name:<36} {v:>18.6}  {unit}");
    }
    for (name, v, unit) in &outside {
        println!("{name:<36} {v:>18.6}  {unit}  (printed only)");
    }
    let correct = problems.is_empty();
    println!("{}", json(correct, m.attempted, m.failed, &metrics));
    ExitCode::SUCCESS
}
