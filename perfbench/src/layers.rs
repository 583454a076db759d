//! Traced mode: per-layer costs timed from outside, per-layer work counted
//! from the simulator's own trace, and the reconstruction of the run from
//! the two.
//!
//! Each microbench calls one layer's public functions at the size the
//! workload reaches (queue depth, DST rows, tenants, nodes) and reports
//! host ns per call. Multiplying by the number of such calls in a real run
//! and summing gives `layers.recon_ratio` against the measured run time.

use crate::host::{median, Spans};
use crate::workload::{Outputs, Spec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use strings_repro::cuda::host::AppId;
use strings_repro::gpu::compute::ComputeEngine;
use strings_repro::gpu::ids::{ContextId, JobId, StreamId};
use strings_repro::gpu::job::{Job, JobKind, KernelProfile};
use strings_repro::metrics::alerts::{BurnRateConfig, BurnRateEngine};
use strings_repro::remoting::gpool::{NodeId, ShardedGPool};
use strings_repro::remoting::topology::TopologySpec;
use strings_repro::sim::event::{EventKey, EventQueue};
use strings_repro::sim::flight::{FlightKind, FlightRecord, FlightRecorder};
use strings_repro::sim::trace::{Trace, TraceEvent};
use strings_repro::sim::SimDuration;
use strings_repro::strings::admission::{AdmissionConfig, AdmissionController, SloAdmission};
use strings_repro::strings::device_sched::{AppWork, GpuPolicy, GpuScheduler, Phase, TenantId};
use strings_repro::strings::mapper::{GpuAffinityMapper, LbPolicy, PolicyArbiter, WorkloadClass};
use strings_repro::strings::placement::{ClusterPlacer, NodePolicy};

/// xorshift64: microbench inputs must not depend on the workload seed's
/// RNG streams, only be irregular enough to defeat branch prediction.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A delay log-uniform between 1 us and ~1 s, the range of the
    /// simulator's own event horizons.
    fn delay(&mut self) -> u64 {
        let r = self.next();
        (1_000u64 << (r % 21)) + (r >> 44) % 1_000
    }
}

const ROUNDS: usize = 7;

/// Median over [`ROUNDS`] rounds of host ns per call of `f`, which makes
/// one call per invocation.
fn ns_per_call(spans: &mut Spans, name: &'static str, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let s = spans.begin(name);
    let mut per: Vec<f64> = (0..ROUNDS)
        .map(|r| {
            let t0 = Instant::now();
            for i in 0..iters {
                f(r as u64 * iters + i);
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    spans.end(s);
    median(&mut per)
}

/// Sizes the workload's run reached.
pub struct Sizes {
    pub depth: usize,
    pub nodes: usize,
    pub devices_per_node: usize,
    pub tenants: usize,
    pub kernels: usize,
}

/// Apps registered with the device scheduler in the epoch microbench: the
/// Fig 12 pair's in-flight cap (two streams of four server threads), all
/// of which can land on one device.
const EPOCH_APPS: usize = 8;

/// Per-layer work counted from a traced run, by span or instant name.
#[derive(Default)]
pub struct TraceCounts {
    pub names: BTreeMap<&'static str, u64>,
    /// Events the traced run popped.
    pub events: u64,
    pub stage_charges: u64,
    /// Most kernels open at once on one device track.
    pub peak_kernels: usize,
}

impl TraceCounts {
    pub fn of(trace: &Trace, events: u64) -> TraceCounts {
        let mut names = BTreeMap::new();
        let mut stage_charges = 0;
        let mut open: BTreeMap<(u32, &'static str), usize> = BTreeMap::new();
        let mut peak_kernels = 0;
        for ev in &trace.events {
            match ev {
                TraceEvent::SpanBegin { track, name, .. } => {
                    *names.entry(*name).or_insert(0) += 1;
                    let n = open.entry((track.0, *name)).or_insert(0);
                    *n += 1;
                    if *name == "kernel" {
                        peak_kernels = peak_kernels.max(*n);
                    }
                }
                TraceEvent::SpanEnd { track, name, .. } => {
                    if let Some(n) = open.get_mut(&(track.0, *name)) {
                        *n = n.saturating_sub(1);
                    }
                }
                TraceEvent::Instant { name, .. } => *names.entry(*name).or_insert(0) += 1,
                TraceEvent::StageCharge { .. } => stage_charges += 1,
                _ => {}
            }
        }
        TraceCounts {
            names,
            events,
            stage_charges,
            peak_kernels,
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.names.get(name).copied().unwrap_or(0)
    }
}

/// Host ns per call of each layer's public entry point.
pub struct LayerCosts {
    pub schedule_pop_ns: f64,
    pub keyed_resched_ns: f64,
    pub flight_record_ns: f64,
    pub advance_ns: f64,
    pub epoch_tick_ns: f64,
    pub select_ns: f64,
    pub select_256_ns: f64,
    pub select_frag_mig8_ns: f64,
    pub try_admit_ns: f64,
    pub try_admit_slo_ns: f64,
    pub place_ns: f64,
    pub fail_rebuild_us: f64,
    pub alerts_observe_ns: f64,
}

pub fn measure(spec: &Spec, sizes: &Sizes, spans: &mut Spans) -> LayerCosts {
    LayerCosts {
        schedule_pop_ns: schedule_pop(sizes, spans),
        keyed_resched_ns: keyed_resched(sizes, spans),
        flight_record_ns: flight_record(sizes, spans),
        advance_ns: compute_advance(sizes, spans),
        epoch_tick_ns: epoch_tick(spans),
        select_ns: select(
            spans,
            "core.mapper.select",
            sizes.nodes,
            sizes.devices_per_node,
            LbPolicy::GWtMin,
            false,
        ),
        select_256_ns: select(
            spans,
            "core.mapper.select_256",
            64,
            4,
            LbPolicy::GWtMin,
            true,
        ),
        select_frag_mig8_ns: select(
            spans,
            "core.mapper.select_frag_mig8",
            64,
            4,
            LbPolicy::Frag,
            false,
        ),
        try_admit_ns: try_admit(spec, sizes, false, spans),
        try_admit_slo_ns: try_admit(spec, sizes, true, spans),
        place_ns: place(spec, sizes, spans),
        fail_rebuild_us: fail_rebuild(sizes, spans),
        alerts_observe_ns: alerts_observe(spec, spans),
    }
}

/// `schedule` + `pop` on a queue held at the run's peak live depth.
fn schedule_pop(sizes: &Sizes, spans: &mut Spans) -> f64 {
    let mut rng = Rng(0x5EED_0001);
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..sizes.depth.max(1) {
        q.schedule(rng.delay(), i as u32);
    }
    ns_per_call(spans, "sim_core.event.schedule_pop", 200_000, |_| {
        let (t, e) = q.pop().expect("queue is held at depth");
        q.schedule(t + rng.delay(), e);
    })
}

/// One device wakeup re-armed (`invalidate` + `schedule_keyed`) plus the
/// `pop` and reschedule that hold the queue at depth and reap the
/// cancelled entry, with one key per device of the run.
fn keyed_resched(sizes: &Sizes, spans: &mut Spans) -> f64 {
    const PLAIN: u32 = u32::MAX;
    let mut rng = Rng(0x5EED_0002);
    let mut q: EventQueue<u32> = EventQueue::new();
    let n_keys = (sizes.nodes * sizes.devices_per_node).max(1);
    let keys: Vec<EventKey> = (0..n_keys).map(|_| q.register_key()).collect();
    for _ in 0..sizes.depth.saturating_sub(n_keys) {
        q.schedule(rng.delay(), PLAIN);
    }
    for (k, key) in keys.iter().enumerate() {
        q.schedule_keyed(*key, rng.delay(), k as u32);
    }
    ns_per_call(spans, "sim_core.event.keyed_resched", 200_000, |i| {
        let k = (i % n_keys as u64) as usize;
        let now = q.now();
        q.invalidate(keys[k]);
        q.schedule_keyed(keys[k], now + rng.delay(), k as u32);
        let (t, e) = q.pop().expect("queue is held at depth");
        if e == PLAIN {
            q.schedule(t + rng.delay(), PLAIN);
        } else {
            q.schedule_keyed(keys[e as usize], t + rng.delay(), e);
        }
    })
}

/// `FlightRecorder::record` into one ring per node at the default depth.
fn flight_record(sizes: &Sizes, spans: &mut Spans) -> f64 {
    let mut fr = FlightRecorder::new(sizes.nodes, 256);
    let nodes = sizes.nodes as u64;
    ns_per_call(spans, "sim_core.flight.record", 500_000, |i| {
        black_box(fr.record(FlightRecord {
            at: i,
            node: (i % nodes) as u32,
            kind: FlightKind::Arrival,
            request: i,
            a: i & 0x7ff,
            b: i % nodes,
            id: 0,
            cause: 0,
            ev: i,
            ev_cause: 0,
        }));
    })
}

/// One kernel completion on a C2050 compute engine running the run's peak
/// per-device kernel concurrency: `advance_into` to the next completion,
/// then `start` a replacement.
fn compute_advance(sizes: &Sizes, spans: &mut Spans) -> f64 {
    let spec = strings_repro::gpu::spec::GpuModel::TeslaC2050.spec();
    let mut eng = ComputeEngine::new(spec.mem_bw_mbps, spec.max_concurrent_kernels as usize);
    let mut rng = Rng(0x5EED_0003);
    let mut next_id = 0u32;
    let mut job = |rng: &mut Rng| {
        next_id += 1;
        let work = 200_000 + rng.next() % 2_000_000;
        let kind = JobKind::Kernel(KernelProfile {
            work_ref_ns: work,
            occupancy: 0.25,
            bw_demand_mbps: 20_000.0,
        });
        let j = Job {
            id: JobId(next_id),
            ctx: ContextId(next_id % 4),
            stream: StreamId(next_id),
            kind,
            tag: next_id as u64,
        };
        (j, work)
    };
    let mut now = 0;
    for _ in 0..sizes.kernels.max(1) {
        let (j, w) = job(&mut rng);
        eng.start(j, w, now);
    }
    let mut done = Vec::new();
    ns_per_call(spans, "gpu_sim.compute.advance", 100_000, |_| {
        now = eng.next_completion(now).expect("engine is never empty");
        done.clear();
        eng.advance_into(now, &mut done);
        for _ in 0..done.len() {
            let (j, w) = job(&mut rng);
            eng.start(j, w, now);
        }
    })
}

/// One LAS epoch (`epoch_tick_into`) over [`EPOCH_APPS`] apps, after
/// charging one app's service for the closing epoch.
fn epoch_tick(spans: &mut Spans) -> f64 {
    let mut sched = GpuScheduler::new(GpuPolicy::Las, 1_000_000);
    let apps = EPOCH_APPS;
    let phases = [Phase::KernelLaunch, Phase::H2D, Phase::D2H, Phase::Default];
    let work: Vec<AppWork> = (0..apps)
        .map(|a| {
            let app = AppId(a as u32);
            sched
                .register(app, StreamId(a as u32), TenantId(a as u32), 1.0, 0)
                .expect("signal space holds the apps");
            AppWork {
                app,
                has_ready: a % 3 != 2,
                phase: phases[a % phases.len()],
            }
        })
        .collect();
    let mut awake = Vec::new();
    ns_per_call(spans, "core.device_sched.epoch_tick", 200_000, |i| {
        let app = AppId((i % apps as u64) as u32);
        sched.record_service(app, 50_000 + (i & 0xffff), i % 4 == 1, 0);
        sched.epoch_tick_into(&work, i * 1_000_000, &mut awake);
    })
}

/// `select_device` + `bind`, with the bind of 64 selections earlier
/// released, over `nodes` x `per_node` DST rows (one node's shard unless
/// `global`).
fn select(
    spans: &mut Spans,
    name: &'static str,
    nodes: usize,
    per_node: usize,
    policy: LbPolicy,
    global: bool,
) -> f64 {
    let mig = if policy == LbPolicy::Frag {
        "+mig8"
    } else {
        ""
    };
    let topo = TopologySpec::parse(&format!("{nodes}x{per_node}:c2050{mig}"))
        .expect("benchmark topology parses");
    let pool = ShardedGPool::build(topo.nodes());
    let gmap = if global {
        pool.global()
    } else {
        pool.shard(NodeId(0)).expect("node 0 has a shard")
    };
    let mut m = GpuAffinityMapper::new(gmap, PolicyArbiter::fixed(policy));
    if let Some(cap) = topo.slices() {
        m.enable_slices(cap.units);
    }
    let mut bound = std::collections::VecDeque::new();
    ns_per_call(spans, name, 50_000, |i| {
        let class = WorkloadClass((i % 5) as u32);
        let gid = m.select_device(class, NodeId(0));
        m.bind(gid, class);
        bound.push_back((gid, class));
        if bound.len() > 64 {
            let (g, c) = bound.pop_front().expect("non-empty");
            m.unbind(g, c);
        }
    })
}

/// `try_admit` over the workload's tenants with the workload's queue
/// depth (the serve default on the batch workload, which has no front
/// door), releasing admissions in FIFO order; `slo` turns the EWMA
/// queue-wait gate on and feeds it a wait per admission.
fn try_admit(spec: &Spec, sizes: &Sizes, slo: bool, spans: &mut Spans) -> f64 {
    let mut cfg = spec
        .serve()
        .map_or(AdmissionConfig::default(), |s| s.admission);
    cfg.slo = slo.then_some(SloAdmission {
        target_wait_ns: 20_000_000,
    });
    let tenants = sizes.tenants.max(1);
    let mut ac = AdmissionController::new(tenants, cfg);
    let mut inflight = std::collections::VecDeque::new();
    let mut rng = Rng(0x5EED_0004);
    let name = if slo {
        "core.admission.try_admit_slo"
    } else {
        "core.admission.try_admit"
    };
    ns_per_call(spans, name, 500_000, |i| {
        let t = (rng.next() % tenants as u64) as usize;
        if ac.try_admit(t, i * 1_000).is_ok() {
            if slo {
                ac.observe_wait(t, rng.next() % 30_000_000);
            }
            inflight.push_back(t);
        }
        if inflight.len() > tenants / 2 + 1 {
            ac.release(inflight.pop_front().expect("non-empty"));
        }
    })
}

/// `ClusterPlacer::place` for each tenant in turn (sticky after the first
/// placement, as in planning).
fn place(spec: &Spec, sizes: &Sizes, spans: &mut Spans) -> f64 {
    let policy = spec.serve().map_or(NodePolicy::RoundRobin, |s| s.placement);
    let nodes: Vec<NodeId> = (0..sizes.nodes as u32).map(NodeId).collect();
    let mut placer = ClusterPlacer::new(&nodes, policy);
    let tenants = sizes.tenants.max(1) as u64;
    ns_per_call(spans, "core.placement.place", 500_000, |i| {
        black_box(placer.place((i % tenants) as u32));
    })
}

/// `ShardedGPool::fail_node` + gMap rebuild of the surviving devices, in us
/// (the pool copy each repetition needs is not timed).
fn fail_rebuild(sizes: &Sizes, spans: &mut Spans) -> f64 {
    let topo = TopologySpec::parse(&format!("{}x{}:c2050", sizes.nodes, sizes.devices_per_node))
        .expect("benchmark topology parses");
    let base = ShardedGPool::build(topo.nodes());
    let s = spans.begin("remoting.gpool.fail_rebuild");
    let mut per: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut total = 0u128;
            let reps = 200u32;
            for r in 0..reps {
                let mut pool = base.clone();
                let node = NodeId(r % sizes.nodes as u32);
                let t0 = Instant::now();
                black_box(pool.fail_node(node));
                black_box(pool.global().rebuild());
                total += t0.elapsed().as_nanos();
            }
            total as f64 / reps as f64 / 1e3
        })
        .collect();
    spans.end(s);
    median(&mut per)
}

/// `BurnRateEngine::observe` under the workload's rule (the incident's
/// rule on workloads without one), one outcome per virtual ms.
fn alerts_observe(spec: &Spec, spans: &mut Spans) -> f64 {
    let cfg = spec.serve().and_then(|s| s.burn_alert).unwrap_or_else(|| {
        let mut c = BurnRateConfig::new(SimDuration::from_ns(2_100_000_000));
        c.short_ns = 1_000_000_000;
        c.long_ns = 5_000_000_000;
        c
    });
    let mut engine = BurnRateEngine::new(cfg);
    ns_per_call(spans, "metrics.alerts.observe", 500_000, |i| {
        engine.observe(i * 1_000_000, i % 10 == 0);
        while engine.pop_pending().is_some() {}
    })
}

/// Host ns the layer model predicts for one untraced run: each layer's
/// ns per call times the number of such calls the run made.
pub fn recon_ns(spec: &Spec, out: &Outputs, tc: &TraceCounts, c: &LayerCosts) -> f64 {
    let serve = spec.serve();
    let events = out.events as f64;
    let cancelled = out.cancelled_wakeups as f64;
    let rearm = (c.keyed_resched_ns - c.schedule_pop_ns).max(0.0);
    let select = match serve.and_then(|s| s.stack.lb) {
        Some(LbPolicy::Frag) => c.select_frag_mig8_ns,
        _ => c.select_ns,
    };
    let admit = match serve.map(|s| s.admission.slo.is_some()) {
        Some(true) => c.try_admit_slo_ns,
        Some(false) => c.try_admit_ns,
        None => 0.0,
    };
    // Untraced runs roll idle epochs without a queue round trip (tracing
    // turns that fast path off), so each event the traced run popped
    // beyond the untraced one is an idle roll: no epoch tick, and no
    // public entry point to time, so it is charged nothing.
    let idle_rolls = tc.events.saturating_sub(out.events);
    let epochs = tc.get("epoch").saturating_sub(idle_rolls) as f64;
    let alerts = if serve.is_some_and(|s| s.burn_alert.is_some()) {
        out.offered() as f64 * c.alerts_observe_ns
    } else {
        0.0
    };
    events * c.schedule_pop_ns
        + cancelled * rearm
        + out.flight_records as f64 * c.flight_record_ns
        + tc.get("kernel") as f64 * c.advance_ns
        + epochs * c.epoch_tick_ns
        + tc.get("placement") as f64 * select
        + out.offered() as f64 * admit
        + out.gmap_rebuilds as f64 * c.fail_rebuild_us * 1e3
        + alerts
}
