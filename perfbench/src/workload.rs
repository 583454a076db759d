//! The benchmark's three workloads and the staged op that runs one of them.
//!
//! An op is one whole simulation for one seed, in three timed stages:
//! planning (`plan_with_seed`), simulating (`World::new` + `World::run`),
//! and reporting (building and rendering every report the workload
//! produces). The stages call the harness's public API only; the World
//! configuration mirrors `Scenario::run_with_seed` / `ServeSpec::run_with_seed`
//! so the stage boundaries can be timed, and [`Spec::library_outputs`]
//! checks that the mirror and the library path agree.

use crate::host::Spans;
use strings_repro::harness::cli::parse_serve_args;
use strings_repro::harness::experiments::common::{pair_streams, ExpScale};
use strings_repro::harness::{PlannedRequest, RunStats, Scenario, ServeSpec, World};
use strings_repro::metrics::forensics;
use strings_repro::metrics::slo::SloReport;
use strings_repro::remoting::topology::TopologySpec;
use strings_repro::sim::SimDuration;
use strings_repro::strings::config::StackConfig;
use strings_repro::strings::device_sched::GpuPolicy;
use strings_repro::strings::mapper::LbPolicy;
use strings_repro::workloads::pairs::workload_pairs;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 12 pair I (BO+BS) on the 2-node supernode, GWtMin + LAS.
    PaperFig12,
    /// The CI cluster smoke: 64x4 GPUs, 2048 tenants, Poisson 300 rps.
    ClusterServe,
    /// 64x4+mig8 under Frag balancing at 800 rps with a node loss, SLO
    /// admission, burn alerts, metrics, attribution and flight dumps.
    ClusterIncident,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperFig12,
        Workload::ClusterServe,
        Workload::ClusterIncident,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFig12 => "paper_fig12",
            Workload::ClusterServe => "cluster_serve",
            Workload::ClusterIncident => "cluster_incident",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// `strings-sim serve` arguments of the two cluster workloads, so each is
/// the same run a user gets from the CLI.
const CLUSTER_SERVE_ARGS: &[&str] = &[
    "--topology",
    "64x4:c2050@calibrated",
    "--placement",
    "hash",
    "--scope",
    "local",
    "--tenants",
    "2048",
    "--arrivals",
    "poisson:300rps",
    "--duration",
    "20s",
];

const CLUSTER_INCIDENT_ARGS: &[&str] = &[
    "--topology",
    "64x4:c2050+mig8@calibrated",
    "--lb",
    "frag",
    "--placement",
    "hash",
    "--scope",
    "local",
    "--tenants",
    "2048",
    "--arrivals",
    "poisson:800rps",
    "--duration",
    "10s",
    "--queue-depth",
    "2",
    "--slo-target",
    "20ms",
    "--faults",
    "nodeloss@4s:node3",
    "--burn-alert",
    "2100ms",
    "--alert-windows",
    "1s:5s",
    "--metrics-every",
    "1s",
    "--attribution",
    // Only switches on the end-of-run snapshot; the benchmark renders the
    // dumps in memory and writes no file.
    "--dump",
    "flight.jsonl",
];

/// A workload's run description.
pub enum Spec {
    Batch(Scenario),
    Serve(ServeSpec),
}

/// Host nanoseconds of each op stage; `parts` splits the report stage
/// into SLO (+ alert log), OpenMetrics, attribution and forensics.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpTimes {
    pub plan_ns: u64,
    pub new_ns: u64,
    pub run_ns: u64,
    pub report_ns: u64,
    pub parts_ns: [u64; 4],
}

impl OpTimes {
    pub fn op_ns(&self) -> u64 {
        self.plan_ns + self.new_ns + self.run_ns + self.report_ns
    }

    pub fn setup_ns(&self) -> u64 {
        self.plan_ns + self.new_ns
    }
}

/// Model outputs and work counts of one op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outputs {
    pub requests: u64,
    pub events: u64,
    pub makespan_ns: u64,
    pub completed: u64,
    pub shed: u64,
    pub failed: u64,
    /// Requests the World saw to an end: completed, shed or failed.
    pub finished: u64,
    pub goodput_rps: f64,
    /// Nearest-rank p99 of request latency, as the SLO report gives it.
    pub latency_p99_ns: u64,
    pub cancelled_wakeups: u64,
    pub stale_pops: u64,
    pub peak_live_depth: u64,
    pub flight_records: u64,
    pub context_switches: u64,
    pub rpc_timeouts: u64,
    pub rpc_retries: u64,
    pub failovers: u64,
    pub gmap_rebuilds: u64,
    pub admission_shed: u64,
    pub report_bytes: u64,
    /// FNV-1a over the core outputs and every rendered report byte.
    pub fingerprint: u64,
}

impl Outputs {
    /// The outputs every run path of the same seed must agree on.
    pub fn core(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.events,
            self.makespan_ns,
            self.finished,
            self.shed,
            self.failed,
        )
    }

    pub fn offered(&self) -> u64 {
        self.completed + self.shed + self.failed
    }
}

pub struct Op {
    pub times: OpTimes,
    pub out: Outputs,
    pub stats: RunStats,
}

impl Spec {
    pub fn new(w: Workload) -> Spec {
        match w {
            Workload::PaperFig12 => {
                let (_, a, b) = workload_pairs()[8];
                Spec::Batch(Scenario::supernode(
                    StackConfig::strings(LbPolicy::GWtMin).with_gpu_policy(GpuPolicy::Las),
                    pair_streams(a, b, &ExpScale::full()),
                    0,
                ))
            }
            Workload::ClusterServe => Spec::Serve(serve(CLUSTER_SERVE_ARGS)),
            Workload::ClusterIncident => Spec::Serve(serve(CLUSTER_INCIDENT_ARGS)),
        }
    }

    pub fn topology(&self) -> &TopologySpec {
        match self {
            Spec::Batch(s) => &s.topology,
            Spec::Serve(s) => &s.topology,
        }
    }

    /// Tenants the front door and the SLO report account for.
    pub fn tenants(&self) -> usize {
        match self {
            Spec::Batch(s) => s.streams.len(),
            Spec::Serve(s) => s.tenants,
        }
    }

    pub fn serve(&self) -> Option<&ServeSpec> {
        match self {
            Spec::Batch(_) => None,
            Spec::Serve(s) => Some(s),
        }
    }

    pub fn plan(&self, seed: u64) -> Vec<PlannedRequest> {
        match self {
            Spec::Batch(s) => s.plan_with_seed(seed),
            Spec::Serve(s) => s.plan_with_seed(seed),
        }
    }

    /// `World::new` plus every setting the library's run path
    /// (`Scenario::run_with_seed` / `ServeSpec::run_with_seed`) applies, in
    /// the same order; `traced` stands in for the spec's own `trace` flag.
    /// Every workload keeps the request log, which feeds the SLO report.
    pub fn world(&self, seed: u64, requests: Vec<PlannedRequest>, traced: bool) -> World {
        let mut world = match self {
            Spec::Batch(s) => World::new(
                &s.topology,
                s.device_cfg,
                s.stack,
                s.scope,
                s.costs,
                requests,
                s.fairness_horizon,
            ),
            Spec::Serve(s) => World::new(
                &s.topology,
                s.device_cfg,
                s.stack,
                s.scope,
                s.costs,
                requests,
                None,
            ),
        };
        world.set_seed(seed);
        world.enable_request_log();
        match self {
            Spec::Batch(s) => {
                world.set_fault_plan(&s.faults);
                if traced {
                    world.enable_tracing();
                } else if s.attribution {
                    world.enable_attribution();
                }
                if let Some(depth) = s.flight_depth {
                    world.set_flight_depth(depth);
                }
                if s.self_profile {
                    world.enable_self_profile();
                }
            }
            Spec::Serve(s) => {
                world.set_admission(s.tenants, s.admission);
                world.set_fault_plan(&s.faults);
                if traced {
                    world.enable_tracing();
                } else if s.attribution {
                    world.enable_attribution();
                }
                if let Some(every) = s.metrics_every {
                    world.enable_metrics(every);
                    if s.node_metrics {
                        world.enable_node_metrics();
                    }
                }
                if let Some(depth) = s.flight_depth {
                    world.set_flight_depth(depth);
                }
                // After enable_metrics so the alert gauges register.
                if let Some(cfg) = s.burn_alert {
                    world.set_burn_alert(cfg);
                }
                if let Some(at) = s.dump_at {
                    world.set_dump_at(at.as_ns());
                }
                if s.dump_final {
                    world.set_dump_final();
                }
                if let Some(req) = s.explain {
                    world.set_explain(req);
                }
                if s.self_profile {
                    world.enable_self_profile();
                }
            }
        }
        world
    }

    /// Core outputs of the same seed through the library's own run path.
    pub fn library_outputs(&self, seed: u64) -> (u64, u64, u64, u64, u64) {
        let stats = match self {
            Spec::Batch(s) => s.run_with_seed(seed),
            Spec::Serve(s) => s.run_with_seed(seed),
        };
        (
            stats.events,
            stats.makespan_ns,
            stats.completed_requests,
            stats.shed_requests,
            stats.failed_requests,
        )
    }

    /// Stage 3: every report the workload produces, rendered to text.
    /// Returns the SLO report, the rendered bytes and the per-part times.
    fn report(&self, stats: &RunStats, spans: &mut Spans) -> (SloReport, String, [u64; 4]) {
        let mut parts = [0u64; 4];
        let mut text = String::new();
        let s = spans.begin("metrics.slo_report");
        let slo = match self {
            // A batch run has no arrival window: rates and fairness windows
            // span the whole makespan.
            Spec::Batch(sc) => stats.slo_report(
                sc.streams.len(),
                SimDuration::from_ns(stats.makespan_ns.max(1)),
                SimDuration::from_secs(1),
            ),
            Spec::Serve(sv) => sv.slo(stats),
        };
        text.push_str(&slo.render());
        if let Some(alerts) = &stats.alerts {
            text.push_str(&alerts.render());
        }
        parts[0] = spans.end(s);
        if let Some(registry) = &stats.metrics {
            let s = spans.begin("metrics.openmetrics");
            text.push_str(&registry.render_openmetrics());
            parts[1] = spans.end(s);
        }
        if let Some(sv) = self.serve().filter(|sv| sv.attribution) {
            let s = spans.begin("metrics.attribution");
            text.push_str(&sv.attribution(stats).render(5));
            parts[2] = spans.end(s);
        }
        if !stats.flight_dumps.is_empty() {
            let s = spans.begin("metrics.forensics");
            for dump in &stats.flight_dumps {
                text.push_str(&forensics::dump_jsonl(dump));
            }
            parts[3] = spans.end(s);
        }
        (slo, text, parts)
    }

    /// One op: plan, build and run the World, render the reports.
    pub fn op(&self, seed: u64, traced: bool, spans: &mut Spans) -> Op {
        let op_span = spans.begin("op");
        let s = spans.begin("workloads.plan");
        let requests = self.plan(seed);
        let plan_ns = spans.end(s);
        let n_requests = requests.len() as u64;
        let s = spans.begin("harness.world_new");
        let world = self.world(seed, requests, traced);
        let new_ns = spans.end(s);
        let s = spans.begin("harness.run");
        let stats = world.run();
        let run_ns = spans.end(s);
        let s = spans.begin("report");
        let (slo, text, parts_ns) = self.report(&stats, spans);
        let report_ns = spans.end(s);
        spans.end(op_span);

        let mut out = Outputs {
            requests: n_requests,
            events: stats.events,
            makespan_ns: stats.makespan_ns,
            completed: slo.completed,
            shed: stats.shed_requests,
            failed: stats.failed_requests,
            finished: stats.completed_requests,
            goodput_rps: slo.goodput_rps,
            latency_p99_ns: slo.p99.as_ns(),
            cancelled_wakeups: stats.cancelled_wakeups,
            stale_pops: stats.stale_pops,
            peak_live_depth: stats.peak_live_queue_depth,
            flight_records: stats.flight_recorded,
            context_switches: stats.context_switches,
            rpc_timeouts: stats.rpc_timeouts,
            rpc_retries: stats.rpc_retries,
            failovers: stats.failovers,
            gmap_rebuilds: stats.gmap_rebuilds,
            admission_shed: stats.admission.map_or(0, |a| a.shed()),
            report_bytes: text.len() as u64,
            fingerprint: 0,
        };
        out.fingerprint = fingerprint(&out, &text);
        Op {
            times: OpTimes {
                plan_ns,
                new_ns,
                run_ns,
                report_ns,
                parts_ns,
            },
            out,
            stats,
        }
    }
}

fn serve(args: &[&str]) -> ServeSpec {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    parse_serve_args(&args)
        .expect("workload arguments follow the serve grammar")
        .spec
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of `bytes`, continuing from hash `h`.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn fingerprint(out: &Outputs, text: &str) -> u64 {
    let core = [
        out.events,
        out.makespan_ns,
        out.completed,
        out.shed,
        out.failed,
    ];
    let h = core
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_le_bytes()));
    fnv1a(h, text.as_bytes())
}

/// Whether an op's outputs are internally consistent: every planned
/// request reached exactly one terminal state (completed in the SLO
/// report's request log, shed, or failed).
pub fn consistent(out: &Outputs) -> bool {
    out.offered() == out.requests
        && out.finished == out.requests
        && out.completed > 0
        && out.makespan_ns > 0
}

/// Run fingerprints (over the 32 simulation seeds a benchmark seed
/// selects) recorded when the benchmark was built, by workload and
/// benchmark seed. A run of a listed seed must reproduce its entry
/// exactly; README.md says which seeds were used and which one is held out.
pub const PINNED: &[(&str, u64, u64)] = &[
    ("paper_fig12", 1, 0xec9109db9bdcaafa),
    ("paper_fig12", 2, 0xb465c2143ea11be1),
    ("paper_fig12", 3, 0xdcf417322cbf4e35),
    ("paper_fig12", 4, 0x759272db51b472a1),
    ("paper_fig12", 5, 0x0d1e873d583515a7),
    ("paper_fig12", 6, 0x8486b03478d9cd23),
    ("paper_fig12", 7, 0xe8270d32372a761f),
    ("paper_fig12", 8, 0xe1462635afe90c7c),
    ("paper_fig12", 9, 0x99d9506219679b7e),
    ("paper_fig12", 10, 0x5f9586f1488c96e6),
    ("paper_fig12", 1009, 0xba944840db751509),
    ("cluster_serve", 1, 0x5e613ee29350d92f),
    ("cluster_serve", 2, 0x02ea82f733696db1),
    ("cluster_serve", 3, 0x71d6151a05ef67d5),
    ("cluster_serve", 4, 0xeef51b6f6195b14d),
    ("cluster_serve", 5, 0x20a6aeed036c3830),
    ("cluster_serve", 6, 0x2035bb8b2ea86930),
    ("cluster_serve", 7, 0xde62f34f3661b221),
    ("cluster_serve", 8, 0xb70664152b57e15c),
    ("cluster_serve", 9, 0x6d18b924adc028c7),
    ("cluster_serve", 10, 0x4885c38e39c2edac),
    ("cluster_serve", 1009, 0x3141958fe2d40375),
    ("cluster_incident", 1, 0x7b7902b885c65dff),
    ("cluster_incident", 2, 0x9d0d34f3c6e8e0e7),
    ("cluster_incident", 3, 0xab3730009e4aa3cb),
    ("cluster_incident", 4, 0xe553c0d5f95ef57c),
    ("cluster_incident", 5, 0x25bb8e85736e2f6e),
    ("cluster_incident", 6, 0x4120ca6819c9f61f),
    ("cluster_incident", 7, 0x8dbc2bf6d46cfd4c),
    ("cluster_incident", 8, 0x44094a55aef47769),
    ("cluster_incident", 9, 0x70a66c72e2fa010f),
    ("cluster_incident", 10, 0x8e33b7026602d2bb),
    ("cluster_incident", 1009, 0xafacde46743f8130),
];

pub fn pinned(w: Workload, seed: u64) -> Option<u64> {
    PINNED
        .iter()
        .find(|(name, s, _)| *name == w.name() && *s == seed)
        .map(|&(_, _, fp)| fp)
}
