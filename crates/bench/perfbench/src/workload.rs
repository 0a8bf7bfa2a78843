//! The benchmark's workloads and one timed scenario run of each.
//!
//! A workload is a [`ScenarioSpec`] generated from the seed. A timed run
//! builds the topology through [`TopoSpec::build`], deploys the defense
//! through [`DefenseSpec::build`] and `DefenseFactory::deploy` (timed on
//! their own, then discarded), and runs the scenario on the built topology
//! through [`Runner::run_on`], which deploys again and simulates.

use std::time::Instant;

use netfence_experiments::fig8::fig8_spec;
use netfence_experiments::fig9::{fig9_spec, UserTraffic};
use netfence_experiments::prelude::*;
use netfence_experiments::topo_scale::scale_spec;
use netfence_sim::deploy::Deployment;

/// The workloads the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 9 long-running-TCP cell: 1 Mbps CBR attackers flood
    /// colluding receivers through a NetFence bottleneck.
    ColludingNetfence,
    /// Figure 8 cell: attackers flood the victim with request packets.
    RequestFloodNetfence,
    /// The topology-scaling spec at 4000 hosts on a generated
    /// transit-stub internet, undefended.
    TransitStub4kNone,
}

impl Workload {
    /// Every workload the command line accepts. `BENCHMARK.json` lists
    /// `request_flood_netfence` and `transit_stub_4k_none`; the colluding
    /// flood is run by name for before/after pairs (see `NOTES.md`).
    pub const ALL: [Workload; 3] =
        [Workload::ColludingNetfence, Workload::RequestFloodNetfence, Workload::TransitStub4kNone];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColludingNetfence => "colluding_netfence",
            Workload::RequestFloodNetfence => "request_flood_netfence",
            Workload::TransitStub4kNone => "transit_stub_4k_none",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario for `seed`. The seed is the only input that varies.
    pub fn spec(self, seed: u64) -> ScenarioSpec {
        let scale = Scale { seed, ..Scale::default_scale() };
        match self {
            Workload::ColludingNetfence => {
                fig9_spec(&scale, DefenseKind::NetFence, UserTraffic::LongRunning, 100_000)
            }
            Workload::RequestFloodNetfence => fig8_spec(&scale, DefenseKind::NetFence, 100_000),
            Workload::TransitStub4kNone => scale_spec(4000, DefenseKind::None).seed(seed),
        }
    }

    /// The figure property each run's [`Record`] must show: its name, the
    /// record's value and whether it holds.
    pub fn figure(self, r: &Record) -> (&'static str, f64, bool) {
        match self {
            // Figure 9: NetFence gives users a comparable share of the
            // bottleneck (the ratio is near 1; without a defense it is
            // near 0).
            Workload::ColludingNetfence => {
                let ratio = r.throughput_ratio();
                ("throughput_ratio", ratio, ratio > 0.5)
            }
            // Figure 8: nearly every 20 KB transfer completes.
            Workload::RequestFloodNetfence => {
                let done = r.user_completion_ratio();
                ("user_completion_ratio", done, done >= 0.9)
            }
            // Undefended flood: the bottleneck is saturated.
            Workload::TransitStub4kNone => {
                let util = r.bottleneck_utilization();
                ("bottleneck_utilization", util, util > 0.9)
            }
        }
    }
}

/// The [`TopoSpec`] a scenario's topology maps to, as the runner builds
/// it. Only the shapes the workloads use are mapped; the traced run checks
/// that the mapping still reproduces `Runner::run`'s record.
pub fn topo_spec(spec: &ScenarioSpec) -> TopoSpec {
    let colluder_ases = match spec.attack_target {
        AttackTarget::Victim => 0,
        AttackTarget::Colluders { ases } => ases.max(1),
    };
    match spec.topology {
        TopologySpec::Dumbbell => TopoSpec::Dumbbell {
            src_ases: spec.scale.src_ases,
            hosts_per_as: spec.scale.hosts_per_as,
            legit_per_as: spec.legit_per_as,
            bottleneck_bps: spec.resolved_bottleneck_bps(),
            colluder_ases,
        },
        TopologySpec::Internet(shape) => TopoSpec::TransitStub(TransitStubSpec {
            transit_ases: shape.transit_ases,
            routers_per_transit: shape.routers_per_transit,
            stub_ases: spec.scale.src_ases,
            hosts: spec.scale.senders(),
            legit_per_stub: spec.legit_per_as,
            zipf_milli_alpha: shape.zipf_milli_alpha,
            multihoming: shape.multihoming,
            bottleneck_bps: spec.resolved_bottleneck_bps(),
            stub_bps: 0,
            core_bps: 0,
            colluder_ases,
            seed: spec.scale.seed,
        }),
        TopologySpec::ParkingLot { .. } | TopologySpec::MultiBottleneck { .. } => {
            panic!("no benchmark workload runs on {:?}", spec.topology)
        }
    }
}

/// Deploy the spec's defense onto a built topology exactly as the runner
/// does before it simulates.
pub fn deploy(spec: &ScenarioSpec, built: &BuiltTopo) -> Deployment {
    let ctx = DefenseContext {
        groups: built
            .groups
            .iter()
            .map(|g| SuppressionGroup {
                victim: g.victim,
                users: &g.users,
                attackers: &g.attackers,
            })
            .collect(),
        bottleneck_bps: built.min_bottleneck_bps(),
        attack_on_victim: spec.attack_target == AttackTarget::Victim,
    };
    let resolved = spec.defense.deployment.resolve_for_source_ases(&built.net, &built.source_ases);
    spec.defense.build(&ctx).deploy(&built.net, &resolved)
}

/// Host seconds of `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Host seconds of one build plus deploy; the deployment is dropped
/// outside the timed interval.
pub fn time_setup(spec: &ScenarioSpec) -> (BuiltTopo, f64, f64) {
    let (built, build_s) = timed(|| topo_spec(spec).build());
    let (deployment, deploy_s) = timed(|| deploy(spec, &built));
    drop(deployment);
    (built, build_s, deploy_s)
}

/// One timed scenario run.
#[derive(Debug)]
pub struct TimedRun {
    /// The run's output.
    pub record: Record,
    /// `TopoSpec::build`.
    pub build_s: f64,
    /// `DefenseSpec::build(..).deploy(..)`.
    pub deploy_s: f64,
    /// `Runner::run_on`: the runner's own deploy plus the event loop.
    pub run_on_s: f64,
}

impl TimedRun {
    /// Build, deploy and run `spec` once.
    pub fn run(spec: &ScenarioSpec) -> TimedRun {
        let (built, build_s, deploy_s) = time_setup(spec);
        let runner = Runner::new(spec.clone());
        let (record, run_on_s) = timed(|| runner.run_on(built));
        TimedRun { record, build_s, deploy_s, run_on_s }
    }

    /// One whole scenario, from spec to `Record`.
    pub fn run_s(&self) -> f64 {
        self.build_s + self.run_on_s
    }

    /// Topology build plus defense deploy.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.deploy_s
    }

    /// The event loop's share of the run: `run_s − setup_s`.
    pub fn loop_s(&self) -> f64 {
        (self.run_s() - self.setup_s()).max(1e-9)
    }
}

/// Packets the scenario's flows injected.
pub fn injected_packets(r: &Record) -> u64 {
    r.users().chain(r.attackers()).map(|p| p.packets_sent).sum()
}

/// Every check one repetition's record must pass: byte-identical to the
/// first repetition, drop ledger equal to the engine's drop count, and the
/// workload's figure property.
pub fn check_record(w: Workload, r: &Record, reference: &Record) -> Result<(), String> {
    if r != reference {
        return Err("record differs from the first repetition".to_string());
    }
    let ledger = r.report.drop_budget.total();
    if ledger != r.engine.drops {
        return Err(format!("drop ledger {ledger} != engine drops {}", r.engine.drops));
    }
    if injected_packets(r) == 0 || r.engine.events == 0 {
        return Err("the run moved no packets".to_string());
    }
    match w.figure(r) {
        (_, _, true) => Ok(()),
        (name, value, false) => Err(format!("figure property fails: {name} = {value:.3}")),
    }
}

/// FNV-1a over the record's `Debug` rendering: a short, stable digest two
/// runs of the same spec and commit must agree on.
pub fn digest(r: &Record) -> u64 {
    format!("{r:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// A one-line JSON summary of the spec, for provenance.
pub fn spec_summary(spec: &ScenarioSpec) -> String {
    format!(
        "{{\"name\":\"{}\",\"defense\":\"{}\",\"topology\":\"{}\",\"src_ases\":{},\"hosts_per_as\":{},\"senders\":{},\"bottleneck_bps\":{},\"sim_time_s\":{},\"seed\":{}}}",
        spec.name,
        spec.defense.kind.label(),
        match spec.topology {
            TopologySpec::Dumbbell => "dumbbell",
            TopologySpec::Internet(_) => "transit-stub",
            TopologySpec::ParkingLot { .. } => "parking-lot",
            TopologySpec::MultiBottleneck { .. } => "multi-bottleneck",
        },
        spec.scale.src_ases,
        spec.scale.hosts_per_as,
        spec.scale.senders(),
        spec.resolved_bottleneck_bps(),
        spec.scale.sim_time as f64 / 1e9,
        spec.scale.seed,
    )
}
