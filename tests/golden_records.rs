//! Golden `Record` digests: a fixed grid of small scenarios whose records
//! are pinned across commits.
//!
//! Every other byte-identical test compares two runs of the same build
//! (telemetry on vs off, an empty vs a missing fault plan, ...), so a
//! change that alters both runs alike passes them all. This test pins the
//! records themselves: each digest is FNV-1a 64 over `format!("{record:?}")`,
//! the same digest the perfbench harness prints.
//!
//! The grid is every `DefenseKind` × {victim, colluders} × {plain, shrew
//! attacker under a reboot + key-desync fault plan}. A change may re-pin a
//! digest only if it says which record changed and why. On a mismatch the
//! test prints the full table of current digests.

use netfence::experiments::prelude::*;
use netfence::faults::FaultTarget;
use netfence::sim::time::SEC;

/// `(defense, target, variant, digest)`, generated once and pinned.
const GOLDEN: [(&str, &str, &str, u64); 20] = [
    ("FQ", "victim", "plain", 0x16bb5e941b170a5c),
    ("FQ", "victim", "shrew+faults", 0xeecb62bc0ce83400),
    ("FQ", "colluders", "plain", 0x21dd9d230de1e65a),
    ("FQ", "colluders", "shrew+faults", 0xc09b27b86c89cf56),
    ("NetFence", "victim", "plain", 0x0d60dff14c4e4b99),
    ("NetFence", "victim", "shrew+faults", 0xa9817fe03bc57d6a),
    ("NetFence", "colluders", "plain", 0x3d03106d886d5ca4),
    ("NetFence", "colluders", "shrew+faults", 0x619733d34b165d4b),
    ("TVA+", "victim", "plain", 0xed207daac34dadb2),
    ("TVA+", "victim", "shrew+faults", 0x00d7113544b80c25),
    ("TVA+", "colluders", "plain", 0x65e24430a58b0875),
    ("TVA+", "colluders", "shrew+faults", 0xec334a671e29ecda),
    ("StopIt", "victim", "plain", 0x71e5e7e64f7515ae),
    ("StopIt", "victim", "shrew+faults", 0xec08858f2aabc134),
    ("StopIt", "colluders", "plain", 0xc35e8a9924d12f3e),
    ("StopIt", "colluders", "shrew+faults", 0xf2f2a788a32c1e49),
    ("None", "victim", "plain", 0x0a5017ed378f2efd),
    ("None", "victim", "shrew+faults", 0xccf84bd5602e14f7),
    ("None", "colluders", "plain", 0x0a5017ed378f2efd),
    ("None", "colluders", "shrew+faults", 0xccf84bd5602e14f7),
];

/// FNV-1a 64 over the record's `Debug` rendering.
fn digest(r: &Record) -> u64 {
    format!("{r:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn cell(kind: DefenseKind, target: AttackTarget, faulted: bool) -> ScenarioSpec {
    let scale = Scale { src_ases: 2, hosts_per_as: 2, sim_time: 3 * SEC, seed: 3 };
    let spec = ScenarioSpec::dumbbell(scale)
        .named("golden")
        .defense(kind)
        .fair_share(100_000)
        .users(TrafficSpec::repeated_file(20_000, SEC))
        .attackers(TrafficSpec::cbr(500_000), target)
        .sampled(SEC);
    if !faulted {
        return spec;
    }
    let mut plan = FaultPlan::empty();
    plan.router_reboot(FaultTarget::Random, SEC).key_desync(FaultTarget::Random, 2 * SEC);
    spec.adversary(AttackStrategy::shrew_tuned(500_000)).fault_plan(plan)
}

#[test]
fn records_match_their_golden_digests() {
    let mut current = Vec::new();
    for kind in DefenseKind::EVERY {
        for (target, target_name) in
            [(AttackTarget::Victim, "victim"), (AttackTarget::Colluders { ases: 1 }, "colluders")]
        {
            for (faulted, variant) in [(false, "plain"), (true, "shrew+faults")] {
                let r = Runner::new(cell(kind, target, faulted)).run();
                current.push((kind.label(), target_name, variant, digest(&r)));
            }
        }
    }
    let table: String = current
        .iter()
        .map(|(k, t, v, d)| format!("    ({k:?}, {t:?}, {v:?}, {d:#018x}),\n"))
        .collect();
    assert!(current == GOLDEN, "records changed; current digests:\n{table}");
}
