//! §4's proactive-maintenance vision, end to end.
//!
//! "If several links on a switch have been fixed by reseating
//! transceivers, the system could proactively reseat all transceivers on
//! that switch, even if no issues have been reported … during periods of
//! low utilization … at little to no additional cost."
//!
//! This example shows the machinery in isolation (campaign triggering,
//! the utilization gate) and then the fleet-scale effect: the E4
//! comparison of reactive vs proactive vs predictive policy on the same
//! fabric and fault stream.
//!
//! Run with: `cargo run --release --example proactive_campaign`

#![expect(
    clippy::print_stdout,
    reason = "an example shows its results on stdout"
)]

use selfmaint::control::{ProactiveConfig, ProactivePlanner};
use selfmaint::faults::diurnal_utilization;
use selfmaint::net::gen::leaf_spine;
use selfmaint::prelude::*;
use selfmaint::scenarios::experiments::{e11, e4};

fn main() {
    // --- The trigger mechanism, in miniature -------------------------
    let rng = SimRng::root(4);
    let topo = leaf_spine(4, 8, 2, 1, DiversityProfile::cloud_typical(), &rng);
    let mut planner = ProactivePlanner::new(ProactiveConfig::default());
    let spine = topo
        .node_ids()
        .find(|&n| topo.node(n).name == "spine-0")
        .expect("spine exists");
    println!("— campaign trigger on {} —", topo.node(spine).name);
    let links = topo.links_of(spine);
    let mut t = SimTime::ZERO;
    for (i, &l) in links.iter().take(3).enumerate() {
        t += SimDuration::from_hours(20);
        planner.record_reseat_fix(&topo, l, t);
        println!(
            "  day {:.1}: reseat fixed {l} (fix #{})",
            t.as_days_f64(),
            i + 1
        );
    }
    // Peak hours: the gate holds.
    let peak = SimTime::ZERO + SimDuration::from_hours(68); // 20:00 day 2
    println!(
        "  at {} utilization {:.2}: campaigns -> {}",
        peak,
        diurnal_utilization(peak),
        planner
            .evaluate(&topo, diurnal_utilization(peak), peak)
            .len()
    );
    // Morning trough: go.
    let trough = SimTime::ZERO + SimDuration::from_hours(80); // 08:00 day 3
    let campaigns = planner.evaluate(&topo, diurnal_utilization(trough), trough);
    println!(
        "  at {} utilization {:.2}: campaigns -> {}",
        trough,
        diurnal_utilization(trough),
        campaigns.len()
    );
    for c in &campaigns {
        println!(
            "    -> proactively reseat all {} ports of {}",
            c.links.len(),
            topo.node(c.switch).name
        );
    }

    // --- The fleet-scale effect (E4) ---------------------------------
    println!();
    let rows = e4::run_experiment(&e4::E4Params::full(4));
    println!("{}", e4::table(&rows).render());

    // --- And the predictive loop's quality (E11) ---------------------
    let out = e11::run_experiment(&e11::E11Params::full(4));
    println!("{}", e11::table(&out).render());
    println!(
        "Claim C6: scheduled work during the diurnal trough trades cheap\n\
         robot time for organic incidents that never happen."
    );
}
