//! Failure injection: script exact faults into a quiet fabric and watch
//! the full pipeline — detection, drain verification, dispatch, repair,
//! verify — handle each one. Also demonstrates the
//! window-of-vulnerability checker (§2/§4: verify the change before you
//! make it).
//!
//! Run with: `cargo run --release --example failure_injection`

#![expect(
    clippy::print_stdout,
    reason = "an example shows its results on stdout"
)]

use selfmaint::control::{assess_window, ControllerConfig};
use selfmaint::net::gen::leaf_spine;
use selfmaint::prelude::*;
use selfmaint::scenarios::ScriptedIncident;

fn main() {
    // --- Window-of-vulnerability what-if, before any fault -----------
    let rng = SimRng::root(5);
    let topo = leaf_spine(2, 4, 2, 1, DiversityProfile::standardized(), &rng);
    let state = NetState::new(&topo);
    let servers = topo.servers();
    let mut pairs = Vec::new();
    for i in 0..servers.len() {
        for j in (i + 1)..servers.len() {
            pairs.push((servers[i], servers[j]));
        }
    }
    let uplink = topo
        .link_ids()
        .find(|&l| {
            let (a, b) = topo.endpoints(l);
            topo.node(a).is_switch() && topo.node(b).is_switch()
        })
        .expect("uplink");
    println!("— what-if: drain {uplink} for a 10-minute robotic clean —");
    let risk = assess_window(&topo, &state, &[uplink], SimDuration::from_mins(10), &pairs);
    println!(
        "  pairs disconnected by the drain : {}",
        risk.disconnected_pairs
    );
    println!(
        "  links exposed to a single fault  : {} ({} switch-facing)",
        risk.exposed_links.len(),
        risk.exposed_links
            .iter()
            .filter(|&&l| {
                let (a, b) = topo.endpoints(l);
                topo.node(a).is_switch() && topo.node(b).is_switch()
            })
            .count()
    );
    println!(
        "  worst ECMP path-count ratio      : {:.2}",
        risk.worst_path_ratio
    );
    println!(
        "  exposure                         : {:.0} link-seconds\n",
        risk.exposure_link_seconds
    );

    // --- Scripted faults through the whole pipeline ------------------
    let mut cfg = ScenarioConfig::at_level(5, AutomationLevel::L3);
    cfg.topology = TopologySpec::LeafSpine {
        spines: 2,
        leaves: 4,
        servers_per_leaf: 2,
    };
    cfg.duration = SimDuration::from_days(4);
    cfg.organic_faults = false; // a perfectly quiet fabric…
    let mut ctl = ControllerConfig::at_level(AutomationLevel::L3);
    ctl.proactive = None;
    ctl.predictive = None;
    cfg.controller = Some(ctl);
    let faults = [
        (
            6u64,
            0usize,
            RootCause::FirmwareHang,
            "firmware hang (reseat cures)",
        ),
        (
            18,
            4,
            RootCause::DirtyEndFace,
            "contamination (gray, may flap)",
        ),
        (30, 9, RootCause::DamagedFiber, "damaged fiber (cable swap)"),
        (
            48,
            13,
            RootCause::SwitchPortFault,
            "switch ASIC (human swap)",
        ),
    ];
    cfg.scripted = faults
        .iter()
        .map(|&(h, link, cause, _)| ScriptedIncident {
            at: SimTime::ZERO + SimDuration::from_hours(h),
            link_index: link,
            cause,
        })
        .collect();
    println!("— injecting 4 scripted faults into a quiet 4-day L3 run —");
    for &(h, link, _, label) in &faults {
        println!("  t+{h:>2}h  link #{link}: {label}");
    }
    let mut report = selfmaint::scenarios::run(cfg);
    println!("\n— outcome —");
    println!(
        "  incidents {} (cascades {}), tickets {} (fixed {}, spurious {})",
        report.incidents,
        report.cascade_incidents,
        report.tickets_total(),
        report.tickets_fixed,
        report.tickets_spurious
    );
    println!(
        "  median service window {}   p95 {}",
        report.median_service_window(),
        report.p95_service_window()
    );
    for action in RepairAction::LADDER {
        let st = report.action(action);
        if st.attempts > 0 {
            println!(
                "  {:<12} attempts {:>2}  fixes {:>2}  (robotic {})",
                action.label(),
                st.attempts,
                st.fixes,
                st.robotic
            );
        }
    }
    println!(
        "\nEach hidden cause met its §3.2 cure: the firmware hang fell to a\n\
         reseat, the contamination to cleaning/replacement, the fiber to a\n\
         cable swap, and the ASIC fault walked the whole ladder to a human\n\
         switch replacement."
    );
}
