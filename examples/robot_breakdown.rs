//! Robot breakdown: inject maintenance-plane chaos — units that stall
//! and break down mid-operation, slipped grips, misidentified ports,
//! dropped telemetry polls, lost completion reports — and watch the
//! recovery plane (watchdogs, retry-with-backoff, the degradation
//! ladder down to humans) keep the fabric serviceable. The same chaos
//! with recovery disabled shows what it is buying.
//!
//! Run with: `cargo run --release --example robot_breakdown`

#![expect(
    clippy::print_stdout,
    reason = "an example shows its results on stdout"
)]

use selfmaint::faults::RobotFaultConfig;
use selfmaint::prelude::*;
use selfmaint::scenarios::RunReport;

fn chaos_config(seed: u64, recovery: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_level(seed, AutomationLevel::L3);
    cfg.topology = TopologySpec::LeafSpine {
        spines: 2,
        leaves: 4,
        servers_per_leaf: 2,
    };
    cfg.duration = SimDuration::from_days(20);
    cfg.poll_period = SimDuration::from_secs(120);
    cfg.faults.mtbi_per_link = SimDuration::from_days(8);
    // The kitchen-sink preset: a unit breakdown every ~2 operating
    // hours, an actuator stall every ~1, plus grip / vision / magazine
    // mishaps, 5% telemetry dropout and 2% report loss.
    cfg.robot_faults = RobotFaultConfig::chaos();
    cfg.recovery.enabled = recovery;
    cfg
}

fn print_run(label: &str, r: &mut RunReport) {
    println!("— {label} —");
    let median = r.median_service_window();
    println!(
        "  availability {:.5}   median window {}   tickets {} (fixed {}, spurious {})",
        r.availability.availability,
        median,
        r.tickets_total(),
        r.tickets_fixed,
        r.tickets_spurious
    );
    println!(
        "  robot ops {}   stalls {}   aborts {} safe / {} unsafe   breakdowns {}",
        r.robot_ops, r.op_stalls, r.op_aborts_safe, r.op_aborts_unsafe, r.robot_breakdowns
    );
    println!(
        "  telemetry polls dropped {}   completion reports lost {}",
        r.telemetry_dropouts, r.dispatch_msgs_lost
    );
    println!(
        "  watchdog fires {}   retries {}   reassigns {}   units recovered {}",
        r.watchdog_fires, r.robot_retries, r.robot_reassigns, r.robot_recoveries
    );
    println!(
        "  handed to humans {}   ports flagged humans-only {}   parked for fleet {}",
        r.human_escalations, r.ports_flagged, r.recovery_queued
    );
    println!(
        "  leaked zone claims {}   leaked drains {}\n",
        r.zone_claims_leaked, r.drains_leaked
    );
}

fn main() {
    const SEED: u64 = 42;
    println!(
        "20 simulated days of L3 operations under maintenance-plane chaos\n\
         (robot MTBF ~2h against minutes-scale ops; §3.4's \"who maintains\n\
         the maintainer\" question).\n"
    );

    let mut healthy = selfmaint::scenarios::run({
        let mut cfg = chaos_config(SEED, true);
        cfg.robot_faults = RobotFaultConfig::default(); // disabled
        cfg
    });
    print_run("healthy fleet (no injected robot faults)", &mut healthy);

    let mut with_recovery = selfmaint::scenarios::run(chaos_config(SEED, true));
    print_run("chaos, recovery plane ON", &mut with_recovery);

    let mut ablated = selfmaint::scenarios::run(chaos_config(SEED, false));
    print_run("chaos, recovery plane OFF (ablation)", &mut ablated);

    println!(
        "The watchdog catches silent stalls and lost reports; the ladder\n\
         retries with backoff, reassigns, and finally hands work to humans,\n\
         so the fleet keeps operating and tickets keep closing even while\n\
         units break down every couple of hours. With recovery off the\n\
         first silent stall freezes a unit forever: the fleet is dead\n\
         within days, its last drain stays held, and the backlog falls to\n\
         whatever humans pick up on their own. In every mode aborts back\n\
         out cleanly: zero leaked claims or drains."
    );
}
