//! The paper's opening motivation (§1): a flapping link is not fail-stop
//! — it oscillates between clean and lossy, and "the curse of a flapping
//! link is the associated increase in tail latency".
//!
//! This example plants one Gilbert–Elliott flapping uplink in a healthy
//! leaf-spine fabric, walks through its phases, and shows what the
//! fleet's latency distribution looks like while it lives — then how
//! fast repair (minutes, robotic) vs slow repair (days, human) changes
//! the month's tail.
//!
//! Run with: `cargo run --release --example flapping_link`

#![expect(
    clippy::print_stdout,
    reason = "an example shows its results on stdout"
)]

use selfmaint::faults::{FlapPhase, FlapProcess};
use selfmaint::net::flows::{all_to_all, allocate, tail_latency_multiplier};
use selfmaint::net::gen::leaf_spine;
use selfmaint::prelude::*;
use selfmaint::scenarios::experiments::e9;

fn main() {
    let rng = SimRng::root(7);
    let topo = leaf_spine(2, 4, 2, 1, DiversityProfile::standardized(), &rng);
    let servers = topo.servers();
    println!(
        "fabric: {} ({} links, {} servers)\n",
        topo.name(),
        topo.link_count(),
        servers.len()
    );

    // Pick an uplink and flap it.
    let uplink = topo
        .link_ids()
        .find(|&l| {
            let (a, b) = topo.endpoints(l);
            topo.node(a).is_switch() && topo.node(b).is_switch()
        })
        .expect("fabric has uplinks");
    let mut flap = FlapProcess::with_severity(0.7);
    let mut stream = rng.stream("demo", 0);

    println!("— watching the flap process on {uplink} —");
    let mut t = SimTime::ZERO;
    for _ in 0..8 {
        let hold = flap.hold_time(&mut stream);
        let phase = match flap.phase() {
            FlapPhase::Good => "GOOD",
            FlapPhase::Bad => "BAD ",
        };
        println!(
            "  {t}  {phase} for {hold}   loss {:.4}  (path latency x{:.1})",
            flap.loss(),
            tail_latency_multiplier(flap.loss())
        );
        t += hold;
        flap.transition(&mut stream);
    }

    // Fleet-wide view while the flap is in its bad phase.
    let mut state = NetState::new(&topo);
    while flap.phase() != FlapPhase::Bad {
        flap.transition(&mut stream);
    }
    state.set_health(uplink, LinkHealth::Flapping, flap.loss());
    let demands = all_to_all(&servers, 10.0);
    let report = allocate(&topo, &state, &demands);
    println!(
        "\n— fleet latency multipliers during a bad burst ({} demands) —",
        demands.len()
    );
    for q in [0.50, 0.90, 0.99] {
        println!(
            "  p{:<3} x{:.2}",
            (q * 100.0) as u32,
            report.latency_quantile(q)
        );
    }
    println!("  (medians barely move — ECMP routes around the link; the tail pays)");

    // The month-scale story: repair speed decides how long the tail
    // stays inflated. E9 is the full experiment; print its table.
    println!();
    let rows = e9::run_experiment(&e9::E9Params::full(7));
    println!("{}", e9::table(&rows).render());
    println!(
        "With a robotic 15-minute repair the flap is alive for <0.04% of\n\
         the month and the monthly p999 is clean; a 2-day human window\n\
         leaves ~7% of the month exposed and the tail inflation survives."
    );
}
