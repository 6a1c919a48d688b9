//! §4's "metric for self-maintainability of a network design",
//! exercised across four fabrics built over the same physical hall.
//!
//! The paper argues expander topologies (Jellyfish, Xpander) are
//! undeployed because their wiring looms are unmanageable by humans —
//! and that robotic maintenance may change the calculus. The metric
//! decomposes the problem: random fabrics lose on bundleability and
//! cable diversity, but win on drainability (path diversity means a
//! robot can take almost any link out of service to work on it).
//!
//! Run with: `cargo run --release --example topology_report`

#![expect(
    clippy::print_stdout,
    reason = "an example shows its results on stdout"
)]

use selfmaint::prelude::*;
use selfmaint::scenarios::experiments::e8;
use selfmaint::topomaint::analyze;

fn main() {
    // The standard E8 comparison (with validation sims).
    let rows = e8::run_experiment(&e8::E8Params::full(8));
    println!("{}", e8::table(&rows).render());

    // Zoom in: what exactly makes the expander hard? Compare one
    // leaf-spine and one Jellyfish at matched port counts.
    let rng = SimRng::root(8);
    let ls = selfmaint::net::gen::leaf_spine(4, 16, 2, 1, DiversityProfile::cloud_typical(), &rng);
    let jf = selfmaint::net::gen::jellyfish(20, 8, 2, DiversityProfile::cloud_typical(), &rng);
    for topo in [&ls, &jf] {
        let r = analyze(topo, 40, &rng);
        println!(
            "{:<24} bundle size {:>5.2}   cable SKUs {:>3}   drainable {:>5.1}%   M-index {:>5.1}",
            r.topology,
            r.mean_bundle_size,
            r.cable_skus,
            r.drainable_frac * 100.0,
            r.index
        );
    }
    println!(
        "\nReading: the leaf-spine routes many cables between the same\n\
         rack pairs (pre-fabricated trunk bundles); Jellyfish routes each\n\
         cable uniquely — §4's 'complex wiring looms'. Robotic deployment\n\
         and repair would attack exactly that penalty, while inheriting\n\
         the expander's superior drainability."
    );
}
