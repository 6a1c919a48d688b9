//! Figure 2, step by step: the fiber / transceiver cleaning robot.
//!
//! §3.3.2: the unit detaches the cable from the transceiver, inspects
//! every fiber core (< 30 s for 8 cores — faster than a well-trained
//! human), dry-cleans, re-inspects, wet-cleans stubborn contamination,
//! re-inspects again, and reassembles "to minimize the risk of
//! recontamination". When it cannot verify cleanliness it requests human
//! support.
//!
//! Run with: `cargo run --release --example cleaning_robot`

#![expect(
    clippy::print_stdout,
    reason = "an example shows its results on stdout"
)]

use selfmaint::faults::EndFace;
use selfmaint::prelude::*;
use selfmaint::robotics::{run_clean, OpTimings, VisionModel};
use selfmaint::scenarios::experiments::e6;

fn main() {
    let rng = SimRng::root(99);
    let mut stream = rng.stream("demo", 0);
    let timings = OpTimings::default();
    let vision = VisionModel::default();

    // A field-contaminated 8-core MPO end-face arrives at the unit.
    let mut end_face = EndFace::contaminated(8, 0.85, &mut stream);
    println!("— incoming 8-core MPO end-face —");
    for core in 0..end_face.core_count() {
        let dirt = end_face.core(core);
        let verdict = if dirt > EndFace::PASS_THRESHOLD {
            "FAIL"
        } else {
            "pass"
        };
        println!("  core {core}: dirt {dirt:.2}  [{verdict}]");
    }
    println!(
        "  worst core {:.2}, loss contribution {:.4}\n",
        end_face.worst(),
        end_face.loss_contribution()
    );

    // Run the full pipeline and print the phase trace.
    let result = run_clean(
        &timings,
        &vision,
        12.0, /* travel m */
        0.4,  /* fleet diversity */
        0.3,  /* faceplate density */
        &mut end_face,
        &mut stream,
    );
    println!("— cleaning pipeline trace —");
    let mut t = SimTime::ZERO;
    for phase in &result.phases {
        println!("  {t}  {:<13} {}", phase.phase.label(), phase.duration);
        t += phase.duration;
    }
    println!(
        "\n  total {}   success: {}   escalated to human: {}",
        result.total(),
        result.success,
        result.escalated
    );
    println!(
        "  end-face after: worst core {:.3} (passes: {})\n",
        end_face.worst(),
        end_face.passes_inspection()
    );

    // The paper's headline timing claims, as the E6 sweep.
    let rows = e6::run_experiment(&e6::E6Params::full(99));
    println!("{}", e6::table(&rows).render());
    println!(
        "Claim C1: the 8-core inspection pass stays under 30 s (vs ~70 s\n\
         for a trained human with a handheld scope); claim C2: the whole\n\
         detach-inspect-clean-reassemble cycle lands in the minutes range."
    );
}
