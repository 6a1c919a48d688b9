//! The observability plane end to end: run a fabric with span traces
//! and the event journal enabled, use the journal to locate a *cascade*
//! incident (a fault triggered by churn from repairing a neighbor —
//! §2's false-positive amplification made physical), and print that
//! incident's full trace tree: detect latency, triage, drain waits,
//! dispatch queueing, robot travel and hands-on phases, verify — with
//! the guarantee that the top-level spans tile the service window
//! exactly, tick for tick.
//!
//! Run with: `cargo run --release --example incident_trace`

#![expect(
    clippy::print_stdout,
    reason = "an example shows its results on stdout"
)]

use selfmaint::prelude::*;

fn main() {
    // A 20-day Level-3 run with the observability plane on. Enabling it
    // perturbs nothing: the same seed without `cfg.obs` produces
    // byte-identical simulation results (the plane draws no randomness).
    let mut cfg = ScenarioConfig::at_level(7, AutomationLevel::L3);
    cfg.duration = SimDuration::from_days(20);
    cfg.obs = ObsConfig::enabled();
    let report = selfmaint::scenarios::run(cfg);
    let obs = report.obs.as_ref().expect("obs plane enabled");

    println!(
        "{} incidents over 20 days, {} of them cascades; journal captured \
         {} events ({} dropped)\n",
        report.incidents, report.cascade_incidents, obs.journal_emitted, obs.journal_dropped
    );

    // --- Find a cascade via the journal ------------------------------
    // Cascade incidents are marked at the source: the engine journals
    // every incident with a `cascade` flag. Collect the links they hit.
    let cascade_links: Vec<u64> = obs
        .journal
        .iter()
        .filter(|l| l.contains("\"ev\":\"incident\"") && l.contains("\"cascade\":true"))
        .filter_map(|l| {
            let rest = l.split("\"link\":").nth(1)?;
            rest.split(&[',', '}'][..]).next()?.parse().ok()
        })
        .collect();
    println!("journal shows cascades on links: {:?}\n", cascade_links);

    // --- Pull the matching incident trace ----------------------------
    // Tickets carry the link they were opened against; of the real
    // (non-spurious) incidents on cascade-hit links, show the one with
    // the deepest service story.
    let trace = obs
        .closed_reactive_traces()
        .filter(|t| !t.spurious && cascade_links.contains(&(t.link as u64)))
        .max_by_key(|t| t.spans().len())
        .or_else(|| obs.closed_reactive_traces().find(|t| !t.spurious))
        .expect("at least one closed reactive incident");

    println!("--- trace tree for ticket {} ---", trace.ticket);
    print!("{}", trace.render_tree());

    // --- The tiling guarantee -----------------------------------------
    let window = trace.window().expect("closed incident has a window");
    println!(
        "\ntop-level spans sum to {} vs service window {} — {}",
        trace.depth0_sum(),
        window,
        if trace.tiles_exactly() {
            "exact, to the microsecond"
        } else {
            "MISMATCH (bug!)"
        }
    );

    // And not just this one: every closed reactive incident in the run
    // decomposes exactly. The per-run breakdown table proves it in
    // aggregate (the footer row re-adds the phases against the summed
    // windows).
    println!("\n{}", report.span_breakdown_table());
}
