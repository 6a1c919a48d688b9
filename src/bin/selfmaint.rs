//! `selfmaint` — command-line front end for the simulator.
//!
//! ```text
//! selfmaint run   [--level L3] [--days 30] [--seed 42] [--topology leaf-spine|fat-tree|jellyfish|xpander]
//!                 [--robots-per-row 1] [--vendors 12] [--no-proactive] [--no-predictive] [--csv] [--json]
//!                 [--policy ladder|twin] [--checkpoint-every D] [--checkpoint-dir DIR] [--resume FILE]
//!                 # --policy twin wraps every repair decision in
//!                 # digital-twin planning (fork, rehearse, commit the
//!                 # argmax branch); output stays byte-reproducible
//!                 # --checkpoint-every writes a versioned snapshot of the
//!                 # full engine state every D simulated days; --resume
//!                 # restores one and continues — output is byte-identical
//!                 # to the uninterrupted run
//! selfmaint advise --mtbf-days 60 --mttr-mins 10 --need 8 --target 0.9999
//! selfmaint topo   [--seed 42]          # self-maintainability report
//! selfmaint levels                      # print the automation taxonomy
//! selfmaint trace  [--level L3] [--days 14] [--seed 42] [--incident N]
//!                  [--journal PATH]
//!                  # run with the observability plane on: incident index,
//!                  # service-window span breakdown, one incident's span
//!                  # tree (--incident) and the JSONL journal (--journal)
//! selfmaint sweep  [--seeds 8] [--jobs 1] [--days 14] [--seed 42]
//!                  [--level L3|all] [--quick] [--csv] [--obs]
//!                  [--autonomic] [--journal PATH]
//!                  [--inject-panic I] [--manifest DIR] [--resume]
//!                  # --autonomic runs every job with the MAPE-K loop on
//!                  # (DESIGN §3.16); stdout stays byte-identical for any
//!                  # --jobs value, giving an exact A/B against the same
//!                  # sweep without the flag
//!                  # seed-replicated level sweep on the work-stealing
//!                  # pool: mean ±95% CI columns, merged observability,
//!                  # byte-identical stdout for any --jobs value.
//!                  # --manifest checkpoints every finished job to DIR;
//!                  # --resume skips jobs already present there and the
//!                  # merged output stays byte-identical to an
//!                  # uninterrupted sweep
//! selfmaint profile [--level L3] [--days 14] [--seed 42] [--seeds 1]
//!                  [--quick] [--top 8]
//!                  # engine self-profiler: run one E1 scenario cell per
//!                  # seed with the obs::prof profiler on and print the
//!                  # wall-share table (each subsystem row followed by
//!                  # its per-event-kind leaves), the top-K event-kind
//!                  # counts, events/sec, wall per simulated day, queue
//!                  # high-water and peak RSS. Unlike `run`/`sweep`,
//!                  # this stdout carries wall timings and is NOT
//!                  # byte-reproducible
//! selfmaint bench  [--out BENCH.json] [--baseline PATH]
//!                  # the benchmark suite: five fixed cases (engine,
//!                  # twin, autonomic, sweep, serve), 5 reps each in one
//!                  # process, written to one BENCH.json: deterministic
//!                  # counts (identical in every rep, else exit 1),
//!                  # median timings and p25/p75 spreads. --baseline
//!                  # exits 1 on any schema or deterministic difference
//!                  # and when the engine's median events/sec falls, or
//!                  # its wall per simulated day rises, more than 50%
//! selfmaint bisect [--level L3] [--days 12] [--seed 42] [--seed-b S]
//!                  [--interval-days 2] [--quick] [--out PATH]
//!                  # divergence bisector: advance two runs checkpoint by
//!                  # checkpoint, bracket the first interval where their
//!                  # state hashes split, then replay it event-by-event
//!                  # to pin the first divergent event. By default run B
//!                  # is run A plus the nondet-demo fault injection;
//!                  # --seed-b compares two seeds instead. Exits 1 when
//!                  # a divergence is found
//! selfmaint lint   [--root DIR] [--baseline PATH] [--locks PATH]
//!                  [--json] [--write-baseline] [--list-rules]
//!                  [--explain RULE]
//!                  # dcmaint-lint determinism & hygiene pass: line
//!                  # rules plus the semantic cross-file family
//!                  # (event-coverage, rng-stream-discipline,
//!                  # lock-order vs lint-locks.txt). Exits
//!                  # nonzero on any non-baseline finding (the same
//!                  # gate CI runs); --explain RULE prints a rule's
//!                  # rationale, example, and suppression syntax
//! selfmaint serve  [--port 0] [--spool DIR] [--checkpoint-hours 24]
//!                  [--max-queue 64] [--max-attempts 3]
//!                  [--job-timeout-ms MS] [--port-file PATH]
//!                  # crash-tolerant maintenance-plane daemon: POST job
//!                  # specs to /v1/jobs (durable, fsynced ingress
//!                  # journal), stream the live obs journal from
//!                  # /v1/stream, /status + /metrics, POST /v1/shutdown
//!                  # for a graceful snapshot-and-drain. Worker panics
//!                  # and kills are recovered from the last checkpoint
//!                  # with byte-identical outputs
//! ```
//!
//! Arguments are parsed by hand — the CLI surface is small and the
//! project adds no dependency for it. The helpers live in
//! `selfmaint::scenarios::cli` (shared with the `experiments` binary)
//! and treat an unparseable flag value as a usage error, never a silent
//! fall-back to the default.

#![forbid(unsafe_code)]

use selfmaint::bench::{gate, peak_rss_bytes, run_profile, run_suite, ProfileParams, Suite, REPS};
use selfmaint::ckpt::Snapshot;
use selfmaint::control::{advise, ControllerConfig};
use selfmaint::metrics::{fnum, nines, Align, Table};
use selfmaint::prelude::*;
use selfmaint::scenarios::bisect::bisect;
use selfmaint::scenarios::cli::{flag, opt, parse_opt_maybe_or_exit, parse_opt_or_exit};
use selfmaint::scenarios::sweep::{failures_table, run_engine_sweep, EngineSweepParams};
use selfmaint::scenarios::Engine;
use selfmaint::serve::{ServeConfig, Server};

/// One dispatchable subcommand: name, one-line description, handler.
type Subcommand = (&'static str, &'static str, fn(&[String]));

/// The full subcommand surface. Both the dispatcher and the usage text
/// derive from this table, so the two can never drift apart
/// (`subcommand_table_drives_everything` pins the invariant).
const SUBCOMMANDS: &[Subcommand] = &[
    (
        "run",
        "one scenario run; --json/--csv, --checkpoint-every, --resume",
        cmd_run,
    ),
    (
        "advise",
        "spares provisioning advisor (Markov availability model)",
        cmd_advise,
    ),
    (
        "topo",
        "self-maintainability report across the four topologies",
        cmd_topo,
    ),
    ("levels", "print the automation-level taxonomy", cmd_levels),
    (
        "trace",
        "run with the observability plane: spans and journal",
        cmd_trace,
    ),
    (
        "sweep",
        "seed-replicated level sweep on the worker pool; resumable",
        cmd_sweep,
    ),
    (
        "profile",
        "engine self-profiler: span shares per subsystem and leaf, hot counters",
        cmd_profile,
    ),
    (
        "bench",
        "benchmark suite: five cases × 5 reps, BENCH.json, baseline gate",
        cmd_bench,
    ),
    (
        "bisect",
        "localize where two runs first diverge, down to the event",
        cmd_bisect,
    ),
    (
        "lint",
        "determinism & hygiene static analysis (the CI gate)",
        cmd_lint,
    ),
    (
        "serve",
        "crash-tolerant daemon: durable job queue over TCP, live journal",
        cmd_serve,
    ),
];

fn usage() -> String {
    let mut s = String::from("usage: selfmaint <command> [options]\n\ncommands:\n");
    for (name, desc, _) in SUBCOMMANDS {
        s.push_str(&format!("  {name:<8}{desc}\n"));
    }
    s.push_str(
        "\ntry: selfmaint run --level L3 --days 30\n\
         or:  selfmaint bisect --quick\n\
         or:  selfmaint sweep --seeds 8 --jobs 4\n",
    );
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let hit = args
        .first()
        .and_then(|name| SUBCOMMANDS.iter().find(|(n, _, _)| n == name));
    match hit {
        Some((_, _, handler)) => handler(&args[1..]),
        None => {
            eprint!("{}", usage());
            std::process::exit(2);
        }
    }
}

fn cmd_lint(args: &[String]) {
    std::process::exit(dcmaint_lint::run_cli(args));
}

/// `selfmaint serve`: run the crash-tolerant maintenance-plane daemon.
/// All operator chatter goes to stderr; job outputs live in the spool
/// and are fetched over HTTP, so nothing here touches the
/// deterministic-stdout contract.
fn cmd_serve(args: &[String]) {
    let mut cfg = ServeConfig::default();
    cfg.port = parse_opt_or_exit(args, "--port", cfg.port);
    if let Some(dir) = opt(args, "--spool") {
        cfg.spool = dir.to_string();
    }
    let ckpt_hours: u64 = parse_opt_or_exit(args, "--checkpoint-hours", 24);
    if ckpt_hours == 0 {
        eprintln!("--checkpoint-hours must be at least 1");
        std::process::exit(2);
    }
    cfg.checkpoint_every = SimDuration::from_hours(ckpt_hours);
    cfg.max_queue = parse_opt_or_exit(args, "--max-queue", cfg.max_queue);
    cfg.max_attempts = parse_opt_or_exit(args, "--max-attempts", cfg.max_attempts);
    if cfg.max_attempts == 0 {
        eprintln!("--max-attempts must be at least 1");
        std::process::exit(2);
    }
    cfg.job_timeout_ms = parse_opt_maybe_or_exit(args, "--job-timeout-ms");

    let spool = cfg.spool.clone();
    let server = Server::start(cfg).unwrap_or_else(|e| {
        eprintln!("cannot start serve daemon: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "selfmaint serve listening on 127.0.0.1:{} (spool {spool})",
        server.port()
    );
    // Tooling that started us with --port 0 discovers the bound port
    // here; tmp + rename so a reader never sees a half-written file.
    if let Some(path) = opt(args, "--port-file") {
        let tmp = format!("{path}.tmp");
        let write = std::fs::write(&tmp, format!("{}\n", server.port()))
            .and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = write {
            eprintln!("cannot write port file {path}: {e}");
            std::process::exit(1);
        }
    }
    server.join();
    eprintln!("selfmaint serve: drained cleanly");
}

fn parse_level(s: &str) -> AutomationLevel {
    match s.to_ascii_uppercase().as_str() {
        "L0" | "0" => AutomationLevel::L0,
        "L1" | "1" => AutomationLevel::L1,
        "L2" | "2" => AutomationLevel::L2,
        "L3" | "3" => AutomationLevel::L3,
        "L4" | "4" => AutomationLevel::L4,
        other => {
            eprintln!("unknown level {other:?} (use L0..L4)");
            std::process::exit(2);
        }
    }
}

fn cmd_run(args: &[String]) {
    let level = parse_level(opt(args, "--level").unwrap_or("L3"));
    let days: u64 = parse_opt_or_exit(args, "--days", 30);
    let seed: u64 = parse_opt_or_exit(args, "--seed", 42);
    let mut cfg = ScenarioConfig::at_level(seed, level);
    cfg.duration = SimDuration::from_days(days);
    if let Some(t) = opt(args, "--topology") {
        cfg.topology = match t {
            "leaf-spine" => TopologySpec::LeafSpine {
                spines: 4,
                leaves: 16,
                servers_per_leaf: 8,
            },
            "fat-tree" => TopologySpec::FatTree { k: 4 },
            "jellyfish" => TopologySpec::Jellyfish {
                switches: 20,
                degree: 8,
                servers_per_switch: 4,
            },
            "xpander" => TopologySpec::Xpander {
                d: 7,
                lift: 3,
                servers_per_switch: 4,
            },
            other => {
                eprintln!("unknown topology {other:?}");
                std::process::exit(2);
            }
        };
    }
    cfg.robots_per_row = parse_opt_or_exit(args, "--robots-per-row", cfg.robots_per_row);
    if let Some(v) = parse_opt_maybe_or_exit::<u8>(args, "--vendors") {
        cfg.diversity = DiversityProfile { vendor_count: v };
    }
    if flag(args, "--no-proactive") || flag(args, "--no-predictive") {
        let mut ctl = ControllerConfig::at_level(level);
        if flag(args, "--no-proactive") {
            ctl.proactive = None;
        }
        if flag(args, "--no-predictive") {
            ctl.predictive = None;
        }
        cfg.controller = Some(ctl);
    }
    if let Some(policy) = opt(args, "--policy") {
        cfg.twin = match policy {
            "ladder" => TwinPolicy::Ladder,
            "twin" => TwinPolicy::TwinGuided(TwinConfig::default()),
            other => {
                eprintln!("unknown policy {other:?} (want ladder|twin)");
                std::process::exit(2);
            }
        };
    }

    let ckpt_every: Option<u64> = parse_opt_maybe_or_exit(args, "--checkpoint-every");
    let ckpt_dir = opt(args, "--checkpoint-dir").unwrap_or(".").to_string();
    let resume = opt(args, "--resume").map(str::to_string);

    eprintln!(
        "running {days} simulated days at {} (seed {seed})…",
        level.label()
    );
    let mut report = if ckpt_every.is_none() && resume.is_none() {
        selfmaint::scenarios::run(cfg)
    } else {
        run_with_checkpoints(cfg, ckpt_every, &ckpt_dir, resume.as_deref())
    };
    if flag(args, "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report.summary_json()).expect("serializable")
        );
        return;
    }

    let mut t = Table::new(
        &format!("{} — {} days", level.name(), days),
        &[("metric", Align::Left), ("value", Align::Right)],
    );
    t.row(vec!["links".into(), report.links.to_string()]);
    t.row(vec!["incidents".into(), report.incidents.to_string()]);
    t.row(vec![
        "cascade incidents".into(),
        report.cascade_incidents.to_string(),
    ]);
    t.row(vec!["tickets".into(), report.tickets_total().to_string()]);
    t.row(vec![
        "tickets fixed / spurious".into(),
        format!("{} / {}", report.tickets_fixed, report.tickets_spurious),
    ]);
    t.row(vec![
        "median service window".into(),
        report.median_service_window().to_string(),
    ]);
    t.row(vec![
        "p95 service window".into(),
        report.p95_service_window().to_string(),
    ]);
    t.row(vec![
        "mean attempts / fix".into(),
        fnum(report.mean_attempts(), 2),
    ]);
    t.row(vec![
        "availability".into(),
        format!(
            "{} ({} nines)",
            fnum(report.availability.availability, 5),
            fnum(nines(report.availability.availability), 2)
        ),
    ]);
    t.row(vec!["tech time".into(), report.tech_time.to_string()]);
    t.row(vec![
        "robot ops / escalations".into(),
        format!("{} / {}", report.robot_ops, report.human_escalations),
    ]);
    t.row(vec![
        "campaigns / links serviced".into(),
        format!("{} / {}", report.campaigns, report.campaign_links),
    ]);
    t.row(vec!["total cost $".into(), fnum(report.costs.total(), 0)]);
    if let Some(twin) = &report.twin {
        t.row(vec![
            "twin decisions / forks / committed".into(),
            format!("{} / {} / {}", twin.decisions, twin.forks, twin.committed),
        ]);
        t.row(vec![
            "twin predicted availability".into(),
            fnum(twin.mean_predicted_availability, 5),
        ]);
    }
    if flag(args, "--csv") {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.render());
    }
}

/// `run` with the checkpoint/restore machinery engaged: restore from a
/// snapshot file (`--resume`) and/or write one every `--checkpoint-every`
/// days. The event sequence is the continuous run's — checkpoints are
/// cut at `run_until` boundaries that the uninterrupted engine also
/// passes through — so the report and stdout stay byte-identical.
fn run_with_checkpoints(
    cfg: ScenarioConfig,
    every_days: Option<u64>,
    dir: &str,
    resume: Option<&str>,
) -> RunReport {
    let end = SimTime::ZERO + cfg.duration;
    let mut eng = match resume {
        Some(path) => {
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("cannot read checkpoint {path}: {e}");
                std::process::exit(1);
            });
            let snap = Snapshot::from_bytes(&bytes).unwrap_or_else(|e| {
                eprintln!("corrupt checkpoint {path}: {e}");
                std::process::exit(1);
            });
            let eng = Engine::restore(cfg, &snap).unwrap_or_else(|e| {
                eprintln!("checkpoint {path} does not match this configuration: {e}");
                std::process::exit(1);
            });
            eprintln!(
                "resumed from {path} at day {:.2} (state {})",
                eng.now().as_micros() as f64 / 86_400e6,
                eng.state_hash()
            );
            eng
        }
        None => Engine::new(cfg),
    };
    if let Some(days) = every_days {
        if days == 0 {
            eprintln!("--checkpoint-every must be at least 1");
            std::process::exit(2);
        }
        let step = SimDuration::from_days(days);
        let mut t = eng.now();
        while t < end {
            t = (t + step).min(end);
            eng.run_until(t);
            let path = format!("{dir}/ckpt-day-{:04}.bin", t.as_micros() / 86_400_000_000);
            std::fs::write(&path, eng.snapshot().to_bytes()).unwrap_or_else(|e| {
                eprintln!("cannot write checkpoint {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("checkpoint written: {path} (state {})", eng.state_hash());
        }
    }
    while eng.step_event().is_some() {}
    eng.finish_report()
}

fn cmd_advise(args: &[String]) {
    let mtbf_days: u64 = parse_opt_or_exit(args, "--mtbf-days", 60);
    let mttr_mins: u64 = parse_opt_or_exit(args, "--mttr-mins", 10);
    let need: usize = parse_opt_or_exit(args, "--need", 8);
    let target: f64 = parse_opt_or_exit(args, "--target", 0.9999);
    let adv = advise(
        SimDuration::from_days(mtbf_days),
        SimDuration::from_mins(mttr_mins),
        need,
        target,
    );
    println!(
        "need {} working, MTBF {mtbf_days} d, MTTR {mttr_mins} min, target {target}:\n\
         provision n = {} ({} spares), achieved availability {:.7}\n\
         (per-member availability {:.7})",
        adv.k, adv.n, adv.spares, adv.achieved, adv.member_availability
    );
}

fn cmd_topo(args: &[String]) {
    let seed: u64 = parse_opt_or_exit(args, "--seed", 42);
    let rng = SimRng::root(seed);
    let mut t = Table::new(
        "self-maintainability",
        &[
            ("topology", Align::Left),
            ("links", Align::Right),
            ("bundle", Align::Right),
            ("SKUs", Align::Right),
            ("blast", Align::Right),
            ("drainable", Align::Right),
            ("M-index", Align::Right),
        ],
    );
    for topo in [
        selfmaint::net::gen::leaf_spine(4, 16, 2, 1, DiversityProfile::cloud_typical(), &rng),
        selfmaint::net::gen::fat_tree(4, DiversityProfile::cloud_typical(), &rng),
        selfmaint::net::gen::jellyfish(20, 8, 2, DiversityProfile::cloud_typical(), &rng),
        selfmaint::net::gen::xpander(7, 3, 2, DiversityProfile::cloud_typical(), &rng),
    ] {
        let r = selfmaint::topomaint::analyze(&topo, 40, &rng);
        t.row(vec![
            r.topology.clone(),
            r.links.to_string(),
            fnum(r.mean_bundle_size, 2),
            r.cable_skus.to_string(),
            fnum(r.mean_blast_radius, 1),
            fnum(r.drainable_frac, 2),
            fnum(r.index, 1),
        ]);
    }
    print!("{}", t.render());
}

fn cmd_trace(args: &[String]) {
    let level = parse_level(opt(args, "--level").unwrap_or("L3"));
    let days: u64 = parse_opt_or_exit(args, "--days", 14);
    let seed: u64 = parse_opt_or_exit(args, "--seed", 42);
    let incident: Option<usize> = parse_opt_maybe_or_exit(args, "--incident");

    let mut cfg = ScenarioConfig::at_level(seed, level);
    cfg.duration = SimDuration::from_days(days);
    cfg.obs = ObsConfig::enabled();

    eprintln!(
        "tracing {days} simulated days at {} (seed {seed})…",
        level.label()
    );
    let report = selfmaint::scenarios::run(cfg);
    let obs = report.obs.as_ref().expect("obs plane was enabled");

    let mut t = Table::new(
        &format!("closed reactive incidents — {} days, seed {seed}", days),
        &[
            ("#", Align::Right),
            ("ticket", Align::Right),
            ("link", Align::Right),
            ("trigger", Align::Left),
            ("priority", Align::Left),
            ("detect", Align::Right),
            ("window", Align::Right),
            ("tiles", Align::Left),
        ],
    );
    for (i, tr) in obs.closed_reactive_traces().enumerate() {
        t.row(vec![
            i.to_string(),
            tr.ticket.to_string(),
            tr.link.to_string(),
            tr.trigger.to_string(),
            tr.priority.to_string(),
            tr.detect_latency()
                .map_or_else(|| "-".into(), |d| d.to_string()),
            tr.window().map_or_else(|| "-".into(), |w| w.to_string()),
            if tr.tiles_exactly() { "exact" } else { "GAP!" }.into(),
        ]);
    }
    print!("{}", t.render());
    println!();
    print!("{}", report.span_breakdown_table());

    if let Some(n) = incident {
        match obs.closed_reactive_traces().nth(n) {
            Some(tr) => {
                println!();
                print!("{}", tr.render_tree());
            }
            None => {
                eprintln!(
                    "no closed reactive incident #{n} in this run \
                     (see the index table for valid values)"
                );
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = opt(args, "--journal") {
        let mut body = obs.journal.join("\n");
        body.push('\n');
        std::fs::write(path, body).unwrap_or_else(|e| {
            eprintln!("cannot write journal to {path}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "journal: {} lines written to {path} ({} emitted, {} dropped)",
            obs.journal.len(),
            obs.journal_emitted,
            obs.journal_dropped
        );
    }
}

fn cmd_sweep(args: &[String]) {
    let seeds: u64 = parse_opt_or_exit(args, "--seeds", 8);
    let jobs: usize = parse_opt_or_exit(args, "--jobs", 1);
    let days: u64 = parse_opt_or_exit(args, "--days", 14);
    let seed: u64 = parse_opt_or_exit(args, "--seed", 42);
    let quick = flag(args, "--quick");
    let journal_path = opt(args, "--journal").map(str::to_string);
    let obs = flag(args, "--obs") || journal_path.is_some();
    let inject_panic: Option<usize> = parse_opt_maybe_or_exit(args, "--inject-panic");
    let manifest = opt(args, "--manifest").map(str::to_string);
    let resume = flag(args, "--resume");
    let levels = match opt(args, "--level") {
        None | Some("all") => AutomationLevel::ALL.to_vec(),
        Some(s) => vec![parse_level(s)],
    };
    if seeds == 0 {
        eprintln!("--seeds must be at least 1");
        std::process::exit(2);
    }
    if resume && manifest.is_none() {
        eprintln!("--resume requires --manifest DIR (the checkpoints to resume from)");
        std::process::exit(2);
    }
    if resume {
        // Fail loudly on a corrupt checkpoint *before* burning compute:
        // silently re-running the job would mask disk trouble.
        let dir = manifest.as_deref().expect("checked above");
        match selfmaint::scenarios::sweep::verify_manifest(dir) {
            Ok(n) => eprintln!("manifest {dir}: {n} job checkpoint(s) verified"),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
    }

    let p = EngineSweepParams {
        base_seed: seed,
        seeds,
        jobs,
        days,
        levels,
        small_fabric: quick,
        obs,
        profiling: flag(args, "--profile"),
        autonomic: flag(args, "--autonomic"),
        inject_panic,
        manifest,
        resume,
    };
    eprintln!(
        "sweeping {} level(s) × {} seed(s) on {} worker(s), {} simulated days each…",
        p.levels.len(),
        seeds,
        jobs.max(1),
        days
    );
    let out = run_engine_sweep(&p);

    if flag(args, "--csv") {
        print!("{}", out.table.to_csv());
    } else {
        print!("{}", out.table.render());
    }
    if !out.failures.is_empty() {
        println!();
        print!("{}", failures_table(&out.failures).render());
    }
    if let Some(reg) = &out.registry {
        let mut t = Table::new(
            "merged obs counters (all replicates)",
            &[("counter", Align::Left), ("value", Align::Right)],
        );
        for (name, v) in reg.counters_sorted() {
            t.row(vec![name.to_string(), v.to_string()]);
        }
        println!();
        print!("{}", t.render());
    }
    if let Some(path) = &journal_path {
        let mut body = out.journal.join("\n");
        body.push('\n');
        std::fs::write(path, body).unwrap_or_else(|e| {
            eprintln!("cannot write journal to {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("journal: {} lines written to {path}", out.journal.len());
    }

    if !out.failures.is_empty() {
        std::process::exit(1);
    }
}

/// `selfmaint profile`: the engine self-profiler. Runs one E1 scenario
/// cell per seed with `obs::prof` on and prints the wall-share table
/// (each subsystem row followed by its leaves, indented) and the top-K
/// event-kind counts. Unlike `run`/`sweep`, stdout here carries wall
/// timings and is *not* byte-reproducible.
fn cmd_profile(args: &[String]) {
    let p = ProfileParams {
        level: parse_level(opt(args, "--level").unwrap_or("L3")),
        days: parse_opt_or_exit(args, "--days", 14),
        base_seed: parse_opt_or_exit(args, "--seed", 42),
        seeds: parse_opt_or_exit(args, "--seeds", 1),
        quick: flag(args, "--quick"),
    };
    if p.seeds == 0 || p.days == 0 {
        eprintln!("--seeds and --days must be at least 1");
        std::process::exit(2);
    }
    let top: usize = parse_opt_or_exit(args, "--top", 8);

    eprintln!("profiling {}…", p.scenario_label());
    let out = run_profile(&p);
    let report = &out.report;
    let mut t = Table::new(
        &format!("engine profile — {}", p.scenario_label()),
        &[
            ("subsystem", Align::Left),
            ("spans", Align::Right),
            ("wall ms", Align::Right),
            ("share", Align::Right),
        ],
    );
    for (name, ns, spans, pct) in out.table_rows() {
        t.row(vec![
            name,
            spans.to_string(),
            format!("{:.3}", ns as f64 / 1e6),
            format!("{pct:.1}%"),
        ]);
    }
    print!("{}", t.render());
    println!();
    let mut ev = Table::new(
        &format!("event kinds (top {top} of {})", out.event_kinds.len()),
        &[("event", Align::Left), ("count", Align::Right)],
    );
    for (kind, n) in out.event_kinds.iter().take(top) {
        ev.row(vec![kind.clone(), n.to_string()]);
    }
    print!("{}", ev.render());
    println!();
    println!(
        "events: {}   events/sec: {:.0}   wall/sim-day: {:.3}s   \
         queue high-water: {}   peak RSS: {:.1} MiB",
        out.events,
        report.timing["events-per-sec"],
        report.timing["wall-per-sim-day-s"],
        report.deterministic["queue-high-water"],
        peak_rss_bytes() as f64 / (1024.0 * 1024.0),
    );
}

/// `selfmaint bench`: run the suite's five cases [`REPS`] times each,
/// print each case's end-to-end medians and spreads, and write the
/// suite to `--out` (default `BENCH.json`). With `--baseline`, exit 1
/// naming every problem the gate finds. Like `profile`, stdout carries
/// wall timings and is not byte-reproducible.
fn cmd_bench(args: &[String]) {
    let out_path = opt(args, "--out").unwrap_or("BENCH.json");
    // Read the baseline first, so a bad path fails before the suite runs.
    let baseline = opt(args, "--baseline").map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(1);
        });
        Suite::from_json(&text).unwrap_or_else(|e| {
            eprintln!("baseline {path} is not a BENCH.json suite: {e}");
            std::process::exit(1);
        })
    });

    eprintln!("bench: {REPS} reps per case…");
    let suite = run_suite(|name| eprintln!("  {name}")).unwrap_or_else(|e| {
        eprintln!("bench failed: {e}");
        std::process::exit(1);
    });
    let mut t = Table::new(
        &format!("bench — end-to-end medians of {REPS} reps"),
        &[
            ("case", Align::Left),
            ("metric", Align::Left),
            ("median", Align::Right),
            ("p25", Align::Right),
            ("p75", Align::Right),
            ("baseline", Align::Right),
        ],
    );
    for (name, case) in &suite.cases {
        for key in case.spread.keys().filter_map(|k| k.strip_suffix("/p25")) {
            let base = baseline
                .as_ref()
                .and_then(|b| b.cases.get(name)?.timing.get(key).copied());
            t.row(vec![
                name.clone(),
                key.to_string(),
                sig(case.timing[key]),
                sig(case.spread[&format!("{key}/p25")]),
                sig(case.spread[&format!("{key}/p75")]),
                base.map_or_else(|| "-".to_string(), sig),
            ]);
        }
    }
    print!("{}", t.render());
    println!(
        "peak RSS: {:.1} MiB",
        suite.peak_rss_bytes as f64 / (1024.0 * 1024.0)
    );
    std::fs::write(out_path, suite.to_json()).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("bench suite written to {out_path}");

    if let Some(base) = &baseline {
        let problems = gate(&suite, base);
        for p in &problems {
            eprintln!("GATE: {p}");
        }
        if !problems.is_empty() {
            std::process::exit(1);
        }
        eprintln!("baseline gate: pass");
    }
}

/// `v` to four significant digits.
fn sig(v: f64) -> String {
    let magnitude = if v == 0.0 {
        0
    } else {
        v.abs().log10().floor() as i64
    };
    format!("{v:.*}", (3 - magnitude).clamp(0, 9) as usize)
}

fn cmd_bisect(args: &[String]) {
    let level = parse_level(opt(args, "--level").unwrap_or("L3"));
    let days: u64 = parse_opt_or_exit(args, "--days", 12);
    let seed: u64 = parse_opt_or_exit(args, "--seed", 42);
    let seed_b: Option<u64> = parse_opt_maybe_or_exit(args, "--seed-b");
    let interval_days: u64 = parse_opt_or_exit(args, "--interval-days", 2);
    let quick = flag(args, "--quick");
    let out_path = opt(args, "--out").map(str::to_string);
    if interval_days == 0 {
        eprintln!("--interval-days must be at least 1");
        std::process::exit(2);
    }

    let build = |seed: u64| {
        let mut cfg = ScenarioConfig::at_level(seed, level);
        cfg.duration = SimDuration::from_days(days);
        if quick {
            cfg.topology = TopologySpec::LeafSpine {
                spines: 2,
                leaves: 4,
                servers_per_leaf: 2,
            };
            cfg.poll_period = SimDuration::from_secs(120);
            cfg.faults.mtbi_per_link = SimDuration::from_days(15);
        }
        cfg
    };
    let cfg_a = build(seed);
    let mut cfg_b = build(seed_b.unwrap_or(seed));
    match seed_b {
        Some(s) => eprintln!(
            "bisecting seed {seed} against seed {s} over {days} days \
             ({interval_days}-day checkpoints)…"
        ),
        None => {
            // The demo mode: run B is run A plus the deliberately
            // nondeterministic fault targeting, so the bisector has a
            // genuine HashMap-iteration bug to localize.
            cfg_b.nondet_demo = true;
            eprintln!(
                "bisecting a clean run against its nondet-demo twin over \
                 {days} days ({interval_days}-day checkpoints)…"
            );
        }
    }

    let report = bisect(cfg_a, cfg_b, SimDuration::from_days(interval_days)).unwrap_or_else(|e| {
        eprintln!("bisect failed: {e}");
        std::process::exit(1);
    });
    let mut body = report.lines().join("\n");
    body.push('\n');
    print!("{body}");
    if let Some(path) = &out_path {
        std::fs::write(path, &body).unwrap_or_else(|e| {
            eprintln!("cannot write report to {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("divergence report written to {path}");
    }
    if report.diverged() {
        std::process::exit(1);
    }
}

fn cmd_levels(_args: &[String]) {
    for l in AutomationLevel::ALL {
        println!(
            "{}  {:<20}  proactive: {:<3}  supervisor: {:<3}  humans in halls: {}",
            l.label(),
            l.name(),
            if l.proactive_allowed() { "yes" } else { "no" },
            if l.needs_supervisor() { "yes" } else { "no" },
            if l.escalation_enters_hall() {
                "yes"
            } else {
                "no"
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SUBCOMMANDS table is the single source of truth: the
    /// dispatcher matches against it and the usage text is generated
    /// from it. This pins the documented surface, forbids duplicates,
    /// and checks the generated usage really lists every entry — add a
    /// command to the table and this test names the places to update.
    #[test]
    fn subcommand_table_drives_everything() {
        let names: Vec<&str> = SUBCOMMANDS.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(
            names,
            [
                "run", "advise", "topo", "levels", "trace", "sweep", "profile", "bench", "bisect",
                "lint", "serve"
            ],
            "subcommand surface changed — update this test and the crate docs"
        );
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate subcommand name");

        let u = usage();
        for (name, desc, _) in SUBCOMMANDS {
            assert!(!desc.is_empty(), "{name} has no description");
            assert!(u.contains(name), "usage text does not list {name}");
            assert!(u.contains(desc), "usage text lost {name}'s description");
        }
    }

    /// Dispatcher-sync for `selfmaint lint`: every flag the lint CLI
    /// parses must appear in this binary's crate-level usage block, so
    /// `selfmaint lint --help`-style documentation can't drift behind
    /// the flag surface (the `--locks`/`--explain` additions included).
    #[test]
    fn lint_flags_documented_in_dispatcher_usage() {
        let doc = include_str!("selfmaint.rs");
        let lint_block: String = doc
            .lines()
            .skip_while(|l| !l.contains("selfmaint lint"))
            .take_while(|l| l.starts_with("//!") && !l.contains("selfmaint serve"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            lint_block.contains("selfmaint lint"),
            "crate docs lost the `selfmaint lint` usage block"
        );
        for flag in dcmaint_lint::CLI_FLAGS {
            assert!(
                lint_block.contains(flag),
                "crate docs' `selfmaint lint` usage is missing {flag}"
            );
        }
    }

    /// Every subcommand the doc comment documents is dispatchable, so
    /// the long-form help at the top of this file cannot advertise a
    /// command the binary rejects.
    #[test]
    fn doc_comment_matches_the_table() {
        let doc = include_str!("selfmaint.rs");
        for (name, _, _) in SUBCOMMANDS {
            assert!(
                doc.contains(&format!("selfmaint {name}")),
                "doc comment does not document `selfmaint {name}`"
            );
        }
    }
}
