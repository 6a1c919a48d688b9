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
//!                  [--profile] [--autonomic] [--journal PATH]
//!                  [--inject-panic I] [--manifest DIR] [--resume]
//!                  # --profile runs every job with the engine
//!                  # self-profiler on and prints the merged `prof/…`
//!                  # counters with the obs counters
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
//! selfmaint experiments [ID ...] [--quick] [--csv | --jsonl]
//!                  [--seeds 1] [--jobs 1] [--seed 2024]
//!                  # the EXPERIMENTS.md tables of each ID (e1..e16,
//!                  # a1..a3; all 19 by default). --quick runs E14–E16
//!                  # at their CI presets, the other 16 at full size (the
//!                  # golden tests/fixtures/experiments-quick.txt).
//!                  # --seeds K folds K seed replicates into mean ±95% CI
//!                  # cells, byte-identical for any --jobs. Exits 1 when
//!                  # a job fails
//! ```
//!
//! Each command accepts only the arguments it declares in `SUBCOMMANDS`.
//! Anything else (`--help` included) or a value that does not parse
//! exits 2 with the reason and the command's synopsis on stderr, before
//! anything runs; a failure at run time exits 1.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the command line is this binary's interface"
)]

use std::collections::BTreeMap;
use std::fmt::Display;
use std::num::{NonZeroU32, NonZeroU64, NonZeroUsize};
use std::str::FromStr;

use selfmaint::bench::{gate, peak_rss_bytes, run_profile, run_suite, ProfileParams, Suite, REPS};
use selfmaint::ckpt::Snapshot;
use selfmaint::control::{advise, ControllerConfig};
use selfmaint::metrics::{fnum, nines, Align, Table};
use selfmaint::prelude::*;
use selfmaint::scenarios::bisect::bisect;
use selfmaint::scenarios::{failures_table, is_experiment, run_engine_sweep, run_experiment_sweep};
use selfmaint::scenarios::{Engine, EngineSweepParams, ReportFormat, EXPERIMENTS};
use selfmaint::serve::{ServeConfig, Server};

/// One dispatchable subcommand.
#[derive(Debug)]
struct Subcommand {
    name: &'static str,
    about: &'static str,
    /// `--flag` is a switch, `--flag VALUE` a value flag, and a word
    /// without dashes a placeholder that admits bare words.
    args: &'static [&'static str],
    /// An `Err` is a usage error: exit 2 with the command's synopsis.
    run: fn(&Args) -> Result<(), String>,
}

/// The full subcommand surface. The dispatcher, the parser, the command
/// list and each command's synopsis derive from this table, so none of
/// them can drift from the others (`subcommand_table_drives_everything`
/// and `doc_comment_matches_the_table` pin it).
const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "run",
        about: "one scenario run; --json/--csv, --checkpoint-every, --resume",
        args: &[
            "--level L",
            "--days N",
            "--seed S",
            "--topology T",
            "--robots-per-row N",
            "--vendors N",
            "--no-proactive",
            "--no-predictive",
            "--csv",
            "--json",
            "--policy P",
            "--checkpoint-every D",
            "--checkpoint-dir DIR",
            "--resume FILE",
        ],
        run: cmd_run,
    },
    Subcommand {
        name: "advise",
        about: "spares provisioning advisor (Markov availability model)",
        args: &["--mtbf-days D", "--mttr-mins M", "--need K", "--target A"],
        run: cmd_advise,
    },
    Subcommand {
        name: "topo",
        about: "self-maintainability report across the four topologies",
        args: &["--seed S"],
        run: cmd_topo,
    },
    Subcommand {
        name: "levels",
        about: "print the automation-level taxonomy",
        args: &[],
        run: cmd_levels,
    },
    Subcommand {
        name: "trace",
        about: "run with the observability plane: spans and journal",
        args: &[
            "--level L",
            "--days N",
            "--seed S",
            "--incident N",
            "--journal PATH",
        ],
        run: cmd_trace,
    },
    Subcommand {
        name: "sweep",
        about: "seed-replicated level sweep on the worker pool; resumable",
        args: &[
            "--seeds K",
            "--jobs N",
            "--days N",
            "--seed S",
            "--level L",
            "--quick",
            "--csv",
            "--obs",
            "--profile",
            "--autonomic",
            "--journal PATH",
            "--inject-panic I",
            "--manifest DIR",
            "--resume",
        ],
        run: cmd_sweep,
    },
    Subcommand {
        name: "profile",
        about: "engine self-profiler: span shares per subsystem and leaf, hot counters",
        args: &[
            "--level L",
            "--days N",
            "--seed S",
            "--seeds K",
            "--quick",
            "--top K",
        ],
        run: cmd_profile,
    },
    Subcommand {
        name: "bench",
        about: "benchmark suite: five cases × 5 reps, BENCH.json, baseline gate",
        args: &["--out PATH", "--baseline PATH"],
        run: cmd_bench,
    },
    Subcommand {
        name: "bisect",
        about: "localize where two runs first diverge, down to the event",
        args: &[
            "--level L",
            "--days N",
            "--seed S",
            "--seed-b S",
            "--interval-days N",
            "--quick",
            "--out PATH",
        ],
        run: cmd_bisect,
    },
    Subcommand {
        name: "serve",
        about: "crash-tolerant daemon: durable job queue over TCP, live journal",
        args: &[
            "--port P",
            "--spool DIR",
            "--checkpoint-hours H",
            "--max-queue N",
            "--max-attempts N",
            "--job-timeout-ms MS",
            "--port-file PATH",
        ],
        run: cmd_serve,
    },
    Subcommand {
        name: "experiments",
        about: "regenerate the EXPERIMENTS.md tables; seed-replicated on the pool",
        args: &[
            "ID ...",
            "--quick",
            "--csv",
            "--jsonl",
            "--seeds K",
            "--jobs N",
            "--seed S",
        ],
        run: cmd_experiments,
    },
];

impl Subcommand {
    /// `usage: selfmaint <name> [<arg>] …`.
    fn synopsis(&self) -> String {
        let args: String = self.args.iter().map(|a| format!(" [{a}]")).collect();
        format!("usage: selfmaint {}{args}", self.name)
    }

    /// The declaration of flag `name`, if the command has one.
    fn flag(&self, name: &str) -> Option<&'static str> {
        let named = |d: &&str| d.starts_with("--") && d.split(' ').next() == Some(name);
        self.args.iter().copied().find(named)
    }
}

/// A command line that passed its command's declared list.
#[derive(Debug)]
struct Args {
    cmd: &'static Subcommand,
    /// Each given flag, with its value (`None` for a switch).
    flags: BTreeMap<&'static str, Option<String>>,
    /// The bare words, in order.
    bare: Vec<String>,
}

/// Check `argv` (the words after the command name) against `cmd`'s
/// declared arguments. Pure: it reads nothing and prints nothing.
fn parse(cmd: &'static Subcommand, argv: &[String]) -> Result<Args, String> {
    let takes_bare = cmd.args.iter().any(|a| !a.starts_with("--"));
    let (mut flags, mut bare) = (BTreeMap::new(), Vec::new());
    let mut words = argv.iter();
    while let Some(word) = words.next() {
        if takes_bare && !word.starts_with('-') {
            bare.push(word.clone());
            continue;
        }
        let decl = cmd
            .flag(word)
            .ok_or_else(|| format!("unknown argument {word:?}"))?;
        let (name, value) = match decl.split_once(' ') {
            None => (decl, None),
            Some((name, _)) => match words.next() {
                Some(v) if !v.starts_with("--") => (name, Some(v.clone())),
                _ => return Err(format!("{name} needs a value")),
            },
        };
        if flags.insert(name, value).is_some() {
            return Err(format!("{name} given twice"));
        }
    }
    Ok(Args { cmd, flags, bare })
}

impl Args {
    /// What the command line gave for `name`. Reading a flag the
    /// command does not declare is a bug in its handler, so it panics.
    fn given(&self, name: &str) -> Option<&Option<String>> {
        let cmd = self.cmd.name;
        let declared = self.cmd.flag(name).is_some();
        assert!(declared, "`selfmaint {cmd}` does not declare {name}");
        self.flags.get(name)
    }

    /// Is the switch `name` given?
    fn flag(&self, name: &str) -> bool {
        self.given(name).is_some()
    }

    /// The value given for the value flag `name`.
    fn value(&self, name: &str) -> Option<&str> {
        self.given(name)?.as_deref()
    }

    /// The value of `name` parsed as a `T`, `None` when the flag is
    /// absent. A value that does not parse is an error naming the flag
    /// and the value, never a fall-back to a default.
    fn parse<T: FromStr<Err: Display>>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |raw: &str| {
            raw.parse()
                .map_err(|e| format!("invalid value {raw:?} for {name}: {e}"))
        };
        self.value(name).map(parse).transpose()
    }

    /// [`Args::parse`], with `default` when the flag is absent.
    fn parse_or<T: FromStr<Err: Display>>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.parse(name)?.unwrap_or(default))
    }
}

fn usage() -> String {
    let mut s = String::from("usage: selfmaint <command> [options]\n\ncommands:\n");
    for c in SUBCOMMANDS {
        s.push_str(&format!("  {:<13}{}\n", c.name, c.about));
    }
    s.push_str(
        "\ntry: selfmaint run --level L3 --days 30\n\
         or:  selfmaint bisect --quick\n\
         or:  selfmaint sweep --seeds 8 --jobs 4\n",
    );
    s
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv
        .first()
        .and_then(|name| SUBCOMMANDS.iter().find(|c| c.name == name))
    else {
        eprint!("{}", usage());
        std::process::exit(2);
    };
    if let Err(e) = parse(cmd, &argv[1..]).and_then(|args| (cmd.run)(&args)) {
        eprintln!("{e}\n{}", cmd.synopsis());
        std::process::exit(2);
    }
}

/// `r`'s value, or exit 1 with `what` and the error on stderr: a
/// failure at run time, where a usage error exits 2.
fn or_exit<T, E: Display>(r: Result<T, E>, what: impl Display) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{what}: {e}");
        std::process::exit(1);
    })
}

/// `selfmaint serve`: run the crash-tolerant maintenance-plane daemon.
/// All operator chatter goes to stderr; job outputs live in the spool
/// and are fetched over HTTP, so nothing here touches the
/// deterministic-stdout contract.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let mut cfg = ServeConfig::default();
    cfg.port = args.parse_or("--port", cfg.port)?;
    if let Some(dir) = args.value("--spool") {
        cfg.spool = dir.to_string();
    }
    if let Some(hours) = args.parse::<NonZeroU64>("--checkpoint-hours")? {
        cfg.checkpoint_every = SimDuration::from_hours(hours.get());
    }
    cfg.max_queue = args.parse_or("--max-queue", cfg.max_queue)?;
    if let Some(n) = args.parse::<NonZeroU32>("--max-attempts")? {
        cfg.max_attempts = n.get();
    }
    cfg.job_timeout_ms = args.parse("--job-timeout-ms")?;

    let spool = cfg.spool.clone();
    let server = or_exit(Server::start(cfg), "cannot start serve daemon");
    eprintln!(
        "selfmaint serve listening on 127.0.0.1:{} (spool {spool})",
        server.port()
    );
    // Tooling that started us with --port 0 discovers the bound port
    // here; tmp + rename so a reader never sees a half-written file.
    if let Some(path) = args.value("--port-file") {
        let tmp = format!("{path}.tmp");
        let write = std::fs::write(&tmp, format!("{}\n", server.port()))
            .and_then(|()| std::fs::rename(&tmp, path));
        or_exit(write, format_args!("cannot write port file {path}"));
    }
    server.join();
    eprintln!("selfmaint serve: drained cleanly");
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let level = args.parse_or("--level", AutomationLevel::L3)?;
    let days: u64 = args.parse_or("--days", 30)?;
    let seed: u64 = args.parse_or("--seed", 42)?;
    let mut cfg = ScenarioConfig::at_level(seed, level);
    cfg.duration = SimDuration::from_days(days);
    if let Some(t) = args.value("--topology") {
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
            other => return Err(format!("unknown topology {other:?}")),
        };
    }
    cfg.robots_per_row = args.parse_or("--robots-per-row", cfg.robots_per_row)?;
    if let Some(v) = args.parse::<u8>("--vendors")? {
        cfg.diversity = DiversityProfile { vendor_count: v };
    }
    if args.flag("--no-proactive") || args.flag("--no-predictive") {
        let mut ctl = ControllerConfig::at_level(level);
        if args.flag("--no-proactive") {
            ctl.proactive = None;
        }
        if args.flag("--no-predictive") {
            ctl.predictive = None;
        }
        cfg.controller = Some(ctl);
    }
    if let Some(policy) = args.value("--policy") {
        cfg.twin = match policy {
            "ladder" => TwinPolicy::Ladder,
            "twin" => TwinPolicy::TwinGuided(TwinConfig::default()),
            other => return Err(format!("unknown policy {other:?} (want ladder|twin)")),
        };
    }

    let ckpt_every = args.parse::<NonZeroU64>("--checkpoint-every")?;
    let ckpt_dir = args.value("--checkpoint-dir").unwrap_or(".");
    let resume = args.value("--resume");

    eprintln!(
        "running {days} simulated days at {} (seed {seed})…",
        level.label()
    );
    let mut report = if ckpt_every.is_none() && resume.is_none() {
        selfmaint::scenarios::run(cfg)
    } else {
        run_with_checkpoints(cfg, ckpt_every, ckpt_dir, resume)
    };
    if args.flag("--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report.summary_json()).expect("serializable")
        );
        return Ok(());
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
    if args.flag("--csv") {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.render());
    }
    Ok(())
}

/// `run` with the checkpoint/restore machinery engaged: restore from a
/// snapshot file (`--resume`) and/or write one every `--checkpoint-every`
/// days. The event sequence is the continuous run's — checkpoints are
/// cut at `run_until` boundaries that the uninterrupted engine also
/// passes through — so the report and stdout stay byte-identical.
fn run_with_checkpoints(
    cfg: ScenarioConfig,
    every_days: Option<NonZeroU64>,
    dir: &str,
    resume: Option<&str>,
) -> RunReport {
    let end = SimTime::ZERO + cfg.duration;
    let mut eng = match resume {
        Some(path) => {
            let read = std::fs::read(path);
            let bytes = or_exit(read, format_args!("cannot read checkpoint {path}"));
            let decoded = Snapshot::from_bytes(&bytes);
            let snap = or_exit(decoded, format_args!("corrupt checkpoint {path}"));
            let eng = or_exit(
                Engine::restore(cfg, &snap),
                format_args!("checkpoint {path} does not match this configuration"),
            );
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
        let step = SimDuration::from_days(days.get());
        let mut t = eng.now();
        while t < end {
            t = (t + step).min(end);
            eng.run_until(t);
            let path = format!("{dir}/ckpt-day-{:04}.bin", t.as_micros() / 86_400_000_000);
            let write = std::fs::write(&path, eng.snapshot().to_bytes());
            or_exit(write, format_args!("cannot write checkpoint {path}"));
            eprintln!("checkpoint written: {path} (state {})", eng.state_hash());
        }
    }
    while eng.step_event().is_some() {}
    eng.finish_report()
}

fn cmd_advise(args: &Args) -> Result<(), String> {
    let mtbf_days: u64 = args.parse_or("--mtbf-days", 60)?;
    let mttr_mins: u64 = args.parse_or("--mttr-mins", 10)?;
    let need: usize = args.parse_or("--need", 8)?;
    let target: f64 = args.parse_or("--target", 0.9999)?;
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
    Ok(())
}

fn cmd_topo(args: &Args) -> Result<(), String> {
    let seed: u64 = args.parse_or("--seed", 42)?;
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
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let level = args.parse_or("--level", AutomationLevel::L3)?;
    let days: u64 = args.parse_or("--days", 14)?;
    let seed: u64 = args.parse_or("--seed", 42)?;
    let incident: Option<usize> = args.parse("--incident")?;

    let mut cfg = ScenarioConfig::at_level(seed, level);
    cfg.duration = SimDuration::from_days(days);
    cfg.obs = ObsConfig::enabled();

    eprintln!(
        "tracing {days} simulated days at {} (seed {seed})…",
        level.label()
    );
    let report = selfmaint::scenarios::run(cfg);
    let obs = report.obs.as_ref().expect("obs plane was enabled");
    let traces: Vec<_> = obs.closed_reactive_traces().collect();
    if let Some(n) = incident.filter(|&n| n >= traces.len()) {
        let have = traces.len();
        return Err(format!(
            "--incident {n}: this run closed {have} reactive incidents, numbered from 0"
        ));
    }

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
    for (i, tr) in traces.iter().enumerate() {
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
        println!();
        print!("{}", traces[n].render_tree());
    }

    if let Some(path) = args.value("--journal") {
        let mut body = obs.journal.join("\n");
        body.push('\n');
        let write = std::fs::write(path, body);
        or_exit(write, format_args!("cannot write journal to {path}"));
        eprintln!(
            "journal: {} lines written to {path} ({} emitted, {} dropped)",
            obs.journal.len(),
            obs.journal_emitted,
            obs.journal_dropped
        );
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let seeds = args
        .parse::<NonZeroU64>("--seeds")?
        .map_or(8, NonZeroU64::get);
    let jobs = args.parse_or("--jobs", NonZeroUsize::MIN)?.get();
    let days: u64 = args.parse_or("--days", 14)?;
    let seed: u64 = args.parse_or("--seed", 42)?;
    let quick = args.flag("--quick");
    let journal_path = args.value("--journal");
    let obs = args.flag("--obs") || journal_path.is_some();
    let inject_panic: Option<usize> = args.parse("--inject-panic")?;
    let manifest = args.value("--manifest").map(str::to_string);
    let resume = args.flag("--resume");
    let levels = match args.value("--level") {
        None | Some("all") => AutomationLevel::ALL.to_vec(),
        Some(_) => Vec::from_iter(args.parse("--level")?),
    };
    if resume {
        let Some(dir) = manifest.as_deref() else {
            return Err("--resume requires --manifest DIR (the checkpoints to resume from)".into());
        };
        // Fail loudly on a corrupt checkpoint *before* burning compute:
        // silently re-running the job would mask disk trouble.
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
        profiling: args.flag("--profile"),
        autonomic: args.flag("--autonomic"),
        inject_panic,
        manifest,
        resume,
    };
    eprintln!(
        "sweeping {} level(s) × {} seed(s) on {} worker(s), {} simulated days each…",
        p.levels.len(),
        seeds,
        jobs,
        days
    );
    let out = run_engine_sweep(&p);

    if args.flag("--csv") {
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
    if let Some(path) = journal_path {
        let mut body = out.journal.join("\n");
        body.push('\n');
        let write = std::fs::write(path, body);
        or_exit(write, format_args!("cannot write journal to {path}"));
        eprintln!("journal: {} lines written to {path}", out.journal.len());
    }

    if !out.failures.is_empty() {
        std::process::exit(1);
    }
    Ok(())
}

/// `selfmaint profile`: the engine self-profiler. Runs one E1 scenario
/// cell per seed with `obs::prof` on and prints the wall-share table
/// (each subsystem row followed by its leaves, indented) and the top-K
/// event-kind counts. Unlike `run`/`sweep`, stdout here carries wall
/// timings and is *not* byte-reproducible.
fn cmd_profile(args: &Args) -> Result<(), String> {
    let defaults = ProfileParams::default();
    let p = ProfileParams {
        level: args.parse_or("--level", defaults.level)?,
        days: args
            .parse::<NonZeroU64>("--days")?
            .map_or(defaults.days, NonZeroU64::get),
        base_seed: args.parse_or("--seed", defaults.base_seed)?,
        seeds: args
            .parse::<NonZeroU64>("--seeds")?
            .map_or(defaults.seeds, NonZeroU64::get),
        quick: args.flag("--quick"),
    };
    let top: usize = args.parse_or("--top", 8)?;

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
    Ok(())
}

/// `selfmaint bench`: run the suite's five cases [`REPS`] times each,
/// print each case's end-to-end medians and spreads, and write the
/// suite to `--out` (default `BENCH.json`). With `--baseline`, exit 1
/// naming every problem the gate finds. Like `profile`, stdout carries
/// wall timings and is not byte-reproducible.
fn cmd_bench(args: &Args) -> Result<(), String> {
    let out_path = args.value("--out").unwrap_or("BENCH.json");
    // Read the baseline first, so a bad path fails before the suite runs.
    let baseline = args.value("--baseline").map(|path| {
        let read = std::fs::read_to_string(path);
        let text = or_exit(read, format_args!("cannot read baseline {path}"));
        or_exit(
            Suite::from_json(&text),
            format_args!("baseline {path} is not a BENCH.json suite"),
        )
    });

    eprintln!("bench: {REPS} reps per case…");
    let suite = or_exit(run_suite(|name| eprintln!("  {name}")), "bench failed");
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
    let write = std::fs::write(out_path, suite.to_json());
    or_exit(write, format_args!("cannot write {out_path}"));
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
    Ok(())
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

fn cmd_bisect(args: &Args) -> Result<(), String> {
    let level = args.parse_or("--level", AutomationLevel::L3)?;
    let days: u64 = args.parse_or("--days", 12)?;
    let seed: u64 = args.parse_or("--seed", 42)?;
    let seed_b: Option<u64> = args.parse("--seed-b")?;
    let interval_days = args
        .parse::<NonZeroU64>("--interval-days")?
        .map_or(2, NonZeroU64::get);
    let quick = args.flag("--quick");
    let out_path = args.value("--out");

    let build = |seed: u64| {
        let mut cfg = ScenarioConfig::at_level(seed, level);
        cfg.duration = SimDuration::from_days(days);
        if quick {
            cfg.apply_quick_fabric();
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

    let interval = SimDuration::from_days(interval_days);
    let report = or_exit(bisect(cfg_a, cfg_b, interval), "bisect failed");
    let mut body = report.lines().join("\n");
    body.push('\n');
    print!("{body}");
    if let Some(path) = out_path {
        let write = std::fs::write(path, &body);
        or_exit(write, format_args!("cannot write report to {path}"));
        eprintln!("divergence report written to {path}");
    }
    if report.diverged() {
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_levels(_args: &Args) -> Result<(), String> {
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
    Ok(())
}

/// The `experiments` command line, checked: every picked id is known,
/// and its output format (`--jsonl` wins over `--csv`), `--seeds`,
/// `--jobs` and `--seed`, defaults filled in.
fn experiments_settings(args: &Args) -> Result<(ReportFormat, u64, usize, u64), String> {
    if let Some(id) = args.bare.iter().find(|id| !is_experiment(id)) {
        let known = EXPERIMENTS.join(" ");
        return Err(format!("unknown experiment {id:?} (known: {known})"));
    }
    let format = match (args.flag("--jsonl"), args.flag("--csv")) {
        (true, _) => ReportFormat::Jsonl,
        (false, true) => ReportFormat::Csv,
        (false, false) => ReportFormat::Text,
    };
    let seeds = args.parse_or("--seeds", NonZeroU64::MIN)?.get();
    let jobs = args.parse_or("--jobs", NonZeroUsize::MIN)?.get();
    Ok((format, seeds, jobs, args.parse_or("--seed", 2024)?))
}

/// `selfmaint experiments`: run the picked experiments (all of them when
/// none is picked) on the sweep pool and print their tables.
fn cmd_experiments(args: &Args) -> Result<(), String> {
    let (format, seeds, jobs, seed) = experiments_settings(args)?;
    let picks: Vec<&str> = args.bare.iter().map(String::as_str).collect();
    let out = run_experiment_sweep(&picks, seed, seeds, jobs, args.flag("--quick"));
    let mut stdout = std::io::stdout();
    for t in &out.tables {
        format.emit(&mut stdout, t).expect("write tables to stdout");
    }
    if !out.failures.is_empty() {
        let failures = failures_table(&out.failures);
        format
            .emit(&mut stdout, &failures)
            .expect("write tables to stdout");
        std::process::exit(1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn parse_strs(name: &str, list: &[&str]) -> Result<Args, String> {
        let cmd = SUBCOMMANDS.iter().find(|c| c.name == name).unwrap();
        parse(cmd, &list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    /// The SUBCOMMANDS table is the single source of truth: the
    /// dispatcher matches against it, and the command list and each
    /// synopsis are generated from it. This pins the documented surface
    /// and checks the command list really lists every entry — add a
    /// command to the table and this test names the places to update.
    #[test]
    fn subcommand_table_drives_everything() {
        let names: Vec<&str> = SUBCOMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(
            names.join(" "),
            "run advise topo levels trace sweep profile bench bisect serve experiments",
            "subcommand surface changed — update this test and the crate docs"
        );
        let u = usage();
        for c in SUBCOMMANDS {
            assert!(!c.about.is_empty(), "{} has no description", c.name);
            assert!(
                u.contains(&format!("  {:<13}{}\n", c.name, c.about)),
                "{}",
                c.name
            );
            let heads: BTreeSet<&str> = c.args.iter().filter_map(|a| a.split(' ').next()).collect();
            assert_eq!(
                heads.len(),
                c.args.len(),
                "{} declares an argument twice",
                c.name
            );
        }
    }

    /// Every command has a section in the doc comment that mentions each
    /// flag it declares, so the long-form help at the top of this file
    /// and the parser cannot drift apart.
    #[test]
    fn doc_comment_matches_the_table() {
        let file = include_str!("selfmaint.rs");
        let doc = &file[..file.find("\n//! ```\n").unwrap()];
        for c in SUBCOMMANDS {
            let head = format!("//! selfmaint {} ", c.name);
            let Some(at) = doc.find(&head) else {
                panic!("doc comment does not document `selfmaint {}`", c.name);
            };
            let section = doc[at + head.len()..]
                .split("//! selfmaint ")
                .next()
                .unwrap();
            let words: BTreeSet<&str> = section
                .split(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '-'))
                .collect();
            for flag in c.args.iter().filter_map(|a| a.split(' ').next()) {
                let documented = !flag.starts_with("--") || words.contains(flag);
                assert!(
                    documented,
                    "doc comment: `selfmaint {}` lacks {flag}",
                    c.name
                );
            }
        }
    }

    #[test]
    fn misspelt_and_help_flags_are_rejected() {
        for flag in ["--quik", "--help", "-h"] {
            let err = parse_strs("experiments", &["e4", flag]).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn a_value_flag_without_its_value_names_the_flag() {
        let err = parse_strs("experiments", &["e4", "--seeds"]).unwrap_err();
        assert!(err.contains("--seeds"), "{err}");
        let a = parse_strs("experiments", &["--jobs", "two"]).unwrap();
        assert!(experiments_settings(&a).unwrap_err().contains("--jobs"));
    }

    #[test]
    fn unknown_experiment_lists_the_registry() {
        let a = parse_strs("experiments", &["e17"]).unwrap();
        let err = experiments_settings(&a).unwrap_err();
        assert!(err.contains("\"e17\""), "{err}");
        for known in ["e15", "e16", "a3"] {
            assert!(err.contains(known), "{err}");
        }
    }

    #[test]
    fn values_are_not_mistaken_for_picks() {
        let a = parse_strs("experiments", &["e4", "--seeds", "2", "e8", "--csv"]).unwrap();
        assert_eq!(a.bare, ["e4", "e8"]);
        let (format, seeds, jobs, seed) = experiments_settings(&a).unwrap();
        assert_eq!((seeds, jobs, seed), (2, 1, 2024));
        assert_eq!(format, ReportFormat::Csv);
        let b = ["--quick", "--jsonl", "--csv", "--seed", "7", "--jobs", "3"];
        let b = parse_strs("experiments", &b).unwrap();
        assert!(b.flag("--quick") && b.bare.is_empty());
        let (format, _, jobs, seed) = experiments_settings(&b).unwrap();
        assert_eq!((seed, jobs, format), (7, 3, ReportFormat::Jsonl));
        for zero in [["--seeds", "0"], ["--jobs", "0"]] {
            let a = parse_strs("experiments", &zero).unwrap();
            assert!(experiments_settings(&a).is_err(), "{zero:?}");
        }
    }

    #[test]
    fn absent_flag_yields_default() {
        let a = parse_strs("run", &[]).unwrap();
        assert_eq!(a.parse_or("--days", 30), Ok(30));
    }

    #[test]
    fn present_invalid_value_is_a_hard_error_not_the_default() {
        let a = parse_strs("run", &["--days", "thirty"]).unwrap();
        let err = a.parse_or("--days", 30).unwrap_err();
        assert!(err.contains("\"thirty\""), "error names the value: {err}");
        assert!(err.contains("--days"), "error names the flag: {err}");
    }

    #[test]
    #[should_panic(expected = "does not declare --dayz")]
    fn reading_an_undeclared_flag_is_a_bug() {
        parse_strs("run", &[]).unwrap().flag("--dayz");
    }
}
