//! The twin-planner benchmark harness behind `selfmaint plan`.
//!
//! Runs one twin-guided scenario cell per seed with the engine
//! self-profiler on and folds the planner's accounting into a
//! [`BenchReport`] (`BENCH_twin.json`): decision/fork/commit counts and
//! the realized availability (scaled to parts-per-billion so it lands
//! in the byte-diffable `deterministic` subtree), plus wall-clock
//! planner throughput — decisions per second and mean decision latency
//! from the `prof/twin` wall spans — in the `timing` subtree.
//!
//! The ladder baseline runs alongside at the same seeds so the report
//! carries the availability delta the planner bought, not just its
//! price.

use dcmaint_des::SimDuration;
use dcmaint_scenarios::ScenarioConfig;
use dcmaint_sweep::derive_seed;
use dcmaint_twin::{TwinConfig, TwinPolicy};
use maintctl::AutomationLevel;

use crate::profile::peak_rss_bytes;
use crate::report::{ppb, BenchReport};

/// What to benchmark. Defaults reproduce one E15-quick-shaped cell.
#[derive(Debug, Clone)]
pub struct TwinBenchParams {
    /// Automation level of the scenario cell.
    pub level: AutomationLevel,
    /// Simulated days per seed.
    pub days: u64,
    /// Base seed; replicates derive via [`derive_seed`].
    pub base_seed: u64,
    /// Seed replicates to run and merge.
    pub seeds: u64,
    /// Planning horizon in days.
    pub horizon_days: u64,
    /// Branch fan-out worker threads (output-invariant).
    pub jobs: usize,
    /// Use the small CI fabric (same shaping as `sweep --quick`).
    pub quick: bool,
}

impl Default for TwinBenchParams {
    fn default() -> Self {
        TwinBenchParams {
            level: AutomationLevel::L3,
            days: 14,
            base_seed: 42,
            seeds: 1,
            horizon_days: 7,
            jobs: 1,
            quick: true,
        }
    }
}

impl TwinBenchParams {
    /// The scenario label stamped into the report. Deliberately omits
    /// `jobs`: worker count is output-invariant, and CI byte-diffs the
    /// `--jobs 1` and `--jobs N` stdout (label included).
    pub fn scenario_label(&self) -> String {
        format!(
            "twin/{} {}d h{}d seed={} seeds={}{}",
            self.level.label(),
            self.days,
            self.horizon_days,
            self.base_seed,
            self.seeds,
            if self.quick { " quick" } else { "" }
        )
    }

    /// One replicate's config; `twin` switches the planner on.
    fn config(&self, seed: u64, twin: bool) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::at_level(seed, self.level);
        cfg.duration = SimDuration::from_days(self.days);
        if self.quick {
            cfg.apply_quick_fabric();
        }
        cfg.obs.profiling = true;
        if twin {
            cfg.twin = TwinPolicy::TwinGuided(TwinConfig {
                horizon: SimDuration::from_days(self.horizon_days),
                jobs: self.jobs,
                ..TwinConfig::default()
            });
        }
        cfg
    }
}

/// Everything one twin benchmark run produced.
#[derive(Debug)]
pub struct TwinBenchOutcome {
    /// The standing artifact (deterministic + timing + host subtrees).
    pub report: BenchReport,
    /// Planner decision points across all seeds.
    pub decisions: u64,
    /// Branch engines forked across all seeds.
    pub forks: u64,
    /// Decisions that committed a non-ladder deviation.
    pub committed: u64,
    /// Mean realized availability of the twin arms.
    pub twin_availability: f64,
    /// Mean realized availability of the ladder arms.
    pub ladder_availability: f64,
    /// Total wall seconds across all seeds (twin arms only).
    pub wall_s: f64,
}

/// Run the twin benchmark: ladder + twin arms per seed, planner
/// accounting merged across seeds.
pub fn run_twin_bench(p: &TwinBenchParams) -> TwinBenchOutcome {
    let mut decisions = 0u64;
    let mut forks = 0u64;
    let mut committed = 0u64;
    let mut twin_avail_sum = 0.0f64;
    let mut ladder_avail_sum = 0.0f64;
    let mut pred_avail_sum = 0.0f64;
    let mut twin_span_ns = 0u64;
    let mut twin_spans = 0u64;
    let mut events = 0u64;
    let mut wall_s = 0.0f64;
    let n = p.seeds.max(1);

    for k in 0..n {
        let seed = derive_seed(p.base_seed, "twin-bench", k);

        let ladder = dcmaint_scenarios::run(p.config(seed, false));
        ladder_avail_sum += ladder.availability.availability;

        // lint:allow(wall-clock): the benchmark harness is the
        // measurement itself; timings land in BENCH_twin.json and
        // stderr only, never on seeded stdout.
        let t0 = std::time::Instant::now();
        let twin = dcmaint_scenarios::run(p.config(seed, true));
        wall_s += t0.elapsed().as_secs_f64();

        twin_avail_sum += twin.availability.availability;
        let stats = twin
            .twin
            .as_ref()
            .expect("twin policy was on, so finish() packages stats");
        decisions += stats.decisions;
        forks += stats.forks;
        committed += stats.committed;
        pred_avail_sum += stats.mean_predicted_availability;
        let obs = twin.obs.as_ref().expect("profiling was on");
        events += obs
            .registry
            .counters_sorted()
            .into_iter()
            .filter(|(name, _)| name.starts_with("prof/ev/"))
            .map(|(_, v)| v)
            .sum::<u64>();
        for l in obs.prof_wall.iter().filter(|l| l.sub == "twin") {
            twin_span_ns += l.ns;
            twin_spans += l.spans;
        }
    }

    let mut report = BenchReport::new("twin", &p.scenario_label());
    report
        .deterministic
        .insert("decisions".to_string(), decisions);
    report.deterministic.insert("forks".to_string(), forks);
    report
        .deterministic
        .insert("committed".to_string(), committed);
    report.deterministic.insert("events".to_string(), events);
    report.deterministic.insert("seeds".to_string(), n);
    report.deterministic.insert(
        "twin-availability-ppb".to_string(),
        ppb(twin_avail_sum / n as f64),
    );
    report.deterministic.insert(
        "ladder-availability-ppb".to_string(),
        ppb(ladder_avail_sum / n as f64),
    );
    report.deterministic.insert(
        "predicted-availability-ppb".to_string(),
        ppb(pred_avail_sum / n as f64),
    );

    report.timing.insert("wall-s".to_string(), wall_s);
    let span_s = twin_span_ns as f64 / 1e9;
    report.timing.insert("twin-span-s".to_string(), span_s);
    report.timing.insert(
        "decisions-per-sec".to_string(),
        if span_s > 0.0 {
            decisions as f64 / span_s
        } else {
            0.0
        },
    );
    // Deterministic in substance (a ratio of two deterministic counts)
    // but a float, so it lives in `timing`; the counts themselves are
    // what CI byte-diffs.
    report.timing.insert(
        "forks-per-decision".to_string(),
        if decisions > 0 {
            forks as f64 / decisions as f64
        } else {
            0.0
        },
    );
    report.timing.insert(
        "mean-decision-latency-s".to_string(),
        if twin_spans > 0 {
            span_s / twin_spans as f64
        } else {
            0.0
        },
    );
    report
        .timing
        .insert("peak-rss-bytes".to_string(), peak_rss_bytes() as f64);
    report.stamp_host();

    TwinBenchOutcome {
        report,
        decisions,
        forks,
        committed,
        twin_availability: twin_avail_sum / n as f64,
        ladder_availability: ladder_avail_sum / n as f64,
        wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TwinBenchParams {
        TwinBenchParams {
            days: 6,
            horizon_days: 3,
            base_seed: 9,
            ..TwinBenchParams::default()
        }
    }

    #[test]
    fn deterministic_fields_are_byte_identical_across_runs() {
        let a = run_twin_bench(&tiny());
        let b = run_twin_bench(&tiny());
        assert_eq!(a.report.deterministic, b.report.deterministic);
        assert!(a.decisions > 0, "planner never fired");
        assert!(a.forks >= a.decisions, "fewer forks than decisions");
        assert_eq!(a.report.deterministic["decisions"], a.decisions);
    }

    #[test]
    fn jobs_do_not_change_deterministic_fields() {
        let mut four = tiny();
        four.jobs = 4;
        let a = run_twin_bench(&tiny());
        let b = run_twin_bench(&four);
        assert_eq!(
            a.report.deterministic, b.report.deterministic,
            "branch fan-out workers leaked into the deterministic subtree"
        );
    }

    #[test]
    fn timing_fields_are_populated() {
        let out = run_twin_bench(&tiny());
        assert!(out.report.timing.contains_key("decisions-per-sec"));
        assert!(out.report.timing.contains_key("mean-decision-latency-s"));
        assert!(out.report.timing["wall-s"] > 0.0);
        assert!(out.report.timing["twin-span-s"] > 0.0, "no twin spans");
    }
}
