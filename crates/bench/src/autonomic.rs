//! The autonomic-loop benchmark harness behind `selfmaint tune`.
//!
//! Runs the E16 drift cell per seed twice — statically tuned and with
//! the MAPE-K loop on — and folds the loop's accounting into a
//! [`BenchReport`] (`BENCH_autonomic.json`): tick/directive/rollback
//! counts, posterior convergence, and both arms' realized availability
//! (scaled to parts-per-billion so the delta lands in the byte-diffable
//! `deterministic` subtree), plus wall-clock adaptation throughput —
//! decisions per second and mean tick latency from the `prof/autonomic`
//! wall spans — in the `timing` subtree.
//!
//! The static baseline runs at the same seeds on the same fault
//! streams, so the report carries the availability the loop bought,
//! not just its price.

use dcmaint_des::SimDuration;
use dcmaint_scenarios::experiments::e16;
use dcmaint_sweep::derive_seed;
use maintctl::AutomationLevel;

use crate::profile::peak_rss_bytes;
use crate::report::{ppb, BenchReport};

/// What to benchmark. Defaults reproduce one E16-quick-shaped cell.
#[derive(Debug, Clone)]
pub struct AutonomicBenchParams {
    /// Automation level of the scenario cell (E16 pins L3; kept for the
    /// scenario label only).
    pub level: AutomationLevel,
    /// Simulated days per seed.
    pub days: u64,
    /// Base seed; replicates derive via [`derive_seed`].
    pub base_seed: u64,
    /// Seed replicates to run and merge.
    pub seeds: u64,
    /// MAPE-K loop period in hours.
    pub tick_hours: u64,
    /// Use the small CI fabric (the E16-quick shaping).
    pub quick: bool,
}

impl Default for AutonomicBenchParams {
    fn default() -> Self {
        AutonomicBenchParams {
            level: AutomationLevel::L3,
            days: 14,
            base_seed: 42,
            seeds: 1,
            tick_hours: 2,
            quick: true,
        }
    }
}

impl AutonomicBenchParams {
    /// The scenario label stamped into the report.
    pub fn scenario_label(&self) -> String {
        format!(
            "autonomic/{} {}d tick={}h seed={} seeds={}{}",
            self.level.label(),
            self.days,
            self.tick_hours,
            self.base_seed,
            self.seeds,
            if self.quick { " quick" } else { "" }
        )
    }

    /// The E16 drift world both arms share, reshaped by the params.
    fn experiment_params(&self, seed: u64) -> e16::E16Params {
        let mut p = if self.quick {
            e16::E16Params::quick(&[seed])
        } else {
            e16::E16Params::full(&[seed])
        };
        p.duration = SimDuration::from_days(self.days);
        p.burst_at = dcmaint_des::SimTime::ZERO + SimDuration::from_days(self.days / 2);
        p.tick_period = SimDuration::from_hours(self.tick_hours);
        p
    }
}

/// Everything one autonomic benchmark run produced.
#[derive(Debug)]
pub struct AutonomicBenchOutcome {
    /// The standing artifact (deterministic + timing + host subtrees).
    pub report: BenchReport,
    /// MAPE-K ticks across all seeds.
    pub ticks: u64,
    /// Directives executed across all seeds.
    pub applied: u64,
    /// Guardrail rollbacks across all seeds.
    pub rollbacks: u64,
    /// Mean realized availability of the autonomic arms.
    pub autonomic_availability: f64,
    /// Mean realized availability of the static arms.
    pub static_availability: f64,
    /// Posteriors converged / tracked, summed across seeds.
    pub posteriors: (u64, u64),
    /// Total wall seconds across all seeds (autonomic arms only).
    pub wall_s: f64,
}

/// Run the autonomic benchmark: static + autonomic arms per seed, loop
/// accounting merged across seeds.
pub fn run_autonomic_bench(p: &AutonomicBenchParams) -> AutonomicBenchOutcome {
    let mut ticks = 0u64;
    let mut decisions = 0u64;
    let mut applied = 0u64;
    let mut rollbacks = 0u64;
    let mut cap_fallbacks = 0u64;
    let mut converged = 0u64;
    let mut tracked = 0u64;
    let mut auto_avail_sum = 0.0f64;
    let mut static_avail_sum = 0.0f64;
    let mut autonomic_span_ns = 0u64;
    let mut autonomic_spans = 0u64;
    let mut events = 0u64;
    let mut wall_s = 0.0f64;
    let n = p.seeds.max(1);

    for k in 0..n {
        let seed = derive_seed(p.base_seed, "autonomic-bench", k);
        let ep = p.experiment_params(seed);

        let stat = dcmaint_scenarios::run(e16::cell_config(&ep, seed, false));
        static_avail_sum += stat.availability.availability;

        let mut cfg = e16::cell_config(&ep, seed, true);
        cfg.obs.profiling = true;
        // lint:allow(wall-clock): the benchmark harness is the
        // measurement itself; timings land in BENCH_autonomic.json and
        // stderr only, never on seeded stdout.
        let t0 = std::time::Instant::now();
        let auto = dcmaint_scenarios::run(cfg);
        wall_s += t0.elapsed().as_secs_f64();

        auto_avail_sum += auto.availability.availability;
        let stats = auto
            .autonomic
            .as_ref()
            .expect("autonomic was on, so finish() packages stats");
        ticks += stats.ticks;
        decisions += stats.decisions;
        applied += stats.applied;
        rollbacks += stats.rollbacks;
        cap_fallbacks += stats.cap_fallbacks;
        converged += stats.posteriors_converged;
        tracked += stats.posteriors_total;
        let obs = auto.obs.as_ref().expect("profiling was on");
        events += obs
            .registry
            .counters_sorted()
            .into_iter()
            .filter(|(name, _)| name.starts_with("prof/ev/"))
            .map(|(_, v)| v)
            .sum::<u64>();
        for l in obs.prof_wall.iter().filter(|l| l.sub == "autonomic") {
            autonomic_span_ns += l.ns;
            autonomic_spans += l.spans;
        }
    }

    let mut report = BenchReport::new("autonomic", &p.scenario_label());
    report.deterministic.insert("ticks".to_string(), ticks);
    report
        .deterministic
        .insert("decisions".to_string(), decisions);
    report.deterministic.insert("applied".to_string(), applied);
    report
        .deterministic
        .insert("rollbacks".to_string(), rollbacks);
    report
        .deterministic
        .insert("cap-fallbacks".to_string(), cap_fallbacks);
    report
        .deterministic
        .insert("posteriors-converged".to_string(), converged);
    report
        .deterministic
        .insert("posteriors-total".to_string(), tracked);
    report.deterministic.insert("events".to_string(), events);
    report.deterministic.insert("seeds".to_string(), n);
    report.deterministic.insert(
        "autonomic-availability-ppb".to_string(),
        ppb(auto_avail_sum / n as f64),
    );
    report.deterministic.insert(
        "static-availability-ppb".to_string(),
        ppb(static_avail_sum / n as f64),
    );

    report.timing.insert("wall-s".to_string(), wall_s);
    let span_s = autonomic_span_ns as f64 / 1e9;
    report.timing.insert("autonomic-span-s".to_string(), span_s);
    report.timing.insert(
        "decisions-per-sec".to_string(),
        if span_s > 0.0 {
            decisions as f64 / span_s
        } else {
            0.0
        },
    );
    report.timing.insert(
        "mean-tick-latency-s".to_string(),
        if autonomic_spans > 0 {
            span_s / autonomic_spans as f64
        } else {
            0.0
        },
    );
    report
        .timing
        .insert("peak-rss-bytes".to_string(), peak_rss_bytes() as f64);
    report.stamp_host();

    AutonomicBenchOutcome {
        report,
        ticks,
        applied,
        rollbacks,
        autonomic_availability: auto_avail_sum / n as f64,
        static_availability: static_avail_sum / n as f64,
        posteriors: (converged, tracked),
        wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AutonomicBenchParams {
        AutonomicBenchParams {
            days: 8,
            base_seed: 9,
            ..AutonomicBenchParams::default()
        }
    }

    #[test]
    fn deterministic_fields_are_byte_identical_across_runs() {
        let a = run_autonomic_bench(&tiny());
        let b = run_autonomic_bench(&tiny());
        assert_eq!(a.report.deterministic, b.report.deterministic);
        assert!(a.ticks > 0, "loop never ticked");
        assert_eq!(a.report.deterministic["ticks"], a.ticks);
    }

    #[test]
    fn autonomic_arm_does_not_lose_to_static_in_the_bench_cell() {
        let out = run_autonomic_bench(&tiny());
        assert!(
            out.autonomic_availability >= out.static_availability,
            "autonomic {:.6} < static {:.6}",
            out.autonomic_availability,
            out.static_availability
        );
    }

    #[test]
    fn timing_fields_are_populated() {
        let out = run_autonomic_bench(&tiny());
        assert!(out.report.timing.contains_key("decisions-per-sec"));
        assert!(out.report.timing.contains_key("mean-tick-latency-s"));
        assert!(out.report.timing["wall-s"] > 0.0);
        assert!(
            out.report.timing["autonomic-span-s"] > 0.0,
            "no autonomic spans"
        );
    }
}
