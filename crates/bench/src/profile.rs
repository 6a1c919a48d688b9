//! The engine self-profiling harness behind `selfmaint profile` and
//! the suite's `engine` case.
//!
//! Runs one scenario cell per seed with [`dcmaint_obs::ObsConfig`]'s
//! `profiling` knob on,
//! drives the engine event-by-event under a wall clock, takes one
//! explicit mid-run snapshot + restore so the `ckpt` encode/decode
//! spans are exercised, and folds the per-seed `prof/…` registries into
//! a single merged profile — the same [`ObsRegistry::merge`] fold the
//! sweep pool uses, so a one-seed profile and a merged sweep agree on
//! semantics.
//!
//! The split matters: everything derived from registry *counts* is
//! deterministic (same seed → same bytes) and lands in
//! [`BenchReport::deterministic`]; everything derived from the wall
//! clock (span shares, events/sec, RSS) is timing-only and lands in
//! [`BenchReport::timing`], never on seeded stdout. Wall shares come in
//! two levels: `share/<sub>` per subsystem and `leaf-share/<sub>/<kind>`
//! per [`Leaf`], the leaves of a subsystem summing to its share.

use std::collections::BTreeMap;

use dcmaint_des::{SimDuration, SimTime};
use dcmaint_obs::prof::{self, Leaf};
use dcmaint_obs::{ObsRegistry, WallProfile};
use dcmaint_scenarios::{Engine, ScenarioConfig};
use dcmaint_sweep::derive_seed;
use maintctl::AutomationLevel;

use crate::report::BenchReport;

/// What to profile. Defaults reproduce one E1 cell (the paper's
/// service-window experiment) at L3.
#[derive(Debug, Clone)]
pub struct ProfileParams {
    /// Automation level of the scenario cell.
    pub level: AutomationLevel,
    /// Simulated days per seed.
    pub days: u64,
    /// Base seed; replicates derive via [`derive_seed`].
    pub base_seed: u64,
    /// Seed replicates to run and merge.
    pub seeds: u64,
    /// Use the small CI fabric (same shaping as `sweep --quick`).
    pub quick: bool,
}

impl Default for ProfileParams {
    fn default() -> Self {
        ProfileParams {
            level: AutomationLevel::L3,
            days: 14,
            base_seed: 42,
            seeds: 1,
            quick: false,
        }
    }
}

impl ProfileParams {
    /// The scenario label stamped into the report.
    pub fn scenario_label(&self) -> String {
        format!(
            "E1/{} {}d seed={} seeds={}{}",
            self.level.label(),
            self.days,
            self.base_seed,
            self.seeds,
            if self.quick { " quick" } else { "" }
        )
    }

    /// The config of one replicate — the same fabric shaping as one E1
    /// cell / one `sweep --quick` job, with the self-profiler on.
    fn config(&self, seed: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::at_level(seed, self.level);
        cfg.duration = SimDuration::from_days(self.days);
        if self.quick {
            cfg.apply_quick_fabric();
        }
        cfg.obs.profiling = true;
        cfg
    }
}

/// Everything one profiling run produced.
#[derive(Debug)]
pub struct ProfileOutcome {
    /// The `engine` case's report (deterministic + timing subtrees).
    pub report: BenchReport,
    /// Merged per-seed registries — all `prof/…` counters.
    pub registry: ObsRegistry,
    /// Merged wall spans, one [`Leaf`] per `(subsystem, kind)`, sorted
    /// by that pair. Nondeterministic.
    pub leaves: Vec<Leaf>,
    /// Per-subsystem wall share in percent, sorted descending. Sums to
    /// ~100 whenever any span was recorded. Nondeterministic.
    pub shares: Vec<(&'static str, f64)>,
    /// Event-kind counts (`prof/ev/*`, prefix stripped), sorted by
    /// count descending then name. Deterministic.
    pub event_kinds: Vec<(String, u64)>,
    /// Total events dispatched across all seeds. Deterministic.
    pub events: u64,
}

impl ProfileOutcome {
    /// The `selfmaint profile` table body, `(name, ns, spans, share %)`:
    /// each subsystem row by share descending, followed by its leaves
    /// (name indented two spaces, by wall time descending). A row's ns
    /// and spans are the exact sums of its leaves'.
    pub fn table_rows(&self) -> Vec<(String, u64, u64, f64)> {
        let rows = prof::rows(&self.leaves);
        let mut out = Vec::new();
        for &(sub, share) in &self.shares {
            let &(_, ns, spans) = rows
                .iter()
                .find(|r| r.0 == sub)
                .expect("every share has a row");
            out.push((sub.to_string(), ns, spans, share));
            let mut leaves: Vec<&Leaf> = self.leaves.iter().filter(|l| l.sub == sub).collect();
            leaves.sort_by(|a, b| b.ns.cmp(&a.ns).then(a.kind.cmp(b.kind)));
            for l in leaves {
                let pct = self.report.timing[&format!("leaf-share/{sub}/{}", l.kind)];
                out.push((format!("  {}", l.kind), l.ns, l.spans, pct));
            }
        }
        out
    }
}

/// Run the profiling harness. Panics only on engine bugs (a snapshot
/// that will not restore); everything else is data in the outcome.
pub fn run_profile(p: &ProfileParams) -> ProfileOutcome {
    let mut merged = ObsRegistry::enabled();
    let mut wall: BTreeMap<(&'static str, &'static str), (u64, u64)> = BTreeMap::new();
    let mut queue_high_water = 0u64;
    let mut wall_s = 0.0f64;

    for k in 0..p.seeds.max(1) {
        let seed = derive_seed(p.base_seed, "profile", k);
        let cfg = p.config(seed);
        let mid = SimTime::ZERO + cfg.duration.mul_f64(0.5);
        let mut eng = Engine::new(cfg);

        let t0 = WallProfile::enabled()
            .start()
            .expect("an enabled clock reads");
        eng.run_until(mid);
        // One explicit snapshot + restore per seed so the ckpt
        // encode/decode spans carry real numbers. `profiled_restore`
        // rebuilds from the snapshot and discards the rebuilt engine,
        // so the simulation itself is untouched.
        let snap = eng.profiled_snapshot();
        eng.profiled_restore(&snap)
            .expect("a just-taken snapshot restores");
        while eng.step_event().is_some() {}
        wall_s += t0.elapsed().as_secs_f64();

        let obs = eng
            .finish_report()
            .obs
            .expect("profiling was on, so finish() packages obs");
        queue_high_water = queue_high_water.max(obs.registry.counter("prof/sched/max-pending"));
        merged.merge(&obs.registry);
        for l in &obs.prof_wall {
            let e = wall.entry((l.sub, l.kind)).or_insert((0, 0));
            e.0 += l.ns;
            e.1 += l.spans;
        }
    }

    let leaves: Vec<Leaf> = wall
        .into_iter()
        .map(|((sub, kind), (ns, spans))| Leaf {
            sub,
            kind,
            ns,
            spans,
        })
        .collect();
    let rows = prof::rows(&leaves);
    let total_ns: u64 = rows.iter().map(|r| r.1).sum();
    let mut shares = prof::shares(rows.iter().map(|&(sub, ns, _)| (sub, ns)));
    shares.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));

    let mut event_kinds: Vec<(String, u64)> = merged
        .counters_sorted()
        .into_iter()
        .filter_map(|(name, v)| {
            name.strip_prefix("prof/ev/")
                .map(|kind| (kind.to_string(), v))
        })
        .collect();
    event_kinds.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let events: u64 = event_kinds.iter().map(|(_, v)| v).sum();

    let mut report = BenchReport::new(&p.scenario_label());
    for (name, v) in merged.counters_sorted() {
        report.deterministic.insert(name.to_string(), v);
    }
    report.deterministic.insert("events".to_string(), events);
    report
        .deterministic
        .insert("queue-high-water".to_string(), queue_high_water);
    report.deterministic.insert("seeds".to_string(), p.seeds);

    let sim_days = (p.days * p.seeds.max(1)) as f64;
    report.timing.insert("wall-s".to_string(), wall_s);
    report.timing.insert(
        "events-per-sec".to_string(),
        if wall_s > 0.0 {
            events as f64 / wall_s
        } else {
            0.0
        },
    );
    report.timing.insert(
        "wall-per-sim-day-s".to_string(),
        if sim_days > 0.0 {
            wall_s / sim_days
        } else {
            0.0
        },
    );
    for (sub, pct) in &shares {
        report.timing.insert(format!("share/{sub}"), *pct);
    }
    for (l, pct) in prof::shares(leaves.iter().map(|l| (l, l.ns))) {
        report
            .timing
            .insert(format!("leaf-share/{}/{}", l.sub, l.kind), pct);
    }
    report
        .timing
        .insert("span-ns-total".to_string(), total_ns as f64);

    ProfileOutcome {
        report,
        registry: merged,
        leaves,
        shares,
        event_kinds,
        events,
    }
}

/// Peak resident set size of this process in bytes, from
/// `/proc/self/status` (`VmHWM`). Zero where the proc filesystem is
/// unavailable — the field is informational, never compared.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ProfileParams {
        ProfileParams {
            level: AutomationLevel::L3,
            days: 2,
            base_seed: 9,
            seeds: 1,
            quick: true,
        }
    }

    #[test]
    fn deterministic_fields_are_byte_identical_across_runs() {
        let a = run_profile(&tiny());
        let b = run_profile(&tiny());
        assert_eq!(a.report.deterministic, b.report.deterministic);
        assert_eq!(
            a.registry.snapshot_lines(),
            b.registry.snapshot_lines(),
            "merged registry diverged between same-seed runs"
        );
        assert_eq!(a.event_kinds, b.event_kinds);
        assert!(a.events > 0, "no events dispatched?");
        assert_eq!(
            a.report.deterministic["events"], a.events,
            "report and outcome disagree on the event total"
        );
    }

    #[test]
    fn ckpt_spans_and_shares_are_populated() {
        let out = run_profile(&tiny());
        assert!(out.registry.counter("prof/ckpt/encode") >= 1);
        assert!(out.registry.counter("prof/ckpt/decode") >= 1);
        assert!(out.registry.counter("prof/ckpt/bytes") > 0);
        assert!(out.report.deterministic["queue-high-water"] > 0);
        let total: f64 = out.shares.iter().map(|(_, pct)| pct).sum();
        assert!(
            (total - 100.0).abs() < 0.5,
            "span shares sum to {total}, expected ~100"
        );
        assert!(out.report.timing.contains_key("events-per-sec"));
        assert!(out.report.timing.contains_key("wall-per-sim-day-s"));
    }

    #[test]
    fn leaves_sum_exactly_to_their_subsystem_rows() {
        let out = run_profile(&tiny());
        for kind in ["pop", "encode", "decode", "dispatch", "poll"] {
            assert!(out.leaves.iter().any(|l| l.kind == kind), "no {kind} leaf");
        }
        // The printed table: every row is followed by its leaves, and
        // the leaves' ns and spans sum exactly to the row.
        let table = out.table_rows();
        let mut rows_seen = 0;
        let mut i = 0;
        while i < table.len() {
            let (name, ns, spans, _) = &table[i];
            assert!(!name.starts_with(' '), "leaf {name:?} without a row");
            rows_seen += 1;
            let mut j = i + 1;
            let (mut leaf_ns, mut leaf_spans) = (0u64, 0u64);
            while j < table.len() && table[j].0.starts_with("  ") {
                leaf_ns += table[j].1;
                leaf_spans += table[j].2;
                j += 1;
            }
            assert!(j > i + 1, "row {name} has no leaves");
            assert_eq!((leaf_ns, leaf_spans), (*ns, *spans), "row {name}");
            i = j;
        }
        assert_eq!(rows_seen, out.shares.len());
        // Leaf shares sum to ~100 overall and to their subsystem's share.
        let leaf_shares: Vec<(&String, f64)> = out
            .report
            .timing
            .iter()
            .filter(|(k, _)| k.starts_with("leaf-share/"))
            .map(|(k, &v)| (k, v))
            .collect();
        assert_eq!(leaf_shares.len(), out.leaves.len());
        let total: f64 = leaf_shares.iter().map(|(_, v)| v).sum();
        assert!((total - 100.0).abs() < 1e-6, "leaf shares sum to {total}");
        for (sub, share) in &out.shares {
            let prefix = format!("leaf-share/{sub}/");
            let sum: f64 = leaf_shares
                .iter()
                .filter(|(k, _)| k.starts_with(&prefix))
                .map(|(_, v)| v)
                .sum();
            assert!((sum - share).abs() < 1e-6, "{sub}: {sum} vs {share}");
        }
    }

    #[test]
    fn multi_seed_profiles_merge_deterministically() {
        let mut p = tiny();
        p.seeds = 2;
        let a = run_profile(&p);
        let b = run_profile(&p);
        assert_eq!(a.report.deterministic, b.report.deterministic);
        // Two seeds dispatch strictly more events than one.
        assert!(a.events > run_profile(&tiny()).events);
    }

    #[test]
    fn peak_rss_reads_as_nonzero_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes() > 0);
        }
    }
}
