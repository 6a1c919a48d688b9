//! Job specifications: the canonical text form clients POST and the
//! spool journals store.
//!
//! One job is one line of `key=value` tokens. The grammar is strict —
//! unknown keys, malformed values, and missing requirements are parse
//! errors, never silent defaults — because the ingress journal is
//! replayed verbatim on restart: a line the daemon accepted once must
//! parse identically forever. [`JobSpec::to_line`] renders the
//! canonical form (every key, fixed order), so journaled specs are
//! byte-stable regardless of how the client spelled theirs.

use dcmaint_des::SimDuration;
use dcmaint_obs::ObsConfig;
use dcmaint_scenarios::ScenarioConfig;
use maintctl::AutomationLevel;

/// What kind of work a job is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One scenario run; output is the run's summary JSON.
    Run,
    /// A seed-replicated level sweep; output is the rendered table.
    Sweep,
}

/// Panic-injection test hook, part of the spec so crash-recovery tests
/// are driven through the same front door as real work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boom {
    /// No injected failure.
    None,
    /// Panic mid-run on the *first* attempt only — the supervised
    /// restart must recover to a byte-identical output.
    Once,
    /// Panic mid-run on every attempt — the job must fail
    /// deterministically after `max_attempts`, daemon intact.
    Always,
}

/// A parsed job specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Run or sweep.
    pub kind: JobKind,
    /// Automation level; `None` (sweep only) sweeps all levels.
    pub level: Option<AutomationLevel>,
    /// Simulated days.
    pub days: u64,
    /// Base seed.
    pub seed: u64,
    /// Seed replicates per level (sweeps; 1 for runs).
    pub seeds: u64,
    /// Use the small CI fabric.
    pub quick: bool,
    /// Capture the observability plane (and stream its journal live).
    pub obs: bool,
    /// Run with the engine self-profiler on; the daemon exposes the
    /// job's `prof/…` counters on `GET /metrics` once it finishes.
    pub profile: bool,
    /// Panic-injection hook.
    pub boom: Boom,
    /// Test hook: sleep this many wall milliseconds per checkpoint
    /// quantum, to make wall-clock timeouts and mid-job kills testable
    /// without giant simulations. Never affects simulated output.
    pub slow_ms: u64,
}

impl JobSpec {
    /// A minimal run-job spec at the given level.
    pub fn run(level: AutomationLevel, days: u64, seed: u64) -> JobSpec {
        JobSpec {
            kind: JobKind::Run,
            level: Some(level),
            days,
            seed,
            seeds: 1,
            quick: false,
            obs: false,
            profile: false,
            boom: Boom::None,
            slow_ms: 0,
        }
    }

    /// Parse a spec line. Strict: every token must be a known
    /// `key=value`, and the combination must make sense.
    pub fn parse(line: &str) -> Result<JobSpec, String> {
        let mut kind = None;
        let mut level: Option<Option<AutomationLevel>> = None;
        let mut days = 14u64;
        let mut seed = 42u64;
        let mut seeds = 1u64;
        let mut quick = false;
        let mut obs = false;
        let mut profile = false;
        let mut boom = Boom::None;
        let mut slow_ms = 0u64;
        for tok in line.split_whitespace() {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("malformed token {tok:?} (expected key=value)"))?;
            match k {
                "kind" => {
                    kind = Some(match v {
                        "run" => JobKind::Run,
                        "sweep" => JobKind::Sweep,
                        other => return Err(format!("unknown kind {other:?}")),
                    })
                }
                "level" => {
                    level = Some(match v {
                        "all" => None,
                        other => Some(parse_level(other)?),
                    })
                }
                "days" => days = parse_num(k, v)?,
                "seed" => seed = parse_num(k, v)?,
                "seeds" => seeds = parse_num(k, v)?,
                "quick" => quick = parse_bool(k, v)?,
                "obs" => obs = parse_bool(k, v)?,
                "profile" => profile = parse_bool(k, v)?,
                "boom" => {
                    boom = match v {
                        "none" => Boom::None,
                        "once" => Boom::Once,
                        "always" => Boom::Always,
                        other => return Err(format!("unknown boom {other:?}")),
                    }
                }
                "slow_ms" => slow_ms = parse_num(k, v)?,
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        let kind = kind.ok_or("missing kind=run|sweep")?;
        let level = level.unwrap_or(Some(AutomationLevel::L3));
        if days == 0 {
            return Err("days must be at least 1".to_string());
        }
        if seeds == 0 {
            return Err("seeds must be at least 1".to_string());
        }
        match kind {
            JobKind::Run => {
                if level.is_none() {
                    return Err("level=all is only valid for kind=sweep".to_string());
                }
                if seeds != 1 {
                    return Err("seeds is only valid for kind=sweep".to_string());
                }
            }
            JobKind::Sweep => {
                if boom != Boom::None {
                    return Err("boom is only valid for kind=run".to_string());
                }
            }
        }
        Ok(JobSpec {
            kind,
            level,
            days,
            seed,
            seeds,
            quick,
            obs,
            profile,
            boom,
            slow_ms,
        })
    }

    /// Canonical text form: every key, fixed order. `parse ∘ to_line`
    /// is the identity.
    pub fn to_line(&self) -> String {
        format!(
            "kind={} level={} days={} seed={} seeds={} quick={} obs={} profile={} boom={} slow_ms={}",
            match self.kind {
                JobKind::Run => "run",
                JobKind::Sweep => "sweep",
            },
            self.level.map_or("all", |l| l.label()),
            self.days,
            self.seed,
            self.seeds,
            u8::from(self.quick),
            u8::from(self.obs),
            u8::from(self.profile),
            match self.boom {
                Boom::None => "none",
                Boom::Once => "once",
                Boom::Always => "always",
            },
            self.slow_ms,
        )
    }

    /// The scenario configuration a `kind=run` job executes. Mirrors
    /// the sweep engine's quick-fabric shaping so a run job and a
    /// single-seed sweep replicate agree on what `quick` means.
    pub fn scenario_config(&self) -> ScenarioConfig {
        let level = self.level.unwrap_or(AutomationLevel::L3);
        let mut cfg = ScenarioConfig::at_level(self.seed, level);
        cfg.duration = SimDuration::from_days(self.days);
        if self.quick {
            cfg.apply_quick_fabric();
        }
        if self.obs {
            cfg.obs = ObsConfig::enabled();
        }
        if self.profile {
            cfg.obs.profiling = true;
        }
        cfg
    }
}

fn parse_level(s: &str) -> Result<AutomationLevel, String> {
    match s.to_ascii_uppercase().as_str() {
        "L0" | "0" => Ok(AutomationLevel::L0),
        "L1" | "1" => Ok(AutomationLevel::L1),
        "L2" | "2" => Ok(AutomationLevel::L2),
        "L3" | "3" => Ok(AutomationLevel::L3),
        "L4" | "4" => Ok(AutomationLevel::L4),
        other => Err(format!("unknown level {other:?} (use L0..L4 or all)")),
    }
}

fn parse_num(k: &str, v: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .map_err(|_| format!("{k} must be an unsigned integer, got {v:?}"))
}

fn parse_bool(k: &str, v: &str) -> Result<bool, String> {
    match v {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        other => Err(format!("{k} must be 0 or 1, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_scenarios::TopologySpec;

    #[test]
    fn canonical_line_round_trips() {
        let specs = [
            JobSpec::run(AutomationLevel::L3, 14, 42),
            JobSpec {
                kind: JobKind::Sweep,
                level: None,
                days: 5,
                seed: 7,
                seeds: 3,
                quick: true,
                obs: true,
                profile: true,
                boom: Boom::None,
                slow_ms: 0,
            },
            JobSpec {
                boom: Boom::Once,
                slow_ms: 25,
                quick: true,
                ..JobSpec::run(AutomationLevel::L1, 3, 9)
            },
        ];
        for spec in specs {
            let line = spec.to_line();
            assert_eq!(JobSpec::parse(&line), Ok(spec.clone()), "{line}");
            // Canonical form is a fixed point.
            assert_eq!(JobSpec::parse(&line).unwrap().to_line(), line);
        }
    }

    #[test]
    fn sparse_client_spellings_normalize() {
        let s = JobSpec::parse("kind=run level=l2 days=3").unwrap();
        assert_eq!(s.level, Some(AutomationLevel::L2));
        assert_eq!((s.days, s.seed, s.seeds), (3, 42, 1));
        assert_eq!(
            s.to_line(),
            "kind=run level=L2 days=3 seed=42 seeds=1 quick=0 obs=0 profile=0 boom=none slow_ms=0"
        );
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        for (line, needle) in [
            ("", "missing kind"),
            ("days=3", "missing kind"),
            ("kind=walk", "unknown kind"),
            ("kind=run frobnicate=1", "unknown key"),
            ("kind=run days=zero", "unsigned integer"),
            ("kind=run days=0", "at least 1"),
            ("kind=run level=all", "only valid for kind=sweep"),
            ("kind=run seeds=4", "only valid for kind=sweep"),
            ("kind=sweep boom=once", "only valid for kind=run"),
            ("kind=run obs=maybe", "must be 0 or 1"),
            ("kind=run level=L9", "unknown level"),
            ("kind=run boom", "expected key=value"),
        ] {
            let err = JobSpec::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line:?} → {err}");
        }
    }

    #[test]
    fn run_config_matches_quick_fabric_shape() {
        let mut spec = JobSpec::run(AutomationLevel::L0, 4, 5);
        spec.quick = true;
        spec.obs = true;
        let cfg = spec.scenario_config();
        assert_eq!(cfg.duration, SimDuration::from_days(4));
        assert!(cfg.obs.enabled);
        assert!(matches!(
            cfg.topology,
            TopologySpec::LeafSpine {
                spines: 2,
                leaves: 6,
                servers_per_leaf: 2
            }
        ));
        assert_eq!(cfg.poll_period, SimDuration::from_secs(120));
        assert_eq!(cfg.faults.mtbi_per_link, SimDuration::from_days(12));
    }
}
