//! The run report: everything a scenario measures, in one struct.
//!
//! Every experiment consumes these fields; EXPERIMENTS.md's metric
//! definitions point here. Keeping the report flat (numbers and sample
//! sets, no simulation objects) makes runs comparable and serializable.

use std::collections::BTreeMap;

use dcmaint_des::{SimDuration, SimTime};
use dcmaint_faults::RepairAction;
use dcmaint_metrics::{CostLedger, DurationSamples, FleetSummary};
use dcmaint_obs::ObsReport;
use maintctl::PredictionStats;
use serde_json::json;

/// One aggregated depth-0 span row: `(kind, count, total duration)`.
pub type SpanRow = (&'static str, u64, SimDuration);

/// Per-action outcome tallies.
#[derive(Debug, Clone, Default)]
pub struct ActionStats {
    /// Attempts executed.
    pub attempts: u64,
    /// Attempts that fixed the incident (verified).
    pub fixes: u64,
    /// Attempts done by robots.
    pub robotic: u64,
    /// Robot attempts that escalated to humans.
    pub escalations: u64,
}

dcmaint_ckpt::persist!(ActionStats {
    attempts,
    fixes,
    robotic,
    escalations,
});

impl ActionStats {
    /// Fix rate per attempt.
    pub fn fix_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.fixes as f64 / self.attempts as f64
        }
    }
}

/// The compact metric vector a sweep job extracts from one engine run:
/// the E1 headline metrics, as plain `Send` data that crosses worker
/// threads and aggregates into mean ±95% CI columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepMetrics {
    /// Median service window of fixed reactive tickets.
    pub median_window: SimDuration,
    /// p95 service window.
    pub p95_window: SimDuration,
    /// Link availability.
    pub availability: f64,
    /// Tickets closed with a verified fix.
    pub tickets_fixed: u64,
    /// Technician hands-on + travel time.
    pub tech_time: SimDuration,
    /// Total operating cost (USD).
    pub cost: f64,
}

dcmaint_ckpt::persist!(SweepMetrics {
    median_window,
    p95_window,
    availability,
    tickets_fixed,
    tech_time,
    cost,
});

/// Everything measured in one scenario run.
#[derive(Debug)]
pub struct RunReport {
    /// Simulated horizon.
    pub duration: SimDuration,
    /// End-of-run clock (== horizon unless the queue drained early).
    pub ended_at: SimTime,
    /// Links in the fabric.
    pub links: usize,
    /// Organic incidents injected.
    pub incidents: u64,
    /// Disturbance-seeded latent incidents that manifested (the §1
    /// cascading failures).
    pub cascade_incidents: u64,
    /// Transient disturbance bursts inflicted on neighbors.
    pub cascade_bursts: u64,
    /// Bursts that landed on links carrying live traffic (not drained
    /// ahead of the work) — the service-impacting subset.
    pub cascade_bursts_live: u64,
    /// Service impact of live bursts: Σ duration × loss over bursts that
    /// hit routable links (lossy link-seconds inflicted on traffic).
    pub burst_impact_loss_s: f64,
    /// Tickets opened, by trigger label.
    pub tickets_by_trigger: BTreeMap<&'static str, u64>,
    /// Tickets closed with a verified fix.
    pub tickets_fixed: u64,
    /// Tickets closed spurious (self-healed / false positive).
    pub tickets_spurious: u64,
    /// Service windows of fixed reactive tickets (creation → verified
    /// close) — the paper's headline metric.
    pub service_windows: DurationSamples,
    /// Repair attempts per fixed reactive ticket.
    pub attempts_per_fix: Vec<u32>,
    /// Per-action stats.
    pub actions: BTreeMap<RepairAction, ActionStats>,
    /// Link availability over the run.
    pub availability: FleetSummary,
    /// Operating costs.
    pub costs: CostLedger,
    /// Technician hands-on + travel time consumed.
    pub tech_time: SimDuration,
    /// Robot busy time consumed.
    pub robot_time: SimDuration,
    /// Robot operations run.
    pub robot_ops: u64,
    /// Robot-to-human escalations.
    pub human_escalations: u64,
    /// Proactive campaigns launched.
    pub campaigns: u64,
    /// Links proactively serviced.
    pub campaign_links: u64,
    /// Predictive scorer bookkeeping.
    pub prediction: PredictionStats,
    /// Drain requests deferred at least once.
    pub drains_deferred: u64,
    /// Capacity impact of maintenance drains: Σ over drained link-time
    /// of the concurrent fabric utilization (utilization-weighted
    /// link-hours). Timing repairs into the trough minimizes this.
    pub drain_capacity_impact: f64,
    /// The subset of [`RunReport::drain_capacity_impact`] attributable to
    /// proactive-campaign tickets (E13's headline).
    pub campaign_drain_impact: f64,
    /// Mean loss-EWMA across links at end (gray-failure residue).
    pub mean_loss_ewma: f64,
    /// Robot operations that froze mid-work (actuator stall / unit
    /// breakdown) and had to be caught by a watchdog.
    pub op_stalls: u64,
    /// Robot operations aborted with a clean back-out.
    pub op_aborts_safe: u64,
    /// Robot operations aborted with the component half-extracted
    /// (port flagged for humans).
    pub op_aborts_unsafe: u64,
    /// Watchdog expiries that actually acted (declared a stall dead or
    /// recovered a lost completion report).
    pub watchdog_fires: u64,
    /// Recovery-ladder retries on the same unit.
    pub robot_retries: u64,
    /// Recovery-ladder reassignments to a different unit.
    pub robot_reassigns: u64,
    /// Robot units returned to service by scheduled repair.
    pub robot_recoveries: u64,
    /// Robot unit breakdowns (fault-model stalls declared dead plus the
    /// legacy post-op breakdown rolls).
    pub robot_breakdowns: u64,
    /// Telemetry poll cycles lost to dropout.
    pub telemetry_dropouts: u64,
    /// Robot completion/escalation reports lost in transit.
    pub dispatch_msgs_lost: u64,
    /// Ports flagged humans-only after an unsafe abort (§3.4).
    pub ports_flagged: u64,
    /// Tickets parked until the robot fleet recovered.
    pub recovery_queued: u64,
    /// Safety-zone claims still held at the horizon by no in-flight
    /// repair. The abort invariant demands this is always zero.
    pub zone_claims_leaked: u64,
    /// Drained links owned by no in-flight repair at the horizon.
    /// Ditto: always zero.
    pub drains_leaked: u64,
    /// Observability capture (journal, traces, counters): present only
    /// when the run enabled the obs plane. `None` keeps disabled-mode
    /// reports — and their JSON — byte-identical to the pre-obs engine.
    pub obs: Option<ObsReport>,
    /// Twin-planner stats (DESIGN §3.14): present only when the run
    /// used the `TwinGuided` policy. `None` keeps ladder reports — and
    /// their JSON — byte-identical to the pre-twin engine.
    pub twin: Option<TwinReport>,
    /// MAPE-K loop stats (DESIGN §3.16): present only when the run
    /// enabled the autonomic plane. `None` keeps static-policy reports —
    /// and their JSON — byte-identical to the pre-autonomic engine.
    pub autonomic: Option<AutonomicReport>,
}

/// Digital-twin planner accounting for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct TwinReport {
    /// Decision points where the planner forked and scored branches.
    pub decisions: u64,
    /// Total branch engines forked across all decisions.
    pub forks: u64,
    /// Decisions where a non-ladder branch won (a plan was committed).
    pub committed: u64,
    /// Mean predicted availability of the chosen branch at its horizon.
    pub mean_predicted_availability: f64,
}

/// MAPE-K autonomic-loop accounting for one run (DESIGN §3.16).
#[derive(Debug, Clone, PartialEq)]
pub struct AutonomicReport {
    /// Monitor→Execute passes completed.
    pub ticks: u64,
    /// Knob moves the planner decided (including later rollbacks).
    pub decisions: u64,
    /// Directives the engine executed.
    pub applied: u64,
    /// Moves reverted by the regression guardrail.
    pub rollbacks: u64,
    /// Final tuned robot-concurrency cap.
    pub fleet_cap: u64,
    /// Final tuned proactive-campaign trigger count.
    pub proactive_trigger: u64,
    /// Final advised right-provisioning spare margin.
    pub provision_spares: u64,
    /// Cause×action posteriors with a 95% interval narrower than
    /// [`dcmaint_autonomic::CONVERGED_WIDTH`].
    pub posteriors_converged: u64,
    /// Cause×action posteriors tracked in total.
    pub posteriors_total: u64,
    /// Robot dispatches redirected to humans by the concurrency cap.
    pub cap_fallbacks: u64,
}

impl RunReport {
    /// Median service window.
    pub fn median_service_window(&mut self) -> SimDuration {
        self.service_windows.median()
    }

    /// p95 service window.
    pub fn p95_service_window(&mut self) -> SimDuration {
        self.service_windows.quantile(0.95)
    }

    /// Extract the sweep metric vector (see [`SweepMetrics`]).
    pub fn sweep_metrics(&mut self) -> SweepMetrics {
        SweepMetrics {
            median_window: self.median_service_window(),
            p95_window: self.p95_service_window(),
            availability: self.availability.availability,
            tickets_fixed: self.tickets_fixed,
            tech_time: self.tech_time,
            cost: self.costs.total(),
        }
    }

    /// Mean repair attempts per fixed ticket ("failures frequently
    /// require multiple attempts", §1).
    pub fn mean_attempts(&self) -> f64 {
        if self.attempts_per_fix.is_empty() {
            return 0.0;
        }
        self.attempts_per_fix
            .iter()
            .map(|&a| f64::from(a))
            .sum::<f64>()
            / self.attempts_per_fix.len() as f64
    }

    /// Total tickets opened.
    pub fn tickets_total(&self) -> u64 {
        self.tickets_by_trigger.values().sum()
    }

    /// Stats for one action (zero-filled if never attempted).
    pub fn action(&self, a: RepairAction) -> ActionStats {
        self.actions.get(&a).cloned().unwrap_or_default()
    }

    /// Machine-readable summary of the run (stable field names; used by
    /// tooling that consumes CLI output).
    pub fn summary_json(&mut self) -> serde_json::Value {
        let mut j = self.summary_json_base();
        // The "obs" key exists only when the run captured observability,
        // so disabled-mode JSON stays byte-identical to the pre-obs CLI.
        if let Some(obs) = &self.obs {
            let counters: serde_json::Map<String, serde_json::Value> = obs
                .registry
                .counters_sorted()
                .into_iter()
                .map(|(k, v)| (k.to_string(), json!(v)))
                .collect();
            let hists: serde_json::Map<String, serde_json::Value> = obs
                .registry
                .histograms_sorted()
                .into_iter()
                .map(|h| {
                    (
                        format!("{}/{}", h.family, h.key),
                        json!({
                            "count": h.total,
                            "sum_us": h.sum.as_micros(),
                            "mean_s": h.mean().as_secs_f64(),
                            "overflow": h.overflow,
                        }),
                    )
                })
                .collect();
            let exact = obs.closed_reactive_traces().all(|t| t.tiles_exactly());
            let obs_json = json!({
                "journal": {
                    "emitted": obs.journal_emitted,
                    "dropped": obs.journal_dropped,
                    "kept": obs.journal.len(),
                },
                "traces": {
                    "total": obs.traces.len(),
                    "closed_reactive": obs.closed_reactive_traces().count(),
                    "windows_tile_exactly": exact,
                },
                "counters": counters,
                "histograms": hists,
            });
            if let serde_json::Value::Object(map) = &mut j {
                map.insert("obs".to_string(), obs_json);
            }
        }
        // Ditto "twin": only when the planner ran, so ladder-mode JSON
        // is byte-identical to the pre-twin CLI.
        if let Some(twin) = &self.twin {
            let twin_json = json!({
                "decisions": twin.decisions,
                "forks": twin.forks,
                "committed": twin.committed,
                "mean_predicted_availability": twin.mean_predicted_availability,
            });
            if let serde_json::Value::Object(map) = &mut j {
                map.insert("twin".to_string(), twin_json);
            }
        }
        // Ditto "autonomic": only when the MAPE-K loop ran, so static-
        // policy JSON is byte-identical to the pre-autonomic CLI.
        if let Some(a) = &self.autonomic {
            let a_json = json!({
                "ticks": a.ticks,
                "decisions": a.decisions,
                "applied": a.applied,
                "rollbacks": a.rollbacks,
                "fleet_cap": a.fleet_cap,
                "proactive_trigger": a.proactive_trigger,
                "provision_spares": a.provision_spares,
                "posteriors_converged": a.posteriors_converged,
                "posteriors_total": a.posteriors_total,
                "cap_fallbacks": a.cap_fallbacks,
            });
            if let serde_json::Value::Object(map) = &mut j {
                map.insert("autonomic".to_string(), a_json);
            }
        }
        j
    }

    /// Aggregate depth-0 span durations across closed reactive traces:
    /// `(kind, count, total)` rows plus the summed service window. The
    /// rows' total equals the window total exactly — the E1 breakdown
    /// invariant — because spans tile each window in integer micros.
    pub fn span_breakdown(&self) -> Option<(Vec<SpanRow>, SimDuration)> {
        let obs = self.obs.as_ref()?;
        let mut rows: Vec<SpanRow> = Vec::new();
        let mut window_total = SimDuration::ZERO;
        for t in obs.closed_reactive_traces() {
            window_total += t.window().unwrap_or(SimDuration::ZERO);
            for s in t.spans().into_iter().filter(|s| s.depth == 0) {
                match rows.iter_mut().find(|r| r.0 == s.kind) {
                    Some(r) => {
                        r.1 += 1;
                        r.2 += s.duration();
                    }
                    None => rows.push((s.kind, 1, s.duration())),
                }
            }
        }
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
        Some((rows, window_total))
    }

    /// Render [`RunReport::span_breakdown`] as an aligned text table
    /// (empty string when obs was disabled or captured no traces).
    pub fn span_breakdown_table(&self) -> String {
        let Some((rows, total)) = self.span_breakdown() else {
            return String::new();
        };
        if rows.is_empty() {
            return String::new();
        }
        let sum = rows.iter().fold(SimDuration::ZERO, |acc, r| acc + r.2);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>8} {:>14} {:>7}\n",
            "span", "count", "total_h", "share"
        ));
        for (kind, count, dur) in &rows {
            out.push_str(&format!(
                "{:<16} {:>8} {:>14.3} {:>6.1}%\n",
                kind,
                count,
                dur.as_hours_f64(),
                if total.is_zero() {
                    0.0
                } else {
                    100.0 * dur.as_secs_f64() / total.as_secs_f64()
                }
            ));
        }
        out.push_str(&format!(
            "{:<16} {:>8} {:>14.3} {:>7}\n",
            "= windows",
            "",
            total.as_hours_f64(),
            if sum == total { "exact" } else { "GAP!" }
        ));
        out
    }

    fn summary_json_base(&mut self) -> serde_json::Value {
        let median = self.median_service_window().as_secs_f64();
        let p95 = self.p95_service_window().as_secs_f64();
        let actions: serde_json::Value = RepairAction::LADDER
            .iter()
            .map(|&a| {
                let st = self.action(a);
                (
                    a.label().to_string(),
                    json!({
                        "attempts": st.attempts,
                        "fixes": st.fixes,
                        "robotic": st.robotic,
                        "escalations": st.escalations,
                    }),
                )
            })
            .collect::<serde_json::Map<String, serde_json::Value>>()
            .into();
        json!({
            "duration_days": self.duration.as_days_f64(),
            "links": self.links,
            "incidents": self.incidents,
            "cascade_incidents": self.cascade_incidents,
            "cascade_bursts": self.cascade_bursts,
            "cascade_bursts_live": self.cascade_bursts_live,
            "burst_impact_loss_s": self.burst_impact_loss_s,
            "tickets": {
                "by_trigger": self.tickets_by_trigger.iter()
                    .map(|(&k, &v)| (k.to_string(), json!(v)))
                    .collect::<serde_json::Map<_, _>>(),
                "fixed": self.tickets_fixed,
                "spurious": self.tickets_spurious,
            },
            "service_window_s": { "median": median, "p95": p95 },
            "mean_attempts": self.mean_attempts(),
            "availability": self.availability.availability,
            "downtime_s": self.availability.down_total.as_secs_f64(),
            "costs": {
                "labor": self.costs.labor,
                "robots": self.costs.robots,
                "hardware": self.costs.hardware,
                "downtime": self.costs.downtime,
                "total": self.costs.total(),
            },
            "tech_time_h": self.tech_time.as_hours_f64(),
            "robot": {
                "ops": self.robot_ops,
                "busy_h": self.robot_time.as_hours_f64(),
                "escalations": self.human_escalations,
            },
            "proactive": { "campaigns": self.campaigns, "links": self.campaign_links },
            "prediction": {
                "total": self.prediction.total(),
                "precision": self.prediction.precision(),
                "recall": self.prediction.recall(),
            },
            "drains_deferred": self.drains_deferred,
            "drain_capacity_impact": self.drain_capacity_impact,
            "actions": actions,
            "robustness": {
                "op_stalls": self.op_stalls,
                "op_aborts_safe": self.op_aborts_safe,
                "op_aborts_unsafe": self.op_aborts_unsafe,
                "watchdog_fires": self.watchdog_fires,
                "robot_retries": self.robot_retries,
                "robot_reassigns": self.robot_reassigns,
                "robot_recoveries": self.robot_recoveries,
                "robot_breakdowns": self.robot_breakdowns,
                "telemetry_dropouts": self.telemetry_dropouts,
                "dispatch_msgs_lost": self.dispatch_msgs_lost,
                "ports_flagged": self.ports_flagged,
                "recovery_queued": self.recovery_queued,
                "zone_claims_leaked": self.zone_claims_leaked,
                "drains_leaked": self.drains_leaked,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_metrics::FleetAvailability;

    #[test]
    fn summary_json_has_stable_top_level_keys() {
        let avail = FleetAvailability::new(SimTime::ZERO)
            .summarize(SimTime::ZERO + SimDuration::from_days(1), 10);
        let mut r = RunReport {
            duration: SimDuration::from_days(1),
            ended_at: SimTime::ZERO + SimDuration::from_days(1),
            links: 10,
            incidents: 2,
            cascade_incidents: 0,
            cascade_bursts: 1,
            cascade_bursts_live: 1,
            burst_impact_loss_s: 0.5,
            tickets_by_trigger: [("down", 2u64)].into_iter().collect(),
            tickets_fixed: 2,
            tickets_spurious: 0,
            service_windows: dcmaint_metrics::DurationSamples::new(),
            attempts_per_fix: vec![1, 2],
            actions: BTreeMap::new(),
            availability: avail,
            costs: dcmaint_metrics::CostLedger::new(),
            tech_time: SimDuration::from_hours(3),
            robot_time: SimDuration::ZERO,
            robot_ops: 0,
            human_escalations: 0,
            campaigns: 0,
            campaign_links: 0,
            prediction: PredictionStats::default(),
            drains_deferred: 0,
            drain_capacity_impact: 0.0,
            campaign_drain_impact: 0.0,
            mean_loss_ewma: 0.0,
            op_stalls: 0,
            op_aborts_safe: 0,
            op_aborts_unsafe: 0,
            watchdog_fires: 0,
            robot_retries: 0,
            robot_reassigns: 0,
            robot_recoveries: 0,
            robot_breakdowns: 0,
            telemetry_dropouts: 0,
            dispatch_msgs_lost: 0,
            ports_flagged: 0,
            recovery_queued: 0,
            zone_claims_leaked: 0,
            drains_leaked: 0,
            obs: None,
            twin: None,
            autonomic: None,
        };
        let j = r.summary_json();
        for key in [
            "duration_days",
            "incidents",
            "tickets",
            "service_window_s",
            "availability",
            "costs",
            "robot",
            "actions",
        ] {
            assert!(j.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(j["incidents"], 2);
        assert_eq!(j["tickets"]["by_trigger"]["down"], 2);
        assert!(j["robustness"]["op_stalls"].is_u64());
        assert!(j["robustness"]["zone_claims_leaked"].is_u64());
        // Every ladder action appears even with zero attempts.
        assert!(j["actions"]["repl-switch"]["attempts"].is_u64());
    }
}
