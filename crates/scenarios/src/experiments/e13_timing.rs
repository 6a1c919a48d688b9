//! E13 — timing maintenance into the utilization trough (§2/§4).
//!
//! "During periods of low utilization, automation hardware can be used
//! for proactive maintenance at little to no additional cost." The cost
//! in question is capacity: every campaign port-reseat drains a live
//! link and rolls the disturbance dice against its neighbors, and both
//! hurt in proportion to how much traffic is flying. The experiment
//! compares three L3 policies on the same fabric and fault stream:
//!
//! * reactive only (no scheduled work at all);
//! * proactive campaigns gated to the diurnal trough (the §4 design,
//!   `utilization_gate = 0.35`);
//! * the same campaigns allowed to run at any hour (`gate = 1.0`).
//!
//! Metrics: the utilization-weighted capacity impact of maintenance
//! drains and the loss inflicted on live traffic by disturbance bursts.
//! A second lever — deferring routine *reactive* repairs to the trough
//! (`ControllerConfig::trough_scheduling`) — exists as policy but is
//! deliberately not the headline here: robotic reactive drains are
//! minutes long, and deferring them trades away the wear-reset benefit
//! of prompt repair (the simulation surfaces that trade honestly; see
//! the engine test `trough_deferral_delays_routine_repairs`).

use dcmaint_des::SimDuration;
use dcmaint_metrics::{Align, Cell, Table};
use maintctl::{AutomationLevel, ControllerConfig, ProactiveConfig};

use crate::config::ScenarioConfig;
use crate::engine::run;

/// The three policies compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingPolicy {
    /// No scheduled work.
    ReactiveOnly,
    /// Campaigns gated to the trough (the §4 design).
    CampaignsInTrough,
    /// Campaigns at any hour.
    CampaignsAnytime,
}

impl TimingPolicy {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            TimingPolicy::ReactiveOnly => "reactive only",
            TimingPolicy::CampaignsInTrough => "campaigns @ trough",
            TimingPolicy::CampaignsAnytime => "campaigns anytime",
        }
    }
}

/// Parameters for E13.
#[derive(Debug, Clone)]
pub struct E13Params {
    /// RNG seed shared by all arms.
    pub seed: u64,
    /// Simulated duration.
    pub duration: SimDuration,
}

impl E13Params {
    /// CI-sized.
    pub fn quick(seed: u64) -> Self {
        E13Params {
            seed,
            duration: SimDuration::from_days(30),
        }
    }

    /// Paper-sized.
    pub fn full(seed: u64) -> Self {
        E13Params {
            seed,
            duration: SimDuration::from_days(60),
        }
    }
}

/// One row of the E13 table.
#[derive(Debug, Clone)]
pub struct E13Row {
    /// Policy.
    pub policy: TimingPolicy,
    /// Campaigns launched.
    pub campaigns: u64,
    /// Campaign links serviced.
    pub campaign_links: u64,
    /// Capacity impact of maintenance drains (utilization-weighted
    /// link-hours), all triggers.
    pub capacity_impact: f64,
    /// The campaign-attributed subset — what the trough gate controls.
    pub campaign_impact: f64,
    /// Loss inflicted on live traffic by disturbance bursts
    /// (loss × seconds).
    pub burst_impact: f64,
    /// Incidents over the run.
    pub incidents: u64,
}

/// Run all three arms.
pub fn run_experiment(p: &E13Params) -> Vec<E13Row> {
    [
        TimingPolicy::ReactiveOnly,
        TimingPolicy::CampaignsInTrough,
        TimingPolicy::CampaignsAnytime,
    ]
    .iter()
    .map(|&policy| {
        let mut cfg = ScenarioConfig::at_level(p.seed, AutomationLevel::L3);
        cfg.duration = p.duration;
        cfg.wear_growth = 2.0; // give campaigns something to prevent
        let mut ctl = ControllerConfig::at_level(AutomationLevel::L3);
        ctl.predictive = None;
        ctl.proactive = match policy {
            TimingPolicy::ReactiveOnly => None,
            TimingPolicy::CampaignsInTrough => Some(ProactiveConfig::default()),
            TimingPolicy::CampaignsAnytime => Some(ProactiveConfig {
                utilization_gate: 1.1, // never blocks
                ..ProactiveConfig::default()
            }),
        };
        cfg.controller = Some(ctl);
        let report = run(cfg);
        E13Row {
            policy,
            campaigns: report.campaigns,
            campaign_links: report.campaign_links,
            capacity_impact: report.drain_capacity_impact,
            campaign_impact: report.campaign_drain_impact,
            burst_impact: report.burst_impact_loss_s,
            incidents: report.incidents,
        }
    })
    .collect()
}

/// Render the E13 table.
pub fn table(rows: &[E13Row]) -> Table {
    let mut t = Table::new(
        "E13: timing scheduled maintenance into the utilization trough (§2/§4)",
        &[
            ("policy", Align::Left),
            ("campaigns", Align::Right),
            ("links serviced", Align::Right),
            ("capacity impact", Align::Right),
            ("campaign impact", Align::Right),
            ("impact/link", Align::Right),
            ("burst impact", Align::Right),
            ("incidents", Align::Right),
        ],
    );
    for r in rows {
        t.row(vec![
            r.policy.label().into(),
            Cell::Count(r.campaigns),
            Cell::Count(r.campaign_links),
            Cell::Num(r.capacity_impact, 1),
            Cell::Num(r.campaign_impact, 1),
            Cell::Num(r.campaign_impact / r.campaign_links.max(1) as f64, 4),
            Cell::Num(r.burst_impact, 0),
            Cell::Count(r.incidents),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trough_gate_cuts_impact_per_serviced_link() {
        // Campaign counts and per-seed ratios are noisy (a single seed
        // can draw ±2 campaigns either way); aggregate a few seeds so
        // the claim under test — servicing links at high utilization
        // costs more capacity per link — is pinned, not one draw.
        let mut trough = (0u64, 0u64, 0.0f64);
        let mut anytime = (0u64, 0u64, 0.0f64);
        for seed in [131, 132, 133] {
            let rows = run_experiment(&E13Params::quick(seed));
            trough.0 += rows[1].campaigns;
            trough.1 += rows[1].campaign_links;
            trough.2 += rows[1].campaign_impact;
            anytime.0 += rows[2].campaigns;
            anytime.1 += rows[2].campaign_links;
            anytime.2 += rows[2].campaign_impact;
        }
        assert!(trough.0 > 0, "campaigns must fire in the trough arm");
        assert!(anytime.0 > 0, "campaigns must fire in the anytime arm");
        // The anytime arm services links at higher concurrent
        // utilization: campaign impact per serviced link must be higher.
        let per_link = |(_, links, impact): (u64, u64, f64)| impact / links.max(1) as f64;
        assert!(
            per_link(anytime) > 1.3 * per_link(trough),
            "anytime {:.4} vs trough {:.4} impact/link (summed over seeds)",
            per_link(anytime),
            per_link(trough)
        );
    }

    #[test]
    fn campaigns_prevent_incidents_in_both_arms() {
        // Prevention is a small effect at 30 days; aggregate seeds.
        let mut reactive = 0u64;
        let mut trough = 0u64;
        for seed in [132, 133, 134] {
            let rows = run_experiment(&E13Params::quick(seed));
            reactive += rows[0].incidents;
            trough += rows[1].incidents;
        }
        assert!(
            trough < reactive,
            "reactive {reactive} vs trough {trough} (summed over seeds)"
        );
    }

    #[test]
    fn scheduled_work_costs_more_than_none() {
        let rows = run_experiment(&E13Params::quick(133));
        // Campaign arms carry campaign impact; the reactive arm none.
        assert_eq!(rows[0].campaign_impact, 0.0);
        assert!(rows[1].campaign_impact > 0.0);
        let out = table(&rows).render();
        assert!(out.contains("campaigns @ trough"));
    }
}
