//! Operational-cost accounting.
//!
//! The paper argues self-maintenance wins on three cost axes (§1, §2, §4):
//! technician labor, overprovisioned standing redundancy, and
//! downtime/unavailability. [`CostModel`] holds the unit prices;
//! [`CostLedger`] accumulates the charges a run incurs (labor, robots,
//! hardware, downtime) so experiments can report $/year per policy.
//! Standing redundancy is not a run charge: the provisioning experiment
//! prices it from [`CostModel::redundant_link_annual`]. Absolute dollar
//! values are illustrative —
//! the experiments compare *ratios* across automation levels, which are
//! insensitive to the exact unit prices (documented per-field below).

use dcmaint_des::SimDuration;

/// Unit prices. Defaults are order-of-magnitude public figures, chosen so
/// ratios (not absolutes) carry the comparisons.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Fully-loaded datacenter technician cost per hour (USD). Public
    /// salary data puts loaded cost near $60–120/h; we take the middle.
    pub technician_hourly: f64,
    /// Amortized robot cost per hour of *existence* (capex spread over a
    /// 5-year life plus maintenance). Small modular units per §3 are cheap
    /// relative to humanoids.
    pub robot_hourly: f64,
    /// Cost of one spare transceiver (USD). 400G optics street price.
    pub transceiver_unit: f64,
    /// Cost of one fiber cable incl. installation labor share (USD).
    pub cable_unit: f64,
    /// Cost of a switch replacement event (hardware + logistics, USD).
    pub switch_unit: f64,
    /// Cost of a line-card replacement (modular chassis only, USD).
    pub linecard_unit: f64,
    /// Penalty per link-hour of unavailability (USD). Stands in for SLA
    /// credits / stranded GPU time; AI-cluster links strand far more than
    /// commodity ones, which is exactly the paper's motivation.
    pub downtime_per_link_hour: f64,
    /// Annual cost of keeping one redundant (overprovisioned) link online:
    /// optics + switch port share + power (USD/year).
    pub redundant_link_annual: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            technician_hourly: 90.0,
            robot_hourly: 6.0,
            transceiver_unit: 600.0,
            cable_unit: 250.0,
            switch_unit: 18_000.0,
            linecard_unit: 4_500.0,
            downtime_per_link_hour: 40.0,
            redundant_link_annual: 800.0,
        }
    }
}

/// Running totals per cost axis.
#[derive(Debug, Clone, Default)]
pub struct CostLedger {
    /// Technician labor (USD).
    pub labor: f64,
    /// Robot amortization + energy (USD).
    pub robots: f64,
    /// Replacement hardware consumed (USD).
    pub hardware: f64,
    /// Downtime penalties (USD).
    pub downtime: f64,
}

dcmaint_ckpt::persist!(CostLedger {
    labor,
    robots,
    hardware,
    downtime,
});

impl CostLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge technician time.
    pub fn charge_technician(&mut self, model: &CostModel, time: SimDuration) {
        self.labor += model.technician_hourly * time.as_hours_f64();
    }

    /// Charge robot existence time (applies whether busy or idle — the
    /// capex is sunk, which is why proactive work during idle periods is
    /// "little to no additional cost", §4).
    pub fn charge_robot(&mut self, model: &CostModel, time: SimDuration) {
        self.robots += model.robot_hourly * time.as_hours_f64();
    }

    /// Charge one consumed spare of the given kind.
    pub fn charge_hardware(&mut self, model: &CostModel, kind: HardwareKind) {
        self.hardware += match kind {
            HardwareKind::Transceiver => model.transceiver_unit,
            HardwareKind::Cable => model.cable_unit,
            HardwareKind::Switch => model.switch_unit,
            HardwareKind::LineCard => model.linecard_unit,
        };
    }

    /// Charge link downtime.
    pub fn charge_downtime(&mut self, model: &CostModel, link_time: SimDuration) {
        self.downtime += model.downtime_per_link_hour * link_time.as_hours_f64();
    }

    /// Grand total (USD).
    pub fn total(&self) -> f64 {
        self.labor + self.robots + self.hardware + self.downtime
    }

    /// Merge another ledger into this one.
    pub fn merge(&mut self, other: &CostLedger) {
        self.labor += other.labor;
        self.robots += other.robots;
        self.hardware += other.hardware;
        self.downtime += other.downtime;
    }
}

/// Replacement hardware kinds with distinct unit costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardwareKind {
    /// Pluggable optical/electrical transceiver.
    Transceiver,
    /// Fiber or copper cable.
    Cable,
    /// Whole (fixed-configuration) switch chassis.
    Switch,
    /// One line card of a modular switch (§3.2 lists "NIC, line card,
    /// or switch" as the final escalation stage; modular chassis
    /// replace at card granularity).
    LineCard,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technician_time_accrues() {
        let m = CostModel::default();
        let mut l = CostLedger::new();
        l.charge_technician(&m, SimDuration::from_hours(2));
        assert!((l.labor - 180.0).abs() < 1e-9);
    }

    #[test]
    fn hardware_kinds_priced_distinctly() {
        let m = CostModel::default();
        let mut l = CostLedger::new();
        l.charge_hardware(&m, HardwareKind::Transceiver);
        l.charge_hardware(&m, HardwareKind::Cable);
        l.charge_hardware(&m, HardwareKind::Switch);
        l.charge_hardware(&m, HardwareKind::LineCard);
        assert!((l.hardware - (600.0 + 250.0 + 18_000.0 + 4_500.0)).abs() < 1e-9);
    }

    #[test]
    fn total_sums_axes() {
        let m = CostModel::default();
        let mut l = CostLedger::new();
        l.charge_technician(&m, SimDuration::from_hours(1));
        l.charge_robot(&m, SimDuration::from_hours(1));
        l.charge_downtime(&m, SimDuration::from_hours(1));
        assert!((l.total() - (90.0 + 6.0 + 40.0)).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_componentwise() {
        let m = CostModel::default();
        let mut a = CostLedger::new();
        a.charge_technician(&m, SimDuration::from_hours(1));
        let mut b = CostLedger::new();
        b.charge_robot(&m, SimDuration::from_hours(2));
        a.merge(&b);
        assert!((a.labor - 90.0).abs() < 1e-9);
        assert!((a.robots - 12.0).abs() < 1e-9);
    }

    #[test]
    fn robot_hours_cheaper_than_technician_hours() {
        // Sanity pin on the default calibration: the paper's economics
        // require robot time to undercut technician time substantially.
        let m = CostModel::default();
        assert!(m.robot_hourly * 10.0 < m.technician_hourly);
    }
}
