//! Environmental stress model.
//!
//! §1 observes that "transient failures are a function of the workload or
//! external factors, such as environmental changes in temperature,
//! vibration and so forth" and that dirt's impact "is often dependent on
//! temperature, humidity, vibration etc.". The model here is a smooth,
//! deterministic field: a diurnal temperature cycle plus per-row offsets
//! (hot rows exist in real halls), producing a multiplicative *stress
//! factor* on hazard rates and on the manifestation of latent
//! contamination.

use dcmaint_des::SimTime;

/// Deterministic environmental field over the hall.
#[derive(Debug, Clone)]
pub struct Environment {
    /// Mean cold-aisle temperature, °C.
    pub base_temp_c: f64,
    /// Peak-to-mean diurnal swing, °C (load-following cooling).
    pub diurnal_amp_c: f64,
    /// Per-row temperature offset, °C per row index (air handling is not
    /// uniform; later rows run warmer in this model).
    pub row_gradient_c: f64,
    /// Relative humidity fraction `[0, 1]`.
    pub humidity: f64,
    /// Ambient vibration level `[0, 1]` (fans, CRAC units, construction).
    pub vibration: f64,
}

impl Default for Environment {
    fn default() -> Self {
        Environment {
            base_temp_c: 24.0,
            diurnal_amp_c: 2.0,
            row_gradient_c: 0.4,
            humidity: 0.45,
            vibration: 0.1,
        }
    }
}

impl Environment {
    /// Instantaneous temperature at a row, °C. The diurnal peak is at
    /// 15:00 local (afternoon load + outside-air peak).
    pub fn temperature_c(&self, t: SimTime, row: u32) -> f64 {
        let day_frac = t.time_of_day().as_hours_f64() / 24.0;
        let phase = (day_frac - 15.0 / 24.0) * std::f64::consts::TAU;
        self.base_temp_c + self.diurnal_amp_c * phase.cos() + self.row_gradient_c * f64::from(row)
    }

    /// Multiplicative hazard-stress factor in roughly `[0.7, 2.0]`:
    /// 1.0 at nominal conditions, rising with heat, humidity, and
    /// vibration. Applied to failure inter-arrival rates and to flapping
    /// duty cycles.
    pub fn stress_factor(&self, t: SimTime, row: u32) -> f64 {
        let temp = self.temperature_c(t, row);
        // +5% hazard per °C above nominal 24 °C (Arrhenius-flavoured).
        let temp_term = 1.0 + 0.05 * (temp - 24.0);
        // Humidity away from the 45% sweet spot adds corrosion/ESD risk.
        let humid_term = 1.0 + 0.8 * (self.humidity - 0.45).abs();
        // Vibration term: linear.
        let vib_term = 1.0 + 0.8 * self.vibration;
        (temp_term * humid_term * vib_term).clamp(0.5, 3.0)
    }
}

/// Diurnal fabric-utilization curve in `[0, 1]`: the §4 proactive planner
/// schedules campaigns "during periods of low utilization". Peak at
/// 20:00, trough twelve hours opposite at 08:00, plus a weekday/weekend
/// distinction (weekend = days 5 and 6 of each week, 20% lower).
pub fn diurnal_utilization(t: SimTime) -> f64 {
    let day_frac = t.time_of_day().as_hours_f64() / 24.0;
    let phase = (day_frac - 20.0 / 24.0) * std::f64::consts::TAU;
    let base = 0.55 + 0.30 * phase.cos();
    let weekend = matches!(t.day_index() % 7, 5 | 6);
    let scale = if weekend { 0.8 } else { 1.0 };
    (base * scale).clamp(0.05, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_des::SimDuration;

    fn at_hour(h: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_hours(h)
    }

    #[test]
    fn temperature_peaks_mid_afternoon() {
        let e = Environment::default();
        let t15 = e.temperature_c(at_hour(15), 0);
        let t03 = e.temperature_c(at_hour(3), 0);
        assert!(t15 > t03);
        assert!((t15 - (24.0 + 2.0)).abs() < 0.1);
    }

    #[test]
    fn later_rows_run_warmer() {
        let e = Environment::default();
        assert!(e.temperature_c(at_hour(12), 5) > e.temperature_c(at_hour(12), 0));
    }

    #[test]
    fn stress_factor_nominal_near_one() {
        let e = Environment::default();
        // 09:00, row 0: close to nominal.
        let f = e.stress_factor(at_hour(9), 0);
        assert!((0.8..1.3).contains(&f), "factor {f}");
    }

    #[test]
    fn stressed_env_raises_hazard() {
        let n = Environment::default();
        let s = Environment {
            base_temp_c: 28.0,
            diurnal_amp_c: 4.0,
            row_gradient_c: 0.8,
            humidity: 0.65,
            vibration: 0.35,
        };
        let t = at_hour(15);
        assert!(s.stress_factor(t, 3) > 1.2 * n.stress_factor(t, 3));
    }

    #[test]
    fn stress_factor_bounded() {
        let e = Environment {
            base_temp_c: 60.0,
            diurnal_amp_c: 30.0,
            row_gradient_c: 5.0,
            humidity: 1.0,
            vibration: 1.0,
        };
        for h in 0..24 {
            let f = e.stress_factor(at_hour(h), 10);
            assert!((0.5..=3.0).contains(&f));
        }
    }

    #[test]
    fn utilization_trough_in_morning() {
        let peak = diurnal_utilization(at_hour(20));
        assert!(peak > 0.7);
        // 08:00 is the analytic minimum of the curve (weekday).
        let t08 = diurnal_utilization(at_hour(24 + 8)); // day 1, 08:00
        assert!(t08 < 0.30, "trough {t08}");
        assert!(t08 < peak);
    }

    #[test]
    fn weekend_runs_lighter() {
        // Day 5, 20:00 vs day 4, 20:00.
        let weekday = diurnal_utilization(at_hour(4 * 24 + 20));
        let weekend = diurnal_utilization(at_hour(5 * 24 + 20));
        assert!(weekend < weekday);
    }

    #[test]
    fn utilization_in_unit_interval() {
        for h in 0..24 * 14 {
            let u = diurnal_utilization(at_hour(h));
            assert!((0.05..=1.0).contains(&u));
        }
    }
}
