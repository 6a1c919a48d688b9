//! Global-free counters and fixed-bucket duration histograms.
//!
//! No statics, no locks: one [`ObsRegistry`] value is threaded through
//! the engine and read out of the run report. Keys are `&'static str`
//! (the closed label vocabulary), so recording allocates only when a
//! *new* series first appears — and nothing at all when disabled.
//!
//! Histogram buckets are fixed at construction (log-spaced, 100 ms to
//! 3 days) so two runs bucket identically regardless of data order.

use dcmaint_des::SimDuration;

/// Fixed histogram bucket upper bounds, in microseconds.
const BOUNDS_US: [u64; 14] = [
    100_000,         // 100 ms
    1_000_000,       // 1 s
    5_000_000,       // 5 s
    15_000_000,      // 15 s
    30_000_000,      // 30 s
    60_000_000,      // 1 min
    300_000_000,     // 5 min
    900_000_000,     // 15 min
    1_800_000_000,   // 30 min
    3_600_000_000,   // 1 h
    14_400_000_000,  // 4 h
    43_200_000_000,  // 12 h
    86_400_000_000,  // 1 d
    259_200_000_000, // 3 d
];

/// One duration histogram series, keyed `family/key` (for example
/// `phase/grip` or `span/queued`).
#[derive(Debug, Clone)]
struct Hist {
    family: &'static str,
    key: &'static str,
    counts: [u64; BOUNDS_US.len()],
    overflow: u64,
    total: u64,
    sum_us: u64,
}

dcmaint_ckpt::persist!(Hist {
    family,
    key,
    counts,
    overflow,
    total,
    sum_us,
});

/// A read-only view of one histogram series for reports.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Series family (`phase`, `span`, `detect`, …).
    pub family: &'static str,
    /// Series key within the family.
    pub key: &'static str,
    /// Observation count.
    pub total: u64,
    /// Sum of observations.
    pub sum: SimDuration,
    /// `(bucket upper bound, count)` pairs, fixed bounds.
    pub buckets: Vec<(SimDuration, u64)>,
    /// Observations above the last bound.
    pub overflow: u64,
}

impl HistogramSnapshot {
    /// Mean observation; zero when empty.
    pub fn mean(&self) -> SimDuration {
        match self.sum.as_micros().checked_div(self.total) {
            Some(us) => SimDuration::from_micros(us),
            None => SimDuration::ZERO,
        }
    }
}

/// Counters + histograms for one run. Disabled by default; a disabled
/// registry records nothing.
#[derive(Debug, Clone, Default)]
pub struct ObsRegistry {
    enabled: bool,
    counters: Vec<(&'static str, u64)>,
    hists: Vec<Hist>,
}

// Series order is the first-touch order, which save/load preserve
// exactly; labels come back through the process-wide intern table.
dcmaint_ckpt::persist!(ObsRegistry {
    enabled,
    counters,
    hists,
});

impl ObsRegistry {
    /// A registry that records.
    pub fn enabled() -> Self {
        ObsRegistry {
            enabled: true,
            ..ObsRegistry::default()
        }
    }

    /// A registry that ignores everything.
    pub fn disabled() -> Self {
        ObsRegistry::default()
    }

    /// Whether this registry records.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Increment a counter by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increment a counter by `n`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        if !self.enabled {
            return;
        }
        for c in &mut self.counters {
            if c.0 == name {
                c.1 += n;
                return;
            }
        }
        self.counters.push((name, n));
    }

    /// Read a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.0 == name)
            .map_or(0, |c| c.1)
    }

    /// Record one duration observation into the `family/key` series.
    pub fn observe(&mut self, family: &'static str, key: &'static str, d: SimDuration) {
        if !self.enabled {
            return;
        }
        let idx = self
            .hists
            .iter()
            .position(|h| h.family == family && h.key == key)
            .unwrap_or_else(|| {
                self.hists.push(Hist {
                    family,
                    key,
                    counts: [0; BOUNDS_US.len()],
                    overflow: 0,
                    total: 0,
                    sum_us: 0,
                });
                self.hists.len() - 1
            });
        let h = &mut self.hists[idx];
        let us = d.as_micros();
        match BOUNDS_US.iter().position(|&b| us <= b) {
            Some(i) => h.counts[i] += 1,
            None => h.overflow += 1,
        }
        h.total += 1;
        h.sum_us = h.sum_us.saturating_add(us);
    }

    /// All counters, sorted by name (deterministic regardless of
    /// first-touch order).
    pub fn counters_sorted(&self) -> Vec<(&'static str, u64)> {
        let mut out = self.counters.clone();
        out.sort_by_key(|c| c.0);
        out
    }

    /// All histogram series, sorted by `(family, key)`.
    pub fn histograms_sorted(&self) -> Vec<HistogramSnapshot> {
        let mut hists: Vec<&Hist> = self.hists.iter().collect();
        hists.sort_by_key(|h| (h.family, h.key));
        hists
            .into_iter()
            .map(|h| HistogramSnapshot {
                family: h.family,
                key: h.key,
                total: h.total,
                sum: SimDuration::from_micros(h.sum_us),
                buckets: BOUNDS_US
                    .iter()
                    .zip(h.counts.iter())
                    .map(|(&b, &c)| (SimDuration::from_micros(b), c))
                    .collect(),
                overflow: h.overflow,
            })
            .collect()
    }

    /// Fold another registry into this one: counters sum by name,
    /// histogram series merge by `(family, key)` — bucket counts add
    /// elementwise (bounds are fixed, so this is exact), overflow and
    /// totals add, and `sum_us` saturates like [`observe`](Self::observe).
    ///
    /// A disabled `other` contributes nothing; merging *into* a disabled
    /// registry is a no-op (the disabled contract wins). Used by the
    /// sweep engine to aggregate observability across seed replicates.
    pub fn merge(&mut self, other: &ObsRegistry) {
        if !self.enabled || !other.enabled {
            return;
        }
        for &(name, v) in &other.counters {
            self.add(name, v);
        }
        for oh in &other.hists {
            let idx = self
                .hists
                .iter()
                .position(|h| h.family == oh.family && h.key == oh.key)
                .unwrap_or_else(|| {
                    self.hists.push(Hist {
                        family: oh.family,
                        key: oh.key,
                        counts: [0; BOUNDS_US.len()],
                        overflow: 0,
                        total: 0,
                        sum_us: 0,
                    });
                    self.hists.len() - 1
                });
            let h = &mut self.hists[idx];
            for (c, oc) in h.counts.iter_mut().zip(oh.counts.iter()) {
                *c += oc;
            }
            h.overflow += oh.overflow;
            h.total += oh.total;
            h.sum_us = h.sum_us.saturating_add(oh.sum_us);
        }
    }

    /// Incremental read: everything that changed since `cursor` last saw
    /// this registry, without re-scanning series that stayed flat.
    ///
    /// Counter and histogram storage is append-only and index-stable
    /// (series are never removed or reordered; save/load preserves
    /// first-touch order), so the cursor keys its baselines by index.
    /// The returned view borrows scratch buffers owned by the cursor:
    /// after warm-up they are reused, so a tick where nothing moved
    /// performs **zero allocations** — the contract the periodic
    /// autonomic monitor depends on, pinned by
    /// `read_window_is_zero_alloc_when_idle`.
    ///
    /// A cursor must stay paired with one registry; feeding it a
    /// different (or restored-then-diverged) registry yields deltas
    /// against whatever baselines it carries.
    pub fn read_window<'c>(&self, cursor: &'c mut RegistryCursor) -> WindowDelta<'c> {
        cursor.counter_out.clear();
        cursor.hist_out.clear();
        if cursor.counter_seen.len() < self.counters.len() {
            cursor.counter_seen.resize(self.counters.len(), 0);
        }
        for (i, &(name, v)) in self.counters.iter().enumerate() {
            let delta = v - cursor.counter_seen[i];
            if delta != 0 {
                cursor.counter_out.push((name, delta));
                cursor.counter_seen[i] = v;
            }
        }
        if cursor.hist_seen.len() < self.hists.len() {
            cursor.hist_seen.resize(self.hists.len(), (0, 0));
        }
        for (i, h) in self.hists.iter().enumerate() {
            let (seen_total, seen_sum) = cursor.hist_seen[i];
            if h.total != seen_total || h.sum_us != seen_sum {
                cursor.hist_out.push(HistDelta {
                    family: h.family,
                    key: h.key,
                    total: h.total - seen_total,
                    sum_us: h.sum_us.wrapping_sub(seen_sum),
                });
                cursor.hist_seen[i] = (h.total, h.sum_us);
            }
        }
        WindowDelta {
            counters: &cursor.counter_out,
            hists: &cursor.hist_out,
        }
    }

    /// Render counters and histogram summaries as stable JSON lines
    /// (one object per line), for appending to a journal dump.
    pub fn snapshot_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, v) in self.counters_sorted() {
            out.push(format!(
                "{{\"ev\":\"counter\",\"name\":\"{name}\",\"value\":{v}}}"
            ));
        }
        for h in self.histograms_sorted() {
            out.push(format!(
                "{{\"ev\":\"histogram\",\"family\":\"{}\",\"key\":\"{}\",\
                 \"count\":{},\"sum_us\":{},\"overflow\":{}}}",
                h.family,
                h.key,
                h.total,
                h.sum.as_micros(),
                h.overflow
            ));
        }
        out
    }
}

/// Baselines + reusable scratch for [`ObsRegistry::read_window`].
///
/// Owns per-index last-seen values for every counter and histogram
/// series, plus the output buffers the returned [`WindowDelta`] borrows.
/// `Default` starts at zero baselines, so the first read returns the
/// registry's full contents as one initial window.
#[derive(Debug, Clone, Default)]
pub struct RegistryCursor {
    counter_seen: Vec<u64>,
    hist_seen: Vec<(u64, u64)>,
    counter_out: Vec<(&'static str, u64)>,
    hist_out: Vec<HistDelta>,
}

// Valid against the registry restored from the same snapshot: save/load
// preserves series order, so the index-keyed baselines line up exactly.
dcmaint_ckpt::persist!(RegistryCursor { counter_seen, hist_seen } skip {
    counter_out: "scratch, cleared at every window",
    hist_out: "scratch, cleared at every window",
});

impl RegistryCursor {
    /// Current scratch-buffer capacities `(counters, histograms)`.
    /// Diagnostic surface for the zero-alloc-when-idle pin test.
    pub fn scratch_capacity(&self) -> (usize, usize) {
        (self.counter_out.capacity(), self.hist_out.capacity())
    }
}

/// One histogram series' movement within a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistDelta {
    /// Series family (`phase`, `span`, …).
    pub family: &'static str,
    /// Series key within the family.
    pub key: &'static str,
    /// Observations added this window.
    pub total: u64,
    /// Sum of observations added this window, in microseconds.
    pub sum_us: u64,
}

/// Borrowed view of one incremental window from
/// [`ObsRegistry::read_window`]: only the series that moved.
#[derive(Debug)]
pub struct WindowDelta<'c> {
    /// `(name, delta)` for every counter that changed, first-touch order.
    pub counters: &'c [(&'static str, u64)],
    /// Movement per histogram series that changed, first-touch order.
    pub hists: &'c [HistDelta],
}

impl WindowDelta<'_> {
    /// Whether nothing moved this window.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Delta for one counter this window (0 when it did not move).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.0 == name)
            .map_or(0, |c| c.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let mut r = ObsRegistry::disabled();
        r.inc("x");
        r.observe("phase", "grip", SimDuration::from_secs(3));
        assert_eq!(r.counter("x"), 0);
        assert!(r.histograms_sorted().is_empty());
        assert!(r.snapshot_lines().is_empty());
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let mut r = ObsRegistry::enabled();
        r.inc("zeta");
        r.add("alpha", 4);
        r.inc("zeta");
        assert_eq!(r.counter("zeta"), 2);
        assert_eq!(r.counter("alpha"), 4);
        assert_eq!(r.counter("missing"), 0);
        let names: Vec<_> = r.counters_sorted().iter().map(|c| c.0).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn histogram_buckets_fixed_and_exact() {
        let mut r = ObsRegistry::enabled();
        r.observe("phase", "grip", SimDuration::from_secs(3)); // ≤ 5 s
        r.observe("phase", "grip", SimDuration::from_secs(3));
        r.observe("phase", "grip", SimDuration::from_days(30)); // overflow
        let hs = r.histograms_sorted();
        assert_eq!(hs.len(), 1);
        let h = &hs[0];
        assert_eq!(h.total, 3);
        assert_eq!(h.overflow, 1);
        let five_s = h
            .buckets
            .iter()
            .find(|(b, _)| *b == SimDuration::from_secs(5))
            .unwrap();
        assert_eq!(five_s.1, 2);
        assert_eq!(
            h.sum,
            SimDuration::from_secs(6) + SimDuration::from_days(30)
        );
        assert!(h.mean() > SimDuration::from_days(9));
    }

    #[test]
    fn series_are_keyed_by_family_and_key() {
        let mut r = ObsRegistry::enabled();
        r.observe("phase", "grip", SimDuration::from_secs(1));
        r.observe("span", "grip", SimDuration::from_secs(1));
        r.observe("phase", "insert", SimDuration::from_secs(1));
        let keys: Vec<_> = r
            .histograms_sorted()
            .iter()
            .map(|h| (h.family, h.key))
            .collect();
        assert_eq!(
            keys,
            vec![("phase", "grip"), ("phase", "insert"), ("span", "grip")]
        );
    }

    #[test]
    fn merge_sums_counters_and_histograms() {
        let mut a = ObsRegistry::enabled();
        a.inc("ops");
        a.observe("phase", "grip", SimDuration::from_secs(3));
        let mut b = ObsRegistry::enabled();
        b.add("ops", 2);
        b.inc("faults");
        b.observe("phase", "grip", SimDuration::from_secs(3));
        b.observe("phase", "grip", SimDuration::from_days(30)); // overflow
        b.observe("span", "queued", SimDuration::from_secs(1));

        a.merge(&b);
        assert_eq!(a.counter("ops"), 3);
        assert_eq!(a.counter("faults"), 1);
        let hs = a.histograms_sorted();
        assert_eq!(
            hs.iter().map(|h| (h.family, h.key)).collect::<Vec<_>>(),
            vec![("phase", "grip"), ("span", "queued")]
        );
        let grip = &hs[0];
        assert_eq!(grip.total, 3);
        assert_eq!(grip.overflow, 1);
        assert_eq!(
            grip.sum,
            SimDuration::from_secs(6) + SimDuration::from_days(30)
        );
        // Merging is equivalent to having observed everything in one
        // registry: bucket-exact because bounds are fixed.
        let five_s = grip
            .buckets
            .iter()
            .find(|(bnd, _)| *bnd == SimDuration::from_secs(5))
            .unwrap();
        assert_eq!(five_s.1, 2);
    }

    #[test]
    fn merge_respects_disabled_contract() {
        let mut off = ObsRegistry::disabled();
        let mut on = ObsRegistry::enabled();
        on.inc("ops");
        off.merge(&on);
        assert_eq!(off.counter("ops"), 0);
        assert!(!off.is_enabled());

        let mut a = ObsRegistry::enabled();
        a.inc("ops");
        a.merge(&ObsRegistry::disabled());
        assert_eq!(a.counter("ops"), 1);
    }

    #[test]
    fn read_window_returns_incremental_deltas() {
        let mut r = ObsRegistry::enabled();
        let mut cur = RegistryCursor::default();

        r.add("ops", 3);
        r.observe("phase", "grip", SimDuration::from_secs(2));
        let w = r.read_window(&mut cur);
        assert_eq!(w.counter("ops"), 3);
        assert_eq!(w.hists.len(), 1);
        assert_eq!(w.hists[0].total, 1);
        assert_eq!(w.hists[0].sum_us, 2_000_000);

        // Second window sees only what moved since the first.
        r.add("ops", 2);
        r.inc("faults");
        r.observe("phase", "grip", SimDuration::from_secs(5));
        let w = r.read_window(&mut cur);
        assert_eq!(w.counter("ops"), 2);
        assert_eq!(w.counter("faults"), 1);
        assert_eq!(w.hists.len(), 1);
        assert_eq!(w.hists[0].total, 1);
        assert_eq!(w.hists[0].sum_us, 5_000_000);

        // Nothing moved: the window is empty, flat series are skipped.
        let w = r.read_window(&mut cur);
        assert!(w.is_empty());
        assert_eq!(w.counter("ops"), 0);
    }

    #[test]
    fn read_window_handles_series_appearing_between_windows() {
        let mut r = ObsRegistry::enabled();
        let mut cur = RegistryCursor::default();
        r.inc("a");
        assert_eq!(r.read_window(&mut cur).counter("a"), 1);
        // New series appended after the cursor was sized.
        r.inc("b");
        r.observe("span", "queued", SimDuration::from_secs(1));
        let w = r.read_window(&mut cur);
        assert_eq!(w.counter("a"), 0);
        assert_eq!(w.counter("b"), 1);
        assert_eq!(w.hists.len(), 1);
        assert_eq!(w.hists[0].key, "queued");
    }

    #[test]
    fn read_window_is_zero_alloc_when_idle() {
        let mut r = ObsRegistry::enabled();
        let mut cur = RegistryCursor::default();
        r.add("ops", 7);
        r.inc("faults");
        r.observe("phase", "grip", SimDuration::from_secs(2));
        r.observe("span", "queued", SimDuration::from_secs(9));
        // Warm-up window sizes the scratch buffers.
        assert!(!r.read_window(&mut cur).is_empty());
        let warm = cur.scratch_capacity();
        let warm_ptr = cur.counter_out.as_ptr();

        // Idle windows: no movement ⇒ no growth, no reallocation. The
        // buffer pointer pin makes a sneaky clear-and-collect rewrite
        // (which would allocate fresh Vecs per tick) fail loudly.
        for _ in 0..16 {
            assert!(r.read_window(&mut cur).is_empty());
            assert_eq!(cur.scratch_capacity(), warm);
            assert_eq!(cur.counter_out.as_ptr(), warm_ptr);
        }

        // Even a busy window reuses the warmed buffers: same series set
        // moving again fits in the existing capacity.
        r.add("ops", 1);
        r.observe("phase", "grip", SimDuration::from_secs(1));
        assert_eq!(r.read_window(&mut cur).counter("ops"), 1);
        assert_eq!(cur.scratch_capacity(), warm);
        assert_eq!(cur.counter_out.as_ptr(), warm_ptr);
    }

    #[test]
    fn snapshot_lines_are_stable() {
        let mut r = ObsRegistry::enabled();
        r.inc("ops");
        r.observe("phase", "grip", SimDuration::from_secs(2));
        let lines = r.snapshot_lines();
        assert_eq!(
            lines[0],
            "{\"ev\":\"counter\",\"name\":\"ops\",\"value\":1}"
        );
        assert!(lines[1].contains("\"family\":\"phase\""));
    }
}
