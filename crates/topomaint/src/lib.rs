//! # dcmaint-topomaint — self-maintainability of network topologies
//!
//! §4 of the paper: expander topologies (Jellyfish, Xpander) beat Clos
//! fabrics on paper but are undeployed because "the complexity to
//! manually deploy the complex wiring looms" — and asks "perhaps we can
//! create a metric for self-maintainability of a network design?"
//!
//! This crate is that metric. [`analyze`] measures, over the *same*
//! physical hall model every generator uses:
//!
//! * **wiring complexity** — total/mean cable length, cross-rack
//!   fraction, distinct cable-length SKUs (each SKU is another thing a
//!   robot must recognize and stock);
//! * **tray congestion** — how many cables share each pathway (the §1
//!   cascading-failure surface);
//! * **blast radius** — mean disturbance-neighbor count per link;
//! * **row locality** — fraction of links whose both ends are served by
//!   the same row-scope robot (§3.4's cheapest mobility tier);
//! * **drainability** — fraction of links that can be drained for
//!   maintenance without disconnecting sampled service pairs.
//!
//! These combine into a 0–100 [`MaintainabilityReport::index`]. Scores
//! are comparative — the experiments (E8) rank topologies, they don't
//! interpret absolute values.

#![warn(missing_docs)]

pub mod reconfig;

use std::collections::BTreeSet;

use dcmaint_dcnet::routing::connected_pairs;
use dcmaint_dcnet::{NetState, NodeId, Topology};
use dcmaint_des::{SimRng, Stream};

/// Everything [`analyze`] measures about one topology.
#[derive(Debug, Clone)]
pub struct MaintainabilityReport {
    /// Topology name.
    pub topology: String,
    /// Link count.
    pub links: usize,
    /// Switch count.
    pub switches: usize,
    /// Total routed cable length, meters.
    pub total_cable_m: f64,
    /// Mean routed cable length, meters.
    pub mean_cable_m: f64,
    /// Fraction of links leaving their rack.
    pub cross_rack_frac: f64,
    /// Fraction of links spanning rows (need hall-scope robots or two
    /// coordinated row robots).
    pub cross_row_frac: f64,
    /// Distinct cable-length SKUs (0.5 m granularity).
    pub cable_skus: usize,
    /// Maximum links sharing one tray segment.
    pub max_tray_load: usize,
    /// Mean links per occupied tray segment.
    pub mean_tray_load: f64,
    /// Mean disturbance neighbors per link.
    pub mean_blast_radius: f64,
    /// Fraction of links drainable without disconnecting sampled pairs.
    pub drainable_frac: f64,
    /// Mean cables per cross-rack (rackA, rackB) pair. Structured
    /// fabrics route many cables between the same rack pairs, so they
    /// deploy (and get re-laid by robots) as pre-fabricated trunk
    /// bundles; random topologies route nearly every cable uniquely —
    /// §4's "complex wiring looms".
    pub mean_bundle_size: f64,
    /// Composite self-maintainability index, 0 (nightmare) – 100
    /// (robot-friendly).
    pub index: f64,
}

/// Analyze a topology. `pair_samples` service pairs are sampled
/// deterministically from `rng` for the drainability check.
pub fn analyze(topo: &Topology, pair_samples: usize, rng: &SimRng) -> MaintainabilityReport {
    let links = topo.link_count();
    let mut total_len = 0.0;
    let mut cross_rack = 0usize;
    let mut cross_row = 0usize;
    let mut skus: BTreeSet<u64> = BTreeSet::new();
    let mut blast = 0usize;
    let mut rack_pairs: BTreeSet<(u32, u32)> = BTreeSet::new();
    for l in topo.link_ids() {
        let link = topo.link(l);
        total_len += link.cable.length_m;
        skus.insert((link.cable.length_m * 2.0).round() as u64);
        let (a, b) = topo.endpoints(l);
        let rka = topo.node(a).rack;
        let rkb = topo.node(b).rack;
        if !link.route.segments.is_empty() {
            cross_rack += 1;
            rack_pairs.insert((rka.0.min(rkb.0), rka.0.max(rkb.0)));
        }
        let ra = topo.layout.rack_loc(rka);
        let rb = topo.layout.rack_loc(rkb);
        if ra.row != rb.row {
            cross_row += 1;
        }
        blast += topo.disturb_neighbors(l).len();
    }
    let mean_bundle_size = if rack_pairs.is_empty() {
        1.0
    } else {
        cross_rack as f64 / rack_pairs.len() as f64
    };
    let mut tray_loads: Vec<usize> = Vec::new();
    for seg in 0..topo.layout.tray_segment_count() {
        let n = topo
            .tray_links(dcmaint_dcnet::TraySegmentId(seg as u32))
            .len();
        if n > 0 {
            tray_loads.push(n);
        }
    }
    let max_tray_load = tray_loads.iter().copied().max().unwrap_or(0);
    let mean_tray_load = if tray_loads.is_empty() {
        0.0
    } else {
        tray_loads.iter().sum::<usize>() as f64 / tray_loads.len() as f64
    };
    let drainable_frac = drainability(topo, pair_samples, &mut rng.stream("topomaint-pairs", 0));
    let linkf = links.max(1) as f64;
    let report = MaintainabilityReport {
        topology: topo.name().to_string(),
        links,
        switches: topo.switches().len(),
        total_cable_m: total_len,
        mean_cable_m: total_len / linkf,
        cross_rack_frac: cross_rack as f64 / linkf,
        cross_row_frac: cross_row as f64 / linkf,
        cable_skus: skus.len(),
        max_tray_load,
        mean_tray_load,
        mean_blast_radius: blast as f64 / linkf,
        drainable_frac,
        mean_bundle_size,
        index: 0.0,
    };
    let index = index_of(&report);
    MaintainabilityReport { index, ..report }
}

/// Fraction of links individually drainable without hurting the sampled
/// pair connectivity.
fn drainability(topo: &Topology, pair_samples: usize, stream: &mut Stream) -> f64 {
    let servers = topo.servers();
    // Random-topology fabrics attach servers per switch; if a topology
    // has no servers, sample switch pairs instead.
    let endpoints: Vec<NodeId> = if servers.len() >= 2 {
        servers
    } else {
        topo.switches()
    };
    if endpoints.len() < 2 || topo.link_count() == 0 {
        return 1.0;
    }
    let mut pairs = Vec::new();
    for _ in 0..pair_samples.max(8) {
        let a = endpoints[stream.index(endpoints.len())];
        let b = endpoints[stream.index(endpoints.len())];
        if a != b {
            pairs.push((a, b));
        }
    }
    let state = NetState::new(topo);
    let before = connected_pairs(topo, &state, &[], &pairs);
    let drainable = topo
        .link_ids()
        .filter(|&l| connected_pairs(topo, &state, &[l], &pairs) >= before)
        .count();
    drainable as f64 / topo.link_count() as f64
}

/// The composite index. Each penalty is normalized by a soft scale
/// chosen so a clean leaf-spine lands around 70–85 and a congested
/// random mesh lands visibly lower; weights favour the factors the paper
/// calls out (wiring looms, cascading surfaces).
pub fn index_of(r: &MaintainabilityReport) -> f64 {
    let cable_pen = (r.mean_cable_m / 40.0).min(1.0) * 20.0;
    let tray_pen =
        (r.mean_tray_load / 60.0).min(1.0) * 10.0 + (r.max_tray_load as f64 / 200.0).min(1.0) * 5.0;
    let blast_pen = (r.mean_blast_radius / 40.0).min(1.0) * 10.0;
    let sku_pen = (r.cable_skus as f64 / 30.0).min(1.0) * 10.0;
    let row_pen = r.cross_row_frac * 10.0;
    // Unbundleable wiring is the dominant §4 deployability obstacle.
    let bundle_pen = (1.0 - (r.mean_bundle_size - 1.0) / 4.0).clamp(0.0, 1.0) * 20.0;
    let drain_bonus_loss = (1.0 - r.drainable_frac) * 15.0;
    (100.0 - cable_pen - tray_pen - blast_pen - sku_pen - row_pen - bundle_pen - drain_bonus_loss)
        .clamp(0.0, 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_dcnet::gen::{fat_tree, jellyfish, leaf_spine, xpander};
    use dcmaint_dcnet::DiversityProfile;

    fn rng() -> SimRng {
        SimRng::root(42)
    }

    #[test]
    fn analyze_reports_sane_ranges() {
        let t = leaf_spine(4, 8, 4, 1, DiversityProfile::cloud_typical(), &rng());
        let r = analyze(&t, 30, &rng());
        assert_eq!(r.links, t.link_count());
        assert!(r.mean_cable_m > 0.0);
        assert!((0.0..=1.0).contains(&r.cross_rack_frac));
        assert!((0.0..=1.0).contains(&r.cross_row_frac));
        assert!((0.0..=1.0).contains(&r.drainable_frac));
        assert!((0.0..=100.0).contains(&r.index));
        assert!(r.cable_skus > 0);
    }

    #[test]
    fn leaf_spine_beats_jellyfish_on_maintainability() {
        // The §4 claim, quantified: random wiring looms score worse.
        let ls = leaf_spine(4, 16, 2, 1, DiversityProfile::cloud_typical(), &rng());
        let jf = jellyfish(20, 8, 2, DiversityProfile::cloud_typical(), &rng());
        let rls = analyze(&ls, 30, &rng());
        let rjf = analyze(&jf, 30, &rng());
        assert!(
            rls.index > rjf.index,
            "leaf-spine {:.1} vs jellyfish {:.1}",
            rls.index,
            rjf.index
        );
        // And the mechanism is the wiring loom: random peerings cannot
        // be pre-bundled into trunks, structured fabrics can.
        assert!(
            rls.mean_bundle_size > 2.0 * rjf.mean_bundle_size,
            "bundles: leaf-spine {:.2} vs jellyfish {:.2}",
            rls.mean_bundle_size,
            rjf.mean_bundle_size
        );
    }

    #[test]
    fn expanders_have_high_drainability() {
        // Expanders' rich path diversity means almost every link is
        // individually drainable — the one axis where they are *more*
        // maintainable. (Server access links are never drainable, so
        // compare switch-switch fabric only via a serverless build.)
        let xp = xpander(6, 4, 0, DiversityProfile::cloud_typical(), &rng());
        let r = analyze(&xp, 30, &rng());
        assert!(r.drainable_frac > 0.9, "drainable {}", r.drainable_frac);
    }

    #[test]
    fn fat_tree_analysis_runs() {
        let ft = fat_tree(4, DiversityProfile::cloud_typical(), &rng());
        let r = analyze(&ft, 30, &rng());
        assert!(r.index > 0.0);
        assert_eq!(r.switches, 20);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = jellyfish(12, 4, 1, DiversityProfile::cloud_typical(), &rng());
        let a = analyze(&t, 20, &rng());
        let b = analyze(&t, 20, &rng());
        assert_eq!(a.index, b.index);
        assert_eq!(a.drainable_frac, b.drainable_frac);
    }

    #[test]
    fn index_penalizes_each_axis() {
        let base = MaintainabilityReport {
            topology: "x".into(),
            links: 100,
            switches: 10,
            total_cable_m: 0.0,
            mean_cable_m: 5.0,
            cross_rack_frac: 0.5,
            cross_row_frac: 0.1,
            cable_skus: 5,
            max_tray_load: 20,
            mean_tray_load: 10.0,
            mean_blast_radius: 5.0,
            drainable_frac: 0.9,
            mean_bundle_size: 3.0,
            index: 0.0,
        };
        let i0 = index_of(&base);
        let longer = MaintainabilityReport {
            mean_cable_m: 30.0,
            ..base.clone()
        };
        assert!(index_of(&longer) < i0);
        let congested = MaintainabilityReport {
            mean_tray_load: 50.0,
            max_tray_load: 150,
            ..base.clone()
        };
        assert!(index_of(&congested) < i0);
        let undrainable = MaintainabilityReport {
            drainable_frac: 0.2,
            ..base.clone()
        };
        assert!(index_of(&undrainable) < i0);
        let many_skus = MaintainabilityReport {
            cable_skus: 30,
            ..base.clone()
        };
        assert!(index_of(&many_skus) < i0);
        let unbundled = MaintainabilityReport {
            mean_bundle_size: 1.0,
            ..base
        };
        assert!(index_of(&unbundled) < i0);
    }
}
