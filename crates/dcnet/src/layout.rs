//! Physical hall geometry: rack grid, port positions, cable trays.
//!
//! Maintenance is a *physical* activity, so the substrate must answer
//! physical questions the control plane and robots ask:
//!
//! * Where is this port? (travel time for technicians/robots; §3.4's
//!   "racks can be as high as 52U … at head height and above".)
//! * Which tray segments does this cable traverse? (Cables sharing a tray
//!   are the ones disturbed by pulling it — the §1 cascading-failure
//!   mechanism.)
//! * Which ports sit next to this one on the faceplate? (High cabling
//!   density around a port is what makes grasping hard, §3.3.3.)
//!
//! The hall is a grid of `rows × racks_per_row` racks. Each row has an
//! overhead tray running along it, segmented per rack gap; cross-hall
//! spine trays at column 0 join rows. A cable from rack A to rack B rises
//! to the tray, runs along row A to the spine, crosses, and runs along row
//! B — the classic "trunks running beside and above the racks" of §3.2.

use crate::ids::{RackId, TraySegmentId};

/// Rack-grid coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RackLoc {
    /// Row index (0-based).
    pub row: u32,
    /// Rack index within the row (0-based).
    pub col: u32,
}

/// Which face of the rack a port is reached from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Face {
    /// Cold-aisle side.
    Front,
    /// Hot-aisle side (most network gear cables here).
    Rear,
}

/// Physical location of a port: rack, height, face, faceplate slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortLoc {
    /// The rack holding the device.
    pub rack: RackId,
    /// Rack-unit height of the device (1-based from the floor).
    pub u: u8,
    /// Rack face.
    pub face: Face,
    /// Slot index along the device faceplate (0-based, left to right).
    pub slot: u16,
}

/// Hall geometry parameters and tray arithmetic.
#[derive(Debug, Clone)]
pub struct HallLayout {
    /// Number of rack rows.
    pub rows: u32,
    /// Racks per row.
    pub racks_per_row: u32,
    /// Rack width in meters (standard 600 mm).
    pub rack_width_m: f64,
    /// Row-to-row pitch in meters (rack depth + aisle).
    pub row_pitch_m: f64,
    /// Rack height in U (42 standard, up to 52 per §3.4).
    pub rack_height_u: u8,
    /// Vertical rise from gear to the overhead tray, per end, in meters.
    pub tray_rise_m: f64,
}

impl HallLayout {
    /// A standard hall: `rows × racks_per_row` of 42U racks.
    pub fn new(rows: u32, racks_per_row: u32) -> Self {
        HallLayout {
            rows: rows.max(1),
            racks_per_row: racks_per_row.max(1),
            rack_width_m: 0.6,
            row_pitch_m: 2.4,
            rack_height_u: 42,
            tray_rise_m: 2.6,
        }
    }

    /// Total rack count.
    pub fn rack_count(&self) -> usize {
        (self.rows * self.racks_per_row) as usize
    }

    /// Map grid coordinates to a rack id.
    pub fn rack_id(&self, loc: RackLoc) -> RackId {
        debug_assert!(loc.row < self.rows && loc.col < self.racks_per_row);
        RackId(loc.row * self.racks_per_row + loc.col)
    }

    /// Map a rack id back to grid coordinates.
    pub fn rack_loc(&self, id: RackId) -> RackLoc {
        RackLoc {
            row: id.0 / self.racks_per_row,
            col: id.0 % self.racks_per_row,
        }
    }

    /// Aisle walking distance between two racks in meters (Manhattan along
    /// the row then across at the row head — humans and mobile robots
    /// cannot cut through racks).
    pub fn walk_distance_m(&self, a: RackLoc, b: RackLoc) -> f64 {
        if a.row == b.row {
            f64::from(a.col.abs_diff(b.col)) * self.rack_width_m
        } else {
            // Walk to the row head, cross rows, walk back in.
            let out = f64::from(a.col) * self.rack_width_m;
            let cross = f64::from(a.row.abs_diff(b.row)) * self.row_pitch_m;
            let back = f64::from(b.col) * self.rack_width_m;
            out + cross + back
        }
    }

    // --- Tray-segment id arithmetic ------------------------------------
    //
    // Along-row segments: for each row r there are (racks_per_row - 1)
    // segments joining adjacent rack tops; id = r * (racks_per_row-1) + c
    // joins col c to col c+1.
    // Spine segments: (rows - 1) segments at column 0 joining row r to
    // r+1; ids follow all along-row segments.

    fn along_segments_per_row(&self) -> u32 {
        self.racks_per_row.saturating_sub(1)
    }

    /// Total number of tray segments in the hall.
    pub fn tray_segment_count(&self) -> usize {
        (self.rows * self.along_segments_per_row() + (self.rows - 1)) as usize
    }

    fn along_seg(&self, row: u32, col: u32) -> TraySegmentId {
        TraySegmentId(row * self.along_segments_per_row() + col)
    }

    fn spine_seg(&self, row: u32) -> TraySegmentId {
        TraySegmentId(self.rows * self.along_segments_per_row() + row)
    }

    /// Tray route between two racks: the segment list a cable occupies and
    /// its routed length in meters (including the rises at both ends).
    /// Intra-rack cabling uses no tray and gets a short fixed length.
    pub fn route(&self, a: RackLoc, b: RackLoc) -> CableRoute {
        if a == b {
            return CableRoute {
                segments: Vec::new(),
                length_m: 1.5, // in-rack patch slack
            };
        }
        let mut segments = Vec::new();
        let mut length = 2.0 * self.tray_rise_m;
        if a.row == b.row {
            let (lo, hi) = (a.col.min(b.col), a.col.max(b.col));
            for c in lo..hi {
                segments.push(self.along_seg(a.row, c));
            }
            length += f64::from(hi - lo) * self.rack_width_m;
        } else {
            // Along row a to the spine at col 0.
            for c in 0..a.col {
                segments.push(self.along_seg(a.row, c));
            }
            length += f64::from(a.col) * self.rack_width_m;
            // Across the spine.
            let (lo, hi) = (a.row.min(b.row), a.row.max(b.row));
            for r in lo..hi {
                segments.push(self.spine_seg(r));
            }
            length += f64::from(hi - lo) * self.row_pitch_m;
            // Along row b from the spine.
            for c in 0..b.col {
                segments.push(self.along_seg(b.row, c));
            }
            length += f64::from(b.col) * self.rack_width_m;
        }
        CableRoute {
            segments,
            length_m: length + 1.0, // connector service loops
        }
    }
}

/// A routed cable path: tray segments occupied plus total length.
#[derive(Debug, Clone)]
pub struct CableRoute {
    /// Tray segments the cable occupies (empty for intra-rack links).
    pub segments: Vec<TraySegmentId>,
    /// Routed length in meters.
    pub length_m: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hall() -> HallLayout {
        HallLayout::new(4, 10)
    }

    #[test]
    fn rack_id_roundtrip() {
        let h = hall();
        for row in 0..4 {
            for col in 0..10 {
                let loc = RackLoc { row, col };
                assert_eq!(h.rack_loc(h.rack_id(loc)), loc);
            }
        }
        assert_eq!(h.rack_count(), 40);
    }

    #[test]
    fn same_rack_route_is_traysless() {
        let h = hall();
        let loc = RackLoc { row: 1, col: 3 };
        let r = h.route(loc, loc);
        assert!(r.segments.is_empty());
        assert!(r.length_m < 3.0);
    }

    #[test]
    fn same_row_route_uses_along_segments() {
        let h = hall();
        let r = h.route(RackLoc { row: 2, col: 1 }, RackLoc { row: 2, col: 4 });
        assert_eq!(r.segments.len(), 3);
        // 3 racks * 0.6 m + 2 * 2.6 rise + 1.0 slack
        assert!((r.length_m - (1.8 + 5.2 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn cross_row_route_passes_spine() {
        let h = hall();
        let r = h.route(RackLoc { row: 0, col: 2 }, RackLoc { row: 3, col: 1 });
        // 2 along in row 0 + 3 spine + 1 along in row 3
        assert_eq!(r.segments.len(), 6);
        let spine_count = r
            .segments
            .iter()
            .filter(|s| s.0 >= h.rows * (h.racks_per_row - 1))
            .count();
        assert_eq!(spine_count, 3);
    }

    #[test]
    fn route_is_symmetric_in_length() {
        let h = hall();
        let a = RackLoc { row: 0, col: 7 };
        let b = RackLoc { row: 3, col: 2 };
        let ab = h.route(a, b);
        let ba = h.route(b, a);
        assert!((ab.length_m - ba.length_m).abs() < 1e-9);
        // Same multiset of segments.
        let mut s1 = ab.segments.clone();
        let mut s2 = ba.segments.clone();
        s1.sort();
        s2.sort();
        assert_eq!(s1, s2);
    }

    #[test]
    fn segment_ids_unique_and_in_range() {
        let h = hall();
        let count = h.tray_segment_count();
        let mut seen = std::collections::BTreeSet::new();
        for row in 0..h.rows {
            for col in 0..h.racks_per_row - 1 {
                let s = h.along_seg(row, col);
                assert!((s.0 as usize) < count);
                assert!(seen.insert(s));
            }
        }
        for row in 0..h.rows - 1 {
            let s = h.spine_seg(row);
            assert!((s.0 as usize) < count);
            assert!(seen.insert(s));
        }
        assert_eq!(seen.len(), count);
    }

    #[test]
    fn walk_distance_same_row() {
        let h = hall();
        let d = h.walk_distance_m(RackLoc { row: 1, col: 2 }, RackLoc { row: 1, col: 7 });
        assert!((d - 3.0).abs() < 1e-9);
    }

    #[test]
    fn walk_distance_cross_row_goes_via_row_head() {
        let h = hall();
        let d = h.walk_distance_m(RackLoc { row: 0, col: 5 }, RackLoc { row: 2, col: 5 });
        // 5*0.6 out + 2*2.4 cross + 5*0.6 back
        assert!((d - (3.0 + 4.8 + 3.0)).abs() < 1e-9);
    }
}
