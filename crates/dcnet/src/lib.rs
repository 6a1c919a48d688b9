//! # dcmaint-dcnet — the datacenter-network substrate
//!
//! Everything the maintenance system operates *on*: the paper (§3.1)
//! inventories "server NICs, switches, routers, line cards, (optical)
//! transceivers, and cables (fiber or copper)", and this crate models that
//! inventory with its physical embedding:
//!
//! * [`components`] — transceiver form factors and design families, cable
//!   media (DAC / AEC / AOC / LC / MPO) with separability and core counts,
//!   switch specs, fleet diversity;
//! * [`layout`] — the hall: rack grid, port positions, overhead cable
//!   trays, walking distances;
//! * [`topology`] / [`gen`] — the cabled graph and its generators
//!   (leaf-spine, fat-tree, Jellyfish, Xpander) with tray routing and
//!   disturbance-neighbor precomputation;
//! * [`state`] — live link health (up / degraded / flapping / down) and
//!   administrative state (in-service / drained / maintenance);
//! * [`routing`] — BFS + deterministic ECMP, path diversity, pair
//!   connectivity;
//! * [`flows`] — fluid max-min fair rates and the loss → tail-latency
//!   model behind the flapping-link experiments.
//!
//! The split between static [`topology::Topology`] and dynamic
//! [`state::NetState`] is deliberate: one built topology is shared by many
//! simulation runs, and everything mutable is in one small, cloneable
//! struct.
//!
//! ```
//! use dcmaint_dcnet::{gen, DiversityProfile, LinkHealth, NetState};
//! use dcmaint_dcnet::routing::{connected, ecmp_path};
//! use dcmaint_des::SimRng;
//!
//! // A 2-spine, 4-leaf Clos with 2 servers per leaf.
//! let topo = gen::leaf_spine(2, 4, 2, 1, DiversityProfile::cloud_typical(), &SimRng::root(7));
//! let mut state = NetState::new(&topo);
//! let servers = topo.servers();
//!
//! // Healthy: any pair routes on a shortest path.
//! let path = ecmp_path(&topo, &state, servers[0], servers[7], 42).unwrap();
//! assert_eq!(path.len(), 4); // srv → leaf → spine → leaf → srv
//!
//! // Fail one uplink: ECMP steers around it.
//! state.set_health(path[1], LinkHealth::Down, 1.0);
//! assert!(connected(&topo, &state, servers[0], servers[7]));
//! ```

#![warn(missing_docs)]

pub mod components;
pub mod flows;
pub mod gen;
pub mod ids;
pub mod layout;
pub mod routing;
pub mod state;
pub mod topology;

pub use components::{
    Cable, CableMedium, DesignFamily, DiversityProfile, FormFactor, SwitchSpec, Transceiver,
};
pub use ids::{LinkId, NodeId, PortId, RackId, RowId, TraySegmentId};
pub use layout::{CableRoute, Face, HallLayout, PortLoc, RackLoc};
pub use state::{AdminState, LinkHealth, LinkState, NetState};
pub use topology::{Link, Node, NodeKind, Port, Tier, Topology, TopologyBuilder};
