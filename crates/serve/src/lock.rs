//! The daemon's one lock, and the token that orders it.
//!
//! [`Shared`] has a single `Mutex`, over [`Inner`]: the job table and
//! queue, the serve-plane counters and the engine profiles of finished
//! jobs. The field is private to this module. The only ways in are
//! [`Shared::state`] and [`Shared::count`], and both take the calling
//! thread's [`Unlocked`] token by `&mut`. The guard `state` returns
//! borrows that token, so while it is alive the thread can neither take
//! the state again nor call anything else that takes the token: a
//! self-deadlock is a borrow error (E0499), not a hang.
//!
//! [`spawn`] mints one token for each new thread (the worker, the accept
//! loop and each connection), and a new thread holds no lock. No other
//! code can build a token (E0423). The drain flags are atomics, so
//! raising or reading them takes no lock and needs no token.
//!
//! The only other lock is the [`Fanout`] ring, a leaf: its guard never
//! leaves a `Fanout` method and no `Fanout` method takes a token. So the
//! ring may be taken while the state is held (`/status` reads the stream
//! seq there), but nothing is ever taken under the ring.
//!
//! ```compile_fail,E0423
//! let _token = dcmaint_serve::lock::Unlocked(());
//! ```
//!
//! ```compile_fail,E0499
//! use dcmaint_serve::lock::{Shared, Unlocked};
//! fn twice(shared: &Shared, t: &mut Unlocked) {
//!     let a = shared.state(t);
//!     let b = shared.state(t);
//!     drop((a, b));
//! }
//! ```
//!
//! ```compile_fail,E0499
//! use dcmaint_serve::lock::{Shared, Unlocked};
//! fn count_under_state(shared: &Shared, t: &mut Unlocked) {
//!     let g = shared.state(t);
//!     shared.count(t, "serve/accepted");
//!     drop(g);
//! }
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::AtomicBool;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use dcmaint_obs::ObsRegistry;

use crate::fanout::Fanout;
use crate::queue::Spool;
use crate::worker::{JobProfile, JobRecord};
use crate::ServeConfig;

/// Proof that the holding thread has no lock taken through it. Only
/// [`spawn`] makes one.
pub struct Unlocked(());

/// Spawn a thread, handing its body the thread's token.
pub fn spawn<T: Send + 'static>(
    body: impl FnOnce(&mut Unlocked) -> T + Send + 'static,
) -> JoinHandle<T> {
    std::thread::spawn(move || body(&mut Unlocked(())))
}

/// Mutable daemon state behind the lock.
#[derive(Debug)]
pub struct Inner {
    /// Pending job ids, accepted order.
    pub queue: VecDeque<u64>,
    /// Every job this daemon knows about.
    pub jobs: BTreeMap<u64, JobRecord>,
    /// Id the next accepted job gets.
    pub next_id: u64,
    /// Serve-plane counters (`/metrics`).
    pub registry: ObsRegistry,
    /// Engine profiles of finished `profile=1` jobs, by job id.
    pub profiles: BTreeMap<u64, JobProfile>,
}

/// State shared by the front end and the worker.
pub struct Shared {
    /// Daemon knobs.
    pub cfg: ServeConfig,
    /// Durable queue.
    pub spool: Spool,
    /// Live journal broadcast.
    pub fanout: Fanout,
    /// Wakes the worker on submit/drain.
    pub cv: Condvar,
    /// Graceful shutdown requested: shed new work, park the current job
    /// at its next quantum, stop.
    pub draining: AtomicBool,
    /// The worker thread has exited.
    pub worker_stopped: AtomicBool,
    state: Mutex<Inner>,
}

impl Shared {
    /// Shared state over `inner`, with a fan-out sized by `cfg`.
    pub fn new(cfg: ServeConfig, spool: Spool, inner: Inner) -> Shared {
        Shared {
            fanout: Fanout::new(cfg.ring_capacity),
            cfg,
            spool,
            cv: Condvar::new(),
            draining: AtomicBool::new(false),
            worker_stopped: AtomicBool::new(false),
            state: Mutex::new(inner),
        }
    }

    /// Take the daemon state. The guard borrows `t`, so nothing else can
    /// be taken through it until the guard drops.
    pub fn state<'a>(&'a self, _t: &'a mut Unlocked) -> MutexGuard<'a, Inner> {
        self.state.lock().expect("serve lock")
    }

    /// Bump a serve-plane counter.
    pub fn count(&self, t: &mut Unlocked, name: &'static str) {
        self.state(t).registry.inc(name);
    }
}
