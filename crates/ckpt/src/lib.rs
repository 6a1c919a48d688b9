//! `dcmaint-ckpt` — versioned, byte-deterministic checkpoint format.
//!
//! The simulation's determinism contract ("same seed, same bytes") makes
//! full-state snapshots meaningful: two runs in the same logical state
//! must serialize to the *same bytes*, so a single FNV-1a hash over the
//! payload is a sufficient equality check. That is what powers both
//! `restore ≡ continuous` verification and the `selfmaint bisect`
//! divergence debugger.
//!
//! This crate is the bottom layer — no dependencies, `std` only. It
//! provides:
//!
//! * [`Enc`]/[`Dec`] — a tiny length-prefixed little-endian byte codec.
//!   Floats are stored via [`f64::to_bits`] so encode/decode is exact
//!   (no text round-trip), and every value decodes with bounds checks.
//! * [`StateHash`] — canonical FNV-1a 64 over a snapshot payload.
//! * [`Snapshot`] — the versioned container: magic, format version, a
//!   config fingerprint (restore refuses a snapshot taken under a
//!   different configuration), the payload, and a trailing integrity
//!   hash so a truncated or corrupted file fails loudly.
//! * [`intern`] — a process-wide string interner for restoring the
//!   `&'static str` label vocabularies the hot paths use (trace states,
//!   registry counter names). Each distinct label leaks once per
//!   process, ever — repeated restores reuse the first allocation.
//! * [`Persist`]/[`Decode`] with the [`persist!`] and [`persist_enum!`]
//!   macros — one definition per state type, from which save, restore
//!   and the state hash all derive (see the `persist` module).
//!
//! Compatibility policy (see DESIGN §3.11): the format version is bumped
//! on any byte-layout change, and old versions are *rejected*, never
//! migrated — a snapshot is a cache of a reproducible computation, so
//! the upgrade path is "re-run from the config", not a migration tool.

mod persist;

pub use persist::{fixed_len, gated, unprefixed, Decode, Persist};

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// File magic: identifies a dcmaint snapshot regardless of version.
pub const MAGIC: [u8; 8] = *b"DCMCKPT\0";

/// Current snapshot format version. Bump on any byte-layout change.
/// v2: scheduler section carries the `SchedProf` lifetime counters.
/// v3: engine payload carries the twin-planner section (committed
/// plans, planned-episode set, decision/fork counters).
/// v4: engine payload carries the autonomic MAPE-K section (efficacy
/// posteriors, knob state, monitor cursor baselines, adaptation
/// counters, autonomic RNG stream position).
/// v5: each RNG stream saves its four generator words instead of a draw
/// count, and the fields v4 kept only for their bytes are gone (the
/// scheduler's cancellation zeros, the `AdminState` tag gap, the fault
/// injector's undrawn cause stream, the redundancy cost, the loop's
/// cause mix and the per-link lifetime transition count).
pub const VERSION: u32 = 5;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Canonical FNV-1a 64-bit hash — the same construction `dcmaint-des`
/// uses for RNG substream derivation, applied to snapshot bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash of full engine state, as captured by a snapshot payload. Two
/// engines in the same logical state have equal `StateHash`es because
/// the payload encoding is canonical (deterministic field order, sorted
/// scheduler entries, exact float bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateHash(pub u64);

impl fmt::Display for StateHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Everything that can go wrong loading a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Input ended before the value being decoded did.
    Truncated,
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// Unsupported format version (old snapshots are re-run, not migrated).
    BadVersion(u32),
    /// The trailing integrity hash does not match the bytes.
    Corrupt,
    /// The snapshot was taken under a different configuration.
    ConfigMismatch {
        /// Fingerprint recorded in the snapshot.
        expected: u64,
        /// Fingerprint of the configuration offered for restore.
        got: u64,
    },
    /// A decoded string was not valid UTF-8.
    Utf8,
    /// A decoded discriminant/tag had no meaning (version-skew symptom).
    BadTag(&'static str, u64),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Truncated => write!(f, "snapshot truncated mid-value"),
            CkptError::BadMagic => write!(f, "not a dcmaint snapshot (bad magic)"),
            CkptError::BadVersion(v) => write!(
                f,
                "snapshot format v{v} unsupported (current v{VERSION}); re-run from config"
            ),
            CkptError::Corrupt => write!(f, "snapshot integrity hash mismatch (corrupt file)"),
            CkptError::ConfigMismatch { expected, got } => write!(
                f,
                "snapshot taken under a different config \
                 (snapshot {expected:016x}, offered {got:016x})"
            ),
            CkptError::Utf8 => write!(f, "snapshot string is not valid UTF-8"),
            CkptError::BadTag(what, v) => write!(f, "unknown {what} tag {v} in snapshot"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Encoder: append-only byte buffer with fixed-width little-endian
/// scalars and length-prefixed strings/blobs.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    /// Consume the encoder, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a little-endian u32.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a usize as u64 (platform-independent width). `usize::MAX`
    /// — the "uncapped" sentinel — maps to `u64::MAX` on every target.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(if v == usize::MAX { u64::MAX } else { v as u64 });
    }

    /// Append an f64 as its exact bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a u64-length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a u64-length-prefixed raw byte blob.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }
}

/// Decoder: sequential bounds-checked reader over a payload slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    link_count: u64,
}

impl<'a> Dec<'a> {
    /// Decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec {
            buf,
            pos: 0,
            link_count: u64::MAX,
        }
    }

    /// Bound every link index read through [`Dec::link_index`] by the
    /// topology's link count. A snapshot is only as trustworthy as its
    /// producer: the integrity hash catches bit rot, not a bad writer,
    /// and an out-of-range link id would index past the link tables.
    pub fn with_link_count(mut self, n: usize) -> Self {
        self.link_count = n as u64;
        self
    }

    /// Read a link index, rejecting one outside the bound set by
    /// [`Dec::with_link_count`] (unbounded by default).
    #[inline]
    pub fn link_index(&mut self) -> Result<usize, CkptError> {
        let v = self.u64()?;
        if v >= self.link_count {
            return Err(CkptError::BadTag("link-id", v));
        }
        Ok(v as usize)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed — loaders assert this to
    /// catch encoder/decoder skew.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool (strictly 0/1; anything else is corruption).
    #[inline]
    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CkptError::BadTag("bool", u64::from(v))),
        }
    }

    /// Read a little-endian u32.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Read a little-endian u64.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a usize stored as u64 (`u64::MAX` is the `usize::MAX`
    /// sentinel; anything wider than the target saturates to it).
    #[inline]
    pub fn usize(&mut self) -> Result<usize, CkptError> {
        Ok(usize::try_from(self.u64()?).unwrap_or(usize::MAX))
    }

    /// Read an f64 from its exact bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CkptError> {
        self.str_ref().map(str::to_owned)
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the input.
    #[inline]
    pub fn str_ref(&mut self) -> Result<&'a str, CkptError> {
        let n = self.usize()?;
        let b = self.take(n)?;
        std::str::from_utf8(b).map_err(|_| CkptError::Utf8)
    }

    /// Read a length-prefixed raw byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CkptError> {
        let n = self.usize()?;
        Ok(self.take(n)?.to_vec())
    }
}

/// The versioned snapshot container.
///
/// File layout: `MAGIC | version:u32 | config_hash:u64 | payload_len:u64
/// | payload | fnv1a64(header+payload):u64`. The trailing hash covers
/// everything before it, so truncation and bit rot both fail the load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Format version the payload was written under.
    pub version: u32,
    /// FNV-1a fingerprint of the producing configuration's `Debug`
    /// rendering. Restore requires an exact match: a snapshot only makes
    /// sense under the configuration that produced it.
    pub config_hash: u64,
    /// Canonically-encoded engine state.
    pub payload: Vec<u8>,
}

impl Snapshot {
    /// Wrap an encoded payload under the current format version.
    pub fn new(config_hash: u64, payload: Vec<u8>) -> Self {
        Snapshot {
            version: VERSION,
            config_hash,
            payload,
        }
    }

    /// The canonical state hash: FNV-1a over config fingerprint and
    /// payload. Equal hashes ⇔ byte-equal snapshots ⇔ (by canonical
    /// encoding) equal logical engine state.
    pub fn state_hash(&self) -> StateHash {
        let mut h = FNV_OFFSET;
        for &b in self
            .config_hash
            .to_le_bytes()
            .iter()
            .chain(self.payload.iter())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        StateHash(h)
    }

    /// Serialize to the on-disk byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 36);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.config_hash.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let h = fnv1a64(&out);
        out.extend_from_slice(&h.to_le_bytes());
        out
    }

    /// Parse and verify the on-disk byte format: magic, version,
    /// length, and integrity hash all checked before any payload use.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, CkptError> {
        if bytes.len() < 36 {
            return Err(CkptError::Truncated);
        }
        if bytes[..8] != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        if fnv1a64(body) != stored {
            return Err(CkptError::Corrupt);
        }
        let mut d = Dec::new(&bytes[8..bytes.len() - 8]);
        let version = d.u32()?;
        if version != VERSION {
            return Err(CkptError::BadVersion(version));
        }
        let config_hash = d.u64()?;
        let payload_len = d.usize()?;
        if d.remaining() != payload_len {
            return Err(CkptError::Truncated);
        }
        let payload = d.take(payload_len)?.to_vec();
        Ok(Snapshot {
            version,
            config_hash,
            payload,
        })
    }

    /// Check the offered configuration fingerprint against the one the
    /// snapshot was taken under.
    pub fn require_config(&self, config_hash: u64) -> Result<(), CkptError> {
        if self.config_hash != config_hash {
            return Err(CkptError::ConfigMismatch {
                expected: self.config_hash,
                got: config_hash,
            });
        }
        Ok(())
    }
}

/// Periodic snapshot cadence: the sequence of cut points a worker
/// checkpoints at, as an iterator over microsecond timestamps.
///
/// `Cadence::new(start, end, every)` yields `start + every`,
/// `start + 2·every`, … clamped to `end`, and always ends exactly at
/// `end` (so the final segment is never skipped, even when it is
/// shorter than `every`). The sequence is *position-independent*: a
/// worker that restored a snapshot taken at cut `k` and asks for
/// `Cadence::new(k·every, end, every)` walks the identical remaining
/// cut points the uninterrupted run would have — which is what makes
/// restart-from-last-checkpoint byte-identical for `selfmaint serve`.
///
/// Units are deliberately plain `u64` (microseconds in practice): this
/// crate knows nothing about simulated time, only about snapshots and
/// when to cut them.
#[derive(Debug, Clone)]
pub struct Cadence {
    at: u64,
    end: u64,
    every: u64,
}

impl Cadence {
    /// Cut points after `start` up to and including `end`, spaced
    /// `every` apart (`every == 0` yields a single cut at `end`).
    pub fn new(start: u64, end: u64, every: u64) -> Cadence {
        Cadence {
            at: start,
            end,
            every,
        }
    }
}

impl Iterator for Cadence {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.at >= self.end {
            return None;
        }
        self.at = if self.every == 0 {
            self.end
        } else {
            self.at.saturating_add(self.every).min(self.end)
        };
        Some(self.at)
    }
}

static INTERNED: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();

/// Intern a string, returning a `&'static str` for it. The engine's hot
/// paths key traces and registry counters by `&'static str` literals;
/// restoring those from a snapshot needs owned strings promoted to
/// `'static`. Each *distinct* label is leaked exactly once per process
/// — the label vocabulary is small and fixed, so repeated restores cost
/// no additional memory.
pub fn intern(s: &str) -> &'static str {
    let map = INTERNED.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut guard = map.lock().expect("interner poisoned");
    if let Some(&v) = guard.get(s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    guard.insert(s.to_owned(), leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_walks_even_cuts_and_clamps_the_tail() {
        let cuts: Vec<u64> = Cadence::new(0, 10, 3).collect();
        assert_eq!(cuts, [3, 6, 9, 10]);
        let exact: Vec<u64> = Cadence::new(0, 9, 3).collect();
        assert_eq!(exact, [3, 6, 9]);
        // Degenerate shapes.
        assert_eq!(Cadence::new(5, 5, 3).count(), 0);
        assert_eq!(Cadence::new(7, 5, 3).count(), 0);
        assert_eq!(Cadence::new(0, 5, 0).collect::<Vec<_>>(), [5]);
        assert_eq!(Cadence::new(0, 2, 100).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn cadence_resumed_mid_sequence_matches_the_uninterrupted_walk() {
        let full: Vec<u64> = Cadence::new(0, 100, 7).collect();
        // Restore at the 4th cut: the resumed cadence must continue the
        // identical sequence, not re-phase it.
        let resumed: Vec<u64> = Cadence::new(full[3], 100, 7).collect();
        assert_eq!(resumed, full[4..]);
    }

    #[test]
    fn codec_round_trips_every_scalar() {
        let mut e = Enc::new();
        e.u8(0xab);
        e.bool(true);
        e.bool(false);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 7);
        e.usize(12345);
        e.f64(-0.1);
        e.f64(f64::INFINITY);
        e.str("hełło");
        e.bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 0xab);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX - 7);
        assert_eq!(d.usize().unwrap(), 12345);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert_eq!(d.f64().unwrap(), f64::INFINITY);
        assert_eq!(d.str().unwrap(), "hełło");
        assert_eq!(d.bytes().unwrap(), vec![1, 2, 3]);
        assert!(d.is_exhausted());
    }

    #[test]
    fn truncation_is_detected_not_garbage() {
        let mut e = Enc::new();
        e.u64(42);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..7]);
        assert_eq!(d.u64(), Err(CkptError::Truncated));
    }

    #[test]
    fn nan_bits_survive_exactly() {
        let weird = f64::from_bits(0x7ff8_0000_0000_1234);
        let mut e = Enc::new();
        e.f64(weird);
        let b = e.into_bytes();
        assert_eq!(Dec::new(&b).f64().unwrap().to_bits(), 0x7ff8_0000_0000_1234);
    }

    #[test]
    fn snapshot_round_trip_and_hash_stability() {
        let snap = Snapshot::new(0x1122, vec![9, 8, 7, 6]);
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.state_hash(), snap.state_hash());
        // Same logical state, fresh container: same hash.
        assert_eq!(
            Snapshot::new(0x1122, vec![9, 8, 7, 6]).state_hash(),
            snap.state_hash()
        );
        // Different payload: different hash.
        assert_ne!(
            Snapshot::new(0x1122, vec![9, 8, 7, 7]).state_hash(),
            snap.state_hash()
        );
    }

    #[test]
    fn corruption_and_magic_and_version_are_rejected() {
        let snap = Snapshot::new(7, vec![1, 2, 3]);
        let good = snap.to_bytes();

        let mut flipped = good.clone();
        flipped[20] ^= 1;
        assert_eq!(Snapshot::from_bytes(&flipped), Err(CkptError::Corrupt));

        let mut wrong_magic = good.clone();
        wrong_magic[0] = b'X';
        assert_eq!(Snapshot::from_bytes(&wrong_magic), Err(CkptError::BadMagic));

        assert_eq!(Snapshot::from_bytes(&good[..10]), Err(CkptError::Truncated));

        // Future version: rebuild container bytes with v999 and a valid
        // trailing hash — still rejected, by policy.
        let mut future = Vec::new();
        future.extend_from_slice(&MAGIC);
        future.extend_from_slice(&999u32.to_le_bytes());
        future.extend_from_slice(&7u64.to_le_bytes());
        future.extend_from_slice(&0u64.to_le_bytes());
        let h = fnv1a64(&future);
        future.extend_from_slice(&h.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&future),
            Err(CkptError::BadVersion(999))
        );
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let snap = Snapshot::new(1, vec![]);
        assert!(snap.require_config(1).is_ok());
        assert_eq!(
            snap.require_config(2),
            Err(CkptError::ConfigMismatch {
                expected: 1,
                got: 2
            })
        );
    }

    #[test]
    fn intern_reuses_allocations() {
        let a = intern("phase/inspect");
        let b = intern("phase/inspect");
        assert!(std::ptr::eq(a, b), "same label must intern to one &'static");
        assert_eq!(intern("other"), "other");
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // Well-known FNV-1a 64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
