//! Reproducible randomness with named substreams.
//!
//! A simulation mixes many stochastic processes (failure arrivals, repair
//! outcomes, travel times, …). If they all draw from one RNG, adding a draw
//! in one model perturbs every other model — experiments stop being
//! comparable across code changes. [`SimRng`] therefore derives an
//! independent substream per `(root seed, label, index)` so each process
//! owns its own deterministic sequence:
//!
//! ```
//! use dcmaint_des::SimRng;
//!
//! let root = SimRng::root(42);
//! let mut failures = root.stream("link-failures", 0);
//! let mut repairs = root.stream("repair-outcomes", 0);
//! // Identical construction yields identical sequences:
//! let mut failures2 = SimRng::root(42).stream("link-failures", 0);
//! assert_eq!(failures.next_u64(), failures2.next_u64());
//! // Different labels yield decorrelated sequences:
//! assert_ne!(failures.next_u64(), repairs.next_u64());
//! ```
//!
//! Substream derivation uses an FNV-1a hash of the label folded into a
//! SplitMix64 finalizer — cheap, stable across platforms and rustc versions
//! (unlike `DefaultHasher`, which is explicitly unstable). Each stream is
//! a xoshiro256++ generator whose four state words the stream owns, so a
//! checkpoint saves exactly those words.

use dcmaint_ckpt::{CkptError, Dec, Decode, Enc, Persist};

/// Factory for deterministic RNG substreams. Cheap to copy.
#[derive(Debug, Clone, Copy)]
pub struct SimRng {
    seed: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 finalizer: good avalanche, used to decorrelate derived seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl SimRng {
    /// A root from which all substreams are derived. One experiment = one
    /// root seed.
    pub fn root(seed: u64) -> Self {
        SimRng { seed }
    }

    /// The root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive the substream named `label` with ordinal `index` (e.g. one
    /// stream per link: `stream("link", link_id)`).
    pub fn stream(&self, label: &str, index: u64) -> Stream {
        Stream {
            s: self.state(label, index),
            label: label.to_owned(),
            index,
        }
    }

    /// The starting generator state of `(label, index)` under this root:
    /// four successive splitmix64 words. They are never all zero (if one
    /// word were zero the next would be `splitmix64(0) ≠ 0`), so no
    /// derived stream starts at xoshiro's fixed point.
    fn state(&self, label: &str, index: u64) -> [u64; 4] {
        let mut x = splitmix64(self.seed ^ fnv1a(label.as_bytes()));
        x = splitmix64(x ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut s = [0; 4];
        for w in &mut s {
            x = splitmix64(x);
            *w = x;
        }
        s
    }

    /// Derive a child factory, for handing a namespaced root to a subsystem.
    pub fn child(&self, label: &str) -> SimRng {
        SimRng {
            seed: splitmix64(self.seed ^ fnv1a(label.as_bytes())),
        }
    }
}

/// A stream persists as its four generator words; `(label, index)` come
/// from the configuration that rebuilt it. The all-zero state is
/// xoshiro's fixed point, which no derived stream reaches, so loading
/// it is refused as corrupt.
impl Persist for Stream {
    fn save(&self, enc: &mut Enc) {
        self.s.save(enc);
    }

    fn load(&mut self, dec: &mut Dec) -> Result<(), CkptError> {
        let s = <[u64; 4]>::decode(dec)?;
        if s == [0; 4] {
            return Err(CkptError::BadTag("stream-state", 0));
        }
        self.s = s;
        Ok(())
    }
}

/// One deterministic random stream: a xoshiro256++ generator plus the
/// sampling helpers the simulation needs.
///
/// The four state words are the stream's whole position, which is how
/// checkpoints record it: restore rebuilds the stream from `(label,
/// index)` and loads the saved words over it.
///
/// The fields are private and [`SimRng::stream`] is the only
/// constructor, so every draw in every crate is on a named stream. Code
/// outside this crate cannot build a generator of its own:
///
/// ```compile_fail,E0451
/// use dcmaint_des::Stream;
///
/// let mut ad_hoc = Stream {
///     s: [7; 4],
///     label: "ad-hoc".to_string(),
///     index: 0,
/// };
/// let _ = ad_hoc.uniform();
/// ```
#[derive(Debug, Clone)]
pub struct Stream {
    s: [u64; 4],
    label: String,
    index: u64,
}

impl Stream {
    /// Re-derive this stream under `root`, at the start of the sequence
    /// `root.stream(label, index)` would draw. A twin hedge branch loads
    /// its parent's state and then reseeds, so it runs on noise of its
    /// own while staying fully seeded.
    pub fn reseed(&mut self, root: &SimRng) {
        self.s = root.state(&self.label, self.index);
    }

    /// Next raw 64-bit value: one xoshiro256++ step.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`: the top 53 bits of one step.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`. Returns `lo` when the range is empty or
    /// non-finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo || !lo.is_finite() || !hi.is_finite() {
            return lo;
        }
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` by Lemire's multiply-shift: one step,
    /// no rejection loop. `n == 0` returns 0 (without consuming a draw).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
        }
    }

    /// Uniform index into a slice of length `len`. `len == 0` returns 0
    /// (caller must not index with it in that case).
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Bernoulli trial: true with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            true
        } else if p <= 0.0 || p.is_nan() {
            false
        } else {
            self.uniform() < p
        }
    }

    /// Pick a uniformly random element of `items`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index(items.len())])
        }
    }

    /// Sample an index according to `weights` (non-negative; zero total
    /// falls back to uniform). Used for weighted root-cause selection.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if weights.is_empty() {
            return 0;
        }
        if total <= 0.0 {
            return self.index(weights.len());
        }
        let mut x = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w > 0.0 {
                x -= w;
                if x <= 0.0 {
                    return i;
                }
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        let n = items.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_construction_same_sequence() {
        let mut a = SimRng::root(7).stream("x", 3);
        let mut b = SimRng::root(7).stream("x", 3);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_decorrelate() {
        let root = SimRng::root(7);
        let a: Vec<u64> = {
            let mut s = root.stream("alpha", 0);
            (0..8).map(|_| s.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut s = root.stream("beta", 0);
            (0..8).map(|_| s.next_u64()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn different_indices_decorrelate() {
        let root = SimRng::root(7);
        let mut a = root.stream("link", 0);
        let mut b = root.stream("link", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn child_namespacing() {
        let a = SimRng::root(7).child("faults").stream("x", 0).next_u64();
        let b = SimRng::root(7).child("robots").stream("x", 0).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut s = SimRng::root(1).stream("u", 0);
        for _ in 0..1000 {
            let x = s.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut s = SimRng::root(2).stream("u", 0);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| s.uniform()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut s = SimRng::root(3).stream("c", 0);
        assert!(s.chance(1.0));
        assert!(s.chance(2.0));
        assert!(!s.chance(0.0));
        assert!(!s.chance(-1.0));
        assert!(!s.chance(f64::NAN));
    }

    #[test]
    fn chance_frequency_tracks_p() {
        let mut s = SimRng::root(4).stream("c", 0);
        let n = 50_000;
        let hits = (0..n).filter(|_| s.chance(0.3)).count();
        let freq = hits as f64 / f64::from(n);
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut s = SimRng::root(5).stream("w", 0);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[s.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = f64::from(counts[2]) / f64::from(counts[0]);
        assert!((ratio - 3.0).abs() < 0.25, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_zero_total_uniform() {
        let mut s = SimRng::root(6).stream("w", 0);
        let weights = [0.0, 0.0];
        let mut saw = [false; 2];
        for _ in 0..100 {
            saw[s.weighted_index(&weights)] = true;
        }
        assert!(saw[0] && saw[1]);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut s = SimRng::root(8).stream("sh", 0);
        let mut v: Vec<u32> = (0..50).collect();
        s.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn choose_empty_is_none() {
        let mut s = SimRng::root(9).stream("ch", 0);
        let empty: [u8; 0] = [];
        assert!(s.choose(&empty).is_none());
    }

    #[test]
    fn golden_values_pin_cross_platform_stability() {
        // Checkpoints save each stream's generator state and reload it
        // over a stream rebuilt from (label, index) — which is only sound
        // if the generator (xoshiro256++) and the substream derivation
        // never change. This test pins the first values of a fixed
        // substream. If it ever fails, every existing snapshot is
        // invalid: bump `dcmaint_ckpt::VERSION` before touching these
        // constants.
        let mut s = SimRng::root(42).stream("golden", 7);
        let got: Vec<u64> = (0..4).map(|_| s.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                4071200674389040522,
                10471641712820285646,
                5603479199768057760,
                12343104976382023101,
            ],
            "generator/substream sequence changed — old checkpoints are invalid"
        );
        // And the derived seed itself (label/FNV/splitmix path).
        assert_eq!(SimRng::root(42).child("golden").seed(), 8134469790158313673);
    }

    /// Draw `n` values through a mix of the helpers, so the test covers
    /// every way a stream advances, not only `next_u64` in a row.
    fn mixed_draws(s: &mut Stream, n: u64) {
        for i in 0..n {
            match i % 6 {
                0 => {
                    s.next_u64();
                }
                1 => {
                    s.uniform();
                }
                2 => {
                    s.below(1 + i);
                }
                3 => {
                    s.chance(0.7);
                }
                4 => {
                    s.weighted_index(&[1.0, 2.0, 0.5]);
                }
                _ => s.shuffle(&mut [1u8, 2, 3, 4]),
            }
        }
    }

    #[test]
    fn a_loaded_stream_continues_the_live_sequence() {
        for seed in [1, 42, 9_001] {
            for index in [0, 3, 17] {
                for n in [0, 13, 10_007] {
                    let root = SimRng::root(seed);
                    let mut live = root.stream("ckpt", index);
                    mixed_draws(&mut live, n);
                    let mut enc = Enc::new();
                    live.save(&mut enc);
                    let bytes = enc.into_bytes();
                    assert_eq!(bytes.len(), 32, "four state words");
                    let mut loaded = root.stream("ckpt", index);
                    let mut dec = Dec::new(&bytes);
                    loaded.load(&mut dec).unwrap();
                    assert!(dec.is_exhausted());
                    for _ in 0..32 {
                        assert_eq!(
                            loaded.next_u64(),
                            live.next_u64(),
                            "seed {seed} index {index} after {n} draws"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_all_zero_state_is_refused() {
        let mut s = SimRng::root(1).stream("x", 0);
        assert_eq!(
            s.load(&mut Dec::new(&[0; 32])),
            Err(CkptError::BadTag("stream-state", 0))
        );
    }

    #[test]
    fn reseed_equals_a_fresh_derivation() {
        let mut s = SimRng::root(42).stream("golden", 7);
        mixed_draws(&mut s, 17);
        let branch_root = SimRng::root(42).child("twin").child("3");
        s.reseed(&branch_root);
        let mut want = branch_root.stream("golden", 7);
        for _ in 0..32 {
            assert_eq!(s.next_u64(), want.next_u64());
        }
    }

    #[test]
    fn uniform_range_degenerate() {
        let mut s = SimRng::root(10).stream("r", 0);
        assert_eq!(s.uniform_range(5.0, 5.0), 5.0);
        assert_eq!(s.uniform_range(5.0, 4.0), 5.0);
        let x = s.uniform_range(2.0, 4.0);
        assert!((2.0..4.0).contains(&x));
    }
}
