//! The host's pace: how fast this host runs a fixed reference kernel right
//! now.
//!
//! A shared host's speed drifts by ±20–30% over seconds to minutes. CPU
//! time tracks wall time through it, so it is not descheduling: it is
//! other tenants contending for the caches and the memory system. The
//! runner times this kernel before each session's set-up and after each
//! of its ops, and scales the wall time of the set-up and of every op by
//! [`NOMINAL_S`] over the mean of the two samples around it, so that the
//! end-to-end metrics read as if the host ran at its nominal pace.
//!
//! The kernel is the benchmark's own code and calls nothing in the
//! repository, so a change to the program cannot move it. It is shaped like
//! the program's own work, which tracks the drift far better than plain
//! arithmetic or memory walks do: a priority queue of events carrying
//! freshly allocated payloads that are hashed on delivery, an ordered map
//! about the size of a core's L2 cache, and a dictionary coder's match
//! search through a hash table. The first two slow down less than the
//! workloads when the host slows, the match search more; in the mix, the
//! match search takes about 40% of a sample, which tracked all three
//! workloads best.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Wall time a sample takes at the nominal pace, seconds: about the median
/// sample on the 2-vCPU Xeon host the benchmark was tuned on. It only fixes
/// the unit of the scaled metrics.
pub const NOMINAL_S: f64 = 0.0047;

/// Events the queue carries per sample.
const EVENTS: u64 = 1_500;
/// Bytes of the source the event payloads are cut from.
const SOURCE_BYTES: usize = 32 << 10;
/// Keys the ordered map holds per sample.
const MAP_KEYS: u64 = 8_000;
/// Bytes the match search runs over per sample.
const TEXT_BYTES: usize = 512 << 10;
/// Heads of the match search's hash chains (a 512 KiB table).
const HASH_HEADS: usize = 1 << 16;
/// Longest match the search extends.
const MAX_MATCH: usize = 64;

/// The reference kernel.
pub struct Pace {
    /// Bytes the event payloads are copied from.
    source: Vec<u8>,
    /// Bytes the match search runs over: runs of 7 equal bytes from a
    /// 32-letter alphabet, so that matches are frequent and short.
    text: Vec<u8>,
}

impl Pace {
    /// The kernel, with its fixed source bytes.
    pub fn new() -> Pace {
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let source = (0..SOURCE_BYTES)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let text = (0..TEXT_BYTES as u32)
            .map(|i| ((i / 7).wrapping_mul(2_654_435_761) >> 27) as u8)
            .collect();
        Pace { source, text }
    }

    /// One pass of the kernel. Returns a value the compiler cannot drop.
    fn pass(&self, salt: u64) -> u64 {
        let step = |k: u64, n: u64| k.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(n);
        let mut k = salt | 1;
        let mut queue = BinaryHeap::new();
        for n in 0..EVENTS {
            k = step(k, n);
            let len = 256 + (k >> 54) as usize;
            let at = (k >> 3) as usize % (self.source.len() - len);
            queue.push((Reverse(k >> 20), self.source[at..at + len].to_vec()));
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        while let Some((_, payload)) = queue.pop() {
            for &b in payload.iter().step_by(4) {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        let mut map = BTreeMap::new();
        for n in 0..MAP_KEYS {
            k = step(k, n);
            map.insert(k >> 30, [n; 4]);
        }
        for n in 0..MAP_KEYS {
            k = step(k, n);
            h = h.wrapping_add(map.range(k >> 30..).next().map_or(0, |(_, v)| v[1]));
        }
        h ^ self.match_search()
    }

    /// Greedy matching over the text with a 4-byte hash, as a dictionary
    /// coder does; returns the total match length.
    fn match_search(&self) -> u64 {
        let text = &self.text;
        let mut heads = vec![usize::MAX; HASH_HEADS];
        let mut total = 0;
        let mut i = 0;
        while i + 4 < text.len() {
            let word = u32::from_le_bytes([text[i], text[i + 1], text[i + 2], text[i + 3]]);
            let slot = (word.wrapping_mul(2_654_435_761) >> 16) as usize;
            let at = heads[slot];
            let mut len = 0;
            if at != usize::MAX {
                while len < MAX_MATCH && i + len < text.len() && text[at + len] == text[i + len] {
                    len += 1;
                }
            }
            total += len as u64;
            i += len.max(1);
            heads[slot] = i - 1;
        }
        total
    }

    /// Time one pass of the kernel, seconds.
    pub fn sample(&self, salt: u64) -> f64 {
        let t = Instant::now();
        black_box(self.pass(black_box(salt)));
        t.elapsed().as_secs_f64()
    }
}
