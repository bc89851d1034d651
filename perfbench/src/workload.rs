//! What every workload provides to the runner, and the Tor topology the
//! two Tor workloads share.

use crate::net::{Net, Role};
use crate::stats::Fnv;
use onion_crypto::hashsig::{MerkleSigner, MerkleVerifyKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{Iface, NodeId, SimDuration, SimTime};
use std::sync::{Arc, Mutex};
use tor_net::dir::{ExitPolicy, RelayFlags};
use tor_net::relay::{RelayConfig, RelayNode, RelayStats};

/// The verdict on one op's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    /// The output passed its check.
    pub ok: bool,
    /// Verified application payload delivered to clients, bytes (0 when
    /// the check failed).
    pub payload_bytes: u64,
}

impl Check {
    /// A failed op.
    pub const FAILED: Check = Check {
        ok: false,
        payload_bytes: 0,
    };
}

/// The simulated outcome of one session: engine totals, the
/// simulated clock, and a checksum of the delivery schedule. It depends on
/// the seed and the program's simulated behaviour only, never on the host,
/// so it must repeat exactly across runs and between traced and untraced
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Events processed.
    pub events: u64,
    /// Messages delivered.
    pub msgs: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Connections opened.
    pub conns: u64,
    /// Simulated time, nanoseconds.
    pub sim_end_ns: u64,
    /// FNV-1a checksum of the delivery schedule.
    pub schedule: u64,
}

impl Fingerprint {
    /// Capture `net`'s totals with the workload's schedule checksum.
    pub fn of(net: &Net, schedule: Fnv) -> Fingerprint {
        let s = net.sim.stats();
        Fingerprint {
            events: s.events,
            msgs: s.msgs_delivered,
            bytes: s.bytes_delivered,
            conns: s.conns_opened,
            sim_end_ns: net.sim.now().as_nanos(),
            schedule: schedule.0,
        }
    }

    /// JSON object form.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"events\": {}, \"msgs\": {}, \"bytes\": {}, \"conns\": {}, \
             \"sim_end_ns\": {}, \"schedule\": \"{:016x}\"}}",
            self.events, self.msgs, self.bytes, self.conns, self.sim_end_ns, self.schedule
        )
    }
}

/// Cumulative program counters a workload reads from its nodes' public
/// state. The runner subtracts two readings to get one phase's counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Cells received by relays (boxes included).
    pub cells_in: u64,
    /// Cells relays switched between hops.
    pub cells_forwarded: u64,
    /// Relay-payload bytes relays ran through layer crypto.
    pub crypto_bytes: u64,
    /// Circuit hops created at relays.
    pub circuits_built: u64,
    /// Consensus fetch retries of every onion proxy.
    pub consensus_retries: u64,
    /// Cells received by Bento boxes' relays.
    pub box_cells_in: u64,
    /// Cells Bento boxes' relays ran through layer crypto, either
    /// direction.
    pub box_layer_cells: u64,
    /// Bytes of invocation input sent to Bento functions.
    pub invoke_input_bytes: u64,
}

impl Counts {
    /// Add one relay's statistics.
    pub fn add_relay(&mut self, s: RelayStats) {
        self.cells_in += s.cells_in;
        self.cells_forwarded += s.cells_forwarded;
        self.crypto_bytes += s.crypto_bytes;
        self.circuits_built += s.circuits;
    }

    fn zip(&self, o: &Counts, f: impl Fn(u64, u64) -> u64) -> Counts {
        Counts {
            cells_in: f(self.cells_in, o.cells_in),
            cells_forwarded: f(self.cells_forwarded, o.cells_forwarded),
            crypto_bytes: f(self.crypto_bytes, o.crypto_bytes),
            circuits_built: f(self.circuits_built, o.circuits_built),
            consensus_retries: f(self.consensus_retries, o.consensus_retries),
            box_cells_in: f(self.box_cells_in, o.box_cells_in),
            box_layer_cells: f(self.box_layer_cells, o.box_layer_cells),
            invoke_input_bytes: f(self.invoke_input_bytes, o.invoke_input_bytes),
        }
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counts) -> Counts {
        self.zip(earlier, |a, b| a - b)
    }

    /// `self + other`, field by field.
    pub fn plus(&self, other: &Counts) -> Counts {
        self.zip(other, |a, b| a + b)
    }
}

/// A benchmark workload: a closed loop of ops on one simulated system.
pub trait Workload: Sized {
    /// Output of an op, kept for [`Workload::check`].
    type Pending;
    /// Ops in one session: set-up, then this many ops, on a fresh
    /// instance. Sessions of one seed repeat exactly.
    const SESSION_OPS: u64;

    /// Build the system from `seed` up to the point where it can run its
    /// first op. `Err` when set-up itself fails.
    fn setup(seed: u64, traced: bool) -> Result<Self, String>;
    /// Run op `i` (the timed part).
    fn run_op(&mut self, i: u64) -> Self::Pending;
    /// Verify op output (untimed). Also folds the op into the schedule
    /// checksum.
    fn check(&mut self, i: u64, out: Self::Pending) -> Check;
    /// The outcome fingerprint as of now.
    fn fingerprint(&self) -> Fingerprint;
    /// The simulation.
    fn net(&self) -> &Net;
    /// Cumulative program counters.
    fn counts(&self) -> Counts;
    /// Named wall-time spans of the last set-up, seconds.
    fn setup_spans(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Ops of one class do the same work; the runner compares op times
    /// within a class.
    fn op_class(&self, _i: u64) -> u64 {
        0
    }
    /// Wall time the `functions` layer's replayable work takes for `ops`,
    /// seconds (0 where no function runs).
    fn functions_replay_s(&mut self, _ops: std::ops::Range<u64>) -> f64 {
        0.0
    }
}

/// The simulated instant `ms` milliseconds after the start.
pub fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// `len` bytes from a SplitMix64 stream seeded with `seed`.
pub fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The directory authority of a built Tor network.
#[derive(Clone, Copy)]
pub struct Authority {
    /// Its address.
    pub addr: NodeId,
    /// The consensus verification key clients pin.
    pub key: MerkleVerifyKey,
}

/// Build an authority, `middles` guard/middle relays and `exits` web-only
/// exits from the public relay constructors, with relay identity keys
/// drawn from `seed`. Every relay keeps `RelayConfig::middle`'s defaults
/// apart from its role.
pub fn build_tor(
    net: &mut Net,
    seed: u64,
    middles: usize,
    exits: usize,
    iface: Iface,
) -> Authority {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7042_0000_0000_0001);
    let mut identity = || {
        let mut s = [0u8; 32];
        rng.fill(&mut s[..]);
        s
    };
    let signer = Arc::new(Mutex::new(MerkleSigner::generate(identity(), 4)));
    let key = signer.lock().expect("fresh signer lock").verify_key();
    let mut cfg = RelayConfig::middle("authority", identity());
    cfg.flags = RelayFlags::default()
        .with(RelayFlags::AUTHORITY | RelayFlags::GUARD | RelayFlags::FAST | RelayFlags::HSDIR);
    cfg.authority_signer = Some(signer);
    let addr = net.add("authority".into(), iface, RelayNode::new(cfg), Role::Relay);
    for i in 0..middles + exits {
        let name = if i < middles {
            format!("middle{i}")
        } else {
            format!("exit{}", i - middles)
        };
        let mut cfg = RelayConfig::middle(&name, identity());
        cfg.authority_addr = Some(addr);
        if i >= middles {
            cfg.flags = RelayFlags::default().with(RelayFlags::EXIT | RelayFlags::FAST);
            cfg.exit_policy = ExitPolicy::web_only();
        }
        net.add(name, iface, RelayNode::new(cfg), Role::Relay);
    }
    Authority { addr, key }
}

/// Sum the statistics of every plain relay in `net`.
pub fn relay_counts(net: &Net) -> Counts {
    let mut c = Counts::default();
    for id in net.ids(Role::Relay) {
        c.add_relay(net.node::<RelayNode>(id).relay.stats());
    }
    c
}

/// Step the simulation in `step` increments until `done` holds or the
/// simulated clock passes `deadline`; returns whether `done` held.
pub fn run_until_or(
    net: &mut Net,
    step: SimDuration,
    deadline: SimTime,
    mut done: impl FnMut(&mut Net) -> bool,
) -> bool {
    loop {
        if done(net) {
            return true;
        }
        if net.sim.now() >= deadline {
            return false;
        }
        net.run_for(step);
    }
}
