//! The benchmark's handle on one simulation: the simulator, the role of
//! every node it added, and — in a traced run — a timing wrapper around
//! each of those nodes.
//!
//! Traced and untraced runs build the same topology through [`Net::add`];
//! the only difference is that a traced run boxes each node inside a
//! [`Timed`] wrapper. The wrapper forwards every [`Node`] method and adds
//! the wall time of each callback to its own fields, so no counter or lock
//! is shared between nodes (or between the sharded engine's workers).

use simnet::{ConnId, Ctx, Iface, Node, NodeId, SimDuration, SimTime, Simulator};
use std::time::Instant;

/// What a node is, for attributing its callback time to a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A plain Tor relay (`tor-net`).
    Relay,
    /// A Tor client (`tor-net`), with or without a Bento client on top.
    Client,
    /// The harness web server (`tor-net`'s `WebServerNode`).
    Server,
    /// A Bento box: relay + Bento server + onion proxy (`bento`).
    Box,
    /// The benchmark's own request/reply application nodes.
    App,
}

/// Number of [`Role`]s.
pub const ROLES: usize = 5;

impl Role {
    fn index(self) -> usize {
        self as usize
    }
}

/// Buckets of the per-dispatch message-count histogram: bucket `k` counts
/// dispatches that delivered `k` messages, the last bucket that many or
/// more.
pub const BATCH_BUCKETS: usize = 32;

/// A node plus the wall time its callbacks took.
pub struct Timed<N> {
    /// The wrapped node.
    pub inner: N,
    /// Total wall time inside the wrapped node's callbacks, nanoseconds.
    pub busy_ns: u64,
    /// Messages delivered per dispatch (`on_msg` counts as one).
    pub batches: [u64; BATCH_BUCKETS],
}

impl<N> Timed<N> {
    /// Wrap `inner` with zeroed accumulators.
    pub fn new(inner: N) -> Timed<N> {
        Timed {
            inner,
            busy_ns: 0,
            batches: [0; BATCH_BUCKETS],
        }
    }

    #[inline]
    fn timed<R>(&mut self, f: impl FnOnce(&mut N) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.busy_ns += t.elapsed().as_nanos() as u64;
        r
    }

    #[inline]
    fn batch(&mut self, n: usize) {
        self.batches[n.min(BATCH_BUCKETS - 1)] += 1;
    }
}

impl<N: Node> Node for Timed<N> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(|n| n.on_start(ctx));
    }
    fn on_conn_open(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: NodeId, port: u16) {
        self.timed(|n| n.on_conn_open(ctx, conn, peer, port));
    }
    fn on_conn_established(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: NodeId) {
        self.timed(|n| n.on_conn_established(ctx, conn, peer));
    }
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) {
        self.batch(1);
        self.timed(|n| n.on_msg(ctx, conn, msg));
    }
    fn on_msgs(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msgs: Vec<Vec<u8>>) {
        self.batch(msgs.len());
        self.timed(|n| n.on_msgs(ctx, conn, msgs));
    }
    fn on_conn_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.timed(|n| n.on_conn_closed(ctx, conn));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.timed(|n| n.on_timer(ctx, tag));
    }
    fn on_crash(&mut self) {
        self.timed(|n| n.on_crash());
    }
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(|n| n.on_restart(ctx));
    }
    fn flush_telemetry(&mut self) {
        self.timed(|n| n.flush_telemetry());
    }
}

/// One wrapped node's accumulators.
#[derive(Clone, Copy)]
struct Probe {
    busy_ns: u64,
    batches: [u64; BATCH_BUCKETS],
}

/// Reads one wrapped node's accumulators; monomorphized per node type.
type ProbeReader = fn(&Simulator, NodeId) -> Probe;

fn read_probe<N: Node>(sim: &Simulator, id: NodeId) -> Probe {
    let t = sim.node_ref::<Timed<N>>(id);
    Probe {
        busy_ns: t.busy_ns,
        batches: t.batches,
    }
}

/// Everything the wrappers and the run loop have accumulated so far.
/// Subtract two of these to get one phase's share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy {
    /// Callback wall time per [`Role`], nanoseconds.
    pub role_ns: [u64; ROLES],
    /// Relay dispatch sizes (see [`BATCH_BUCKETS`]).
    pub relay_batches: [u64; BATCH_BUCKETS],
    /// Wall time inside `Simulator::run_until`, nanoseconds.
    pub loop_ns: u64,
    /// Process CPU time inside `Simulator::run_until`, nanoseconds.
    pub loop_cpu_ns: u64,
}

impl Default for Busy {
    fn default() -> Self {
        Busy {
            role_ns: [0; ROLES],
            relay_batches: [0; BATCH_BUCKETS],
            loop_ns: 0,
            loop_cpu_ns: 0,
        }
    }
}

impl Busy {
    fn zip(&self, o: &Busy, f: impl Fn(u64, u64) -> u64) -> Busy {
        let mut d = *self;
        for (a, b) in d.role_ns.iter_mut().zip(o.role_ns) {
            *a = f(*a, b);
        }
        for (a, b) in d.relay_batches.iter_mut().zip(o.relay_batches) {
            *a = f(*a, b);
        }
        d.loop_ns = f(d.loop_ns, o.loop_ns);
        d.loop_cpu_ns = f(d.loop_cpu_ns, o.loop_cpu_ns);
        d
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Busy) -> Busy {
        self.zip(earlier, |a, b| a - b)
    }

    /// `self + other`, field by field.
    pub fn plus(&self, other: &Busy) -> Busy {
        self.zip(other, |a, b| a + b)
    }

    /// Callback wall time of one role, seconds.
    pub fn role_s(&self, role: Role) -> f64 {
        self.role_ns[role.index()] as f64 / 1e9
    }

    /// Callback wall time of every role together, seconds.
    pub fn all_roles_s(&self) -> f64 {
        self.role_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Median messages per relay dispatch (0 when no relay ran).
    pub fn relay_batch_p50(&self) -> f64 {
        let total: u64 = self.relay_batches.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut seen = 0;
        for (k, &c) in self.relay_batches.iter().enumerate() {
            seen += c;
            if 2 * seen >= total {
                return k as f64;
            }
        }
        (BATCH_BUCKETS - 1) as f64
    }
}

/// A simulator plus the benchmark's bookkeeping around it.
pub struct Net {
    /// The simulator.
    pub sim: Simulator,
    traced: bool,
    /// Worker threads the engine runs its event loop on.
    workers: usize,
    nodes: Vec<(NodeId, Role, ProbeReader)>,
    loop_ns: u64,
    loop_cpu_ns: u64,
}

impl Net {
    /// Wrap `sim`, whose engine runs on `workers` threads.
    pub fn new(sim: Simulator, traced: bool, workers: usize) -> Net {
        Net {
            sim,
            traced,
            workers,
            nodes: Vec::new(),
            loop_ns: 0,
            loop_cpu_ns: 0,
        }
    }

    /// Worker threads of the engine.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Add a node, wrapped in [`Timed`] when tracing.
    pub fn add<N: Node>(&mut self, name: String, iface: Iface, node: N, role: Role) -> NodeId {
        let boxed: Box<dyn Node> = if self.traced {
            Box::new(Timed::new(node))
        } else {
            Box::new(node)
        };
        let id = self.sim.add_node(name, iface, boxed);
        self.nodes.push((id, role, read_probe::<N>));
        id
    }

    /// Run `f` against node `id` (of concrete type `N`) with a context.
    pub fn with<N: Node, R>(&mut self, id: NodeId, f: impl FnOnce(&mut N, &mut Ctx<'_>) -> R) -> R {
        if self.traced {
            self.sim
                .with_node::<Timed<N>, R>(id, |t, ctx| f(&mut t.inner, ctx))
        } else {
            self.sim.with_node::<N, R>(id, f)
        }
    }

    /// Node `id`, of concrete type `N`.
    pub fn node<N: Node>(&self, id: NodeId) -> &N {
        if self.traced {
            &self.sim.node_ref::<Timed<N>>(id).inner
        } else {
            self.sim.node_ref::<N>(id)
        }
    }

    /// Run the simulation until `limit`, timing the event loop.
    pub fn run_until(&mut self, limit: SimTime) {
        let cpu = if self.traced { cpu_ns() } else { 0 };
        let t = Instant::now();
        self.sim.run_until(limit);
        self.loop_ns += t.elapsed().as_nanos() as u64;
        if self.traced {
            self.loop_cpu_ns += cpu_ns().saturating_sub(cpu);
        }
    }

    /// Run the simulation for `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let now = self.sim.now();
        self.run_until(now + d);
    }

    /// Accumulated busy times (all zero for the wrappers when untraced).
    pub fn busy(&self) -> Busy {
        let mut b = Busy {
            loop_ns: self.loop_ns,
            loop_cpu_ns: self.loop_cpu_ns,
            ..Busy::default()
        };
        if self.traced {
            for &(id, role, read) in &self.nodes {
                let p = read(&self.sim, id);
                b.role_ns[role.index()] += p.busy_ns;
                if role == Role::Relay {
                    for (a, c) in b.relay_batches.iter_mut().zip(p.batches) {
                        *a += c;
                    }
                }
            }
        }
        b
    }

    /// Ids of the nodes with `role`, in insertion order.
    pub fn ids(&self, role: Role) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(move |(_, r, _)| *r == role)
            .map(|(id, _, _)| *id)
    }
}

/// Process CPU time (user + system, every thread) in nanoseconds, from
/// `/proc/self/stat`; 0 where that file is unavailable. The kernel reports
/// it in ticks of 1/100 s.
pub fn cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) * 10_000_000
}
