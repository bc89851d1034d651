//! `client_swarm`: 10⁴ request/reply clients, one server per 64 clients,
//! on the sharded engine (4 shards, 1 worker thread). Every client opens a
//! fresh connection each round, sends a 200–999 B request at its own
//! staggered offset into the round and waits for a 600 B reply. One op is
//! one round. Pure `simnet` work: no crypto, no Tor.

use crate::net::{Net, Role};
use crate::stats::Fnv;
use crate::workload::{at_ms, Check, Counts, Fingerprint, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{ConnId, Ctx, Iface, Node, NodeId, SimConfig, SimDuration, SimTime, Simulator};

/// Clients in the swarm.
const CLIENTS: usize = 10_000;
/// Clients served by one server.
const CLIENTS_PER_SERVER: usize = 64;
/// Reply size, bytes.
const REPLY_BYTES: usize = 600;
/// Shards of the engine.
const SHARDS: usize = 4;
/// Worker threads of the engine. One: on a shared 2-vCPU host, two
/// workers meeting at barriers measure the other tenants' scheduling more
/// than the engine (runs of one seed spread by a quarter and more).
const WORKERS: usize = 1;
/// Simulated length of one round, ms. Round `k` occupies
/// `[(k+1)·ROUND_MS, (k+2)·ROUND_MS)`; its deadline is the end of that span.
const ROUND_MS: u64 = 1_000;
const REPLY_FILL: u8 = 0x5A;

/// Answers every request with a fixed-size reply.
struct SwarmServer;

impl Node for SwarmServer {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _msg: Vec<u8>) {
        ctx.send(conn, vec![REPLY_FILL; REPLY_BYTES]);
    }
}

/// One request/reply client.
struct SwarmClient {
    server: NodeId,
    req_bytes: usize,
    /// Offset of this client's request into each round.
    stagger: SimDuration,
    /// Rounds whose reply arrived intact.
    rounds_done: u64,
    /// Replies of the wrong size or content.
    bad_replies: u64,
    /// FNV-1a of every reply arrival time.
    schedule: Fnv,
}

impl SwarmClient {
    /// Arm the timer for the round after `rounds_done`.
    fn arm(&mut self, ctx: &mut Ctx<'_>) {
        let start = SimTime::ZERO
            + SimDuration::from_millis((self.rounds_done + 1) * ROUND_MS)
            + self.stagger;
        let now = ctx.now();
        let delay = if start > now {
            start - now
        } else {
            SimDuration::ZERO
        };
        ctx.set_timer(delay, 0);
    }
}

impl Node for SwarmClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.arm(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        let conn = ctx.connect(self.server, 80);
        ctx.send(conn, vec![0xC1; self.req_bytes]);
    }
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) {
        ctx.close(conn);
        if msg.len() == REPLY_BYTES && msg.iter().all(|&b| b == REPLY_FILL) {
            self.rounds_done += 1;
            self.schedule.u64(ctx.now().as_nanos());
            self.arm(ctx);
        } else {
            self.bad_replies += 1;
        }
    }
}

/// The workload's state.
pub struct ClientSwarm {
    net: Net,
    clients: Vec<NodeId>,
    schedule: Fnv,
}

impl Workload for ClientSwarm {
    /// Clients that completed the round.
    type Pending = ();
    const SESSION_OPS: u64 = 20;

    fn setup(seed: u64, traced: bool) -> Result<Self, String> {
        let sim = Simulator::new(SimConfig {
            seed,
            shards: SHARDS,
            shard_threads: WORKERS,
            ..SimConfig::default()
        });
        let mut net = Net::new(sim, traced, WORKERS);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A12_3000);
        let server_iface = Iface::symmetric(SimDuration::from_millis(2), 100_000_000);
        let client_iface = Iface::symmetric(SimDuration::from_millis(15), 4_000_000);
        let servers: Vec<NodeId> = (0..CLIENTS / CLIENTS_PER_SERVER)
            .map(|i| net.add(format!("srv{i}"), server_iface, SwarmServer, Role::App))
            .collect();
        let clients = (0..CLIENTS)
            .map(|i| {
                let client = SwarmClient {
                    server: servers[i % servers.len()],
                    req_bytes: rng.gen_range(200..1000usize),
                    stagger: SimDuration::from_micros(rng.gen_range(5_000..500_000u64)),
                    rounds_done: 0,
                    bad_replies: 0,
                    schedule: Fnv::default(),
                };
                net.add(format!("c{i}"), client_iface, client, Role::App)
            })
            .collect();
        // Start every node; the first round begins one round length in.
        net.run_until(at_ms(1));
        Ok(ClientSwarm {
            net,
            clients,
            schedule: Fnv::default(),
        })
    }

    fn run_op(&mut self, i: u64) {
        self.net.run_until(at_ms((i + 2) * ROUND_MS));
    }

    fn check(&mut self, i: u64, _out: ()) -> Check {
        let mut complete = 0;
        for &id in &self.clients {
            let c = self.net.node::<SwarmClient>(id);
            if c.rounds_done > i && c.bad_replies == 0 {
                complete += 1;
            }
        }
        self.schedule.u64(i);
        self.schedule.u64(complete);
        let ok = complete == self.clients.len() as u64;
        Check {
            ok,
            payload_bytes: if ok {
                (self.clients.len() * REPLY_BYTES) as u64
            } else {
                0
            },
        }
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut schedule = self.schedule;
        for &id in &self.clients {
            let c = self.net.node::<SwarmClient>(id);
            schedule.u64(c.rounds_done);
            schedule.u64(c.schedule.0);
        }
        Fingerprint::of(&self.net, schedule)
    }

    fn net(&self) -> &Net {
        &self.net
    }

    fn counts(&self) -> Counts {
        Counts::default()
    }
}
