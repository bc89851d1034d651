//! `bulk_fetch`: one client fetches a 16 MiB object, one fetch at a time,
//! each over a freshly built 3-hop circuit through 4 middles and 2 exits on
//! fast relay links (5 ms, 50 MB/s). Default engine, default data plane.
//! Nearly all of the work is the per-cell data plane; no Bento layer runs.

use crate::net::{Net, Role};
use crate::stats::Fnv;
use crate::workload::{
    at_ms, build_tor, relay_counts, run_until_or, seeded_bytes, Check, Counts, Fingerprint,
    Workload,
};
use simnet::wire::Reader;
use simnet::{Iface, NodeId, SimConfig, SimDuration, Simulator};
use tor_net::client::{CircuitHandle, TerminalReq, TorEvent};
use tor_net::netbuild::{TestClientNode, WebServerNode};
use tor_net::ports::HTTP_PORT;
use tor_net::stream_frame::{encode_frame, FrameAssembler};
use tor_net::StreamTarget;

/// Size of the fetched object.
const OBJECT_BYTES: usize = 16 << 20;
/// Path the object is served under.
pub const OBJECT_PATH: &str = "/object";
/// Simulated time one fetch may take before it counts as stalled, ms.
const OP_DEADLINE_MS: u64 = 60_000;
/// Polling step of the op loop, simulated ms.
const STEP_MS: u64 = 50;

/// The workload's state.
pub struct BulkFetch {
    net: Net,
    server: NodeId,
    client: NodeId,
    object: Vec<u8>,
    /// Path requested by [`Workload::run_op`]; tests point it elsewhere.
    pub path: String,
    schedule: Fnv,
}

/// One fetch's output: the client's events for its circuit and stream, or
/// `None` when the fetch stalled or could not start.
pub type Received = Option<(CircuitHandle, u16, Vec<TorEvent>)>;

/// Whether the stream holds one whole frame (the server answers every
/// request with exactly one).
fn frame_complete(n: &TestClientNode, circ: CircuitHandle, stream: u16) -> bool {
    let Some(first) = n.events.iter().find_map(|e| match e {
        TorEvent::StreamData(c, s, d) if *c == circ && *s == stream => Some(d),
        _ => None,
    }) else {
        return false;
    };
    let mut r = Reader::new(first);
    let Ok(body) = r.varu64() else {
        return false;
    };
    let prefix = (first.len() - r.remaining()) as u64;
    n.stream_len(circ, stream) as u64 >= prefix + body
}

impl BulkFetch {
    fn fetch(&mut self) -> Received {
        let (server, client) = (self.server, self.client);
        let step = SimDuration::from_millis(STEP_MS);
        let deadline = self.net.sim.now() + SimDuration::from_millis(OP_DEADLINE_MS);
        let circ = self.net.with::<TestClientNode, _>(client, |n, ctx| {
            let path = n
                .tor
                .select_path(ctx, TerminalReq::ExitTo(server, HTTP_PORT))?;
            n.tor.build_circuit(ctx, path)
        })?;
        let ready = run_until_or(&mut self.net, step, deadline, |net| {
            net.node::<TestClientNode>(client).tor.is_ready(circ)
        });
        let stream = ready
            .then(|| {
                self.net.with::<TestClientNode, _>(client, |n, ctx| {
                    n.tor
                        .open_stream(ctx, circ, StreamTarget::Node(server, HTTP_PORT))
                })
            })
            .flatten();
        let mut done = false;
        if let Some(stream) = stream {
            let connected = run_until_or(&mut self.net, step, deadline, |net| {
                net.node::<TestClientNode>(client).has_event(
                    |e| matches!(e, TorEvent::StreamConnected(c, s) if *c == circ && *s == stream),
                )
            });
            if connected {
                let path = self.path.clone();
                self.net.with::<TestClientNode, _>(client, |n, ctx| {
                    n.tor
                        .send_stream(ctx, circ, stream, &encode_frame(path.as_bytes()))
                });
                done = run_until_or(&mut self.net, step, deadline, |net| {
                    frame_complete(net.node::<TestClientNode>(client), circ, stream)
                });
            }
        }
        let events = self.net.with::<TestClientNode, _>(client, |n, ctx| {
            n.tor.destroy_circuit(ctx, circ);
            n.take_events()
        });
        match (done, stream) {
            (true, Some(stream)) => Some((circ, stream, events)),
            _ => None,
        }
    }
}

impl Workload for BulkFetch {
    type Pending = Received;
    const SESSION_OPS: u64 = 11;

    fn setup(seed: u64, traced: bool) -> Result<Self, String> {
        let sim = Simulator::new(SimConfig {
            seed,
            ..SimConfig::default()
        });
        let mut net = Net::new(sim, traced, 1);
        let fast = Iface::symmetric(SimDuration::from_millis(5), 50_000_000);
        let authority = build_tor(&mut net, seed, 4, 2, fast);
        let object = seeded_bytes(seed ^ 0x0B1E_C700, OBJECT_BYTES);
        let server = net.add(
            "web".into(),
            Iface::datacenter(),
            WebServerNode::new(vec![(OBJECT_PATH.to_string(), vec![object.clone()])]),
            Role::Server,
        );
        let client = net.add(
            "client".into(),
            Iface::residential(),
            TestClientNode::new(authority.addr, authority.key),
            Role::Client,
        );
        let step = SimDuration::from_millis(STEP_MS);
        let bootstrapped = run_until_or(&mut net, step, at_ms(30_000), |net| {
            net.node::<TestClientNode>(client).tor.consensus().is_some()
        });
        if !bootstrapped {
            return Err("client did not receive a consensus".into());
        }
        net.with::<TestClientNode, _>(client, |n, _| n.take_events());
        Ok(BulkFetch {
            net,
            server,
            client,
            object,
            path: OBJECT_PATH.to_string(),
            schedule: Fnv::default(),
        })
    }

    fn run_op(&mut self, _i: u64) -> Received {
        self.fetch()
    }

    fn check(&mut self, i: u64, out: Received) -> Check {
        let stats = self.net.sim.stats();
        self.schedule.u64(i);
        self.schedule.u64(self.net.sim.now().as_nanos());
        self.schedule.u64(stats.events);
        let Some((circ, stream, events)) = out else {
            self.schedule.u64(u64::MAX);
            return Check::FAILED;
        };
        let mut asm = FrameAssembler::new();
        for e in &events {
            if let TorEvent::StreamData(c, s, d) = e {
                if *c == circ && *s == stream {
                    asm.push(d);
                }
            }
        }
        let body = asm.next_frame();
        if let Some(b) = &body {
            // The length and the leading bytes: the full comparison below
            // decides correctness, the prefix ties the checksum to the seed.
            self.schedule.u64(b.len() as u64);
            self.schedule.bytes(&b[..b.len().min(4096)]);
        }
        let ok = body.is_some_and(|b| b == self.object) && asm.buffered() == 0;
        Check {
            ok,
            payload_bytes: if ok { self.object.len() as u64 } else { 0 },
        }
    }

    fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of(&self.net, self.schedule)
    }

    fn net(&self) -> &Net {
        &self.net
    }

    fn counts(&self) -> Counts {
        let mut c = relay_counts(&self.net);
        c.consensus_retries = self
            .net
            .node::<TestClientNode>(self.client)
            .tor
            .consensus_retries();
        c
    }
}
