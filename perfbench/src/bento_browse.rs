//! `bento_browse`: the Browser path of Table 1's collection. One Bento
//! client, with a sniffer on its guard link, attests a box, is granted an
//! SGX container and uploads Browser during set-up. Each op is one visit
//! to a corpus page (site × visit variant): a fresh box session with a new
//! circuit, one Browser invocation — padding alternating between 0 and
//! 1 MiB — and the session's teardown. A session visits every page once,
//! so every site once with each padding.

use crate::net::{Net, Role};
use crate::stats::Fnv;
use crate::workload::{
    at_ms, build_tor, relay_counts, run_until_or, Check, Counts, Fingerprint, Workload,
};
use bento::protocol::{FunctionSpec, ImageKind};
use bento::testnet::{enclave_measurement, ENCLAVE_IMAGE};
use bento::{
    BentoBoxNode, BentoClient, BentoClientNode, BentoEvent, BentoServer, BoxConn, MiddleboxPolicy,
    Token,
};
use bento_functions::browser::{self, BrowseRequest};
use bento_functions::compress::compress;
pub use bento_functions::web::SiteModel;
use conclave::attest::Ias;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{Iface, NodeId, SimConfig, SimDuration, Simulator};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tor_net::client::TorClient;
use tor_net::dir::{ExitPolicy, RelayFlags, RelayInfo};
use tor_net::netbuild::WebServerNode;
use tor_net::ports::{BENTO_PORT, HTTP_PORT};
use tor_net::relay::{RelayConfig, RelayCore};

/// Relay cell payload bytes: one layer-crypto application.
const CELL_PAYLOAD: u64 = 509;

/// Sites in the corpus.
const SITES: u32 = 24;
/// Visit variants per site (page contents jitter between visits); a
/// session visits variant 0 unpadded and variant 1 padded.
const VARIANTS: u32 = 2;
/// Per-variant asset size jitter, percent.
const JITTER_PCT: u32 = 3;
/// Padding quantum of every other visit.
const PADDING: u64 = 1 << 20;
/// Simulated time one visit may take before it counts as stalled, ms.
const OP_DEADLINE_MS: u64 = 60_000;
/// Polling step, simulated ms.
const STEP_MS: u64 = 20;
/// Simulated time after a visit's teardown before the next visit, ms.
const GAP_MS: u64 = 200;

/// Pages in the corpus.
const PAGES: usize = (SITES * VARIANTS) as usize;

/// Generate the corpus. Page shapes are stratified: stratum `k` has a
/// page weight on Table 1's corpus model (60 KB to 3.9 MB, uniform), an
/// asset count in 3..=24 and an HTML size in 2–30 KB, each on its own
/// fixed quantile, and a fixed split of the weight across the assets. So
/// every seed sees the same mix of page shapes, and the op-time quantiles
/// do not jump between seeds. The seed picks which site gets which
/// stratum, and all content.
pub fn corpus(seed: u64) -> Vec<SiteModel> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB403_5E00);
    let n = SITES as usize;
    // Fixed strides decorrelate the three quantiles across strata.
    let quantile = |k: usize, stride: usize| ((k * stride) % n) as f64 / (n - 1) as f64;
    let mut strata: Vec<(u32, usize, u32)> = (0..n)
        .map(|k| {
            let total = (60_000.0 * (1.0 + 64.0 * (k as f64 + 0.5) / n as f64)) as u32;
            let n_assets = 3 + (21.0 * quantile(k, 7)).round() as usize;
            let inline_len = 2_000 + (28_000.0 * quantile(k, 11)) as u32;
            (total, n_assets, inline_len)
        })
        .collect();
    for k in (1..strata.len()).rev() {
        strata.swap(k, rng.gen_range(0..=k));
    }
    strata
        .iter()
        .enumerate()
        .map(|(j, &(total, n_assets, inline_len))| {
            let mut remaining = total;
            let sizes: Vec<u32> = (0..n_assets)
                .map(|i| {
                    let share = if i == n_assets - 1 {
                        remaining
                    } else {
                        // Shares spread over [0.05, 0.5) by the golden
                        // ratio's low-discrepancy sequence.
                        let spread = ((i + 1) as f64 * 0.618_033_988_75).fract();
                        let s = (remaining as f64 * (0.05 + 0.45 * spread)) as u32;
                        remaining -= s;
                        s
                    };
                    share.max(100)
                })
                .collect();
            SiteModel::custom(&format!("site{j:03}"), &sizes, inline_len, rng.gen())
        })
        .collect()
}

/// The bytes Browser fetches for visit variant `v` of `site`: the HTML
/// document followed by every asset, in request order.
fn page_bytes(site: &SiteModel, v: u32) -> Vec<u8> {
    let doc = site.variant(v, JITTER_PCT);
    let mut raw = doc.encode();
    for (i, (_, size)) in doc.assets.iter().enumerate() {
        raw.extend_from_slice(&site.asset_content(i, *size));
    }
    raw
}

/// Padding Browser appends to a `len`-byte digest for quantum `padding`:
/// up to the next multiple, a full quantum on an exact fit, none for 0.
fn pad_len(len: u64, padding: u64) -> u64 {
    if padding == 0 {
        0
    } else {
        padding - len % padding
    }
}

/// The workload's state.
pub struct BentoBrowse {
    net: Net,
    client: NodeId,
    server: NodeId,
    box_info: RelayInfo,
    invocation: Token,
    sites: Vec<SiteModel>,
    /// Visit order over page indices (`site * VARIANTS + variant`).
    order: Vec<usize>,
    /// Expected Browser digests by page index, filled on first use.
    digests: BTreeMap<usize, Vec<u8>>,
    /// Overrides the path the next visits request (tests).
    pub path_override: Option<String>,
    spans: Vec<(&'static str, f64)>,
    invoke_input_bytes: u64,
    schedule: Fnv,
}

/// One visit's output: the session, the page and padding asked for, and
/// the client's Bento events.
pub struct Visit {
    conn: Option<BoxConn>,
    page: usize,
    padding: u64,
    events: Vec<BentoEvent>,
}

impl BentoBrowse {
    /// Page and padding of visit `i`: the seeded visit order, with every
    /// other visit padded (see `setup`).
    fn page_of(&self, i: u64) -> (usize, u64) {
        let padding = if i % 2 == 1 { PADDING } else { 0 };
        (self.order[i as usize % PAGES], padding)
    }

    fn has(&self, pred: impl Fn(&BentoEvent) -> bool) -> bool {
        self.net
            .node::<BentoClientNode>(self.client)
            .bento_events
            .iter()
            .any(pred)
    }

    /// Run until an event matching `pred` arrives at the client.
    fn wait(&mut self, deadline_ms: u64, pred: impl Fn(&BentoEvent) -> bool) -> bool {
        let client = self.client;
        let deadline = self.net.sim.now() + SimDuration::from_millis(deadline_ms);
        run_until_or(
            &mut self.net,
            SimDuration::from_millis(STEP_MS),
            deadline,
            |net| {
                net.node::<BentoClientNode>(client)
                    .bento_events
                    .iter()
                    .any(&pred)
            },
        )
    }

    /// Open a box session and wait for its stream.
    fn open_session(&mut self, deadline_ms: u64) -> Option<BoxConn> {
        let info = self.box_info.clone();
        let conn = self.net.with::<BentoClientNode, _>(self.client, |n, ctx| {
            n.bento.connect_box(ctx, &mut n.tor, &info)
        })?;
        let up = self.wait(
            deadline_ms,
            |e| matches!(e, BentoEvent::Connected(c) | BentoEvent::Closed(c) if *c == conn),
        );
        (up && self.has(|e| matches!(e, BentoEvent::Connected(c) if *c == conn))).then_some(conn)
    }

    fn close_session(&mut self, conn: BoxConn) {
        self.net.with::<BentoClientNode, _>(self.client, |n, ctx| {
            n.bento.close_box(ctx, &mut n.tor, conn)
        });
        self.net.run_for(SimDuration::from_millis(GAP_MS));
    }

    /// The digest Browser must return for page `page`.
    fn expected_digest(&mut self, page: usize) -> &[u8] {
        let sites = &self.sites;
        self.digests.entry(page).or_insert_with(|| {
            let site = &sites[page / VARIANTS as usize];
            compress(&page_bytes(site, page as u32 % VARIANTS))
        })
    }

    fn path(&self, page: usize) -> String {
        match &self.path_override {
            Some(p) => p.clone(),
            None => self.sites[page / VARIANTS as usize].html_path_variant(page as u32 % VARIANTS),
        }
    }
}

impl Workload for BentoBrowse {
    type Pending = Visit;
    /// The untimed warm-up visit, then every page once: visit `PAGES`
    /// repeats the warm-up's page, so the timed visits cover the whole
    /// corpus whatever the seeded order.
    const SESSION_OPS: u64 = PAGES as u64 + 1;

    fn setup(seed: u64, traced: bool) -> Result<Self, String> {
        let sim = Simulator::new(SimConfig {
            seed,
            ..SimConfig::default()
        });
        let mut net = Net::new(sim, traced, 1);
        let iface = Iface::tor_relay();
        let authority = build_tor(&mut net, seed, 6, 2, iface);

        // The box, assembled from its public parts as every Bento box is.
        let ias = Arc::new(Mutex::new(Ias::new([0xC0; 32], 5)));
        let ias_key = ias.lock().expect("fresh ias lock").verify_key();
        let platform = {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
            ias.lock()
                .expect("fresh ias lock")
                .provision_platform(1000, &mut rng)
        };
        let mut identity = [0u8; 32];
        StdRng::seed_from_u64(seed ^ 0xB0).fill(&mut identity[..]);
        let mut cfg = RelayConfig::middle("bento0", identity);
        cfg.flags = RelayFlags::default()
            .with(RelayFlags::EXIT | RelayFlags::FAST | RelayFlags::BENTO | RelayFlags::GUARD);
        cfg.exit_policy = ExitPolicy::web_only();
        cfg.bento_port = Some(BENTO_PORT);
        cfg.authority_addr = Some(authority.addr);
        let server = BentoServer::new(
            MiddleboxPolicy::permissive(),
            bento_functions::standard_registry(),
            ExitPolicy::web_only(),
            ENCLAVE_IMAGE.to_vec(),
            ias,
            platform,
            seed,
        );
        let box_node = BentoBoxNode::new(
            RelayCore::new(cfg),
            TorClient::new(authority.addr, authority.key),
            server,
        );
        net.add("bento0".into(), iface, box_node, Role::Box);

        let sites = corpus(seed);
        let pages = sites
            .iter()
            .flat_map(|s| s.server_pages_variants(VARIANTS, JITTER_PCT))
            .collect();
        let web = net.add(
            "web".into(),
            Iface::datacenter(),
            WebServerNode::new(pages),
            Role::Server,
        );
        let client_node = BentoClientNode::new(
            TorClient::new(authority.addr, authority.key),
            BentoClient::new(ias_key, enclave_measurement()),
        );
        let client = net.add(
            "victim".into(),
            Iface::residential(),
            client_node,
            Role::Client,
        );
        net.sim.enable_sniffer(client);
        let found = run_until_or(
            &mut net,
            SimDuration::from_millis(100),
            at_ms(30_000),
            |net| !BentoClient::discover_boxes(&net.node::<BentoClientNode>(client).tor).is_empty(),
        );
        if !found {
            return Err("no Bento box in the client's consensus".into());
        }
        let box_info =
            BentoClient::discover_boxes(&net.node::<BentoClientNode>(client).tor)[0].clone();
        // Even visits take each site's variant 0 unpadded, odd visits its
        // variant 1 padded, both in seeded order: padding alternates, and
        // every seed visits every site once with each padding.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0DE2);
        let mut shuffled = || {
            let mut sites: Vec<usize> = (0..SITES as usize).collect();
            for k in (1..sites.len()).rev() {
                sites.swap(k, rng.gen_range(0..=k));
            }
            sites
        };
        let (plain, padded) = (shuffled(), shuffled());
        let order = plain
            .iter()
            .zip(&padded)
            .flat_map(|(&a, &b)| [a * VARIANTS as usize, b * VARIANTS as usize + 1])
            .collect();
        let mut w = BentoBrowse {
            net,
            client,
            server: web,
            box_info,
            invocation: Token([0; 32]),
            sites,
            order,
            digests: BTreeMap::new(),
            path_override: None,
            spans: Vec::new(),
            invoke_input_bytes: 0,
            schedule: Fnv::default(),
        };

        let t = Instant::now();
        let conn = w
            .open_session(30_000)
            .ok_or("set-up session did not connect")?;
        w.spans
            .push(("bento.setup.session_s", t.elapsed().as_secs_f64()));

        let t = Instant::now();
        w.net.with::<BentoClientNode, _>(client, |n, ctx| {
            n.bento
                .request_container(ctx, &mut n.tor, conn, ImageKind::Sgx)
        });
        w.wait(30_000, |e| {
            matches!(e, BentoEvent::ContainerReady { conn: c, .. }
                | BentoEvent::AttestationFailed(c, _)
                | BentoEvent::Rejected(c, _) if *c == conn)
        });
        let (container, invocation, _) = w
            .net
            .node::<BentoClientNode>(client)
            .container_ready(conn)
            .ok_or("no attested container")?;
        w.invocation = invocation;
        w.spans
            .push(("bento.setup.container_s", t.elapsed().as_secs_f64()));

        let t = Instant::now();
        let spec = FunctionSpec {
            params: vec![],
            manifest: browser::manifest(false),
        };
        w.net.with::<BentoClientNode, _>(client, |n, ctx| {
            n.bento.upload(ctx, &mut n.tor, conn, container, &spec)
        });
        w.wait(
            30_000,
            |e| matches!(e, BentoEvent::UploadOk(c, _) | BentoEvent::Rejected(c, _) if *c == conn),
        );
        if !w.net.node::<BentoClientNode>(client).upload_ok(conn) {
            return Err("Browser upload failed".into());
        }
        w.close_session(conn);
        w.spans
            .push(("bento.setup.upload_s", t.elapsed().as_secs_f64()));
        w.net.with::<BentoClientNode, _>(client, |n, _| {
            n.bento_events.clear();
            n.tor_events.clear();
        });
        Ok(w)
    }

    fn run_op(&mut self, i: u64) -> Visit {
        let (page, padding) = self.page_of(i);
        let client = self.client;
        self.net.sim.sniffer_mut(client).clear();
        let deadline = self.net.sim.now() + SimDuration::from_millis(OP_DEADLINE_MS);
        let conn = self.open_session(OP_DEADLINE_MS);
        if let Some(conn) = conn {
            let req = BrowseRequest {
                server: self.server,
                port: HTTP_PORT,
                path: self.path(page),
                padding,
                dropbox_on: None,
            }
            .encode();
            self.invoke_input_bytes += req.len() as u64;
            let token = self.invocation;
            self.net.with::<BentoClientNode, _>(client, |n, ctx| {
                n.bento.invoke(ctx, &mut n.tor, conn, token, req)
            });
            let left = deadline.0.saturating_sub(self.net.sim.now().0) / 1_000_000;
            self.wait(
                left,
                |e| matches!(e, BentoEvent::OutputEnd(c) | BentoEvent::Closed(c) if *c == conn),
            );
            self.close_session(conn);
        }
        let events = self.net.with::<BentoClientNode, _>(client, |n, _| {
            n.tor_events.clear();
            std::mem::take(&mut n.bento_events)
        });
        Visit {
            conn,
            page,
            padding,
            events,
        }
    }

    fn check(&mut self, i: u64, v: Visit) -> Check {
        self.schedule.u64(i);
        self.schedule.u64(self.net.sim.now().as_nanos());
        // What the adversary on the guard link saw of this visit.
        for e in self.net.sim.sniffer(self.client).events() {
            self.schedule.u64(e.time.as_nanos());
            self.schedule
                .u64(e.bytes as u64 * 2 + (e.dir.sign() > 0) as u64);
        }
        let Some(conn) = v.conn else {
            self.schedule.u64(u64::MAX);
            return Check::FAILED;
        };
        let mut output = Vec::new();
        let mut ended = false;
        for e in &v.events {
            match e {
                BentoEvent::Output(c, d) if *c == conn => output.extend_from_slice(d),
                BentoEvent::OutputEnd(c) if *c == conn => ended = true,
                _ => {}
            }
        }
        let mut h = Fnv::default();
        h.bytes(&output);
        self.schedule.u64(h.0);
        let digest = self.expected_digest(v.page);
        let want = digest.len() as u64 + pad_len(digest.len() as u64, v.padding);
        let ok = ended && output.len() as u64 == want && output.starts_with(digest);
        Check {
            ok,
            payload_bytes: if ok { output.len() as u64 } else { 0 },
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
        for id in self.net.ids(Role::Box) {
            let b = self.net.node::<BentoBoxNode>(id);
            let s = b.relay.stats();
            c.add_relay(s);
            c.box_cells_in += s.cells_in;
            c.box_layer_cells += s.crypto_bytes / CELL_PAYLOAD;
            c.consensus_retries += b.tor.consensus_retries();
        }
        c.consensus_retries += self
            .net
            .node::<BentoClientNode>(self.client)
            .tor
            .consensus_retries();
        c.invoke_input_bytes = self.invoke_input_bytes;
        c
    }

    fn setup_spans(&self) -> Vec<(&'static str, f64)> {
        self.spans.clone()
    }

    fn op_class(&self, i: u64) -> u64 {
        let (page, padding) = self.page_of(i);
        page as u64 * 2 + (padding != 0) as u64
    }

    fn functions_replay_s(&mut self, ops: Range<u64>) -> f64 {
        let mut per_page = BTreeMap::new();
        let mut total = 0.0;
        for i in ops {
            let (page, _) = self.page_of(i);
            total += *per_page.entry(page).or_insert_with(|| {
                let site = &self.sites[page / VARIANTS as usize];
                let raw = page_bytes(site, page as u32 % VARIANTS);
                let t = Instant::now();
                std::hint::black_box(compress(std::hint::black_box(&raw)));
                t.elapsed().as_secs_f64()
            });
        }
        total
    }
}
