//! The runner: set up a workload, run its closed loop for the requested
//! time, verify every op, and turn the result into metrics — end-to-end
//! metrics from an untraced run, per-layer metrics from a traced one.

use crate::bento_browse::BentoBrowse;
use crate::bulk_fetch::BulkFetch;
use crate::client_swarm::ClientSwarm;
use crate::host;
use crate::net::{Busy, Role};
use crate::pace::{self, Pace};
use crate::replay;
use crate::stats::{median, quantile, quartiles};
use crate::workload::{Counts, Fingerprint, Workload};
use simnet::sim::SimStats;
use std::collections::BTreeMap;
use std::time::Instant;
use telemetry::{Mode, Snapshot};

/// Sessions a run completes at least, whatever its length.
const MIN_SESSIONS: usize = 3;
/// Ops each session runs after set-up and before timing starts, to fill
/// caches.
const WARMUP_OPS: u64 = 1;
/// Hops of every circuit the workloads build.
const HOPS: f64 = 3.0;
/// Wall time the telemetry passes of a traced run aim for, seconds.
const TELEMETRY_PASSES_S: f64 = 3.0;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["bulk_fetch", "client_swarm", "bento_browse"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, not {:?}",
                WORKLOADS.join(", "),
                args.workload
            ));
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every op passed its check and every session's fingerprint agrees.
    pub correct: bool,
    /// Ops attempted (warm-ups included).
    pub attempted: u64,
    /// Ops that failed their check or stalled.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Outcome fingerprint of a session.
    pub fingerprint: Option<Fingerprint>,
    /// Provenance, as a JSON object.
    pub provenance: String,
}

impl Outcome {
    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    host::json_str(m.name),
                    finite(m.value),
                    host::json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Run the workload `args` names.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "bulk_fetch" => run_workload::<BulkFetch>(args),
        "client_swarm" => run_workload::<ClientSwarm>(args),
        "bento_browse" => run_workload::<BentoBrowse>(args),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Ops run so far, their verdicts and timings.
struct Tally {
    attempted: u64,
    failed: u64,
    /// Wall time of every timed op at the nominal pace, seconds.
    op_s: Vec<f64>,
    /// Wall time of all timed ops as measured, seconds.
    raw_op_s: f64,
    /// Class of every timed op (see `Workload::op_class`).
    op_class: Vec<u64>,
    /// Per session: verified ops per second of timed op time.
    session_ops_per_s: Vec<f64>,
    /// Per session: verified payload MiB per second of timed op time.
    session_goodput: Vec<f64>,
    /// Per session: median and 90th percentile of timed op time, ms.
    session_p50_ms: Vec<f64>,
    session_p90_ms: Vec<f64>,
    /// Wall time of every set-up at the nominal pace, seconds.
    setup_s: Vec<f64>,
    /// The reference kernel that measures the host's pace.
    pace: Pace,
    /// The factor that took each set-up's and op's wall time to the
    /// nominal pace.
    pace_scale: Vec<f64>,
    /// The first session's fingerprint.
    fingerprint: Option<Fingerprint>,
    /// Every later session reproduced it.
    fingerprints_agree: bool,
    /// Peak resident memory of the process when the first session ended,
    /// MiB.
    first_session_rss_mib: f64,
    started: Instant,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            op_s: Vec::new(),
            raw_op_s: 0.0,
            op_class: Vec::new(),
            session_ops_per_s: Vec::new(),
            session_goodput: Vec::new(),
            session_p50_ms: Vec::new(),
            session_p90_ms: Vec::new(),
            setup_s: Vec::new(),
            pace: Pace::new(),
            pace_scale: Vec::new(),
            fingerprint: None,
            fingerprints_agree: true,
            first_session_rss_mib: 0.0,
            started: Instant::now(),
        }
    }

    fn sessions(&self) -> usize {
        self.setup_s.len()
    }

    /// Whether to stop starting sessions: `seconds` have passed since the
    /// tally began and at least `min` sessions ran.
    fn done(&self, seconds: f64, min: usize) -> bool {
        self.sessions() >= min && self.started.elapsed().as_secs_f64() >= seconds
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.fingerprint.is_some() && self.fingerprints_agree
    }
}

/// A finished session: the workload as its last op left it, and the
/// program state after its warm-up, for per-phase deltas.
struct Session<W> {
    w: W,
    busy0: Busy,
    counts0: Counts,
    stats0: SimStats,
}

/// Set up a fresh instance and run one session of `W::SESSION_OPS` ops,
/// the first `WARMUP_OPS` untimed. `mode_of(i)` picks the telemetry mode
/// of op `i`; with `snap`, the set-up's and each timed op's telemetry is
/// captured and folded into it. The host's pace is sampled before the
/// set-up and after every op, and each wall time is scaled to the nominal
/// pace by the mean of the two samples around it (see `pace`).
fn session<W: Workload>(
    tally: &mut Tally,
    seed: u64,
    traced: bool,
    mode_of: impl Fn(u64) -> Mode,
    mut snap: Option<&mut Snapshot>,
) -> Result<Session<W>, String> {
    let mut paces = vec![tally.pace.sample(0)];
    let t = Instant::now();
    let mut w = match snap.as_deref_mut() {
        Some(acc) => {
            let (w, s) = telemetry::scoped(|| W::setup(seed, traced));
            fold_snapshot(acc, &s);
            w
        }
        None => W::setup(seed, traced),
    }?;
    let setup_s = t.elapsed().as_secs_f64();
    let mut busy0 = w.net().busy();
    let mut counts0 = w.counts();
    let mut stats0 = w.net().sim.stats();
    let (mut ok, mut bytes) = (0u64, 0u64);
    let mut op_s = Vec::with_capacity(W::SESSION_OPS as usize);
    for i in 0..W::SESSION_OPS {
        let timed = i >= WARMUP_OPS;
        if i == WARMUP_OPS {
            busy0 = w.net().busy();
            counts0 = w.counts();
            stats0 = w.net().sim.stats();
        }
        telemetry::set_mode(mode_of(i));
        let class = w.op_class(i);
        let mut op = || {
            let t = Instant::now();
            let out = w.run_op(i);
            let dt = t.elapsed().as_secs_f64();
            (dt, w.check(i, out))
        };
        let (dt, check) = match snap.as_deref_mut() {
            Some(acc) if timed => {
                let (r, s) = telemetry::scoped(op);
                fold_snapshot(acc, &s);
                r
            }
            _ => op(),
        };
        telemetry::set_mode(Mode::Summary);
        paces.push(tally.pace.sample(i + 1));
        tally.attempted += 1;
        if !check.ok {
            tally.failed += 1;
        }
        if timed {
            op_s.push(dt);
            tally.op_class.push(class);
            if check.ok {
                ok += 1;
                bytes += check.payload_bytes;
            }
        }
    }
    // paces[i] was taken just before op i (before the set-up for i = 0),
    // paces[i + 1] just after it; the set-up lies between paces[0] and
    // paces[1] too.
    let scale: Vec<f64> = paces
        .windows(2)
        .map(|p| 2.0 * pace::NOMINAL_S / (p[0] + p[1]))
        .collect();
    tally.setup_s.push(setup_s * scale[0]);
    let first = WARMUP_OPS as usize;
    let scaled: Vec<f64> = op_s
        .iter()
        .zip(&scale[first..])
        .map(|(s, k)| s * k)
        .collect();
    tally.pace_scale.extend_from_slice(&scale);
    let timed_s: f64 = scaled.iter().sum();
    let ms: Vec<f64> = scaled.iter().map(|s| s * 1e3).collect();
    tally.op_s.extend_from_slice(&scaled);
    tally.raw_op_s += op_s.iter().sum::<f64>();
    tally.session_p50_ms.push(quantile(&ms, 0.5));
    tally.session_p90_ms.push(quantile(&ms, 0.9));
    tally.session_ops_per_s.push(ok as f64 / timed_s);
    tally
        .session_goodput
        .push(bytes as f64 / timed_s / (1u64 << 20) as f64);
    let fp = w.fingerprint();
    match tally.fingerprint {
        None => {
            tally.fingerprint = Some(fp);
            tally.first_session_rss_mib = host::peak_rss_mib();
        }
        Some(first) if first != fp => {
            eprintln!("error: session fingerprint {fp:?} differs from the first, {first:?}");
            tally.fingerprints_agree = false;
        }
        Some(_) => {}
    }
    Ok(Session {
        w,
        busy0,
        counts0,
        stats0,
    })
}

fn provenance(args: &Args, workers: usize, session_ops: u64, tally: &Tally) -> String {
    let features: Vec<String> = host::target_features()
        .iter()
        .map(|f| host::json_str(f))
        .collect();
    let ms: Vec<f64> = tally.op_s.iter().map(|s| s * 1e3).collect();
    let q = |xs: &[f64]| {
        let [a, b, c] = quartiles(xs);
        format!("[{a}, {b}, {c}]")
    };
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"cpu_model\": {}, \"target_features\": [{}], \"rustc\": {}, \"git_revision\": {}, \
         \"telemetry_mode\": {}, \"engine_workers\": {}, \"sessions\": {}, \
         \"ops_per_session\": {}, \"warmup_ops_per_session\": {}, \"setup_s_quartiles\": {}, \
         \"ops_timed\": {}, \"op_ms_quartiles\": {}, \"session_ops_per_s_quartiles\": {}, \
         \"pace_nominal_s\": {}, \"pace_scale_quartiles\": {}}}",
        host::json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        host::nproc(),
        host::json_str(&host::cpu_model()),
        features.join(", "),
        host::json_str(host::rustc_version()),
        host::json_str(&host::git_revision()),
        host::json_str(telemetry::mode().name()),
        workers,
        tally.sessions(),
        session_ops,
        WARMUP_OPS,
        q(&tally.setup_s),
        tally.op_s.len(),
        q(&ms),
        q(&tally.session_ops_per_s),
        pace::NOMINAL_S,
        q(&tally.pace_scale),
    )
}

fn run_workload<W: Workload>(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        traced::<W>(args)
    } else {
        untraced::<W>(args)
    }
}

/// The end-to-end run: untraced sessions in the program's default
/// telemetry mode until `--seconds` have passed.
fn untraced<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::new();
    let mut workers = 1;
    while !tally.done(args.seconds, MIN_SESSIONS) {
        let s = session::<W>(&mut tally, args.seed, false, |_| Mode::Summary, None)?;
        workers = s.w.net().workers();
    }
    // Sessions repeat the same ops: each per-session figure is one sample
    // of the workload, and the run reports their median.
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m("setup_s", median(&tally.setup_s), "s"),
        m("ops_per_s", median(&tally.session_ops_per_s), "1/s"),
        m("goodput_mib_per_s", median(&tally.session_goodput), "MiB/s"),
        m("op_ms_p50", median(&tally.session_p50_ms), "ms"),
        m("op_ms_p90", median(&tally.session_p90_ms), "ms"),
        // Later sessions only add allocator fragmentation that depends on
        // which arenas the engine's worker threads happen to reuse.
        m("peak_rss_mib", tally.first_session_rss_mib, "MiB"),
    ];
    Ok(Outcome {
        correct: tally.correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        fingerprint: tally.fingerprint,
        provenance: provenance(args, workers, W::SESSION_OPS, &tally),
    })
}

/// How many replay-based estimates exceed `busy_s`, the measured busy
/// time of the layer that contains the replayed work. Any such estimate
/// overstates its layer.
pub fn estimates_over_busy(estimates: &[f64], busy_s: f64) -> usize {
    estimates.iter().filter(|&&e| e > busy_s).count()
}

/// Add `s`'s counters into `acc` and keep the larger gauge high-water
/// marks.
fn fold_snapshot(acc: &mut Snapshot, s: &Snapshot) {
    for (k, v) in &s.counters {
        *acc.counters.entry(k.clone()).or_insert(0) += v;
    }
    for (k, g) in &s.gauges {
        acc.gauges
            .entry(k.clone())
            .and_modify(|a| a.max = a.max.max(g.max))
            .or_insert(*g);
    }
}

/// The traced run. Traced sessions (every node wrapped) for `--seconds`;
/// then untraced twin sessions of the same seed, whose op times are the
/// reference for the tracing overhead and whose fingerprint must match;
/// then telemetry passes rotating Off, Summary and Full across ops; then
/// the replays.
fn traced<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::new();
    let mut spans: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut snap = Snapshot::default();
    let mut busy = Busy::default();
    let mut counts = Counts::default();
    let mut sim = SimStats::default();
    let mut workers = 1;
    let mut functions_s = None;
    while !tally.done(args.seconds, MIN_SESSIONS) {
        let mut s = session::<W>(
            &mut tally,
            args.seed,
            true,
            |_| Mode::Summary,
            Some(&mut snap),
        )?;
        for (name, v) in s.w.setup_spans() {
            spans.entry(name).or_default().push(v);
        }
        busy = busy.plus(&s.w.net().busy().since(&s.busy0));
        counts = counts.plus(&s.w.counts().since(&s.counts0));
        let st = s.w.net().sim.stats();
        sim.events += st.events - s.stats0.events;
        sim.msgs_delivered += st.msgs_delivered - s.stats0.msgs_delivered;
        sim.conns_opened += st.conns_opened - s.stats0.conns_opened;
        workers = s.w.net().workers();
        // Sessions repeat the same ops, so one replay covers them all.
        if functions_s.is_none() {
            functions_s = Some(s.w.functions_replay_s(WARMUP_OPS..W::SESSION_OPS));
        }
    }
    let functions_s = functions_s.unwrap_or(0.0) * tally.sessions() as f64;
    // Shares of the measured wall time: the replays they compare with run
    // at the host's pace of the moment too.
    let wall = tally.raw_op_s;

    // The untraced twin shares the traced sessions' fingerprint check.
    let mut twin = Tally::new();
    twin.fingerprint = tally.fingerprint;
    while !twin.done(args.seconds / 3.0, 1) {
        session::<W>(&mut twin, args.seed, false, |_| Mode::Summary, None)?;
    }
    // Op times compare within a class: each op's time over the twin's
    // median time for ops of its class.
    let mut by_class: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (&t, &c) in twin.op_s.iter().zip(&twin.op_class) {
        by_class.entry(c).or_default().push(t);
    }
    let reference: BTreeMap<u64, f64> = by_class.iter().map(|(&c, v)| (c, median(v))).collect();
    let relative = |t: f64, c: u64| reference.get(&c).map(|r| t / r);
    let traced_rel: Vec<f64> = tally
        .op_s
        .iter()
        .zip(&tally.op_class)
        .filter_map(|(&t, &c)| relative(t, c))
        .collect();
    let overhead = median(&traced_rel) - 1.0;

    // Telemetry cost: op i of telemetry session k runs in mode (i + k) % 3.
    let modes = [Mode::Off, Mode::Summary, Mode::Full];
    let mut passes = Tally::new();
    passes.fingerprint = tally.fingerprint;
    let mut per_mode: [Vec<f64>; 3] = Default::default();
    while !passes.done(TELEMETRY_PASSES_S, 1) {
        let k = passes.sessions() as u64;
        let before = passes.op_s.len();
        session::<W>(
            &mut passes,
            args.seed,
            false,
            |i| modes[((i + k) % 3) as usize],
            None,
        )?;
        for (j, (&t, &c)) in passes.op_s[before..]
            .iter()
            .zip(&passes.op_class[before..])
            .enumerate()
        {
            let i = WARMUP_OPS + j as u64;
            per_mode[((i + k) % 3) as usize].extend(relative(t, c));
        }
    }
    let off = median(&per_mode[0]);
    let cost = |m: usize| median(&per_mode[m]) / off - 1.0;

    let chacha_ns = replay::chacha20_ns_per_cell();
    let sha_ns = replay::sha256_ns_per_cell();
    let ntor_us = replay::ntor_us();
    let attest_ms = replay::attest_ms();

    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let threads = workers as f64;
    let loop_s = busy.loop_ns as f64 / 1e9;
    let relay_busy = busy.role_s(Role::Relay);
    let plain_cells = (counts.cells_in - counts.box_cells_in) as f64;
    let relay_ns_per_cell = if plain_cells > 0.0 {
        relay_busy * 1e9 / plain_cells
    } else {
        0.0
    };
    let box_busy = busy.role_s(Role::Box);
    // Every layer a relay applies is mirrored by one the client applies,
    // and each relay cell is digested once at each end of its circuit.
    let layers = counts.crypto_bytes as f64 / replay::CELL as f64;
    let cipher_s = 2.0 * layers * chacha_ns / 1e9;
    let digest_s = 2.0 * layers / HOPS * sha_ns / 1e9;
    // Every circuit hop a relay creates is one ntor handshake.
    let handshake_s = counts.circuits_built as f64 * ntor_us / 1e6;
    let tor_busy = relay_busy + busy.role_s(Role::Client) + box_busy;
    let flagged = estimates_over_busy(&[cipher_s, digest_s, handshake_s], tor_busy);
    if flagged > 0 {
        eprintln!(
            "warning: {flagged} onion-crypto estimate(s) exceed the tor-net busy time \
             ({tor_busy:.3} s) that contains them"
        );
    }
    let pool = counter("simnet.pool.hits") + counter("simnet.pool.misses");
    let span = |name: &str| spans.get(name).map_or(0.0, |v| median(v));
    let queue_max = snap
        .gauges
        .get("simnet.queue_depth")
        .map_or(0.0, |g| g.max as f64);

    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m("simnet.self_s", loop_s * threads - busy.all_roles_s(), "s"),
        m(
            "simnet.cpu_busy_frac",
            busy.loop_cpu_ns as f64 / 1e9 / (loop_s * threads),
            "ratio",
        ),
        m(
            "simnet.pool.hit_frac",
            if pool > 0.0 {
                counter("simnet.pool.hits") / pool
            } else {
                0.0
            },
            "ratio",
        ),
        m("simnet.events", sim.events as f64, "count"),
        m("simnet.msgs_delivered", sim.msgs_delivered as f64, "count"),
        m("simnet.conns_opened", sim.conns_opened as f64, "count"),
        m("simnet.queue_depth_max", queue_max, "count"),
        m("tor-net.relay_busy_s", relay_busy, "s"),
        m("tor-net.relay_ns_per_cell", relay_ns_per_cell, "ns"),
        m("tor-net.client_busy_s", busy.role_s(Role::Client), "s"),
        m("tor-net.server_busy_s", busy.role_s(Role::Server), "s"),
        m("tor-net.cells_in", counts.cells_in as f64, "count"),
        m(
            "tor-net.cells_forwarded",
            counts.cells_forwarded as f64,
            "count",
        ),
        m(
            "tor-net.circuits_built",
            counts.circuits_built as f64,
            "count",
        ),
        m(
            "tor-net.consensus_retries",
            counts.consensus_retries as f64,
            "count",
        ),
        m("tor-net.batch_cells_p50", busy.relay_batch_p50(), "count"),
        m("onion-crypto.chacha20_ns_per_cell", chacha_ns, "ns"),
        m("onion-crypto.sha256_ns_per_cell", sha_ns, "ns"),
        m("onion-crypto.ntor_us", ntor_us, "us"),
        m("onion-crypto.cipher_share", cipher_s / wall, "ratio"),
        m("onion-crypto.digest_share", digest_s / wall, "ratio"),
        m("onion-crypto.handshake_share", handshake_s / wall, "ratio"),
        m("onion-crypto.estimates_over_busy", flagged as f64, "count"),
        m("bento.box_busy_s", box_busy, "s"),
        m(
            "bento.box_self_s",
            box_busy - counts.box_layer_cells as f64 * relay_ns_per_cell / 1e9,
            "s",
        ),
        m("bento.setup.session_s", span("bento.setup.session_s"), "s"),
        m(
            "bento.setup.container_s",
            span("bento.setup.container_s"),
            "s",
        ),
        m("bento.setup.upload_s", span("bento.setup.upload_s"), "s"),
        m("bento.invocations", counter("bento.invocations"), "count"),
        m(
            "bento.invoke_input_bytes",
            counts.invoke_input_bytes as f64,
            "B",
        ),
        m("conclave.attest_ms", attest_ms, "ms"),
        m("conclave.epc_pages_in", counter("epc.pages_in"), "count"),
        m(
            "conclave.sealed_bytes",
            counter("conclave.sealed_bytes"),
            "B",
        ),
        m(
            "sandbox.net_allowed",
            counter("sandbox.net_allowed"),
            "count",
        ),
        m("functions.compress_share", functions_s / wall, "ratio"),
        m("telemetry.summary_cost_frac", cost(1), "ratio"),
        m("telemetry.full_cost_frac", cost(2), "ratio"),
        m("trace.overhead_frac", overhead, "ratio"),
    ];
    Ok(Outcome {
        correct: tally.correct() && twin.correct() && passes.correct(),
        attempted: tally.attempted + twin.attempted + passes.attempted,
        failed: tally.failed + twin.failed + passes.failed,
        metrics,
        fingerprint: tally.fingerprint,
        provenance: provenance(args, workers, W::SESSION_OPS, &tally),
    })
}
