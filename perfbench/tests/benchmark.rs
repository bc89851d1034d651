//! The benchmark's own tests: wrapper neutrality, failure accounting,
//! seed sensitivity, the replay-estimate check, and agreement between the
//! metrics a run reports and the ones `BENCHMARK.json` declares.

use perfbench::bento_browse::{corpus, BentoBrowse};
use perfbench::bulk_fetch::BulkFetch;
use perfbench::client_swarm::ClientSwarm;
use perfbench::run::{estimates_over_busy, run, Args, Outcome};
use perfbench::workload::{seeded_bytes, Fingerprint, Workload};

/// Set up `W` and run its first `ops` ops, each of which must pass.
fn smoke<W: Workload>(seed: u64, traced: bool, ops: u64) -> Fingerprint {
    let mut w = W::setup(seed, traced).expect("set-up");
    for i in 0..ops {
        let out = w.run_op(i);
        assert!(w.check(i, out).ok, "op {i} failed");
    }
    w.fingerprint()
}

#[test]
fn wrapper_is_neutral_on_bulk_fetch() {
    assert_eq!(
        smoke::<BulkFetch>(3, true, 1),
        smoke::<BulkFetch>(3, false, 1)
    );
}

#[test]
fn wrapper_is_neutral_on_client_swarm() {
    assert_eq!(
        smoke::<ClientSwarm>(3, true, 2),
        smoke::<ClientSwarm>(3, false, 2)
    );
}

#[test]
fn wrapper_is_neutral_on_bento_browse() {
    assert_eq!(
        smoke::<BentoBrowse>(3, true, 3),
        smoke::<BentoBrowse>(3, false, 3)
    );
}

#[test]
fn missing_object_is_a_failed_fetch() {
    let mut w = BulkFetch::setup(4, false).expect("set-up");
    w.path = "/no-such-object".into();
    let out = w.run_op(0);
    assert!(!w.check(0, out).ok);
    // The failure is contained: the next fetch succeeds.
    w.path = perfbench::bulk_fetch::OBJECT_PATH.into();
    let out = w.run_op(1);
    assert!(w.check(1, out).ok);
}

#[test]
fn missing_page_is_a_failed_visit() {
    let mut w = BentoBrowse::setup(4, false).expect("set-up");
    w.path_override = Some("/no-such-site/index@0".into());
    let out = w.run_op(0);
    assert!(!w.check(0, out).ok);
    w.path_override = None;
    let out = w.run_op(1);
    assert!(w.check(1, out).ok);
}

#[test]
fn seed_changes_inputs_and_fingerprint() {
    assert_ne!(seeded_bytes(1, 64), seeded_bytes(2, 64));
    let (a, b) = (corpus(1), corpus(2));
    assert!(a.iter().zip(&b).any(|(x, y)| x.html != y.html));
    // Stratified weights: the same asset weights, differently assigned.
    let assets = |sites: &[perfbench::bento_browse::SiteModel]| -> Vec<u64> {
        sites
            .iter()
            .map(|s| s.total_bytes() - s.html.inline_len as u64)
            .collect()
    };
    let (mut wa, mut wb) = (assets(&a), assets(&b));
    assert_ne!(wa, wb);
    wa.sort_unstable();
    wb.sort_unstable();
    for (x, y) in wa.iter().zip(&wb) {
        assert!(
            x.abs_diff(*y) * 50 < *x,
            "asset weights {x} and {y} differ by >2%"
        );
    }
    assert_ne!(
        smoke::<BulkFetch>(1, false, 1),
        smoke::<BulkFetch>(2, false, 1)
    );
    assert_ne!(
        smoke::<ClientSwarm>(1, false, 1),
        smoke::<ClientSwarm>(2, false, 1)
    );
    assert_ne!(
        smoke::<BentoBrowse>(1, false, 1),
        smoke::<BentoBrowse>(2, false, 1)
    );
}

#[test]
fn estimate_check_flags_overruns() {
    assert_eq!(estimates_over_busy(&[0.1, 0.2, 0.0], 0.5), 0);
    assert_eq!(estimates_over_busy(&[0.6, 0.2, 0.7], 0.5), 2);
    assert_eq!(estimates_over_busy(&[0.0, 0.0, 0.0], 0.0), 0);
}

/// Metric names of one section of `BENCHMARK.json`, without a JSON
/// parser: every `"name": "…"` between the section's key and the next
/// section.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let rest = &json[start..];
    let end = rest.find(']').expect("section closes");
    rest[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn reported(o: &Outcome) -> Vec<String> {
    o.metrics.iter().map(|m| m.name.to_string()).collect()
}

fn quick(workload: &str, trace: bool) -> Outcome {
    let args = Args {
        workload: workload.into(),
        seed: 5,
        seconds: 0.001,
        trace,
    };
    run(&args).expect("run")
}

#[test]
fn untraced_run_reports_declared_end_to_end_metrics() {
    let o = quick("client_swarm", false);
    assert!(o.correct && o.failed == 0);
    assert_eq!(reported(&o), declared("end_to_end"));
    assert!(o.metrics.iter().all(|m| m.value > 0.0), "{:?}", o.metrics);
}

#[test]
fn traced_run_reports_declared_layers_and_fits_busy_time() {
    let o = quick("bulk_fetch", true);
    assert!(o.correct && o.failed == 0);
    assert_eq!(reported(&o), declared("per_layer"));
    assert_eq!(o.metric("onion-crypto.estimates_over_busy"), Some(0.0));
    for share in ["onion-crypto.digest_share", "onion-crypto.cipher_share"] {
        let v = o.metric(share).expect("share reported");
        assert!(v > 0.0 && v < 1.0, "{share} = {v}");
    }
}
