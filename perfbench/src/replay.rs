//! Replays of single public functions, timed in isolation. A workload's
//! per-layer estimates multiply these per-call costs by the operation
//! counts of the run.

use bento::testnet::ENCLAVE_IMAGE;
use conclave::attest::Ias;
use conclave::enclave::Enclave;
use onion_crypto::chacha20::ChaCha20;
use onion_crypto::ntor;
use onion_crypto::sha256::Sha256;
use onion_crypto::x25519::StaticSecret;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Relay cell payload length.
pub const CELL: usize = 509;
const REPS: usize = 5;

/// Median over [`REPS`] repetitions of the mean per-call time of `f`
/// called `n` times, nanoseconds.
fn per_call_ns(n: u32, mut f: impl FnMut()) -> f64 {
    let mut reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                f();
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    reps.sort_by(|a, b| a.total_cmp(b));
    reps[REPS / 2]
}

/// One ChaCha20 layer over a cell payload, nanoseconds.
pub fn chacha20_ns_per_cell() -> f64 {
    let mut cipher = ChaCha20::new(&[7; 32], &[9; 12]);
    let mut cell = [0x42u8; CELL];
    per_call_ns(20_000, || cipher.apply(black_box(&mut cell)))
}

/// One running-digest step over a cell payload as a relay cell seal does
/// it (absorb with the digest field zeroed, then peek the digest),
/// nanoseconds.
pub fn sha256_ns_per_cell() -> f64 {
    let mut digest = Sha256::new();
    let cell = [0x42u8; CELL];
    per_call_ns(20_000, || {
        digest
            .update(black_box(&cell[..5]))
            .update(&[0; 4])
            .update(&cell[9..]);
        black_box(digest.clone_finalize());
    })
}

/// One full ntor handshake (client begin, server respond, client finish),
/// microseconds.
pub fn ntor_us() -> f64 {
    let mut rng = StdRng::seed_from_u64(0x4E70);
    let relay = StaticSecret::from_bytes([5; 32]);
    let relay_pk = relay.public_key();
    let node_id = [3u8; 20];
    per_call_ns(40, || {
        let (state, skin) = ntor::client_begin(&mut rng, node_id, relay_pk);
        let (reply, _) = ntor::server_respond(&mut rng, node_id, &relay, &skin)
            .expect("replayed onionskin is well formed");
        black_box(ntor::client_finish(&state, &reply).expect("replayed reply verifies"));
    }) / 1e3
}

/// One conclave attestation as a box grants an SGX container: a
/// `Platform::quote` of the enclave plus the attestation service's
/// `Ias::verify_quote`, milliseconds.
pub fn attest_ms() -> f64 {
    // The service signs each report with a one-time key; a fresh service
    // per repetition keeps every call on an unused key.
    let mut reps: Vec<f64> = (0..REPS)
        .map(|rep| {
            let mut ias = Ias::new([0xC0; 32], 5);
            let platform = ias.provision_platform(1000, &mut StdRng::seed_from_u64(rep as u64));
            let enclave = Enclave::create(0, ENCLAVE_IMAGE, 24 << 20, 5);
            let n = 16;
            let t = Instant::now();
            for i in 0..n {
                let quote = platform.quote(&enclave, [i as u8; 32]);
                black_box(
                    ias.verify_quote(&quote)
                        .expect("fresh platform quote verifies"),
                );
            }
            t.elapsed().as_secs_f64() * 1e3 / n as f64
        })
        .collect();
    reps.sort_by(|a, b| a.total_cmp(b));
    reps[REPS / 2]
}
