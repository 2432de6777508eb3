//! Properties of the VO stream, the one VO wire format (the decode
//! boundary's contract):
//!
//! 1. **Round-trip** — encoding any response and decoding it back is the
//!    identity, byte-for-byte (`encode ∘ decode ∘ encode = encode`).
//! 2. **Canonical form** — *any* byte string the decoder accepts re-encodes
//!    to exactly those bytes: there is one encoding per value, so corrupted
//!    inputs cannot alias a different encoding of the same response.
//! 3. **Single-bit corruption** — exhaustively over every bit of an honest
//!    encoding: the flipped string either fails to decode with a typed
//!    [`WireError`], or decodes to a VO that full verification rejects.
//!    Never a panic, never an accept.
//! 4. **Golden bytes** — the encoder's output on a fixed fixture is pinned
//!    by digest, so a format change cannot land unnoticed.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vchain_acc::Acc1;
use vchain_chain::{Difficulty, LightClient, Object};
use vchain_core::adversary::Adversary;
use vchain_core::client::{PipelineMode, StreamVerifier};
use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
use vchain_core::query::{CompiledQuery, Query, RangeSpec};
use vchain_core::verify::{verify_encoded_response, verify_response};
use vchain_core::vo::{BlockCoverage, QueryResponse};
use vchain_core::wire::{
    encode_response_stream, encode_scan_stream, StreamDecoder, StreamEvent, WireError,
};
use vchain_hash::hash_bytes;

const DOMAIN_BITS: u8 = 6;

/// Decode a whole stream into its window responses (results keyed by the
/// block entry that carried them, non-empty lists only — the shape the SP
/// produces).
fn decode_stream(acc: &Acc1, bytes: &[u8]) -> Result<Vec<QueryResponse<Acc1>>, WireError> {
    let mut dec = StreamDecoder::new();
    let mut windows = Vec::new();
    for ev in dec.feed(acc, bytes)? {
        match ev {
            StreamEvent::Header { windows: counts, .. } => {
                windows = counts
                    .iter()
                    .map(|_| QueryResponse { results: vec![], coverage: vec![] })
                    .collect();
            }
            StreamEvent::Entry { window, coverage, results, .. } => {
                let w: &mut QueryResponse<Acc1> =
                    windows.get_mut(window).expect("entry window declared by the header");
                if let BlockCoverage::Block { height, .. } = &coverage {
                    if !results.is_empty() {
                        w.results.push((*height, results));
                    }
                }
                w.coverage.push(coverage);
            }
        }
    }
    dec.finish()?;
    Ok(windows)
}

struct Fixture {
    q: CompiledQuery,
    light: LightClient,
    cfg: MinerConfig,
    acc: Acc1,
    resp: QueryResponse<Acc1>,
    encoded: Vec<u8>,
}

/// One small honest chain + response, built once: a 3-block window keeps
/// the encoding in the low kilobytes so the exhaustive bit sweep stays fast.
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let cfg = MinerConfig {
            scheme: IndexScheme::Intra,
            skip_levels: 3,
            domain_bits: DOMAIN_BITS,
            difficulty: Difficulty(2),
            bloom_bits_per_key: 10,
        };
        let acc = Acc1::keygen(600, &mut StdRng::seed_from_u64(31));
        let mut miner = Miner::new(cfg, acc.clone());
        let mut light = LightClient::new(cfg.difficulty);
        let mut rng = StdRng::seed_from_u64(32);
        let kinds = ["Sedan", "Van"];
        let mut id = 0u64;
        for b in 0..3u64 {
            let objs: Vec<Object> = (0..3)
                .map(|_| {
                    id += 1;
                    Object::new(
                        id,
                        (b + 1) * 10,
                        vec![rng.gen_range(0..64)],
                        vec![kinds[rng.gen_range(0..kinds.len())].to_string()],
                    )
                })
                .collect();
            miner.mine_block((b + 1) * 10, objs);
        }
        for h in miner.headers() {
            light.sync_header(h).expect("headers validate");
        }
        let q = Query {
            time_window: Some((10, 30)),
            ranges: vec![RangeSpec { dim: 0, lo: 5, hi: 40 }],
            keywords: vec![vec!["Sedan".into()]],
        }
        .compile(DOMAIN_BITS);
        let sp = miner.into_service_provider();
        let resp = sp.time_window_query(&q);
        verify_response(&q, &resp, &light, &sp.cfg, &sp.acc).expect("honest response verifies");
        let encoded = encode_response_stream(&resp);
        Fixture { q, light, cfg: sp.cfg, acc: sp.acc, resp, encoded }
    })
}

struct ScanFixture {
    queries: Vec<CompiledQuery>,
    light: LightClient,
    cfg: MinerConfig,
    acc: Acc1,
    responses: Vec<QueryResponse<Acc1>>,
    /// Sum of the windows' one-window streams.
    windows_total: usize,
    stream: Vec<u8>,
}

/// An 8-window overlapping scan over a 6-block chain — the dedup fixture.
/// Consecutive windows re-cover the same blocks, so the scan-wide intern
/// table has real work to do.
fn scan_fixture() -> &'static ScanFixture {
    static FIX: OnceLock<ScanFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let cfg = MinerConfig {
            scheme: IndexScheme::Intra,
            skip_levels: 3,
            domain_bits: DOMAIN_BITS,
            difficulty: Difficulty(2),
            bloom_bits_per_key: 10,
        };
        let acc = Acc1::keygen(600, &mut StdRng::seed_from_u64(41));
        let mut miner = Miner::new(cfg, acc.clone());
        let mut light = LightClient::new(cfg.difficulty);
        let mut rng = StdRng::seed_from_u64(42);
        let kinds = ["Sedan", "Van"];
        let mut id = 100u64;
        for b in 0..6u64 {
            let objs: Vec<Object> = (0..2)
                .map(|_| {
                    id += 1;
                    Object::new(
                        id,
                        (b + 1) * 10,
                        vec![rng.gen_range(0..64)],
                        vec![kinds[rng.gen_range(0..kinds.len())].to_string()],
                    )
                })
                .collect();
            miner.mine_block((b + 1) * 10, objs);
        }
        for h in miner.headers() {
            light.sync_header(h).expect("headers validate");
        }
        let queries: Vec<CompiledQuery> = (0..8u64)
            .map(|i| {
                Query {
                    time_window: Some((5 + 5 * i, 25 + 5 * i)),
                    ranges: vec![RangeSpec { dim: 0, lo: 5, hi: 40 }],
                    keywords: vec![vec!["Sedan".into()]],
                }
                .compile(DOMAIN_BITS)
            })
            .collect();
        let sp = miner.into_service_provider();
        let responses: Vec<QueryResponse<Acc1>> =
            queries.iter().map(|q| sp.time_window_query(q)).collect();
        for (q, resp) in queries.iter().zip(&responses) {
            verify_response(q, resp, &light, &sp.cfg, &sp.acc).expect("honest scan verifies");
        }
        let windows_total = responses.iter().map(|r| encode_response_stream(r).len()).sum();
        let stream = encode_scan_stream(&responses);
        ScanFixture { queries, light, cfg: sp.cfg, acc: sp.acc, responses, windows_total, stream }
    })
}

/// Stream the bytes through the verification pipeline for `queries`.
fn stream_verifies(queries: &[CompiledQuery], fix: &ScanFixture, bytes: &[u8]) -> bool {
    let mut sv = StreamVerifier::new(
        queries.to_vec(),
        fix.light.clone(),
        fix.cfg,
        fix.acc.clone(),
        PipelineMode::Inline,
    );
    sv.feed(bytes).is_ok() && sv.finish().is_ok()
}

/// The fixture response's coverage carrying randomized result shapes
/// (no crypto consistency needed for the codec): empty keyword lists, empty
/// numeric vectors, unicode keywords, empty and multi-object blocks.
fn random_results_response(seed: u64) -> QueryResponse<Acc1> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut resp = fixture().resp.clone();
    resp.results = resp
        .coverage
        .iter()
        .filter_map(|cov| match cov {
            BlockCoverage::Block { height, .. } => Some(*height),
            BlockCoverage::Skip { .. } => None,
        })
        .map(|h| {
            let objs = (0..rng.gen_range(0..4usize))
                .map(|_| {
                    let numeric = (0..rng.gen_range(0..3usize)).map(|_| rng.gen()).collect();
                    let keywords = (0..rng.gen_range(0..3usize))
                        .map(|_| match rng.gen_range(0..3u32) {
                            0 => String::new(),
                            1 => format!("kw-{}", rng.gen::<u32>()),
                            _ => "名前🚗".to_string(),
                        })
                        .collect();
                    Object::new(rng.gen(), rng.gen(), numeric, keywords)
                })
                .collect::<Vec<_>>();
            (h, objs)
        })
        .filter(|(_, objs)| !objs.is_empty())
        .collect();
    resp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn results_round_trip_byte_identically(seed in 0u64..u64::MAX) {
        let fix = fixture();
        let resp = random_results_response(seed);
        let bytes = encode_response_stream(&resp);
        let decoded = decode_stream(&fix.acc, &bytes);
        prop_assert!(decoded.is_ok(), "honest encoding must decode: {:?}", decoded.err());
        let decoded = decoded.expect("checked");
        prop_assert_eq!(&decoded[0].results, &resp.results);
        prop_assert_eq!(encode_scan_stream(&decoded), bytes);
    }

    #[test]
    fn accepted_corruptions_reencode_canonically(seed in 0u64..u64::MAX) {
        // Arbitrary multi-byte corruption: whenever the decoder accepts the
        // mutant, the mutant *is* the canonical encoding of what it decoded
        // to — corrupt bytes can never alias an honest value's encoding
        // under a different byte string.
        let fix = fixture();
        let mut adv = Adversary::new(seed);
        let (mutant, _label) = adv.mutate_bytes(&fix.encoded);
        if let Ok(decoded) = decode_stream(&fix.acc, &mutant) {
            prop_assert_eq!(encode_scan_stream(&decoded), mutant);
        }
    }
}

/// The full honest encoding round-trips byte-identically (crypto slots
/// included), and the decoded copy verifies both as a typed response and
/// as bytes.
#[test]
fn honest_response_round_trips_byte_identically() {
    let fix = fixture();
    let decoded = decode_stream(&fix.acc, &fix.encoded).expect("honest encoding decodes");
    assert_eq!(decoded.len(), 1);
    assert_eq!(encode_scan_stream(&decoded), fix.encoded);
    let typed = verify_response(&fix.q, &decoded[0], &fix.light, &fix.cfg, &fix.acc)
        .expect("decoded copy verifies");
    let streamed = verify_encoded_response(&fix.q, &fix.encoded, &fix.light, &fix.cfg, &fix.acc)
        .expect("honest bytes verify");
    assert_eq!(typed, streamed);
}

/// Exhaustive single-bit sweep over the whole honest encoding: every flip
/// is either a typed decode failure or a decoded-but-rejected VO, and any
/// accepted decode re-encodes to exactly the corrupted bytes.
#[test]
fn every_single_bit_corruption_fails_cleanly_or_is_rejected() {
    let fix = fixture();
    let mut decode_failures = 0usize;
    let mut verify_rejections = 0usize;
    for bit in 0..fix.encoded.len() * 8 {
        let mutant = Adversary::flip_bit(&fix.encoded, bit);
        match decode_stream(&fix.acc, &mutant) {
            Err(_) => decode_failures += 1,
            Ok(decoded) => {
                assert_eq!(
                    encode_scan_stream(&decoded),
                    mutant,
                    "bit {bit}: accepted decode must re-encode canonically"
                );
                // A window-count change is the stream verifier's rejection;
                // otherwise the decoded window itself must fail.
                let verifies = decoded.len() == 1
                    && verify_response(&fix.q, &decoded[0], &fix.light, &fix.cfg, &fix.acc).is_ok();
                assert!(!verifies, "bit {bit}: corrupted VO must not verify");
                verify_rejections += 1;
            }
        }
    }
    assert_eq!(decode_failures + verify_rejections, fix.encoded.len() * 8);
    // Both rejection layers must actually participate in the sweep.
    assert!(decode_failures > 0, "no structural rejections in the sweep");
    assert!(verify_rejections > 0, "no cryptographic rejections in the sweep");
}

/// The scan stream round-trips byte-identically, every decoded window still
/// verifies, and the scan-wide intern table beats the windows' one-window
/// streams by more than 20% on the 8-window overlapping fixture.
#[test]
fn scan_stream_round_trips_and_dedupes_over_20_percent() {
    let fix = scan_fixture();
    let decoded = decode_stream(&fix.acc, &fix.stream).expect("honest scan decodes");
    assert_eq!(decoded.len(), fix.responses.len());
    assert_eq!(encode_scan_stream(&decoded), fix.stream);
    for (q, resp) in fix.queries.iter().zip(&decoded) {
        verify_response(q, resp, &fix.light, &fix.cfg, &fix.acc)
            .expect("decoded scan window verifies");
    }
    assert!(stream_verifies(&fix.queries, fix, &fix.stream), "honest scan stream verifies");
    // ratio < 0.8  ⟺  5 * scan < 4 * windows (integer-exact).
    assert!(
        5 * fix.stream.len() < 4 * fix.windows_total,
        "scan stream must be <0.8x its windows' one-window streams: scan={} windows={}",
        fix.stream.len(),
        fix.windows_total
    );
}

/// Golden pin: the stream encoder's exact output on the Acc1 scan fixture
/// (Acc1 element hashing does not depend on the process's interning
/// history, so the bytes are fixed). Any change to these bytes is a
/// wire-format change and must be made on purpose.
#[test]
fn stream_bytes_match_the_golden_digests() {
    let fix = scan_fixture();
    let one = encode_response_stream(&fix.responses[0]);
    assert_eq!(fix.stream.len(), 3669);
    assert_eq!(
        hash_bytes(&fix.stream).to_hex(),
        "49d290bb57c9dac8772be660c3f814d6fb51428414974c1adc5f627338a8c9aa"
    );
    assert_eq!(one.len(), 639);
    assert_eq!(
        hash_bytes(&one).to_hex(),
        "3b0f0bc9fb491d1c6f3863e493bca03b01e97a813162e862821745908bfdb2d7"
    );
    assert_eq!(fix.windows_total, 7900);
}

/// Exhaustive single-bit sweep over a full scan stream (a 2-window sub-scan
/// keeps the sweep affordable while still exercising the intern table and
/// back-references): every flip is a typed decode failure or a
/// decoded-but-rejected scan, and accepted decodes re-encode canonically.
#[test]
fn every_single_bit_corruption_of_a_scan_stream_fails_cleanly_or_is_rejected() {
    let fix = scan_fixture();
    let queries = &fix.queries[..2];
    let encoded = encode_scan_stream(&fix.responses[..2]);
    let mut decode_failures = 0usize;
    let mut verify_rejections = 0usize;
    for bit in 0..encoded.len() * 8 {
        let mutant = Adversary::flip_bit(&encoded, bit);
        match decode_stream(&fix.acc, &mutant) {
            Err(_) => decode_failures += 1,
            Ok(decoded) => {
                assert_eq!(
                    encode_scan_stream(&decoded),
                    mutant,
                    "bit {bit}: accepted decode must re-encode canonically"
                );
                assert!(
                    !stream_verifies(queries, fix, &mutant),
                    "bit {bit}: corrupted scan must not fully verify"
                );
                verify_rejections += 1;
            }
        }
    }
    assert_eq!(decode_failures + verify_rejections, encoded.len() * 8);
    assert!(decode_failures > 0, "no structural rejections in the scan sweep");
    assert!(verify_rejections > 0, "no cryptographic rejections in the scan sweep");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decode totality: the stream decoder returns `Ok` or a typed
    /// `WireError` on arbitrary bytes — never a panic — whether the bytes
    /// arrive whole or behind an honest header frame. (proptest reports a
    /// panic as a failure, so simply driving the decoder is the assert.)
    #[test]
    fn stream_decoder_is_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let fix = fixture();
        let mut dec = StreamDecoder::<Acc1>::new();
        let _ = dec.feed(&fix.acc, &bytes);
        let _ = dec.finish();

        let header_len = 4 + u32::from_le_bytes(
            fix.encoded[..4].try_into().expect("length prefix"),
        ) as usize;
        let mut dec = StreamDecoder::<Acc1>::new();
        let _ = dec.feed(&fix.acc, &fix.encoded[..header_len]);
        let _ = dec.feed(&fix.acc, &bytes);
        let _ = dec.finish();
    }

    /// Adversarial multi-byte corruption of the scan stream: whenever the
    /// decoder accepts the mutant, the mutant is the canonical encoding of
    /// what it decoded to.
    #[test]
    fn accepted_scan_corruptions_reencode_canonically(seed in 0u64..u64::MAX) {
        let fix = scan_fixture();
        let mut adv = Adversary::new(seed);
        let (mutant, _label) = adv.mutate_bytes(&fix.stream);
        if let Ok(decoded) = decode_stream(&fix.acc, &mutant) {
            prop_assert_eq!(encode_scan_stream(&decoded), mutant);
        }
    }
}
