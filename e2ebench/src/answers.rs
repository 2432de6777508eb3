//! The query workloads' shared path: one request is one or more windows,
//! served by the persistent sharded SP, framed as one stream, verified by
//! an inline streaming client and checked against ground truth.

use std::path::Path;
use std::time::{Duration, Instant};

use vchain_acc::Acc2;
use vchain_chain::{LightClient, Object};
use vchain_core::adversary::Adversary;
use vchain_core::client::{PipelineMode, StreamStats, StreamVerifier};
use vchain_core::miner::MinerConfig;
use vchain_core::query::{CompiledQuery, Query};
use vchain_core::sp::{ShardedConfig, ShardedServiceProvider};
use vchain_core::vo::{BlockCoverage, QueryResponse};
use vchain_core::wire::encode_scan_stream;
use vchain_datagen::Workload;

use crate::common::*;
use crate::trace::Tracer;

/// Transport chunk the client is fed with.
const CHUNK: usize = 16 * 1024;

/// What one workload asks of the shared path.
pub struct Plan {
    pub name: &'static str,
    /// Serve with `query_batch` (a scan) rather than `query` (one window).
    pub scan: bool,
    /// The one request on a disjoint seed that set-up runs to build the
    /// lazy tables, so that the first timed request does not pay for them.
    pub warm: Vec<Query>,
    pub params: Vec<(&'static str, String)>,
}

struct Server<'a> {
    sp: ShardedServiceProvider<Acc2>,
    light: LightClient,
    cfg: MinerConfig,
    acc: Acc2,
    blocks: &'a [(u64, Vec<Object>)],
    scan: bool,
}

/// Work one verified answer did.
struct Answer {
    sp: Duration,
    encode: Duration,
    feed: Duration,
    finish: Duration,
    stream: StreamStats,
    walked: u64,
    skips: u64,
    skipped: u64,
    miller_loops: u64,
    final_exps: u64,
}

impl Server<'_> {
    /// Serve, encode, verify and check one request. `tamper` corrupts the
    /// stream in transit (the oracle's self-check).
    fn answer(
        &self,
        tr: &mut Tracer,
        qs: &[CompiledQuery],
        tamper: Option<&mut Adversary>,
    ) -> Result<Answer, String> {
        let (m0, f0) = pairings();
        let (resps, sp) = tr.leaf("sp.query", || {
            if self.scan {
                self.sp.query_batch(qs)
            } else {
                vec![self.sp.query(&qs[0])]
            }
        });
        let (walked, skips, skipped) = coverage(&resps);
        // For one window this is exactly `encode_response_stream`.
        let (mut bytes, encode) = tr.leaf("wire.encode", || encode_scan_stream(&resps));
        drop(resps);
        if let Some(adv) = tamper {
            bytes = adv.mutate_bytes(&bytes).0;
        }
        let (fed, feed) = tr.leaf("client.feed", || {
            let mut v = StreamVerifier::new(
                qs.to_vec(),
                self.light.clone(),
                self.cfg,
                self.acc.clone(),
                PipelineMode::Inline,
            );
            bytes.chunks(CHUNK).try_for_each(|c| v.feed(c)).map(|()| v)
        });
        let v = fed.map_err(|e| format!("feed rejected: {e:?}"))?;
        let (done, finish) = tr.leaf("client.finish", || v.finish());
        let (windows, stream) = done.map_err(|e| format!("finish rejected: {e:?}"))?;
        let (ok, _) = tr.leaf("oracle", || {
            windows.len() == qs.len()
                && windows.iter().zip(qs).all(|(w, q)| ids(w) == truth(q, self.blocks))
        });
        if !ok {
            return Err("verified results differ from ground truth".into());
        }
        let (m1, f1) = pairings();
        Ok(Answer {
            sp,
            encode,
            feed,
            finish,
            stream,
            walked,
            skips,
            skipped,
            miller_loops: m1 - m0,
            final_exps: f1 - f0,
        })
    }
}

/// Blocks walked one by one, skips taken and blocks those skips covered.
fn coverage(resps: &[QueryResponse<Acc2>]) -> (u64, u64, u64) {
    let (mut walked, mut skips, mut skipped) = (0, 0, 0);
    for c in resps.iter().flat_map(|r| &r.coverage) {
        match c {
            BlockCoverage::Block { .. } => walked += 1,
            BlockCoverage::Skip { distance, .. } => {
                skips += 1;
                skipped += distance;
            }
        }
    }
    (walked, skips, skipped)
}

/// Total bytes of the store's logs.
fn log_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("store directory is readable")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn compile(qs: &[Query], domain_bits: u8) -> Vec<CompiledQuery> {
    qs.iter().map(|q| q.compile(domain_bits)).collect()
}

/// Run a query workload: set up, then take `rounds()` of requests until the
/// run is over. A timed run only stops between rounds.
pub fn run(
    args: &Args,
    tr: &mut Tracer,
    started: Instant,
    workload: &Workload,
    plan: Plan,
    mut rounds: impl FnMut() -> Vec<Vec<Query>>,
) -> Report {
    let bits = workload.spec.domain_bits;
    let acc = honest_key();
    let cfg = miner_config(bits);
    let (miner, light) = mine_chain(&acc, cfg, &workload.blocks);
    let dir = args.work_dir.join("store");
    let _ = std::fs::remove_dir_all(&dir);
    let (sp, recovery) =
        ShardedServiceProvider::open(miner.into_service_provider(), ShardedConfig::default(), &dir)
            .expect("store opens");
    assert_eq!(recovery.proofs_loaded, 0, "the store starts empty");
    let server = Server { sp, light, cfg, acc, blocks: &workload.blocks, scan: plan.scan };
    let warm = compile(&plan.warm, bits);
    server.answer(&mut Tracer::new(false), &warm, None).expect("warm-up request verifies");
    server.sp.flush().expect("store flushes");
    let mut report = Report { setup_s: started.elapsed().as_secs_f64(), ..Default::default() };
    report.params = plan.params;
    report.params.push(("chain_blocks", workload.blocks.len().to_string()));
    if args.setup_only {
        return report;
    }

    let cache0 = server.sp.merged_stats();
    let log0 = log_bytes(&dir);
    let mut walls = Vec::new();
    let mut done: Vec<Answer> = Vec::new();
    let loop_start = Instant::now();
    'run: while args.more(loop_start, report.attempted as usize, report.attempted as usize) {
        for req in rounds() {
            if args.ops.is_some()
                && !args.more(loop_start, report.attempted as usize, report.attempted as usize)
            {
                break 'run;
            }
            let qs = compile(&req, bits);
            let t0 = tr.begin(plan.name);
            let out = guarded(|| server.answer(tr, &qs, None));
            let wall = tr.end(t0);
            report.attempted += 1;
            match out {
                Some(Ok(a)) => {
                    walls.push(ms(wall));
                    done.push(a);
                }
                Some(Err(e)) => {
                    eprintln!("[{}] request {} failed: {e}", plan.name, report.attempted);
                    report.failed += 1;
                }
                None => report.failed += 1,
            }
        }
    }

    let cache = server.sp.merged_stats();
    let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
    let evictions = cache.evictions - cache0.evictions;

    // The oracle must count a corrupted stream as a failure.
    let mut adv = Adversary::new(args.seed ^ ADVERSARY_SEED);
    let tampered = guarded(|| server.answer(&mut Tracer::new(false), &warm, Some(&mut adv)));
    report.checks.push(("tampered_stream_fails", !matches!(tampered, Some(Ok(_)))));
    let t = Instant::now();
    server.sp.shutdown().expect("store shuts down");
    let flush = t.elapsed();
    let log = log_bytes(&dir) - log0;

    let n = done.len();
    let sum = |f: &dyn Fn(&Answer) -> u64| done.iter().map(f).sum::<u64>();
    let secs = |f: &dyn Fn(&Answer) -> Duration| done.iter().map(f).sum::<Duration>();
    let sp_time = secs(&|a| a.sp);
    let encode_time = secs(&|a| a.encode);
    let vo_bytes = sum(&|a| a.stream.vo_bytes as u64);
    let peak_buffer = done.iter().map(|a| a.stream.peak_buffer_bytes as u64).max().unwrap_or(0);

    report.e2e = vec![
        Metric { name: "answer_p50_ms", value: percentile(&walls, 50.0), unit: "ms" },
        Metric { name: "answer_p90_ms", value: percentile(&walls, 90.0), unit: "ms" },
        Metric {
            name: "sp_answers_per_s",
            value: n as f64 / (sp_time + encode_time).as_secs_f64(),
            unit: "1/s",
        },
        Metric { name: "vo_kb_per_answer", value: per(vo_bytes as f64, n) / 1024.0, unit: "KiB" },
    ];
    let counts = [
        ("answers", n as u64),
        ("vo_bytes", vo_bytes),
        ("cache_hits", hits),
        ("cache_misses", misses),
        ("cache_evictions", evictions),
        ("miller_loops", sum(&|a| a.miller_loops)),
        ("final_exps", sum(&|a| a.final_exps)),
        ("blocks_walked", sum(&|a| a.walked)),
        ("skips_taken", sum(&|a| a.skips)),
        ("blocks_skipped", sum(&|a| a.skipped)),
        ("log_bytes", log),
        ("intern_entries", sum(&|a| a.stream.table_entries as u64)),
        ("client_entries", sum(&|a| u64::from(a.stream.entries))),
        ("peak_buffer_bytes", peak_buffer),
    ];
    report.counts = counts.into_iter().collect();
    let c = &report.counts;
    let per_answer = |k: &str| per(c[k] as f64, n);
    report.layers = [
        ("sp.answer_ms", per(ms(sp_time), n)),
        ("sp.blocks_walked", per_answer("blocks_walked")),
        ("sp.skips_taken", per_answer("skips_taken")),
        ("sp.blocks_skipped", per_answer("blocks_skipped")),
        ("cache.hits", per_answer("cache_hits")),
        ("cache.misses", per_answer("cache_misses")),
        ("cache.hit_ratio", per(hits as f64, (hits + misses) as usize)),
        ("cache.evictions", per_answer("cache_evictions")),
        ("store.log_bytes", per_answer("log_bytes")),
        ("store.flush_ms", ms(flush)),
        ("wire.encode_ms", per(ms(encode_time), n)),
        ("wire.vo_bytes", per_answer("vo_bytes")),
        ("wire.intern_entries", per_answer("intern_entries")),
        ("client.feed_ms", per(ms(secs(&|a| a.feed)), n)),
        ("client.finish_ms", per(ms(secs(&|a| a.finish)), n)),
        ("client.peak_buffer_bytes", peak_buffer as f64),
        ("client.entries", per_answer("client_entries")),
        ("pairing.miller_loops", per_answer("miller_loops")),
        ("pairing.final_exps", per_answer("final_exps")),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    report
}
