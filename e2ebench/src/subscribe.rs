//! `subscribe`: about 10⁴ standing queries in realtime mode, fed one newly
//! mined block at a time. The only workload that writes blocks and uses
//! the subscription index; its cross-block proof cache overflows, which
//! the `dashboard` working set never does.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vchain_acc::Acc2;
use vchain_chain::{LightClient, Object};
use vchain_core::adversary::Adversary;
use vchain_core::iptree::QueryId;
use vchain_core::miner::{Miner, MinerConfig};
use vchain_core::query::CompiledQuery;
use vchain_core::subscribe::{
    verify_encoded_subscription_update, SubscriptionEngine, SubscriptionMode,
};
use vchain_core::wire::encode_update;
use vchain_datagen::{Dataset, SkewProfile, SubscriptionSpec, WorkloadSpec};

use crate::common::*;
use crate::trace::Tracer;

const SUBSCRIPTIONS: usize = 10_000;
/// Subscribers whose updates the benchmark decodes, verifies and checks.
const SAMPLED: usize = 8;
/// Blocks generated ahead; a run stops early rather than run out.
const MAX_BLOCKS: usize = 400;

struct Node {
    miner: Miner<Acc2>,
    light: LightClient,
    engine: SubscriptionEngine<Acc2>,
    cfg: MinerConfig,
    acc: Acc2,
    samples: Vec<(QueryId, CompiledQuery)>,
}

/// Work one block did.
#[derive(Default)]
struct BlockWork {
    mine: Duration,
    sync: Duration,
    matching: Duration,
    publish: Duration,
    encode: Duration,
    verify: Duration,
    ads_bytes: u64,
    candidates: u64,
    shared_proofs: u64,
    updates: u64,
    update_bytes: u64,
    miller_loops: u64,
    final_exps: u64,
    /// Latency of each sampled update that verified and matched the truth.
    latencies: Vec<f64>,
    failed: u64,
    /// The first sampled subscriber's encoded update (for the self-check;
    /// empty if it failed).
    first_sample: Vec<u8>,
}

impl Node {
    /// Mine one block and run it through the subscription pipeline, then
    /// let each sampled subscriber verify its update.
    fn block(
        &mut self,
        tr: &mut Tracer,
        generated: &(u64, Vec<Object>),
    ) -> Result<BlockWork, String> {
        let (ts, objects) = (generated.0, generated.1.clone());
        let (h, mine) = tr.leaf("miner.mine", || self.miner.mine_block(ts, objects));
        let block = self.miner.store().block(h).expect("just mined");
        let indexed = &self.miner.indexed()[h as usize];
        let header = block.header.clone();
        let (synced, sync) = tr.leaf("chain.sync", || self.light.sync_header(header));
        synced.map_err(|e| format!("header rejected: {e:?}"))?;
        let (m, matching) = tr.leaf("sub.match", || self.engine.match_block(block, indexed));
        let (candidates, shared_proofs) = (m.candidates as u64, m.shared_proofs() as u64);
        let (updates, publish) = tr.leaf("sub.publish", || self.engine.publish(m, indexed));
        let (encoded, encode) =
            tr.leaf("wire.update_encode", || updates.iter().map(encode_update).collect::<Vec<_>>());
        let pipeline = mine + sync + matching + publish + encode;
        let mut work = BlockWork {
            mine,
            sync,
            matching,
            publish,
            encode,
            ads_bytes: indexed.ads_size_bytes(&self.acc) as u64,
            candidates,
            shared_proofs,
            updates: updates.len() as u64,
            update_bytes: encoded.iter().map(|e| e.len() as u64).sum(),
            ..Default::default()
        };
        for (qid, q) in &self.samples {
            let Ok(i) = updates.binary_search_by_key(qid, |u| u.query_id) else {
                work.failed += 1;
                continue;
            };
            let (m0, f0) = pairings();
            let (res, verify) = tr.leaf("client.update_verify", || {
                verify_encoded_subscription_update(
                    q,
                    &encoded[i],
                    &self.light,
                    &self.cfg,
                    &self.acc,
                )
            });
            let (m1, f1) = pairings();
            work.verify += verify;
            work.miller_loops += m1 - m0;
            work.final_exps += f1 - f0;
            let (ok, _) = tr.leaf("oracle", || {
                res.as_ref().is_ok_and(|got| ids(got) == truth(q, std::slice::from_ref(generated)))
            });
            if ok {
                work.latencies.push(ms(pipeline + verify));
            } else {
                eprintln!("[subscribe] update for {qid} at height {h} failed: {:?}", res.err());
                work.failed += 1;
            }
            if *qid == self.samples[0].0 {
                work.first_sample = encoded[i].clone();
            }
        }
        // Freeing ten thousand updates is part of the engine's cost.
        tr.leaf("sub.release", || drop((updates, encoded)));
        Ok(work)
    }
}

pub fn run(args: &Args, tr: &mut Tracer, started: Instant) -> Report {
    let spec = WorkloadSpec {
        seed: args.seed,
        ..WorkloadSpec::paper_defaults(Dataset::FourSquare, MAX_BLOCKS)
    };
    let stream = spec.generate();
    let warm =
        WorkloadSpec { seed: args.seed ^ WARM_SEED, num_blocks: 1, ..spec.clone() }.generate();
    let subs = SubscriptionSpec::paper_defaults(Dataset::FourSquare, SkewProfile::Zipf)
        .generate(SUBSCRIPTIONS);

    let acc = honest_key();
    let cfg = miner_config(spec.domain_bits);
    let mut engine = SubscriptionEngine::new(cfg, acc.clone(), SubscriptionMode::Realtime, false);
    let t = Instant::now();
    let registered: Vec<QueryId> = subs.iter().map(|q| engine.register(q)).collect();
    let register = t.elapsed();
    let mut rng = StdRng::seed_from_u64(args.seed ^ PICK_SEED);
    let mut picked: Vec<QueryId> = Vec::new();
    while picked.len() < SAMPLED {
        let id = registered[rng.gen_range(0..registered.len())];
        if !picked.contains(&id) {
            picked.push(id);
        }
    }
    let samples = picked
        .into_iter()
        .map(|id| (id, engine.compiled(id).expect("registered").clone()))
        .collect();
    let mut node = Node {
        miner: Miner::new(cfg, acc.clone()),
        light: LightClient::new(cfg.difficulty),
        engine,
        cfg,
        acc,
        samples,
    };
    // A block from a disjoint stream, mined before the timed ones, builds
    // the lazy tables.
    let warm_block = (0, warm.blocks[0].1.clone());
    let warm_work = node.block(&mut Tracer::new(false), &warm_block).expect("warm-up block");
    assert_eq!(warm_work.failed, 0, "warm-up updates verify");

    let mut report = Report { setup_s: started.elapsed().as_secs_f64(), ..Default::default() };
    report.params = vec![
        ("subscriptions", SUBSCRIPTIONS.to_string()),
        ("sampled_subscribers", SAMPLED.to_string()),
        ("mode", "realtime, no IP-tree".into()),
    ];
    if args.setup_only {
        return report;
    }

    let cache0 = node.engine.proof_cache().stats();
    let mut done: Vec<BlockWork> = Vec::new();
    // The last verified update of the first sampled subscriber, with its block.
    let mut last_sample = None;
    let loop_start = Instant::now();
    for (b, generated) in stream.blocks.iter().enumerate() {
        if !args.more(loop_start, b, report.attempted as usize) {
            break;
        }
        let t0 = tr.begin("block");
        let out = guarded(|| node.block(tr, generated));
        tr.end(t0);
        report.attempted += SAMPLED as u64;
        match out {
            Some(Ok(mut w)) => {
                report.failed += w.failed;
                last_sample = Some((generated, std::mem::take(&mut w.first_sample)));
                done.push(w);
            }
            Some(Err(e)) => {
                eprintln!("[subscribe] block {b} failed: {e}");
                report.failed += SAMPLED as u64;
            }
            None => report.failed += SAMPLED as u64,
        }
    }

    // The oracle must count a corrupted update as a failure.
    if let Some((generated, sample)) = last_sample {
        let q = &node.samples[0].1;
        let bytes = Adversary::new(args.seed ^ ADVERSARY_SEED).mutate_bytes(&sample).0;
        let accepted = guarded(|| {
            verify_encoded_subscription_update(q, &bytes, &node.light, &node.cfg, &node.acc)
                .is_ok_and(|got| ids(&got) == truth(q, std::slice::from_ref(generated)))
        });
        report.checks.push(("tampered_update_fails", accepted != Some(true)));
    }

    let cache = node.engine.proof_cache().stats();
    let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
    let evictions = cache.evictions - cache0.evictions;
    let n = done.len();
    let latencies: Vec<f64> = done.iter().flat_map(|w| w.latencies.iter().copied()).collect();
    let sampled = latencies.len();
    let sum = |f: &dyn Fn(&BlockWork) -> u64| done.iter().map(f).sum::<u64>();
    let secs = |f: &dyn Fn(&BlockWork) -> Duration| done.iter().map(f).sum::<Duration>();
    let pipeline = secs(&|w| w.mine + w.sync + w.matching + w.publish + w.encode);
    let update_bytes = sum(&|w| w.update_bytes);

    report.e2e = vec![
        Metric { name: "update_p50_ms", value: percentile(&latencies, 50.0), unit: "ms" },
        Metric { name: "update_p90_ms", value: percentile(&latencies, 90.0), unit: "ms" },
        Metric { name: "blocks_per_s", value: n as f64 / pipeline.as_secs_f64(), unit: "1/s" },
        Metric {
            name: "update_kb_per_block",
            value: per(update_bytes as f64, n) / 1024.0,
            unit: "KiB",
        },
    ];
    let counts = [
        ("blocks", n as u64),
        ("sampled_updates", sampled as u64),
        ("updates", sum(&|w| w.updates)),
        ("update_bytes", update_bytes),
        ("ads_bytes", sum(&|w| w.ads_bytes)),
        ("candidates", sum(&|w| w.candidates)),
        ("shared_proofs", sum(&|w| w.shared_proofs)),
        ("cache_hits", hits),
        ("cache_misses", misses),
        ("cache_evictions", evictions),
        ("miller_loops", sum(&|w| w.miller_loops)),
        ("final_exps", sum(&|w| w.final_exps)),
    ];
    report.counts = counts.into_iter().collect();
    let c = &report.counts;
    let per_block = |k: &str| per(c[k] as f64, n);
    let per_update = |k: &str| per(c[k] as f64, sampled);
    report.layers = [
        ("miner.mine_ms", per(ms(secs(&|w| w.mine)), n)),
        ("miner.ads_bytes", per_block("ads_bytes")),
        ("chain.sync_header_us", per(ms(secs(&|w| w.sync)) * 1e3, n)),
        ("cache.hits", per_block("cache_hits")),
        ("cache.misses", per_block("cache_misses")),
        ("cache.hit_ratio", per(hits as f64, (hits + misses) as usize)),
        ("cache.evictions", per_block("cache_evictions")),
        ("wire.update_encode_ms", per(ms(secs(&|w| w.encode)), n)),
        ("wire.update_bytes", per_block("update_bytes")),
        ("client.update_verify_ms", per(ms(secs(&|w| w.verify)), sampled)),
        ("pairing.miller_loops", per_update("miller_loops")),
        ("pairing.final_exps", per_update("final_exps")),
        ("sub.register_ms", ms(register)),
        ("sub.match_ms", per(ms(secs(&|w| w.matching)), n)),
        ("sub.publish_ms", per(ms(secs(&|w| w.publish)), n)),
        ("sub.candidates", per_block("candidates")),
        ("sub.shared_proofs", per_block("shared_proofs")),
        ("sub.updates", per_block("updates")),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    report
}
