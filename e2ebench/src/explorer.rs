//! `explorer`: fresh single-window queries of varied length over a
//! 128-block chain. Nothing repeats, so proving, checked decode and pairing
//! do the work and every new proof is a store write.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vchain_datagen::{Dataset, WorkloadSpec};

use crate::answers::{self, Plan};
use crate::common::*;
use crate::trace::Tracer;

const BLOCKS: usize = 128;
const MIN_WINDOW: f64 = 2.0;
const MAX_WINDOW: f64 = 64.0;
/// Window lengths come in rounds of this many: one per stratum of the
/// log-uniform distribution, in shuffled order. A timed run stops only
/// between rounds, so every run sees the same mix of lengths and the
/// spread between runs comes from the queries, not from the mix.
const ROUND: usize = 32;
const QUERY_SEED: u64 = 0x0071_7565_7279;

pub fn run(args: &Args, tr: &mut Tracer, started: Instant) -> Report {
    let spec = WorkloadSpec::paper_defaults(Dataset::FourSquare, BLOCKS);
    let workload = spec.generate();
    let ts: Vec<u64> = workload.blocks.iter().map(|(t, _)| *t).collect();
    let lengths: Vec<usize> = (0..ROUND)
        .map(|i| {
            let u = (i as f64 + 0.5) / ROUND as f64;
            (MIN_WINDOW * (MAX_WINDOW / MIN_WINDOW).powf(u)).round() as usize
        })
        .collect();
    let mut queries = spec.query_gen(args.seed ^ QUERY_SEED);
    let mut rng = StdRng::seed_from_u64(args.seed ^ PICK_SEED);
    let plan = Plan {
        name: "explorer",
        scan: false,
        warm: vec![spec.query_gen(args.seed ^ WARM_SEED).time_window(workload.window_of_last(16))],
        params: vec![
            ("window_blocks", format!("log-uniform {MIN_WINDOW}..{MAX_WINDOW}, rounds of {ROUND}")),
            ("selectivity", spec.selectivity.to_string()),
            ("bool_size", spec.bool_size.to_string()),
        ],
    };
    answers::run(args, tr, started, &workload, plan, || {
        let mut round = lengths.clone();
        shuffle(&mut round, &mut rng);
        round
            .into_iter()
            .map(|len| {
                let start = rng.gen_range(0..=BLOCKS - len);
                vec![queries.time_window((ts[start], ts[start + len - 1]))]
            })
            .collect()
    })
}
