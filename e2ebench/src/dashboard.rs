//! `dashboard`: a small pool of popular multi-window scans. After a
//! dashboard's first request every proof is a cache hit, so the v2 intern
//! table and cross-window pairing batching do the work and the store sees
//! reads, not writes — the opposite of `explorer`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vchain_core::query::Query;
use vchain_datagen::{Dataset, QueryGen, WorkloadSpec};

use crate::answers::{self, Plan};
use crate::common::*;
use crate::trace::Tracer;

const BLOCKS: usize = 48;
const DASHBOARDS: usize = 16;
const WINDOWS: usize = 8;
const WINDOW_BLOCKS: usize = 16;
const POPULARITY_SKEW: f64 = 1.0;
/// Requests come in rounds of this many, split among the popularity ranks
/// in exactly the Zipf shares (largest remainder), in shuffled order. A
/// timed run stops only between rounds.
const ROUND: usize = 16;
/// Each round the ranking moves by this stride (coprime to `DASHBOARDS`),
/// so the hottest slot passes between dashboards. With a fixed ranking,
/// one dashboard takes a third of every run and its content alone sets
/// the run's figures.
const ROTATION: usize = 5;
/// The saved dashboards are stored state, like a served chain: fixed. The
/// run's seed decides their popularity.
const POOL_SEED: u64 = 0x6461_7368;

/// One dashboard: one query content over `WINDOWS` windows of
/// `WINDOW_BLOCKS` blocks, each sliding the last by one block.
fn dashboard(gen: &mut QueryGen, rng: &mut StdRng, ts: &[u64]) -> Vec<Query> {
    let content = gen.time_window((0, 0));
    let start = rng.gen_range(0..=ts.len() - (WINDOW_BLOCKS + WINDOWS - 1));
    (start..start + WINDOWS)
        .map(|s| Query { time_window: Some((ts[s], ts[s + WINDOW_BLOCKS - 1])), ..content.clone() })
        .collect()
}

/// Requests per popularity rank in one round: `ROUND` split by Zipf
/// weight, largest remainder first.
fn zipf_counts() -> Vec<usize> {
    let weights: Vec<f64> = (1..=DASHBOARDS).map(|k| (k as f64).powf(-POPULARITY_SKEW)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * ROUND as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..DASHBOARDS).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let missing = ROUND - counts.iter().sum::<usize>();
    for &rank in &by_remainder[..missing] {
        counts[rank] += 1;
    }
    counts
}

pub fn run(args: &Args, tr: &mut Tracer, started: Instant) -> Report {
    let spec = WorkloadSpec::paper_defaults(Dataset::FourSquare, BLOCKS);
    let workload = spec.generate();
    let ts: Vec<u64> = workload.blocks.iter().map(|(t, _)| *t).collect();
    let mut fixed = StdRng::seed_from_u64(POOL_SEED);
    let mut gen = spec.query_gen(POOL_SEED);
    let pool: Vec<Vec<Query>> =
        (0..DASHBOARDS).map(|_| dashboard(&mut gen, &mut fixed, &ts)).collect();
    let mut rng = StdRng::seed_from_u64(args.seed ^ PICK_SEED);
    let warm = dashboard(&mut spec.query_gen(args.seed ^ WARM_SEED), &mut rng, &ts);
    let counts = zipf_counts();
    let mut ranking: Vec<usize> = (0..DASHBOARDS).collect();
    shuffle(&mut ranking, &mut rng);
    let plan = Plan {
        name: "dashboard",
        scan: true,
        warm,
        params: vec![
            ("dashboards", DASHBOARDS.to_string()),
            ("windows", format!("{WINDOWS} x {WINDOW_BLOCKS} blocks, sliding by 1")),
            (
                "popularity",
                format!(
                    "zipf({POPULARITY_SKEW}) shares per round of {ROUND}, rotating by {ROTATION}"
                ),
            ),
        ],
    };
    let mut round = 0;
    answers::run(args, tr, started, &workload, plan, || {
        let mut picks: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(rank, &n)| {
                std::iter::repeat_n(ranking[(rank + ROTATION * round) % DASHBOARDS], n)
            })
            .collect();
        shuffle(&mut picks, &mut rng);
        round += 1;
        picks.into_iter().map(|d| pool[d].clone()).collect()
    })
}
