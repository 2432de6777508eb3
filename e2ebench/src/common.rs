//! Set-up, ground truth and reporting shared by the three workloads.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vchain_acc::{Acc2, Accumulator, MultiSet};
use vchain_chain::{LightClient, Object};
use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
use vchain_core::query::CompiledQuery;

/// Universe bound of the Construction-2 key: room for every keyword and
/// range prefix the FourSquare workloads intern.
const UNIVERSE: u64 = 8192;
/// Fewest timed operations a run collects, whatever `--seconds` says, so
/// that p90 has at least ten samples beyond it.
const MIN_SAMPLES: usize = 100;

// `--seed` drives what is sent during a run: queries, which dashboards are
// popular, new blocks, sampled subscribers. The state a run starts from
// (key, served chain, saved dashboards, registered subscriptions) comes
// from fixed seeds, as a fixed dataset would: seed-to-seed spread then
// measures the operations, not which database happened to be drawn. Each
// use of `--seed` is offset so that it gets its own stream.
const KEY_SEED: u64 = 0x6b65_7967_656e;
pub const PICK_SEED: u64 = 0x7069_636b;
pub const WARM_SEED: u64 = 0x7761_726d;
pub const ADVERSARY_SEED: u64 = 0x0061_6476;

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Run exactly this many operations instead of a timed run (the
    /// exact-count checks use it: a timed run's length depends on speed).
    pub ops: Option<usize>,
    pub trace: bool,
    pub setup_only: bool,
    pub work_dir: PathBuf,
    pub spans_out: Option<PathBuf>,
}

impl Args {
    /// Keep going, after `ops` operations that gave `samples` latencies?
    pub fn more(&self, started: Instant, ops: usize, samples: usize) -> bool {
        match self.ops {
            Some(n) => ops < n,
            None => samples < MIN_SAMPLES || started.elapsed().as_secs_f64() < self.seconds,
        }
    }
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics under the workload's own names.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics, named and normalised as `README.md` lists them.
    /// A layer the workload does not use is left out.
    pub layers: BTreeMap<String, f64>,
    /// Exact totals over the run: a rerun with the same seed and `--ops`
    /// must repeat every one of them.
    pub counts: BTreeMap<&'static str, u64>,
    /// Self-checks that must hold for the run to count as correct.
    pub checks: Vec<(&'static str, bool)>,
    /// Workload parameters, for the result's fingerprint.
    pub params: Vec<(&'static str, String)>,
}

/// The Construction-2 key, with the trapdoor shortcut off: a real miner
/// knows only the public key.
pub fn honest_key() -> Acc2 {
    let acc = Acc2::keygen(UNIVERSE, &mut StdRng::seed_from_u64(KEY_SEED)).with_fast_setup(false);
    assert_honest(&acc);
    acc
}

/// `Acc2` has no getter for its set-up mode, so tell the two apart by their
/// cost. Honest set-up of a singleton sums one published power; the
/// trapdoor path multiplies both generators by a scalar, which costs
/// hundreds of tower reductions more.
fn assert_honest(acc: &Acc2) {
    let one: MultiSet<u64> = [1u64].into_iter().collect();
    let reductions = |a: &Acc2| {
        let r0 = vchain_pairing::stats::montgomery_reductions();
        a.try_setup(&one).expect("index 1 is in the universe");
        vchain_pairing::stats::montgomery_reductions() - r0
    };
    let honest = reductions(acc);
    let trapdoor = reductions(&acc.clone().with_fast_setup(true));
    assert!(
        honest * 4 < trapdoor,
        "set-up must be honest: {honest} reductions against {trapdoor} with the trapdoor"
    );
}

/// Acc2 with both indexes and four skip levels, library defaults otherwise.
pub fn miner_config(domain_bits: u8) -> MinerConfig {
    MinerConfig { scheme: IndexScheme::Both, skip_levels: 4, domain_bits, ..Default::default() }
}

/// Mine `blocks` honestly and sync a light client to the result.
pub fn mine_chain(
    acc: &Acc2,
    cfg: MinerConfig,
    blocks: &[(u64, Vec<Object>)],
) -> (Miner<Acc2>, LightClient) {
    let mut miner = Miner::new(cfg, acc.clone());
    for (ts, objects) in blocks {
        miner.mine_block(*ts, objects.clone());
    }
    let mut light = LightClient::new(cfg.difficulty);
    for h in miner.headers() {
        light.sync_header(h).expect("self-mined headers validate");
    }
    (miner, light)
}

/// Ground truth: ids of the generated objects a query selects, filtered
/// directly from the workload rather than from anything the SP returned.
pub fn truth(q: &CompiledQuery, blocks: &[(u64, Vec<Object>)]) -> Vec<u64> {
    let mut ids: Vec<u64> = blocks
        .iter()
        .filter(|(ts, _)| q.in_window(*ts))
        .flat_map(|(_, objects)| objects.iter().filter(|o| q.object_matches(o)).map(|o| o.id))
        .collect();
    ids.sort_unstable();
    ids
}

/// Sorted ids of verified result objects.
pub fn ids(objects: &[Object]) -> Vec<u64> {
    let mut ids: Vec<u64> = objects.iter().map(|o| o.id).collect();
    ids.sort_unstable();
    ids
}

/// Fisher–Yates shuffle (the workspace's `rand` has no `SliceRandom`).
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Run `f`, turning a panic into `None` (counted as a failed operation).
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Linear-interpolated percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Mean of a total over `n` operations (0 when there were none).
pub fn per(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Pairing work done on this thread so far: (Miller loops, final
/// exponentiations). The counters are thread-local, which is why every
/// client runs inline on the benchmark's one thread.
pub fn pairings() -> (u64, u64) {
    (vchain_pairing::stats::miller_loops(), vchain_pairing::stats::final_exps())
}
