//! Property test for Acc2's clause-grouped batch verification: the RLC
//! flush folds every triple that shares a clause value `d_B` into one
//! pair, and that must never change a verdict.
//!
//! Each iteration draws a random batch whose triples share clause values
//! at random (from one clause for the whole batch to one per triple),
//! applies at most one random forgery, and checks that
//! `batch_verify_disjoint_ctx` accepts exactly when every triple passes
//! `verify_disjoint` on its own, and that the attributed variant names the
//! first failing triple. Forgeries: a random proof, the identity proof,
//! `d_A` or `π` swapped between two triples (same clause when one exists),
//! a triple moved to another clause value, and a clause value negated (it
//! shares its x-coordinate with the honest one, so it must get a bucket of
//! its own). Some forgeries leave the batch valid (a swap between equal
//! values); the per-item oracle decides.
//!
//! Iterations come from `VCHAIN_FUZZ_ITERS` (default 64); the base seed is
//! fixed, so a failure replays from its printed iteration.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vchain_acc::{Acc2, Acc2Proof, Acc2Value, Accumulator, MultiSet};
use vchain_pairing::{Fr, G1Projective};

const SEED: u64 = 0xBA7C_C1A5;

fn iters() -> usize {
    std::env::var("VCHAIN_FUZZ_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
}

/// A random multiset of `len` elements drawn from `lo..hi`.
fn draw(rng: &mut StdRng, len: usize, lo: u64, hi: u64) -> MultiSet<u64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

type Triple = (Acc2Value, Acc2Value, Acc2Proof);

/// An honest batch of `n` triples over `k` clause values. Node sets come
/// from `[1, 32)` and clauses from `[32, 64)`, so every pair is disjoint;
/// a node set may be empty (its `d_A` and `π` are the identity).
fn honest_batch(acc: &Acc2, rng: &mut StdRng, n: usize, k: usize) -> Vec<Triple> {
    let clauses: Vec<MultiSet<u64>> = (0..k)
        .map(|_| {
            let len = rng.gen_range(1..=3);
            draw(rng, len, 32, 64)
        })
        .collect();
    let values: Vec<Acc2Value> = clauses.iter().map(|c| acc.setup(c)).collect();
    (0..n)
        .map(|_| {
            let len = rng.gen_range(0..=3);
            let x1 = draw(rng, len, 1, 32);
            let c = rng.gen_range(0..k);
            (acc.setup(&x1), values[c], acc.prove_disjoint(&x1, &clauses[c]).unwrap())
        })
        .collect()
}

/// Apply at most one forgery to `items`.
fn forge(rng: &mut StdRng, items: &mut [Triple]) {
    let n = items.len();
    let i = rng.gen_range(0..n);
    // a partner sharing i's clause if there is one, else any other triple
    let j = (0..n)
        .find(|&j| j != i && items[j].1 == items[i].1)
        .unwrap_or_else(|| (i + rng.gen_range(1..n)) % n);
    match rng.gen_range(0..7) {
        0 => {}
        1 => {
            let r = Fr::random(rng);
            items[i].2 = Acc2Proof { pi: G1Projective::generator().mul_fr(&r).to_affine() };
        }
        2 => items[i].2 = Acc2Proof { pi: G1Projective::identity().to_affine() },
        3 => {
            let da = items[i].0.da;
            items[i].0.da = items[j].0.da;
            items[j].0.da = da;
        }
        4 => {
            let pi = items[i].2;
            items[i].2 = items[j].2;
            items[j].2 = pi;
        }
        5 => items[i].1 = items[rng.gen_range(0..n)].1,
        _ => items[i].1.db = items[i].1.db.neg(),
    }
}

#[test]
fn grouped_batch_verdict_matches_per_item_verdicts() {
    let acc = Acc2::keygen(64, &mut StdRng::seed_from_u64(SEED));
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for it in 0..iters() {
        let mut rng = StdRng::seed_from_u64(SEED ^ it as u64);
        // every 16th batch is wide and (almost) all-distinct: the shape
        // that bypasses grouping
        let (n, k) = if it % 16 == 15 {
            (24, 24)
        } else {
            let n = rng.gen_range(2..=12);
            (n, rng.gen_range(1..=n))
        };
        let mut items = honest_batch(&acc, &mut rng, n, k);
        forge(&mut rng, &mut items);
        let context = (it as u64).to_le_bytes();

        let first_bad = items.iter().position(|(a1, a2, p)| !acc.verify_disjoint(a1, a2, p));
        let verdict = acc.batch_verify_disjoint_ctx(&context, &items);
        assert_eq!(verdict, first_bad.is_none(), "iteration {it}: n={n} k={k}");
        assert_eq!(
            acc.batch_verify_disjoint_attributed_ctx(&context, &items),
            first_bad.map_or(Ok(()), Err),
            "iteration {it}: attribution"
        );
        if verdict {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    // both verdicts must actually be exercised
    let total = accepted + rejected;
    assert!(
        total < 8 || (accepted > 0 && rejected > 0),
        "{accepted} accepted, {rejected} rejected"
    );
    eprintln!("batch_props: {total} batches, {accepted} accepted, {rejected} rejected");
}
