//! Online batch verification (paper §6.3).
//!
//! With Construction 2, mismatching nodes that share a clause — within one
//! block or across blocks — can be verified in a batch: the verifier sums
//! their AttDigests with `Sum(·)` and checks a single aggregate proof
//! produced with `ProofSum(·)` (or, equivalently, proven once against the
//! summed multiset).
//!
//! The in-block flavor is wired into [`crate::intra::IntraTree::query`]
//! (the `batch` flag) and checked in [`crate::verify`]; this module holds
//! the cross-block aggregation used by the lazy subscription path (§7.2).
//!
//! Verifier-side, the dual of this SP-side aggregation is the deferred
//! RLC pairing batch of [`crate::verify`]: all of a response's — or, in
//! the streamed client ([`crate::client`]), an entire multi-window scan's —
//! disjointness checks flush as one aggregated multi-pairing.

// Aggregation feeds verifier-side checks; keep it panic-free.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use vchain_acc::{AccError, Accumulator, MultiSet};

use crate::element::ElementId;

/// Accumulates mismatching entities that share a clause, producing one
/// aggregate (value, proof) pair at flush time.
pub struct BatchCollector<A: Accumulator> {
    members: Vec<(MultiSet<ElementId>, A::Value)>,
}

impl<A: Accumulator> Default for BatchCollector<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Accumulator> BatchCollector<A> {
    /// An empty collector.
    pub fn new() -> Self {
        Self { members: Vec::new() }
    }

    /// Add one mismatching entity (its multiset and AttDigest).
    pub fn push(&mut self, ms: MultiSet<ElementId>, att: A::Value) {
        self.members.push((ms, att));
    }

    /// Number of collected members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Is the collector empty?
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// One aggregate value + proof against `clause` for all members.
    pub fn flush(
        &mut self,
        acc: &A,
        clause: &MultiSet<ElementId>,
    ) -> Result<(A::Value, A::Proof), AccError> {
        let values: Vec<A::Value> = self.members.iter().map(|(_, v)| v.clone()).collect();
        let agg_value = acc.sum(&values)?;
        let mut summed = MultiSet::new();
        for (ms, _) in &self.members {
            summed = summed.sum(ms);
        }
        let proof = acc.prove_disjoint(&summed, clause)?;
        self.members.clear();
        Ok((agg_value, proof))
    }
}
