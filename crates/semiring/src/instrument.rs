//! Operation-counting decorator for [`AggDomain`] — the measurement side of
//! paper Theorem 8.1, which bounds InsideOut's cost in numbers of `⊕⁽ᵏ⁾` and
//! `⊗` operations rather than wall-clock time.

use crate::{AggDesc, AggDomain, AggId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared operation counters.
#[derive(Debug, Clone, Default)]
pub struct OpCounters {
    adds: Arc<AtomicU64>,
    muls: Arc<AtomicU64>,
}

impl OpCounters {
    /// Fresh zeroed counters.
    pub(crate) fn new() -> OpCounters {
        OpCounters::default()
    }

    /// Total semiring additions performed.
    pub fn adds(&self) -> u64 {
        self.adds.load(Ordering::Relaxed)
    }

    /// Total products performed.
    pub fn muls(&self) -> u64 {
        self.muls.load(Ordering::Relaxed)
    }

    /// Reset both counters.
    pub fn reset(&self) {
        self.adds.store(0, Ordering::Relaxed);
        self.muls.store(0, Ordering::Relaxed);
    }
}

/// An [`AggDomain`] wrapper that counts every `add` and `mul`.
///
/// The counters are shared (`Arc<AtomicU64>`, relaxed ordering), so clones of
/// the domain — the engine clones queries freely — all report into the same
/// tally, and the domain stays `Send + Sync` for the parallel engine's worker
/// pool (totals are exact there too; only the interleaving is unordered).
#[derive(Debug, Clone)]
pub struct InstrumentedDomain<D> {
    inner: D,
    counters: OpCounters,
}

impl<D: AggDomain> InstrumentedDomain<D> {
    /// Wrap a domain; read the counters through the returned handle.
    pub fn new(inner: D) -> (Self, OpCounters) {
        let counters = OpCounters::new();
        (InstrumentedDomain { inner, counters: counters.clone() }, counters)
    }
}

impl<D: AggDomain> AggDomain for InstrumentedDomain<D> {
    type E = D::E;

    fn zero(&self) -> D::E {
        self.inner.zero()
    }
    fn one(&self) -> D::E {
        self.inner.one()
    }
    fn mul(&self, a: &D::E, b: &D::E) -> D::E {
        self.counters.muls.fetch_add(1, Ordering::Relaxed);
        self.inner.mul(a, b)
    }
    fn add(&self, op: AggId, a: &D::E, b: &D::E) -> D::E {
        self.counters.adds.fetch_add(1, Ordering::Relaxed);
        self.inner.add(op, a, b)
    }
    fn num_ops(&self) -> usize {
        self.inner.num_ops()
    }
    fn op_desc(&self, op: AggId) -> AggDesc {
        self.inner.op_desc(op)
    }
    fn ops_identical(&self, a: AggId, b: AggId) -> bool {
        self.inner.ops_identical(a, b)
    }
    fn is_zero(&self, a: &D::E) -> bool {
        self.inner.is_zero(a)
    }
    fn is_mul_idempotent(&self, e: &D::E) -> bool {
        self.inner.is_mul_idempotent(e)
    }
    fn mul_idempotent_domain(&self) -> bool {
        self.inner.mul_idempotent_domain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CountDomain;

    #[test]
    fn counters_track_operations() {
        let (d, counters) = InstrumentedDomain::new(CountDomain);
        assert_eq!(counters.adds(), 0);
        let _ = d.add(CountDomain::SUM, &1, &2);
        let _ = d.add(CountDomain::MAX, &1, &2);
        let _ = d.mul(&3, &4);
        assert_eq!(counters.adds(), 2);
        assert_eq!(counters.muls(), 1);
        counters.reset();
        assert_eq!(counters.adds(), 0);
        assert_eq!(counters.muls(), 0);
    }

    #[test]
    fn clones_share_counters() {
        let (d, counters) = InstrumentedDomain::new(CountDomain);
        let d2 = d.clone();
        let _ = d2.mul(&2, &2);
        assert_eq!(counters.muls(), 1);
    }

    #[test]
    fn pow_counts_squarings() {
        let (d, counters) = InstrumentedDomain::new(CountDomain);
        // 2^8 via repeated squaring: ~log2(8) squarings + 1 final mul.
        let v = d.pow(&2, 8);
        assert_eq!(v, 256);
        assert!(counters.muls() <= 8, "repeated squaring used {} muls", counters.muls());
        assert!(counters.muls() >= 3);
    }
}
