//! The per-thread memo of per-query bucket-distance tables, and the one
//! routine that bounds a cached point through them.
//!
//! [`QueryTables`] cost `O(d·nb)` to fill (≈ 614 KB at d = 150, τ = 8) and
//! are worth that only when many candidates are bounded through one fill.
//! The point tower gets there by batching (`lookup_batch` hands a whole
//! candidate set to one call); the node tower cannot — a tree query asks
//! `lookup(q, leaf)` once per leaf, ≈ 1,900 times with the same `q`. So the
//! tables live in one thread-local slot keyed on *(scheme identity, query
//! bits)*: the first call of a query fills them, every later call of that
//! query on that thread reuses them. Serving workers are long-lived and run
//! one query at a time, so the slot is also the only table storage a worker
//! ever allocates — both towers go through it.
//!
//! Both towers also store a cached point the same way — its `⌈d·τ/64⌉`
//! row-major packed words, contiguous (paper footnote 5) — so one routine,
//! [`bound_rows`], turns tables plus such rows into bounds for either: a
//! leaf's members, or a batch's hits, a few rows at a time in lock-step.

use std::cell::RefCell;
use std::sync::Arc;

use hc_core::bounds::DistBounds;
use hc_core::scan::{QueryTables, Simd};
use hc_core::scheme::ApproxScheme;

#[derive(Default)]
struct TableMemo {
    /// A *held clone* of the scheme the tables were built for. Holding it
    /// pins the allocation, so `Arc::ptr_eq` can never match a different
    /// scheme that was allocated at a recycled address — which a raw pointer
    /// (or the address of `q`) as the key could.
    scheme: Option<Arc<dyn ApproxScheme>>,
    /// `f32::to_bits` of the query the tables were built for.
    q_bits: Vec<u32>,
    tables: QueryTables,
}

impl TableMemo {
    fn holds(&self, scheme: &Arc<dyn ApproxScheme>, q: &[f32]) -> bool {
        // The node tower asks once per leaf, ≈ 1,900 times per query, and the
        // answer is almost always yes: fold the differing bits instead of
        // stopping at the first one, so the compare has no branch per
        // component and vectorises.
        self.scheme.as_ref().is_some_and(|s| Arc::ptr_eq(s, scheme))
            && self.q_bits.len() == q.len()
            && self
                .q_bits
                .iter()
                .zip(q)
                .fold(0, |diff, (&b, v)| diff | (b ^ v.to_bits()))
                == 0
    }
}

thread_local! {
    static MEMO: RefCell<TableMemo> = RefCell::new(TableMemo::default());
}

/// Run `f` with this thread's tables for `(scheme, q)`, filling them only
/// when the previous call on this thread was for a different scheme or
/// query. `f` gets `None` for schemes without per-dimension bucket intervals
/// (`scan_intervals()` is `None`: the multi-dimensional scheme), which keep
/// the scalar `ApproxScheme::bounds` path.
///
/// `simd` selects the kernel of a fill; the entries are bit-identical either
/// way, so it is not part of the key. `f` must not call back into this
/// function (the slot is borrowed for its duration).
pub fn with_query_tables<R>(
    scheme: &Arc<dyn ApproxScheme>,
    q: &[f32],
    simd: Simd,
    f: impl FnOnce(Option<&QueryTables>) -> R,
) -> R {
    let Some(intervals) = scheme.scan_intervals() else {
        return f(None);
    };
    MEMO.with(|cell| {
        let mut memo = cell.borrow_mut();
        if !memo.holds(scheme, q) {
            // Forget the key first: a fill that panics half way must not
            // leave the old key over partly overwritten entries.
            memo.scheme = None;
            memo.tables.rebuild(q, &intervals, simd);
            memo.q_bits.clear();
            memo.q_bits.extend(q.iter().map(|v| v.to_bits()));
            memo.scheme = Some(Arc::clone(scheme));
        }
        f(Some(&memo.tables))
    })
}

/// Rows walked per lock-step pass. Measured once (CHANGES.md, PR 16): on the
/// `scan` bin's leaf and point rows 4 and 8 tie and both beat 1; end to end
/// 4 is ahead on `flat_warm` — four accumulators, four code words and the
/// table cursor still fit the register file — and needs half the tail
/// widths.
///
/// Two places follow this constant by hand: the tail arms of [`bound_rows`]
/// (one per width below `WALK`, held to it by a const assert) and the row
/// counts of `bound_rows_matches_scheme_bounds_at_every_row_count` in
/// `crates/core/tests/scan_equivalence.rs`, which must reach `2·WALK + 1`
/// (it runs to 17, enough for a `WALK` of up to 8).
const WALK: usize = 4;

/// The routine that bounds cached points for one `(scheme, q)`, given what
/// [`with_query_tables`] handed out for them: `rows` yields each point's
/// row-major packed words and `emit` receives their bounds in the same
/// order. Rows go through [`QueryTables::rows_bounds`] [`WALK`] at a time and
/// the remainder in one pass of exactly its own width — never a padded
/// walk — each point reading `d` table entries in dimension-ascending order:
/// the addition sequence of [`ApproxScheme::bounds`], so every result is
/// bit-identical to it. Schemes without tables (mHC-R) get `scheme.bounds`
/// per row.
pub fn bound_rows<'a>(
    scheme: &dyn ApproxScheme,
    tables: Option<&QueryTables>,
    q: &[f32],
    rows: impl Iterator<Item = &'a [u64]>,
    mut emit: impl FnMut(DistBounds),
) {
    let Some(tables) = tables else {
        rows.for_each(|row| emit(scheme.bounds(q, row)));
        return;
    };
    let tau = scheme.tau();
    let mut group: [&[u64]; WALK] = [&[]; WALK];
    let mut n = 0;
    for row in rows {
        group[n] = row;
        n += 1;
        if n == WALK {
            walk(tables, group, tau, &mut emit);
            n = 0;
        }
    }
    // The width is a const parameter of the walk: one arm per tail width.
    const _: () = assert!(WALK == 4, "the tail arms cover widths 1 to WALK - 1");
    match group[..n] {
        [] => {}
        [a] => walk(tables, [a], tau, &mut emit),
        [a, b] => walk(tables, [a, b], tau, &mut emit),
        [a, b, c] => walk(tables, [a, b, c], tau, &mut emit),
        _ => unreachable!("a full group was flushed above"),
    }
}

/// One lock-step pass over exactly `N` rows.
fn walk<const N: usize>(
    tables: &QueryTables,
    rows: [&[u64]; N],
    tau: u32,
    emit: &mut impl FnMut(DistBounds),
) {
    tables.rows_bounds(rows, tau).into_iter().for_each(emit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_core::histogram::classic::equi_width;
    use hc_core::quantize::Quantizer;
    use hc_core::scheme::GlobalScheme;

    fn scheme(buckets: u32) -> Arc<dyn ApproxScheme> {
        let quant = Quantizer::new(0.0, 10.0, 64);
        Arc::new(GlobalScheme::new(equi_width(64, buckets), quant, 3))
    }

    fn bounds_via_memo(s: &Arc<dyn ApproxScheme>, q: &[f32], words: &[u64]) -> (u64, u64) {
        with_query_tables(s, q, Simd::Auto, |t| {
            assert!(t.is_some(), "global scheme has intervals");
            let mut bits = None;
            bound_rows(s.as_ref(), t, q, std::iter::once(words), |b| {
                bits = Some((b.lb.to_bits(), b.ub.to_bits()));
            });
            bits.expect("one row, one bound")
        })
    }

    /// Same query, same thread, different scheme (and then a different query
    /// under the same scheme): the memo must refill both times.
    #[test]
    fn memo_is_keyed_on_scheme_identity_and_query_bits() {
        let (coarse, fine) = (scheme(4), scheme(16));
        let p = [1.5f32, 7.25, 9.0];
        let q = [2.0f32, 2.0, 0.5];
        for s in [&coarse, &fine, &coarse] {
            for q in [q, [2.0, 2.0, 0.75], q] {
                let words = s.encode(&p);
                let want = s.bounds(&q, &words);
                assert_eq!(
                    bounds_via_memo(s, &q, &words),
                    (want.lb.to_bits(), want.ub.to_bits()),
                    "tau={} q={q:?}",
                    s.tau()
                );
            }
        }
    }
}
