//! The one oracle every workload verifies against, outside the timed window.
//!
//! The repository's contract (DESIGN.md §10): an answer is the exact top-k
//! of its universe, or it is degraded and *names* what it could not read —
//! then it is the exact top-k of the universe minus the declared losses.
//! [`Truth`] ranks a universe once per distinct query; [`Truth::check`]
//! holds any answer to that contract by distance multiset, so ties between
//! equidistant points never produce a false alarm.
//!
//! Universes per workload: flat = `index.candidates(q, k)`; tree = the whole
//! dataset (brute force); fleet = the union of every shard's
//! `candidates_global`; ingest = the mutation stream's shadow live set, whose
//! own `reference_top_k` supplies the expected id sequence for
//! [`check_ids`], with [`check_live_set`] after recovery.

use std::collections::HashSet;

use hc_core::dataset::{Dataset, PointId};
use hc_core::distance::euclidean;

use crate::load::Answer;
use crate::report::Report;
use crate::world::K;

/// Why an answer is wrong.
#[derive(Debug, Clone, PartialEq)]
pub enum Mismatch {
    /// The answer has the wrong number of results.
    Count { got: usize, want: usize },
    /// The same id appears twice.
    Duplicate(PointId),
    /// An id that is not in the universe (as a result or a declared loss).
    Outside(PointId),
    /// A declared-missing id was returned anyway.
    MissingReturned(PointId),
    /// The sorted distances differ from the exact top-k at `rank`.
    Distance { rank: usize, got: f64, want: f64 },
    /// The id sequence differs from the reference at `rank`.
    Id {
        rank: usize,
        got: PointId,
        want: PointId,
    },
    /// The answer declares losses on a workload that injects no faults.
    UnexpectedLoss(usize),
    /// So many losses were declared that the truncated ranking ran out.
    WindowExhausted,
    /// Live sets differ after recovery.
    LiveSet {
        only_engine: usize,
        only_shadow: usize,
    },
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The ranked universe of one query.
#[derive(Debug, Clone)]
pub struct Truth {
    /// Ascending `(distance, id)`, possibly truncated to the nearest `keep`.
    ranked: Vec<(f64, u32)>,
    /// Whether `ranked` holds the whole universe.
    complete: bool,
    /// Sorted universe ids, when the universe is a proper subset of the
    /// dataset (a candidate set); `None` when every id is a member.
    members: Option<Vec<u32>>,
}

impl Truth {
    /// Rank a candidate-set universe. Every member is kept, so any number of
    /// declared losses can be checked.
    pub fn of_candidates<'a>(
        q: &[f32],
        universe: impl Iterator<Item = (PointId, &'a [f32])>,
    ) -> Truth {
        let mut ranked: Vec<(f64, u32)> = universe.map(|(id, p)| (euclidean(q, p), id.0)).collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut members: Vec<u32> = ranked.iter().map(|&(_, id)| id).collect();
        members.sort_unstable();
        members.dedup();
        Truth {
            ranked,
            complete: true,
            members: Some(members),
        }
    }

    /// Brute-force ranking of a whole dataset, keeping only the nearest
    /// `keep` (a 19,600-point ranking per distinct query would not fit in
    /// memory 400 times over). Enough for `keep - k` declared losses.
    pub fn of_dataset<'a>(
        q: &[f32],
        universe: impl Iterator<Item = (PointId, &'a [f32])>,
        keep: usize,
    ) -> Truth {
        let mut ranked: Vec<(f64, u32)> = universe.map(|(id, p)| (euclidean(q, p), id.0)).collect();
        let complete = ranked.len() <= keep;
        if !complete {
            ranked.select_nth_unstable_by(keep, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            ranked.truncate(keep);
        }
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        Truth {
            ranked,
            complete,
            members: None,
        }
    }

    /// Hold an answer to the contract: `answer` must be the exact top-`k` by
    /// distance over the universe minus `missing`. `dist_of` recomputes an
    /// answer id's distance from the harness's own copy of the data.
    pub fn check(
        &self,
        k: usize,
        answer: &[PointId],
        missing: &[PointId],
        dist_of: impl Fn(PointId) -> f64,
    ) -> Result<(), Mismatch> {
        let lost: HashSet<u32> = missing.iter().map(|id| id.0).collect();
        let mut seen = HashSet::with_capacity(answer.len());
        for &id in answer {
            if !seen.insert(id.0) {
                return Err(Mismatch::Duplicate(id));
            }
            if lost.contains(&id.0) {
                return Err(Mismatch::MissingReturned(id));
            }
        }
        if let Some(members) = &self.members {
            for &id in answer.iter().chain(missing) {
                if members.binary_search(&id.0).is_err() {
                    return Err(Mismatch::Outside(id));
                }
            }
        }
        let want: Vec<f64> = self
            .ranked
            .iter()
            .filter(|(_, id)| !lost.contains(id))
            .take(k)
            .map(|&(d, _)| d)
            .collect();
        if want.len() < k && !self.complete {
            return Err(Mismatch::WindowExhausted);
        }
        if answer.len() != want.len() {
            return Err(Mismatch::Count {
                got: answer.len(),
                want: want.len(),
            });
        }
        let mut got: Vec<f64> = answer.iter().map(|&id| dist_of(id)).collect();
        got.sort_by(f64::total_cmp);
        for (rank, (&g, &w)) in got.iter().zip(&want).enumerate() {
            if g != w {
                return Err(Mismatch::Distance {
                    rank,
                    got: g,
                    want: w,
                });
            }
        }
        Ok(())
    }
}

/// Ranks the universe of one query.
type Rank<'a> = Box<dyn Fn(&[f32]) -> Truth + 'a>;

/// The oracle of a workload whose queries come from a fixed pool: one
/// [`Truth`] per pool entry, ranked the first time that entry's answer is
/// checked (after the timed window, never inside it).
pub struct PoolOracle<'a> {
    pool: &'a [Vec<f32>],
    /// The data the answers' ids refer to; distances are recomputed from it.
    dataset: &'a Dataset,
    rank: Rank<'a>,
    /// Whether any declared loss is itself a failure (no faults injected).
    lossless: bool,
    truths: Vec<Option<Truth>>,
}

impl<'a> PoolOracle<'a> {
    pub fn new(
        pool: &'a [Vec<f32>],
        dataset: &'a Dataset,
        lossless: bool,
        rank: impl Fn(&[f32]) -> Truth + 'a,
    ) -> Self {
        Self {
            pool,
            dataset,
            rank: Box::new(rank),
            lossless,
            truths: vec![None; pool.len()],
        }
    }

    /// Hold the answer to pool entry `entry` to the contract and count the
    /// verdict in `report`.
    pub fn check(&mut self, report: &mut Report, what: &str, entry: u32, answer: &Answer) {
        let q = &self.pool[entry as usize];
        let outcome = match answer {
            Answer::Failed(reason) => Err(format!("request failed: {reason}")),
            Answer::Answered { ids, missing } => {
                let truth = self.truths[entry as usize].get_or_insert_with(|| (self.rank)(q));
                let dataset = self.dataset;
                let lossless = if self.lossless {
                    check_lossless(missing)
                } else {
                    Ok(())
                };
                lossless
                    .and_then(|()| {
                        truth.check(K, ids, missing, |id| euclidean(q, dataset.point(id)))
                    })
                    .map_err(|e| e.to_string())
            }
        };
        report.verdict(&format!("{what} pool entry {entry}"), outcome);
    }
}

/// A workload that injects no faults must never see a declared loss.
pub fn check_lossless(missing: &[PointId]) -> Result<(), Mismatch> {
    if missing.is_empty() {
        Ok(())
    } else {
        Err(Mismatch::UnexpectedLoss(missing.len()))
    }
}

/// Ingest, while the writer runs: the live set moves under the query, so no
/// single reference applies; the answer must still be `k` distinct ids with
/// nothing declared lost. Exactness is checked at the quiesce points.
pub fn check_shape(k: usize, ids: &[PointId], missing: &[PointId]) -> Result<(), Mismatch> {
    check_lossless(missing)?;
    if ids.len() != k {
        return Err(Mismatch::Count {
            got: ids.len(),
            want: k,
        });
    }
    let mut seen = HashSet::with_capacity(k);
    match ids.iter().find(|id| !seen.insert(id.0)) {
        Some(&id) => Err(Mismatch::Duplicate(id)),
        None => Ok(()),
    }
}

/// Ingest: the engine and the mutation stream's `reference_top_k` share one
/// total order (distance, then id), so the id sequences must be equal.
pub fn check_ids(want: &[PointId], got: &[PointId]) -> Result<(), Mismatch> {
    if want.len() != got.len() {
        return Err(Mismatch::Count {
            got: got.len(),
            want: want.len(),
        });
    }
    for (rank, (&w, &g)) in want.iter().zip(got).enumerate() {
        if w != g {
            return Err(Mismatch::Id {
                rank,
                got: g,
                want: w,
            });
        }
    }
    Ok(())
}

/// Ingest, after recovery: the engine's live ids equal the shadow's keys.
pub fn check_live_set(
    engine: &HashSet<u32>,
    shadow: impl Iterator<Item = u32>,
) -> Result<(), Mismatch> {
    let shadow: HashSet<u32> = shadow.collect();
    let only_engine = engine.difference(&shadow).count();
    let only_shadow = shadow.difference(engine).count();
    if only_engine == 0 && only_shadow == 0 {
        Ok(())
    } else {
        Err(Mismatch::LiveSet {
            only_engine,
            only_shadow,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Points on a line at 0, 1, 2, …; the query sits at 0.
    fn line(n: usize) -> Vec<Vec<f32>> {
        (0..n).map(|i| vec![i as f32]).collect()
    }

    fn ids(v: &[u32]) -> Vec<PointId> {
        v.iter().map(|&i| PointId(i)).collect()
    }

    fn truth(points: &[Vec<f32>], universe: &[u32]) -> Truth {
        Truth::of_candidates(
            &[0.0],
            universe
                .iter()
                .map(|&i| (PointId(i), points[i as usize].as_slice())),
        )
    }

    #[test]
    fn exact_answer_passes_in_any_order() {
        let pts = line(10);
        let t = truth(&pts, &[0, 1, 2, 3, 4, 5]);
        let dist = |id: PointId| euclidean(&[0.0], &pts[id.index()]);
        assert_eq!(t.check(3, &ids(&[2, 0, 1]), &[], dist), Ok(()));
    }

    #[test]
    fn swapped_id_is_flagged() {
        let pts = line(10);
        let t = truth(&pts, &[0, 1, 2, 3, 4, 5]);
        let dist = |id: PointId| euclidean(&[0.0], &pts[id.index()]);
        // 4 stands where 2 belongs.
        let err = t.check(3, &ids(&[0, 1, 4]), &[], dist).unwrap_err();
        assert!(matches!(err, Mismatch::Distance { rank: 2, .. }), "{err}");
    }

    #[test]
    fn undeclared_loss_is_flagged_and_declared_loss_is_accepted() {
        let pts = line(10);
        let t = truth(&pts, &[0, 1, 2, 3, 4, 5]);
        let dist = |id: PointId| euclidean(&[0.0], &pts[id.index()]);
        // The nearest point silently dropped: wrong.
        assert!(t.check(3, &ids(&[1, 2, 3]), &[], dist).is_err());
        // The same answer with the loss declared: the exact top-3 of the rest.
        assert_eq!(t.check(3, &ids(&[1, 2, 3]), &ids(&[0]), dist), Ok(()));
        // Declaring a loss and returning it anyway is a contradiction.
        assert_eq!(
            t.check(3, &ids(&[0, 1, 2]), &ids(&[0]), dist),
            Err(Mismatch::MissingReturned(PointId(0)))
        );
    }

    #[test]
    fn ids_outside_the_candidate_set_and_duplicates_are_flagged() {
        let pts = line(10);
        let t = truth(&pts, &[0, 1, 2, 3]);
        let dist = |id: PointId| euclidean(&[0.0], &pts[id.index()]);
        assert_eq!(
            t.check(2, &ids(&[0, 9]), &[], dist),
            Err(Mismatch::Outside(PointId(9)))
        );
        assert_eq!(
            t.check(2, &ids(&[1, 1]), &[], dist),
            Err(Mismatch::Duplicate(PointId(1)))
        );
        assert_eq!(
            t.check(2, &ids(&[0, 1]), &ids(&[7]), dist),
            Err(Mismatch::Outside(PointId(7)))
        );
    }

    #[test]
    fn ties_compare_by_distance_not_by_id() {
        // Two points at the same distance: either may close the top-2.
        let pts = vec![vec![0.0f32], vec![1.0], vec![-1.0], vec![5.0]];
        let t = truth(&pts, &[0, 1, 2, 3]);
        let dist = |id: PointId| euclidean(&[0.0], &pts[id.index()]);
        assert_eq!(t.check(2, &ids(&[0, 1]), &[], dist), Ok(()));
        assert_eq!(t.check(2, &ids(&[0, 2]), &[], dist), Ok(()));
    }

    #[test]
    fn short_universe_wants_a_short_answer() {
        let pts = line(4);
        let t = truth(&pts, &[0, 1]);
        let dist = |id: PointId| euclidean(&[0.0], &pts[id.index()]);
        assert_eq!(t.check(5, &ids(&[0, 1]), &[], dist), Ok(()));
        assert_eq!(
            t.check(5, &ids(&[0]), &[], dist),
            Err(Mismatch::Count { got: 1, want: 2 })
        );
    }

    #[test]
    fn truncated_dataset_ranking_checks_and_reports_exhaustion() {
        let pts = line(50);
        let t = Truth::of_dataset(
            &[0.0],
            pts.iter()
                .enumerate()
                .map(|(i, p)| (PointId(i as u32), p.as_slice())),
            4,
        );
        let dist = |id: PointId| euclidean(&[0.0], &pts[id.index()]);
        assert_eq!(t.check(3, &ids(&[0, 1, 2]), &[], dist), Ok(()));
        assert_eq!(t.check(3, &ids(&[1, 2, 3]), &ids(&[0]), dist), Ok(()));
        assert_eq!(
            t.check(3, &ids(&[2, 3, 4]), &ids(&[0, 1]), dist),
            Err(Mismatch::WindowExhausted)
        );
    }

    #[test]
    fn id_sequences_and_live_sets_compare_exactly() {
        assert_eq!(check_ids(&ids(&[1, 2]), &ids(&[1, 2])), Ok(()));
        assert!(matches!(
            check_ids(&ids(&[1, 2]), &ids(&[2, 1])),
            Err(Mismatch::Id { rank: 0, .. })
        ));
        assert!(check_ids(&ids(&[1, 2]), &ids(&[1])).is_err());
        let engine: HashSet<u32> = [1, 2, 3].into_iter().collect();
        assert_eq!(check_live_set(&engine, [3, 2, 1].into_iter()), Ok(()));
        assert_eq!(
            check_live_set(&engine, [1, 2, 4].into_iter()),
            Err(Mismatch::LiveSet {
                only_engine: 1,
                only_shadow: 1
            })
        );
        assert_eq!(check_shape(2, &ids(&[4, 9]), &[]), Ok(()));
        assert_eq!(
            check_shape(2, &ids(&[4, 4]), &[]),
            Err(Mismatch::Duplicate(PointId(4)))
        );
        assert!(check_shape(3, &ids(&[4, 9]), &[]).is_err());
        assert!(check_shape(2, &ids(&[4, 9]), &ids(&[1])).is_err());
        assert_eq!(check_lossless(&[]), Ok(()));
        assert_eq!(check_lossless(&ids(&[5])), Err(Mismatch::UnexpectedLoss(1)));
    }
}
