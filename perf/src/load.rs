//! Load generation: the closed loop every query workload is timed with, the
//! single-threaded interleaved passes the traced run uses, and the windowed
//! statistics both report.
//!
//! Closed loop is the right shape for this system: the library's callers —
//! and the fleet router itself — each wait for a reply before sending the
//! next request. The client count is stated per workload (README.md).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hc_core::dataset::PointId;
use hc_serve::{QueryOutcome, QueryServer};

use crate::stats::{median, Summary};
use crate::world::K;

/// What came back for one request, reduced to what the oracle needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// `missing` is empty for an exact answer.
    Answered {
        ids: Vec<PointId>,
        missing: Vec<PointId>,
    },
    /// Failed, timed out, or refused at the door.
    Failed(String),
}

/// A reply through a [`QueryServer`], with the serving-layer figures the
/// per-layer metrics read from the response.
#[derive(Debug, Clone)]
pub struct Served {
    pub answer: Answer,
    pub queue_wait_us: f64,
    pub cache_hits: usize,
    pub candidates: usize,
    pub io_pages: u64,
}

impl Served {
    fn failed(reason: String) -> Self {
        Served {
            answer: Answer::Failed(reason),
            queue_wait_us: 0.0,
            cache_hits: 0,
            candidates: 0,
            io_pages: 0,
        }
    }
}

/// Submit one query and wait for it, as a library caller would.
pub fn serve(server: &QueryServer, q: &[f32]) -> Served {
    let outcome = match server.submit(q.to_vec(), K, None) {
        Ok(ticket) => ticket.wait(),
        Err(refused) => return Served::failed(format!("{refused:?}")),
    };
    let (response, missing) = match outcome {
        QueryOutcome::Done(r) => (r, Vec::new()),
        QueryOutcome::Degraded { response, missing } => (response, missing),
        QueryOutcome::TimedOut => return Served::failed("timed out".into()),
        QueryOutcome::Failed { reason } => return Served::failed(reason),
    };
    Served {
        queue_wait_us: response.queue_wait.as_secs_f64() * 1e6,
        cache_hits: response.cache_hits,
        candidates: response.candidates,
        io_pages: response.io_pages,
        answer: Answer::Answered {
            ids: response.ids,
            missing,
        },
    }
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Sample<R> {
    /// Pool entry the request asked for.
    pub pool: u32,
    /// Completion time since the loop started.
    pub done: Duration,
    /// Client-side submit→answer time.
    pub latency_us: f64,
    pub reply: R,
}

/// When a closed loop stops issuing requests.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many requests in total (warm-up: counts repeat).
    After(usize),
    /// Once this much time has passed (the timed window); requests already
    /// in flight complete and are returned.
    At(Duration),
}

/// Drive `clients` closed-loop clients over `stream`, each taking the next
/// unclaimed position from `cursor` (wrapping around the stream). Returns
/// every completed request, in completion order per client.
pub fn closed_loop<R: Send>(
    clients: usize,
    stream: &[u32],
    cursor: &AtomicUsize,
    stop: Stop,
    call: impl Fn(u32) -> R + Sync,
) -> Vec<Sample<R>> {
    let started = Instant::now();
    let first = cursor.load(Ordering::Relaxed);
    let mut samples: Vec<Sample<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        if let Stop::At(window) = stop {
                            if started.elapsed() >= window {
                                break;
                            }
                        }
                        let position = cursor.fetch_add(1, Ordering::Relaxed);
                        if let Stop::After(count) = stop {
                            if position >= first + count {
                                break;
                            }
                        }
                        let pool = stream[position % stream.len()];
                        let sent = Instant::now();
                        let reply = call(pool);
                        let latency = sent.elapsed();
                        mine.push(Sample {
                            pool,
                            done: started.elapsed(),
                            latency_us: latency.as_secs_f64() * 1e6,
                            reply,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    if let Stop::After(count) = stop {
        // Clients over-claim by one position each when they see the end.
        cursor.store(first + count, Ordering::Relaxed);
    }
    samples.sort_by_key(|s| s.done);
    samples
}

/// One lane of an interleaved pass: a way of answering a query (a decorated
/// engine, a plain engine, a server) over its own private stack.
pub type Lane<'a, R> = Box<dyn FnMut(u32, &[f32]) -> R + 'a>;

/// Run the same `count` requests through every lane on the calling thread,
/// alternating lanes every `block` requests so clock drift and machine noise
/// fall on all of them alike. Lanes own separate stacks, so interleaving
/// changes no lane's answers or counts. Returns one sample list per lane.
pub fn interleave<R>(
    lanes: &mut [Lane<'_, R>],
    pool: &[Vec<f32>],
    stream: &[u32],
    from: usize,
    count: usize,
    block: usize,
) -> Vec<Vec<Sample<R>>> {
    let started = Instant::now();
    let mut out: Vec<Vec<Sample<R>>> = lanes.iter().map(|_| Vec::with_capacity(count)).collect();
    let mut at = from;
    while at < from + count {
        let end = (at + block).min(from + count);
        for (lane, samples) in lanes.iter_mut().zip(&mut out) {
            for position in at..end {
                let entry = stream[position % stream.len()];
                let q = &pool[entry as usize];
                let sent = Instant::now();
                let reply = lane(position as u32, q);
                let latency = sent.elapsed();
                samples.push(Sample {
                    pool: entry,
                    done: started.elapsed(),
                    latency_us: latency.as_secs_f64() * 1e6,
                    reply,
                });
            }
        }
        at = end;
    }
    out
}

/// Throughput and latency of a timed window.
///
/// Which estimator each figure uses was chosen by measuring its spread over
/// repeated runs on the reference sandbox. The median is the *median
/// round's* median: a round's median is already a steady estimate, and
/// taking the median round shrugs off a second in which the machine was
/// busy elsewhere. The 95th percentile and the rate are taken over the
/// whole window: a one-second round of a 100 qps workload has five samples
/// beyond its p95, and on `ingest_mixed` rounds differ from each other by
/// design (the data grows), so the median round's p95 moved twice as much
/// between identical runs as the window's.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    /// Completions inside the window per second of window.
    pub qps: f64,
    /// Median over rounds of the round's median latency.
    pub p50_us: f64,
    /// 95th-percentile latency over the whole window.
    pub p95_us: f64,
    /// Requests that completed inside the window.
    pub samples: usize,
    /// Latency over the whole window (for the ungated tail).
    pub overall: Summary,
}

/// Rounds a window of `seconds` is split into: one per whole second, at
/// most ten, at least one.
pub fn rounds_for(seconds: f64) -> usize {
    (seconds.floor() as usize).clamp(1, 10)
}

/// Summarize `(completion time, latency µs)` pairs over `window`. Requests
/// completing after the window (in flight when it closed) are left out.
/// Returns `None` when nothing completed inside the window.
pub fn window_stats(
    done_latency: impl Iterator<Item = (Duration, f64)>,
    window: Duration,
) -> Option<WindowStats> {
    let rounds = rounds_for(window.as_secs_f64());
    let round_len = window.as_secs_f64() / rounds as f64;
    let mut per_round: Vec<Vec<f64>> = vec![Vec::new(); rounds];
    for (done, latency_us) in done_latency {
        if done < window {
            let round = ((done.as_secs_f64() / round_len) as usize).min(rounds - 1);
            per_round[round].push(latency_us);
        }
    }
    let all: Vec<f64> = per_round.iter().flatten().copied().collect();
    let overall = Summary::of(&all)?;
    let round_medians: Vec<f64> = per_round
        .iter()
        .filter_map(|r| Summary::of(r))
        .map(|s| s.p50)
        .collect();
    Some(WindowStats {
        qps: all.len() as f64 / window.as_secs_f64(),
        p50_us: median(&round_medians),
        p95_us: overall.p95,
        samples: all.len(),
        overall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_bounded_loop_serves_each_position_once_and_advances_the_cursor() {
        // Distinct entries, so an entry names the position it was drawn at.
        let stream: Vec<u32> = (100..120).collect();
        let cursor = AtomicUsize::new(3);
        let samples = closed_loop(2, &stream, &cursor, Stop::After(10), |pool| pool * 2);
        let mut served: Vec<u32> = samples.iter().map(|s| s.pool).collect();
        served.sort_unstable();
        assert_eq!(served, (103..113).collect::<Vec<u32>>());
        assert_eq!(cursor.load(Ordering::Relaxed), 13);
        assert!(samples.iter().all(|s| s.reply == s.pool * 2));
        // The next loop carries on where this one stopped.
        let more = closed_loop(1, &stream, &cursor, Stop::After(2), |pool| pool);
        assert_eq!(more.iter().map(|s| s.pool).collect::<Vec<_>>(), [113, 114]);
    }

    #[test]
    fn time_bounded_loop_stops_after_the_window() {
        let stream = [0u32];
        let cursor = AtomicUsize::new(0);
        let window = Duration::from_millis(30);
        let started = Instant::now();
        let samples = closed_loop(2, &stream, &cursor, Stop::At(window), |_| {
            std::thread::sleep(Duration::from_millis(1))
        });
        assert!(started.elapsed() >= window);
        assert!(samples.len() >= 4, "{}", samples.len());
        assert!(samples.windows(2).all(|w| w[0].done <= w[1].done));
    }

    #[test]
    fn interleave_gives_every_lane_the_same_requests() {
        let pool = vec![vec![1.0f32], vec![2.0]];
        let stream = [0u32, 1, 1];
        let mut lanes: Vec<Lane<'_, f32>> = vec![
            Box::new(|_, q: &[f32]| q[0]),
            Box::new(|_, q: &[f32]| q[0] * 10.0),
        ];
        let out = interleave(&mut lanes, &pool, &stream, 1, 5, 2);
        assert_eq!(out.len(), 2);
        let replies = |i: usize| out[i].iter().map(|s| s.reply).collect::<Vec<_>>();
        assert_eq!(replies(0), vec![2.0, 2.0, 1.0, 2.0, 2.0]);
        assert_eq!(replies(1), vec![20.0, 20.0, 10.0, 20.0, 20.0]);
        assert_eq!(
            out[0].iter().map(|s| s.pool).collect::<Vec<_>>(),
            vec![1, 1, 0, 1, 1]
        );
    }

    #[test]
    fn window_stats_take_the_median_round_median_and_drop_late_completions() {
        // 3 s window → 3 rounds. Round 0: 4 fast, round 1: 2, round 2: 4
        // with one slow; one completion after the window is ignored.
        let ms = Duration::from_millis;
        let data = vec![
            (ms(100), 10.0),
            (ms(200), 10.0),
            (ms(300), 10.0),
            (ms(400), 10.0),
            (ms(1100), 20.0),
            (ms(1200), 20.0),
            (ms(2100), 10.0),
            (ms(2200), 10.0),
            (ms(2300), 10.0),
            (ms(2400), 500.0),
            (ms(3100), 9999.0),
        ];
        let w = window_stats(data.into_iter(), Duration::from_secs(3)).expect("samples");
        assert_eq!(w.samples, 10);
        assert_eq!(w.qps, 10.0 / 3.0);
        assert_eq!(w.p50_us, 10.0, "median of round medians 10, 20, 10");
        assert_eq!(w.p95_us, 500.0, "the window's own 95th percentile");
        assert_eq!(w.overall.count, 10);
        assert!(window_stats(std::iter::empty(), Duration::from_secs(1)).is_none());
        assert_eq!(rounds_for(0.4), 1);
        assert_eq!(rounds_for(25.0), 10);
    }
}
