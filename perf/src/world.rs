//! What every query workload shares: the dataset, the query pool, the C2LSH
//! index, and the HFF ranking and HC-O scheme built from the replayed history.
//!
//! The corpus is the preset's own: `--seed` drives what is *asked* of it —
//! request draws, fault schedules, the mutation stream — not the corpus. A
//! corpus redrawn per seed moves C2LSH candidate counts, and with them qps
//! by ±12% and pages per query by ±13% between seeds: several times any
//! regression bound, so no run-to-run comparison would resolve.

use std::sync::Arc;

use hc_core::dataset::{Dataset, PointId};
use hc_core::histogram::HistogramKind;
use hc_core::quantize::Quantizer;
use hc_core::scheme::{ApproxScheme, GlobalScheme};
use hc_index::{C2lsh, C2lshParams};
use hc_query::replay_workload;
use hc_workload::zipf::Zipf;
use hc_workload::{Preset, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result size of every query in the benchmark.
pub const K: usize = 10;
/// Code length of the global HC-O scheme.
pub const TAU: u32 = 8;
/// Exponent of the skewed request streams (the preset's own popularity).
pub const ZIPF_S: f64 = 0.8;

/// SplitMix64 finalizer: spreads small seeds (1, 2, 3 …) over the whole
/// word so derived streams do not start correlated.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The NUS-WIDE-like world at full scale.
pub struct World {
    /// The searchable dataset (query pool already removed).
    pub dataset: Arc<Dataset>,
    /// Distinct query points; request streams index into this.
    pub pool: Vec<Vec<f32>>,
    pub index: Arc<C2lsh>,
    /// Candidate ids by descending replayed frequency (the HFF fill order).
    pub ranking: Vec<PointId>,
    pub quantizer: Quantizer,
    /// HC-O (kNN-optimal) global scheme at [`TAU`] bits.
    pub scheme: Arc<dyn ApproxScheme>,
}

impl World {
    pub fn build() -> Self {
        let log = Preset::nus_wide(Scale::Full).instantiate();
        let dataset = Arc::new(log.dataset);
        let index = Arc::new(C2lsh::build(&dataset, C2lshParams::default()));
        let replay = replay_workload(index.as_ref(), &dataset, &log.workload, K);
        let quantizer = Quantizer::for_range(dataset.value_range());
        let f_prime = replay.f_prime(&dataset, &quantizer);
        let hist = HistogramKind::KnnOptimal.build(&f_prime, 1u32 << TAU);
        let scheme: Arc<dyn ApproxScheme> =
            Arc::new(GlobalScheme::new(hist, quantizer.clone(), dataset.dim()));
        Self {
            dataset,
            pool: log.pool,
            index,
            ranking: replay.ranking,
            quantizer,
            scheme,
        }
    }

    /// Bytes of the paged point file — what cache budgets are shares of.
    pub fn file_bytes(&self) -> usize {
        self.dataset.file_bytes()
    }
}

/// How a request stream picks pool entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Draw {
    /// Zipf([`ZIPF_S`]) over the pool: rank 0 is the most popular entry,
    /// the same popularity the history was drawn with.
    Zipf,
    /// Every pool entry equally likely: no temporal locality to exploit.
    Uniform,
}

/// `len` pool indices drawn from `seed`. Time-bounded runs wrap around it.
pub fn request_stream(pool: usize, draw: Draw, seed: u64, len: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5712_EA11));
    match draw {
        Draw::Zipf => {
            let zipf = Zipf::new(pool, ZIPF_S);
            (0..len).map(|_| zipf.sample(&mut rng) as u32).collect()
        }
        Draw::Uniform => (0..len).map(|_| rng.gen_range(0..pool) as u32).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let a = request_stream(400, Draw::Zipf, 1, 1000);
        assert_eq!(a, request_stream(400, Draw::Zipf, 1, 1000));
        assert_ne!(a, request_stream(400, Draw::Zipf, 2, 1000));
        assert!(a.iter().all(|&i| i < 400));
        // Zipf favours low ranks; uniform does not.
        let low = |s: &[u32]| s.iter().filter(|&&i| i < 40).count();
        let u = request_stream(400, Draw::Uniform, 1, 1000);
        assert!(low(&a) > 2 * low(&u), "{} vs {}", low(&a), low(&u));
    }

    #[test]
    fn mix_separates_adjacent_seeds() {
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
    }
}
