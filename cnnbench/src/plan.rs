//! Seeded inputs: model draws and the open-loop request schedule. Every
//! input a run feeds the program is a pure function of the workload seed.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Every (model, device) cell once, in a seeded order.
pub fn cell_order(models: &[String], devices: &[String], seed: u64) -> Vec<(String, String)> {
    let mut cells: Vec<(String, String)> = models
        .iter()
        .flat_map(|m| devices.iter().map(move |d| (m.clone(), d.clone())))
        .collect();
    Rng::new(seed).shuffle(&mut cells);
    cells
}

/// QoS class of a request, as named on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Qos {
    Interactive,
    Batch,
    BestEffort,
}

impl Qos {
    pub const ALL: [Qos; 3] = [Qos::Interactive, Qos::Batch, Qos::BestEffort];

    pub fn name(self) -> &'static str {
        match self {
            Qos::Interactive => "interactive",
            Qos::Batch => "batch",
            Qos::BestEffort => "best-effort",
        }
    }

    /// One block of ten requests: 50 % interactive, 30 % batch and 20 %
    /// best-effort, in a seeded order. Exact per block, so a schedule of
    /// `n` requests holds a known number of each class.
    fn block(rng: &mut Rng) -> [Qos; 10] {
        let mut block = [Qos::Interactive; 10];
        block[5..8].fill(Qos::Batch);
        block[8..].fill(Qos::BestEffort);
        rng.shuffle(&mut block);
        block
    }

    /// Requests in a schedule of `n` that belong to this class, at least.
    #[cfg(test)]
    pub fn at_least(self, n: usize) -> usize {
        let per_block = match self {
            Qos::Interactive => 5,
            Qos::Batch => 3,
            Qos::BestEffort => 2,
        };
        n / 10 * per_block
    }
}

/// One scheduled request: due `due_us` after the schedule starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub due_us: u64,
    pub key: usize,
    pub qos: Qos,
}

/// Zipf(0.5) popularity over `keys` keys, with the popularity order
/// itself a seeded permutation: hot keys make some concurrent requests
/// coalesce, while most requests still cost the server a lookup.
#[derive(Debug, Clone)]
pub struct KeySkew {
    order: Vec<usize>,
    cumulative: Vec<f64>,
}

impl KeySkew {
    pub fn new(keys: usize, rng: &mut Rng) -> Self {
        let mut order: Vec<usize> = (0..keys).collect();
        rng.shuffle(&mut order);
        let mut acc = 0.0;
        let mut cumulative: Vec<f64> = (0..keys)
            .map(|rank| {
                acc += 1.0 / ((rank + 1) as f64).sqrt();
                acc
            })
            .collect();
        for c in &mut cumulative {
            *c /= acc;
        }
        KeySkew { order, cumulative }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cumulative
            .partition_point(|&c| c <= u)
            .min(self.order.len() - 1);
        self.order[rank]
    }
}

/// `count` Poisson arrivals at `rate_per_s`, keys drawn from `skew`,
/// classes in seeded blocks of ten ([`Qos::at_least`]).
pub fn schedule(rate_per_s: f64, count: usize, skew: &KeySkew, rng: &mut Rng) -> Vec<Req> {
    let mut t_s = 0.0;
    let mut block = [Qos::Interactive; 10];
    (0..count)
        .map(|i| {
            if i % 10 == 0 {
                block = Qos::block(rng);
            }
            t_s += -(1.0 - rng.unit()).ln() / rate_per_s;
            Req {
                due_us: (t_s * 1e6) as u64,
                key: skew.draw(rng),
                qos: block[i % 10],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(prefix: &str, n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{prefix}{i}")).collect()
    }

    #[test]
    fn same_seed_same_cell_order_other_seed_other_order() {
        let (models, devices) = (names("m", 12), names("d", 9));
        let a = cell_order(&models, &devices, 1);
        assert_eq!(a, cell_order(&models, &devices, 1));
        assert_ne!(a, cell_order(&models, &devices, 2));
        let mut sorted = a.clone();
        sorted.sort();
        let mut all = cell_order(&models, &devices, 3);
        all.sort();
        assert_eq!(sorted, all, "every cell exactly once, whatever the seed");
        assert_eq!(a.len(), 108);
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let make = |seed| {
            let mut rng = Rng::new(seed);
            let skew = KeySkew::new(72, &mut rng);
            schedule(500.0, 400, &skew, &mut rng)
        };
        assert_eq!(make(7), make(7));
        assert_ne!(make(7), make(8));
    }

    #[test]
    fn schedule_has_the_requested_rate_and_mix() {
        let mut rng = Rng::new(3);
        let skew = KeySkew::new(72, &mut rng);
        let reqs = schedule(1000.0, 20_000, &skew, &mut rng);
        let span_s = reqs.last().unwrap().due_us as f64 / 1e6;
        assert!((span_s - 20.0).abs() < 1.0, "{span_s}");
        assert!(reqs.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        for n in [20_000, 3_407, 9] {
            let head = &reqs[..n];
            for q in Qos::ALL {
                let got = head.iter().filter(|r| r.qos == q).count();
                assert!(got >= q.at_least(n), "{q:?}: {got} of {n}");
            }
        }
        let share = |q| reqs.iter().filter(|r| r.qos == q).count() as f64 / reqs.len() as f64;
        assert_eq!(share(Qos::Interactive), 0.5);
        assert_eq!(share(Qos::Batch), 0.3);
        assert_eq!(share(Qos::BestEffort), 0.2);
    }

    #[test]
    fn key_skew_makes_a_few_keys_hot() {
        let mut rng = Rng::new(5);
        let skew = KeySkew::new(72, &mut rng);
        let mut hits = [0usize; 72];
        for _ in 0..10_000 {
            hits[skew.draw(&mut rng)] += 1;
        }
        hits.sort_unstable();
        let top4: usize = hits[68..].iter().sum();
        // Zipf(0.5) over 72 keys gives the top four ~18 % of the draws
        assert!(
            (1_400..2_300).contains(&top4),
            "top keys drew {top4} of 10000"
        );
        assert!(hits[0] > 0, "every key stays reachable");
    }
}
