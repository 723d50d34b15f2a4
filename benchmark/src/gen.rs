//! Seeded input generators. Everything the program is asked to do comes
//! from here, so the same `--seed` replays the same requests, windows
//! and arrival times; the program itself never sees the seed.

/// splitmix64: small, fast, and good enough to drive a workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Cycles through a freshly shuffled copy of `items` forever: every
/// item appears exactly once per `items.len()` draws, in seeded order.
/// Keeps a mix's proportions exact over any whole number of rounds, so
/// byte counts repeat and medians are not moved by a lucky draw.
#[derive(Debug, Clone)]
pub struct Deck<T: Copy> {
    items: Vec<T>,
    next: usize,
    rng: Rng,
}

impl<T: Copy> Deck<T> {
    pub fn new(items: Vec<T>, rng: Rng) -> Self {
        assert!(!items.is_empty(), "a deck needs cards");
        let next = items.len();
        Self { items, next, rng }
    }

    pub fn draw(&mut self) -> T {
        if self.next == self.items.len() {
            self.rng.shuffle(&mut self.items);
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// Poisson arrival times in seconds from 0: exponential gaps with mean
/// `1 / rate`. The count is fixed, so the offered work is identical
/// between runs and only the (seeded) spacing is random.
pub fn poisson_arrivals(rng: &mut Rng, rate_per_s: f64, count: usize) -> Vec<f64> {
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate_per_s;
            t
        })
        .collect()
}

/// One request of the serving mix, as plain data (indices into the
/// campaign's levels and the 4x4 grid of region windows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    Base,
    Level(u32),
    Region(u32),
}

impl Req {
    pub fn is_quick(self) -> bool {
        self == Req::Base
    }
}

pub const REGION_GRID: u32 = 4;

/// The repo's standing serving mix — 50% base quick looks, 20% region
/// refinements over a 4x4 grid of windows, 30% whole-level restores
/// uniform over the levels — dealt from decks so the shares are exact.
pub fn serve_mix(seed: u64, levels: u32, count: usize) -> Vec<Req> {
    #[derive(Clone, Copy)]
    enum Kind {
        Base,
        Level,
        Region,
    }
    use Kind::*;
    let mut kinds = Deck::new(
        vec![
            Base, Base, Base, Base, Base, Region, Region, Level, Level, Level,
        ],
        Rng::new(seed ^ 0x006d_6978),
    );
    let mut level = Deck::new((0..levels).collect(), Rng::new(seed ^ 0x006c_766c));
    let mut window = Deck::new(
        (0..REGION_GRID * REGION_GRID).collect(),
        Rng::new(seed ^ 0x0077_696e),
    );
    (0..count)
        .map(|_| match kinds.draw() {
            Base => Req::Base,
            Level => Req::Level(level.draw()),
            Region => Req::Region(window.draw()),
        })
        .collect()
}

/// One zoom target: a mesh vertex to centre on and the window's side as
/// a fraction of the bounding box's side (area share = `side²`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zoom {
    pub vertex: usize,
    pub side: f64,
}

/// Zoom targets: a seeded vertex, and window areas of 1/64, 1/16 and
/// 1/4 of the bounding box in exact thirds.
pub struct ZoomGen {
    rng: Rng,
    sides: Deck<f64>,
    vertices: usize,
}

impl ZoomGen {
    pub fn new(seed: u64, vertices: usize) -> Self {
        Self {
            rng: Rng::new(seed ^ 0x7a6f_6f6d),
            sides: Deck::new(vec![0.125, 0.25, 0.5], Rng::new(seed ^ 0x7369_6465)),
            vertices,
        }
    }

    pub fn draw(&mut self) -> Zoom {
        Zoom {
            vertex: self.rng.below(self.vertices),
            side: self.sides.draw(),
        }
    }
}

/// FNV-1a accumulator for `workload_hash`: identical seeds must yield
/// identical generated inputs, and this is how a run proves it.
#[derive(Debug, Clone, Copy)]
pub struct InputHash(u64);

impl Default for InputHash {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl InputHash {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn req(&mut self, r: Req) {
        match r {
            Req::Base => self.u64(0),
            Req::Level(l) => self.u64(1 << 32 | l as u64),
            Req::Region(w) => self.u64(2 << 32 | w as u64),
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(serve_mix(7, 5, 500), serve_mix(7, 5, 500));
        assert_ne!(serve_mix(7, 5, 500), serve_mix(8, 5, 500));
        let a = poisson_arrivals(&mut Rng::new(7), 200.0, 500);
        assert_eq!(a, poisson_arrivals(&mut Rng::new(7), 200.0, 500));
        assert_ne!(a, poisson_arrivals(&mut Rng::new(8), 200.0, 500));
        let zooms = |s| {
            let mut g = ZoomGen::new(s, 1000);
            (0..30).map(|_| g.draw()).collect::<Vec<_>>()
        };
        assert_eq!(zooms(7), zooms(7));
        assert_ne!(zooms(7), zooms(8));
    }

    #[test]
    fn mix_shares_are_exact_per_round() {
        let mix = serve_mix(42, 5, 1000);
        let base = mix.iter().filter(|r| r.is_quick()).count();
        let region = mix.iter().filter(|r| matches!(r, Req::Region(_))).count();
        assert_eq!((base, region), (500, 200));
        // 300 level requests over 5 levels: 60 each.
        for l in 0..5 {
            assert_eq!(mix.iter().filter(|&&r| r == Req::Level(l)).count(), 60);
        }
        // 200 region requests over 16 windows: 12 or 13 each.
        for w in 0..16 {
            let n = mix.iter().filter(|&&r| r == Req::Region(w)).count();
            assert!((12..=13).contains(&n), "window {w} drawn {n} times");
        }
    }

    #[test]
    fn poisson_arrivals_increase_at_the_asked_rate() {
        let a = poisson_arrivals(&mut Rng::new(1), 200.0, 20_000);
        assert!(a.windows(2).all(|w| w[1] > w[0]));
        let rate = a.len() as f64 / a.last().unwrap();
        assert!((rate - 200.0).abs() < 6.0, "rate {rate}");
        // Exponential gaps: the standard deviation equals the mean.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - m).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((var.sqrt() / m - 1.0).abs() < 0.05, "cv {}", var.sqrt() / m);
    }

    #[test]
    fn zoom_sizes_come_in_exact_thirds() {
        let mut g = ZoomGen::new(3, 50);
        let sides: Vec<f64> = (0..30).map(|_| g.draw().side).collect();
        for s in [0.125, 0.25, 0.5] {
            assert_eq!(sides.iter().filter(|&&x| x == s).count(), 10);
        }
    }

    #[test]
    fn input_hash_depends_on_every_item() {
        let hash = |reqs: &[Req]| {
            let mut h = InputHash::new();
            reqs.iter().for_each(|&r| h.req(r));
            h.finish()
        };
        let a = hash(&[Req::Base, Req::Level(1), Req::Region(1)]);
        assert_eq!(a, hash(&[Req::Base, Req::Level(1), Req::Region(1)]));
        assert_ne!(a, hash(&[Req::Base, Req::Region(1), Req::Level(1)]));
        assert_ne!(a, hash(&[Req::Base, Req::Level(1), Req::Region(2)]));
    }
}
