//! Replay buffers specialized to worst-case training data.

use rand::Rng;

/// Replay buffer of `(design, worst-case reward)` pairs — the paper's
/// `B_worst`.
///
/// Per Algorithm 1, only the worst reward across the `N'` sampled
/// variation conditions of an iteration is stored.
#[derive(Debug, Clone, Default)]
pub struct WorstCaseReplayBuffer {
    designs: Vec<Vec<f64>>,
    rewards: Vec<f64>,
}

impl WorstCaseReplayBuffer {
    /// Creates an unbounded buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores one `(design, worst reward)` pair.
    pub fn push(&mut self, design: Vec<f64>, worst_reward: f64) {
        self.designs.push(design);
        self.rewards.push(worst_reward);
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.designs.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.designs.is_empty()
    }

    /// Samples `batch` pairs with replacement, handing each
    /// `(design, worst reward)` to `f` in draw order. Draws nothing when the
    /// buffer is empty.
    pub fn sample_each<R: Rng + ?Sized>(
        &self,
        batch: usize,
        rng: &mut R,
        mut f: impl FnMut(&[f64], f64),
    ) {
        if self.is_empty() {
            return;
        }
        for _ in 0..batch {
            let i = rng.gen_range(0..self.designs.len());
            f(&self.designs[i], self.rewards[i]);
        }
    }

    /// The stored entry with the highest worst-case reward, if any.
    pub fn best(&self) -> Option<(&[f64], f64)> {
        self.rewards
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("rewards are finite"))
            .map(|(i, &r)| (self.designs[i].as_slice(), r))
    }
}

/// Tracks the most recent worst-case reward seen at each corner — the
/// paper's "last worst-case buffer", used both to select the worst corner
/// during optimization and to order corners in verification (Alg. 2).
#[derive(Debug, Clone)]
pub struct LastWorstBuffer {
    rewards: Vec<f64>,
}

impl LastWorstBuffer {
    /// Creates a buffer for `n_corners` corners, all initialized to the
    /// pessimistic `-∞`-like sentinel so unvisited corners sort worst.
    ///
    /// # Panics
    ///
    /// Panics if `n_corners == 0`.
    pub fn new(n_corners: usize) -> Self {
        assert!(n_corners > 0, "need at least one corner");
        Self { rewards: vec![f64::NEG_INFINITY; n_corners] }
    }

    /// Number of tracked corners.
    pub fn len(&self) -> usize {
        self.rewards.len()
    }

    /// Whether no corners are tracked (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.rewards.is_empty()
    }

    /// Records the latest worst reward observed at `corner`.
    ///
    /// # Panics
    ///
    /// Panics if `corner` is out of range.
    pub fn record(&mut self, corner: usize, worst_reward: f64) {
        self.rewards[corner] = worst_reward;
    }

    /// Last worst reward of `corner` (`-∞` if never recorded).
    pub fn last(&self, corner: usize) -> f64 {
        self.rewards[corner]
    }

    /// The corner with the lowest last worst-case reward (ties → lowest
    /// index, deterministic).
    pub fn worst_corner(&self) -> usize {
        let mut best_idx = 0;
        let mut best_val = f64::INFINITY;
        for (i, &r) in self.rewards.iter().enumerate() {
            if r < best_val {
                best_val = r;
                best_idx = i;
            }
        }
        best_idx
    }

    /// Corner indices sorted worst-first (ascending last reward, ties by
    /// index).
    pub fn corners_worst_first(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.rewards.len()).collect();
        order.sort_by(|&a, &b| {
            self.rewards[a]
                .partial_cmp(&self.rewards[b])
                .expect("rewards are comparable")
                .then(a.cmp(&b))
        });
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova_stats::rng::seeded;

    #[test]
    fn push_and_sample() {
        let mut buf = WorstCaseReplayBuffer::new();
        buf.push(vec![0.1, 0.2], -1.0);
        buf.push(vec![0.3, 0.4], 0.2);
        assert_eq!(buf.len(), 2);
        let mut rng = seeded(1);
        let mut batch = Vec::new();
        buf.sample_each(10, &mut rng, |x, r| batch.push((x.to_vec(), r)));
        assert_eq!(batch.len(), 10);
        assert!(batch.iter().all(|(x, r)| x.len() == 2 && (*r == -1.0 || *r == 0.2)));
    }

    #[test]
    fn empty_sample_is_empty() {
        let buf = WorstCaseReplayBuffer::new();
        let mut rng = seeded(2);
        let mut drawn = 0;
        buf.sample_each(5, &mut rng, |_, _| drawn += 1);
        assert_eq!(drawn, 0);
        assert_eq!(rng, seeded(2), "an empty buffer draws no randomness");
        assert!(buf.best().is_none());
    }

    #[test]
    fn best_returns_max_reward() {
        let mut buf = WorstCaseReplayBuffer::new();
        buf.push(vec![1.0], -0.5);
        buf.push(vec![2.0], 0.2);
        buf.push(vec![3.0], -0.1);
        let (x, r) = buf.best().unwrap();
        assert_eq!(r, 0.2);
        assert_eq!(x, &[2.0]);
    }

    #[test]
    fn last_worst_tracks_minimum() {
        let mut lw = LastWorstBuffer::new(3);
        assert_eq!(lw.worst_corner(), 0); // all -inf, ties → 0
        lw.record(0, 0.2);
        lw.record(1, -0.7);
        lw.record(2, 0.1);
        assert_eq!(lw.worst_corner(), 1);
        assert_eq!(lw.corners_worst_first(), vec![1, 2, 0]);
    }

    #[test]
    fn unvisited_corners_sort_first() {
        let mut lw = LastWorstBuffer::new(3);
        lw.record(0, 0.2);
        // Corners 1 and 2 unvisited (−∞): they must come first.
        let order = lw.corners_worst_first();
        assert_eq!(order[2], 0);
    }

    #[test]
    #[should_panic(expected = "at least one corner")]
    fn zero_corners_panics() {
        LastWorstBuffer::new(0);
    }
}
