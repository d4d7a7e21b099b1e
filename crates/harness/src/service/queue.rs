//! Request queue primitives of a shard's worker pool.
//!
//! Two queues drive the pipeline:
//!
//! * [`BatchQueue`] — the injector the whole batch is submitted to. Workers
//!   *claim* queries with a single atomic fetch-add, which is both the
//!   cheapest possible MPMC pop for an indexed batch and a work-stealing
//!   discipline: an idle worker always takes the next unstarted query, so
//!   load balances dynamically no matter how skewed per-query costs are.
//!   Claiming also timestamps the query's queue wait.
//! * [`StealDeque`] — one double-ended verify queue per worker. The owning
//!   worker pushes filtered jobs to the back and pops from the back (LIFO —
//!   its freshest arena contents stay cache-hot); idle workers steal from
//!   the front (FIFO — the oldest parked job has waited longest).

use sqbench_graph::Graph;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The filter-stage injector: an indexed batch of queries plus an atomic
/// cursor. See the module docs for the claiming discipline.
pub struct BatchQueue<'q> {
    queries: &'q [&'q Graph],
    /// Optional per-query deadlines, indexed like `queries`. A query whose
    /// deadline has passed when a worker claims it is skipped, independent
    /// of the batch-wide deadline — this is how the open admission path
    /// honours the deadline each caller attached at `submit` time.
    deadlines: Option<&'q [Option<Instant>]>,
    next: AtomicUsize,
    /// Claimed-but-unrecorded queries: incremented by [`BatchQueue::claim`],
    /// decremented by [`BatchQueue::complete_one`]. Workers may only exit
    /// when the cursor is exhausted *and* this is zero.
    in_flight: AtomicUsize,
    started: Instant,
}

impl<'q> BatchQueue<'q> {
    /// Wraps a batch of queries as a queue, attaching an optional
    /// per-query deadline slice (indexed like `queries`; `None` entries
    /// mean no individual deadline). Queue waits are measured from this
    /// call.
    ///
    /// # Panics
    ///
    /// Panics when the deadline slice length differs from the batch length.
    pub fn with_deadlines(
        queries: &'q [&'q Graph],
        deadlines: Option<&'q [Option<Instant>]>,
    ) -> Self {
        if let Some(d) = deadlines {
            assert_eq!(
                d.len(),
                queries.len(),
                "per-query deadline slice must match the batch length"
            );
        }
        BatchQueue {
            queries,
            deadlines,
            next: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            started: Instant::now(),
        }
    }

    /// The individual deadline attached to query `idx`, if any.
    pub fn deadline_of(&self, idx: usize) -> Option<Instant> {
        self.deadlines.and_then(|d| d.get(idx).copied().flatten())
    }

    /// Claims the next unstarted query: `(index, query, queue wait in
    /// seconds)`. Returns `None` once every query has been claimed. The
    /// claim counts as in-flight until [`BatchQueue::complete_one`] is
    /// called for it.
    pub fn claim(&self) -> Option<(usize, &'q Graph, f64)> {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        let query = self.queries.get(idx)?;
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        Some((idx, query, self.started.elapsed().as_secs_f64()))
    }

    /// Marks one claimed query as fully processed (verified or skipped).
    pub fn complete_one(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// `true` when every query has been claimed *and* recorded — the
    /// worker-pool exit condition.
    pub fn drained(&self) -> bool {
        self.next.load(Ordering::SeqCst) >= self.queries.len()
            && self.in_flight.load(Ordering::SeqCst) == 0
    }
}

/// A mutex-guarded double-ended job queue with owner-LIFO / thief-FIFO
/// semantics. The service keeps one per worker for parked verify jobs.
pub struct StealDeque<T> {
    jobs: Mutex<VecDeque<T>>,
}

impl<T> Default for StealDeque<T> {
    fn default() -> Self {
        StealDeque {
            jobs: Mutex::new(VecDeque::new()),
        }
    }
}

impl<T> StealDeque<T> {
    /// Poison-tolerant lock. The guarded `VecDeque` operations are single
    /// push/pop calls that either complete or leave the deque untouched, so
    /// a panic on some *other* worker's stack (per-query faults are caught,
    /// but defence in depth) must not cascade into every queue access —
    /// recover the guard instead.
    fn jobs(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pushes a job at the owner's end.
    pub fn push(&self, job: T) {
        self.jobs().push_back(job);
    }

    /// Pops the owner's most recently pushed job.
    pub fn pop(&self) -> Option<T> {
        self.jobs().pop_back()
    }

    /// Steals the oldest parked job (called by other workers).
    pub fn steal(&self) -> Option<T> {
        self.jobs().pop_front()
    }

    /// Number of parked jobs.
    pub fn len(&self) -> usize {
        self.jobs().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_graph::Graph;

    #[test]
    fn claims_are_exclusive_and_ordered() {
        let g = Graph::new("q");
        let queries: Vec<&Graph> = vec![&g, &g, &g];
        let queue = BatchQueue::with_deadlines(&queries, None);
        let (i0, _, w0) = queue.claim().unwrap();
        let (i1, _, _) = queue.claim().unwrap();
        let (i2, _, _) = queue.claim().unwrap();
        assert_eq!((i0, i1, i2), (0, 1, 2));
        assert!(w0 >= 0.0);
        assert!(queue.claim().is_none());
        assert!(!queue.drained());
        queue.complete_one();
        queue.complete_one();
        queue.complete_one();
        assert!(queue.drained());
    }

    #[test]
    fn per_query_deadlines_are_indexed_like_the_batch() {
        let g = Graph::new("q");
        let queries: Vec<&Graph> = vec![&g, &g];
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let deadlines = [Some(past), None];
        let queue = BatchQueue::with_deadlines(&queries, Some(&deadlines));
        assert_eq!(queue.deadline_of(0), Some(past));
        assert_eq!(queue.deadline_of(1), None);
        assert_eq!(queue.deadline_of(7), None); // out of range is just "none"
        let plain = BatchQueue::with_deadlines(&queries, None);
        assert_eq!(plain.deadline_of(0), None);
    }

    #[test]
    #[should_panic(expected = "deadline slice must match")]
    fn mismatched_deadline_slice_panics() {
        let g = Graph::new("q");
        let queries: Vec<&Graph> = vec![&g, &g];
        let deadlines = [None];
        let _ = BatchQueue::with_deadlines(&queries, Some(&deadlines));
    }

    #[test]
    fn empty_batch_is_immediately_drained() {
        let queries: Vec<&Graph> = Vec::new();
        let queue = BatchQueue::with_deadlines(&queries, None);
        assert!(queue.claim().is_none());
        assert!(queue.drained());
    }

    #[test]
    fn deque_owner_lifo_thief_fifo() {
        let deque: StealDeque<u32> = StealDeque::default();
        deque.push(1);
        deque.push(2);
        deque.push(3);
        assert_eq!(deque.len(), 3);
        assert_eq!(deque.steal(), Some(1)); // oldest
        assert_eq!(deque.pop(), Some(3)); // newest
        assert_eq!(deque.pop(), Some(2));
        assert_eq!(deque.len(), 0);
        assert_eq!(deque.pop(), None);
        assert_eq!(deque.steal(), None);
    }
}
