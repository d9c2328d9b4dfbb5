//! NUMA-aware task queues — the baseline extension described in §6.1.
//!
//! *"We created multiple task queues, one for each NUMA region. If a buffer
//! is located in region i, it is added to the i-th queue. A thread first
//! checks the task queue belonging to the local NUMA-region and only when
//! there is no local work to be done, will it check other queues."*
//!
//! [`claim`] is the simpler form a machine's cores use for a fixed task
//! list: a shared counter each core advances to take the next index.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

/// Claim the next of `n` tasks a machine's cores share through the
/// counter `next`: its index, or `None` once all are claimed. Every call
/// advances the counter, so tasks go out in index order, each once.
pub fn claim(next: &Cell<usize>, n: usize) -> Option<usize> {
    let i = next.get();
    next.set(i + 1);
    (i < n).then_some(i)
}

/// A set of per-region work queues with locality-preferring steal order.
pub struct NumaQueues<Task> {
    queues: Vec<RefCell<VecDeque<Task>>>,
}

impl<Task> NumaQueues<Task> {
    /// Create queues for `regions` NUMA regions (`regions >= 1`).
    pub fn new(regions: usize) -> NumaQueues<Task> {
        assert!(regions >= 1);
        NumaQueues {
            queues: (0..regions)
                .map(|_| RefCell::new(VecDeque::new()))
                .collect(),
        }
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.queues.len()
    }

    /// Add a task whose data lives in `region`.
    pub fn push(&self, region: usize, task: Task) {
        self.queues[region % self.queues.len()]
            .borrow_mut()
            .push_back(task);
    }

    /// Pop a task, preferring `local_region`, then scanning the other
    /// regions round-robin. Returns `None` when every queue is empty.
    pub fn pop(&self, local_region: usize) -> Option<Task> {
        let n = self.queues.len();
        let local = local_region % n;
        for i in 0..n {
            let q = (local + i) % n;
            if let Some(task) = self.queues[q].borrow_mut().pop_front() {
                return Some(task);
            }
        }
        None
    }

    /// Pop the first task satisfying `pred`, preferring `local_region`.
    /// Used by the inter-machine work-sharing extension, which may only
    /// steal self-contained tasks.
    pub fn pop_if<F: Fn(&Task) -> bool>(&self, local_region: usize, pred: F) -> Option<Task> {
        let n = self.queues.len();
        let local = local_region % n;
        for i in 0..n {
            let q = (local + i) % n;
            let mut queue = self.queues[q].borrow_mut();
            if let Some(pos) = queue.iter().position(&pred) {
                return queue.remove(pos);
            }
        }
        None
    }

    /// Total queued tasks across all regions.
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.borrow().len()).sum()
    }

    /// Whether all queues are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_go_out_in_order_once_each() {
        let next = Cell::new(0);
        let got: Vec<_> = std::iter::from_fn(|| claim(&next, 3)).collect();
        assert_eq!(got, [0, 1, 2]);
        assert_eq!(claim(&next, 3), None, "exhausted stays exhausted");
    }

    #[test]
    fn local_work_is_preferred() {
        let q = NumaQueues::new(2);
        q.push(0, "r0-task");
        q.push(1, "r1-task");
        assert_eq!(q.pop(1), Some("r1-task"));
        assert_eq!(q.pop(1), Some("r0-task"), "steals once local is empty");
        assert_eq!(q.pop(1), None);
    }

    #[test]
    fn fifo_within_region() {
        let q = NumaQueues::new(1);
        for i in 0..5 {
            q.push(0, i);
        }
        assert_eq!(
            (0..5).map(|_| q.pop(0).unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn region_indices_wrap() {
        let q = NumaQueues::new(3);
        q.push(7, 'x'); // region 7 % 3 == 1
        assert_eq!(q.pop(4), Some('x')); // local 4 % 3 == 1
        assert!(q.is_empty());
    }
}
