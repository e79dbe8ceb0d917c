//! Bounded stage queues with explicit backpressure accounting.
//!
//! The flight runtime's stages are decoupled by [`BoundedQueue`]s: a
//! mutex-and-condvar MPMC queue with a hard capacity and a declared
//! [`DropPolicy`]. Capacity pressure is never silent — a `Block` queue
//! stalls the producer (backpressure propagates upstream), a
//! `DropNewest` queue sheds the incoming item and counts it. Every queue
//! tracks pushes, drops, and the maximum depth it ever reached, so the
//! telemetry capture can show exactly where an overloaded runtime stood.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// What a full queue does with an incoming item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropPolicy {
    /// Block the producer until space frees up (lossless backpressure).
    Block,
    /// Reject the incoming item and count it as dropped (lossy ingest:
    /// the flight rule is "a late alert beats a lost runtime").
    DropNewest,
}

/// Counters describing a queue's lifetime behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Items accepted.
    pub pushed: u64,
    /// Items rejected by `DropNewest`.
    pub dropped: u64,
    /// Maximum depth ever reached.
    pub max_depth: usize,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    stats: QueueStats,
    closed: bool,
}

/// A bounded MPMC queue with close semantics: after
/// [`close`](BoundedQueue::close), pushes are rejected and pops drain the
/// remainder then return `None`. The flight runtime uses it SPSC; the
/// ground service's localization workers all pop one epoch queue.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    name: &'static str,
    capacity: usize,
    policy: DropPolicy,
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A new open queue. `capacity` must be nonzero.
    pub fn new(name: &'static str, capacity: usize, policy: DropPolicy) -> Self {
        assert!(capacity > 0, "queue `{name}` needs capacity >= 1");
        BoundedQueue {
            name,
            capacity,
            policy,
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                stats: QueueStats::default(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The queue's display name (telemetry gauge key).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Offer an item. Returns `true` if accepted; `false` if the queue
    /// is closed or the item was shed by `DropNewest`.
    pub fn push(&self, item: T) -> bool {
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.closed {
                return false;
            }
            if g.items.len() < self.capacity {
                g.items.push_back(item);
                g.stats.pushed += 1;
                let depth = g.items.len();
                if depth > g.stats.max_depth {
                    g.stats.max_depth = depth;
                }
                drop(g);
                self.not_empty.notify_one();
                return true;
            }
            match self.policy {
                DropPolicy::DropNewest => {
                    g.stats.dropped += 1;
                    return false;
                }
                DropPolicy::Block => {
                    g = self.not_full.wait(g).unwrap();
                }
            }
        }
    }

    /// Blocking pop: waits for an item; returns `None` once the queue is
    /// closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if let Some(item) = g.items.pop_front() {
                drop(g);
                self.not_full.notify_one();
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g).unwrap();
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        let mut g = self.inner.lock().unwrap();
        let item = g.items.pop_front();
        if item.is_some() {
            drop(g);
            self.not_full.notify_one();
        }
        item
    }

    /// Close the queue: pending pops drain the remainder, future pushes
    /// are rejected, blocked producers wake.
    pub fn close(&self) {
        let mut g = self.inner.lock().unwrap();
        g.closed = true;
        drop(g);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters.
    pub fn stats(&self) -> QueueStats {
        self.inner.lock().unwrap().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_and_stats() {
        let q = BoundedQueue::new("t", 8, DropPolicy::Block);
        for i in 0..5 {
            assert!(q.push(i));
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert_eq!(q.try_pop(), None);
        let s = q.stats();
        assert_eq!(s.pushed, 5);
        assert_eq!(s.dropped, 0);
        assert_eq!(s.max_depth, 5);
    }

    #[test]
    fn drop_newest_sheds_and_counts() {
        let q = BoundedQueue::new("t", 2, DropPolicy::DropNewest);
        assert!(q.push(1));
        assert!(q.push(2));
        assert!(!q.push(3), "over capacity: shed");
        assert!(!q.push(4));
        let s = q.stats();
        assert_eq!(s.pushed, 2);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.max_depth, 2);
        // the two accepted items survive in order
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
    }

    #[test]
    fn block_policy_applies_backpressure() {
        let q = Arc::new(BoundedQueue::new("t", 1, DropPolicy::Block));
        q.push(0);
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(1))
        };
        // the producer is blocked until this pop frees a slot
        thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.stats().dropped, 0);
    }

    #[test]
    fn concurrent_producers_slow_consumer_account_for_every_item() {
        // The shedding path under real multi-producer contention: eight
        // producers race into a tiny DropNewest queue while one
        // deliberately slow consumer drains it. Every produced item must
        // be accounted for exactly once — either consumed or counted as
        // dropped — and the queue must never exceed its capacity.
        const PRODUCERS: usize = 8;
        const PER_PRODUCER: u64 = 500;
        const CAPACITY: usize = 4;
        let q: Arc<BoundedQueue<u64>> =
            Arc::new(BoundedQueue::new("t", CAPACITY, DropPolicy::DropNewest));

        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut accepted = 0u64;
                    for i in 0..PER_PRODUCER {
                        if q.push(p as u64 * PER_PRODUCER + i) {
                            accepted += 1;
                        }
                        if i % 64 == 0 {
                            thread::yield_now();
                        }
                    }
                    accepted
                })
            })
            .collect();

        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut got = 0u64;
                while q.pop().is_some() {
                    got += 1;
                    // a slow consumer: drain far below the offered rate
                    if got.is_multiple_of(8) {
                        thread::sleep(std::time::Duration::from_micros(200));
                    }
                }
                got
            })
        };

        let accepted_by_producers: u64 = producers.into_iter().map(|h| h.join().unwrap()).sum();
        q.close();
        let consumed = consumer.join().unwrap();

        let s = q.stats();
        let offered = (PRODUCERS as u64) * PER_PRODUCER;
        assert_eq!(
            s.pushed + s.dropped,
            offered,
            "every offered item is either accepted or counted as shed"
        );
        assert_eq!(s.pushed, accepted_by_producers);
        assert_eq!(
            consumed, s.pushed,
            "the consumer drains exactly the accepted items"
        );
        assert!(
            s.dropped > 0,
            "a slow consumer against 8 producers must shed (got 0 drops)"
        );
        assert!(s.max_depth <= CAPACITY, "capacity is a hard bound");
    }

    #[test]
    fn concurrent_workers_drain_everything_exactly_once() {
        // The ground pool's shape: producers push while several workers
        // pop the same queue; every item reaches exactly one worker and
        // `close` releases every worker once the queue drains.
        const ITEMS: u64 = 2000;
        const PRODUCERS: u64 = 2;
        const WORKERS: usize = 4;
        let q: Arc<BoundedQueue<u64>> =
            Arc::new(BoundedQueue::new("t", usize::MAX, DropPolicy::Block));
        let consumers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = q.pop() {
                        got.push(item);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in (p..ITEMS).step_by(PRODUCERS as usize) {
                        assert!(q.push(i));
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len() as u64, ITEMS, "every item consumed");
        all.dedup();
        assert_eq!(all.len() as u64, ITEMS, "no item consumed twice");
        let s = q.stats();
        assert_eq!(s.pushed, ITEMS);
        assert_eq!(s.dropped, 0);
        assert!(s.max_depth > 0);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Arc::new(BoundedQueue::new("t", 8, DropPolicy::Block));
        q.push(1);
        q.push(2);
        q.close();
        assert!(!q.push(3), "closed queue rejects pushes");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        // a blocked consumer wakes on close
        let q2: Arc<BoundedQueue<i32>> = Arc::new(BoundedQueue::new("t", 1, DropPolicy::Block));
        let consumer = {
            let q2 = Arc::clone(&q2);
            thread::spawn(move || q2.pop())
        };
        thread::sleep(std::time::Duration::from_millis(20));
        q2.close();
        assert_eq!(consumer.join().unwrap(), None);
    }
}
