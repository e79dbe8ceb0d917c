//! The work-stealing, deadline-slack-prioritized task pool.
//!
//! Localization epochs are rare but expensive (tens of milliseconds); the
//! pool's job is to keep every worker busy on the *most urgent* epoch
//! available without funneling hundreds of streams through one hot lock.
//! Each worker owns a shard: a binary heap ordered by absolute alert
//! deadline (earliest first — EDF). Producers push to the shard chosen by
//! a stream-id hint, so a stream's epochs stay on one worker's shard when
//! the fleet is balanced; an idle worker scans the sibling shards, finds
//! the most urgent runnable task anywhere, and *steals* it. Stealing is
//! counted — a high steal rate means the hint distribution is skewed and
//! the pool is actively rebalancing.
//!
//! The deadline-slack ordering is what keeps the degradation ladder quiet
//! on healthy streams: a stream that is behind surfaces first, burns its
//! remaining budget visibly, and degrades *alone* — the epochs queued
//! behind it from healthy streams still run at full quality.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtOrd};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// A task with its scheduling key: absolute deadline plus an admission
/// sequence number that breaks ties deterministically.
struct Prioritized<T> {
    deadline: Instant,
    seq: u64,
    task: T,
}

impl<T> PartialEq for Prioritized<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl<T> Eq for Prioritized<T> {}
impl<T> PartialOrd for Prioritized<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Prioritized<T> {
    /// Reversed so the max-heap pops the *earliest* deadline first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .deadline
            .cmp(&self.deadline)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Lifetime counters of a pool run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Tasks admitted.
    pub pushed: u64,
    /// Tasks an idle worker took from a sibling's shard.
    pub stolen: u64,
    /// Maximum tasks pending across all shards at once.
    pub max_pending: usize,
}

struct Gate {
    pending: usize,
    closed: bool,
}

/// A sharded, work-stealing priority pool. One shard per worker; `push`
/// routes by hint, `pop` prefers the worker's own shard and steals the
/// most urgent task from the busiest point of the pool otherwise.
pub struct WorkStealingPool<T> {
    shards: Vec<Mutex<BinaryHeap<Prioritized<T>>>>,
    gate: Mutex<Gate>,
    available: Condvar,
    seq: AtomicU64,
    pushed: AtomicU64,
    stolen: AtomicU64,
    max_pending: AtomicUsize,
}

impl<T> WorkStealingPool<T> {
    /// A pool with one shard per worker. `workers` must be nonzero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "the pool needs at least one worker shard");
        WorkStealingPool {
            shards: (0..workers)
                .map(|_| Mutex::new(BinaryHeap::new()))
                .collect(),
            gate: Mutex::new(Gate {
                pending: 0,
                closed: false,
            }),
            available: Condvar::new(),
            seq: AtomicU64::new(0),
            pushed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            max_pending: AtomicUsize::new(0),
        }
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Tasks currently pending across all shards.
    pub fn pending(&self) -> usize {
        self.gate.lock().unwrap().pending
    }

    /// Admit a task. `hint` selects the home shard (`hint % workers`);
    /// `deadline` is the absolute instant the task's alert is due.
    pub fn push(&self, hint: usize, deadline: Instant, task: T) {
        let seq = self.seq.fetch_add(1, AtOrd::Relaxed);
        let shard = hint % self.shards.len();
        // count the task before a worker can see it: a take that beat
        // the count would underflow `pending`
        let mut gate = self.gate.lock().unwrap();
        gate.pending += 1;
        let pending = gate.pending;
        drop(gate);
        self.shards[shard].lock().unwrap().push(Prioritized {
            deadline,
            seq,
            task,
        });
        self.pushed.fetch_add(1, AtOrd::Relaxed);
        self.max_pending.fetch_max(pending, AtOrd::Relaxed);
        self.available.notify_one();
    }

    /// Take the most urgent task visible to `worker`: its own shard
    /// first, then a steal from the sibling whose top task is most
    /// urgent. Blocks while the pool is empty; returns `None` once the
    /// pool is closed *and* drained.
    pub fn pop(&self, worker: usize) -> Option<T> {
        let n = self.shards.len();
        loop {
            if let Some(p) = self.shards[worker % n].lock().unwrap().pop() {
                self.finish_take();
                return Some(p.task);
            }
            // steal scan: find the sibling whose top deadline is
            // earliest (two-phase — the victim may change between peek
            // and pop, which only means we steal a slightly different
            // task, never an invalid one)
            let mut victim: Option<(usize, Instant, u64)> = None;
            for off in 1..n {
                let v = (worker + off) % n;
                let shard = self.shards[v].lock().unwrap();
                if let Some(top) = shard.peek() {
                    let better = match victim {
                        None => true,
                        Some((_, d, s)) => (top.deadline, top.seq) < (d, s),
                    };
                    if better {
                        victim = Some((v, top.deadline, top.seq));
                    }
                }
            }
            if let Some((v, _, _)) = victim {
                if let Some(p) = self.shards[v].lock().unwrap().pop() {
                    self.stolen.fetch_add(1, AtOrd::Relaxed);
                    self.finish_take();
                    return Some(p.task);
                }
                continue; // lost the race; rescan
            }
            // nothing visible anywhere: park until a push or close
            let mut gate = self.gate.lock().unwrap();
            loop {
                if gate.pending > 0 {
                    break; // retry the scan
                }
                if gate.closed {
                    return None;
                }
                gate = self.available.wait(gate).unwrap();
            }
        }
    }

    fn finish_take(&self) {
        let mut gate = self.gate.lock().unwrap();
        gate.pending -= 1;
    }

    /// Close the pool: workers drain the remaining tasks, then `pop`
    /// returns `None`.
    pub fn close(&self) {
        self.gate.lock().unwrap().closed = true;
        self.available.notify_all();
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            pushed: self.pushed.load(AtOrd::Relaxed),
            stolen: self.stolen.load(AtOrd::Relaxed),
            max_pending: self.max_pending.load(AtOrd::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn pops_earliest_deadline_first() {
        let pool: WorkStealingPool<u32> = WorkStealingPool::new(1);
        let base = Instant::now();
        pool.push(0, base + Duration::from_millis(500), 3);
        pool.push(0, base + Duration::from_millis(100), 1);
        pool.push(0, base + Duration::from_millis(300), 2);
        pool.close();
        assert_eq!(pool.pop(0), Some(1));
        assert_eq!(pool.pop(0), Some(2));
        assert_eq!(pool.pop(0), Some(3));
        assert_eq!(pool.pop(0), None);
    }

    #[test]
    fn equal_deadlines_pop_in_admission_order() {
        let pool: WorkStealingPool<u32> = WorkStealingPool::new(1);
        let d = Instant::now() + Duration::from_millis(100);
        for i in 0..8 {
            pool.push(0, d, i);
        }
        pool.close();
        for i in 0..8 {
            assert_eq!(pool.pop(0), Some(i));
        }
    }

    #[test]
    fn idle_worker_steals_the_most_urgent_sibling_task() {
        let pool: WorkStealingPool<u32> = WorkStealingPool::new(3);
        let base = Instant::now();
        // everything lands on shard 1; worker 0 must steal, most urgent
        // first
        pool.push(1, base + Duration::from_millis(400), 40);
        pool.push(1, base + Duration::from_millis(100), 10);
        pool.close();
        assert_eq!(pool.pop(0), Some(10));
        assert_eq!(pool.stats().stolen, 1);
        assert_eq!(pool.pop(0), Some(40));
        assert_eq!(pool.pop(0), None);
        assert_eq!(pool.stats().stolen, 2);
    }

    #[test]
    fn concurrent_workers_drain_everything_exactly_once() {
        const TASKS: u64 = 2000;
        const WORKERS: usize = 4;
        let pool: Arc<WorkStealingPool<u64>> = Arc::new(WorkStealingPool::new(WORKERS));
        let base = Instant::now();
        let consumers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(t) = pool.pop(w) {
                        got.push(t);
                    }
                    got
                })
            })
            .collect();
        for i in 0..TASKS {
            // skewed hints: everything on two shards, so stealing must
            // happen for the other two workers to eat
            pool.push((i % 2) as usize, base + Duration::from_micros(i), i);
        }
        pool.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len() as u64, TASKS, "every task consumed");
        all.dedup();
        assert_eq!(all.len() as u64, TASKS, "no task consumed twice");
        let s = pool.stats();
        assert_eq!(s.pushed, TASKS);
        assert!(s.max_pending > 0);
    }
}
