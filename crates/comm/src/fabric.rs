//! The rendezvous fabric: the shared-memory "wire" of the simulated cluster.
//!
//! Two primitives are provided:
//!
//! * An n-way **split-phase rendezvous**: every member of a group publishes
//!   its contribution under a `(group id, sequence)` key without blocking
//!   ([`Fabric::deposit`], or [`Fabric::deposit_reduce`] to have the last
//!   arriver fold the contributions), and [`Fabric::wait`] blocks until all
//!   `n` members have arrived, then hands everyone the published value plus
//!   the maximum entry virtual-time (collectives synchronize clocks to the
//!   slowest participant). A rank can deposit, go compute, and only pay the
//!   wait when it needs the result; every collective is built on this.
//! * [`Fabric::send`] / [`Fabric::recv`] — ordered point-to-point channels
//!   keyed by `(group id, src, dst, tag)`, used by pipeline parallelism.
//!
//! SPMD contract: all members of a group must invoke the same collectives
//! in the same order. A timeout (default 120 s, env-overridable)
//! converts a violated contract (or a peer that panicked) into a
//! diagnosable panic instead of a hang.

use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

static DEFAULT_TIMEOUT: OnceLock<Duration> = OnceLock::new();

/// Installs the process-default rendezvous timeout (first caller wins).
/// This is the setter [`crate::RunConfig::install`] applies after parsing
/// `TESSERACT_RENDEZVOUS_TIMEOUT_SECS`; clusters that need a different
/// timeout set it per instance instead of racing on process state.
pub fn set_default_rendezvous_timeout_secs(secs: u64) {
    let _ = DEFAULT_TIMEOUT.set(Duration::from_secs(secs));
}

/// How long a rank waits at a rendezvous before declaring the run wedged:
/// the installed default, or 120 s if nothing was installed. Cached — every
/// collective wait consults it.
fn rendezvous_timeout() -> Duration {
    DEFAULT_TIMEOUT.get().copied().unwrap_or(Duration::from_secs(120))
}

/// Condition variables a fabric spreads its waiters over (see
/// [`Fabric::parked_on`]).
const WAIT_STRIPES: usize = 256;

type SlotKey = (u64, u64);
type ChanKey = (u64, usize, usize, u64);

struct Slot {
    deposits: Vec<Option<Box<dyn Any + Send>>>,
    entry_vts: Vec<f64>,
    arrived: usize,
    /// `(max entry vt, downcast-ready vector)` once all members arrived.
    result: Option<(f64, Arc<dyn Any + Send + Sync>)>,
    taken: usize,
}

impl Slot {
    fn new(n: usize) -> Self {
        Self {
            deposits: (0..n).map(|_| None).collect(),
            entry_vts: Vec::with_capacity(n),
            arrived: 0,
            result: None,
            taken: 0,
        }
    }
}

#[derive(Default)]
struct FabricState {
    slots: HashMap<SlotKey, Slot>,
    channels: HashMap<ChanKey, VecDeque<(f64, Box<dyn Any + Send>)>>,
}

impl FabricState {
    /// Stores member `my_index`'s deposit in the slot for `key`. The last
    /// of the `n` members to arrive gets all deposits moved out (member
    /// order) with the maximum entry vt, and owes the slot its result.
    ///
    /// Panics if a member deposits twice under one key (a sequencing bug).
    fn arrive<D: Send + 'static>(
        &mut self,
        key: SlotKey,
        my_index: usize,
        n: usize,
        deposit: D,
        entry_vt: f64,
    ) -> Option<(f64, Vec<D>)> {
        let slot = self.slots.entry(key).or_insert_with(|| Slot::new(n));
        assert_eq!(slot.deposits.len(), n, "group size disagreement at rendezvous {key:?}");
        assert!(
            slot.deposits[my_index].is_none() && slot.result.is_none(),
            "member {my_index} deposited twice at rendezvous {key:?}"
        );
        slot.deposits[my_index] = Some(Box::new(deposit));
        slot.entry_vts.push(entry_vt);
        slot.arrived += 1;
        (slot.arrived == n).then(|| {
            let max_vt = slot.entry_vts.iter().copied().fold(f64::MIN, f64::max);
            let take = |d: &mut Option<Box<dyn Any + Send>>| {
                *d.take()
                    .expect("all deposits present")
                    .downcast::<D>()
                    .expect("payload type mismatch within one rendezvous")
            };
            (max_vt, slot.deposits.iter_mut().map(take).collect())
        })
    }

    /// Sets the value every member's [`Fabric::wait`] on `key` returns (the
    /// caller wakes the waiters). The slot cannot have been
    /// garbage-collected: `taken` only advances once `result` is set.
    fn publish<T: Send + Sync + 'static>(&mut self, key: SlotKey, max_vt: f64, value: T) {
        let slot = self.slots.get_mut(&key).expect("slot present until taken by all");
        slot.result = Some((max_vt, Arc::new(value)));
    }
}

/// Shared rendezvous state for one cluster run.
pub struct Fabric {
    state: Mutex<FabricState>,
    /// Where waiters park, striped by rendezvous / channel key.
    parked: [Condvar; WAIT_STRIPES],
    /// Per-instance rendezvous timeout. Fixed at construction
    /// ([`Fabric::with_timeout`]) so failure-injection tests can shrink it
    /// without racing on the process environment.
    timeout: Duration,
}

/// Locks the fabric ignoring poisoning: a rank that panics mid-rendezvous
/// (e.g. on a sequencing assert) must not turn every surviving rank's next
/// lock into an opaque `PoisonError` — they should instead reach the timeout
/// path and report the wedged rendezvous diagnostically.
fn lock_fabric(m: &Mutex<FabricState>) -> MutexGuard<'_, FabricState> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Default for Fabric {
    fn default() -> Self {
        Self::new()
    }
}

impl Fabric {
    /// A fabric with the process-default timeout (120 s, or whatever
    /// [`set_default_rendezvous_timeout_secs`] installed).
    pub fn new() -> Self {
        Self::with_timeout(rendezvous_timeout())
    }

    /// A fabric whose rendezvous waits give up after `timeout`.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self {
            state: Mutex::new(FabricState::default()),
            parked: std::array::from_fn(|_| Condvar::new()),
            timeout,
        }
    }

    /// The condition variable the waiters of `key` park on. Completing a
    /// rendezvous wakes that stripe only, so what a collective costs the
    /// host depends on its own group, not on how many ranks of unrelated
    /// groups are parked at that moment: with one shared condition variable
    /// every completion woke every parked rank of the cluster (63 threads at
    /// 64 ranks) to re-check a slot that had not changed. Keys that share a
    /// stripe only cost each other a re-check.
    fn parked_on<K: Hash>(&self, key: &K) -> &Condvar {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.parked[h.finish() as usize % WAIT_STRIPES]
    }

    /// Publishes this member's contribution under `key` and returns
    /// immediately. The last arriver publishes the deposit vector
    /// (`Vec<Option<P>>`, member order — the type [`Fabric::wait`] is asked
    /// for).
    pub fn deposit<P: Send + Sync + 'static>(
        &self,
        key: SlotKey,
        my_index: usize,
        n: usize,
        payload: Option<P>,
        entry_vt: f64,
    ) {
        let mut state = lock_fabric(&self.state);
        if let Some((max_vt, deposits)) = state.arrive(key, my_index, n, payload, entry_vt) {
            state.publish(key, max_vt, deposits);
            drop(state);
            self.parked_on(&key).notify_all();
        }
    }

    /// Parks until all `n` members have deposited under `key`, then returns
    /// `(max entry vt, published value)`: after [`Fabric::deposit`]s of `P`
    /// the value is the `Vec<Option<P>>` of deposits in member order, after
    /// [`Fabric::deposit_reduce`]s it is the combined `P`. Every member
    /// clones the same `Arc` out; the last one frees the slot.
    ///
    /// Panics if the rendezvous does not complete within the timeout.
    pub fn wait<T: Send + Sync + 'static>(
        &self,
        key: SlotKey,
        my_index: usize,
        n: usize,
    ) -> (f64, Arc<T>) {
        let mut state = lock_fabric(&self.state);
        loop {
            if let Some(slot) = state.slots.get_mut(&key) {
                if let Some((max_vt, result)) = slot.result.clone() {
                    slot.taken += 1;
                    if slot.taken == n {
                        state.slots.remove(&key);
                    }
                    let arc = result
                        .downcast::<T>()
                        .expect("payload type mismatch within one rendezvous");
                    return (max_vt, arc);
                }
            }
            let (guard, timed_out) = self
                .parked_on(&key)
                .wait_timeout(state, self.timeout)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            if timed_out.timed_out() {
                panic!(
                    "rendezvous {key:?} timed out (member {my_index} of {n}); \
                     a peer likely panicked or collectives were issued out of order"
                );
            }
        }
    }

    /// Reducing deposit: publishes this member's payload *by value*; the
    /// last arriver folds all `n` deposits with `combine` **outside the
    /// fabric lock** (a large reduction must not serialize unrelated
    /// traffic) and publishes the combined `P`. No deposit is ever copied:
    /// the combiner consumes them, so the fold can reuse the first part's
    /// buffer in place.
    pub fn deposit_reduce<P, F>(
        &self,
        key: SlotKey,
        my_index: usize,
        n: usize,
        payload: P,
        entry_vt: f64,
        combine: F,
    ) where
        P: Send + Sync + 'static,
        F: FnOnce(Vec<P>) -> P,
    {
        let last = lock_fabric(&self.state).arrive(key, my_index, n, payload, entry_vt);
        if let Some((max_vt, parts)) = last {
            let combined = combine(parts);
            lock_fabric(&self.state).publish(key, max_vt, combined);
            self.parked_on(&key).notify_all();
        }
    }

    /// Deposits a point-to-point message; never blocks.
    pub fn send<P: Send + 'static>(&self, chan: ChanKey, payload: P, send_vt: f64) {
        let mut state = lock_fabric(&self.state);
        state.channels.entry(chan).or_default().push_back((send_vt, Box::new(payload)));
        drop(state);
        self.parked_on(&chan).notify_all();
    }

    /// Receives the oldest message on a channel, blocking until one arrives.
    /// Returns `(sender's vt at send, payload)`.
    pub fn recv<P: Send + 'static>(&self, chan: ChanKey) -> (f64, P) {
        let mut state = lock_fabric(&self.state);
        loop {
            if let Some(queue) = state.channels.get_mut(&chan) {
                if let Some((vt, payload)) = queue.pop_front() {
                    if queue.is_empty() {
                        state.channels.remove(&chan);
                    }
                    let payload = *payload.downcast::<P>().expect("p2p payload type mismatch");
                    return (vt, payload);
                }
            }
            let (guard, timed_out) = self
                .parked_on(&chan)
                .wait_timeout(state, self.timeout)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            if timed_out.timed_out() {
                panic!("recv on channel {chan:?} timed out; sender likely panicked");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn exchange_gathers_all_payloads() {
        let fabric = Arc::new(Fabric::new());
        let n = 4;
        let results: Vec<(f64, Arc<Vec<Option<u32>>>)> = thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let f = Arc::clone(&fabric);
                    s.spawn(move || {
                        f.deposit((1, 0), i, n, Some(i as u32 * 10), i as f64);
                        f.wait((1, 0), i, n)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (max_vt, vec) in &results {
            assert_eq!(*max_vt, 3.0);
            let vals: Vec<u32> = vec.iter().map(|v| v.unwrap()).collect();
            assert_eq!(vals, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn exchange_slot_is_reusable_after_completion() {
        let fabric = Arc::new(Fabric::new());
        for round in 0..3u64 {
            let results: Vec<_> = thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|i| {
                        let f = Arc::clone(&fabric);
                        s.spawn(move || {
                            f.deposit((7, round), i, 2, Some(round), 0.0);
                            f.wait::<Vec<Option<u64>>>((7, round), i, 2)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(results[0].1.len(), 2);
        }
        assert!(lock_fabric(&fabric.state).slots.is_empty(), "slots must be garbage-collected");
    }

    #[test]
    fn exchange_supports_none_deposits() {
        let fabric = Arc::new(Fabric::new());
        let results: Vec<_> = thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let f = Arc::clone(&fabric);
                    s.spawn(move || {
                        let payload = if i == 1 { Some(99u8) } else { None };
                        f.deposit((2, 0), i, 3, payload, 0.0);
                        f.wait::<Vec<Option<u8>>>((2, 0), i, 3)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (_, vec) in results {
            assert_eq!(vec.as_ref(), &vec![None, Some(99), None]);
        }
    }

    #[test]
    fn exchange_reduce_combines_once_and_shares_the_result() {
        let fabric = Arc::new(Fabric::new());
        let n = 4;
        let results: Vec<(f64, Arc<Vec<u64>>)> = thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let f = Arc::clone(&fabric);
                    s.spawn(move || {
                        f.deposit_reduce((9, 0), i, n, vec![1u64 << (8 * i)], i as f64, |parts| {
                            // Fold in ascending member order, in place.
                            let mut it = parts.into_iter();
                            let mut acc = it.next().unwrap();
                            for p in it {
                                acc[0] += p[0];
                            }
                            acc
                        });
                        f.wait((9, 0), i, n)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (max_vt, v) in &results {
            assert_eq!(*max_vt, 3.0);
            assert_eq!(v[0], 0x01010101);
        }
        // Every member holds the *same* allocation, not a copy.
        assert!(Arc::ptr_eq(&results[0].1, &results[1].1));
        assert!(lock_fabric(&fabric.state).slots.is_empty(), "slots must be garbage-collected");
    }

    #[test]
    fn exchange_reduce_slot_is_reusable() {
        let fabric = Arc::new(Fabric::new());
        for round in 0..3u64 {
            let results: Vec<_> = thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|i| {
                        let f = Arc::clone(&fabric);
                        s.spawn(move || {
                            f.deposit_reduce((11, round), i, 2, i as u64 + round, 0.0, |parts| {
                                parts.into_iter().sum::<u64>()
                            });
                            f.wait::<u64>((11, round), i, 2)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(*results[0].1, 1 + 2 * round);
        }
        assert!(lock_fabric(&fabric.state).slots.is_empty());
    }

    #[test]
    fn p2p_preserves_fifo_order_and_vt() {
        let fabric = Fabric::new();
        fabric.send((0, 0, 1, 0), "first", 1.5);
        fabric.send((0, 0, 1, 0), "second", 2.5);
        let (vt1, m1): (f64, &str) = fabric.recv((0, 0, 1, 0));
        let (vt2, m2): (f64, &str) = fabric.recv((0, 0, 1, 0));
        assert_eq!((vt1, m1), (1.5, "first"));
        assert_eq!((vt2, m2), (2.5, "second"));
    }

    #[test]
    fn p2p_blocks_until_send() {
        let fabric = Arc::new(Fabric::new());
        let f2 = Arc::clone(&fabric);
        let recv = thread::spawn(move || f2.recv::<u64>((0, 0, 1, 7)));
        thread::sleep(Duration::from_millis(20));
        fabric.send((0, 0, 1, 7), 42u64, 0.0);
        let (_, v) = recv.join().unwrap();
        assert_eq!(v, 42);
    }
}
