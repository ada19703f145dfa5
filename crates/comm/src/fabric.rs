//! The rendezvous fabric: the shared-memory "wire" of the simulated cluster.
//!
//! * An n-way **split-phase rendezvous**: each member of a group deposits
//!   under a `(group id, sequence)` key without blocking ([`Fabric::deposit`],
//!   or [`Fabric::deposit_reduce`] to have the last arriver fold the
//!   deposits) and gets a [`Ticket`]; [`Fabric::wait`] consumes it when the
//!   rank needs the result, returning the published value and the maximum
//!   entry virtual time (clocks synchronize to the slowest member).
//! * [`Fabric::send`] / [`Fabric::recv`] — ordered point-to-point channels
//!   keyed by `(group id, src, dst, tag)`, used by pipeline parallelism.
//!
//! A rendezvous costs the host only its own group: an arrival takes the
//! fabric lock once, and the last one publishes into the ticket outside it.
//! A waiter never takes that lock: it polls, yields its core a few times,
//! then registers on the ticket and parks; the publisher unparks registered
//! threads only, so no futex syscall happens when nobody parked. It yields,
//! never busy-spins: ranks outnumber cores, so a spinning waiter holds
//! the core its peer needs (spinning 4 000 times before parking made
//! `serve_open` 1.6× and the 64-rank dry-runs 7× slower).
//!
//! SPMD contract: all members of a group must invoke the same collectives
//! in the same order. A timeout (default 120 s, env-overridable) turns a
//! violated contract into a diagnosable panic; a rank's panic makes every
//! waiter panic at once.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

static DEFAULT_TIMEOUT: OnceLock<Duration> = OnceLock::new();

/// Installs the process-default rendezvous timeout (first caller wins).
/// This is the setter [`crate::RunConfig::install`] applies after parsing
/// `TESSERACT_RENDEZVOUS_TIMEOUT_SECS`; clusters that need a different
/// timeout set it per instance instead of racing on process state.
pub fn set_default_rendezvous_timeout_secs(secs: u64) {
    let _ = DEFAULT_TIMEOUT.set(Duration::from_secs(secs));
}

/// How long a rank waits at a rendezvous before declaring the run wedged:
/// the installed default, or 120 s if nothing was installed.
fn rendezvous_timeout() -> Duration {
    DEFAULT_TIMEOUT.get().copied().unwrap_or(Duration::from_secs(120))
}

/// How many times a waiter yields its core before it parks.
const YIELDS: usize = 8;

type SlotKey = (u64, u64);
type ChanKey = (u64, usize, usize, u64);
/// A rendezvous's outcome: `(max entry vt, published value)`.
type Outcome = Waitable<OnceLock<(f64, Arc<dyn Any + Send + Sync>)>>;
/// A p2p channel: `(sender's vt, payload)` in send order.
type Channel = Waitable<Mutex<VecDeque<(f64, Box<dyn Any + Send>)>>>;

/// Locks ignoring poisoning: a rank that panics mid-rendezvous (e.g. on a
/// sequencing assert) must not turn every surviving rank's next lock into
/// an opaque `PoisonError` instead of the failure or timeout diagnostic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a wait blocks on (rendezvous outcome, channel queue) and its parked threads.
#[derive(Default)]
struct Waitable<T> {
    value: T,
    parked: Mutex<Vec<Thread>>,
}

impl<T> Waitable<T> {
    /// Wakes the registered threads; no syscall when none registered.
    fn unpark_all(&self) {
        for t in std::mem::take(&mut *lock(&self.parked)) {
            t.unpark();
        }
    }
}

/// One member's claim on a rendezvous outcome: returned by a deposit,
/// consumed by [`Fabric::wait`].
#[must_use = "a deposit's ticket must be waited on"]
pub struct Ticket {
    outcome: Arc<Outcome>,
    key: SlotKey,
    my_index: usize,
    n: usize,
}

/// An open rendezvous: the deposits so far.
struct Slot {
    deposits: Vec<Option<Box<dyn Any + Send>>>,
    max_vt: f64,
    arrived: usize,
    outcome: Arc<Outcome>,
}

#[derive(Default)]
struct FabricState {
    slots: HashMap<SlotKey, Slot>,
    /// Open for the run: the keys are the program's fixed `(group, src, dst, tag)`s.
    channels: HashMap<ChanKey, Arc<Channel>>,
}

/// Shared rendezvous state for one cluster run.
pub struct Fabric {
    state: Mutex<FabricState>,
    /// Fixed at construction ([`Fabric::with_timeout`]) so failure-injection
    /// tests can shrink it without racing on the process environment.
    timeout: Duration,
    /// The run's first rank failure, `(rank, panic message)`.
    pub(crate) failure: OnceLock<(usize, String)>,
    /// The run's rank threads, all woken when one of them fails.
    ranks: Mutex<Vec<Thread>>,
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
        Self { state: Mutex::default(), timeout, failure: OnceLock::new(), ranks: Mutex::default() }
    }

    /// Publishes this member's contribution under `key` and returns its
    /// ticket at once. The last arriver publishes the deposit vector
    /// (`Vec<Option<P>>`, member order — the type [`Fabric::wait`] is asked for).
    pub fn deposit<P: Send + Sync + 'static>(
        &self,
        key: SlotKey,
        my_index: usize,
        n: usize,
        payload: Option<P>,
        entry_vt: f64,
    ) -> Ticket {
        self.deposit_reduce(key, my_index, n, payload, entry_vt, |deposits| deposits)
    }

    /// Reducing deposit: publishes this member's payload *by value* and
    /// returns its ticket. The last arriver removes the slot and folds all
    /// `n` deposits (member order) with `combine` **outside the fabric
    /// lock** (a large reduction must not serialize unrelated traffic). No
    /// deposit is ever copied: the fold can reuse the first part in place.
    ///
    /// Panics if members disagree on `n`, or one deposits twice while the
    /// rendezvous is open (sequencing bugs).
    pub fn deposit_reduce<P, T>(
        &self,
        key: SlotKey,
        my_index: usize,
        n: usize,
        payload: P,
        entry_vt: f64,
        combine: impl FnOnce(Vec<P>) -> T,
    ) -> Ticket
    where
        P: Send + 'static,
        T: Send + Sync + 'static,
    {
        let mut state = lock(&self.state);
        let slot = state.slots.entry(key).or_insert_with(|| Slot {
            deposits: (0..n).map(|_| None).collect(),
            max_vt: f64::MIN,
            arrived: 0,
            outcome: Arc::default(),
        });
        assert_eq!(slot.deposits.len(), n, "group size disagreement at rendezvous {key:?}");
        assert!(
            slot.deposits[my_index].is_none(),
            "member {my_index} deposited twice at rendezvous {key:?}"
        );
        slot.deposits[my_index] = Some(Box::new(payload));
        slot.max_vt = slot.max_vt.max(entry_vt);
        slot.arrived += 1;
        let ticket = Ticket { outcome: Arc::clone(&slot.outcome), key, my_index, n };
        if slot.arrived == n {
            let Slot { deposits, max_vt, .. } = state.slots.remove(&key).expect("slot is open");
            drop(state);
            let take = |d: Option<Box<dyn Any + Send>>| {
                *d.expect("all deposits present")
                    .downcast::<P>()
                    .expect("payload type mismatch within one rendezvous")
            };
            let value = combine(deposits.into_iter().map(take).collect());
            // The slot is gone, so this is the rendezvous's only publisher.
            let _ = ticket.outcome.value.set((max_vt, Arc::new(value)));
            ticket.outcome.unpark_all();
        }
        ticket
    }

    /// Blocks until all members of the ticket's rendezvous have deposited,
    /// then returns `(max entry vt, published value)`: after
    /// [`Fabric::deposit`]s of `P` the value is the `Vec<Option<P>>` of
    /// deposits in member order, after [`Fabric::deposit_reduce`]s it is
    /// the combined `P`. Every member clones the same `Arc` out.
    ///
    /// Panics if the rendezvous does not complete within the timeout.
    pub fn wait<T: Send + Sync + 'static>(&self, ticket: Ticket) -> (f64, Arc<T>) {
        let Ticket { outcome, key, my_index, n } = ticket;
        let (max_vt, value) = self.wait_on(
            &outcome,
            |o| o.get().cloned(),
            format_args!(
                "rendezvous {key:?} timed out (member {my_index} of {n}); \
             a peer likely panicked or collectives were issued out of order"
            ),
        );
        (max_vt, value.downcast::<T>().expect("payload type mismatch within one rendezvous"))
    }

    /// The channel keyed `chan`, opened on first use.
    fn channel(&self, chan: ChanKey) -> Arc<Channel> {
        Arc::clone(lock(&self.state).channels.entry(chan).or_default())
    }

    /// Deposits a point-to-point message; never blocks.
    pub fn send<P: Send + 'static>(&self, chan: ChanKey, payload: P, send_vt: f64) {
        let channel = self.channel(chan);
        lock(&channel.value).push_back((send_vt, Box::new(payload)));
        channel.unpark_all();
    }

    /// Receives the oldest message on a channel, blocking until one arrives.
    /// Returns `(sender's vt at send, payload)`.
    pub fn recv<P: Send + 'static>(&self, chan: ChanKey) -> (f64, P) {
        let (vt, payload) = self.wait_on(
            &self.channel(chan),
            |q| lock(q).pop_front(),
            format_args!("recv on channel {chan:?} timed out; sender likely panicked"),
        );
        (vt, *payload.downcast::<P>().expect("p2p payload type mismatch"))
    }

    /// The one blocking path, under [`Fabric::wait`] and [`Fabric::recv`]:
    /// polls `ready`, yields [`YIELDS`] times, then registers on `on` and
    /// parks, polling again after registering so a publication racing the
    /// registration is seen by that poll or unparks this thread. Panics
    /// with `timed_out` at the timeout, and at once if a rank has failed.
    fn wait_on<T, R>(
        &self,
        on: &Waitable<T>,
        ready: impl Fn(&T) -> Option<R>,
        timed_out: fmt::Arguments,
    ) -> R {
        for _ in 0..YIELDS {
            if let Some(r) = ready(&on.value) {
                return r;
            }
            thread::yield_now();
        }
        lock(&on.parked).push(thread::current());
        let deadline = Instant::now() + self.timeout;
        loop {
            if let Some(r) = ready(&on.value) {
                return r;
            }
            if let Some((rank, _)) = self.failure.get() {
                panic!("rank {rank} panicked; abandoning this wait");
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                panic!("{timed_out}");
            }
            thread::park_timeout(left);
        }
    }

    /// Registers the calling thread as one of the run's rank threads.
    pub(crate) fn enlist(&self) {
        lock(&self.ranks).push(thread::current());
    }

    /// Records that `rank` panicked with `message` (the first failure wins)
    /// and wakes every rank thread: one parked where the failed rank will
    /// never arrive panics at once instead of timing out and taking blame.
    pub(crate) fn fail(&self, rank: usize, message: String) {
        let _ = self.failure.set((rank, message));
        for t in lock(&self.ranks).iter() {
            t.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_tensor::Xoshiro256StarStar;

    #[test]
    fn exchange_gathers_all_payloads() {
        let fabric = Arc::new(Fabric::new());
        let n = 4;
        let results: Vec<(f64, Arc<Vec<Option<u32>>>)> = thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let f = Arc::clone(&fabric);
                    s.spawn(move || {
                        let t = f.deposit((1, 0), i, n, Some(i as u32 * 10), i as f64);
                        f.wait(t)
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
                            let t = f.deposit((7, round), i, 2, Some(round), 0.0);
                            f.wait::<Vec<Option<u64>>>(t)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(results[0].1.len(), 2);
        }
        assert!(lock(&fabric.state).slots.is_empty(), "slots must be garbage-collected");
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
                        let t = f.deposit((2, 0), i, 3, payload, 0.0);
                        f.wait::<Vec<Option<u8>>>(t)
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
                        let t = f.deposit_reduce(
                            (9, 0),
                            i,
                            n,
                            vec![1u64 << (8 * i)],
                            i as f64,
                            |parts| {
                                // Fold in ascending member order, in place.
                                let mut it = parts.into_iter();
                                let mut acc = it.next().unwrap();
                                for p in it {
                                    acc[0] += p[0];
                                }
                                acc
                            },
                        );
                        f.wait(t)
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
        assert!(lock(&fabric.state).slots.is_empty(), "slots must be garbage-collected");
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
                            let t = f.deposit_reduce(
                                (11, round),
                                i,
                                2,
                                i as u64 + round,
                                0.0,
                                |parts| parts.into_iter().sum::<u64>(),
                            );
                            f.wait::<u64>(t)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(*results[0].1, 1 + 2 * round);
        }
        assert!(lock(&fabric.state).slots.is_empty());
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

    fn fast_fail() -> Fabric {
        Fabric::with_timeout(Duration::from_millis(50))
    }

    #[test]
    #[should_panic(expected = "group size disagreement at rendezvous (1, 0)")]
    fn members_disagreeing_on_the_group_size_panic() {
        let f = fast_fail();
        let _first = f.deposit((1, 0), 0, 2, Some(1u8), 0.0);
        let _second = f.deposit((1, 0), 1, 3, Some(2u8), 0.0);
    }

    #[test]
    #[should_panic(expected = "member 0 deposited twice at rendezvous (1, 0)")]
    fn depositing_twice_into_an_open_rendezvous_panics() {
        let f = fast_fail();
        let _first = f.deposit((1, 0), 0, 2, Some(1u8), 0.0);
        let _second = f.deposit((1, 0), 0, 2, Some(1u8), 0.0);
    }

    #[test]
    #[should_panic(expected = "rendezvous (1, 0) timed out (member 0 of 2)")]
    fn a_rendezvous_missing_a_member_times_out() {
        let f = fast_fail();
        let t = f.deposit((1, 0), 0, 2, Some(1u8), 0.0);
        let _ = f.wait::<Vec<Option<u8>>>(t);
    }

    #[test]
    #[should_panic(expected = "recv on channel (0, 0, 1, 0) timed out")]
    fn a_recv_without_a_send_times_out() {
        let _ = fast_fail().recv::<u8>((0, 0, 1, 0));
    }

    /// Publication racing registration: random yields before every deposit,
    /// wait, send and recv shuffle which member arrives last against which
    /// are still yielding, registering or parked. A lost wake-up shows as a
    /// timeout panic, a wrong hand-off as a wrong value or entry vt.
    #[test]
    fn publication_racing_registration_loses_no_wake_up() {
        let fabric = Fabric::with_timeout(Duration::from_secs(10));
        let mut rng = Xoshiro256StarStar::seed_from_u64(21);
        for round in 0..2_000u64 {
            let n = 2 + rng.next_usize(7);
            let vts: Vec<f64> = (0..n).map(|_| rng.next_usize(1000) as f64).collect();
            let (max_vt, sender_vt) = (vts.iter().copied().fold(f64::MIN, f64::max), vts[0]);
            let f = &fabric;
            thread::scope(|s| {
                for (i, &vt) in vts.iter().enumerate() {
                    let mut rng = rng.fork(i as u64);
                    s.spawn(move || {
                        let mut pause = || (0..rng.next_usize(4)).for_each(|_| thread::yield_now());
                        pause();
                        let t = f.deposit((round, 0), i, n, Some(i), vt);
                        pause();
                        let (got_vt, all) = f.wait::<Vec<Option<usize>>>(t);
                        assert_eq!(got_vt, max_vt);
                        assert!(all.iter().enumerate().all(|(j, d)| *d == Some(j)));
                        pause();
                        let t =
                            f.deposit_reduce((round, 1), i, n, i, vt, |p| p.iter().sum::<usize>());
                        pause();
                        let (got_vt, sum) = f.wait::<usize>(t);
                        assert_eq!((got_vt, *sum), (max_vt, n * (n - 1) / 2));
                        pause();
                        let chan = (round, 0, n - 1, 0);
                        if i == 0 {
                            f.send(chan, round, vt);
                        } else if i == n - 1 {
                            assert_eq!(f.recv::<u64>(chan), (sender_vt, round));
                        }
                    });
                }
            });
        }
        assert!(lock(&fabric.state).slots.is_empty());
    }
}
