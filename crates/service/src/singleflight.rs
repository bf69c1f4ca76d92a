//! Single-flight solve coalescing: N concurrent misses on one key share
//! exactly one computation.
//!
//! The optimizer is the expensive tier of the serving stack — a cold solve
//! takes orders of magnitude longer than a cache read — so the worst traffic
//! pattern a fleet can produce is a *thundering herd*: many clients asking
//! for the same cold shape at once, each paying the full solve. This module
//! puts a per-key slot in front of any fallible computation: the first
//! caller (the **leader**) runs it, every concurrent duplicate (a
//! **waiter**) parks on the slot and receives a clone of the leader's
//! result.
//!
//! Failure semantics are the delicate part and are pinned by property tests:
//!
//! * a panic in the leader's closure is caught and propagated to **every**
//!   waiter as [`FlightError`] — nobody hangs, and the panic does not
//!   escape into the server loop;
//! * the slot is removed *before* the result is published, so a failed
//!   flight never poisons the key — the next caller after completion starts
//!   a fresh generation and retries;
//! * each generation runs its closure exactly once, no matter how many
//!   callers pile onto the slot.

use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use mopt_trace::{LatencyHistogram, LatencySnapshot};
use serde::{Deserialize, Serialize};

use crate::cache::lock_recover;

/// How a call was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// This caller ran the computation.
    Led,
    /// This caller parked on an in-flight computation and shared its result.
    Coalesced,
}

impl Role {
    /// The value of a trace's `role` tag.
    pub fn label(self) -> &'static str {
        match self {
            Role::Led => "led",
            Role::Coalesced => "waited",
        }
    }
}

/// Why a flight failed: the leader's closure panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightError {
    /// The panic payload, when it was a string.
    pub message: String,
}

impl std::fmt::Display for FlightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "in-flight computation panicked: {}", self.message)
    }
}

impl std::error::Error for FlightError {}

/// Cumulative single-flight counters, reported under `Stats.flight`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FlightStats {
    /// Calls that ran the computation (one per generation).
    pub led: u64,
    /// Calls that shared an in-flight leader's result instead of computing.
    pub coalesced: u64,
    /// Generations that ended in a propagated panic (each counted once, no
    /// matter how many waiters received the error).
    pub errors: u64,
    /// Keys with a computation currently in flight.
    pub in_flight: u64,
    /// How long coalesced callers parked on a leader's slot before its
    /// result was published. Leaders record nothing here — their time is in
    /// the per-verb latency histograms. `None` only in documents written by
    /// builds that predate the field.
    pub waiter_wait: Option<LatencySnapshot>,
}

/// Flight counters of the one coalescing group, reported under
/// `Stats.flight` and inside `Metrics`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FlightBreakdown {
    /// The single-flight group in front of the cold tiers (`Optimize` and
    /// `Explain` misses).
    pub optimize: FlightStats,
}

enum SlotState<V> {
    Pending,
    Done(Result<V, FlightError>),
}

struct Slot<V> {
    state: Mutex<SlotState<V>>,
    cond: Condvar,
}

impl<V: Clone> Slot<V> {
    fn new() -> Self {
        Slot { state: Mutex::new(SlotState::Pending), cond: Condvar::new() }
    }

    fn publish(&self, result: Result<V, FlightError>) {
        *lock_recover(&self.state) = SlotState::Done(result);
        self.cond.notify_all();
    }

    fn wait(&self) -> Result<V, FlightError> {
        let mut state = lock_recover(&self.state);
        loop {
            match &*state {
                SlotState::Done(result) => return result.clone(),
                SlotState::Pending => {
                    state = self.cond.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            }
        }
    }
}

/// A keyed single-flight group. All methods take `&self`; share via `Arc`
/// or embed in shared server state.
pub struct SingleFlight<K, V> {
    slots: Mutex<HashMap<K, Arc<Slot<V>>>>,
    led: AtomicU64,
    coalesced: AtomicU64,
    errors: AtomicU64,
    waiter_wait: LatencyHistogram,
}

impl<K: Eq + Hash + Clone, V: Clone> Default for SingleFlight<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> SingleFlight<K, V> {
    /// An empty group.
    pub fn new() -> Self {
        SingleFlight {
            slots: Mutex::new(HashMap::new()),
            led: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            waiter_wait: LatencyHistogram::default(),
        }
    }

    /// Run `compute` under single-flight semantics for `key`.
    ///
    /// If no computation for `key` is in flight, this caller leads: it runs
    /// `compute` (with the slot registered so duplicates coalesce), then
    /// releases every waiter with a clone of the result. If one *is* in
    /// flight, this caller blocks until the leader finishes and shares its
    /// result. A panicking `compute` is caught: leader and waiters all
    /// receive `Err(FlightError)`, and the key is clean for the next caller.
    pub fn run<F: FnOnce() -> V>(&self, key: K, compute: F) -> (Role, Result<V, FlightError>) {
        let slot = {
            let mut slots = lock_recover(&self.slots);
            if let Some(existing) = slots.get(&key) {
                let existing = Arc::clone(existing);
                drop(slots);
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                let parked = Instant::now();
                let result = existing.wait();
                self.waiter_wait.record(parked.elapsed());
                return (Role::Coalesced, result);
            }
            let slot = Arc::new(Slot::new());
            slots.insert(key.clone(), Arc::clone(&slot));
            slot
        };
        self.led.fetch_add(1, Ordering::Relaxed);
        let result = catch_unwind(AssertUnwindSafe(compute)).map_err(|payload| {
            self.errors.fetch_add(1, Ordering::Relaxed);
            FlightError { message: panic_message(payload.as_ref()) }
        });
        // Remove the slot BEFORE publishing: a caller that arrives after the
        // result exists must start a fresh generation (retry on error, fresh
        // compute on success — the cache in front of this layer is what makes
        // repeat successes cheap), never observe a stale slot.
        lock_recover(&self.slots).remove(&key);
        slot.publish(result.clone());
        (Role::Led, result)
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> FlightStats {
        FlightStats {
            led: self.led.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            in_flight: lock_recover(&self.slots).len() as u64,
            waiter_wait: Some(self.waiter_wait.snapshot()),
        }
    }

    /// Snapshot of the waiter-wait histogram alone (for exposition formats
    /// that render histograms separately from counters).
    pub fn waiter_wait(&self) -> LatencySnapshot {
        self.waiter_wait.snapshot()
    }

    /// Keys with a computation currently in flight.
    pub fn in_flight(&self) -> usize {
        lock_recover(&self.slots).len()
    }
}

impl<K, V> std::fmt::Debug for SingleFlight<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleFlight")
            .field("led", &self.led.load(Ordering::Relaxed))
            .field("coalesced", &self.coalesced.load(Ordering::Relaxed))
            .field("errors", &self.errors.load(Ordering::Relaxed))
            .finish()
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn duplicate_concurrent_calls_share_one_computation() {
        let flight: Arc<SingleFlight<u32, u64>> = Arc::new(SingleFlight::new());
        let runs = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(Barrier::new(8));
        let results: Vec<(Role, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (flight, runs, gate) = (flight.clone(), runs.clone(), gate.clone());
                    scope.spawn(move || {
                        gate.wait();
                        let (role, result) = flight.run(5, || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough for every
                            // sibling to pile on.
                            std::thread::sleep(Duration::from_millis(100));
                            777
                        });
                        (role, result.unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one closure run");
        assert!(results.iter().all(|(_, v)| *v == 777));
        let leaders = results.iter().filter(|(role, _)| *role == Role::Led).count();
        assert_eq!(leaders, 1);
        let stats = flight.stats();
        assert_eq!((stats.led, stats.coalesced, stats.errors, stats.in_flight), (1, 7, 0, 0));
        // Every waiter's park time is in the histogram; the leader's is not.
        let waits = stats.waiter_wait.expect("stats() always snapshots the histogram");
        assert_eq!(waits.count, 7);
        assert!(
            waits.max_micros >= 50_000,
            "waiters parked across most of the 100 ms flight, got {} µs",
            waits.max_micros
        );
    }

    #[test]
    fn distinct_keys_run_independently() {
        let flight: SingleFlight<u32, u32> = SingleFlight::new();
        let (role_a, a) = flight.run(1, || 10);
        let (role_b, b) = flight.run(2, || 20);
        assert_eq!((role_a, role_b), (Role::Led, Role::Led));
        assert_eq!((a.unwrap(), b.unwrap()), (10, 20));
    }

    #[test]
    fn sequential_calls_each_lead_a_fresh_generation() {
        // No cache in front here: single-flight only dedupes *concurrent*
        // work. Two sequential calls are two generations.
        let flight: SingleFlight<u32, u32> = SingleFlight::new();
        let mut runs = 0;
        let (_, first) = flight.run(9, || {
            runs += 1;
            runs
        });
        let (_, second) = flight.run(9, || {
            runs += 1;
            runs
        });
        assert_eq!((first.unwrap(), second.unwrap()), (1, 2));
        assert_eq!(flight.stats().led, 2);
    }

    #[test]
    fn panic_propagates_to_every_waiter_and_does_not_poison_the_key() {
        let flight: Arc<SingleFlight<u32, u32>> = Arc::new(SingleFlight::new());
        let gate = Arc::new(Barrier::new(4));
        let outcomes: Vec<(Role, Result<u32, FlightError>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (flight, gate) = (flight.clone(), gate.clone());
                    scope.spawn(move || {
                        gate.wait();
                        flight.run(3, || {
                            std::thread::sleep(Duration::from_millis(100));
                            panic!("solver exploded");
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every caller — leader included — got the error, nobody hung, and
        // the panic did not cross the API boundary.
        for (_, result) in &outcomes {
            let err = result.as_ref().expect_err("all callers see the panic");
            assert!(err.message.contains("solver exploded"));
        }
        let stats = flight.stats();
        assert_eq!(stats.led, 1);
        assert_eq!(stats.coalesced, 3);
        assert_eq!(stats.errors, 1, "one generation failed, counted once");
        assert_eq!(stats.in_flight, 0, "the slot is gone");
        // The key is clean: the next call leads and succeeds.
        let (role, value) = flight.run(3, || 99);
        assert_eq!(role, Role::Led);
        assert_eq!(value.unwrap(), 99);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random interleavings of concurrent callers over a small key space,
        /// some generations panicking: the group never deadlocks (the whole
        /// schedule completes), each caller observes either a success or a
        /// propagated error (never a hang, never an escaped panic), closure
        /// runs match led-count exactly (once per generation), and error
        /// generations release all of their waiters.
        #[test]
        fn random_interleavings_never_deadlock_or_double_run(
            seed in 0u64..1_000_000,
            threads in 2usize..9,
            keys in 1u32..4,
        ) {
            let flight: Arc<SingleFlight<u32, u64>> = Arc::new(SingleFlight::new());
            let runs = Arc::new(AtomicUsize::new(0));
            let completions = Arc::new(AtomicUsize::new(0));
            let calls_per_thread = 6usize;
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (flight, runs, completions) = (flight.clone(), runs.clone(), completions.clone());
                    scope.spawn(move || {
                        // Deterministic per-thread schedule from the seed.
                        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(t as u64 + 1);
                        for _ in 0..calls_per_thread {
                            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                            let key = (x % keys as u64) as u32;
                            let delay_us = x % 300;
                            let should_panic = x % 5 == 0;
                            let (_, result) = flight.run(key, || {
                                runs.fetch_add(1, Ordering::SeqCst);
                                std::thread::sleep(Duration::from_micros(delay_us));
                                if should_panic {
                                    panic!("injected fault");
                                }
                                u64::from(key)
                            });
                            match result {
                                Ok(v) => assert_eq!(v, u64::from(key)),
                                Err(e) => assert!(e.message.contains("injected fault")),
                            }
                            completions.fetch_add(1, Ordering::SeqCst);
                        }
                    });
                }
            });
            let stats = flight.stats();
            // Every call completed (no deadlock) and is accounted for.
            prop_assert_eq!(completions.load(Ordering::SeqCst), threads * calls_per_thread);
            prop_assert_eq!(stats.led + stats.coalesced, (threads * calls_per_thread) as u64);
            // The closure ran exactly once per generation.
            prop_assert_eq!(runs.load(Ordering::SeqCst) as u64, stats.led);
            // Nothing is left in flight: error results released all waiters.
            prop_assert_eq!(stats.in_flight, 0);
        }
    }
}
