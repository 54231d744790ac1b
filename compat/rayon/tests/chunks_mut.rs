//! `ParallelSliceMut::par_map_chunks_mut`: in-place chunked writes
//! through the same chunking rule and batch as a forked map.
//!
//! The tests share the process-wide pool counters and the schedule
//! permutation hook, so they take [`SERIAL`].

use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

/// A slot value that counts its drops and how often a chunk visited it.
struct Counted<'a> {
    value: u64,
    visits: u32,
    drops: &'a Mutex<usize>,
}

impl Drop for Counted<'_> {
    fn drop(&mut self) {
        *self.drops.lock().unwrap_or_else(PoisonError::into_inner) += 1;
    }
}

fn count(m: &Mutex<usize>) -> usize {
    *m.lock().expect("counter lock")
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pool build is infallible")
}

fn slots(n: u64, drops: &Mutex<usize>) -> Vec<Counted<'_>> {
    (0..n)
        .map(|i| Counted {
            value: i,
            visits: 0,
            drops,
        })
        .collect()
}

#[test]
fn writes_land_in_order_and_visit_each_slot_once() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let drops = Mutex::new(0);
    let mut v = slots(100, &drops);
    // Three threads over 100 slots: chunks of 34, 34 and 32.
    let starts = pool(3).install(|| {
        v.par_map_chunks_mut(|start, chunk| {
            for (i, slot) in (start..).zip(chunk.iter_mut()) {
                assert_eq!(slot.value, i as u64, "chunk start and slot agree");
                // Replacing the slot drops the old value exactly once.
                *slot = Counted {
                    value: 3 * slot.value,
                    visits: slot.visits + 1,
                    drops: slot.drops,
                };
            }
            (start, chunk.len())
        })
    });
    assert_eq!(starts, vec![(0, 34), (34, 34), (68, 32)]);
    assert_eq!(count(&drops), 100, "each replaced value dropped once");
    assert!(v.iter().all(|c| c.visits == 1), "each slot visited once");
    let values: Vec<u64> = v.iter().map(|c| c.value).collect();
    assert_eq!(values, (0..100).map(|x| 3 * x).collect::<Vec<_>>());
    drop(v);
    assert_eq!(count(&drops), 200);
}

#[test]
fn below_the_threshold_it_runs_inline() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // 31 slots: under a forked map's 32-item threshold, on four threads
    // (the size of a small stream tenant).
    let mut v = vec![0u64; 31];
    let before = rayon::pool_stats();
    let calls = pool(4).install(|| {
        v.par_map_chunks_mut(|start, chunk| {
            chunk.fill(1);
            (start, chunk.len())
        })
    });
    let stats = rayon::pool_stats().since(&before);
    assert_eq!(calls, vec![(0, 31)]);
    assert_eq!((stats.inline_maps, stats.batches, stats.jobs), (1, 0, 0));
    assert!(v.iter().all(|&x| x == 1));

    // One installed thread is inline at any size.
    let mut big = vec![0u64; 4096];
    let before = rayon::pool_stats();
    let calls = pool(1).install(|| big.par_map_chunks_mut(|start, chunk| (start, chunk.len())));
    let stats = rayon::pool_stats().since(&before);
    assert_eq!(calls, vec![(0, 4096)]);
    assert_eq!((stats.inline_maps, stats.batches, stats.jobs), (1, 0, 0));
}

#[test]
fn above_the_threshold_it_runs_one_batch_of_threads_jobs() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    for threads in [2, 4] {
        let mut v = vec![0u64; 1000];
        let before = rayon::pool_stats();
        let chunks = pool(threads).install(|| v.par_map_chunks_mut(|_, chunk| chunk.len()));
        let stats = rayon::pool_stats().since(&before);
        assert_eq!(chunks, vec![1000 / threads; threads]);
        assert_eq!(
            (stats.inline_maps, stats.batches, stats.jobs),
            (0, 1, threads as u64)
        );
    }
}

#[test]
fn a_schedule_permutation_leaves_results_bit_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let run = || {
        let mut v: Vec<f64> = (0..2000).map(|i| f64::from(i) * 0.37).collect();
        let maxima = pool(4).install(|| {
            v.par_map_chunks_mut(|start, chunk| {
                let mut max = 0.0_f64;
                for (i, x) in (start..).zip(chunk.iter_mut()) {
                    *x = (*x).sin() * (i as f64).sqrt() + 1.0 / (1.0 + *x);
                    max = max.max(*x);
                }
                max
            })
        });
        let bits: Vec<u64> = v.iter().chain(&maxima).map(|x| x.to_bits()).collect();
        bits
    };
    let baseline = run();
    for seed in [0u64, 1, 42, u64::MAX] {
        rayon::set_schedule_permutation(Some(seed));
        let permuted = run();
        rayon::set_schedule_permutation(None);
        assert_eq!(baseline, permuted, "seed {seed} changed results");
    }
}

#[test]
fn a_panicking_chunk_re_raises_after_the_batch_drains() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Four chunks of 64; the third panics on its first slot.
    let mut v = vec![0u64; 256];
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool(4).install(|| {
            v.par_map_chunks_mut(|start, chunk| {
                assert!(start != 128, "deliberate test panic");
                chunk.fill(1);
            })
        })
    }));
    let Err(payload) = caught else {
        panic!("a panicking chunk must fail the call");
    };
    assert_eq!(
        payload.downcast_ref::<&str>().copied(),
        Some("deliberate test panic")
    );
    // Every other chunk finished before the panic reached the caller.
    assert!(v[..128].iter().chain(&v[192..]).all(|&x| x == 1));
    assert!(v[128..192].iter().all(|&x| x == 0));

    let mut w = vec![0u64; 256];
    let lens = pool(4).install(|| {
        w.par_map_chunks_mut(|start, chunk| {
            for (i, x) in (start..).zip(chunk.iter_mut()) {
                *x = i as u64 + 1;
            }
            chunk.len()
        })
    });
    assert_eq!(lens, vec![64; 4]);
    assert_eq!(w, (1..=256).collect::<Vec<_>>());
}
