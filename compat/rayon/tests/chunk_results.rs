//! How a forked map hands its results back: every result reaches the
//! caller in input order and is dropped exactly once, on success and
//! when a chunk job panics.
//!
//! The tests share the process-wide pool counters, so they take
//! [`SERIAL`] to keep another test's maps out of their counter deltas.

use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

/// A map result that counts its drops.
struct Counted<'a> {
    value: u64,
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

#[test]
fn forked_map_returns_each_result_once_in_input_order() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Three threads over 100 items: chunks of 34, 34 and 32.
    let (threads, n) = (3, 100u64);
    let chunk = 100usize.div_ceil(threads);
    assert_ne!(100 % chunk, 0, "the last chunk must be partial");
    let drops = Mutex::new(0);
    let before = rayon::pool_stats();
    let out: Vec<Counted<'_>> = pool(threads).install(|| {
        (0..n)
            .into_par_iter()
            .map(|x| Counted {
                value: x * 3,
                drops: &drops,
            })
            .collect()
    });
    let stats = rayon::pool_stats().since(&before);
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.jobs, 100usize.div_ceil(chunk) as u64);
    assert_eq!(stats.inline_maps, 0);
    assert_eq!(
        count(&drops),
        0,
        "a result was dropped before the caller got it"
    );
    let values: Vec<u64> = out.iter().map(|c| c.value).collect();
    assert_eq!(values, (0..n).map(|x| x * 3).collect::<Vec<_>>());
    drop(out);
    assert_eq!(count(&drops), 100);
}

#[test]
fn a_panicking_job_drops_each_result_once_and_the_pool_recovers() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let made = Mutex::new(0);
    let drops = Mutex::new(0);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool(4).install(|| {
            (0..256u64)
                .into_par_iter()
                .map(|x| {
                    assert!(x != 200, "deliberate test panic");
                    *made.lock().expect("counter lock") += 1;
                    Counted {
                        value: x,
                        drops: &drops,
                    }
                })
                .collect::<Vec<_>>()
        })
    }));
    let Err(payload) = caught else {
        panic!("a panicking job must fail the map");
    };
    assert_eq!(
        payload.downcast_ref::<&str>().copied(),
        Some("deliberate test panic")
    );
    let made = count(&made);
    assert!(made < 256, "the panicking chunk stops at its panic");
    assert_eq!(
        count(&drops),
        made,
        "every result made is dropped exactly once"
    );

    let v: Vec<u64> = pool(4).install(|| (0..256u64).into_par_iter().map(|x| x + 1).collect());
    assert_eq!(v, (1..=256).collect::<Vec<_>>());
}
