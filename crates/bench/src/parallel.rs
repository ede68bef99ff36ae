//! A dependency-free scoped-parallelism scheduler for the sweep
//! harness.
//!
//! The evaluation sweeps (Table 3, Figs. 7–10) are embarrassingly
//! parallel: every (configuration, workload) cell builds its own
//! [`dvh_core::Machine`] and runs it to completion, sharing nothing.
//! Each cell stays single-threaded and bit-for-bit deterministic; the
//! scheduler only changes *when* cells run, never *what* they compute,
//! and results are committed in canonical input order — so a parallel
//! sweep's output is byte-identical to a serial one.
//!
//! Design: no work stealing, no channels, no thread pool to shut
//! down. Workers under [`std::thread::scope`] claim item indices from
//! a shared atomic counter (cheap dynamic load balancing — cells vary
//! ~30x in cost between `VM` and `L3`) and write each result into its
//! own slot. Worker panics propagate to the caller when the scope
//! joins.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of workers worth using on this host: the available
/// parallelism, or 1 when the platform cannot say.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on `workers` OS threads, returning results
/// in input order (slot `i` holds `f(&items[i])`).
///
/// `workers <= 1` runs serially on the calling thread with no
/// synchronization at all — the scheduler's overhead is exactly zero
/// for the serial case, which keeps "serial vs parallel" comparisons
/// honest.
///
/// # Panics
///
/// Re-raises the first worker panic when the scope joins.
pub fn pmap_with_workers<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    return;
                };
                let r = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed index was computed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = pmap_with_workers(8, &items, |&i| i * i);
        assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..37).collect();
        let serial = pmap_with_workers(1, &items, |&i| i.wrapping_mul(0x9E3779B97F4A7C15));
        let parallel = pmap_with_workers(4, &items, |&i| i.wrapping_mul(0x9E3779B97F4A7C15));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_item() {
        let none: Vec<u32> = vec![];
        assert!(pmap_with_workers(4, &none, |&i| i).is_empty());
        assert_eq!(pmap_with_workers(4, &[7u32], |&i| i + 1), vec![8]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = pmap_with_workers(64, &[1u32, 2, 3], |&i| i * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn available_workers_is_positive() {
        assert!(available_workers() >= 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        let r = std::panic::catch_unwind(|| {
            pmap_with_workers(2, &items, |&i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(r.is_err());
    }
}
