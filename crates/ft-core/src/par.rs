//! The one parallel primitive of the engine: an index-ordered map over
//! `0..n` on scoped OS threads.

use std::num::NonZeroUsize;
use std::thread;

/// Maps `f` over `0..n` and returns the results in index order.
///
/// The range is split into at most `available_parallelism()`
/// contiguous, near-equal parts (the first `n % parts` one index
/// longer); each part runs on its own scoped thread and the parts are
/// concatenated in order, so the output is the sequential
/// `(0..n).map(f).collect()` whatever the schedule. With one part the
/// map runs inline on the caller's thread. A panic in `f` is re-raised
/// in the caller with its original payload.
pub fn par_map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let parts = thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .clamp(1, n.max(1));
    if parts == 1 {
        return (0..n).map(f).collect();
    }
    let (base, extra) = (n / parts, n % parts);
    let f = &f;
    thread::scope(|s| {
        let mut start = 0;
        let handles: Vec<_> = (0..parts)
            .map(|t| {
                let end = start + base + usize::from(t < extra);
                let range = start..end;
                start = end;
                s.spawn(move || range.map(f).collect::<Vec<R>>())
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for h in handles {
            out.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::par_map;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_index_order() {
        for n in [0, 1, 2, 7, 1000] {
            let expected: Vec<usize> = (0..n).map(|i| i * i + 3).collect();
            assert_eq!(par_map(n, |i| i * i + 3), expected, "n = {n}");
        }
    }

    #[test]
    fn f_runs_exactly_once_per_index() {
        for n in [0, 1, 2, 7, 1000] {
            let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let first = par_map(n, |i| calls[i].fetch_add(1, Ordering::Relaxed));
            let counts: Vec<usize> = calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
            assert_eq!(first, vec![0; n], "n = {n}: an index ran twice");
            assert_eq!(counts, vec![1; n], "n = {n}: an index never ran");
        }
    }

    #[test]
    #[should_panic(expected = "worker 5 failed")]
    fn a_worker_panic_reaches_the_caller() {
        par_map(8, |i| {
            if i == 5 {
                panic!("worker {i} failed");
            }
            i
        });
    }
}
