use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of workers [`parallel_map`] runs for a `threads` setting:
/// `threads` itself, or the machine's available parallelism for `0`.
pub(crate) fn worker_count(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Runs `f(0), f(1), …, f(count − 1)` across `threads` workers and
/// returns the results in index order.
///
/// Replications are embarrassingly parallel — each carries its own derived
/// RNG stream — so the experiment runner fans them out over a
/// `std::thread::scope`: each worker claims the next task index from one
/// shared counter until the queue is drained. The threads are spawned
/// fresh per call (there is no persistent pool). The calling thread is one
/// of the workers, so a call starts `threads − 1` threads and the caller's
/// core never idles in the join. `threads == 0` selects the
/// machine's available parallelism. Results are reassembled in index
/// order, so the output is independent of the thread count.
pub fn parallel_map<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let threads = worker_count(threads).min(count);
    if threads <= 1 {
        return (0..count).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    // One preallocated slot per task, written by index: workers never
    // contend on a shared results vector, and the output needs no sort —
    // slot order *is* index order.
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= count {
            break;
        }
        let value = f(i);
        *slots[i].lock() = Some(value);
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });

    slots
        .into_iter()
        .map(|slot| {
            // A panicking worker propagates out of the scope join above,
            // so reaching this line proves every slot was written; the
            // signature (plain `Vec<T>`, shared by dozens of callers) has
            // no error channel to thread a structured failure through.
            slot.into_inner()
                .expect("every slot is filled by its worker") // sd-lint: allow(P001, scope join proves every slot was written; Vec signature has no error channel)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_order() {
        let out = parallel_map(100, 4, |i| i * 2);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn zero_count_is_empty() {
        let out: Vec<u32> = parallel_map(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_fallback() {
        let out = parallel_map(5, 1, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn auto_thread_selection() {
        let out = parallel_map(8, 0, |i| i);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn heavier_work_is_distributed() {
        // Verifies completeness under contention rather than scheduling.
        let out = parallel_map(64, 8, |i| {
            let mut acc = 0u64;
            for k in 0..1000 {
                acc = acc.wrapping_add((i as u64).wrapping_mul(k));
            }
            acc
        });
        assert_eq!(out.len(), 64);
    }
}
