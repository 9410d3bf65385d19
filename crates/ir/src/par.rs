//! Order-preserving parallel map on scoped threads.
//!
//! The one parallel primitive the workspace needs: a search step expands
//! one entry of each selected frontier and the auditor re-verifies a list
//! of classes, each as `items → results` where the results must come back
//! in input order so outcomes never depend on thread scheduling.
//! [`map_in_order`] splits the items into one contiguous chunk per worker,
//! runs the chunks on [`std::thread::scope`] threads spawned for the call,
//! and concatenates the chunk results in order.
//!
//! # Examples
//!
//! ```
//! let squares = quartz_ir::par::map_in_order(&[1, 2, 3, 4, 5], 2, |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

/// Number of hardware threads available to this process (at least 1) —
/// what a thread count of 0 means to [`map_in_order`].
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps every item through `f` on up to `threads` workers (0 = one per
/// [available](available_threads) hardware thread) and returns the results
/// **in input order**. Runs inline when one worker or one item suffices.
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn map_in_order<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = if threads == 0 {
        available_threads()
    } else {
        threads
    };
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let chunk_len = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for handle in handles {
            out.extend(handle.join().expect("parallel map worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for threads in [0, 1, 2, 3, 7] {
            assert_eq!(map_in_order(&items, threads, |x| x * 2), expected);
        }
    }

    #[test]
    fn single_thread_and_empty_inputs_work() {
        assert_eq!(map_in_order(&[7usize], 1, |x| x + 1), vec![8]);
        assert_eq!(map_in_order(&[7usize], 4, |x| x + 1), vec![8]);
        let empty: Vec<usize> = Vec::new();
        assert!(map_in_order(&empty, 4, |x| x + 1).is_empty());
    }

    #[test]
    fn thread_cap_is_respected_logically() {
        let items: Vec<usize> = (0..17).collect();
        let workers = std::sync::Mutex::new(std::collections::HashSet::new());
        let out = map_in_order(&items, 4, |x| {
            workers.lock().unwrap().insert(std::thread::current().id());
            x * x
        });
        assert_eq!(out.len(), 17);
        assert_eq!(out[16], 256);
        assert!(workers.into_inner().unwrap().len() <= 4);
    }
}
