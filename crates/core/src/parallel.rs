//! The one sharding scaffold every parallel stage shares.
//!
//! Trace collection shards over machines×programs×methods, LOOCV
//! training over folds and the JIT compile session over methods; all
//! three use the same contiguous-chunk `std::thread::scope` pattern.
//! Keeping it here means a future change (thread caps, panic policy)
//! lands everywhere at once.

/// Resolves a configured worker count: `0` means one worker per
/// available core, anything else is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

/// Splits `items` into at most `threads` contiguous chunks, maps each
/// chunk through `f` on a scoped worker thread, and returns the chunk
/// results in order.
///
/// With one effective chunk (serial config, or too few items) `f` runs
/// inline on the current thread — no spawn — so the serial path has
/// zero threading overhead and, because chunks are contiguous and
/// results ordered, the concatenated output is identical either way.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn shard_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let threads = resolve_threads(threads).max(1);
    if threads == 1 || items.len() <= 1 {
        return vec![f(items)];
    }
    let chunk = items.len().div_ceil(threads);
    let mut results = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.chunks(chunk).map(|slice| scope.spawn(|| f(slice))).collect();
        results = handles.into_iter().map(|h| h.join().expect("sharded worker panicked")).collect();
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_is_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn shard_map_preserves_order_for_any_thread_count() {
        let items: Vec<u32> = (0..100).collect();
        let serial: Vec<Vec<u32>> = shard_map(&items, 1, |s| s.iter().map(|x| x * 2).collect());
        let flat_serial: Vec<u32> = serial.into_iter().flatten().collect();
        for threads in [2, 3, 8, 64] {
            let sharded = shard_map(&items, threads, |s| s.iter().map(|x| x * 2).collect::<Vec<_>>());
            let flat: Vec<u32> = sharded.into_iter().flatten().collect();
            assert_eq!(flat, flat_serial, "{threads} threads");
        }
    }

    #[test]
    fn empty_and_single_inputs_run_inline() {
        assert_eq!(shard_map(&[] as &[u32], 8, |s| s.len()), vec![0]);
        assert_eq!(shard_map(&[42u32], 8, |s| s[0]), vec![42]);
    }
}
