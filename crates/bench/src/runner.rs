//! Parallel experiment dispatch.
//!
//! Every point of a figure sweep is an independent simulation (its own
//! [`vcop::System`]), so the figure binaries farm the points out to one
//! worker thread per core with [`parallel_map`] and only join for the
//! final table.

use std::sync::Mutex;

/// Runs `f` over every item on a pool of worker threads (one per
/// available core), preserving input order in the output.
///
/// Items are pulled from a shared queue, so uneven point costs (a 32 KB
/// sweep point next to a 2 KB one) load-balance naturally.
///
/// # Examples
///
/// ```
/// let squares = vcop_bench::runner::parallel_map(vec![1u64, 2, 3, 4], |n| n * n);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len().max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Index the items so results can be reassembled in input order, and
    // reverse so `pop()` hands them out front-to-back.
    let queue: Mutex<Vec<(usize, I)>> = Mutex::new(items.into_iter().enumerate().rev().collect());
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let Some((idx, item)) = queue.lock().unwrap().pop() else {
                    break;
                };
                let out = f(item);
                results.lock().unwrap().push((idx, out));
            });
        }
    });

    let mut results = results.into_inner().unwrap();
    results.sort_by_key(|(idx, _)| *idx);
    results.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let input: Vec<u64> = (0..64).collect();
        let expected: Vec<u64> = input.iter().map(|n| n * 3 + 1).collect();
        assert_eq!(parallel_map(input, |n| n * 3 + 1), expected);
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(parallel_map(Vec::<u32>::new(), |n| n), Vec::<u32>::new());
        assert_eq!(parallel_map(vec![7u32], |n| n + 1), vec![8]);
    }
}
