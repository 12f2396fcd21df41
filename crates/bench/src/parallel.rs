//! Parallel seed-sweep executor.
//!
//! Every figure in the paper is an average over independent seeded runs,
//! and every run is a *pure function of its seed* — so the sweep is
//! embarrassingly parallel. [`sweep`] fans the work items out over
//! `std::thread::scope` workers (one `Sim` per item, nothing shared but the
//! closure's borrows) and merges the results **in item order**, so the
//! output is byte-identical to a sequential sweep no matter how many jobs
//! ran or how the OS scheduled them. Experiments fold their per-run
//! partials in that same order on both paths, which is what `--jobs N` (and
//! the `perf_harness` tests) rely on.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(0..count)` over `jobs` worker threads and returns the results
/// in item order.
///
/// * `jobs <= 1` (or `count <= 1`) runs inline on the caller's thread —
///   the sequential baseline is the same code path minus the threads.
/// * Work is pulled from a shared counter, so long items don't straggle
///   behind a static partition.
/// * The merge is by item index: result `i` is `f(i)` regardless of which
///   worker computed it or when it finished.
///
/// # Panics
///
/// Propagates the first worker panic to the caller.
pub fn sweep<T, F>(count: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(count);
    if jobs <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut produced = Vec::new();
                    loop {
                        let item = next.fetch_add(1, Ordering::Relaxed);
                        if item >= count {
                            return produced;
                        }
                        produced.push((item, f(item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let produced = handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (item, value) in produced {
                slots[item] = Some(value);
            }
        }
    });
    slots.into_iter().map(|slot| slot.expect("every item produced")).collect()
}

/// Runs `f(&key, run)` for every `key × run` combination over `jobs`
/// workers and returns each key paired with its run partials, keys in
/// input order and partials in run order.
///
/// The pairing is correct *by construction* — the same `keys` vector
/// drives both the fan-out and the regrouping — and each key rides along
/// with its partials, so a caller merging in its own iteration order can
/// assert that order against the returned keys instead of trusting a
/// silently-parallel loop nesting.
pub fn sweep_grid<K: Sync, T: Send>(
    keys: Vec<K>,
    runs: usize,
    jobs: usize,
    f: impl Fn(&K, usize) -> T + Sync,
) -> Vec<(K, Vec<T>)> {
    let outputs = sweep(keys.len() * runs, jobs, |i| f(&keys[i / runs.max(1)], i % runs.max(1)));
    let mut outputs = outputs.into_iter();
    let grouped: Vec<(K, Vec<T>)> =
        keys.into_iter().map(|key| (key, (&mut outputs).take(runs).collect())).collect();
    debug_assert!(outputs.next().is_none(), "every partial belongs to exactly one key");
    grouped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        for jobs in [1, 2, 4, 16] {
            let out = sweep(37, jobs, |i| i * 3);
            assert_eq!(out, (0..37).map(|i| i * 3).collect::<Vec<_>>(), "jobs = {jobs}");
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        // A mildly expensive pure function: parallel must reproduce the
        // sequential output exactly.
        let work = |i: usize| {
            let mut x = i as u64 ^ 0x9E37_79B9;
            for _ in 0..1_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            }
            x
        };
        assert_eq!(sweep(64, 1, work), sweep(64, 4, work));
    }

    #[test]
    fn degenerate_counts() {
        assert_eq!(sweep(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(sweep(1, 4, |i| i + 1), vec![1]);
        // More jobs than items must not hang or skip work.
        assert_eq!(sweep(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn grid_pairs_keys_with_their_runs() {
        for jobs in [1, 4] {
            let grid = sweep_grid(vec!["a", "b", "c"], 2, jobs, |&key, run| format!("{key}{run}"));
            assert_eq!(
                grid,
                vec![
                    ("a", vec!["a0".to_owned(), "a1".to_owned()]),
                    ("b", vec!["b0".to_owned(), "b1".to_owned()]),
                    ("c", vec!["c0".to_owned(), "c1".to_owned()]),
                ],
                "jobs = {jobs}"
            );
        }
        assert_eq!(sweep_grid(Vec::<u8>::new(), 3, 2, |_, run| run), vec![]);
    }

    #[test]
    #[should_panic(expected = "item 2 exploded")]
    fn worker_panics_propagate() {
        sweep(8, 4, |i| {
            if i == 2 {
                panic!("item 2 exploded");
            }
            i
        });
    }
}
