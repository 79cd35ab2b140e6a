//! The one scoped-thread fan-out primitive every parallel path in the service layer
//! shares.
//!
//! Batch queries, batch inserts and the join-side bank build all need the same
//! shape: `n` independent items, up to `W` workers, worker `w` deterministically
//! handling items `w, w + W, w + 2W, ...` (round-robin keeps the assignment
//! independent of timing, so runs are reproducible), results tagged with their item
//! index so the caller can scatter them back. Keeping the load-bearing concurrency
//! in one function means one place to reason about panics, worker counts and the
//! sequential fast path.
//!
//! **The caller is worker 0.** Starting and joining a scoped thread costs tens of
//! microseconds (30–50 µs per spawn on a 2-vCPU machine), as much as hundreds of
//! keys of filter work. The calling thread would otherwise sit idle in the join, so
//! it runs worker 0's share itself and only `W − 1` threads are spawned. Whether a
//! batch is worth splitting at all is the caller's decision: see
//! [`crate::service::MIN_KEYS_PER_WORKER`].

/// Run `work(item)` for every item in `0..num_items` on up to `workers` workers and
/// return the produced results tagged by item index, in unspecified order. Items
/// for which `work` returns `None` (e.g. empty per-shard chunks) produce nothing.
/// Worker 0's round-robin share runs on the calling thread and the other
/// `workers − 1` shares on scoped threads, so with `workers <= 1` everything runs
/// on the calling thread, in item order, with no spawn at all.
///
/// `work` runs concurrently on multiple threads; a panicking `work` call propagates
/// as a panic here (after the scope joins the remaining workers).
pub fn fan_out_indexed<T: Send>(
    num_items: usize,
    workers: usize,
    work: impl Fn(usize) -> Option<T> + Sync,
) -> Vec<(usize, T)> {
    let workers = workers.clamp(1, num_items.max(1));
    let work = &work;
    let share = move |w: usize| {
        (w..num_items)
            .step_by(workers)
            .filter_map(move |i| work(i).map(|r| (i, r)))
    };
    if workers == 1 {
        return share(0).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|w| scope.spawn(move || share(w).collect::<Vec<_>>()))
            .collect();
        let mut out = Vec::with_capacity(num_items);
        out.extend(share(0));
        for handle in handles {
            out.extend(handle.join().expect("fan-out worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_item_exactly_once() {
        for workers in [1, 2, 3, 8, 100] {
            let mut results = fan_out_indexed(17, workers, |i| Some(i * i));
            results.sort_unstable();
            assert_eq!(results.len(), 17, "workers = {workers}");
            for (i, (idx, sq)) in results.iter().enumerate() {
                assert_eq!((*idx, *sq), (i, i * i));
            }
        }
    }

    #[test]
    fn none_items_are_skipped() {
        let results = fan_out_indexed(10, 4, |i| (i % 2 == 0).then_some(i));
        assert_eq!(results.len(), 5);
        assert!(results.iter().all(|(i, v)| i == v && i % 2 == 0));
    }

    #[test]
    fn zero_items_is_a_no_op() {
        assert!(fan_out_indexed(0, 4, |_| Some(())).is_empty());
    }

    #[test]
    fn the_caller_runs_worker_zeros_share() {
        let caller = std::thread::current().id();
        let workers = 3;
        let ran_on = fan_out_indexed(10, workers, |_| Some(std::thread::current().id()));
        assert_eq!(ran_on.len(), 10);
        for (i, thread) in ran_on {
            if i % workers == 0 {
                assert_eq!(thread, caller, "item {i} belongs to worker 0");
            } else {
                assert_ne!(thread, caller, "item {i} belongs to a spawned worker");
            }
        }
    }

    #[test]
    fn sequential_path_preserves_item_order() {
        let results = fan_out_indexed(6, 1, Some);
        assert_eq!(results, (0..6).map(|i| (i, i)).collect::<Vec<_>>());
    }
}
