//! The pipeline's one worker pool: profiling cells
//! ([`ExperimentMatrix::run_with`](crate::ExperimentMatrix::run_with)) and
//! solving a [`BatchPlan`](crate::BatchPlan)'s unique kernels both run
//! through [`map`], sized by the same `jobs`.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The threads [`map`] runs `n` items on: `jobs`, at most one per item and
/// at least one (the caller).
pub(crate) fn workers(jobs: usize, n: usize) -> usize {
    jobs.clamp(1, n.max(1))
}

/// `f` of every item, returned in item order, computed on
/// [`workers`]`(jobs, items.len())` threads: the calling thread plus that
/// many minus one scoped spawns, every thread pulling the next item off one
/// shared counter. Item costs vary by orders of magnitude, so the pull
/// balances the load; callers that know their costs put the largest items
/// first. One worker runs inline and spawns nothing. A panic in `f`
/// resumes on the caller, with its own payload, once every thread has
/// stopped.
pub(crate) fn map<I: Sync, T: Send>(
    jobs: usize,
    items: &[I],
    f: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let workers = workers(jobs, items.len());
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    // The counter only hands out indices; results travel back through
    // `join`, which orders every worker's writes before the caller reads.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return done };
            done.push((i, f(item)));
        }
    };
    let mut done = std::thread::scope(|sc| {
        let spawned: Vec<_> = (1..workers).map(|_| sc.spawn(work)).collect();
        let mut done = work();
        for h in spawned {
            done.extend(h.join().unwrap_or_else(|e| resume_unwind(e)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_at_any_worker_count() {
        let items: Vec<usize> = (0..50).collect();
        let want: Vec<usize> = items.iter().map(|i| i * i).collect();
        for jobs in [0, 1, 2, 3, 64] {
            assert_eq!(map(jobs, &items, |i| i * i), want, "jobs={jobs}");
        }
        assert!(map(4, &[] as &[usize], |&i| i).is_empty());
    }

    #[test]
    fn workers_never_exceed_the_items() {
        assert_eq!(workers(0, 10), 1);
        assert_eq!(workers(8, 3), 3);
        assert_eq!(workers(8, 0), 1);
        assert_eq!(workers(2, 33), 2);
    }

    #[test]
    #[should_panic(expected = "item 7")]
    fn a_worker_panic_resumes_on_the_caller_with_its_payload() {
        let items: Vec<usize> = (0..20).collect();
        map(3, &items, |&i| if i == 7 { panic!("item {i}") } else { i });
    }
}
