//! A search-path miss allocates nothing.
//!
//! A probe looks a name up in a directory handle and charges the
//! (directory, name) key, so once the cost model's caches hold the key and
//! with tracing off (the log's amortised growth aside), a miss is lock,
//! lookup and arithmetic. This binary counts its own thread's allocations
//! with a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use depchaos_elf::Machine;
use depchaos_loader::{Environment, Prober};
use depchaos_vfs::{Backend, Name, Vfs};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // A const-initialised `Cell` needs no lazy set-up, so this cannot
    // recurse into the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` contract passes through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn a_probe_miss_allocates_nothing() {
    let names: Vec<String> = (0..64).map(|i| format!("libmissing{i}.so")).collect();
    let names: Vec<Name> = names.iter().map(|n| Name::new(n)).collect();
    for backend in [Backend::local(), Backend::nfs(), Backend::nfs_with_negative_caching()] {
        let fs = Vfs::new(backend);
        fs.mkdir_p("/usr/lib").unwrap();
        fs.mkdir_p("/opt/a/lib").unwrap();
        fs.write_file("/usr/lib/libm.so.6", vec![1]).unwrap();
        let env = Environment::bare().with_ld_library_path("/opt/a/lib:/opt/gone:/usr/lib");
        let prober = Prober::accounted(&fs, &env, Machine::X86_64);
        let path = prober.ld_library_path();
        let dir = fs.dir("/usr/lib");
        let miss_everywhere = |fs: &Vfs| {
            for &n in &names {
                assert!(fs.probe(&dir, n).is_none());
                assert!(prober.first(&path, n).is_none());
            }
        };
        // The first round records each key in the cost model's caches.
        miss_everywhere(&fs);
        let before = allocations();
        for _ in 0..10 {
            miss_everywhere(&fs);
        }
        assert_eq!(allocations() - before, 0, "{backend:?}");
        assert_eq!(fs.snapshot().misses, 11 * 64 * 4);
    }
}
