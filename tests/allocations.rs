//! The first phase plans in buffers its session keeps, so stepping a session allocates next to
//! nothing: what is left is amortised growth, such as the event heap's, the ready sets' and the
//! metric series'.  This binary installs a counting global allocator; it counts per thread, so
//! tests running at once do not see each other's allocations.

use p2pgrid::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and reallocations made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation on the thread asking.
struct Counting;

fn count() {
    // A thread being torn down has no counter left; it is not stepping a session either.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments unchanged; counting
// touches only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn stepping_a_session_allocates_less_than_once_every_four_steps() {
    let scenario = Scenario::build(GridConfig::small(24).with_seed(1212)).unwrap();
    for algorithm in [
        Algorithm::Dsmf,
        Algorithm::MinMin,
        Algorithm::Sufferage,
        Algorithm::Heft,
    ] {
        // Starting the session clones the world's state (and the first start builds the
        // gossip trace); only what stepping allocates is counted.
        let mut session = scenario.simulate_algorithm(algorithm);
        let before = allocations();
        let mut steps = 0u64;
        while session.step().is_some() {
            steps += 1;
        }
        let made = allocations() - before;
        let report = session.finish();
        assert!(report.completed > 0, "{algorithm}: no workflow completed");
        println!("{algorithm}: {made} allocations over {steps} steps");
        assert!(
            4 * made < steps,
            "{algorithm}: {made} allocations over {steps} steps"
        );
    }
}
