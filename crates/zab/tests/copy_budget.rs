//! Copy budget: what one `ZabState::clone` may cost, counted by this file's own
//! allocator.  The checker copies a state into the store, into the frontier and per
//! sampler step; with the components behind `Shared` a copy is two small `Vec`s of
//! handles (16.6 allocations / 2,548 heap bytes before).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use remix_checker::{corpus, CorpusOptions};
use remix_zab::{ClusterConfig, CodeVersion, ServerData, SpecPreset, ZabState};

thread_local! {
    /// `(allocations, bytes)` requested by this thread; no destructor, so the allocator
    /// may touch it at any point of the thread's life.
    static REQUESTED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter update that
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|c| {
            let (allocations, bytes) = c.get();
            c.set((allocations + 1, bytes + layout.size()));
        });
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_state_copy_is_a_few_handles() {
    assert!(size_of::<ZabState>() <= 128, "{}", size_of::<ZabState>());
    assert!(
        size_of::<ServerData>() <= 272,
        "{}",
        size_of::<ServerData>()
    );

    let config = ClusterConfig::small(CodeVersion::FinalFix)
        .with_transactions(1)
        .with_crashes(0);
    let states = corpus(&SpecPreset::MSpec3.build(&config), CorpusOptions::default());
    assert_eq!(states.len(), 503);
    for state in &states {
        let (allocations, bytes) = REQUESTED.with(Cell::get);
        let copy = state.clone();
        let (allocations_after, bytes_after) = REQUESTED.with(Cell::get);
        assert_eq!(&copy, state);
        let (allocations, bytes) = (allocations_after - allocations, bytes_after - bytes);
        assert!(
            allocations <= 3 && bytes <= 64,
            "cloning took {allocations} allocations / {bytes} bytes:\n{state:#?}"
        );
    }
}
