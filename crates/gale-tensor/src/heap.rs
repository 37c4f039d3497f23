//! Handing freed heap pages back to the operating system.
//!
//! glibc's `free` gives memory back to the kernel only from the top of
//! the heap. A call that builds and drops a large working set out of many
//! mid-sized buffers (the AL loop's training and selection intermediates)
//! leaves most of it as free chunks under a few small live ones,
//! so after the call returns those pages stay resident, in an amount set
//! by the heap's history as much as by the call: 22 to 71 MiB after one
//! `run_gale` call on a 7,080-node graph, and up to 22 MiB apart for the
//! same inputs in two processes. [`release_free_pages`] asks the
//! allocator to drop every whole free page (`malloc_trim(0)`), so what
//! stays resident after such a call is what is still live.
//!
//! Elsewhere than glibc it does nothing. Freed chunks keep their address
//! ranges and are faulted back in on reuse, so no value a later
//! computation reads can change.

/// Returns every whole free page of the process heap (all arenas) to the
/// operating system. Call it after dropping a large working set; it costs
/// a walk over the free lists, and the released pages a fault each when
/// they are reused.
pub fn release_free_pages() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    trim::malloc_trim_all();
}

// Scoped like `par` and `aligned`: the crate denies unsafe code except for
// small audited blocks. Here it is one call into glibc.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
mod trim {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }

    pub(super) fn malloc_trim_all() {
        // SAFETY: `malloc_trim` takes no pointers and has no preconditions;
        // it locks each arena while it walks that arena's free lists.
        unsafe {
            malloc_trim(0);
        }
    }
}
