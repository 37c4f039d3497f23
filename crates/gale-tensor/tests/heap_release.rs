//! `heap::release_free_pages` returns freed heap that small live chunks
//! pin in place.
//!
//! One `#[test]` in its own integration binary: it reads the process
//! resident set, which other tests' allocations would move.

/// Resident set of this process in KiB (`VmRSS`).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn rss_kib() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
fn freed_heap_under_live_chunks_stops_being_resident() {
    // 384 buffers of 96 KiB (36 MiB), each under glibc's default mmap
    // threshold so it comes from the heap, and each followed by a small
    // allocation that stays live, so `free` cannot give the heap back
    // from its top.
    const BUF: usize = 96 * 1024;
    const N: usize = 384;
    let start = rss_kib();
    let mut bufs = Vec::with_capacity(N);
    let mut pins = Vec::with_capacity(N);
    for i in 0..N {
        // A non-zero fill writes every page, so every page is resident.
        bufs.push(vec![(i % 251) as u8 + 1; BUF]);
        pins.push(Box::new(i));
    }
    let filled = rss_kib();
    assert!(
        filled >= start + N * BUF / 1024 * 3 / 4,
        "buffers not resident: {start} KiB -> {filled} KiB"
    );
    drop(bufs);
    gale_tensor::heap::release_free_pages();
    let released = rss_kib();
    // What stays is the pages the live pins sit on, one per buffer
    // (1.5 MiB); 4 MiB covers that with room for the harness.
    assert!(
        released <= start + 4 * 1024,
        "freed heap still resident: {start} KiB at start, {filled} KiB filled, \
         {released} KiB after release"
    );
    assert_eq!(pins.iter().map(|p| **p).sum::<usize>(), N * (N - 1) / 2);
}
