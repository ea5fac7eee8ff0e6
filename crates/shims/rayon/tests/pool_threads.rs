//! The pool starts its workers once: many regions leave the process at most
//! `current_num_threads() - 1` threads above where it started. A test binary
//! of its own, so no other test's threads come and go meanwhile.

use rayon::prelude::*;

/// The `Threads:` line of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("readable status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[cfg(target_os = "linux")]
#[test]
fn ten_thousand_regions_start_at_most_one_pool() {
    let before = threads();
    let v: Vec<u64> = (0..64).collect();
    for r in 0..10_000u64 {
        let sum: u64 = v
            .par_iter()
            .map(|x| x + r)
            .collect::<Vec<u64>>()
            .iter()
            .sum();
        assert_eq!(sum, 64 * 63 / 2 + 64 * r);
    }
    let after = threads();
    // At most `current_num_threads() - 1` more threads.
    assert!(
        after < before + rayon::current_num_threads(),
        "{before} threads before, {after} after"
    );
}
