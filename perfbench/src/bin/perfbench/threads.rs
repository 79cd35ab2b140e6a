//! Where a workload's threads run and allocate.
//!
//! On a machine whose cores are virtual and shared with other guests, a thread that
//! wakes a thread on another core can wait milliseconds for that core to be given
//! back, and threads that allocate get malloc arenas of their own whose retained
//! memory depends on timing. `daemon_loopback` wakes a thread on every hop of a
//! round trip and starts threads for every batch, so it keeps its threads on one CPU
//! and in one arena: see the README's notes on that workload.

use std::mem::size_of_val;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// glibc's `M_ARENA_MAX` parameter of `mallopt`.
const M_ARENA_MAX: i32 = -8;

// SAFETY: the declarations match the C library's prototypes of sched_getaffinity(2),
// sched_setaffinity(2) and mallopt(3) on 64-bit Linux: `pid_t` and `int` are `i32`,
// `size_t` is `usize`, and `cpu_set_t` is 128 bytes. Each call states its own
// contract.
#[allow(unsafe_code)]
mod libc {
    use super::CpuSet;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
        pub fn mallopt(param: i32, value: i32) -> i32;
    }
}

/// Restrict the calling thread, and every thread it or its descendants start from
/// now on, to the lowest-numbered CPU it may run on. Returns that CPU, or `None` if
/// the affinity could not be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable `cpu_set_t` of exactly the size passed, and pid
    // 0 names the calling thread.
    #[allow(unsafe_code)]
    let read = unsafe { libc::sched_getaffinity(0, size_of_val(&allowed), &mut allowed) };
    if read != 0 {
        return None;
    }
    let word = allowed.iter().position(|&w| w != 0)?;
    let bit = allowed[word].trailing_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable `cpu_set_t` of exactly the size passed, and pid 0
    // names the calling thread.
    #[allow(unsafe_code)]
    let set = unsafe { libc::sched_setaffinity(0, size_of_val(&one), &one) };
    (set == 0).then_some(word * 64 + bit)
}

/// Have every thread allocate from the C library's one main malloc arena. Returns
/// whether the setting was taken.
pub fn one_malloc_arena() -> bool {
    // SAFETY: `mallopt` takes two integers and touches only the allocator's own
    // parameters; `M_ARENA_MAX` is valid at any time.
    #[allow(unsafe_code)]
    let taken = unsafe { libc::mallopt(M_ARENA_MAX, 1) };
    taken == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_pins_itself_and_its_children() {
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("the affinity can be set");
            let child = std::thread::spawn(pin_to_one_cpu).join().unwrap();
            assert_eq!(child, Some(cpu));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn the_arena_limit_is_taken() {
        assert!(one_malloc_arena());
    }
}
