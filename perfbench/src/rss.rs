//! Resident-set readings (Linux): the benchmark process's peak over one
//! call, and the peak of the worker processes it has spawned and reaped.

/// Starts a new peak window: the kernel resets the process's resident-set
/// high-water mark to its current resident set.
pub fn reset_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set since the last [`reset_peak`], in MiB.
pub fn own_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

extern "C" {
    fn getrusage(who: i32, usage: *mut i64) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// `struct rusage` on 64-bit Linux is two `timeval`s (four `i64`s) and
/// then 14 `long`s, of which `ru_maxrss` (KiB) is the first.
const RUSAGE_WORDS: usize = 18;
const MAXRSS_WORD: usize = 4;

/// The largest peak resident set of any reaped child process, in MiB
/// (0 when none has been reaped).
pub fn children_peak_mb() -> Option<f64> {
    let mut usage = [0i64; RUSAGE_WORDS];
    // SAFETY: `usage` has the size and alignment of the C `struct rusage`
    // on 64-bit Linux and is valid for writes; getrusage writes only
    // within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, usage.as_mut_ptr()) };
    (rc == 0).then(|| usage[MAXRSS_WORD] as f64 / 1024.0)
}
