//! Putting the server and its clients on one CPU while request latency is
//! measured.
//!
//! A closed-loop request crosses threads four times (client → event loop →
//! worker → event loop → client). When two of those threads sit on different
//! virtual CPUs each hand-off is an inter-processor interrupt, which on the
//! 2-vCPU build container costs about as much as the request itself and
//! varies with the host's load: unpinned, `serve_warm`'s median latency moved
//! by 7–14% between identical runs and its p95 by 20–35%. With every thread of
//! both processes on one CPU the hand-offs are context switches; the median
//! then moved by 1–7% — and was better (88 µs against 110 µs), so nothing the
//! program does is being hidden. The price is that two workers never run at
//! the same instant; README.md lists that among the gaps.

use std::io;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU set of up to 1024 CPUs, the kernel's `cpu_set_t`.
type CpuSet = [u64; 16];

/// The CPUs this process may use, and the one the measured threads go on.
pub struct Affinity {
    allowed: CpuSet,
    one: CpuSet,
}

impl Affinity {
    /// Read the allowed set; the measurement CPU is the highest one in it
    /// (CPU 0 is where a small VM takes its interrupts).
    pub fn detect() -> io::Result<Self> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: the mask pointer is valid for the size passed with it.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) } != 0
        {
            return Err(io::Error::last_os_error());
        }
        let word = allowed.iter().rposition(|&w| w != 0).ok_or(io::ErrorKind::NotFound)?;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (63 - allowed[word].leading_zeros());
        Ok(Affinity { allowed, one })
    }

    /// Restrict every thread of process `pid` to the measurement CPU.
    pub fn pin(&self, pid: u32) -> io::Result<()> {
        set(pid, &self.one)
    }

    /// Give every thread of process `pid` back all allowed CPUs.
    pub fn release(&self, pid: u32) -> io::Result<()> {
        set(pid, &self.allowed)
    }
}

/// Threads started later inherit the mask of the thread that starts them, so
/// this is called between requests, when the server has only its event loop
/// and its workers.
fn set(pid: u32, mask: &CpuSet) -> io::Result<()> {
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let name = task?.file_name();
        let tid: i32 = name.to_string_lossy().parse().map_err(|_| io::ErrorKind::InvalidData)?;
        // SAFETY: the mask pointer is valid for the size passed with it; a
        // thread that has exited meanwhile makes the call fail with ESRCH.
        let failed =
            unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), mask.as_ptr()) } != 0;
        if failed && io::Error::last_os_error().raw_os_error() != Some(3) {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_cpu_and_releasing_restores_the_allowed_set() {
        let affinity = Affinity::detect().unwrap();
        assert_eq!(affinity.one.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert!(affinity.one.iter().zip(&affinity.allowed).all(|(one, all)| one & all == *one));
        // On a thread of its own: tests share the process.
        std::thread::spawn(move || {
            let current = || {
                let mut mask: CpuSet = [0; 16];
                // SAFETY: the mask pointer is valid for the size passed with it.
                unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) };
                mask
            };
            // SAFETY: as above.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), affinity.one.as_ptr()) };
            assert_eq!(current(), affinity.one);
            // SAFETY: as above.
            unsafe {
                sched_setaffinity(0, std::mem::size_of::<CpuSet>(), affinity.allowed.as_ptr())
            };
            assert_eq!(current(), affinity.allowed);
        })
        .join()
        .unwrap();
    }
}
