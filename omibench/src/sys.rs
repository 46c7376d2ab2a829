//! Peak-memory probes without a new dependency: a raw `wait4(2)` that
//! reaps a child together with its `ru_maxrss`, and the `VmHWM` line of
//! a live process's `/proc/<pid>/status`. Both follow the raw-syscall
//! pattern of `omislice-trace`'s mmap loader: Linux x86-64 only, with a
//! portable fallback that reports no memory figure rather than a wrong
//! one.

use std::io;
use std::process::Child;

/// A reaped child: its exit code (`None` when a signal ended it) and its
/// peak resident set in KiB, when the platform reports one.
#[derive(Debug, Clone, Copy)]
pub struct Reaped {
    pub code: Option<i32>,
    pub max_rss_kib: Option<u64>,
}

/// Waits for `child` to exit and collects its resource usage.
///
/// # Errors
///
/// Returns the OS error when the wait itself fails.
pub fn reap(child: &mut Child) -> io::Result<Reaped> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        let pid = i32::try_from(child.id())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "pid out of range"))?;
        let (status, max_rss_kib) = linux::wait4(pid)?;
        let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
        Ok(Reaped {
            code,
            max_rss_kib: Some(max_rss_kib),
        })
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        let status = child.wait()?;
        Ok(Reaped {
            code: status.code(),
            max_rss_kib: None,
        })
    }
}

/// The `VmHWM` (peak resident set) of a live process, in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod linux {
    use std::arch::asm;
    use std::io;

    const SYS_WAIT4: isize = 61;
    const EINTR: isize = 4;
    /// `struct rusage` on x86-64 Linux: two `timeval`s (two `long`s each)
    /// followed by fourteen `long`s, the first of which is `ru_maxrss`.
    const RUSAGE_LONGS: usize = 18;
    const RU_MAXRSS: usize = 4;

    /// Blocks until `pid` exits; returns its raw wait status and
    /// `ru_maxrss` (KiB). Retries when a signal interrupts the wait.
    pub(super) fn wait4(pid: i32) -> io::Result<(i32, u64)> {
        loop {
            let mut status: i32 = 0;
            let mut usage = [0i64; RUSAGE_LONGS];
            let ret: isize;
            // SAFETY: wait4(2) writes one `int` through the status pointer
            // and one `struct rusage` (RUSAGE_LONGS longs on x86-64 Linux)
            // through the usage pointer; both point at locals of exactly
            // those sizes that outlive the call.
            unsafe {
                asm!(
                    "syscall",
                    inlateout("rax") SYS_WAIT4 => ret,
                    in("rdi") pid as isize,
                    in("rsi") &mut status as *mut i32,
                    in("rdx") 0usize,
                    in("r10") usage.as_mut_ptr(),
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack)
                );
            }
            if ret == -EINTR {
                continue;
            }
            if (-4095..0).contains(&ret) {
                return Err(io::Error::from_raw_os_error(-ret as i32));
            }
            return Ok((status, usage[RU_MAXRSS].max(0) as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_line_parses() {
        let status =
            "Name:\tomislice\nVmPeak:\t  90000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(51234));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }

    #[test]
    fn own_process_reports_a_high_water_mark() {
        assert!(vm_hwm_kib(std::process::id()).is_some_and(|k| k > 0));
    }
}
