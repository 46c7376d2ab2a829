//! Read-only file mapping for the trace loader, dependency-free.
//!
//! The repository vendors no platform crates, so on x86-64 Linux the
//! `mmap`/`munmap` system calls are issued directly via inline assembly;
//! every other target falls back to a buffered [`std::fs::read`]. Either
//! way the caller sees one contiguous `&[u8]` — [`FileBytes`] hides
//! which path produced it — and the decoder copies column payloads into
//! owned arrays, so the mapping only needs to outlive the decode.

use std::io;
use std::ops::Deref;
use std::path::Path;

/// The bytes of a file: memory-mapped where supported, owned otherwise.
pub(crate) enum FileBytes {
    /// Heap-allocated copy of the file.
    Owned(Vec<u8>),
    /// A live read-only mapping.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Mapped(linux::Mmap),
}

impl Deref for FileBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            FileBytes::Owned(v) => v,
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            FileBytes::Mapped(m) => m,
        }
    }
}

/// Reads a whole file, preferring a memory mapping where the platform
/// supports it. Mapping failures — real ones (e.g. exotic filesystems)
/// or an injected `mmap=fail` fault — degrade to a buffered read rather
/// than erroring, and the fallback is counted as a
/// [`crate::supervisor::RecoveryKind::MmapFallback`] recovery.
pub(crate) fn read_file(path: &Path) -> io::Result<FileBytes> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        use crate::supervisor::{fault_hit, note_recovery, FaultSite, RecoveryKind};
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if len > 0 && len <= usize::MAX as u64 {
            if fault_hit(FaultSite::Mmap).is_none() {
                if let Ok(map) = linux::Mmap::map(&file, len as usize) {
                    return Ok(FileBytes::Mapped(map));
                }
            }
            note_recovery(RecoveryKind::MmapFallback);
        } else if len == 0 {
            return Ok(FileBytes::Owned(Vec::new()));
        }
    }
    Ok(FileBytes::Owned(std::fs::read(path)?))
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod linux {
    use std::arch::asm;
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    const SYS_MMAP: usize = 9;
    const SYS_MUNMAP: usize = 11;
    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    /// A read-only, private mapping of one file, unmapped on drop.
    pub(crate) struct Mmap {
        ptr: *const u8,
        len: usize,
    }

    // The mapping is immutable shared memory backed by the page cache.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `len` bytes of `file` read-only from offset 0.
        pub(crate) fn map(file: &File, len: usize) -> io::Result<Mmap> {
            let fd = file.as_raw_fd();
            let ret: isize;
            // SAFETY: a well-formed mmap(2) invocation; all arguments are
            // owned by this frame and the kernel validates the fd/length.
            unsafe {
                asm!(
                    "syscall",
                    inlateout("rax") SYS_MMAP as isize => ret,
                    in("rdi") 0usize,
                    in("rsi") len,
                    in("rdx") PROT_READ,
                    in("r10") MAP_PRIVATE,
                    in("r8") fd as isize,
                    in("r9") 0usize,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack)
                );
            }
            if (-4095..0).contains(&ret) {
                return Err(io::Error::from_raw_os_error(-ret as i32));
            }
            Ok(Mmap {
                ptr: ret as *const u8,
                len,
            })
        }
    }

    impl std::ops::Deref for Mmap {
        type Target = [u8];

        fn deref(&self) -> &[u8] {
            // SAFETY: the mapping covers `len` readable bytes until
            // munmap in Drop; the file is opened read-only and mapped
            // MAP_PRIVATE, so concurrent writers cannot shrink our view
            // of already-mapped pages.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            let ret: isize;
            // SAFETY: unmaps exactly the region mapped in `map`.
            unsafe {
                asm!(
                    "syscall",
                    inlateout("rax") SYS_MUNMAP as isize => ret,
                    in("rdi") self.ptr,
                    in("rsi") self.len,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack)
                );
            }
            debug_assert_eq!(ret, 0, "munmap failed");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_file_contents() {
        let dir = std::env::temp_dir().join("omitrace-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("payload.bin");
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &data).unwrap();
        let bytes = read_file(&path).unwrap();
        assert_eq!(&*bytes, &data[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_reads_empty() {
        let dir = std::env::temp_dir().join("omitrace-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let bytes = read_file(&path).unwrap();
        assert!(bytes.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_errors() {
        assert!(read_file(Path::new("/nonexistent/x.bin")).is_err());
    }
}
