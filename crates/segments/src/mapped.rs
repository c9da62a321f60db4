//! Read-only file mapping with zero dependencies.
//!
//! The workspace vendors no `libc`/`memmap2` (offline container), so
//! the mmap path issues the raw `mmap(2)`/`munmap(2)` syscalls inline
//! on Linux x86_64/aarch64 and falls back to reading the file into a
//! heap buffer everywhere else (or when the kernel refuses the map —
//! e.g. special filesystems). Both backings expose the same `&[u8]`
//! view, and `SSSJ_NO_MMAP=1` forces the heap path so tests exercise
//! both.
//!
//! # Safety
//!
//! Mapping a file that another process truncates afterwards is a
//! `SIGBUS` on access — the standard mmap caveat. Segment files are
//! immutable by construction (published by `rename(2)` and never
//! rewritten in place; re-compaction replaces them atomically), so
//! within this crate's own discipline a mapping stays valid for as long
//! as it is held. Only edge-segment readers hold one for their whole
//! lifetime; a record-segment reader maps its data file for a single
//! validation at open or a single decode call, and unmaps it after.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::ops::Deref;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    pub const PROT_READ: usize = 0x1;
    pub const MAP_PRIVATE: usize = 0x2;

    /// `mmap(NULL, len, PROT_READ, MAP_PRIVATE, fd, 0)`. Returns the
    /// mapped address, or a negative errno in `[-4095, -1]`.
    #[cfg(target_arch = "x86_64")]
    pub unsafe fn mmap(len: usize, fd: i32) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") 9isize => ret, // __NR_mmap
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
        ret
    }

    /// `munmap(ptr, len)`.
    #[cfg(target_arch = "x86_64")]
    pub unsafe fn munmap(ptr: *mut u8, len: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") 11isize => ret, // __NR_munmap
            in("rdi") ptr,
            in("rsi") len,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    /// `mmap(NULL, len, PROT_READ, MAP_PRIVATE, fd, 0)`.
    #[cfg(target_arch = "aarch64")]
    pub unsafe fn mmap(len: usize, fd: i32) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") 222isize, // __NR_mmap
            inlateout("x0") 0usize => ret,
            in("x1") len,
            in("x2") PROT_READ,
            in("x3") MAP_PRIVATE,
            in("x4") fd as isize,
            in("x5") 0usize,
            options(nostack)
        );
        ret
    }

    /// `munmap(ptr, len)`.
    #[cfg(target_arch = "aarch64")]
    pub unsafe fn munmap(ptr: *mut u8, len: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") 215isize, // __NR_munmap
            inlateout("x0") ptr => ret,
            in("x1") len,
            options(nostack)
        );
        ret
    }
}

enum Backing {
    /// A live `mmap(2)` region (unmapped on drop).
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Map { ptr: *mut u8, len: usize },
    /// The file's bytes, read into the heap.
    Heap(Vec<u8>),
}

/// An immutable byte view of a whole file — memory-mapped where the
/// platform allows, heap-buffered otherwise. Dereferences to `&[u8]`.
pub struct Mapped(Backing);

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE over an immutable file
// and is never aliased mutably; a read-only region is freely shared
// across threads.
unsafe impl Send for Mapped {}
unsafe impl Sync for Mapped {}

fn mmap_disabled() -> bool {
    // Read once: the switch is for tests, not live reconfiguration.
    static DISABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *DISABLED.get_or_init(|| std::env::var_os("SSSJ_NO_MMAP").is_some_and(|v| v != "0"))
}

impl Mapped {
    /// Maps (or reads) exactly `len` bytes from the start of `file`.
    /// The caller has already validated `len` against the file's real
    /// size — this never allocates or maps more than `len`.
    pub fn open(file: &mut File, len: usize) -> io::Result<Mapped> {
        if len == 0 {
            return Ok(Mapped(Backing::Heap(Vec::new())));
        }
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if !mmap_disabled() {
            use std::os::fd::AsRawFd;
            // SAFETY: fd is a valid open file, len > 0; a failed map
            // reports errno as a negative return, handled below.
            let ret = unsafe { sys::mmap(len, file.as_raw_fd()) };
            if !(-4095..=-1).contains(&ret) {
                return Ok(Mapped(Backing::Map {
                    ptr: ret as *mut u8,
                    len,
                }));
            }
            // Fall through to the read path on any mmap failure.
        }
        Mapped::read(file, len)
    }

    /// The heap backing: reads exactly `len` bytes from the start of
    /// `file` into a buffer. [`Mapped::open`] falls back to it when the
    /// platform has no map, the kernel refuses one, or `SSSJ_NO_MMAP`
    /// is set.
    fn read(file: &mut File, len: usize) -> io::Result<Mapped> {
        let mut buf = vec![0u8; len];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut buf)?;
        Ok(Mapped(Backing::Heap(buf)))
    }

    /// Whether this view is a live memory mapping (diagnostics/tests).
    pub fn is_mapped(&self) -> bool {
        match &self.0 {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Backing::Map { .. } => true,
            Backing::Heap(_) => false,
        }
    }
}

impl Deref for Mapped {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // self; the region outlives every borrow of self.
            Backing::Map { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Heap(buf) => buf,
        }
    }
}

impl Drop for Mapped {
    fn drop(&mut self) {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if let Backing::Map { ptr, len } = self.0 {
            // SAFETY: exactly the region mmap returned; errors on unmap
            // are unrecoverable and ignored (the address space leaks).
            unsafe {
                sys::munmap(ptr, len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn maps_and_reads_identically() {
        let dir = std::env::temp_dir().join(format!("sssj-mapped-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob");
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let mut f = File::open(&path).unwrap();
        let m = Mapped::open(&mut f, payload.len()).unwrap();
        assert_eq!(&*m, &payload[..]);
        // The heap fallback reads the same bytes.
        let mut f2 = File::open(&path).unwrap();
        let heap = Mapped::read(&mut f2, payload.len()).unwrap();
        assert!(!heap.is_mapped());
        assert_eq!(&*heap, &payload[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_view_is_empty() {
        let dir = std::env::temp_dir().join(format!("sssj-mapped0-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty");
        std::fs::File::create(&path).unwrap();
        let mut f = File::open(&path).unwrap();
        let m = Mapped::open(&mut f, 0).unwrap();
        assert!(m.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
