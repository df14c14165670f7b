//! Read-only memory mapping without external crates.
//!
//! The workspace is `std`-only, and `std` exposes no `mmap`, so on Linux
//! the two syscalls this needs (`mmap`, `munmap`) are issued directly via
//! inline assembly — the only `unsafe` in the crate, confined to this
//! module. Platforms without that fast path fall back to reading the file
//! into an owned buffer: the [`MappedFile`] API (a `&[u8]` view of a file)
//! is identical either way, only the residency behaviour differs (mapped
//! pages are demand-faulted and evictable; the fallback is resident heap).
//!
//! The `unsafe` here rests on one invariant: a mapping's pointer and length
//! are private to this module, set only by a successful [`MappedFile::map`]
//! and released only by its `Drop`, so every `&[u8]` view borrows a live,
//! read-only mapping of exactly that length.
#![allow(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

use std::fs::File;
use std::io;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use std::io;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    /// Issues raw syscall `nr` with six arguments and returns the kernel's
    /// result (`-errno` on failure).
    ///
    /// # Safety
    ///
    /// Every pointer argument must be valid for the access syscall `nr`
    /// makes through it, and the call must not unmap or otherwise
    /// invalidate memory that other code still relies on.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        nr: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    /// The aarch64 form of the x86_64 `syscall6`.
    ///
    /// # Safety
    ///
    /// As for the x86_64 form: pointer arguments valid for the syscall's
    /// access, and no memory other code relies on invalidated.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        nr: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;
    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;

    /// Maps `len` bytes of `fd` read-only and private. `len` must be
    /// non-zero (the kernel rejects zero-length maps).
    pub fn map_readonly(fd: i32, len: usize) -> io::Result<*const u8> {
        // SAFETY: a null address hint lets the kernel place a fresh
        // read-only private mapping, so no existing memory is touched; the
        // fd is only read by the kernel.
        let ret = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                len,
                PROT_READ,
                MAP_PRIVATE,
                fd as isize as usize,
                0,
            )
        };
        if (-4095..0).contains(&ret) {
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        Ok(ret as usize as *const u8)
    }

    /// Unmaps a region previously returned by [`map_readonly`].
    ///
    /// # Safety
    ///
    /// `ptr` and `len` must be a mapping returned by [`map_readonly`] that
    /// is not unmapped yet, and no reference into it may be used after
    /// this call.
    pub unsafe fn unmap(ptr: *const u8, len: usize) {
        // Failure here leaks address space at worst; nothing to report.
        // SAFETY: the caller guarantees `ptr`/`len` name a live mapping with
        // no reference into it left in use.
        unsafe {
            let _ = syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0);
        }
    }
}

/// A read-only byte view of a file: a true memory map where the platform
/// fast path exists, an owned copy elsewhere. The view is a snapshot of
/// the file's length at map time — bytes appended afterwards are outside
/// it and must be read through the file handle (the packfile layer does
/// exactly that for recent appends).
pub struct MappedFile(View);

/// The two residency regimes; private so that only [`MappedFile::map`] can
/// make a `Mapped` view.
enum View {
    /// Demand-paged kernel mapping (Linux x86_64/aarch64).
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Mapped {
        /// Page-aligned base address returned by `mmap`.
        ptr: *const u8,
        /// Mapped length in bytes.
        len: usize,
    },
    /// Owned in-heap copy (fallback platforms, and all zero-length files).
    Owned(Vec<u8>),
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
// SAFETY: a `Mapped` view owns its mapping and only ever reads it through
// `as_slice`'s shared borrow, and the mapping is read-only, so moving the
// view to another thread (and unmapping it there on drop) is like moving a
// `Box<[u8]>`. `Owned` is a `Vec<u8>`.
unsafe impl Send for MappedFile {}
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
// SAFETY: `&MappedFile` only exposes `&[u8]` of a read-only mapping (or of
// a `Vec<u8>`), and nothing mutates the view through `&self`, so shared
// access from several threads is like sharing a `&[u8]`.
unsafe impl Sync for MappedFile {}

impl MappedFile {
    /// Maps the first `len` bytes of `file`. `len` is the caller's
    /// snapshot of the file length (the packfile layer tracks it exactly);
    /// zero-length views never invoke the kernel.
    pub fn map(file: &File, len: usize) -> io::Result<Self> {
        if len == 0 {
            return Ok(Self(View::Owned(Vec::new())));
        }
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            use std::os::fd::AsRawFd;
            let ptr = sys::map_readonly(file.as_raw_fd(), len)?;
            Ok(Self(View::Mapped { ptr, len }))
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            use std::io::Read;
            let mut buf = vec![0u8; len];
            let mut f = file.try_clone()?;
            std::io::Seek::seek(&mut f, std::io::SeekFrom::Start(0))?;
            f.read_exact(&mut buf)?;
            Ok(Self(View::Owned(buf)))
        }
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            // SAFETY: only `map` builds a `Mapped` view, from a successful
            // `len`-byte `mmap` that stays mapped until `Drop`, so the
            // borrow (tied to `&self`) covers live, readable memory. The
            // bytes do not change while borrowed: the mapping is read-only
            // and the store only appends to packfiles, never rewriting the
            // mapped prefix.
            View::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            View::Owned(v) => v,
        }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this view is a true kernel mapping (false on fallback
    /// platforms) — surfaced in store stats so operators can tell which
    /// residency regime they are in.
    pub fn is_kernel_mapping(&self) -> bool {
        match self.0 {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            View::Mapped { .. } => true,
            View::Owned(_) => false,
        }
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        match self.0 {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            // SAFETY: `ptr`/`len` come from the `map_readonly` call in `map`
            // and are unmapped only here, once; every `as_slice` borrow ends
            // before `drop` can run.
            View::Mapped { ptr, len } => unsafe { sys::unmap(ptr, len) },
            View::Owned(_) => {}
        }
    }
}

impl std::fmt::Debug for MappedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedFile")
            .field("len", &self.len())
            .field("kernel", &self.is_kernel_mapping())
            .finish()
    }
}

impl std::ops::Deref for MappedFile {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    #[test]
    fn maps_file_contents() {
        let path = tmp("reghd_store_mmap_basic", b"hello packfile");
        let f = File::open(&path).unwrap();
        let map = MappedFile::map(&f, 14).unwrap();
        assert_eq!(&*map, b"hello packfile");
        assert_eq!(map.len(), 14);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_empty() {
        let path = tmp("reghd_store_mmap_empty", b"");
        let f = File::open(&path).unwrap();
        let map = MappedFile::map(&f, 0).unwrap();
        assert!(map.is_empty());
        assert!(!map.is_kernel_mapping());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_ignores_later_appends() {
        let path = tmp("reghd_store_mmap_snapshot", b"0123456789");
        let f = File::open(&path).unwrap();
        let map = MappedFile::map(&f, 10).unwrap();
        // Append after mapping: the 10-byte view must be unaffected.
        let mut w = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        w.write_all(b"MORE").unwrap();
        assert_eq!(map.len(), 10);
        assert_eq!(&map[..4], b"0123");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kernel_mapping_on_linux() {
        let path = tmp("reghd_store_mmap_kernel", &vec![7u8; 8192]);
        let f = File::open(&path).unwrap();
        let map = MappedFile::map(&f, 8192).unwrap();
        if cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )) {
            assert!(map.is_kernel_mapping());
        }
        assert!(map.iter().all(|&b| b == 7));
        std::fs::remove_file(&path).ok();
    }
}
