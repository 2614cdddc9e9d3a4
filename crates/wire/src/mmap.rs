//! Read-only memory-mapped files for zero-copy checkpoint loading.
//!
//! [`MappedFile`] maps a file into the address space so
//! [`crate::checkpoint::load_model`] can validate the wire header and
//! copy each tensor **exactly once** — mapping → model parameters —
//! instead of staging the whole file through a heap `Vec<u8>` first.
//! The mapping is page-aligned by the kernel, so together with the
//! [`crate::PAYLOAD_ALIGN`]ed headers written by
//! [`crate::FrameWriter`] every `f32` tensor is eligible for
//! the borrowed-slice read ([`crate::TensorView::as_f32s`]).
//!
//! Platform coverage: the real `mmap(2)` path is compiled on Linux
//! (the only target this repo's toolchain builds for); everywhere
//! else — including Miri, which cannot model foreign memory — the
//! type degrades to an ordinary buffered read with the same API and
//! semantics, so callers never branch on platform.

#[cfg(all(target_os = "linux", not(miri)))]
use std::fs::File;
use std::io;
use std::path::Path;

/// A file's contents, memory-mapped read-only when the platform
/// supports it and read into a heap buffer otherwise. Either way,
/// [`MappedFile::bytes`] is the whole file.
#[derive(Debug)]
pub struct MappedFile {
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    #[cfg(all(target_os = "linux", not(miri)))]
    Mapped(sys::Mapping),
    Heap(Vec<u8>),
}

impl MappedFile {
    /// Opens `path` and makes its contents addressable.
    ///
    /// On Linux this is a private read-only `mmap` — O(1) memory
    /// up-front, pages faulted in on first touch — falling back to a
    /// buffered read if the map fails (empty files, exotic
    /// filesystems). Elsewhere it is always the buffered read.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (missing file, permissions).
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        #[cfg(all(target_os = "linux", not(miri)))]
        {
            let file = File::open(path)?;
            let len = file.metadata()?.len();
            if let Ok(len) = usize::try_from(len) {
                if len > 0 {
                    if let Some(mapping) = sys::Mapping::map(&file, len) {
                        return Ok(MappedFile {
                            inner: Inner::Mapped(mapping),
                        });
                    }
                }
            }
            // Zero-length or unmappable: fall through to the read.
            drop(file);
        }
        Ok(MappedFile {
            inner: Inner::Heap(std::fs::read(path)?),
        })
    }

    /// The file's bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(all(target_os = "linux", not(miri)))]
            Inner::Mapped(m) => m.bytes(),
            Inner::Heap(v) => v,
        }
    }

    /// Whether the contents are actually memory-mapped (false on the
    /// buffered-read fallback) — lets tests pin that the zero-copy
    /// path was exercised.
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(all(target_os = "linux", not(miri)))]
            Inner::Mapped(_) => true,
            Inner::Heap(_) => false,
        }
    }
}

#[cfg(all(target_os = "linux", not(miri)))]
mod sys {
    //! The raw `mmap(2)` binding. std links libc on Linux, so the
    //! symbols are declared here directly rather than pulling in the
    //! `libc` crate (the workspace vendors every dependency).

    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::os::unix::io::AsRawFd;
    use std::ptr::NonNull;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// An owned `PROT_READ`/`MAP_PRIVATE` mapping of `len` bytes,
    /// unmapped on drop.
    #[derive(Debug)]
    pub(super) struct Mapping {
        ptr: NonNull<u8>,
        len: usize,
    }

    // SAFETY: the mapping is immutable (PROT_READ) and private
    // (MAP_PRIVATE — writes by other processes to the underlying
    // file are not required to appear), so shared references to its
    // bytes are data-race-free across threads, exactly like a
    // `Box<[u8]>`.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps the first `len > 0` bytes of `file` read-only.
        /// Returns `None` when the kernel refuses (caller falls back
        /// to a buffered read).
        pub(super) fn map(file: &File, len: usize) -> Option<Self> {
            // SAFETY: a null addr + PROT_READ + MAP_PRIVATE request
            // over an open fd is always a sound mmap call; the kernel
            // picks the placement. The result is checked against
            // MAP_FAILED before use.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == MAP_FAILED {
                return None;
            }
            Some(Mapping {
                ptr: NonNull::new(ptr.cast::<u8>())?,
                len,
            })
        }

        /// The mapped bytes.
        ///
        /// Lifetime invariants upheld by this type (the "one new
        /// unsafe block" of the zero-copy checkpoint path):
        ///
        /// 1. The region `[ptr, ptr + len)` stays mapped for exactly
        ///    the lifetime of `self` — it is created in
        ///    [`Mapping::map`] and only unmapped in `Drop`, and the
        ///    returned slice's borrow of `self` prevents a drop while
        ///    any reader is alive.
        /// 2. The mapping is `PROT_READ`: nothing can write through
        ///    it, so `&[u8]` immutability holds. `MAP_PRIVATE`
        ///    additionally decouples the pages from later file writes.
        /// 3. The mapped length equals the file length captured at
        ///    open time. If another process *truncates* the file
        ///    below that length, Linux raises `SIGBUS` on a touch
        ///    past EOF — checkpoints are private, single-writer files
        ///    here, and callers that cannot assume that should read
        ///    the file instead (`Inner::Heap`).
        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: invariants 1–3 above: valid, immutable,
            // correctly-sized region for the borrow's whole lifetime.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` are the exact region returned by a
            // successful mmap, unmapped exactly once (Drop runs once
            // and nothing else calls munmap).
            unsafe {
                munmap(self.ptr.as_ptr().cast::<c_void>(), self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("oasis_wire_mmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    #[test]
    fn maps_whole_file() {
        let path = tmp("whole.bin");
        let data: Vec<u8> = (0..=255).collect();
        std::fs::write(&path, &data).unwrap();
        let m = MappedFile::open(&path).unwrap();
        assert_eq!(m.bytes(), &data[..]);
        #[cfg(all(target_os = "linux", not(miri)))]
        assert!(m.is_mapped(), "non-empty file on linux should mmap");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_file_reads_empty() {
        let path = tmp("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let m = MappedFile::open(&path).unwrap();
        assert_eq!(m.bytes(), b"");
        assert!(!m.is_mapped(), "empty files take the buffered path");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_errors() {
        assert!(MappedFile::open(tmp("definitely_absent.bin")).is_err());
    }
}
