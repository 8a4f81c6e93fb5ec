//! Read-only memory mapping for zero-copy snapshot loads.
//!
//! [`Mmap`] maps a file into the address space so the snapshot opener
//! can borrow graph and index sections straight out of the page cache —
//! no allocation, no copy, and no full-file read before the first query
//! touches a page. On non-unix targets (or when the raw `mmap` call
//! fails) it degrades to an ordinary buffered read, which keeps the same
//! API observable behaviour at the cost of the copy.
//!
//! This is the workspace's one unsafe seam: the two FFI calls plus the
//! borrow of the mapped pages live inside the private `sys` module, and
//! the safety argument is local — the mapping is `PROT_READ`/private, it
//! outlives every borrowed slice (slices borrow from `Mmap`, which unmaps
//! only on drop), and the kernel guarantees the region stays valid for
//! the mapping's lifetime.
//
// bestk-analyze: allow-file(forbid-unsafe) — the crate root carries
// `#![deny(unsafe_code)]` with the allowance scoped to this module's
// `sys` block; mmap is inherently an FFI operation.

use std::fs::File;
use std::io;
use std::path::Path;

/// A read-only view of a file: memory-mapped where supported, a buffered
/// read elsewhere. Cheap to share behind an `Arc`; the mapping is unmapped
/// when the last handle drops.
#[derive(Debug)]
pub struct Mmap {
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    /// A live kernel mapping (unix only).
    #[cfg(unix)]
    Mapped(sys::Mapping),
    /// Fallback: the whole file read into memory.
    Owned(Vec<u8>),
}

impl Mmap {
    /// Maps `path` read-only. Empty files yield an empty owned buffer
    /// (mapping zero bytes is an error on most kernels). Falls back to a
    /// full read if the mapping cannot be established.
    pub fn open(path: &Path) -> io::Result<Mmap> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space")
        })?;
        if len == 0 {
            return Ok(Mmap {
                inner: Inner::Owned(Vec::new()),
            });
        }
        #[cfg(unix)]
        {
            if let Some(mapping) = sys::Mapping::map_readonly(&file, len) {
                return Ok(Mmap {
                    inner: Inner::Mapped(mapping),
                });
            }
        }
        let bytes = std::fs::read(path)?;
        Ok(Mmap {
            inner: Inner::Owned(bytes),
        })
    }

    /// Wraps an in-memory buffer in the `Mmap` interface — used by tests
    /// and by callers that already hold the snapshot bytes.
    pub fn from_vec(bytes: Vec<u8>) -> Mmap {
        Mmap {
            inner: Inner::Owned(bytes),
        }
    }

    /// The mapped (or read) bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped(m) => m.as_slice(),
            Inner::Owned(v) => v,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the file was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the bytes come from a live kernel mapping rather than a
    /// buffered read — observability surfaces report this distinction.
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped(_) => true,
            Inner::Owned(_) => false,
        }
    }
}

#[cfg(unix)]
mod sys {
    //! The raw `mmap(2)`/`munmap(2)` calls, self-declared so the
    //! workspace stays dependency-free.

    use std::ffi::c_void;
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// An established read-only private mapping; unmapped on drop.
    #[derive(Debug)]
    pub(super) struct Mapping {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is immutable (PROT_READ, MAP_PRIVATE) and the
    // region stays valid until `munmap` in Drop, so shared references from
    // any thread observe frozen bytes.
    #[allow(unsafe_code)]
    unsafe impl Send for Mapping {}
    #[allow(unsafe_code)]
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Attempts the mapping; `None` on failure (caller falls back to a
        /// read). `len` must be non-zero.
        #[allow(unsafe_code)]
        pub(super) fn map_readonly(file: &File, len: usize) -> Option<Mapping> {
            let fd = file.as_raw_fd();
            // SAFETY: `fd` is a live descriptor owned by `file` for the
            // duration of the call; a NULL addr lets the kernel choose the
            // placement; `len > 0` is guaranteed by the caller.
            let ptr = unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, fd, 0) };
            const MAP_FAILED: usize = usize::MAX;
            if ptr.is_null() || ptr as usize == MAP_FAILED {
                return None;
            }
            Some(Mapping { ptr, len })
        }

        #[allow(unsafe_code)]
        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` points at a live `len`-byte PROT_READ mapping
            // that is only torn down in Drop, and `&self` ties the slice
            // lifetime to the mapping's.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mapping {
        #[allow(unsafe_code)]
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` describe exactly the region returned by
            // `mmap`, unmapped exactly once.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_a_real_file() {
        let dir = std::env::temp_dir().join("bestk-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("payload.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &payload).unwrap();
        let map = Mmap::open(&path).unwrap();
        assert_eq!(map.as_slice(), &payload[..]);
        assert_eq!(map.len(), payload.len());
        assert!(!map.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_file_is_empty_slice() {
        let dir = std::env::temp_dir().join("bestk-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_empty());
        assert!(!map.is_mapped());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_errors() {
        assert!(Mmap::open(Path::new("/nonexistent/bestk/file")).is_err());
    }

    #[test]
    fn from_vec_round_trips() {
        let map = Mmap::from_vec(vec![1, 2, 3]);
        assert_eq!(map.as_slice(), &[1, 2, 3]);
        assert!(!map.is_mapped());
    }
}
