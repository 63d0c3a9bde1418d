//! The filesystem under a [`FileSink`](crate::journal::FileSink): every
//! call the sink makes goes through [`Disk`], so the sink's own logic —
//! the zeros laid ahead of the log, the recycled spare, the exchange and
//! the directory sync — is the same code over the real filesystem
//! ([`Std`], the one production implementation) and over a model disk that
//! cuts the power at any call (`rtdls_world::disk`).

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _};
use std::os::unix::fs::FileExt as _;
use std::path::Path;

/// How [`Disk::open`] opens a file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Open {
    /// Read only; the file must exist.
    Read,
    /// Read and write, created if missing, contents kept.
    Keep,
    /// Read and write, created if missing, emptied.
    Truncate,
}

/// The filesystem calls a [`FileSink`](crate::journal::FileSink) makes,
/// each one step a power loss can fall between.
///
/// [`Std`] is the one production implementation; the trait is public so
/// that the power-loss test, outside this crate, can implement its model.
pub trait Disk: Send {
    /// An open file.
    type File: Send + std::fmt::Debug;
    /// Opens `path`.
    fn open(&self, path: &Path, how: Open) -> io::Result<Self::File>;
    /// The file's length in bytes.
    fn len(&self, file: &Self::File) -> io::Result<u64>;
    /// Fills `buf` from offset `at`.
    fn read_exact_at(&self, file: &Self::File, buf: &mut [u8], at: u64) -> io::Result<()>;
    /// Appends the file's first `len` bytes to `out` (never zeroing what
    /// the read overwrites).
    fn read_prefix(&self, file: &Self::File, len: u64, out: &mut Vec<u8>) -> io::Result<()>;
    /// Writes all of `buf` at offset `at`.
    fn write_all_at(&self, file: &Self::File, buf: &[u8], at: u64) -> io::Result<()>;
    /// Makes the file's written bytes durable.
    fn sync_data(&self, file: &Self::File) -> io::Result<()>;
    /// Swaps the names `a` and `b` in one step.
    fn exchange(&self, a: &Path, b: &Path) -> io::Result<()>;
    /// Makes the names in directory `dir` durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The real filesystem, through `std` and one `renameat2`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Std;

impl Disk for Std {
    type File = File;

    fn open(&self, path: &Path, how: Open) -> io::Result<File> {
        if how == Open::Read {
            return File::open(path);
        }
        let mut options = OpenOptions::new();
        let file = options.create(true).read(true).write(true);
        file.truncate(how == Open::Truncate).open(path)
    }

    fn len(&self, file: &File) -> io::Result<u64> {
        Ok(file.metadata()?.len())
    }

    fn read_exact_at(&self, file: &File, buf: &mut [u8], at: u64) -> io::Result<()> {
        file.read_exact_at(buf, at)
    }

    fn read_prefix(&self, file: &File, len: u64, out: &mut Vec<u8>) -> io::Result<()> {
        file.take(len).read_to_end(out).map(drop)
    }

    fn write_all_at(&self, file: &File, buf: &[u8], at: u64) -> io::Result<()> {
        file.write_all_at(buf, at)
    }

    fn sync_data(&self, file: &File) -> io::Result<()> {
        file.sync_data()
    }

    /// `renameat2(RENAME_EXCHANGE)`.
    fn exchange(&self, a: &Path, b: &Path) -> io::Result<()> {
        use std::ffi::{c_char, CString};
        use std::os::unix::ffi::OsStrExt;
        // No `libc` crate in the tree: the one call is declared directly.
        extern "C" {
            fn renameat2(
                fd1: i32,
                p1: *const c_char,
                fd2: i32,
                p2: *const c_char,
                flags: u32,
            ) -> i32;
        }
        const AT_FDCWD: i32 = -100;
        let [a, b] = [a, b].map(|p| CString::new(p.as_os_str().as_bytes()));
        let (a, b) = (a?, b?);
        // SAFETY: two NUL-terminated paths that outlive the call; flag 2 is
        // RENAME_EXCHANGE.
        match unsafe { renameat2(AT_FDCWD, a.as_ptr(), AT_FDCWD, b.as_ptr(), 2) } {
            0 => Ok(()),
            _ => Err(io::Error::last_os_error()),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}
