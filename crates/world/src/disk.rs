//! The disks a world's head node journals on, and the power loss.
//!
//! [`Model`] is a filesystem in memory behind [`Disk`]: per file, what the
//! page cache holds and what a power loss keeps (`sync_data` copies one to
//! the other); names become durable at a directory sync. At a chosen call
//! the power goes — a torn write lands its first half — and the process
//! halts inside that call, unwinding with [`PowerLoss`]. [`Platter`] is
//! what the world needs of a disk beyond [`Disk`]; [`Std`] has it too.

use std::collections::HashMap;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use rtdls_journal::disk::{Disk, Open, Std};
use rtdls_journal::FileSink;

/// The unwind payload of a power loss: the process halts in the call the
/// power went in.
#[derive(Debug)]
pub struct PowerLoss;

/// Runs `f` until it returns or the power goes in it (`None`). Any other
/// panic passes through.
pub fn until_power_loss<T>(f: impl FnOnce() -> T) -> Option<T> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(value) => Some(value),
        Err(payload) if payload.is::<PowerLoss>() => None,
        Err(payload) => panic::resume_unwind(payload),
    }
}

/// Runs `run(call, torn)` for each of a run's `calls`: the power lost in
/// that call whole, and again torn where the call was a write. `run`
/// answers the call the power went in.
pub fn every_power_loss(calls: usize, mut run: impl FnMut(usize, bool) -> Option<Call>) {
    for call in 0..calls {
        if matches!(run(call, false), Some(Call::Write { .. })) {
            run(call, true);
        }
    }
}

/// A disk the world reads back after its head dies.
pub trait Platter: Disk + Clone + 'static {
    /// The disk as it comes back after the power does, on its own copy.
    fn reboot(&self) -> Self;
}

/// The real filesystem never loses power here: a kill is a process crash,
/// and the files stay as the kernel holds them.
impl Platter for Std {
    fn reboot(&self) -> Self {
        Std
    }
}

/// A filesystem call, as the power loss saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// [`Disk::open`].
    Open,
    /// [`Disk::len`].
    Len,
    /// [`Disk::read_exact_at`] or [`Disk::read_prefix`].
    Read,
    /// [`Disk::write_all_at`]; `zeros` when it writes only zeros.
    Write {
        /// Whether every byte written is zero.
        zeros: bool,
    },
    /// [`Disk::sync_data`].
    Sync,
    /// [`Disk::exchange`].
    Exchange,
    /// [`Disk::sync_dir`].
    SyncDir,
}

/// One file: what the page cache holds, and what a power loss keeps.
#[derive(Clone, Debug, Default)]
struct Inode {
    cached: Vec<u8>,
    durable: Vec<u8>,
}

#[derive(Clone, Debug)]
struct Fs {
    /// The log's path.
    log: PathBuf,
    inodes: Vec<Inode>,
    /// The directory as the page cache holds it, and as a power loss
    /// keeps it.
    names: HashMap<PathBuf, usize>,
    durable_names: HashMap<PathBuf, usize>,
    /// Calls completed, and the exchanges among them.
    calls: usize,
    exchanges: usize,
    /// The call during which the power goes.
    kill_at: usize,
    /// Whether a write in flight at the kill lands its first half.
    torn: bool,
    /// The call the power went in.
    killed: Option<Call>,
    /// Whether the process has halted (in the call the power went in).
    halted: bool,
}

impl Fs {
    /// Counts one call; `false` once the power is gone.
    fn powered(&mut self, call: Call) -> bool {
        if self.killed.is_none() && self.calls == self.kill_at {
            self.killed = Some(call);
        }
        if self.killed.is_none() {
            self.calls += 1;
        }
        self.killed.is_none()
    }
}

/// A model disk for one log. The call the power goes in halts the process
/// (it unwinds with [`PowerLoss`]); every later call — a destructor run by
/// that unwinding, say — returns `Ok` and does nothing.
#[derive(Clone, Debug)]
pub struct Model(Arc<Mutex<Fs>>);

/// The handle a dead process gets from `open`.
const GHOST: usize = usize::MAX;

/// A call made with the power gone: the first one halts the process, the
/// rest answer `ghost`.
fn gone<T>(mut fs: MutexGuard<'_, Fs>, ghost: T) -> io::Result<T> {
    let dying = !std::mem::replace(&mut fs.halted, true);
    drop(fs);
    if dying {
        panic::resume_unwind(Box::new(PowerLoss));
    }
    Ok(ghost)
}

impl Model {
    /// A blank disk for the log at `log`, powered until [`Model::armed`]
    /// says otherwise.
    pub fn new(log: impl Into<PathBuf>) -> Self {
        Model(Arc::new(Mutex::new(Fs {
            log: log.into(),
            inodes: Vec::new(),
            names: HashMap::new(),
            durable_names: HashMap::new(),
            calls: 0,
            exchanges: 0,
            kill_at: usize::MAX,
            torn: false,
            killed: None,
            halted: false,
        })))
    }

    fn fs(&self) -> MutexGuard<'_, Fs> {
        self.0
            .lock()
            .expect("no model call panics holding the lock")
    }

    /// Filesystem calls made with the power on.
    pub fn calls(&self) -> usize {
        self.fs().calls
    }

    /// Exchanges made with the power on (one per log rewrite).
    pub fn exchanges(&self) -> usize {
        self.fs().exchanges
    }

    /// The call the power went in, if it went.
    pub fn killed(&self) -> Option<Call> {
        self.fs().killed
    }

    /// What a reboot finds at the log's path, read the way recovery reads
    /// it.
    pub fn survivors(&self) -> Vec<u8> {
        let disk = self.reboot();
        let log = disk.fs().log.clone();
        if !disk.fs().names.contains_key(&log) {
            // The log's name never reached the disk.
            return Vec::new();
        }
        FileSink::read_on(&disk, &log).unwrap()
    }

    /// The disk, its power cut `after` calls from now; with `torn`, a write
    /// in flight then lands its first half.
    pub fn armed(self, after: usize, torn: bool) -> Self {
        let mut fs = self.fs();
        fs.kill_at = fs.calls.saturating_add(after);
        fs.torn = torn;
        drop(fs);
        self
    }
}

impl Platter for Model {
    /// Every page cache holds what was durable, and the power stays on.
    fn reboot(&self) -> Model {
        let mut fs = self.fs().clone();
        fs.names = fs.durable_names.clone();
        for inode in &mut fs.inodes {
            inode.cached = inode.durable.clone();
        }
        (fs.calls, fs.kill_at, fs.killed, fs.halted) = (0, usize::MAX, None, false);
        Model(Arc::new(Mutex::new(fs)))
    }
}

impl Disk for Model {
    type File = usize;

    fn open(&self, path: &Path, how: Open) -> io::Result<usize> {
        let mut fs = self.fs();
        if !fs.powered(Call::Open) {
            return gone(fs, GHOST);
        }
        let inode = match (fs.names.get(path).copied(), how) {
            (Some(inode), _) => inode,
            (None, Open::Read) => return Err(io::ErrorKind::NotFound.into()),
            (None, _) => {
                fs.inodes.push(Inode::default());
                let inode = fs.inodes.len() - 1;
                fs.names.insert(path.to_path_buf(), inode);
                inode
            }
        };
        if how == Open::Truncate {
            fs.inodes[inode].cached.clear();
        }
        Ok(inode)
    }

    fn len(&self, &file: &usize) -> io::Result<u64> {
        let mut fs = self.fs();
        if !fs.powered(Call::Len) {
            return gone(fs, 0);
        }
        Ok(fs.inodes[file].cached.len() as u64)
    }

    fn read_exact_at(&self, &file: &usize, buf: &mut [u8], at: u64) -> io::Result<()> {
        let mut fs = self.fs();
        if !fs.powered(Call::Read) {
            return gone(fs, ());
        }
        let at = at as usize;
        let bytes = fs.inodes[file].cached.get(at..at + buf.len());
        buf.copy_from_slice(bytes.ok_or(io::ErrorKind::UnexpectedEof)?);
        Ok(())
    }

    fn read_prefix(&self, &file: &usize, len: u64, out: &mut Vec<u8>) -> io::Result<()> {
        let mut fs = self.fs();
        if !fs.powered(Call::Read) {
            return gone(fs, ());
        }
        let cached = &fs.inodes[file].cached;
        out.extend_from_slice(&cached[..cached.len().min(len as usize)]);
        Ok(())
    }

    fn write_all_at(&self, &file: &usize, buf: &[u8], at: u64) -> io::Result<()> {
        let mut fs = self.fs();
        let dying = fs.killed.is_none() && fs.calls == fs.kill_at;
        let zeros = buf.iter().all(|&b| b == 0);
        let (buf, landed) = if fs.powered(Call::Write { zeros }) {
            (buf, false)
        } else if dying && fs.torn {
            // The write was in flight: its first half reached the platter
            // and, writes being ordered, this file's writes before it.
            (&buf[..buf.len() / 2], true)
        } else {
            return gone(fs, ());
        };
        let inode = &mut fs.inodes[file];
        let (at, end) = (at as usize, at as usize + buf.len());
        if inode.cached.len() < end {
            inode.cached.resize(end, 0);
        }
        inode.cached[at..end].copy_from_slice(buf);
        if landed {
            inode.durable = inode.cached.clone();
            return gone(fs, ());
        }
        Ok(())
    }

    fn sync_data(&self, &file: &usize) -> io::Result<()> {
        let mut fs = self.fs();
        if !fs.powered(Call::Sync) {
            return gone(fs, ());
        }
        let inode = &mut fs.inodes[file];
        inode.durable = inode.cached.clone();
        Ok(())
    }

    fn exchange(&self, a: &Path, b: &Path) -> io::Result<()> {
        let mut fs = self.fs();
        if !fs.powered(Call::Exchange) {
            return gone(fs, ());
        }
        let (Some(ia), Some(ib)) = (fs.names.get(a).copied(), fs.names.get(b).copied()) else {
            return Err(io::ErrorKind::NotFound.into());
        };
        fs.names.insert(a.to_path_buf(), ib);
        fs.names.insert(b.to_path_buf(), ia);
        fs.exchanges += 1;
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut fs = self.fs();
        if !fs.powered(Call::SyncDir) {
            return gone(fs, ());
        }
        let parent = fs.log.parent().unwrap();
        let parent = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        assert_eq!(dir, parent);
        fs.durable_names = fs.names.clone();
        Ok(())
    }
}
