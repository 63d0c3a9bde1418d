//! The append-only journal: framed records in memory, optionally mirrored
//! to a durable sink, with periodic compacting snapshots. A record is
//! rendered straight into the image ([`write_frame`]'s in-place form): no
//! payload `String`, no frame buffer, no copy between them.
//!
//! A journal always begins with a **genesis snapshot** — the gateway state
//! at journal creation — so recovery never needs an out-of-band bootstrap
//! config: the log alone suffices. After every [`JournalConfig::snapshot_every`]
//! input events the owner appends a fresh snapshot; with
//! [`JournalConfig::compact_on_snapshot`] the bytes before that snapshot are
//! dropped (and the sink rewritten), bounding both log length and recovery
//! replay time.

use std::fs::{File, OpenOptions};
use std::io::Read as _;
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};

use crate::event::JournalEvent;
use crate::snapshot::{GatewaySnapshot, JournalError};
use crate::wire::{decode_frames, frame_count, write_frame, Frame, RecordKind, TailStatus, MAGIC};

/// Journal tunables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalConfig {
    /// Append a compacting snapshot after this many input events
    /// (0 = never; only the genesis snapshot is written).
    pub snapshot_every: usize,
    /// Drop the bytes before each new snapshot (and rewrite the sink), so
    /// the log holds exactly one snapshot plus its tail.
    pub compact_on_snapshot: bool,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            snapshot_every: 256,
            compact_on_snapshot: true,
        }
    }
}

/// Cumulative durability counters a [`JournalSink`] reports (the journal's
/// contribution to the unified metrics registry, and the numbers behind
/// group-commit tuning: how many fsyncs the batching window actually
/// saved).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Frames appended over the sink's lifetime (a multi-frame run counts
    /// as its frames).
    pub appends: u64,
    /// Durability points performed: `sync_data` calls closing a group
    /// commit, plus one per compaction rewrite.
    pub syncs: u64,
    /// Bytes written (appends plus compaction rewrites).
    pub bytes_written: u64,
    /// Largest number of appended frames committed by one fsync.
    pub max_batch: u64,
    /// Write calls issued: one per `append` (however many frames the run
    /// holds) and one per compaction rewrite. `appends / writes` is how
    /// many frames a write carries.
    pub writes: u64,
}

/// A durable byte store the journal mirrors its frames into: one WAL image,
/// which `reset` replaces whole and atomically at each compaction (the one
/// durable implementation, [`FileSink`], swaps in its recycled spare file).
///
/// `append` takes **one or more whole frames, in order**, and must *write*
/// them (ordered after every earlier frame) before returning; after
/// [`JournalSink::flush`] every appended byte must be durable. The journal
/// appends frame by frame, except at a commit, where a serving turn's
/// frames arrive as one run **followed at once by `flush`** (see
/// [`Journal::flush`]) — so a sink may leave a run's sync to that flush.
/// Whether a single-frame append is synced immediately is the sink's
/// durability policy (see [`FsyncPolicy`]): a crash between a batched
/// append and the next flush may lose the unsynced tail — possibly tearing
/// a run mid-frame — but, because writes stay ordered, never an earlier
/// record, so recovery always finds a valid prefix. A sink that cannot
/// persist at all must panic rather than silently continue.
///
/// `Send` is required so a journaled gateway can serve from a dedicated
/// thread (the network edge runs its reactor that way).
pub trait JournalSink: Send {
    /// Appends a run of one or more whole encoded frames.
    fn append(&mut self, run: &[u8]);
    /// Replaces the entire stored log (compaction): a crash leaves the old
    /// log or the new one, never a mix.
    fn reset(&mut self, bytes: &[u8]);
    /// Makes every appended byte durable (group-commit boundary). Sinks
    /// that sync per append need not override this.
    fn flush(&mut self) {}
    /// Cumulative durability counters. Sinks that don't track them report
    /// zeros.
    fn stats(&self) -> SinkStats {
        SinkStats::default()
    }
}

/// When a [`FileSink`] fsyncs what it appended.
///
/// The policy governs [`JournalSink::append`] calls. A serving turn —
/// `decide` × k, then `drive`, however it is driven: the edge, the
/// simulator, a bench — is one append made when `drive` commits and
/// flushed at once: there either policy costs one sync per turn, and
/// nothing of the turn is acknowledged before it. What is appended outside
/// a turn (a node release fed back between turns, a replan, a turnless
/// `submit_request`, recovery's demotion records) is its own append, so
/// the policy applies per event there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `sync_data` inside every append — the strongest guarantee: an
    /// append that returned survives any crash.
    EveryAppend,
    /// Group commit: `sync_data` once `window` appended *frames* are
    /// pending, and on [`JournalSink::flush`]. A multi-frame run counts as
    /// its frames but is never split or synced mid-way: it is synced once,
    /// after its write, by the flush that follows it. A crash can lose at
    /// most the last `window − 1` frames appended one by one (a committed
    /// turn, never); writes stay ordered, so recovery still finds a valid
    /// prefix of the history. On single-frame appends `Batch(1)` behaves
    /// like [`FsyncPolicy::EveryAppend`].
    Batch(usize),
}

impl FsyncPolicy {
    /// Whether an `append` that just wrote a run of `run_frames` frames,
    /// leaving `pending` frames unsynced, owes the sync itself (the one
    /// place the rule lives; [`FileSink`] asks it).
    pub fn sync_due(self, run_frames: usize, pending: usize) -> bool {
        match self {
            FsyncPolicy::EveryAppend => true,
            // A run is a turn being committed: the flush that follows is
            // its one sync (see [`JournalSink`]).
            FsyncPolicy::Batch(window) => run_frames == 1 && pending >= window.max(1),
        }
    }
}

/// File-backed sink that syncs only over blocks its files already own: the
/// log at `path` and the retired log at `<path>.spare`, each its frames
/// followed by zeros. `append` writes at the log's end, over zeros laid
/// down ahead of it (doubled when a run would pass them), so a group
/// commit's `sync_data` overwrites instead of allocating. `reset` writes
/// the new image into the retired log, zeroes what that held past the new
/// end, syncs it and swaps the two names with one
/// `renameat2(RENAME_EXCHANGE)` and a directory fsync: a crash leaves the
/// old log or the new one, and no byte of a retired log is ever readable at
/// `path`. Needs Linux ≥ 3.15 on a filesystem with `RENAME_EXCHANGE`.
#[derive(Debug)]
pub struct FileSink {
    log: WalFile,
    spare: WalFile,
    path: PathBuf,
    policy: FsyncPolicy,
    /// Frames written since the last `sync_data`.
    unsynced: usize,
    /// Cumulative durability counters (observability/tests).
    stats: SinkStats,
}

/// One of a [`FileSink`]'s files: frames to `end`, then zeros to `owned`.
#[derive(Debug)]
struct WalFile {
    file: File,
    end: u64,
    owned: u64,
}

impl WalFile {
    fn open(path: &Path, truncate: bool) -> std::io::Result<Self> {
        let mut options = OpenOptions::new();
        let file = options.create(true).read(true).write(true);
        let file = file.truncate(truncate).open(path)?;
        let (end, owned) = (logical_end(&file)?, file.metadata()?.len());
        Ok(WalFile { file, end, owned })
    }

    /// Writes `bytes` at `at`, the new end, and keeps zeros past it: over
    /// what the file held beyond the new end, and ahead of it to the next
    /// power of two when the write passes what the file owns.
    fn write_at(&mut self, bytes: &[u8], at: u64) -> std::io::Result<()> {
        self.file.write_all_at(bytes, at)?;
        let mut from = at + bytes.len() as u64;
        let to = if from > self.owned {
            (from + 1).next_power_of_two()
        } else {
            self.end
        };
        (self.end, self.owned) = (from, self.owned.max(to));
        // On the stack: a static would be read-only data paged in from disk.
        let zeros = [0u8; 4096];
        while from < to {
            let n = (to - from).min(zeros.len() as u64);
            self.file.write_all_at(&zeros[..n as usize], from)?;
            from += n;
        }
        Ok(())
    }
}

/// One past the last non-zero byte of `file`, found without reading the
/// log: backwards from the end of the file, over its zero tail.
fn logical_end(file: &File) -> std::io::Result<u64> {
    let (mut at, mut block) = (file.metadata()?.len(), [0u8; 4096]);
    loop {
        let from = at.saturating_sub(block.len() as u64);
        let chunk = &mut block[..(at - from) as usize];
        file.read_exact_at(chunk, from)?;
        match chunk.iter().rposition(|&b| b != 0) {
            Some(last) => return Ok(from + last as u64 + 1),
            None if from == 0 => return Ok(0),
            None => at = from,
        }
    }
}

fn spare_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".spare");
    name.into()
}

/// Swaps the names `a` and `b` in one step: `renameat2(RENAME_EXCHANGE)`.
fn exchange(a: &Path, b: &Path) -> std::io::Result<()> {
    use std::ffi::{c_char, CString};
    use std::os::unix::ffi::OsStrExt;
    // No `libc` crate in the tree: the one call is declared directly.
    extern "C" {
        fn renameat2(fd1: i32, p1: *const c_char, fd2: i32, p2: *const c_char, flags: u32) -> i32;
    }
    const AT_FDCWD: i32 = -100;
    let [a, b] = [a, b].map(|p| CString::new(p.as_os_str().as_bytes()));
    let (a, b) = (a?, b?);
    // SAFETY: two NUL-terminated paths that outlive the call; flag 2 is
    // RENAME_EXCHANGE.
    match unsafe { renameat2(AT_FDCWD, a.as_ptr(), AT_FDCWD, b.as_ptr(), 2) } {
        0 => Ok(()),
        _ => Err(std::io::Error::last_os_error()),
    }
}

impl FileSink {
    /// Creates (truncating) the journal file, syncing every append.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        Self::open(path.as_ref(), true)
    }

    /// Opens the file for appending **without touching its contents**.
    /// Recovery attaches a sink this way so the existing log survives until
    /// the atomic post-recovery rewrite replaces it.
    pub fn open_preserving(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        Self::open(path.as_ref(), false)
    }

    fn open(path: &Path, truncate: bool) -> Result<Self, JournalError> {
        Ok(FileSink {
            log: WalFile::open(path, truncate)?,
            // Whatever a spare holds is stale.
            spare: WalFile::open(&spare_path(path), true)?,
            path: path.to_path_buf(),
            policy: FsyncPolicy::EveryAppend,
            unsynced: 0,
            stats: SinkStats::default(),
        })
    }

    /// Sets the fsync policy (builder style).
    pub fn with_fsync_policy(mut self, policy: FsyncPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Reads a journal file back into bytes up to its zero tail (no frame
    /// ends in 0x00) — the recovery entry point.
    pub fn read(path: impl AsRef<Path>) -> Result<Vec<u8>, JournalError> {
        let file = File::open(path.as_ref())?;
        let end = logical_end(&file)?;
        // Not `vec![0; end]`: zeroing a buffer the read overwrites costs a
        // pass over the whole log once the allocator recycles heap memory.
        let mut bytes = Vec::with_capacity(end as usize);
        (&file).take(end).read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn sync(&mut self) {
        self.log
            .file
            .sync_data()
            .expect("journal file fsync must succeed");
        self.stats.max_batch = self.stats.max_batch.max(self.unsynced as u64);
        self.unsynced = 0;
        self.stats.syncs += 1;
    }
}

impl JournalSink for FileSink {
    fn append(&mut self, run: &[u8]) {
        self.log
            .write_at(run, self.log.end)
            .expect("journal file append must succeed");
        let frames = frame_count(run);
        debug_assert!(frames > 0, "append takes whole frames");
        self.stats.writes += 1;
        self.stats.appends += frames as u64;
        self.stats.bytes_written += run.len() as u64;
        self.unsynced += frames;
        if self.policy.sync_due(frames, self.unsynced) {
            self.sync();
        }
    }

    fn flush(&mut self) {
        if self.unsynced > 0 {
            self.sync();
        }
    }

    fn reset(&mut self, bytes: &[u8]) {
        let mut swap = || -> std::io::Result<()> {
            self.spare.write_at(bytes, 0)?;
            self.spare.file.sync_data()?;
            exchange(&self.path, &spare_path(&self.path))?;
            // Make the exchange itself durable: without the directory fsync
            // a power failure could bring back the old names, and frames
            // appended (and acknowledged) after this compaction would
            // vanish with the new log.
            if let Some(parent) = self.path.parent().filter(|p| !p.as_os_str().is_empty()) {
                File::open(parent)?.sync_all()?;
            }
            Ok(())
        };
        swap().expect("journal file rewrite must succeed");
        std::mem::swap(&mut self.log, &mut self.spare);
        // The new log was fully synced before the exchange: the rewrite is
        // one write and one durability point.
        self.stats.writes += 1;
        self.stats.syncs += 1;
        self.stats.bytes_written += bytes.len() as u64;
        self.unsynced = 0;
    }

    fn stats(&self) -> SinkStats {
        self.stats
    }
}

impl Drop for FileSink {
    /// Best-effort group-commit completion: a *graceful* shutdown should
    /// not lose the batched tail (a crash, by definition, skips this).
    fn drop(&mut self) {
        if self.unsynced > 0 {
            let _ = self.log.file.sync_data();
        }
    }
}

/// The journal proper. Owns the canonical byte image (what recovery would
/// read) and hands every mutation to the optional sink: at once, append by
/// append, unless a serving turn is open — then the turn's frames wait in
/// the image (shipping, [`frames_from`](Journal::frames_from) and
/// [`bytes`](Journal::bytes) see them immediately) and reach the sink as
/// one write at [`flush`](Journal::flush).
///
/// Memory note: the in-memory image holds everything since the last
/// compaction, so under the default compacting config it stays bounded by
/// one snapshot epoch. `snapshot_every: 0` or `compact_on_snapshot: false`
/// trades that bound for full in-process history — on a long-lived
/// file-backed gateway, prefer the compacting default.
pub struct Journal {
    cfg: JournalConfig,
    bytes: Vec<u8>,
    sink: Option<Box<dyn JournalSink>>,
    events_since_snapshot: usize,
    events_appended: u64,
    snapshots_appended: u64,
    /// Global sequence number of the next frame to append. Never resets —
    /// compaction raises `base_seq` instead — so a frame's seq identifies
    /// it for the whole journal lifetime (the replication ship offset).
    head_seq: u64,
    /// Sequence number of the first frame still held in `bytes`.
    base_seq: u64,
    /// Byte offset in `bytes` of each in-memory frame; entry `i` is the
    /// frame with sequence number `base_seq + i`.
    frame_index: Vec<usize>,
    /// Promotion epoch stamped into every snapshot. Bumped by follower
    /// promotion; a zombie primary keeps its old epoch and its late shipped
    /// frames are fenced by it.
    epoch: u64,
    /// Hot-path profiler handle (disabled by default: one `Option` check
    /// per append, no clock reads).
    profiler: rtdls_telemetry::Profiler,
    /// How much of `bytes` the sink holds: `bytes[written..]` is the run of
    /// whole frames still owed to it.
    written: usize,
    /// A compaction the sink has not seen yet: its stored log is superseded
    /// as a whole and the hand-over is a `reset` to `bytes`, not an append.
    rewrite_due: bool,
    /// A serving turn is open ([`hold_turn`](Journal::hold_turn)): appends
    /// stay in the image until [`flush`](Journal::flush) closes the turn.
    held: bool,
}

impl Journal {
    /// An empty in-memory journal (tests, benches, and the crash harness).
    pub fn in_memory(cfg: JournalConfig) -> Self {
        Journal {
            cfg,
            bytes: Vec::new(),
            sink: None,
            events_since_snapshot: 0,
            events_appended: 0,
            snapshots_appended: 0,
            head_seq: 0,
            base_seq: 0,
            frame_index: Vec::new(),
            epoch: 0,
            profiler: rtdls_telemetry::Profiler::disabled(),
            written: 0,
            rewrite_due: false,
            held: false,
        }
    }

    /// An empty journal mirrored to `sink`.
    pub fn with_sink(cfg: JournalConfig, sink: Box<dyn JournalSink>) -> Self {
        let mut journal = Journal::in_memory(cfg);
        journal.sink = Some(sink);
        journal
    }

    /// Attaches a durable sink after the fact, replacing the sink's stored
    /// log with the journal's current bytes (atomically, for a
    /// [`FileSink`]). Recovery uses this so the old journal file is only
    /// touched *after* recovery has succeeded.
    pub fn attach_sink(&mut self, mut sink: Box<dyn JournalSink>) {
        sink.reset(&self.bytes);
        self.sink = Some(sink);
        self.written = self.bytes.len();
        self.rewrite_due = false;
    }

    /// Attaches a hot-path profiler: `journal/append` and
    /// `journal/snapshot` time the encoding into the image, `journal/write`
    /// the hand-over to the sink (one frame, a held turn's run, or a
    /// compaction rewrite) and `journal/fsync` the closing sync.
    pub fn attach_profiler(&mut self, profiler: &rtdls_telemetry::Profiler) {
        self.profiler = profiler.clone();
    }

    /// The canonical log bytes (exactly what a recovery would read).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Events appended over the journal's lifetime (snapshots excluded).
    pub fn events_appended(&self) -> u64 {
        self.events_appended
    }

    /// Snapshots appended over the journal's lifetime (genesis included).
    pub fn snapshots_appended(&self) -> u64 {
        self.snapshots_appended
    }

    /// The sink's cumulative durability counters (`None` for an in-memory
    /// journal — there is no durability to account for).
    pub fn sink_stats(&self) -> Option<SinkStats> {
        self.sink.as_ref().map(|s| s.stats())
    }

    /// Global sequence number the next appended frame will get — the
    /// journal's *appended offset* in replication terms.
    pub fn next_seq(&self) -> u64 {
        self.head_seq
    }

    /// Sequence number of the earliest frame still in memory. Rises on
    /// compaction; frames before it can no longer be re-shipped, but the
    /// frame *at* it is always a snapshot that supersedes them.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// The journal's promotion epoch (stamped into every snapshot it
    /// writes).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sets the promotion epoch. Recovery sets this to the restored
    /// snapshot's epoch; follower promotion sets it one higher.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Raw encoded frames with sequence numbers `from..next_seq()`, clamped
    /// to what is still in memory. Returns the first sequence number
    /// actually included: greater than `from` when compaction dropped older
    /// frames, in which case the first returned frame is the compacting
    /// snapshot that supersedes them.
    pub fn frames_from(&self, from: u64) -> (u64, Vec<&[u8]>) {
        let start = from.max(self.base_seq);
        let mut out = Vec::new();
        let mut i = (start - self.base_seq) as usize;
        while i < self.frame_index.len() {
            let lo = self.frame_index[i];
            let hi = self
                .frame_index
                .get(i + 1)
                .copied()
                .unwrap_or(self.bytes.len());
            out.push(&self.bytes[lo..hi]);
            i += 1;
        }
        (start, out)
    }

    /// `true` once enough input events accumulated since the last snapshot.
    pub fn wants_snapshot(&self) -> bool {
        self.cfg.snapshot_every > 0 && self.events_since_snapshot >= self.cfg.snapshot_every
    }

    /// Opens a serving turn: until the next [`flush`](Journal::flush),
    /// appended frames stay in the image and the sink sees none of them.
    /// Only a caller that owes a `flush` before anything it appended is
    /// acknowledged may hold — a turn's `decide`s, whose `drive` ends in
    /// that flush.
    pub(crate) fn hold_turn(&mut self) {
        self.held = true;
    }

    /// Closes the turn, if one is open, and completes the group commit:
    /// the sink gets the frames it does not hold yet as **one** append (an
    /// offset into the image — no second buffer) or, when a compacting
    /// snapshot fell inside the turn, as the one `reset` that snapshot
    /// owed, with the turn's tail already inside the rewritten image; then
    /// [`JournalSink::flush`] makes it durable. With nothing held this is
    /// the sink's flush alone; for an in-memory journal it is a no-op.
    pub fn flush(&mut self) {
        self.held = false;
        self.hand_over();
        if let Some(sink) = &mut self.sink {
            let started = self.profiler.start();
            sink.flush();
            self.profiler.stop("journal/fsync", started);
        }
    }

    /// Brings the sink up to the image: the rewrite a compaction owes it,
    /// or else the unwritten suffix as one run of whole frames.
    fn hand_over(&mut self) {
        if !self.rewrite_due && self.written == self.bytes.len() {
            return;
        }
        if let Some(sink) = &mut self.sink {
            let started = self.profiler.start();
            if self.rewrite_due {
                sink.reset(&self.bytes);
            } else {
                sink.append(&self.bytes[self.written..]);
            }
            self.profiler.stop("journal/write", started);
        }
        self.written = self.bytes.len();
        self.rewrite_due = false;
    }

    /// Renders `record` as one frame at the end of the image, in place.
    fn render(&mut self, kind: RecordKind, record: &impl serde::Serialize) {
        write_frame(MAGIC, kind as u8, &mut self.bytes, |out| {
            serde_json::to_writer(out, record).expect("record serialization is infallible")
        });
    }

    /// Appends one event record.
    pub fn append_event(&mut self, ev: &JournalEvent) {
        let started = self.profiler.start();
        self.frame_index.push(self.bytes.len());
        self.head_seq += 1;
        self.render(RecordKind::Event, ev);
        self.events_appended += 1;
        if ev.is_input() {
            self.events_since_snapshot += 1;
        }
        self.profiler.stop("journal/append", started);
        if !self.held {
            self.hand_over();
        }
    }

    /// Appends a snapshot record, compacting away the preceding bytes when
    /// configured to.
    pub fn append_snapshot(&mut self, snap: &GatewaySnapshot) {
        let started = self.profiler.start();
        if self.cfg.compact_on_snapshot {
            self.bytes.clear();
            self.base_seq = self.head_seq;
            self.frame_index.clear();
            // Whatever the sink stores — and whatever of this turn it was
            // still owed — is superseded by this snapshot: the hand-over
            // is now a rewrite, and the superseded frames are never
            // written.
            self.written = 0;
            self.rewrite_due = true;
        }
        self.frame_index.push(self.bytes.len());
        self.head_seq += 1;
        self.render(RecordKind::Snapshot, snap);
        self.events_since_snapshot = 0;
        self.snapshots_appended += 1;
        self.profiler.stop("journal/snapshot", started);
        if !self.held {
            self.hand_over();
        }
    }
}

impl Drop for Journal {
    /// A graceful stop loses nothing: a turn still held when the journal
    /// goes away is handed to the sink (whose own `Drop` syncs it). Skipped
    /// while unwinding — a sink failure then would abort the process, and
    /// a held turn was never acknowledged, so a panic may lose it exactly
    /// as a crash would.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.hand_over();
        }
    }
}

impl core::fmt::Debug for Journal {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Journal")
            .field("cfg", &self.cfg)
            .field("len_bytes", &self.bytes.len())
            .field("events_appended", &self.events_appended)
            .field("snapshots_appended", &self.snapshots_appended)
            .field("sinked", &self.sink.is_some())
            .finish()
    }
}

/// Splits a decoded log into the frames up to and including the **last**
/// intact snapshot, the events after it, and the tail status. Returns
/// `(snapshot, tail_events)`; `snapshot` is `None` when no snapshot frame
/// survived.
pub fn split_at_last_snapshot(bytes: &[u8]) -> (Option<Frame>, Vec<Frame>, TailStatus) {
    let (frames, tail) = decode_frames(bytes);
    let last_snap = frames.iter().rposition(|f| f.kind == RecordKind::Snapshot);
    match last_snap {
        Some(i) => {
            let mut it = frames.into_iter();
            let snap = it.nth(i).expect("index in range");
            (Some(snap), it.collect(), tail)
        }
        None => (None, frames, tail),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdls_core::prelude::SimTime;

    fn ev(at: f64) -> JournalEvent {
        JournalEvent::DispatchDue {
            at: SimTime::new(at),
        }
    }

    /// One whole (tiny) frame, for driving a bare sink.
    fn frame() -> Vec<u8> {
        crate::wire::encode_frame(RecordKind::Event, b"{}")
    }

    fn snap() -> GatewaySnapshot {
        use rtdls_core::prelude::*;
        use rtdls_service::prelude::{DeferPolicy, Routing, ShardedGateway};
        let g = ShardedGateway::new(
            ClusterParams::paper_baseline(),
            1,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::LeastLoaded,
            DeferPolicy::default(),
        )
        .unwrap();
        crate::snapshot::Recoverable::capture(&g)
    }

    #[test]
    fn snapshot_cadence_counts_only_input_events() {
        let mut j = Journal::in_memory(JournalConfig {
            snapshot_every: 2,
            compact_on_snapshot: false,
        });
        assert!(!j.wants_snapshot());
        j.append_event(&ev(1.0));
        j.append_event(&JournalEvent::Rescued { task: 1 }); // audit: no count
        assert!(!j.wants_snapshot());
        j.append_event(&ev(2.0));
        assert!(j.wants_snapshot());
        j.append_snapshot(&snap());
        assert!(!j.wants_snapshot());
        assert_eq!(j.events_appended(), 3);
        assert_eq!(j.snapshots_appended(), 1);
    }

    #[test]
    fn compaction_keeps_exactly_the_last_snapshot_and_tail() {
        let mut j = Journal::in_memory(JournalConfig {
            snapshot_every: 0,
            compact_on_snapshot: true,
        });
        j.append_snapshot(&snap()); // genesis
        j.append_event(&ev(1.0));
        j.append_event(&ev(2.0));
        j.append_snapshot(&snap()); // compacts
        j.append_event(&ev(3.0));
        let (s, events, tail) = split_at_last_snapshot(j.bytes());
        assert!(tail.is_clean());
        assert!(s.is_some());
        assert_eq!(events.len(), 1, "pre-snapshot events were compacted away");
        let (frames, _) = decode_frames(j.bytes());
        assert_eq!(frames.len(), 2, "snapshot + one event");
        assert_eq!(frames[0].kind, RecordKind::Snapshot);
    }

    #[test]
    fn file_sink_mirrors_memory_exactly_through_compaction() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rtdls-journal-test-{}.wal", std::process::id()));
        {
            let sink = FileSink::create(&path).unwrap();
            let mut j = Journal::with_sink(JournalConfig::default(), Box::new(sink));
            j.append_snapshot(&snap());
            j.append_event(&ev(1.0));
            j.append_event(&ev(2.0));
            let on_disk = FileSink::read(&path).unwrap();
            assert_eq!(on_disk, j.bytes());
            j.append_snapshot(&snap()); // compacting rewrite
            j.append_event(&ev(3.0));
            let on_disk = FileSink::read(&path).unwrap();
            assert_eq!(on_disk, j.bytes());
            let (frames, tail) = decode_frames(&on_disk);
            assert!(tail.is_clean());
            assert_eq!(frames.len(), 2);
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("wal.spare"));
    }

    #[test]
    fn group_commit_batches_fsyncs_and_flush_completes_the_window() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "rtdls-group-commit-test-{}.wal",
            std::process::id()
        ));
        {
            let sink = FileSink::create(&path)
                .unwrap()
                .with_fsync_policy(FsyncPolicy::Batch(8));
            let mut j = Journal::with_sink(
                JournalConfig {
                    snapshot_every: 0,
                    compact_on_snapshot: false,
                },
                Box::new(sink),
            );
            for i in 0..20 {
                j.append_event(&ev(i as f64));
            }
            // Writes always land immediately — only the fsyncs batch.
            let on_disk = FileSink::read(&path).unwrap();
            assert_eq!(on_disk, j.bytes(), "bytes hit the file per append");
            j.flush();
            j.append_event(&ev(99.0));
            assert_eq!(FileSink::read(&path).unwrap(), j.bytes());
        }
        // Count the syncs directly on a bare sink: 20 appends at window 8
        // complete two group commits; flush closes the partial third.
        let mut sink = FileSink::create(&path)
            .unwrap()
            .with_fsync_policy(FsyncPolicy::Batch(8));
        for _ in 0..20 {
            sink.append(&frame());
        }
        assert_eq!(sink.stats().syncs, 2, "two full windows");
        sink.flush();
        assert_eq!(sink.stats().syncs, 3, "flush commits the tail");
        sink.flush();
        assert_eq!(sink.stats().syncs, 3, "flush with nothing pending is free");
        // Per-append policy syncs every time; Batch(1) matches it.
        let mut sink = FileSink::create(&path).unwrap();
        for _ in 0..3 {
            sink.append(&frame());
        }
        assert_eq!(sink.stats().syncs, 3);
        let mut sink = FileSink::create(&path)
            .unwrap()
            .with_fsync_policy(FsyncPolicy::Batch(1));
        for _ in 0..3 {
            sink.append(&frame());
        }
        assert_eq!(sink.stats().syncs, 3);
        // A run counts as its frames but is left to the flush that follows
        // it: synced once, after its write, however far past the window.
        let mut sink = FileSink::create(&path)
            .unwrap()
            .with_fsync_policy(FsyncPolicy::Batch(8));
        sink.append(&frame().repeat(20));
        assert_eq!(sink.stats().syncs, 0, "the run's sync is its flush");
        sink.flush();
        assert_eq!(sink.stats().syncs, 1, "one sync for the whole run");
        assert_eq!(sink.stats().max_batch, 20);
        assert_eq!((sink.stats().appends, sink.stats().writes), (20, 1));
        // ...and the frames it left pending count towards the window of
        // the single-frame appends after it.
        sink.append(&frame().repeat(7));
        sink.append(&frame());
        assert_eq!(sink.stats().syncs, 2, "7 + 1 reach the window");
        // Syncing per append, a run is durable when its append returns.
        let mut sink = FileSink::create(&path).unwrap();
        sink.append(&frame().repeat(20));
        assert_eq!(sink.stats().syncs, 1);
        drop(sink);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("wal.spare"));
    }

    #[test]
    fn sink_stats_track_appends_bytes_and_batch_sizes() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rtdls-sink-stats-test-{}.wal", std::process::id()));
        let mut sink = FileSink::create(&path)
            .unwrap()
            .with_fsync_policy(FsyncPolicy::Batch(4));
        let len = frame().len() as u64;
        for _ in 0..10 {
            sink.append(&frame());
        }
        sink.flush();
        let stats = sink.stats();
        assert_eq!(stats.appends, 10);
        assert_eq!(stats.writes, 10);
        assert_eq!(stats.bytes_written, 10 * len);
        assert_eq!(stats.syncs, 3, "two full windows + the flushed tail");
        assert_eq!(stats.max_batch, 4);
        // Compaction counts its rewrite's bytes, write and durability
        // point, but not as appends.
        sink.reset(b"0123456789");
        assert_eq!(sink.stats().appends, 10);
        assert_eq!(sink.stats().writes, 11);
        assert_eq!(sink.stats().syncs, 4, "a rewrite is a durability point");
        assert_eq!(sink.stats().bytes_written, 10 * len + 10);
        drop(sink);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("wal.spare"));

        // The journal surfaces its sink's stats; in-memory has none.
        assert!(Journal::in_memory(JournalConfig::default())
            .sink_stats()
            .is_none());
        let sink = FileSink::create(&path).unwrap();
        let mut j = Journal::with_sink(
            JournalConfig {
                snapshot_every: 0,
                compact_on_snapshot: false,
            },
            Box::new(sink),
        );
        j.append_event(&ev(1.0));
        let stats = j.sink_stats().unwrap();
        assert_eq!(stats.appends, 1);
        assert_eq!(stats.syncs, 1, "per-append policy syncs immediately");
        assert!(stats.bytes_written > 0);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("wal.spare"));
    }

    #[test]
    fn frames_from_ships_exactly_the_appended_tail() {
        let mut j = Journal::in_memory(JournalConfig {
            snapshot_every: 0,
            compact_on_snapshot: true,
        });
        j.append_snapshot(&snap()); // seq 0
        j.append_event(&ev(1.0)); // seq 1
        j.append_event(&ev(2.0)); // seq 2
        assert_eq!(j.next_seq(), 3);
        assert_eq!(j.base_seq(), 0);
        let (start, frames) = j.frames_from(1);
        assert_eq!(start, 1);
        assert_eq!(frames.len(), 2);
        // Each slice is a standalone decodable frame.
        for f in &frames {
            let (decoded, tail) = decode_frames(f);
            assert!(tail.is_clean());
            assert_eq!(decoded.len(), 1);
        }
        // Compaction raises base_seq; the gap is bridged by the snapshot.
        j.append_snapshot(&snap()); // seq 3, base 3
        assert_eq!(j.base_seq(), 3);
        let (start, frames) = j.frames_from(1);
        assert_eq!(start, 3, "frames 1..3 are gone; snapshot 3 supersedes");
        assert_eq!(frames.len(), 1);
        let (decoded, _) = decode_frames(frames[0]);
        assert_eq!(decoded[0].kind, RecordKind::Snapshot);
        // Nothing new past the head.
        let (_, frames) = j.frames_from(4);
        assert!(frames.is_empty());
    }

    #[test]
    fn split_with_no_snapshot_returns_all_events() {
        let mut j = Journal::in_memory(JournalConfig::default());
        j.append_event(&ev(1.0));
        j.append_event(&ev(2.0));
        let (s, events, tail) = split_at_last_snapshot(j.bytes());
        assert!(s.is_none());
        assert_eq!(events.len(), 2);
        assert!(tail.is_clean());
    }
}
