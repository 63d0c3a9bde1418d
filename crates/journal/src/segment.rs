//! Log segmentation: the WAL rotated into checksummed, snapshot-anchored
//! segment files.
//!
//! A [`SegmentedSink`] stores the journal as a directory of segments
//! instead of one growing file:
//!
//! ```text
//! shard-0/
//!   seg-000000.wal    sealed   (snapshot + tail, FNV-checksummed)
//!   seg-000001.wal    sealed
//!   seg-000002.wal    active   (the segment being appended to)
//!   manifest.jsonl    one line per sealed segment: seq, epoch, frames,
//!                     bytes, checksum
//! ```
//!
//! Rotation rides the journal's existing compaction contract: every
//! compacting snapshot calls [`JournalSink::reset`], which here **seals**
//! the active segment (fsync, manifest line) and opens the next one whose
//! first frame is that snapshot. Each segment is therefore *snapshot
//! anchored* — independently recoverable from its own first frame — which
//! makes segments the natural unit for journal shipping: a follower that
//! receives a whole segment can restore from it without any earlier bytes.
//! A rotation that falls inside a held serving turn is carried to the
//! turn's commit (see [`Journal::flush`](crate::journal::Journal::flush)):
//! the sealed segment then ends at the last committed turn, and the
//! rotating turn's frames before its snapshot — superseded by it, and never
//! acknowledged without it — are not written.
//!
//! Because the journal's in-memory image already drops compacted bytes,
//! flushed history leaves process memory while the segment directory keeps
//! it all on disk: `recover_segment_dir` walks the directory backwards to
//! the newest segment with an intact leading snapshot and replays from
//! there, tolerating a torn tail in the active segment exactly like
//! single-file recovery does.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use rtdls_core::prelude::SimTime;

use crate::journal::{FsyncPolicy, JournalConfig, JournalSink, SinkStats};
use crate::recover::RecoveryReport;
use crate::snapshot::{JournalError, Recoverable};
use crate::wire::{decode_frames, fnv1a64, frame_count, RecordKind, FNV_OFFSET};
use crate::JournaledGateway;

/// The manifest's per-sealed-segment record (one JSON line in
/// `manifest.jsonl`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// Segment sequence number (also encoded in the file name).
    pub seq: u64,
    /// Promotion epoch the segment was written under.
    pub epoch: u64,
    /// Frames the segment holds.
    pub frames: u64,
    /// Sealed byte length — the segment's final durable offset.
    pub bytes: u64,
    /// FNV-1a 64 over the segment's full byte stream.
    pub checksum: u64,
}

/// Per-segment durability counters (the satellite fix for the previously
/// process-global journal stats). The active segment reports `sealed:
/// false` and a still-moving `bytes`/`frames`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segment sequence number.
    pub seq: u64,
    /// Promotion epoch the segment was opened under.
    pub epoch: u64,
    /// Frames appended into this segment.
    pub frames: u64,
    /// Bytes written into this segment (the sealed offset once sealed).
    pub bytes: u64,
    /// `sync_data` calls performed on this segment's file.
    pub syncs: u64,
    /// Running FNV-1a 64 over the segment's byte stream.
    pub checksum: u64,
    /// `true` once the segment was sealed by a rotation.
    pub sealed: bool,
}

/// FNV-1a 64 over a whole segment's bytes (what the manifest records).
pub fn segment_checksum(bytes: &[u8]) -> u64 {
    fnv1a64(FNV_OFFSET, bytes)
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:06}.wal"))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.jsonl")
}

struct ActiveSegment {
    file: File,
    stats: SegmentStats,
}

/// A [`JournalSink`] that rotates the log into snapshot-anchored segment
/// files under one directory (see the module docs).
pub struct SegmentedSink {
    dir: PathBuf,
    policy: FsyncPolicy,
    epoch: u64,
    /// Sequence number the next opened segment will get.
    next_seg: u64,
    active: Option<ActiveSegment>,
    sealed: Vec<SegmentStats>,
    totals: SinkStats,
    unsynced: usize,
}

impl SegmentedSink {
    /// Creates a fresh segment directory (removing any previous segments
    /// and manifest), syncing every append.
    pub fn create(dir: impl AsRef<Path>) -> Result<Self, JournalError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if (name.starts_with("seg-") && name.ends_with(".wal")) || name == "manifest.jsonl" {
                std::fs::remove_file(&path)?;
            }
        }
        Ok(SegmentedSink {
            dir,
            policy: FsyncPolicy::EveryAppend,
            epoch: 0,
            next_seg: 0,
            active: None,
            sealed: Vec::new(),
            totals: SinkStats::default(),
            unsynced: 0,
        })
    }

    /// Opens an existing segment directory **without touching its
    /// contents**, continuing the segment numbering after the newest
    /// on-disk segment. Recovery attaches a sink this way: the old
    /// segments survive, and the post-recovery snapshot opens the next
    /// segment.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, JournalError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut sealed = read_manifest(&dir)?
            .into_iter()
            .map(|m| SegmentStats {
                seq: m.seq,
                epoch: m.epoch,
                frames: m.frames,
                bytes: m.bytes,
                syncs: 0,
                checksum: m.checksum,
                sealed: true,
            })
            .collect::<Vec<_>>();
        sealed.sort_by_key(|s| s.seq);
        let mut next_seg = sealed.iter().map(|s| s.seq + 1).max().unwrap_or(0);
        for seg in list_segment_files(&dir)? {
            next_seg = next_seg.max(seg.0 + 1);
        }
        Ok(SegmentedSink {
            dir,
            policy: FsyncPolicy::EveryAppend,
            epoch: 0,
            next_seg,
            active: None,
            sealed,
            totals: SinkStats::default(),
            unsynced: 0,
        })
    }

    /// Sets the fsync policy (builder style).
    pub fn with_fsync_policy(mut self, policy: FsyncPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The directory this sink writes segments into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Per-segment counters: every sealed segment this sink knows of plus
    /// the active one.
    pub fn segment_stats(&self) -> Vec<SegmentStats> {
        let mut out = self.sealed.clone();
        if let Some(active) = &self.active {
            out.push(active.stats);
        }
        out
    }

    fn ensure_active(&mut self) {
        if self.active.is_some() {
            return;
        }
        let seq = self.next_seg;
        self.next_seg += 1;
        let path = segment_path(&self.dir, seq);
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .expect("segment file create must succeed");
        self.active = Some(ActiveSegment {
            file,
            stats: SegmentStats {
                seq,
                epoch: self.epoch,
                frames: 0,
                bytes: 0,
                syncs: 0,
                checksum: FNV_OFFSET,
                sealed: false,
            },
        });
    }

    fn sync_active(&mut self) {
        let Some(active) = &mut self.active else {
            return;
        };
        active.file.sync_data().expect("segment fsync must succeed");
        active.stats.syncs += 1;
        self.totals.max_batch = self.totals.max_batch.max(self.unsynced as u64);
        self.totals.syncs += 1;
        self.unsynced = 0;
    }

    /// Seals the active segment: completes its group commit, appends its
    /// manifest line (synced), and retires its stats to the sealed list.
    fn seal_active(&mut self) {
        if self.unsynced > 0 {
            self.sync_active();
        }
        let Some(mut active) = self.active.take() else {
            return;
        };
        active.stats.sealed = true;
        let meta = SegmentMeta {
            seq: active.stats.seq,
            epoch: active.stats.epoch,
            frames: active.stats.frames,
            bytes: active.stats.bytes,
            checksum: active.stats.checksum,
        };
        let line = serde_json::to_string(&meta).expect("manifest serialization is infallible");
        let mut manifest = OpenOptions::new()
            .create(true)
            .append(true)
            .open(manifest_path(&self.dir))
            .expect("manifest open must succeed");
        manifest
            .write_all(format!("{line}\n").as_bytes())
            .expect("manifest append must succeed");
        manifest.sync_data().expect("manifest fsync must succeed");
        self.sealed.push(active.stats);
    }
}

impl JournalSink for SegmentedSink {
    fn append(&mut self, run: &[u8]) {
        self.ensure_active();
        let active = self.active.as_mut().expect("ensured");
        active
            .file
            .write_all(run)
            .expect("segment append must succeed");
        let frames = frame_count(run);
        debug_assert!(frames > 0, "append takes whole frames");
        active.stats.frames += frames as u64;
        active.stats.bytes += run.len() as u64;
        active.stats.checksum = fnv1a64(active.stats.checksum, run);
        self.totals.writes += 1;
        self.totals.appends += frames as u64;
        self.totals.bytes_written += run.len() as u64;
        self.unsynced += frames;
        if self.policy.sync_due(frames, self.unsynced) {
            self.sync_active();
        }
    }

    /// Compaction *is* rotation for a segmented log: the old segment is
    /// sealed in place (history stays on disk) and `bytes` — the journal's
    /// post-compaction image, starting with the new snapshot — opens the
    /// next segment.
    fn reset(&mut self, bytes: &[u8]) {
        self.seal_active();
        self.ensure_active();
        let active = self.active.as_mut().expect("ensured");
        active
            .file
            .write_all(bytes)
            .expect("segment write must succeed");
        active.stats.frames += frame_count(bytes) as u64;
        active.stats.bytes += bytes.len() as u64;
        active.stats.checksum = fnv1a64(active.stats.checksum, bytes);
        self.totals.writes += 1;
        self.totals.bytes_written += bytes.len() as u64;
        self.unsynced += 1;
        // Rotation is a durability point regardless of the batch window:
        // the sealed predecessor's manifest line already promises that
        // everything before this snapshot is durable.
        self.sync_active();
    }

    fn flush(&mut self) {
        if self.unsynced > 0 {
            self.sync_active();
        }
    }

    fn stats(&self) -> SinkStats {
        self.totals
    }

    fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        if let Some(active) = &mut self.active {
            active.stats.epoch = epoch;
        }
    }

    fn segments(&self) -> Vec<SegmentStats> {
        self.segment_stats()
    }
}

impl Drop for SegmentedSink {
    /// Best-effort group-commit completion on graceful shutdown (a crash,
    /// by definition, skips this).
    fn drop(&mut self) {
        if self.unsynced > 0 {
            if let Some(active) = &mut self.active {
                let _ = active.file.sync_data();
            }
        }
    }
}

impl core::fmt::Debug for SegmentedSink {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SegmentedSink")
            .field("dir", &self.dir)
            .field("sealed", &self.sealed.len())
            .field("active", &self.active.as_ref().map(|a| a.stats.seq))
            .finish()
    }
}

/// One segment file read back from a shard's segment directory.
#[derive(Clone, Debug)]
pub struct SegmentFile {
    /// Segment sequence number (from the file name).
    pub seq: u64,
    /// The segment file's path.
    pub path: PathBuf,
    /// The segment's raw bytes (journal wire frames).
    pub bytes: Vec<u8>,
    /// The manifest entry, when the segment was sealed (`None` for the
    /// active segment, or after manifest loss).
    pub meta: Option<SegmentMeta>,
}

impl SegmentFile {
    /// Whether the segment's bytes match its manifest checksum (`true`
    /// when unsealed — there is no promise to check yet).
    pub fn checksum_ok(&self) -> bool {
        match &self.meta {
            Some(meta) => {
                meta.bytes == self.bytes.len() as u64
                    && meta.checksum == segment_checksum(&self.bytes)
            }
            None => true,
        }
    }
}

fn list_segment_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>, JournalError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(stem) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".wal"))
        {
            if let Ok(seq) = stem.parse::<u64>() {
                out.push((seq, path));
            }
        }
    }
    out.sort_by_key(|(seq, _)| *seq);
    Ok(out)
}

fn read_manifest(dir: &Path) -> Result<Vec<SegmentMeta>, JournalError> {
    let path = manifest_path(dir);
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(&path)?;
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // A torn manifest tail (crash mid-append) loses only its own line;
        // the segment it described is still discoverable on disk.
        if let Ok(meta) = serde_json::from_str::<SegmentMeta>(line) {
            out.push(meta);
        }
    }
    Ok(out)
}

/// Reads every segment in `dir`, in sequence order, pairing each with its
/// manifest entry.
pub fn read_segment_dir(dir: impl AsRef<Path>) -> Result<Vec<SegmentFile>, JournalError> {
    let dir = dir.as_ref();
    let manifest = read_manifest(dir)?;
    let mut out = Vec::new();
    for (seq, path) in list_segment_files(dir)? {
        let bytes = std::fs::read(&path)?;
        let meta = manifest.iter().find(|m| m.seq == seq).copied();
        out.push(SegmentFile {
            seq,
            path,
            bytes,
            meta,
        });
    }
    Ok(out)
}

/// Concatenates the recovery byte stream from a segment list: everything
/// from the newest segment whose first frame is an intact snapshot to the
/// end. A torn or empty active segment (crash mid-rotation) falls back to
/// the previous anchored segment, so the stream always starts with a
/// restorable snapshot when any segment holds one.
pub fn recovery_bytes(segments: &[SegmentFile]) -> Vec<u8> {
    for anchor in (0..segments.len()).rev() {
        let (frames, _) = decode_frames(&segments[anchor].bytes);
        if frames.first().map(|f| f.kind) == Some(RecordKind::Snapshot) {
            let mut out = Vec::new();
            for seg in &segments[anchor..] {
                out.extend_from_slice(&seg.bytes);
            }
            return out;
        }
    }
    // No anchored segment survived: hand recovery the whole stream and let
    // it fail with `NoSnapshot` (or find a mid-segment snapshot).
    let mut out = Vec::new();
    for seg in segments {
        out.extend_from_slice(&seg.bytes);
    }
    out
}

/// [`recover`](crate::recover::recover) over a segment directory: read the
/// segments, rebuild from the newest anchored snapshot, and re-attach a
/// [`SegmentedSink`] that opens the post-recovery snapshot as a fresh
/// segment **after** the existing ones — the old segments are never
/// touched, so a failed recovery (or a crash mid-rotation) always leaves
/// the original log intact.
pub fn recover_segment_dir<G: Recoverable>(
    dir: impl AsRef<Path>,
    now: SimTime,
    cfg: JournalConfig,
    policy: FsyncPolicy,
) -> Result<(JournaledGateway<G>, RecoveryReport), JournalError> {
    let dir = dir.as_ref();
    let segments = read_segment_dir(dir)?;
    let bytes = recovery_bytes(&segments);
    let (mut journaled, report) = crate::recover::recover::<G>(&bytes, now, cfg, None)?;
    let sink = SegmentedSink::open(dir)?.with_fsync_policy(policy);
    journaled.journal_mut().attach_sink(Box::new(sink));
    Ok((journaled, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::JournalEvent;
    use crate::journal::Journal;
    use crate::snapshot::Recoverable;
    use rtdls_core::prelude::*;
    use rtdls_service::prelude::{DeferPolicy, Routing, ShardedGateway};

    fn gateway() -> ShardedGateway {
        ShardedGateway::new(
            ClusterParams::paper_baseline(),
            1,
            AlgorithmKind::EDF_DLT,
            PlanConfig::default(),
            Routing::LeastLoaded,
            DeferPolicy::default(),
        )
        .unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rtdls-seg-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn ev(at: f64) -> JournalEvent {
        JournalEvent::DispatchDue {
            at: SimTime::new(at),
        }
    }

    #[test]
    fn rotation_seals_segments_and_manifest_checksums_verify() {
        let dir = temp_dir("rotate");
        {
            let sink = SegmentedSink::create(&dir).unwrap();
            let mut j = Journal::with_sink(
                JournalConfig {
                    snapshot_every: 0,
                    compact_on_snapshot: true,
                },
                Box::new(sink),
            );
            j.append_snapshot(&gateway().capture()); // seg 0 opens
            j.append_event(&ev(1.0));
            j.append_event(&ev(2.0));
            j.append_snapshot(&gateway().capture()); // seals seg 0, opens seg 1
            j.append_event(&ev(3.0));
            j.append_snapshot(&gateway().capture()); // seals seg 1, opens seg 2

            let segs = j.segment_stats();
            assert_eq!(segs.len(), 3);
            assert!(segs[0].sealed && segs[1].sealed && !segs[2].sealed);
            assert_eq!(segs[0].frames, 3, "snapshot + two events");
            assert_eq!(segs[1].frames, 2, "snapshot + one event");
            // In-memory image holds only the newest epoch; disk holds all.
            let (mem_frames, _) = decode_frames(j.bytes());
            assert_eq!(mem_frames.len(), 1);
        }
        let segs = read_segment_dir(&dir).unwrap();
        assert_eq!(segs.len(), 3);
        for seg in &segs {
            assert!(seg.checksum_ok(), "segment {} checksum", seg.seq);
        }
        assert!(segs[0].meta.is_some() && segs[1].meta.is_some());
        assert!(segs[2].meta.is_none(), "active segment is unsealed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_dir_recovery_equals_single_file_recovery() {
        let dir = temp_dir("recover");
        let mut live = crate::JournaledGateway::with_sink(
            gateway(),
            JournalConfig {
                snapshot_every: 2,
                compact_on_snapshot: true,
            },
            Box::new(SegmentedSink::create(&dir).unwrap()),
        );
        for i in 0..7 {
            let _ = live.submit_request(
                &SubmitRequest::new(Task::new(i, 0.0, 400.0, 30_000.0)),
                SimTime::ZERO,
            );
        }
        let mem = live.journal().bytes().to_vec();
        let live_norm = live.inner().capture().normalized();
        drop(live);

        // The concatenated segment stream recovers to the same state as
        // the in-memory image (which spans only the newest epoch).
        let (recovered, report) = recover_segment_dir::<ShardedGateway>(
            &dir,
            SimTime::ZERO,
            JournalConfig::default(),
            FsyncPolicy::EveryAppend,
        )
        .unwrap();
        assert!(report.tail.is_clean());
        assert!(report.demoted.is_empty());
        assert_eq!(recovered.inner().capture().normalized(), live_norm);

        let (from_mem, _) =
            crate::recover::<ShardedGateway>(&mem, SimTime::ZERO, JournalConfig::default(), None)
                .unwrap();
        assert_eq!(
            recovered.inner().capture().normalized(),
            from_mem.inner().capture().normalized()
        );

        // The reattached sink opened a fresh segment after the old ones.
        let stats = recovered.journal().segment_stats();
        let active = stats.last().unwrap();
        assert!(!active.sealed);
        assert!(stats.iter().filter(|s| s.sealed).count() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_active_segment_falls_back_to_the_previous_anchor() {
        let dir = temp_dir("torn");
        {
            let sink = SegmentedSink::create(&dir).unwrap();
            let mut j = Journal::with_sink(
                JournalConfig {
                    snapshot_every: 0,
                    compact_on_snapshot: true,
                },
                Box::new(sink),
            );
            j.append_snapshot(&gateway().capture());
            j.append_event(&ev(1.0));
            j.append_snapshot(&gateway().capture()); // seals seg 0
            j.append_event(&ev(2.0));
        }
        // Tear the active segment down to garbage mid-frame.
        let segs = list_segment_files(&dir).unwrap();
        let active = &segs.last().unwrap().1;
        let bytes = std::fs::read(active).unwrap();
        std::fs::write(active, &bytes[..3.min(bytes.len())]).unwrap();

        let (recovered, report) = recover_segment_dir::<ShardedGateway>(
            &dir,
            SimTime::ZERO,
            JournalConfig::default(),
            FsyncPolicy::EveryAppend,
        )
        .unwrap();
        assert!(
            !report.tail.is_clean(),
            "the torn tail was noticed: {:?}",
            report.tail
        );
        // Segment 0's snapshot anchored the recovery.
        assert_eq!(
            recovered.inner().capture().normalized().metrics.submitted,
            0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frames_from_ships_exactly_the_appended_tail() {
        let mut j = Journal::in_memory(JournalConfig {
            snapshot_every: 0,
            compact_on_snapshot: true,
        });
        j.append_snapshot(&gateway().capture()); // seq 0
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
        j.append_snapshot(&gateway().capture()); // seq 3, base 3
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
}
