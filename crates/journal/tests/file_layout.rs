//! The file layout a `FileSink` leaves on disk — frames, then the zeros it
//! keeps ahead of them; a retired log at `<path>.spare` — built byte by
//! byte and read back the way recovery reads it: `FileSink::read`, then
//! `decode_frames`, then `replay`.

use std::path::PathBuf;

use rtdls_core::prelude::*;
use rtdls_journal::prelude::*;
use rtdls_journal::wire::{decode_frames, HEADER_LEN};
use rtdls_service::prelude::*;

fn gateway() -> ShardedGateway {
    ShardedGateway::new(
        ClusterParams::new(2, 1.0, 100.0).unwrap(),
        1,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap()
}

/// Submits `n` tasks one by one (each its own append): accepts, defers
/// and a rejection on a 2-node shard.
fn submit(gateway: &mut JournaledGateway<ShardedGateway>, n: u64) {
    for i in 0..n {
        let at = i as f64 * 10.0;
        let task = Task::new(i + 1, at, 10.0 + 6.0 * i as f64, 3_000.0);
        let _ = gateway.submit_request(&SubmitRequest::new(task), SimTime::new(at));
    }
}

/// The uncompacted log of `n` submits: the genesis snapshot, then each
/// submit's input and audit frames.
fn log(n: u64) -> Vec<u8> {
    let mut gateway = JournaledGateway::new(
        gateway(),
        JournalConfig {
            snapshot_every: 0,
            compact_on_snapshot: false,
        },
    );
    submit(&mut gateway, n);
    gateway.journal().bytes().to_vec()
}

/// The state a replay of `bytes` rebuilds.
fn recovered(bytes: &[u8]) -> GatewaySnapshot {
    let (gateway, _) = replay::<ShardedGateway>(bytes).unwrap();
    gateway.capture().normalized()
}

/// A WAL path of a test's own; the file and its spare go when it drops.
struct Wal(PathBuf);

impl Wal {
    fn new(name: &str) -> Self {
        let file = format!("rtdls-file-layout-{name}-{}.wal", std::process::id());
        Wal(std::env::temp_dir().join(file))
    }

    fn spare(&self) -> PathBuf {
        self.0.with_extension("wal.spare")
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.spare());
    }
}

#[test]
fn frames_then_zeros_read_as_every_frame_with_a_clean_tail() {
    let wal = log(6);
    let file = Wal::new("zeros");
    std::fs::write(&file.0, [&wal[..], &[0; 5_000]].concat()).unwrap();
    let read = FileSink::read(&file.0).unwrap();
    assert_eq!(read, wal);
    let (frames, tail) = decode_frames(&read);
    assert_eq!(tail, TailStatus::Clean);
    assert_eq!(frames, decode_frames(&wal).0);
    assert_eq!(recovered(&read), recovered(&wal));
}

#[test]
fn half_a_run_before_the_zeros_reads_as_truncated() {
    let wal = log(6);
    let (frames, _) = decode_frames(&wal);
    let run = frames[3].offset;
    let cut = run + (wal.len() - run) / 2;
    let torn = frames
        .iter()
        .find(|f| f.offset + HEADER_LEN + f.payload.len() > cut)
        .unwrap();
    assert!(torn.offset < cut, "the cut falls inside a frame");
    let file = Wal::new("torn");
    std::fs::write(&file.0, [&wal[..cut], &[0; 5_000]].concat()).unwrap();
    let read = FileSink::read(&file.0).unwrap();
    let (kept, tail) = decode_frames(&read);
    assert_eq!(
        tail,
        TailStatus::Truncated {
            offset: torn.offset
        }
    );
    assert_eq!(kept, decode_frames(&wal[..torn.offset]).0);
    assert_eq!(recovered(&read), recovered(&wal[..torn.offset]));
}

#[test]
fn a_zero_header_before_a_later_sector_reads_as_corrupt() {
    // The sector holding frame 4's header never landed; a later one did.
    let wal = log(6);
    let (frames, _) = decode_frames(&wal);
    let lost = frames[4].offset;
    let later = &wal[lost + 512..lost + 1_024];
    assert!(later.iter().any(|&b| b != 0));
    let file = Wal::new("corrupt");
    let image = [&wal[..lost], &[0; 512], later, &[0; 5_000]].concat();
    std::fs::write(&file.0, image).unwrap();
    let read = FileSink::read(&file.0).unwrap();
    let (kept, tail) = decode_frames(&read);
    assert_eq!(tail, TailStatus::Corrupt { offset: lost });
    assert_eq!(kept, frames[..4]);
    assert_eq!(recovered(&read), recovered(&wal[..lost]));
}

#[test]
fn a_reset_into_a_longer_spare_leaves_the_new_image_and_zeros_only() {
    let (long, old, new) = (log(40), log(1), log(2));
    let file = Wal::new("reset");
    let mut sink = FileSink::create(&file.0).unwrap();
    sink.append(&long);
    sink.reset(&old);
    // The spare now holds `long`; this reset writes over it.
    sink.reset(&new);
    let raw = std::fs::read(&file.0).unwrap();
    assert!(raw.len() >= long.len(), "the file kept the blocks it owned");
    assert_eq!(raw[..new.len()], new[..]);
    assert!(
        raw[new.len()..].iter().all(|&b| b == 0),
        "no byte of a retired log is readable at the path"
    );
    assert_eq!(FileSink::read(&file.0).unwrap(), new);
    // The log the reset replaced is whole under the other name: the
    // exchange, not a rewrite, moved it.
    assert_eq!(FileSink::read(file.spare()).unwrap(), old);
}

#[test]
fn create_over_a_stale_spare_compacts_and_recovers_to_the_image() {
    let file = Wal::new("stale");
    std::fs::write(file.spare(), log(40)).unwrap();
    let mut gateway = JournaledGateway::with_sink(
        gateway(),
        JournalConfig {
            snapshot_every: 3,
            compact_on_snapshot: true,
        },
        Box::new(FileSink::create(&file.0).unwrap()),
    );
    submit(&mut gateway, 10);
    assert!(
        gateway.journal().snapshots_appended() >= 3,
        "two compactions"
    );
    let image = gateway.journal().bytes();
    let raw = std::fs::read(&file.0).unwrap();
    assert_eq!(raw[..image.len()], image[..]);
    assert!(raw[image.len()..].iter().all(|&b| b == 0));
    let read = FileSink::read(&file.0).unwrap();
    assert_eq!(read, image);
    assert_eq!(recovered(&read), gateway.inner().capture().normalized());
}

#[test]
fn open_preserving_appends_over_the_zero_tail() {
    let wal = log(6);
    let (frames, _) = decode_frames(&wal);
    let split = frames[5].offset;
    let file = Wal::new("preserve");
    std::fs::write(&file.0, [&wal[..split], &[0; 5_000]].concat()).unwrap();
    let mut sink = FileSink::open_preserving(&file.0).unwrap();
    sink.append(&wal[split..]);
    drop(sink);
    let raw = std::fs::read(&file.0).unwrap();
    assert_eq!(raw.len(), split + 5_000, "written over the zeros");
    let read = FileSink::read(&file.0).unwrap();
    assert_eq!(read, wal);
    let (read_frames, tail) = decode_frames(&read);
    assert_eq!(tail, TailStatus::Clean);
    assert_eq!(read_frames, frames);
    assert_eq!(recovered(&read), recovered(&wal));
}
