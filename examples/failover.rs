//! Kill a TCP-replicated primary mid-stream and promote its warm standby.
//!
//! The wall-clock companion to the seeded sim proof in
//! `crates/replica/tests/failover_sim.rs`: a journaled admission gateway
//! ships every WAL frame over a real socket into a [`FollowerServer`]
//! standby while it serves, then dies without ceremony — no flush, no
//! goodbye, the socket just resets. The standby notices the silence,
//! promotes itself under a bumped epoch, and the example verifies the
//! three failover guarantees end to end:
//!
//! 1. **nothing shipped is lost** — the standby's mirror is byte-identical
//!    to the dead primary's WAL;
//! 2. **promotion is recovery** — the promoted gateway's state equals an
//!    independent cold replay + strict re-admission of that mirror;
//! 3. **the zombie is fenced** — late messages still carrying the dead
//!    primary's epoch are provably discarded, state untouched.
//!
//! Run with: `cargo run --release --example failover`

use std::net::TcpStream;
use std::time::Duration;

use rtdls::journal::wire;
use rtdls::prelude::*;
use rtdls::replica::net::write_msg;

/// Genesis-only snapshots: the log is never compacted, so the standby's
/// mirror is the primary's whole history and guarantee 1 compares all of
/// it byte for byte.
fn journal_cfg() -> JournalConfig {
    JournalConfig {
        snapshot_every: 0,
        compact_on_snapshot: false,
    }
}

fn primary() -> JournaledGateway {
    let gateway = ShardedGateway::new(
        ClusterParams::paper_baseline(),
        1,
        AlgorithmKind::EDF_DLT,
        PlanConfig::default(),
        Routing::LeastLoaded,
        DeferPolicy::default(),
    )
    .unwrap();
    JournaledGateway::new(gateway, journal_cfg())
}

fn main() {
    // The warm standby: promotes after 0.3s of wall-clock silence.
    let follower = Follower::new(FollowerConfig { promote_after: 0.3 });
    let mut standby = FollowerServer::bind("127.0.0.1:0", follower).expect("bind standby");
    let addr = standby.local_addr().expect("standby addr");
    println!("standby listening on {addr}");
    let standby_thread = std::thread::spawn(move || {
        let processed = standby
            .serve_connection(Duration::from_millis(400))
            .expect("standby serves");
        (standby, processed)
    });

    // The primary: a journaled gateway shipping as it admits, its outbox
    // carried to the standby by hand (an edge does it on its reactor).
    let mut gw = ShippingGateway::new(primary(), ShipConfig::default());
    let mut link = TcpStream::connect(addr).expect("connect standby");
    let mut accepted = 0;
    for i in 0..10u64 {
        let now = SimTime::new(i as f64 * 10.0);
        // One serving turn: `decide` journals the request and decides it;
        // `drive` commits the turn and only then pumps its frames into the
        // outbox for the standby.
        let request = SubmitRequest::new(Task::new(i, now.as_f64(), 20.0, 2_000.0));
        if gw.decide(&request, now).is_accepted() {
            accepted += 1;
        }
        gw.drive(now);
        for msg in gw.take_outbox() {
            write_msg(&mut link, &msg).expect("ship to standby");
        }
    }
    let wal = gw.inner().journal().bytes().to_vec();
    println!(
        "primary admitted {accepted}/10 tasks, WAL {} bytes, shipped offset {}",
        wal.len(),
        gw.shipper().shipped()
    );

    // The crash: drop the primary with no shutdown protocol at all. The
    // kernel resets the socket; the standby drains what was in flight.
    drop((gw, link));
    println!("*** primary killed ***");

    let (mut standby, processed) = standby_thread.join().expect("standby thread");
    assert!(
        processed >= 11,
        "genesis + ten submissions must reach the standby: {processed}"
    );

    // Guarantee 1: the mirror is byte-identical to the dead primary's WAL.
    assert_eq!(
        standby.follower().bytes(),
        &wal[..],
        "mirror equals the primary WAL"
    );
    let mirror = standby.follower().bytes().to_vec();
    println!(
        "mirror intact: {} bytes, {} frames applied",
        mirror.len(),
        processed
    );

    // Wait out the silence budget, exactly as an operator loop would.
    while !standby.follower().should_promote(standby.now()) {
        std::thread::sleep(Duration::from_millis(25));
    }
    let promoted_at = standby.now();
    let (promoted, promotion) = standby
        .follower_mut()
        .promote(promoted_at, journal_cfg(), None)
        .expect("promotion");
    assert_eq!(promotion.epoch, 1, "promotion bumps the epoch");
    assert_eq!(promoted.epoch(), 1);
    println!(
        "promoted at t={:.2}s under epoch {} ({} frames applied, {} demoted)",
        promoted_at.as_f64(),
        promotion.epoch,
        promotion.applied_seq,
        promotion.demoted.len()
    );

    // Guarantee 2: promotion is recovery. An independent cold replay of the
    // mirror plus the same strict re-admission pass must land on the same
    // state and the same demotion set.
    let (reference, report) = replay::<ShardedGateway>(&mirror).expect("mirror replays");
    assert!(
        report.tail.is_clean(),
        "mirror tail is clean: {:?}",
        report.tail
    );
    let (reference, ref_demoted) = requalify(reference, promoted_at, journal_cfg(), None, 1);
    assert_eq!(
        GatewaySnapshot::capture(promoted.inner()),
        GatewaySnapshot::capture(reference.inner()),
        "promoted state equals a cold recovery of the shipped prefix"
    );
    assert_eq!(promotion.demoted, ref_demoted, "same demotion set");
    println!("promoted state equals independent recovery of the mirror");

    // Guarantee 3: the fence. Replay the dead primary's entire stream —
    // every frame still carries epoch 0 — plus a stale heartbeat, straight
    // into the promoted follower. All of it must bounce.
    let before = standby.follower().stats();
    let (frames, _) = rtdls::journal::wire::decode_frames(&mirror);
    let zombie = frames.len() as u64;
    for (seq, frame) in frames.iter().enumerate() {
        let now = standby.now();
        let _ = standby.follower_mut().on_msg(
            now,
            ShipMsg::frame(
                0,
                seq as u64,
                wire::encode_frame(wire::MAGIC, frame.kind as u8, frame.payload),
            ),
        );
    }
    let now = standby.now();
    let _ = standby.follower_mut().on_msg(
        now,
        ShipMsg::Heartbeat {
            epoch: 0,
            head: zombie,
        },
    );
    let after = standby.follower().stats();
    assert_eq!(
        after.fenced - before.fenced,
        zombie + 1,
        "every stale-epoch message is fenced"
    );
    assert_eq!(
        after.applied, before.applied,
        "fenced traffic applies nothing"
    );
    assert_eq!(
        standby.follower().bytes(),
        &mirror[..],
        "the mirror is untouched by zombie traffic"
    );
    println!(
        "zombie fenced: {} stale-epoch messages discarded, state provably unchanged",
        zombie + 1
    );

    println!(
        "\nfailover complete: shipped prefix preserved, promotion matched \
         recovery, epoch fence held"
    );
}
