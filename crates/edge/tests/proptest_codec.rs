//! Property-based hardening of the edge wire protocol.
//!
//! Mirrors the journal's torn-tail technique (`crates/journal`'s
//! proptests), adapted to a live stream:
//!
//! * **Roundtrip** — arbitrary protocol messages encode → frame → decode
//!   back to themselves under arbitrary stream chunkings.
//! * **Truncation** — a stream cut at any byte yields exactly the frames
//!   that closed before the cut, never an error (the rest is simply "not
//!   arrived yet"); pushing the remainder completes the stream.
//! * **Corruption** — flipping any single byte of a frame either surfaces
//!   a fatal `WireError` or (when the flip lands in an unread length
//!   prefix making the frame "longer") stalls waiting for bytes that
//!   never checksum — but *never* yields a wrong frame.
//! * **Oversize** — any declared payload length beyond the cap is refused
//!   before allocation.

use proptest::prelude::*;

use rtdls_core::prelude::{QosClass, SimTime, SubmitRequest, Task, TenantId};
use rtdls_edge::codec::{Direction, FrameDecoder, DEFAULT_MAX_FRAME, HEADER_LEN, MAGIC};
use rtdls_edge::proto::{
    decode_client, decode_server, encode_client, encode_server, ClientMsg, ServerMsg,
    PROTOCOL_VERSION,
};
use rtdls_journal::wire::encode_frame;
use rtdls_service::prelude::{DecisionUpdate, Verdict};

fn arb_request() -> impl Strategy<Value = SubmitRequest> {
    (
        (0u64..1_000_000, 0.0f64..1e6, 1.0f64..5e3, 1.0f64..1e6),
        (0u32..64, 0usize..3, 0.0f64..1e5, 0usize..2),
    )
        .prop_map(
            |((id, arrival, size, deadline), (tenant, qos, delay, has_delay))| {
                let qos = [QosClass::Premium, QosClass::Standard, QosClass::BestEffort][qos];
                SubmitRequest::new(Task::new(id, arrival, size, deadline))
                    .with_tenant(TenantId(tenant))
                    .with_qos(qos)
                    .with_max_delay((has_delay == 1).then_some(delay))
            },
        )
}

fn arb_client_msg() -> impl Strategy<Value = ClientMsg> {
    (0usize..3, 0u64..1_000_000, arb_request()).prop_map(|(which, seq, request)| match which {
        0 => ClientMsg::Hello {
            protocol: PROTOCOL_VERSION,
            // Bound or not, from the request's tenant and the seq's parity.
            tenant: (seq % 2 == 1).then_some(request.tenant),
        },
        1 => ClientMsg::Submit { seq, request },
        _ => ClientMsg::Bye,
    })
}

fn arb_verdict() -> impl Strategy<Value = Verdict> {
    (0usize..5, 0.0f64..1e6, 0u64..1_000_000).prop_map(|(which, t, ticket)| match which {
        0 => Verdict::Accepted,
        1 => Verdict::Reserved {
            start_at: SimTime::new(t),
            ticket,
        },
        2 => Verdict::deferred(ticket),
        3 => Verdict::rejected(rtdls_core::prelude::Infeasible::NotEnoughNodes),
        _ => Verdict::Throttled,
    })
}

fn arb_server_msg() -> impl Strategy<Value = ServerMsg> {
    (
        0usize..4,
        0u64..1_000_000,
        0u64..1_000_000,
        arb_verdict(),
        0.0f64..1e6,
        0usize..2,
    )
        .prop_map(|(which, seq, task, verdict, at, admitted)| match which {
            0 => ServerMsg::Hello {
                protocol: PROTOCOL_VERSION,
            },
            1 => ServerMsg::Verdict { seq, task, verdict },
            2 => ServerMsg::Update {
                update: DecisionUpdate::Activated {
                    ticket: seq,
                    task,
                    at: SimTime::new(at),
                    admitted: admitted == 1,
                },
            },
            _ => ServerMsg::Error {
                seq: (admitted == 1).then_some(seq),
                message: "over quota".to_string(),
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn client_messages_roundtrip_under_arbitrary_chunking(
        msgs in prop::collection::vec(arb_client_msg(), 1..8),
        chunk in 1usize..64,
    ) {
        let stream: Vec<u8> = msgs.iter().map(encode_client).collect::<Vec<_>>().concat();
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut out = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            while let Some((direction, payload)) = dec.next_frame_ref().expect("clean stream") {
                prop_assert_eq!(direction, Direction::FromClient);
                out.push(decode_client(payload).expect("decodable"));
            }
        }
        prop_assert_eq!(out, msgs);
    }

    #[test]
    fn server_messages_roundtrip_under_arbitrary_chunking(
        msgs in prop::collection::vec(arb_server_msg(), 1..8),
        chunk in 1usize..64,
    ) {
        let stream: Vec<u8> = msgs.iter().map(encode_server).collect::<Vec<_>>().concat();
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut out = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            while let Some((direction, payload)) = dec.next_frame_ref().expect("clean stream") {
                prop_assert_eq!(direction, Direction::FromServer);
                out.push(decode_server(payload).expect("decodable"));
            }
        }
        prop_assert_eq!(out, msgs);
    }

    #[test]
    fn truncation_never_errors_and_the_remainder_completes(
        msgs in prop::collection::vec(arb_client_msg(), 1..6),
        cut_frac in 0.0f64..1.0,
    ) {
        let stream: Vec<u8> = msgs.iter().map(encode_client).collect::<Vec<_>>().concat();
        let cut = ((stream.len() as f64) * cut_frac) as usize;
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.push(&stream[..cut]);
        let mut seen = 0usize;
        while let Some((_, payload)) = dec.next_frame_ref().expect("a truncated clean stream is just incomplete") {
            // Every frame that closed before the cut is intact.
            prop_assert_eq!(decode_client(payload).expect("intact"), msgs[seen]);
            seen += 1;
        }
        // The tail arrives: the stream completes exactly.
        dec.push(&stream[cut..]);
        while let Some((_, payload)) = dec.next_frame_ref().expect("completed stream") {
            prop_assert_eq!(decode_client(payload).expect("intact"), msgs[seen]);
            seen += 1;
        }
        prop_assert_eq!(seen, msgs.len());
    }

    #[test]
    fn single_byte_corruption_never_yields_a_wrong_frame(
        msgs in prop::collection::vec(arb_client_msg(), 1..4),
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let stream: Vec<u8> = msgs.iter().map(encode_client).collect::<Vec<_>>().concat();
        let flip_at = (((stream.len() - 1) as f64) * flip_frac) as usize;
        let mut bad = stream.clone();
        bad[flip_at] ^= 1u8 << bit;
        prop_assume!(bad != stream);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.push(&bad);
        let mut decoded = Vec::new();
        let outcome = loop {
            match dec.next_frame_ref() {
                Ok(Some((_, payload))) => decoded.push(payload.to_vec()),
                Ok(None) => break Ok(()),       // stalled waiting (length grew)
                Err(e) => break Err(e),         // violation detected
            }
        };
        // Whatever the outcome, every frame that DID decode is one of the
        // originals, byte-identical, in order — corruption can only cost
        // frames, never forge one.
        let originals: Vec<Vec<u8>> = msgs
            .iter()
            .map(|m| encode_client(m)[HEADER_LEN..].to_vec())
            .collect();
        prop_assert!(decoded.len() <= originals.len());
        for (got, want) in decoded.iter().zip(&originals) {
            prop_assert_eq!(got, want);
        }
        // And a flip in a decoded-frame region must have been detected.
        if outcome.is_ok() && decoded.len() == originals.len() {
            prop_assert!(false, "all frames decoded despite a corrupt byte");
        }
    }

    #[test]
    fn hostile_length_announcements_never_drive_allocation(
        announced in prop::collection::vec(1u32..u32::MAX, 1..8),
        chunk in 1usize..128,
    ) {
        // A well-formed header is attacker-forgeable: correct magic,
        // version, and direction, an arbitrary length claim, garbage
        // checksum — followed by a trickle of real bytes that never
        // completes the frame. The decoder must size its buffer by what
        // *arrived* (bounded by the cap), never by what was *announced*:
        // reserving from the length field before the cap check would let
        // a 16-byte header allocate 4 GiB.
        let cap = 4096usize;
        let mut stream = Vec::new();
        for len in &announced {
            stream.extend_from_slice(b"RE");
            stream.push(1); // version
            stream.push(1); // direction: from-client
            stream.extend_from_slice(&len.to_le_bytes());
            stream.extend_from_slice(&[0u8; 8]); // checksum (never reached)
            stream.extend_from_slice(&[0xAB; 32]); // a trickle of "payload"
        }
        let mut dec = FrameDecoder::new(cap);
        let mut peak = dec.capacity();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            // Drain (or trip) the decoder as the server would; errors
            // poison it, which is fine — growth must stay bounded either way.
            while let Ok(Some(_)) = dec.next_frame_ref() {}
            peak = peak.max(dec.capacity());
        }
        // Bytes actually retained are bounded by one capped frame plus a
        // read chunk; doubling growth at most doubles that. The announced
        // lengths (up to 4 GiB) must leave no trace in the allocation.
        let bound = 2 * (cap + HEADER_LEN) + 2 * 128 + 4096;
        prop_assert!(
            peak <= bound,
            "peak capacity {peak} exceeds {bound} for announcements {announced:?}"
        );
    }

    #[test]
    fn oversized_frames_are_rejected_for_any_cap(
        cap in 16usize..4096,
        over in 1usize..1024,
    ) {
        let mut dec = FrameDecoder::new(cap);
        let payload = vec![b'x'; cap + over];
        dec.push(&encode_frame(MAGIC, Direction::FromClient as u8, &payload));
        prop_assert!(matches!(
            dec.next_frame_ref(),
            Err(rtdls_edge::codec::WireError::Oversized { len, max, .. })
                if len == cap + over && max == cap
        ));
    }
}
