//! Property-based tests of the wire codec: round-trips for arbitrary
//! messages, arbitrary fragmentation, and no panics on arbitrary garbage.

use bytes::{Buf, Bytes};
use hyparview_core::{Message, Priority};
use hyparview_net::wire::{
    decode, encode, Frame, FrameReader, WireError, MAX_FRAME_LEN, MAX_PAYLOAD_LEN,
};
use proptest::prelude::*;
use std::net::SocketAddr;

fn arb_addr() -> impl Strategy<Value = SocketAddr> {
    prop_oneof![
        (any::<[u8; 4]>(), any::<u16>())
            .prop_map(|(ip, port)| { SocketAddr::new(std::net::IpAddr::V4(ip.into()), port) }),
        (any::<[u8; 16]>(), any::<u16>())
            .prop_map(|(ip, port)| { SocketAddr::new(std::net::IpAddr::V6(ip.into()), port) }),
    ]
}

fn arb_membership() -> impl Strategy<Value = Message<SocketAddr>> {
    prop_oneof![
        Just(Message::Join),
        (arb_addr(), any::<u8>())
            .prop_map(|(new_node, ttl)| Message::ForwardJoin { new_node, ttl }),
        Just(Message::ForwardJoinReply),
        prop_oneof![Just(Priority::High), Just(Priority::Low)]
            .prop_map(|priority| Message::Neighbor { priority }),
        any::<bool>().prop_map(|accepted| Message::NeighborReply { accepted }),
        Just(Message::Disconnect),
        (arb_addr(), any::<u8>(), proptest::collection::vec(arb_addr(), 0..40))
            .prop_map(|(origin, ttl, nodes)| Message::Shuffle { origin, ttl, nodes }),
        proptest::collection::vec(arb_addr(), 0..40)
            .prop_map(|nodes| Message::ShuffleReply { nodes }),
    ]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        arb_addr().prop_map(|sender| Frame::Hello { sender }),
        arb_membership().prop_map(Frame::Membership),
        (any::<u128>(), any::<u32>(), proptest::collection::vec(any::<u8>(), 0..512)).prop_map(
            |(id, hops, payload)| Frame::Gossip { id, hops, payload: Bytes::from(payload) }
        ),
        (any::<u128>(), any::<u32>(), proptest::collection::vec(any::<u8>(), 0..512)).prop_map(
            |(id, round, payload)| Frame::PlumtreeGossip {
                id,
                round,
                payload: Bytes::from(payload)
            }
        ),
        (any::<u128>(), any::<u32>()).prop_map(|(id, round)| Frame::PlumtreeIHave { id, round }),
        proptest::collection::vec((any::<u128>(), any::<u32>()), 1..64)
            .prop_map(|anns| Frame::PlumtreeIHaveBatch { anns }),
        (proptest::option::of(any::<u128>()), any::<u32>())
            .prop_map(|(id, round)| Frame::PlumtreeGraft { id, round }),
        Just(Frame::PlumtreePrune),
    ]
}

/// Deterministic `Hello` round-trip over both address families: the first
/// frame on every connection must survive encode → decode bit-exactly, and
/// its byte layout (length prefix, tag 0, family byte) must stay stable.
#[test]
fn hello_round_trip_both_families() {
    for text in ["127.0.0.1:4000", "0.0.0.0:0", "[::1]:9000", "[2001:db8::7]:65535"] {
        let sender: SocketAddr = text.parse().unwrap();
        let frame = Frame::Hello { sender };
        let mut encoded = encode(&frame);
        let len = encoded.get_u32() as usize;
        assert_eq!(len, encoded.remaining(), "length prefix covers exactly the payload");
        assert_eq!(encoded[0], 0, "Hello carries tag 0");
        assert_eq!(
            encoded[1],
            if sender.is_ipv4() { 4 } else { 6 },
            "family byte matches the address"
        );
        assert_eq!(decode(encoded).unwrap(), frame, "round-trips for {text}");
    }
}

/// Deterministic worst-case splits: every cut point of a frame — including
/// each position *inside* the 4-byte length prefix and the tag byte — must
/// leave the reader waiting, and the remainder must complete the identical
/// frame with nothing left buffered.
#[test]
fn mid_header_splits_resume_to_the_same_frame() {
    let frames = [
        Frame::Hello { sender: "127.0.0.1:4000".parse().unwrap() },
        Frame::Membership(Message::Join),
        Frame::Gossip { id: 42, hops: 7, payload: Bytes::from_static(b"split me") },
        Frame::PlumtreeIHaveBatch { anns: vec![(1, 2), (3, 4)] },
    ];
    for frame in &frames {
        let bytes = encode(frame);
        for split in 1..bytes.len() {
            let mut reader = FrameReader::new();
            reader.extend(&bytes[..split]);
            assert_eq!(
                reader.next_frame().unwrap(),
                None,
                "partial bytes (cut at {split}) must not yield a frame"
            );
            reader.extend(&bytes[split..]);
            assert_eq!(
                reader.next_frame().unwrap().as_ref(),
                Some(frame),
                "resumed decode differs (cut at {split})"
            );
            assert_eq!(reader.buffered(), 0);
        }
    }
}

/// Feeds `stream` to `reader` in `chunk`-byte reads, as the reactor does.
fn read_all(reader: &mut FrameReader, stream: &[u8], chunk: usize) -> Vec<Frame> {
    let mut frames = Vec::new();
    for slice in stream.chunks(chunk) {
        reader.extend(slice);
        while let Some(frame) = reader.next_frame().unwrap() {
            frames.push(frame);
        }
    }
    frames
}

/// The size limit is exact: a body of `MAX_FRAME_LEN` bytes (the largest
/// payload a broadcast may carry) goes through, one byte more is refused
/// as soon as its length prefix has arrived.
#[test]
fn largest_frame_is_accepted_and_one_byte_more_refused() {
    let payload = Bytes::from(vec![0xAB; MAX_PAYLOAD_LEN]);
    let frame = Frame::PlumtreeGossip { id: 1, round: 2, payload };
    let encoded = encode(&frame);
    assert_eq!(encoded.len(), 4 + MAX_FRAME_LEN);
    let mut reader = FrameReader::new();
    assert_eq!(read_all(&mut reader, &encoded, 16 * 1024), [frame]);
    assert_eq!(reader.buffered(), 0);

    let payload = Bytes::from(vec![0xAB; MAX_PAYLOAD_LEN + 1]);
    let encoded = encode(&Frame::Gossip { id: 1, hops: 2, payload });
    let mut reader = FrameReader::new();
    reader.extend(&encoded[..4]);
    assert_eq!(reader.next_frame(), Err(WireError::FrameTooLarge { len: MAX_FRAME_LEN + 1 }));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Payloads of any size up to the limit, arriving in the reactor's
    /// 16 KiB reads; then the same stream again through the same reader,
    /// which by then has drained and must behave like a new one.
    #[test]
    fn large_payloads_survive_reads_and_a_drained_reader_is_as_new(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..=MAX_PAYLOAD_LEN),
            1..4,
        ),
    ) {
        let frames: Vec<Frame> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| Frame::Gossip {
                id: i as u128,
                hops: 1,
                payload: Bytes::from(payload),
            })
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode(f));
        }
        let mut reader = FrameReader::new();
        prop_assert_eq!(&read_all(&mut reader, &stream, 16 * 1024), &frames);
        prop_assert_eq!(reader.buffered(), 0);
        prop_assert_eq!(&read_all(&mut reader, &stream, 16 * 1024), &frames);
        prop_assert_eq!(reader.buffered(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Dribbling a frame stream into the reader in fixed 1..k byte slices
    /// yields exactly the frames the one-shot `decode` path produces for
    /// the same bytes — fragmentation can reorder nothing, lose nothing,
    /// invent nothing.
    #[test]
    fn fragmented_decode_matches_one_shot(
        frames in proptest::collection::vec(arb_frame(), 1..8),
        k in 1usize..16,
    ) {
        let one_shot: Vec<Frame> = frames
            .iter()
            .map(|f| {
                let mut encoded = encode(f);
                let _ = encoded.get_u32(); // strip the length prefix
                decode(encoded).unwrap()
            })
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode(f));
        }
        let mut reader = FrameReader::new();
        let mut dribbled = Vec::new();
        for chunk in stream.chunks(k) {
            reader.extend(chunk);
            while let Some(frame) = reader.next_frame().unwrap() {
                dribbled.push(frame);
            }
        }
        prop_assert_eq!(dribbled, one_shot);
        prop_assert_eq!(reader.buffered(), 0);
    }

    /// encode → decode is the identity for every frame.
    #[test]
    fn round_trip(frame in arb_frame()) {
        let mut encoded = encode(&frame);
        let len = encoded.get_u32() as usize;
        prop_assert_eq!(len, encoded.remaining());
        let decoded = decode(encoded).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// The frame reader reassembles any fragmentation of any frame stream.
    #[test]
    fn reader_handles_arbitrary_fragmentation(
        frames in proptest::collection::vec(arb_frame(), 1..10),
        chunk_sizes in proptest::collection::vec(1usize..64, 1..64),
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode(f));
        }
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        let mut offset = 0;
        let mut chunk_iter = chunk_sizes.iter().cycle();
        while offset < stream.len() {
            let chunk = (*chunk_iter.next().unwrap()).min(stream.len() - offset);
            reader.extend(&stream[offset..offset + chunk]);
            offset += chunk;
            while let Some(frame) = reader.next_frame().unwrap() {
                decoded.push(frame);
            }
        }
        prop_assert_eq!(decoded, frames);
        prop_assert_eq!(reader.buffered(), 0);
    }

    /// Arbitrary garbage never panics the decoder — it errors or parses.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(Bytes::from(bytes));
    }

    /// Arbitrary garbage fed through the frame reader never panics either;
    /// it may produce frames, an error, or wait for more bytes.
    #[test]
    fn reader_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut reader = FrameReader::new();
        reader.extend(&bytes);
        for _ in 0..16 {
            match reader.next_frame() {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// A truncated valid frame never decodes successfully to a *different*
    /// frame — it must report an error or wait for more input.
    #[test]
    fn truncation_is_detected(frame in arb_frame(), cut in 1usize..32) {
        let encoded = encode(&frame);
        if encoded.len() <= 4 {
            return Ok(());
        }
        let cut = cut.min(encoded.len() - 4 - 1).max(1);
        let truncated = &encoded[..encoded.len() - cut];
        let mut reader = FrameReader::new();
        reader.extend(truncated);
        match reader.next_frame() {
            Ok(None) => {}                      // waiting for the rest: correct
            Err(_) => {}                        // detected corruption: correct
            Ok(Some(decoded)) => prop_assert_eq!(decoded, frame, "decoded a different frame from a truncation"),
        }
    }
}
