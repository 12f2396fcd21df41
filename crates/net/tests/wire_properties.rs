//! Property-based tests of the wire codec: round-trips for arbitrary
//! messages, arbitrary fragmentation, no panics on arbitrary garbage, and
//! hostile streams cut at random read boundaries.

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

/// One structure-aware corruption of a well-formed frame stream. `at`
/// picks a frame modulo the frame count.
#[derive(Debug, Clone)]
enum Mutation {
    Intact,
    /// The stream ends after `keep` bytes (modulo its length + 1): EOF
    /// anywhere, mid-frame included.
    Truncate {
        keep: usize,
    },
    /// Frame `at` declares a body above `MAX_FRAME_LEN`.
    OversizedPrefix {
        at: usize,
        len: u32,
    },
    /// Frame `at` carries a tag no frame has.
    WrongTag {
        at: usize,
        tag: u8,
    },
    /// Inserted before frame `at`: a `Shuffle` (`ShuffleReply` when
    /// `reply`) declaring `count` addresses and carrying `carried`.
    HugeAddrList {
        at: usize,
        reply: bool,
        count: u16,
        carried: usize,
    },
    /// Inserted before frame `at`: an `IHaveBatch` declaring `count`
    /// announcements and carrying `carried`.
    HugeIHaveBatch {
        at: usize,
        count: u16,
        carried: usize,
    },
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        Just(Mutation::Intact),
        any::<usize>().prop_map(|keep| Mutation::Truncate { keep }),
        (any::<usize>(), (MAX_FRAME_LEN as u32 + 1)..=u32::MAX)
            .prop_map(|(at, len)| Mutation::OversizedPrefix { at, len }),
        (any::<usize>(), 15u8..=255).prop_map(|(at, tag)| Mutation::WrongTag { at, tag }),
        (any::<usize>(), any::<bool>(), 64u16..=u16::MAX, 0usize..8).prop_map(
            |(at, reply, count, carried)| Mutation::HugeAddrList { at, reply, count, carried }
        ),
        (any::<usize>(), 64u16..=u16::MAX, 0usize..8)
            .prop_map(|(at, count, carried)| Mutation::HugeIHaveBatch { at, count, carried }),
    ]
}

/// `frames` encoded back to back, with `mutation` applied.
fn mutate(frames: &[Frame], mutation: &Mutation) -> Vec<u8> {
    fn prefixed(body: Vec<u8>) -> Vec<u8> {
        [(body.len() as u32).to_be_bytes().to_vec(), body].concat()
    }
    const V4_ADDR: [u8; 7] = [4, 10, 0, 0, 1, 0x1F, 0x90];
    let mut encoded: Vec<Vec<u8>> = frames.iter().map(|f| encode(f).to_vec()).collect();
    let n = encoded.len();
    match *mutation {
        Mutation::Intact | Mutation::Truncate { .. } => {}
        Mutation::OversizedPrefix { at, len } => {
            encoded[at % n][..4].copy_from_slice(&len.to_be_bytes())
        }
        Mutation::WrongTag { at, tag } => encoded[at % n][4] = tag,
        Mutation::HugeAddrList { at, reply, count, carried } => {
            let mut body = vec![if reply { 8 } else { 7 }];
            if !reply {
                body.extend_from_slice(&V4_ADDR); // origin
                body.push(6); // ttl
            }
            body.extend_from_slice(&count.to_be_bytes());
            body.extend(V4_ADDR.repeat(carried));
            encoded.insert(at % (n + 1), prefixed(body));
        }
        Mutation::HugeIHaveBatch { at, count, carried } => {
            let mut body = vec![14];
            body.extend_from_slice(&count.to_be_bytes());
            body.extend(std::iter::repeat_n(7, carried * (16 + 4)));
            encoded.insert(at % (n + 1), prefixed(body));
        }
    }
    let mut stream = encoded.concat();
    if let Mutation::Truncate { keep } = *mutation {
        stream.truncate(keep % (stream.len() + 1));
    }
    stream
}

/// A whole stream decoded at once: `decode` over each body its length
/// prefixes delimit.
struct OneShot {
    /// The frames before the first error.
    frames: Vec<Frame>,
    /// The first error, and the stream offset from which a reader has the
    /// bytes to see it: the end of an oversized prefix, else the frame's.
    error: Option<(WireError, usize)>,
    /// Where each frame up to the error starts, a trailing partial one
    /// included.
    starts: Vec<usize>,
}

fn one_shot(stream: &[u8]) -> OneShot {
    let mut out = OneShot { frames: Vec::new(), error: None, starts: Vec::new() };
    let mut pos = 0;
    while pos < stream.len() {
        out.starts.push(pos);
        let Some(prefix) = stream.get(pos..pos + 4) else { break };
        let len = u32::from_be_bytes(prefix.try_into().unwrap()) as usize;
        if len > MAX_FRAME_LEN {
            out.error = Some((WireError::FrameTooLarge { len }, pos + 4));
            break;
        }
        let Some(body) = stream.get(pos + 4..pos + 4 + len) else { break };
        pos += 4 + len;
        match decode(Bytes::copy_from_slice(body)) {
            Ok(frame) => out.frames.push(frame),
            Err(error) => {
                out.error = Some((error, pos));
                break;
            }
        }
    }
    out
}

/// What a reader must hold once it has taken in `stream[..offset]` without
/// an error: the bytes of the frame `offset` cuts, and its declared body
/// once its prefix is whole.
fn cut_at(stream: &[u8], starts: &[usize], offset: usize) -> (usize, usize) {
    let Some(&start) = starts.iter().rev().find(|&&s| s <= offset) else { return (0, 0) };
    let arrived = offset - start;
    if arrived < 4 {
        return (arrived, 0);
    }
    let len = u32::from_be_bytes(stream[start..start + 4].try_into().unwrap()) as usize;
    if arrived >= 4 + len {
        (0, 0)
    } else {
        (arrived, len)
    }
}

/// Feeds `stream` in reads of the sizes `reads` cycles through, to the
/// reactor's path (`next_frame_from` over each read) and to the owned one
/// (`extend` + `next_frame`). Nothing may panic; both paths must return the
/// same thing at every step; the frames before the first error, and the
/// error, must be a one-shot decode's; the error must come in the read
/// that completes its evidence, `FrameTooLarge` with nothing reserved; and
/// between reads the reader must hold exactly the frame the read cut, at
/// its declared size, also when the stream ends there (EOF mid-frame).
fn check_hostile_stream(stream: &[u8], reads: &[usize]) {
    let reference = one_shot(stream);
    let (mut borrowed, mut owned) = (FrameReader::new(), FrameReader::new());
    let mut frames = Vec::new();
    let mut reads = reads.iter().cycle();
    let mut offset = 0;
    while offset < stream.len() {
        let start = offset;
        offset = (offset + reads.next().unwrap()).min(stream.len());
        let mut input = &stream[start..offset];
        owned.extend(input);
        let outcome = loop {
            let result = borrowed.next_frame_from(&mut input);
            assert_eq!(
                owned.next_frame(),
                result,
                "the owned path disagrees, read {start}..{offset}"
            );
            match result {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break None,
                Err(error) => break Some(error),
            }
        };
        let Some(error) = outcome else {
            assert!(input.is_empty(), "Ok(None) leaves nothing of the read");
            let (buffered, held) = cut_at(stream, &reference.starts, offset);
            for reader in [&borrowed, &owned] {
                assert_eq!(reader.buffered(), buffered, "after byte {offset}");
                assert_eq!(reader.capacity(), held, "the stash after byte {offset}");
            }
            continue;
        };
        let (expected, seen_at) = reference.error.clone().expect("the one-shot decode fails too");
        assert_eq!(error, expected);
        assert!(
            start < seen_at && seen_at <= offset,
            "{error:?} at {seen_at}, read {start}..{offset}"
        );
        if matches!(error, WireError::FrameTooLarge { .. }) {
            assert_eq!(borrowed.capacity(), 0, "a refused frame reserves nothing");
        }
        assert_eq!(frames, reference.frames);
        return;
    }
    assert_eq!(reference.error, None);
    assert_eq!(frames, reference.frames);
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

    /// A hostile stream, cut at random read boundaries, through the
    /// reactor's path and the owned one: see [`check_hostile_stream`].
    #[test]
    fn hostile_streams_fail_where_a_one_shot_decode_does(
        frames in proptest::collection::vec(arb_frame(), 1..8),
        mutation in arb_mutation(),
        // Tiny reads too, so that prefixes are cut as often as bodies.
        reads in proptest::collection::vec(prop_oneof![1usize..6, 1usize..700], 1..16),
    ) {
        check_hostile_stream(&mutate(&frames, &mutation), &reads);
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
