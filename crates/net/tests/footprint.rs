//! Memory one connection's [`FrameReader`] holds on to between bursts.
//!
//! The live stack keeps one reader per connection, eight per node at the
//! paper's view sizes, so whatever an idle reader retains is multiplied by
//! sixteen thousand on the 2,000-node workload. A reader that compacts only
//! past a threshold (the layout before the plain `Vec` + cursor: 8 KiB of
//! already decoded frames per connection, half of `live_flood_small`'s
//! 96 MB) must not come back unnoticed.

use bytes::Bytes;
use hyparview_net::wire::{encode, Frame, FrameReader};

/// Bytes in front of a gossip payload on the wire: length prefix, tag, id,
/// hops, payload length.
const GOSSIP_OVERHEAD: usize = 4 + 1 + 16 + 4 + 4;

fn gossip(id: u128, wire_len: usize) -> Bytes {
    let payload = Bytes::from(vec![id as u8; wire_len - GOSSIP_OVERHEAD]);
    let encoded = encode(&Frame::Gossip { id, hops: 3, payload });
    assert_eq!(encoded.len(), wire_len);
    encoded
}

fn drain(reader: &mut FrameReader) -> u128 {
    let mut frames = 0;
    while let Some(frame) = reader.next_frame().expect("own encoding decodes") {
        assert!(matches!(frame, Frame::Gossip { .. }));
        frames += 1;
    }
    frames
}

#[test]
fn idle_reader_keeps_its_largest_burst_not_its_history() {
    // `live_flood_small`'s traffic: 100-byte frames, a few per read.
    let mut reader = FrameReader::new();
    let (mut fed, mut bursts, mut sent, mut received) = (0, 0, 0u128, 0u128);
    let mut burst = Vec::new();
    while fed < 1 << 20 {
        burst.clear();
        for _ in 0..=bursts % 5 {
            burst.extend_from_slice(&gossip(sent, 100));
            sent += 1;
        }
        reader.extend(&burst);
        fed += burst.len();
        bursts += 1;
        received += drain(&mut reader);
        assert_eq!(reader.buffered(), 0);
    }
    assert_eq!(received, sent);
    assert!(
        reader.capacity() <= 2048,
        "an idle reader holds {} B after bursts of at most 500 B",
        reader.capacity()
    );
}

#[test]
fn reader_holds_at_most_one_read_plus_one_frame() {
    // `live_plumtree_large`'s traffic: 8 KiB payloads arriving in the
    // reactor's 16 KiB reads, so most reads end inside a frame.
    const READ: usize = 16 * 1024;
    const FRAME: usize = 8 * 1024 + GOSSIP_OVERHEAD;
    let stream: Vec<u8> = (0..64).flat_map(|id| gossip(id, FRAME).to_vec()).collect();
    let mut reader = FrameReader::new();
    let mut received = 0;
    for slice in stream.chunks(READ) {
        reader.extend(slice);
        received += drain(&mut reader);
        assert!(reader.buffered() < FRAME, "only a partial frame stays unread");
    }
    assert_eq!(received, 64);
    assert_eq!(reader.buffered(), 0);
    assert!(
        reader.capacity() <= READ + FRAME,
        "the reader holds {} B; one read plus one frame is {} B",
        reader.capacity(),
        READ + FRAME
    );
}
