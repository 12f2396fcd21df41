//! Memory one connection's [`FrameReader`] holds on to between reads.
//!
//! The live stack keeps one reader per connection, eight per node at the
//! paper's view sizes, so whatever an idle reader retains is multiplied by
//! sixteen thousand on the 2,000-node workload. The history of that cost:
//! a reader that compacted only past a threshold kept 8 KiB of already
//! decoded frames per connection, half of `live_flood_small`'s 96 MB; the
//! plain `Vec` + cursor after it kept each connection's largest unread
//! burst, some 11 MB of the next 48 MB. Frames now decode where a read put
//! them, and a reader keeps bytes only for a frame a read cut in two,
//! reserved for exactly that frame: an idle reader holds nothing.
//!
//! Each case runs the reactor's path (`next_frame_from` over a borrowed
//! read) and the owned one (`extend` + `next_frame`), which must hold the
//! same once a read is used up.

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

/// Feeds one read to both readers and returns how many frames it
/// completed, checking that both paths decode the same frames.
fn read(borrowed: &mut FrameReader, owned: &mut FrameReader, bytes: &[u8]) -> u128 {
    let mut input = bytes;
    let mut frames = Vec::new();
    while let Some(frame) = borrowed.next_frame_from(&mut input).expect("own encoding decodes") {
        assert!(matches!(frame, Frame::Gossip { .. }));
        frames.push(frame);
    }
    assert!(input.is_empty(), "Ok(None) only once the read is used up");
    owned.extend(bytes);
    for frame in &frames {
        assert_eq!(owned.next_frame().expect("own encoding decodes").as_ref(), Some(frame));
    }
    assert_eq!(owned.next_frame(), Ok(None));
    for reader in [&*borrowed, &*owned] {
        assert_eq!(reader.buffered(), borrowed.buffered());
        assert_eq!(reader.capacity(), borrowed.capacity());
    }
    frames.len() as u128
}

#[test]
fn reader_with_no_cut_frame_holds_nothing() {
    // `live_flood_small`'s traffic: 100-byte frames, one to five per read.
    let (mut borrowed, mut owned) = (FrameReader::new(), FrameReader::new());
    let (mut fed, mut bursts, mut sent, mut received) = (0, 0, 0u128, 0u128);
    let mut burst = Vec::new();
    while fed < 1 << 20 {
        burst.clear();
        for _ in 0..=bursts % 5 {
            burst.extend_from_slice(&gossip(sent, 100));
            sent += 1;
        }
        received += read(&mut borrowed, &mut owned, &burst);
        fed += burst.len();
        bursts += 1;
        assert_eq!(borrowed.buffered(), 0);
        assert_eq!(borrowed.capacity(), 0, "an idle reader holds no buffer");
    }
    assert_eq!(received, sent);
}

#[test]
fn a_cut_frame_is_held_at_exactly_its_size() {
    // `live_plumtree_large`'s traffic: 8 KiB payloads arriving in the
    // reactor's 16 KiB reads, so most reads end inside a frame.
    const READ: usize = 16 * 1024;
    const FRAME: usize = 8 * 1024 + GOSSIP_OVERHEAD;
    let stream: Vec<u8> = (0..64).flat_map(|id| gossip(id, FRAME).to_vec()).collect();
    let (mut borrowed, mut owned) = (FrameReader::new(), FrameReader::new());
    let (mut received, mut offset) = (0, 0);
    for slice in stream.chunks(READ) {
        received += read(&mut borrowed, &mut owned, slice);
        offset += slice.len();
        let cut = offset % FRAME;
        assert_eq!(borrowed.buffered(), cut, "only the cut frame's bytes stay");
        let held = if cut >= 4 { FRAME - 4 } else { 0 };
        assert_eq!(borrowed.capacity(), held, "the stash is the cut frame's body, {cut} B in");
    }
    assert_eq!(received, 64);
    assert_eq!(borrowed.buffered(), 0);
    assert_eq!(borrowed.capacity(), 0);
}
