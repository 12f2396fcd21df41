//! Wire format: length-prefixed binary frames over TCP.
//!
//! Every frame is `u32` big-endian payload length followed by the payload;
//! the first payload byte is a tag. Node identifiers are socket addresses
//! (the `(ip, port)` tuples of §2.1) encoded as family tag + octets + port.
//!
//! The codec is hand-rolled on [`bytes`] — no serialization framework — so
//! the format is stable, inspectable and fuzzable.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use hyparview_core::{Message, Priority};
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

/// Maximum accepted frame body (the bytes the length prefix counts). A
/// shuffle with every view entry fits in well under 4 KiB; a broadcast may
/// use the rest, see [`MAX_PAYLOAD_LEN`]. Anything larger is a corrupt or
/// malicious frame and costs the sender its connection.
pub const MAX_FRAME_LEN: usize = 64 * 1024;

/// Body bytes in front of a `Gossip` / `PlumtreeGossip` payload: tag, id,
/// hops or round, payload length.
const GOSSIP_HEADER_LEN: usize = 1 + 16 + 4 + 4;

/// Largest application payload one broadcast can carry: what
/// [`MAX_FRAME_LEN`] leaves after the gossip header. A larger payload would
/// be refused by every receiver's [`FrameReader`].
pub const MAX_PAYLOAD_LEN: usize = MAX_FRAME_LEN - GOSSIP_HEADER_LEN;

/// Errors produced while decoding frames.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// Frame declared a length above [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// Declared length.
        len: usize,
    },
    /// Payload ended before the structure was complete.
    Truncated,
    /// Unknown message tag.
    UnknownTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// Unknown address family byte.
    BadAddressFamily {
        /// The offending family byte.
        family: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::FrameTooLarge { len } => write!(f, "frame length {len} exceeds limit"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::UnknownTag { tag } => write!(f, "unknown message tag {tag}"),
            WireError::BadAddressFamily { family } => {
                write!(f, "unknown address family {family}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded frame: either a HyParView membership message, a gossip
/// broadcast, or the connection-opening `Hello`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// The first frame on every outbound connection: announces the sender's
    /// canonical listen address (inbound `peer_addr` has an ephemeral port
    /// and cannot identify the node).
    Hello {
        /// The sender's listen address — its protocol identity.
        sender: SocketAddr,
    },
    /// A HyParView protocol message.
    Membership(Message<SocketAddr>),
    /// A gossip broadcast payload.
    Gossip {
        /// Globally unique broadcast id.
        id: u128,
        /// Hop count (for diagnostics).
        hops: u32,
        /// Application payload.
        payload: Bytes,
    },
    /// Plumtree eager push: the payload travelling a tree link.
    PlumtreeGossip {
        /// Globally unique broadcast id.
        id: u128,
        /// Hop count at the receiver.
        round: u32,
        /// Application payload.
        payload: Bytes,
    },
    /// Plumtree lazy announcement on a non-tree link.
    PlumtreeIHave {
        /// Announced broadcast id.
        id: u128,
        /// Hop count the payload would have at the receiver.
        round: u32,
    },
    /// Batched Plumtree lazy announcements: every `(id, round)` queued for
    /// this peer since the last flush, in one frame.
    PlumtreeIHaveBatch {
        /// Announcements, oldest first. Never empty on the wire.
        anns: Vec<(u128, u32)>,
    },
    /// Plumtree tree repair or optimization: reinstate the link as eager
    /// and — when `id` is present — (re)send that payload. An absent id is
    /// the payload-free promotion of Plumtree's tree optimization.
    PlumtreeGraft {
        /// Broadcast id being pulled, or `None` for a promotion-only graft.
        id: Option<u128>,
        /// Round echoed from the triggering announcement.
        round: u32,
    },
    /// Plumtree tree maintenance: demote the link to lazy.
    PlumtreePrune,
}

const TAG_HELLO: u8 = 0;
const TAG_JOIN: u8 = 1;
const TAG_FORWARD_JOIN: u8 = 2;
const TAG_FORWARD_JOIN_REPLY: u8 = 3;
const TAG_NEIGHBOR: u8 = 4;
const TAG_NEIGHBOR_REPLY: u8 = 5;
const TAG_DISCONNECT: u8 = 6;
const TAG_SHUFFLE: u8 = 7;
const TAG_SHUFFLE_REPLY: u8 = 8;
const TAG_GOSSIP: u8 = 9;
const TAG_PLUMTREE_GOSSIP: u8 = 10;
const TAG_PLUMTREE_IHAVE: u8 = 11;
const TAG_PLUMTREE_GRAFT: u8 = 12;
const TAG_PLUMTREE_PRUNE: u8 = 13;
const TAG_PLUMTREE_IHAVE_BATCH: u8 = 14;

/// Encoded size of one announcement inside an `IHaveBatch` frame.
const ANNOUNCEMENT_LEN: usize = 16 + 4;

/// Encoded size of the largest address (family byte, IPv6 octets, port).
const MAX_ADDR_LEN: usize = 1 + 16 + 2;

/// Size of the length prefix.
const PREFIX_LEN: usize = 4;

fn put_addr(buf: &mut BytesMut, addr: &SocketAddr) {
    match addr.ip() {
        IpAddr::V4(ip) => {
            buf.put_u8(4);
            buf.put_slice(&ip.octets());
        }
        IpAddr::V6(ip) => {
            buf.put_u8(6);
            buf.put_slice(&ip.octets());
        }
    }
    buf.put_u16(addr.port());
}

fn get_addr(buf: &mut Bytes) -> Result<SocketAddr, WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    let family = buf.get_u8();
    let ip: IpAddr = match family {
        4 => {
            if buf.remaining() < 4 {
                return Err(WireError::Truncated);
            }
            let mut octets = [0u8; 4];
            buf.copy_to_slice(&mut octets);
            IpAddr::V4(Ipv4Addr::from(octets))
        }
        6 => {
            if buf.remaining() < 16 {
                return Err(WireError::Truncated);
            }
            let mut octets = [0u8; 16];
            buf.copy_to_slice(&mut octets);
            IpAddr::V6(Ipv6Addr::from(octets))
        }
        other => return Err(WireError::BadAddressFamily { family: other }),
    };
    if buf.remaining() < 2 {
        return Err(WireError::Truncated);
    }
    Ok(SocketAddr::new(ip, buf.get_u16()))
}

fn put_addr_list(buf: &mut BytesMut, addrs: &[SocketAddr]) {
    buf.put_u16(addrs.len() as u16);
    for addr in addrs {
        put_addr(buf, addr);
    }
}

fn get_addr_list(buf: &mut Bytes) -> Result<Vec<SocketAddr>, WireError> {
    if buf.remaining() < 2 {
        return Err(WireError::Truncated);
    }
    let len = buf.get_u16() as usize;
    let mut addrs = Vec::with_capacity(len.min(1024));
    for _ in 0..len {
        addrs.push(get_addr(buf)?);
    }
    Ok(addrs)
}

/// Upper bound on the encoded size of `frame` with its prefix, exact for the
/// payload-carrying frames, so that [`encode`] allocates its buffer once.
fn encoded_len_bound(frame: &Frame) -> usize {
    let body = match frame {
        Frame::Gossip { payload, .. } | Frame::PlumtreeGossip { payload, .. } => {
            GOSSIP_HEADER_LEN + payload.len()
        }
        Frame::PlumtreeIHaveBatch { anns } => 1 + 2 + anns.len() * ANNOUNCEMENT_LEN,
        Frame::Membership(Message::Shuffle { nodes, .. })
        | Frame::Membership(Message::ShuffleReply { nodes }) => {
            1 + MAX_ADDR_LEN + 1 + 2 + nodes.len() * MAX_ADDR_LEN
        }
        // Hello, the one-address membership messages, IHave, Graft, Prune.
        _ => 1 + MAX_ADDR_LEN + 4,
    };
    PREFIX_LEN + body
}

/// Encodes a frame, including the `u32` length prefix, into one buffer.
///
/// # Panics
///
/// Panics if a [`Frame::PlumtreeIHaveBatch`] carries more than `u16::MAX`
/// announcements (senders chunk far below that).
pub fn encode(frame: &Frame) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len_bound(frame));
    buf.put_u32(0); // the length prefix, patched once the body is written
    match frame {
        Frame::Hello { sender } => {
            buf.put_u8(TAG_HELLO);
            put_addr(&mut buf, sender);
        }
        Frame::Membership(message) => encode_membership(&mut buf, message),
        Frame::Gossip { id, hops, payload } => {
            buf.put_u8(TAG_GOSSIP);
            buf.put_u128(*id);
            buf.put_u32(*hops);
            buf.put_u32(payload.len() as u32);
            buf.put_slice(payload);
        }
        Frame::PlumtreeGossip { id, round, payload } => {
            buf.put_u8(TAG_PLUMTREE_GOSSIP);
            buf.put_u128(*id);
            buf.put_u32(*round);
            buf.put_u32(payload.len() as u32);
            buf.put_slice(payload);
        }
        Frame::PlumtreeIHave { id, round } => {
            buf.put_u8(TAG_PLUMTREE_IHAVE);
            buf.put_u128(*id);
            buf.put_u32(*round);
        }
        Frame::PlumtreeIHaveBatch { anns } => {
            // The count is a u16; a silent truncation here would desync
            // count and payload and drop announcements at the decoder.
            // Senders chunk at hyparview_plumtree::MAX_IHAVE_BATCH (1024),
            // far below this limit.
            assert!(anns.len() <= u16::MAX as usize, "IHaveBatch exceeds the wire count field");
            buf.put_u8(TAG_PLUMTREE_IHAVE_BATCH);
            buf.put_u16(anns.len() as u16);
            for (id, round) in anns {
                buf.put_u128(*id);
                buf.put_u32(*round);
            }
        }
        Frame::PlumtreeGraft { id, round } => {
            buf.put_u8(TAG_PLUMTREE_GRAFT);
            match id {
                Some(id) => {
                    buf.put_u8(1);
                    buf.put_u128(*id);
                }
                None => buf.put_u8(0),
            }
            buf.put_u32(*round);
        }
        Frame::PlumtreePrune => buf.put_u8(TAG_PLUMTREE_PRUNE),
    }
    let body_len = (buf.len() - PREFIX_LEN) as u32;
    buf[..PREFIX_LEN].copy_from_slice(&body_len.to_be_bytes());
    buf.freeze()
}

fn encode_membership(body: &mut BytesMut, message: &Message<SocketAddr>) {
    match message {
        Message::Join => body.put_u8(TAG_JOIN),
        Message::ForwardJoin { new_node, ttl } => {
            body.put_u8(TAG_FORWARD_JOIN);
            put_addr(body, new_node);
            body.put_u8(*ttl);
        }
        Message::ForwardJoinReply => body.put_u8(TAG_FORWARD_JOIN_REPLY),
        Message::Neighbor { priority } => {
            body.put_u8(TAG_NEIGHBOR);
            body.put_u8(match priority {
                Priority::High => 1,
                Priority::Low => 0,
            });
        }
        Message::NeighborReply { accepted } => {
            body.put_u8(TAG_NEIGHBOR_REPLY);
            body.put_u8(u8::from(*accepted));
        }
        Message::Disconnect => body.put_u8(TAG_DISCONNECT),
        Message::Shuffle { origin, ttl, nodes } => {
            body.put_u8(TAG_SHUFFLE);
            put_addr(body, origin);
            body.put_u8(*ttl);
            put_addr_list(body, nodes);
        }
        Message::ShuffleReply { nodes } => {
            body.put_u8(TAG_SHUFFLE_REPLY);
            put_addr_list(body, nodes);
        }
    }
}

/// Decodes one frame payload (without the length prefix).
///
/// # Errors
///
/// Returns [`WireError`] on truncation, unknown tags or bad addresses.
pub fn decode(mut payload: Bytes) -> Result<Frame, WireError> {
    if payload.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    let tag = payload.get_u8();
    let frame = match tag {
        TAG_HELLO => Frame::Hello { sender: get_addr(&mut payload)? },
        TAG_JOIN => Frame::Membership(Message::Join),
        TAG_FORWARD_JOIN => {
            let new_node = get_addr(&mut payload)?;
            if payload.remaining() < 1 {
                return Err(WireError::Truncated);
            }
            Frame::Membership(Message::ForwardJoin { new_node, ttl: payload.get_u8() })
        }
        TAG_FORWARD_JOIN_REPLY => Frame::Membership(Message::ForwardJoinReply),
        TAG_NEIGHBOR => {
            if payload.remaining() < 1 {
                return Err(WireError::Truncated);
            }
            let priority = if payload.get_u8() == 1 { Priority::High } else { Priority::Low };
            Frame::Membership(Message::Neighbor { priority })
        }
        TAG_NEIGHBOR_REPLY => {
            if payload.remaining() < 1 {
                return Err(WireError::Truncated);
            }
            Frame::Membership(Message::NeighborReply { accepted: payload.get_u8() == 1 })
        }
        TAG_DISCONNECT => Frame::Membership(Message::Disconnect),
        TAG_SHUFFLE => {
            let origin = get_addr(&mut payload)?;
            if payload.remaining() < 1 {
                return Err(WireError::Truncated);
            }
            let ttl = payload.get_u8();
            let nodes = get_addr_list(&mut payload)?;
            Frame::Membership(Message::Shuffle { origin, ttl, nodes })
        }
        TAG_SHUFFLE_REPLY => {
            Frame::Membership(Message::ShuffleReply { nodes: get_addr_list(&mut payload)? })
        }
        TAG_GOSSIP => {
            if payload.remaining() < 16 + 4 + 4 {
                return Err(WireError::Truncated);
            }
            let id = payload.get_u128();
            let hops = payload.get_u32();
            let len = payload.get_u32() as usize;
            if payload.remaining() < len {
                return Err(WireError::Truncated);
            }
            Frame::Gossip { id, hops, payload: payload.copy_to_bytes(len) }
        }
        TAG_PLUMTREE_GOSSIP => {
            if payload.remaining() < 16 + 4 + 4 {
                return Err(WireError::Truncated);
            }
            let id = payload.get_u128();
            let round = payload.get_u32();
            let len = payload.get_u32() as usize;
            if payload.remaining() < len {
                return Err(WireError::Truncated);
            }
            Frame::PlumtreeGossip { id, round, payload: payload.copy_to_bytes(len) }
        }
        TAG_PLUMTREE_IHAVE => {
            if payload.remaining() < 16 + 4 {
                return Err(WireError::Truncated);
            }
            let id = payload.get_u128();
            let round = payload.get_u32();
            Frame::PlumtreeIHave { id, round }
        }
        TAG_PLUMTREE_IHAVE_BATCH => {
            if payload.remaining() < 2 {
                return Err(WireError::Truncated);
            }
            let count = payload.get_u16() as usize;
            if payload.remaining() < count * ANNOUNCEMENT_LEN {
                return Err(WireError::Truncated);
            }
            let mut anns = Vec::with_capacity(count);
            for _ in 0..count {
                let id = payload.get_u128();
                let round = payload.get_u32();
                anns.push((id, round));
            }
            Frame::PlumtreeIHaveBatch { anns }
        }
        TAG_PLUMTREE_GRAFT => {
            if payload.remaining() < 1 {
                return Err(WireError::Truncated);
            }
            let id = match payload.get_u8() {
                0 => None,
                _ => {
                    if payload.remaining() < 16 {
                        return Err(WireError::Truncated);
                    }
                    Some(payload.get_u128())
                }
            };
            if payload.remaining() < 4 {
                return Err(WireError::Truncated);
            }
            Frame::PlumtreeGraft { id, round: payload.get_u32() }
        }
        TAG_PLUMTREE_PRUNE => Frame::PlumtreePrune,
        other => return Err(WireError::UnknownTag { tag: other }),
    };
    Ok(frame)
}

/// Incremental frame reader: feed bytes, pull complete frames.
///
/// # Examples
///
/// ```
/// use hyparview_net::wire::{encode, Frame, FrameReader};
///
/// let frame = Frame::Hello { sender: "127.0.0.1:4000".parse().unwrap() };
/// let bytes = encode(&frame);
/// let mut reader = FrameReader::new();
/// reader.extend(&bytes[..3]); // partial delivery
/// assert!(reader.next_frame().unwrap().is_none());
/// reader.extend(&bytes[3..]);
/// assert_eq!(reader.next_frame().unwrap(), Some(frame));
/// ```
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Start of the unread bytes in `buf`; 0 whenever nothing is unread.
    pos: usize,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw bytes received from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            // The tail of a partial frame: move it to the front, so the
            // buffer holds at most one partial frame plus one read.
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        // Exact growth: a connection keeps this buffer for life, and
        // doubling would round every burst's high-water mark up.
        self.buf.reserve_exact(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame, if any.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when the stream is corrupt; the connection
    /// should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let unread = &self.buf[self.pos..];
        let Some((prefix, rest)) = unread.split_first_chunk::<PREFIX_LEN>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge { len });
        }
        let Some(body) = rest.get(..len) else { return Ok(None) };
        let body = Bytes::copy_from_slice(body);
        self.pos += PREFIX_LEN + len;
        if self.pos == self.buf.len() {
            // Drained: start over at the front and keep the allocation, so
            // that an idle connection costs its largest burst and a busy
            // one does not allocate on every read.
            self.buf.clear();
            self.pos = 0;
        }
        decode(body).map(Some)
    }

    /// Bytes currently buffered (diagnostics).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes of buffer the reader holds on to, read or not (diagnostics):
    /// the largest backlog it ever held at once.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> SocketAddr {
        s.parse().unwrap()
    }

    fn round_trip(frame: Frame) {
        let encoded = encode(&frame);
        let mut payload = encoded.clone();
        let len = payload.get_u32() as usize;
        assert_eq!(len, payload.remaining());
        let decoded = decode(payload).unwrap();
        assert_eq!(decoded, frame);
    }

    #[test]
    fn round_trip_all_membership_messages() {
        round_trip(Frame::Membership(Message::Join));
        round_trip(Frame::Membership(Message::ForwardJoin {
            new_node: addr("10.1.2.3:9000"),
            ttl: 6,
        }));
        round_trip(Frame::Membership(Message::ForwardJoinReply));
        round_trip(Frame::Membership(Message::Neighbor { priority: Priority::High }));
        round_trip(Frame::Membership(Message::Neighbor { priority: Priority::Low }));
        round_trip(Frame::Membership(Message::NeighborReply { accepted: true }));
        round_trip(Frame::Membership(Message::NeighborReply { accepted: false }));
        round_trip(Frame::Membership(Message::Disconnect));
        round_trip(Frame::Membership(Message::Shuffle {
            origin: addr("192.168.0.1:1234"),
            ttl: 4,
            nodes: vec![addr("10.0.0.1:1"), addr("10.0.0.2:2")],
        }));
        round_trip(Frame::Membership(Message::ShuffleReply {
            nodes: vec![addr("[::1]:8000"), addr("10.0.0.3:3")],
        }));
    }

    #[test]
    fn round_trip_hello_and_gossip() {
        round_trip(Frame::Hello { sender: addr("[2001:db8::1]:443") });
        round_trip(Frame::Gossip {
            id: 0xDEAD_BEEF_0123_4567_89AB_CDEF_0000_1111,
            hops: 7,
            payload: Bytes::from_static(b"hello overlay"),
        });
    }

    #[test]
    fn round_trip_empty_gossip_payload() {
        round_trip(Frame::Gossip { id: 1, hops: 0, payload: Bytes::new() });
    }

    #[test]
    fn round_trip_plumtree_frames() {
        round_trip(Frame::PlumtreeGossip {
            id: 0x0123_4567_89AB_CDEF_1111_2222_3333_4444,
            round: 3,
            payload: Bytes::from_static(b"tree payload"),
        });
        round_trip(Frame::PlumtreeGossip { id: 0, round: 0, payload: Bytes::new() });
        round_trip(Frame::PlumtreeIHave { id: u128::MAX, round: u32::MAX });
        round_trip(Frame::PlumtreeGraft { id: Some(7), round: 2 });
        round_trip(Frame::PlumtreeGraft { id: None, round: 9 });
        round_trip(Frame::PlumtreePrune);
        round_trip(Frame::PlumtreeIHaveBatch { anns: vec![(1, 2)] });
        round_trip(Frame::PlumtreeIHaveBatch {
            anns: vec![(u128::MAX, u32::MAX), (0, 0), (42, 7)],
        });
    }

    #[test]
    fn large_ihave_batch_fits_a_frame() {
        // The state machine chunks at 1024 announcements; the frame must
        // accept that comfortably under MAX_FRAME_LEN.
        let anns: Vec<(u128, u32)> = (0..1024u128).map(|i| (i, i as u32)).collect();
        let frame = Frame::PlumtreeIHaveBatch { anns };
        let encoded = encode(&frame);
        assert!(encoded.len() < MAX_FRAME_LEN, "batch frame too large: {}", encoded.len());
        round_trip(frame);
    }

    #[test]
    fn encode_never_outgrows_its_first_allocation() {
        let v6 = addr("[2001:db8::1]:443");
        let payload = Bytes::from_static(&[7; 300]);
        let exact = [
            Frame::Gossip { id: 1, hops: 2, payload: payload.clone() },
            Frame::PlumtreeGossip { id: 1, round: 2, payload },
            Frame::PlumtreeIHaveBatch { anns: vec![(1, 2); 16] },
        ];
        for frame in &exact {
            assert_eq!(encode(frame).len(), encoded_len_bound(frame), "{frame:?}");
        }
        // The widest encoding of every other kind: IPv6 addresses, an id.
        let bounded = [
            Frame::Hello { sender: v6 },
            Frame::Membership(Message::ForwardJoin { new_node: v6, ttl: 6 }),
            Frame::Membership(Message::Shuffle { origin: v6, ttl: 4, nodes: vec![v6; 8] }),
            Frame::Membership(Message::ShuffleReply { nodes: vec![v6; 8] }),
            Frame::PlumtreeIHave { id: 1, round: 2 },
            Frame::PlumtreeGraft { id: Some(1), round: 2 },
        ];
        for frame in &bounded {
            assert!(encode(frame).len() <= encoded_len_bound(frame), "{frame:?}");
        }
    }

    #[test]
    fn truncated_plumtree_frames_rejected() {
        // IHave missing its round.
        let mut body = BytesMut::new();
        body.put_u8(11);
        body.put_u128(9);
        assert_eq!(decode(body.freeze()), Err(WireError::Truncated));
        // PlumtreeGossip whose declared payload length overruns the frame.
        let mut body = BytesMut::new();
        body.put_u8(10);
        body.put_u128(9);
        body.put_u32(1);
        body.put_u32(100);
        body.put_slice(b"short");
        assert_eq!(decode(body.freeze()), Err(WireError::Truncated));
        // Graft announcing an id but not carrying it.
        let mut body = BytesMut::new();
        body.put_u8(12);
        body.put_u8(1);
        assert_eq!(decode(body.freeze()), Err(WireError::Truncated));
        // Graft missing its round.
        let mut body = BytesMut::new();
        body.put_u8(12);
        body.put_u8(0);
        assert_eq!(decode(body.freeze()), Err(WireError::Truncated));
        // IHaveBatch whose declared count overruns the frame.
        let mut body = BytesMut::new();
        body.put_u8(14);
        body.put_u16(3);
        body.put_u128(1);
        body.put_u32(1);
        assert_eq!(decode(body.freeze()), Err(WireError::Truncated));
        // IHaveBatch with no count at all.
        assert_eq!(decode(Bytes::from_static(&[14])), Err(WireError::Truncated));
    }

    #[test]
    fn reader_handles_fragmentation() {
        let frames = vec![
            Frame::Membership(Message::Join),
            Frame::Gossip { id: 9, hops: 1, payload: Bytes::from_static(b"x") },
            Frame::Hello { sender: addr("127.0.0.1:1") },
        ];
        let mut stream = BytesMut::new();
        for f in &frames {
            stream.extend_from_slice(&encode(f));
        }
        // Feed one byte at a time.
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for byte in stream.iter() {
            reader.extend(&[*byte]);
            while let Some(frame) = reader.next_frame().unwrap() {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded, frames);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn reader_handles_batched_frames() {
        let frames: Vec<Frame> =
            (0..10).map(|i| Frame::Gossip { id: i, hops: 0, payload: Bytes::new() }).collect();
        let mut stream = BytesMut::new();
        for f in &frames {
            stream.extend_from_slice(&encode(f));
        }
        let mut reader = FrameReader::new();
        reader.extend(&stream);
        let mut decoded = Vec::new();
        while let Some(frame) = reader.next_frame().unwrap() {
            decoded.push(frame);
        }
        assert_eq!(decoded, frames);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut reader = FrameReader::new();
        reader.extend(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        reader.extend(&[0u8; 16]);
        assert!(matches!(reader.next_frame(), Err(WireError::FrameTooLarge { .. })));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(decode(Bytes::from_static(&[200])), Err(WireError::UnknownTag { tag: 200 }));
    }

    #[test]
    fn truncated_payloads_rejected() {
        assert_eq!(decode(Bytes::new()), Err(WireError::Truncated));
        // ForwardJoin missing the ttl byte.
        let mut body = BytesMut::new();
        body.put_u8(2);
        body.put_u8(4);
        body.put_slice(&[10, 0, 0, 1]);
        body.put_u16(80);
        assert_eq!(decode(body.freeze()), Err(WireError::Truncated));
    }

    #[test]
    fn bad_family_rejected() {
        let mut body = BytesMut::new();
        body.put_u8(0); // Hello
        body.put_u8(9); // bogus family
        assert_eq!(decode(body.freeze()), Err(WireError::BadAddressFamily { family: 9 }));
    }

    #[test]
    fn error_display_nonempty() {
        for err in [
            WireError::FrameTooLarge { len: 1 },
            WireError::Truncated,
            WireError::UnknownTag { tag: 1 },
            WireError::BadAddressFamily { family: 1 },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
