//! Wire format of a tile message.
//!
//! A frame is a header followed by the tile payload:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "FXT3"
//! 4       1     class  (0 = panel, 1 = trailing)
//! 5       4     src    sending rank,           u32 LE
//! 9       4     i      tile row,               u32 LE
//! 13      4     j      tile column,            u32 LE
//! 17      4     epoch  broadcast iteration ℓ,  u32 LE
//! 21      4     nb     tile dimension,         u32 LE
//! 25      8     checksum (see below),          u64 LE
//! 33      8·nb² payload, column-major f64 bits, LE
//! ```
//!
//! ## Checksum
//!
//! [`checksum_of`] covers every frame byte except its own field. With
//! `step(h, w) = (h ^ w) · P` (wrapping, `P` odd):
//!
//! 1. the 25 header bytes before the field are absorbed serially into
//!    `h`, as three LE `u64` words and then the 1-byte tail;
//! 2. the payload is read as LE `u64` words in blocks of four, word `k`
//!    of every block going to lane `k` — four independent multiply
//!    chains, so the hash runs at word rate instead of byte rate;
//! 3. the lanes are folded into `h` with the same step, in lane order;
//! 4. whatever follows the last whole block (one word when `nb` is
//!    odd) is absorbed serially.
//!
//! For a fixed `w`, `step` is a bijection of `h` (xor is one, and
//! multiplying by an odd number is one modulo 2⁶⁴); for a fixed `h` it
//! is injective in `w`. So a change confined to one absorbed word or
//! byte changes the state right after that step, and every later step
//! carries the difference to the result. Any corruption confined to
//! one word — every single-byte flip the fault plan injects included —
//! is therefore *always* rejected with a typed decode error:
//! [`NetError::ChecksumMismatch`], or a structural error when the flip
//! lands in a length-bearing field. Changes spread over several words
//! are caught only with high probability (flipping the top bit of two
//! consecutive words of one lane cancels, for instance): the checksum
//! detects the wire faults this crate models, it is no CRC.
//!
//! Version 3 of the magic marks this checksum. A v2 ("FXT2", bytewise
//! FNV-1a) or v1 ("FXTM", unchecksummed) frame fails with `BadMagic`
//! instead of as a spurious checksum mismatch or a misread.
//!
//! Payload values travel as raw IEEE-754 bit patterns
//! (`f64::to_bits`/`from_bits`), so the round trip is the identity on
//! *every* bit pattern — including NaNs with arbitrary payloads, signed
//! zeros and subnormals. That is what lets the distributed executor
//! promise bitwise-identical results to the shared-memory one.

use crate::error::NetError;
use flexdist_kernels::Tile;

/// Frame magic: "FXT3" (FleXdist Tile message, version 3 — word-parallel
/// checksum).
pub const MAGIC: [u8; 4] = *b"FXT3";

/// Bytes before the payload (including the checksum field).
pub const HEADER_LEN: usize = 33;

/// Byte offset of the u64 checksum field inside the header.
pub const CHECKSUM_OFFSET: usize = 25;

/// Tiles above this dimension are rejected as implausible (a guard
/// against decoding garbage length fields into huge allocations).
pub const MAX_NB: u32 = 1 << 16;

/// Which phase of the Fig. 2 broadcast scheme a message belongs to.
/// Mirrors the two counters of
/// [`CommBreakdown`](flexdist_dist::CommBreakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Factorized diagonal tile to the panel solvers.
    Panel,
    /// Solved panel tile into the trailing-submatrix update.
    Trailing,
}

impl MsgClass {
    /// Wire byte of the class.
    #[must_use]
    pub fn to_byte(self) -> u8 {
        match self {
            Self::Panel => 0,
            Self::Trailing => 1,
        }
    }

    /// Parse the wire byte.
    ///
    /// # Errors
    /// `BadClass` on unknown bytes.
    pub fn from_byte(b: u8) -> Result<Self, NetError> {
        match b {
            0 => Ok(Self::Panel),
            1 => Ok(Self::Trailing),
            got => Err(NetError::BadClass { got }),
        }
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Panel => "panel",
            Self::Trailing => "trailing",
        }
    }
}

/// Identity of a broadcast replica: which tile, at which iteration.
///
/// In the right-looking panel/trailing scheme every tile is broadcast at
/// most once, at epoch `min(i, j)` — the iteration that finalizes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileKey {
    /// Tile row.
    pub i: u32,
    /// Tile column.
    pub j: u32,
    /// Broadcast iteration.
    pub epoch: u32,
}

impl TileKey {
    /// The only epoch at which tile `(i, j)` is ever broadcast.
    #[must_use]
    pub fn expected_epoch(i: u32, j: u32) -> u32 {
        i.min(j)
    }
}

/// One tile in flight: header identity plus the payload.
#[derive(Debug, Clone)]
pub struct TileMsg {
    /// Panel or trailing broadcast.
    pub class: MsgClass,
    /// Sending rank.
    pub src: u32,
    /// Tile row.
    pub i: u32,
    /// Tile column.
    pub j: u32,
    /// Broadcast iteration.
    pub epoch: u32,
    /// The tile data.
    pub tile: Tile,
}

impl TileMsg {
    /// The replica identity of this message.
    #[must_use]
    pub fn key(&self) -> TileKey {
        TileKey {
            i: self.i,
            j: self.j,
            epoch: self.epoch,
        }
    }

    /// Bit-exact equality (headers equal, payloads equal as raw bits —
    /// NaN payloads compare by pattern, not by IEEE `==`).
    #[must_use]
    pub fn bitwise_eq(&self, other: &Self) -> bool {
        self.class == other.class
            && self.src == other.src
            && self.i == other.i
            && self.j == other.j
            && self.epoch == other.epoch
            && self.tile.nb() == other.tile.nb()
            && self
                .tile
                .as_slice()
                .iter()
                .zip(other.tile.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Exact frame length of a message carrying an `nb × nb` tile.
///
/// Applies the same plausibility guard as [`decode`] — `nb` must lie in
/// `[1, MAX_NB]` — and computes the length in 64-bit arithmetic, so an
/// absurd `nb` is rejected with a typed error instead of wrapping the
/// length (release) or panicking (debug) on 32-bit targets.
///
/// # Errors
/// `BadTileSize` when `nb` is zero or above [`MAX_NB`]. Sizes beyond
/// `u32::MAX` (unrepresentable in the header) saturate the reported
/// `nb` field to `u32::MAX`.
pub fn frame_len(nb: usize) -> Result<usize, NetError> {
    let nb32 = u32::try_from(nb).unwrap_or(u32::MAX);
    if nb32 == 0 || nb32 > MAX_NB || nb32 as usize != nb {
        return Err(NetError::BadTileSize { nb: nb32 });
    }
    // nb <= MAX_NB = 2^16, so the payload is at most 8 * 2^32 = 2^35
    // bytes: exact in u64, but possibly outside usize on 32-bit targets.
    let len = HEADER_LEN as u64 + 8 * nb as u64 * nb as u64;
    usize::try_from(len).map_err(|_| NetError::BadTileSize { nb: nb32 })
}

/// Seed of the serial header/tail chain.
const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Odd multiplier of every checksum step (2⁶⁴/φ, rounded to odd).
const PRIME: u64 = 0x9e37_79b9_7f4a_7c15;

/// Independent payload chains (words per block).
const LANES: usize = 4;

/// Distinct starting states of the payload lanes.
const LANE_SEEDS: [u64; LANES] = [step(SEED, 1), step(SEED, 2), step(SEED, 3), step(SEED, 4)];

/// One checksum step: a bijection of `h` for fixed `w`, injective in `w`
/// for fixed `h`.
const fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(PRIME)
}

/// The LE `u64` in an 8-byte chunk.
fn word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// Serial absorption: whole LE words, then the leftover bytes one by one.
fn absorb(h: u64, bytes: &[u8]) -> u64 {
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    let h = words.fold(h, |h, w| step(h, word(w)));
    tail.iter().fold(h, |h, &b| step(h, u64::from(b)))
}

/// Checksum of every frame byte except the checksum field itself; the
/// definition and its single-word guarantee are in the module docs.
#[must_use]
pub fn checksum_of(frame: &[u8]) -> u64 {
    let head = &frame[..frame.len().min(CHECKSUM_OFFSET)];
    let body = frame.get(HEADER_LEN..).unwrap_or_default();
    let mut lanes = LANE_SEEDS;
    let mut blocks = body.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(w));
        }
    }
    let h = lanes
        .iter()
        .fold(absorb(SEED, head), |h, &lane| step(h, lane));
    absorb(h, blocks.remainder())
}

/// Serialize one message from its parts, borrowing the tile — what a
/// broadcast encodes once and sends to every receiver.
///
/// Mirrors the guards of [`decode`]: a tile with `nb == 0` or
/// `nb > MAX_NB` is rejected *here*, with the same typed error, instead
/// of being encoded into a frame every peer must refuse (the header's
/// `nb` field is 32-bit, so oversized tiles would otherwise truncate).
///
/// # Errors
/// `BadTileSize` when the tile dimension fails the decode-side bounds.
pub fn encode_tile(
    class: MsgClass,
    src: u32,
    i: u32,
    j: u32,
    epoch: u32,
    tile: &Tile,
) -> Result<Vec<u8>, NetError> {
    let nb = tile.nb();
    let len = frame_len(nb)?;
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&MAGIC);
    out.push(class.to_byte());
    for v in [src, i, j, epoch] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    // `frame_len` proved nb <= MAX_NB < u32::MAX, so this cast is exact.
    out.extend_from_slice(&(nb as u32).to_le_bytes());
    // Checksum placeholder and payload, filled in place below.
    out.resize(len, 0);
    for (dst, v) in out[HEADER_LEN..].chunks_exact_mut(8).zip(tile.as_slice()) {
        dst.copy_from_slice(&v.to_bits().to_le_bytes());
    }
    let sum = checksum_of(&out);
    out[CHECKSUM_OFFSET..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    Ok(out)
}

/// Serialize a message into one frame: [`encode_tile`] on its parts.
///
/// # Errors
/// `BadTileSize` when the tile dimension fails the decode-side bounds.
pub fn encode(msg: &TileMsg) -> Result<Vec<u8>, NetError> {
    encode_tile(msg.class, msg.src, msg.i, msg.j, msg.epoch, &msg.tile)
}

fn u32_at(frame: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([frame[at], frame[at + 1], frame[at + 2], frame[at + 3]])
}

/// Deserialize exactly one frame.
///
/// # Errors
/// `Truncated` when bytes are missing, `FrameOverrun` when trailing
/// bytes follow the payload, `BadMagic`/`BadClass`/`BadTileSize` on a
/// corrupt header, `ChecksumMismatch` when any other byte was flipped
/// in flight.
pub fn decode(frame: &[u8]) -> Result<TileMsg, NetError> {
    if frame.len() < HEADER_LEN {
        return Err(NetError::Truncated {
            need: HEADER_LEN,
            got: frame.len(),
        });
    }
    if frame[..4] != MAGIC {
        return Err(NetError::BadMagic {
            got: [frame[0], frame[1], frame[2], frame[3]],
        });
    }
    let class = MsgClass::from_byte(frame[4])?;
    let src = u32_at(frame, 5);
    let i = u32_at(frame, 9);
    let j = u32_at(frame, 13);
    let epoch = u32_at(frame, 17);
    let nb32 = u32_at(frame, 21);
    if nb32 == 0 || nb32 > MAX_NB {
        return Err(NetError::BadTileSize { nb: nb32 });
    }
    let nb = nb32 as usize;
    let need = frame_len(nb)?;
    if frame.len() < need {
        return Err(NetError::Truncated {
            need,
            got: frame.len(),
        });
    }
    if frame.len() > need {
        return Err(NetError::FrameOverrun {
            expected: need,
            got: frame.len(),
        });
    }
    let want = word(&frame[CHECKSUM_OFFSET..HEADER_LEN]);
    let got = checksum_of(frame);
    if want != got {
        return Err(NetError::ChecksumMismatch { want, got });
    }
    let mut tile = Tile::zeros(nb);
    for (slot, w) in tile
        .as_mut_slice()
        .iter_mut()
        .zip(frame[HEADER_LEN..].chunks_exact(8))
    {
        *slot = f64::from_bits(word(w));
    }
    Ok(TileMsg {
        class,
        src,
        i,
        j,
        epoch,
        tile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(nb: usize) -> TileMsg {
        TileMsg {
            class: MsgClass::Trailing,
            src: 3,
            i: 7,
            j: 2,
            epoch: 2,
            tile: Tile::from_fn(nb, |i, j| (i * 10 + j) as f64 - 4.5),
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let msg = sample(4);
        let frame = encode(&msg).unwrap();
        assert_eq!(frame.len(), frame_len(4).unwrap());
        let back = decode(&frame).unwrap();
        assert!(msg.bitwise_eq(&back));
    }

    #[test]
    fn frame_len_guards_match_decode_bounds() {
        assert_eq!(frame_len(0).unwrap_err(), NetError::BadTileSize { nb: 0 });
        assert_eq!(frame_len(1).unwrap(), HEADER_LEN + 8);
        let max = MAX_NB as usize;
        assert_eq!(frame_len(max).unwrap(), HEADER_LEN + 8 * max * max);
        assert_eq!(
            frame_len(max + 1).unwrap_err(),
            NetError::BadTileSize { nb: MAX_NB + 1 }
        );
        // Beyond u32: the header cannot carry it; the error saturates.
        assert_eq!(
            frame_len(usize::MAX).unwrap_err(),
            NetError::BadTileSize { nb: u32::MAX }
        );
    }

    #[test]
    fn nan_and_signed_zero_payloads_survive() {
        let mut msg = sample(2);
        let s = msg.tile.as_mut_slice();
        s[0] = f64::from_bits(0x7ff8_0000_dead_beef); // NaN with payload
        s[1] = -0.0;
        s[2] = f64::INFINITY;
        s[3] = f64::MIN_POSITIVE / 2.0; // subnormal
        let back = decode(&encode(&msg).unwrap()).unwrap();
        assert!(msg.bitwise_eq(&back));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let frame = encode(&sample(3)).unwrap();
        for cut in 0..frame.len() {
            let err = decode(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, NetError::Truncated { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn overrun_and_corrupt_headers_are_rejected() {
        let frame = encode(&sample(2)).unwrap();
        let mut long = frame.clone();
        long.push(0);
        assert!(matches!(
            decode(&long).unwrap_err(),
            NetError::FrameOverrun { .. }
        ));
        let mut bad_magic = frame.clone();
        bad_magic[0] = b'Z';
        assert!(matches!(
            decode(&bad_magic).unwrap_err(),
            NetError::BadMagic { .. }
        ));
        let mut bad_class = frame.clone();
        bad_class[4] = 9;
        assert!(matches!(
            decode(&bad_class).unwrap_err(),
            NetError::BadClass { got: 9 }
        ));
        let mut zero_nb = frame;
        zero_nb[21..25].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode(&zero_nb).unwrap_err(),
            NetError::BadTileSize { nb: 0 }
        ));
    }

    #[test]
    fn any_single_byte_flip_is_rejected_typed() {
        // nb 1..=5 puts the payload end on every lane position and both
        // remainders (no word after the last block, or one).
        for nb in 1..=5 {
            let frame = encode(&sample(nb)).unwrap();
            for at in 0..frame.len() {
                for bit in 0..8 {
                    let mut bad = frame.clone();
                    bad[at] ^= 1 << bit;
                    assert!(
                        decode(&bad).is_err(),
                        "nb {nb}: byte {at} bit {bit} flipped decoded fine"
                    );
                }
            }
        }
        let frame = encode(&sample(3)).unwrap();
        // Flips outside the length-bearing fields are caught by checksum.
        let mut bad = frame.clone();
        bad[HEADER_LEN + 3] ^= 0x40; // payload byte
        assert!(matches!(
            decode(&bad).unwrap_err(),
            NetError::ChecksumMismatch { .. }
        ));
        let mut bad = frame.clone();
        bad[CHECKSUM_OFFSET] ^= 0x10; // checksum field itself
        assert!(matches!(
            decode(&bad).unwrap_err(),
            NetError::ChecksumMismatch { .. }
        ));
        // A valid-looking class flip (0 <-> 1) is also caught.
        let mut bad = frame;
        bad[4] ^= 0x01;
        assert!(matches!(
            decode(&bad).unwrap_err(),
            NetError::ChecksumMismatch { .. }
        ));
    }

    /// The checksum as the module docs define it, one word or byte at a
    /// time with explicit offsets.
    fn reference_checksum(frame: &[u8]) -> u64 {
        fn serial(mut h: u64, bytes: &[u8]) -> u64 {
            let whole = bytes.len() / 8 * 8;
            for at in (0..whole).step_by(8) {
                h = step(h, word(&bytes[at..at + 8]));
            }
            for &b in &bytes[whole..] {
                h = step(h, u64::from(b));
            }
            h
        }
        let head = &frame[..frame.len().min(CHECKSUM_OFFSET)];
        let body = if frame.len() > HEADER_LEN {
            &frame[HEADER_LEN..]
        } else {
            &[]
        };
        let blocks = body.len() / 32;
        let mut lanes = LANE_SEEDS;
        for b in 0..blocks {
            for (k, lane) in lanes.iter_mut().enumerate() {
                let at = 32 * b + 8 * k;
                *lane = step(*lane, word(&body[at..at + 8]));
            }
        }
        let mut h = serial(SEED, head);
        for lane in lanes {
            h = step(h, lane);
        }
        serial(h, &body[32 * blocks..])
    }

    #[test]
    fn checksum_matches_its_definition_at_every_length() {
        let bytes: Vec<u8> = (0..200u32).map(|k| (k * 37 + 11) as u8).collect();
        for len in 0..=bytes.len() {
            let frame = &bytes[..len];
            assert_eq!(checksum_of(frame), reference_checksum(frame), "len {len}");
        }
    }

    #[test]
    fn checksum_known_answer_pins_the_wire_format() {
        // Changing this value changes the wire format: bump `MAGIC`.
        let frame = encode(&sample(3)).unwrap();
        assert_eq!(checksum_of(&frame), 0x11e6_7429_4a81_41fb);
        assert_eq!(
            frame[CHECKSUM_OFFSET..HEADER_LEN],
            checksum_of(&frame).to_le_bytes()
        );
    }

    #[test]
    fn v1_magic_is_rejected_not_misread() {
        // v1 (unchecksummed) and v2 (bytewise FNV-1a) alike.
        for old in [b"FXTM", b"FXT2"] {
            let mut frame = encode(&sample(2)).unwrap();
            frame[..4].copy_from_slice(old);
            assert!(matches!(
                decode(&frame).unwrap_err(),
                NetError::BadMagic { got } if &got == old
            ));
        }
    }

    #[test]
    fn max_coord_header_round_trips() {
        let msg = TileMsg {
            class: MsgClass::Panel,
            src: u32::MAX,
            i: u32::MAX,
            j: u32::MAX - 1,
            epoch: u32::MAX - 1,
            tile: Tile::zeros(1),
        };
        let back = decode(&encode(&msg).unwrap()).unwrap();
        assert!(msg.bitwise_eq(&back));
    }
}
