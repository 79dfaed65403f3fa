//! Message-parallel multi-lane digest kernels ("SIMD within a register").
//!
//! The hash-bound paths of this reproduction — Merkle construction over
//! result leaves (Eq. 1 of the paper), ringer precomputation, iterated
//! `g = H^k` chains across independent seeds — hash many *small,
//! independent* messages. A single-message kernel leaves instruction-level
//! parallelism on the table: every 64-byte compression is one serial
//! dependency chain. Running 4 or 8 independent messages through a
//! *transposed* (struct-of-arrays) compression loop instead gives the
//! optimizer independent `u32` lanes to autovectorize — portable safe
//! Rust, no nightly intrinsics, `#![forbid(unsafe_code)]` preserved.
//!
//! Every message is presented as two segments `(a, b)` and hashed as the
//! concatenation `a ‖ b`: one shape serves both the Merkle inner-node
//! operation `hash(Φ(V_left) ‖ Φ(V_right))` and plain single messages
//! (`(msg, &[])`). Lanes are fully independent — per-lane lengths may
//! differ (shorter lanes finish in the transposed pass, longer lanes are
//! completed by the scalar kernel), and ragged batch sizes fall back to
//! scalar hashing for the tail — so every digest is bit-identical to the
//! scalar path by construction, which the replay/journal/wire-equivalence
//! contract depends on.

use crate::{md5, sha1, sha256, HashFunction, Md5, Sha1, Sha256};

/// How many independent messages the digest kernels run per dispatch.
///
/// This is an *execution* knob like `Parallelism`: it never changes a
/// digest, only how fast digests are produced. It is therefore excluded
/// from campaign-identity material (journal headers, params blobs).
///
/// # Examples
///
/// ```
/// use ugc_hash::LaneWidth;
///
/// assert_eq!(LaneWidth::default(), LaneWidth::X8);
/// assert_eq!(LaneWidth::X4.lanes(), 4);
/// assert_eq!(LaneWidth::parse("scalar"), Some(LaneWidth::Scalar));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum LaneWidth {
    /// One message at a time — the reference scalar kernels.
    Scalar,
    /// Four messages per transposed compression pass.
    X4,
    /// Eight messages per transposed compression pass (the default).
    #[default]
    X8,
}

impl LaneWidth {
    /// All widths, for sweeps and equivalence tests.
    pub const ALL: [LaneWidth; 3] = [LaneWidth::Scalar, LaneWidth::X4, LaneWidth::X8];

    /// Number of messages per kernel dispatch (1, 4 or 8).
    #[must_use]
    pub fn lanes(self) -> usize {
        match self {
            LaneWidth::Scalar => 1,
            LaneWidth::X4 => 4,
            LaneWidth::X8 => 8,
        }
    }

    /// The width's stable lowercase name (`"scalar"`, `"x4"`, `"x8"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LaneWidth::Scalar => "scalar",
            LaneWidth::X4 => "x4",
            LaneWidth::X8 => "x8",
        }
    }

    /// Parses a width name as produced by [`name`](Self::name).
    #[must_use]
    pub fn parse(s: &str) -> Option<LaneWidth> {
        match s {
            "scalar" => Some(LaneWidth::Scalar),
            "x4" => Some(LaneWidth::X4),
            "x8" => Some(LaneWidth::X8),
            _ => None,
        }
    }
}

impl core::fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A hash function with transposed message-parallel kernels.
///
/// The single generic-width method lets each algorithm provide one
/// `const L` implementation that serves both the 4-wide and 8-wide
/// [`HashFunction::digest_lanes_4`]/[`HashFunction::digest_lanes_8`]
/// entry points. Implemented by [`Md5`], [`Sha1`] and [`Sha256`];
/// protocol code generic over plain [`HashFunction`] still gets lane
/// acceleration through the provided trait methods these overrides feed.
pub trait LaneKernel: HashFunction {
    /// Digests `L` independent two-segment messages (`a ‖ b` each) in one
    /// transposed compression pass. Bit-identical to `L` calls of
    /// [`HashFunction::digest_pair`].
    fn digest_lanes<const L: usize>(msgs: &[(&[u8], &[u8]); L]) -> [Self::Digest; L];
}

impl LaneKernel for Md5 {
    fn digest_lanes<const L: usize>(msgs: &[(&[u8], &[u8]); L]) -> [Self::Digest; L] {
        md5_digest_lanes(msgs)
    }
}

impl LaneKernel for Sha1 {
    fn digest_lanes<const L: usize>(msgs: &[(&[u8], &[u8]); L]) -> [Self::Digest; L] {
        sha1_digest_lanes(msgs)
    }
}

impl LaneKernel for Sha256 {
    fn digest_lanes<const L: usize>(msgs: &[(&[u8], &[u8]); L]) -> [Self::Digest; L] {
        sha256_digest_lanes(msgs)
    }
}

/// Number of 64-byte blocks in the padded message of `total` bytes:
/// content, the `0x80` marker, and the 8-byte bit length.
fn padded_blocks(total: usize) -> usize {
    (total + 72) / 64
}

/// Materialises block `block` (of `nb`) of the padded message `a ‖ b`
/// into `out`: content bytes, the `0x80` terminator, zero fill, and —
/// in the final block — the 8-byte bit length (little-endian for MD5,
/// big-endian for the SHA family).
fn fill_padded_block(
    a: &[u8],
    b: &[u8],
    total: usize,
    nb: usize,
    block: usize,
    le_length: bool,
    out: &mut [u8; 64],
) {
    let start = block * 64;
    let end = start + 64;
    out.fill(0);
    if start < a.len() {
        let take = (a.len() - start).min(64);
        out[..take].copy_from_slice(&a[start..start + take]);
    }
    if end > a.len() && start < total {
        let copy_start = start.max(a.len());
        let copy_end = end.min(total);
        if copy_end > copy_start {
            out[copy_start - start..copy_end - start]
                .copy_from_slice(&b[copy_start - a.len()..copy_end - a.len()]);
        }
    }
    if (start..end).contains(&total) {
        out[total - start] = 0x80;
    }
    if block + 1 == nb {
        let bits = 8 * total as u64;
        let len_bytes = if le_length {
            bits.to_le_bytes()
        } else {
            bits.to_be_bytes()
        };
        out[56..].copy_from_slice(&len_bytes);
    }
}

/// Loads the sixteen 32-bit message words of each lane's block into
/// transposed `[word][lane]` layout.
fn load_words<const L: usize, const W: usize>(blocks: &[[u8; 64]; L], le: bool) -> [[u32; L]; W] {
    let mut m = [[0u32; L]; W];
    for (w, row) in m.iter_mut().enumerate().take(16) {
        for (l, slot) in row.iter_mut().enumerate() {
            let bytes: [u8; 4] = blocks[l][4 * w..4 * w + 4]
                .try_into()
                .expect("4-byte message word");
            *slot = if le {
                u32::from_le_bytes(bytes)
            } else {
                u32::from_be_bytes(bytes)
            };
        }
    }
    m
}

/// One transposed MD5 compression pass: `L` independent lanes, state in
/// `[word][lane]` layout. Same round structure as the scalar
/// `md5::compress`, with every scalar `u32` widened to a `[u32; L]` row.
fn md5_compress_lanes<const L: usize>(h: &mut [[u32; L]; 4], blocks: &[[u8; 64]; L]) {
    let m: [[u32; L]; 16] = load_words(blocks, true);
    let mut a = h[0];
    let mut b = h[1];
    let mut c = h[2];
    let mut d = h[3];
    for i in 0..64 {
        let mut f = [0u32; L];
        let g = match i / 16 {
            0 => i,
            1 => (5 * i + 1) % 16,
            2 => (3 * i + 5) % 16,
            _ => (7 * i) % 16,
        };
        match i / 16 {
            0 => {
                for l in 0..L {
                    f[l] = (b[l] & c[l]) | (!b[l] & d[l]);
                }
            }
            1 => {
                for l in 0..L {
                    f[l] = (d[l] & b[l]) | (!d[l] & c[l]);
                }
            }
            2 => {
                for l in 0..L {
                    f[l] = b[l] ^ c[l] ^ d[l];
                }
            }
            _ => {
                for l in 0..L {
                    f[l] = c[l] ^ (b[l] | !d[l]);
                }
            }
        }
        let tmp = d;
        d = c;
        c = b;
        for l in 0..L {
            b[l] = b[l].wrapping_add(
                a[l].wrapping_add(f[l])
                    .wrapping_add(md5::K[i])
                    .wrapping_add(m[g][l])
                    .rotate_left(md5::S[i]),
            );
        }
        a = tmp;
    }
    for l in 0..L {
        h[0][l] = h[0][l].wrapping_add(a[l]);
        h[1][l] = h[1][l].wrapping_add(b[l]);
        h[2][l] = h[2][l].wrapping_add(c[l]);
        h[3][l] = h[3][l].wrapping_add(d[l]);
    }
}

/// One transposed SHA-1 compression pass (see [`md5_compress_lanes`]).
fn sha1_compress_lanes<const L: usize>(h: &mut [[u32; L]; 5], blocks: &[[u8; 64]; L]) {
    let mut w: [[u32; L]; 80] = load_words(blocks, false);
    for i in 16..80 {
        let (prev, rest) = w.split_at_mut(i);
        for (l, slot) in rest[0].iter_mut().enumerate() {
            *slot = (prev[i - 3][l] ^ prev[i - 8][l] ^ prev[i - 14][l] ^ prev[i - 16][l])
                .rotate_left(1);
        }
    }
    let mut a = h[0];
    let mut b = h[1];
    let mut c = h[2];
    let mut d = h[3];
    let mut e = h[4];
    for (i, wi) in w.iter().enumerate() {
        let mut f = [0u32; L];
        let k: u32 = match i / 20 {
            0 => 0x5a82_7999,
            1 => 0x6ed9_eba1,
            2 => 0x8f1b_bcdc,
            _ => 0xca62_c1d6,
        };
        match i / 20 {
            0 => {
                for l in 0..L {
                    f[l] = (b[l] & c[l]) | (!b[l] & d[l]);
                }
            }
            2 => {
                for l in 0..L {
                    f[l] = (b[l] & c[l]) | (b[l] & d[l]) | (c[l] & d[l]);
                }
            }
            _ => {
                for l in 0..L {
                    f[l] = b[l] ^ c[l] ^ d[l];
                }
            }
        }
        let mut tmp = [0u32; L];
        for l in 0..L {
            tmp[l] = a[l]
                .rotate_left(5)
                .wrapping_add(f[l])
                .wrapping_add(e[l])
                .wrapping_add(k)
                .wrapping_add(wi[l]);
        }
        e = d;
        d = c;
        for l in 0..L {
            c[l] = b[l].rotate_left(30);
        }
        b = a;
        a = tmp;
    }
    for l in 0..L {
        h[0][l] = h[0][l].wrapping_add(a[l]);
        h[1][l] = h[1][l].wrapping_add(b[l]);
        h[2][l] = h[2][l].wrapping_add(c[l]);
        h[3][l] = h[3][l].wrapping_add(d[l]);
        h[4][l] = h[4][l].wrapping_add(e[l]);
    }
}

/// The lane count from which the SHA-256 kernel writes its `Σ0`, `Σ1`,
/// `σ0` and `σ1` as grouped shift-xor terms: all right shifts, then all
/// left shifts.
///
/// Each `rotate_right(n)` equals `(x >> n) ^ (x << (32 − n))`, the halves
/// occupying disjoint bits, but LLVM lowers a rotate to a scalar `rol`:
/// baseline x86-64 (SSE2) has no vector rotate, and one scalar rotate
/// keeps the whole lane loop scalar. Grouped, every term is a plain
/// vector shift, and the 8-lane loops compile to SSE2 `psrld`/`pslld`/
/// `paddd`. At 4 lanes the SLP vectoriser packs the shift-xor form only
/// in part and pays for lane inserts and extracts, which measured slower
/// than four independent scalar `rol` chains, so narrower kernels keep
/// `rotate_right`.
const SHA256_SHIFT_XOR_MIN_LANES: usize = 8;

/// `Σ0` for an `L`-lane kernel; see [`SHA256_SHIFT_XOR_MIN_LANES`].
#[inline(always)]
fn big_sigma0<const L: usize>(a: u32) -> u32 {
    if L >= SHA256_SHIFT_XOR_MIN_LANES {
        ((a >> 2) ^ (a >> 13) ^ (a >> 22)) ^ ((a << 30) ^ (a << 19) ^ (a << 10))
    } else {
        a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22)
    }
}

/// `Σ1` for an `L`-lane kernel; see [`SHA256_SHIFT_XOR_MIN_LANES`].
#[inline(always)]
fn big_sigma1<const L: usize>(e: u32) -> u32 {
    if L >= SHA256_SHIFT_XOR_MIN_LANES {
        ((e >> 6) ^ (e >> 11) ^ (e >> 25)) ^ ((e << 26) ^ (e << 21) ^ (e << 7))
    } else {
        e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25)
    }
}

/// `σ0` for an `L`-lane kernel; see [`SHA256_SHIFT_XOR_MIN_LANES`].
#[inline(always)]
fn small_sigma0<const L: usize>(w: u32) -> u32 {
    if L >= SHA256_SHIFT_XOR_MIN_LANES {
        ((w >> 7) ^ (w >> 18) ^ (w >> 3)) ^ ((w << 25) ^ (w << 14))
    } else {
        w.rotate_right(7) ^ w.rotate_right(18) ^ (w >> 3)
    }
}

/// `σ1` for an `L`-lane kernel; see [`SHA256_SHIFT_XOR_MIN_LANES`].
#[inline(always)]
fn small_sigma1<const L: usize>(w: u32) -> u32 {
    if L >= SHA256_SHIFT_XOR_MIN_LANES {
        ((w >> 17) ^ (w >> 19) ^ (w >> 10)) ^ ((w << 15) ^ (w << 13))
    } else {
        w.rotate_right(17) ^ w.rotate_right(19) ^ (w >> 10)
    }
}

/// One transposed SHA-256 compression pass (see [`md5_compress_lanes`]),
/// with the sigma functions in the form that vectorises at `L` lanes on
/// the baseline target (see [`SHA256_SHIFT_XOR_MIN_LANES`]).
fn sha256_compress_lanes<const L: usize>(h: &mut [[u32; L]; 8], blocks: &[[u8; 64]; L]) {
    let mut w: [[u32; L]; 64] = load_words(blocks, false);
    for i in 16..64 {
        let (prev, rest) = w.split_at_mut(i);
        for (l, slot) in rest[0].iter_mut().enumerate() {
            *slot = prev[i - 16][l]
                .wrapping_add(small_sigma0::<L>(prev[i - 15][l]))
                .wrapping_add(prev[i - 7][l])
                .wrapping_add(small_sigma1::<L>(prev[i - 2][l]));
        }
    }
    let mut a = h[0];
    let mut b = h[1];
    let mut c = h[2];
    let mut d = h[3];
    let mut e = h[4];
    let mut f = h[5];
    let mut g = h[6];
    let mut hh = h[7];
    for (i, wi) in w.iter().enumerate() {
        let mut t1 = [0u32; L];
        let mut t2 = [0u32; L];
        for l in 0..L {
            let ch = (e[l] & f[l]) ^ (!e[l] & g[l]);
            t1[l] = hh[l]
                .wrapping_add(big_sigma1::<L>(e[l]))
                .wrapping_add(ch)
                .wrapping_add(sha256::K[i])
                .wrapping_add(wi[l]);
            let maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
            t2[l] = big_sigma0::<L>(a[l]).wrapping_add(maj);
        }
        hh = g;
        g = f;
        f = e;
        for l in 0..L {
            e[l] = d[l].wrapping_add(t1[l]);
        }
        d = c;
        c = b;
        b = a;
        for l in 0..L {
            a[l] = t1[l].wrapping_add(t2[l]);
        }
    }
    let rows = [a, b, c, d, e, f, g, hh];
    for (row, add) in h.iter_mut().zip(rows.iter()) {
        for l in 0..L {
            row[l] = row[l].wrapping_add(add[l]);
        }
    }
}

/// Generates the per-algorithm lane digest driver: transposed compression
/// over the blocks every lane still needs, then a scalar finish for lanes
/// whose (longer) messages have blocks remaining — so mixed per-lane
/// lengths stay bit-identical to the scalar kernels.
macro_rules! lane_digest_driver {
    (
        $(#[$doc:meta])*
        $fn_name:ident, $alg:ident, $state_words:expr, $digest_len:expr,
        $compress_lanes:ident, $le:expr
    ) => {
        $(#[$doc])*
        pub(crate) fn $fn_name<const L: usize>(
            msgs: &[(&[u8], &[u8]); L],
        ) -> [[u8; $digest_len]; L] {
            let mut totals = [0usize; L];
            let mut nbs = [0usize; L];
            for l in 0..L {
                totals[l] = msgs[l].0.len() + msgs[l].1.len();
                nbs[l] = padded_blocks(totals[l]);
            }
            let common = nbs.iter().copied().min().unwrap_or(0);
            let mut h = [[0u32; L]; $state_words];
            for (row, iv) in h.iter_mut().zip($alg::IV.iter()) {
                row.fill(*iv);
            }
            let mut blocks = [[0u8; 64]; L];
            for b in 0..common {
                for l in 0..L {
                    fill_padded_block(msgs[l].0, msgs[l].1, totals[l], nbs[l], b, $le, &mut blocks[l]);
                }
                $compress_lanes(&mut h, &blocks);
            }
            let mut out = [[0u8; $digest_len]; L];
            for l in 0..L {
                let mut state = [0u32; $state_words];
                for (word, row) in state.iter_mut().zip(h.iter()) {
                    *word = row[l];
                }
                for b in common..nbs[l] {
                    fill_padded_block(msgs[l].0, msgs[l].1, totals[l], nbs[l], b, $le, &mut blocks[l]);
                    $alg::compress(&mut state, &blocks[l]);
                }
                out[l] = $alg::digest_from_words(&state);
            }
            out
        }
    };
}

lane_digest_driver!(
    /// `L`-lane MD5 of `L` two-segment messages.
    md5_digest_lanes, md5, 4, 16, md5_compress_lanes, true
);
lane_digest_driver!(
    /// `L`-lane SHA-1 of `L` two-segment messages.
    sha1_digest_lanes, sha1, 5, 20, sha1_compress_lanes, false
);
lane_digest_driver!(
    /// `L`-lane SHA-256 of `L` two-segment messages.
    sha256_digest_lanes, sha256, 8, 32, sha256_compress_lanes, false
);

/// Digests a batch of two-segment messages (`a ‖ b` each) at the given
/// lane width: full groups of 8 (then 4) go through the transposed
/// kernels, the ragged tail through the scalar `digest_pair` fast path.
/// Bit-identical to scalar hashing at every width.
///
/// # Examples
///
/// ```
/// use ugc_hash::{digest_pairs, HashFunction, LaneWidth, Sha256};
///
/// let pairs: Vec<(&[u8], &[u8])> = (0..11).map(|_| (b"a".as_ref(), b"b".as_ref())).collect();
/// let lanes = digest_pairs::<Sha256>(&pairs, LaneWidth::X8);
/// assert!(lanes.iter().all(|d| *d == Sha256::digest_pair(b"a", b"b")));
/// ```
#[must_use]
pub fn digest_pairs<H: HashFunction>(pairs: &[(&[u8], &[u8])], width: LaneWidth) -> Vec<H::Digest> {
    let mut out = Vec::with_capacity(pairs.len());
    let mut rest = pairs;
    if width.lanes() >= 8 {
        while rest.len() >= 8 {
            let msgs: [(&[u8], &[u8]); 8] = rest[..8].try_into().expect("8 message pairs");
            out.extend_from_slice(&H::digest_lanes_8(&msgs));
            rest = &rest[8..];
        }
    }
    if width.lanes() >= 4 {
        while rest.len() >= 4 {
            let msgs: [(&[u8], &[u8]); 4] = rest[..4].try_into().expect("4 message pairs");
            out.extend_from_slice(&H::digest_lanes_4(&msgs));
            rest = &rest[4..];
        }
    }
    for &(a, b) in rest {
        out.push(H::digest_pair(a, b));
    }
    out
}

/// Digests a batch of single-segment messages at the given lane width;
/// see [`digest_pairs`].
#[must_use]
pub fn digest_batch<H: HashFunction>(msgs: &[&[u8]], width: LaneWidth) -> Vec<H::Digest> {
    let pairs: Vec<(&[u8], &[u8])> = msgs.iter().map(|m| (*m, &[][..])).collect();
    digest_pairs::<H>(&pairs, width)
}

/// Applies `H` `iterations` times to each seed independently
/// (`H(H(…H(seed)…))`), stepping all chains in lockstep through the lane
/// kernels — the message-parallel form of
/// [`HashFunction::digest_iterated`] across independent seeds.
///
/// # Panics
///
/// Panics if `iterations == 0` (`H^0` would be the identity).
#[must_use]
pub fn digest_iterated_batch<H: HashFunction>(
    seeds: &[&[u8]],
    iterations: u64,
    width: LaneWidth,
) -> Vec<H::Digest> {
    assert!(
        iterations > 0,
        "digest_iterated requires at least 1 iteration"
    );
    let mut digests = digest_batch::<H>(seeds, width);
    for _ in 1..iterations {
        let next = {
            let refs: Vec<&[u8]> = digests.iter().map(|d| d.as_ref()).collect();
            digest_batch::<H>(&refs, width)
        };
        digests = next;
    }
    digests
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(len: usize, tag: u8) -> Vec<u8> {
        (0..len)
            .map(|i| u8::try_from(i % 251).expect("residue < 251") ^ tag)
            .collect()
    }

    #[test]
    fn lane_width_knob() {
        assert_eq!(LaneWidth::default(), LaneWidth::X8);
        assert_eq!(LaneWidth::Scalar.lanes(), 1);
        assert_eq!(LaneWidth::X4.lanes(), 4);
        assert_eq!(LaneWidth::X8.lanes(), 8);
        for w in LaneWidth::ALL {
            assert_eq!(LaneWidth::parse(w.name()), Some(w));
            assert_eq!(w.to_string(), w.name());
        }
        assert_eq!(LaneWidth::parse("x16"), None);
    }

    #[test]
    fn sha256_sigma_forms_agree() {
        let mut x = 0x0123_4567u32;
        for _ in 0..1000 {
            assert_eq!(big_sigma0::<8>(x), big_sigma0::<4>(x));
            assert_eq!(big_sigma1::<8>(x), big_sigma1::<4>(x));
            assert_eq!(small_sigma0::<8>(x), small_sigma0::<4>(x));
            assert_eq!(small_sigma1::<8>(x), small_sigma1::<4>(x));
            x = x.wrapping_mul(0x9e37_79b9).rotate_left(7) ^ 0x5bd1_e995;
        }
    }

    #[test]
    fn padded_block_counts() {
        for (total, nb) in [
            (0usize, 1usize),
            (1, 1),
            (55, 1),
            (56, 2),
            (63, 2),
            (64, 2),
            (119, 2),
            (120, 3),
            (128, 3),
        ] {
            assert_eq!(padded_blocks(total), nb, "total={total}");
        }
    }

    #[test]
    fn uniform_lanes_match_scalar() {
        let a = message(40, 1);
        let b = message(40, 2);
        let msgs: [(&[u8], &[u8]); 4] = [(&a, &b); 4];
        assert_eq!(Md5::digest_lanes(&msgs), [Md5::digest_pair(&a, &b); 4]);
        assert_eq!(Sha1::digest_lanes(&msgs), [Sha1::digest_pair(&a, &b); 4]);
        assert_eq!(
            Sha256::digest_lanes(&msgs),
            [Sha256::digest_pair(&a, &b); 4]
        );
    }

    #[test]
    fn mixed_lengths_match_scalar() {
        // Lanes that span 1, 2 and 3 padded blocks in the same dispatch.
        let lens = [0usize, 55, 56, 63, 64, 65, 119, 120];
        let payloads: Vec<Vec<u8>> = lens.iter().map(|&n| message(n, 7)).collect();
        let msgs: [(&[u8], &[u8]); 8] = core::array::from_fn(|l| (payloads[l].as_slice(), &[][..]));
        let lanes = Sha256::digest_lanes(&msgs);
        for (l, payload) in payloads.iter().enumerate() {
            assert_eq!(lanes[l], Sha256::digest(payload), "lane {l}");
        }
    }

    #[test]
    fn ragged_batches_match_scalar() {
        for n in 1..=9usize {
            let payloads: Vec<Vec<u8>> = (0..n).map(|i| message(8 + i, 3)).collect();
            let pairs: Vec<(&[u8], &[u8])> =
                payloads.iter().map(|p| (p.as_slice(), &[][..])).collect();
            for width in LaneWidth::ALL {
                let got = digest_pairs::<Md5>(&pairs, width);
                let want: Vec<_> = payloads.iter().map(|p| Md5::digest(p)).collect();
                assert_eq!(got, want, "n={n} width={width}");
            }
        }
    }

    #[test]
    fn iterated_batch_matches_scalar_chains() {
        let seeds: Vec<Vec<u8>> = (0..6).map(|i| message(16, i)).collect();
        let refs: Vec<&[u8]> = seeds.iter().map(|s| s.as_slice()).collect();
        for width in LaneWidth::ALL {
            let got = digest_iterated_batch::<Sha1>(&refs, 5, width);
            let want: Vec<_> = seeds.iter().map(|s| Sha1::digest_iterated(s, 5)).collect();
            assert_eq!(got, want, "width={width}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1 iteration")]
    fn iterated_batch_rejects_zero_iterations() {
        let _ = digest_iterated_batch::<Md5>(&[b"x"], 0, LaneWidth::X8);
    }
}
