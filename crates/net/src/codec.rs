//! The compact binary wire format for model exchanges.
//!
//! Every message on the simulated network is one self-describing *frame*
//! sharing a fixed 22-byte header:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"HNET"
//! 4       1     format version (1 or 2)
//! 5       1     frame kind (see below; the version pins the legal kinds)
//! 6       4     sender id (u32 LE; SERVER_SENDER for broadcasts)
//! 10      4     cycle index (u32 LE)
//! 14      4     total parameter count n (u32 LE)
//! 18      4     active/kept parameter count k (u32 LE; k = n for full)
//! ...           kind-specific body (below)
//! end-4   4     CRC32 (IEEE) over all preceding bytes, u32 LE
//! ```
//!
//! **Version 1** (the original format, byte-frozen — old captures must
//! keep decoding bit-for-bit):
//!
//! - kind 0 `full`: body = `4·n` f32 LE values.
//! - kind 1 `masked`: body = `⌈n/8⌉` activity bitset (LSB-first) +
//!   `4·k` f32 LE values of the active parameters, in mask order.
//!
//! **Version 2** (negotiated compression; see [`CompressionMode`]):
//!
//! - kind 2 `delta`: body = `⌈n/8⌉` changed-bitset + `4·k` raw f32
//!   values of the entries whose bits differ from the broadcast base.
//!   *Lossless*: reconstruction copies bits, no arithmetic.
//! - kind 3 `topk`: body = `4·k` strictly-ascending u32 LE indices +
//!   `4·k` raw f32 values. Kept entries are bit-exact; dropped entries
//!   revert to the base. Selection ranks `|update − base|` with
//!   [`f32::total_cmp`], ties broken toward the lower index.
//! - kind 4 `qf16`: body = optional `⌈n/8⌉` bitset (present iff k < n) +
//!   `2·k` IEEE binary16 LE *delta* values (`update − base`, round to
//!   nearest even, finite overflow saturating to ±65504, the largest
//!   finite binary16).
//! - kind 5 `qi8`: body = optional bitset (iff k < n) + 4-byte f32 LE
//!   per-tensor scale + `k` i8 quantized deltas
//!   (`round(delta/scale)` clamped to ±127, `scale = max|delta|/127`).
//!
//! The v1 `f32` payloads are copied bit-for-bit
//! (`to_le_bytes`/`from_le_bytes`), so the codec is roundtrip-exact for
//! every bit pattern including NaN payload bits and infinities. Masked
//! frames carry only the parameters the sender actually trained; the
//! receiver reconstructs the full vector against its own copy of the
//! broadcast global, which is valid because a soft-trained client's
//! masked-out parameters still hold exactly the broadcast values (see
//! `helios_fl::LocalUpdate::param_mask`). The v2 modes push the same
//! idea further: every quantity on the wire is a deterministic pure
//! function of `(update, base)`, so any two receivers holding the same
//! broadcast reconstruct identical bits.

use crate::error::NetError;
use helios_tensor::{mask_bit, mask_ones, mask_population, MaskWordsError, UnitMask};
use serde::{Deserialize, Serialize};

/// Magic bytes opening every frame.
pub(crate) const MAGIC: [u8; 4] = *b"HNET";

/// Original wire format version (full + masked frames).
pub(crate) const VERSION: u8 = 1;

/// Wire format version carrying the compressed frame kinds.
pub(crate) const VERSION_V2: u8 = 2;

/// Sender id used for server→client broadcast frames.
pub const SERVER_SENDER: u32 = u32::MAX;

/// Fixed byte size of the frame header (before bitset and payload).
pub(crate) const HEADER_BYTES: usize = 22;

/// Byte size of the CRC32 trailer.
pub(crate) const CHECKSUM_BYTES: usize = 4;

const KIND_FULL: u8 = 0;
const KIND_MASKED: u8 = 1;
const KIND_DELTA: u8 = 2;
const KIND_TOPK: u8 = 3;
const KIND_QF16: u8 = 4;
const KIND_QI8: u8 = 5;

/// Upload frame layout negotiated for a run — the knob a
/// `CompressionConfig` (in `helios_net::link`) carries.
///
/// `None` keeps the byte-frozen v1 layouts; every other mode emits
/// version-2 frames encoded *against the broadcast global* the receiver
/// already holds. `Delta` is lossless (bit-copy of changed entries);
/// `TopK`, `QuantF16`, and `QuantInt8` are lossy with deterministic,
/// documented error behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CompressionMode {
    /// v1 frames (full / masked) — the bit-transparent default.
    #[default]
    None,
    /// v2 delta frames: bitwise-changed entries only. Lossless.
    Delta,
    /// v2 top-k sparsification by `|update − base|`. Lossy: dropped
    /// entries revert to the broadcast base.
    TopK,
    /// v2 f16-quantized deltas. Lossy: per-entry relative error ≤ 2⁻¹¹
    /// for deltas in the binary16 normal range.
    QuantF16,
    /// v2 int8-quantized deltas with a per-tensor scale. Lossy:
    /// per-entry absolute error ≤ scale/2 (up to f32 rounding).
    QuantInt8,
}

impl CompressionMode {
    /// Whether reconstruction is bit-exact for every update.
    pub fn is_lossless(self) -> bool {
        matches!(self, CompressionMode::None | CompressionMode::Delta)
    }
}

/// The v2 mode tag of an encoded frame, peeked from the version and kind
/// bytes without a full decode — `None` for v1 frames (and for byte
/// strings too short or unrecognizable to classify). The transport uses
/// this to stamp `FrameSent` trace events; v1 frames deliberately map to
/// `None` so traces captured before wire v2 stay byte-identical.
pub fn frame_mode(bytes: &[u8]) -> Option<&'static str> {
    if bytes.len() < HEADER_BYTES || bytes[..4] != MAGIC || bytes[4] != VERSION_V2 {
        return None;
    }
    match bytes[5] {
        KIND_DELTA => Some("delta"),
        KIND_TOPK => Some("topk"),
        KIND_QF16 => Some("qf16"),
        KIND_QI8 => Some("qi8"),
        _ => None,
    }
}

/// IEEE 802.3 CRC32 slicing tables, built at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[j][b]`
/// is the CRC register after byte `b` followed by `j` zero bytes, which
/// lets [`crc32`] fold 16 input bytes per step with independent lookups.
/// A `static` (not `const`) so the 16 KiB live once in the binary
/// instead of being inlined at every use.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        j += 1;
    }
    tables
};

/// The IEEE CRC32 of `data` (reflected polynomial 0xEDB88320).
///
/// Slicing-by-16: each step XORs the register into the first four of 16
/// input bytes and replaces sixteen dependent table steps with sixteen
/// independent lookups, one per byte, each through the table that
/// already accounts for the bytes still to follow it in the block. The
/// tail shorter than a block goes through the bytewise recurrence, so
/// the value is the bytewise CRC for every length and alignment.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    // Four lookups for one little-endian word whose lowest byte has
    // `hi` bytes of the block after it.
    let fold = |w: u32, hi: usize| {
        t[hi][(w & 0xff) as usize]
            ^ t[hi - 1][((w >> 8) & 0xff) as usize]
            ^ t[hi - 2][((w >> 16) & 0xff) as usize]
            ^ t[hi - 3][(w >> 24) as usize]
    };
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut c = 0xffff_ffffu32;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        // The twelve lookups that do not involve the register come
        // first, so only the last four sit on the loop-carried
        // dependency chain (measured: 2x over folding the register in
        // first).
        let ahead = fold(word(&b[4..]), 11) ^ fold(word(&b[8..]), 7) ^ fold(word(&b[12..]), 3);
        c = ahead ^ fold(word(b) ^ c, 15);
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// Byte-level breakdown of one frame — the report the benchmarks use to
/// show that a soft-trained straggler's upload is genuinely smaller than
/// a full-model upload.
///
/// The `index_bytes`/`scale_bytes` fields arrived with wire v2 and carry
/// `#[serde(default)]`, so artifacts written before v2 still parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WireSize {
    /// Fixed header bytes (`HEADER_BYTES`).
    pub header_bytes: usize,
    /// Activity/changed-bitset bytes (`⌈n/8⌉` when present, else 0).
    pub mask_bytes: usize,
    /// Index-block bytes (4 per kept entry, top-k frames only).
    #[serde(default)]
    pub index_bytes: usize,
    /// Per-tensor scale bytes (4 for int8 frames, else 0).
    #[serde(default)]
    pub scale_bytes: usize,
    /// Value payload bytes (4 per f32, 2 per f16, 1 per i8 entry).
    pub payload_bytes: usize,
    /// CRC trailer bytes (`CHECKSUM_BYTES`).
    pub checksum_bytes: usize,
}

impl WireSize {
    /// Size of a full-model frame carrying `params` parameters.
    pub fn full(params: usize) -> Self {
        WireSize {
            header_bytes: HEADER_BYTES,
            mask_bytes: 0,
            index_bytes: 0,
            scale_bytes: 0,
            payload_bytes: 4 * params,
            checksum_bytes: CHECKSUM_BYTES,
        }
    }

    /// Size of a masked frame carrying `active` of `params` parameters.
    pub(crate) fn masked(params: usize, active: usize) -> Self {
        WireSize {
            header_bytes: HEADER_BYTES,
            mask_bytes: params.div_ceil(8),
            index_bytes: 0,
            scale_bytes: 0,
            payload_bytes: 4 * active,
            checksum_bytes: CHECKSUM_BYTES,
        }
    }

    /// Size of a v2 delta frame carrying `changed` of `params` entries
    /// (same shape as a masked frame: bitset + raw f32 values).
    pub(crate) fn delta(params: usize, changed: usize) -> Self {
        WireSize::masked(params, changed)
    }

    /// Size of a v2 top-k frame keeping `kept` entries.
    pub(crate) fn topk(kept: usize) -> Self {
        WireSize {
            header_bytes: HEADER_BYTES,
            mask_bytes: 0,
            index_bytes: 4 * kept,
            scale_bytes: 0,
            payload_bytes: 4 * kept,
            checksum_bytes: CHECKSUM_BYTES,
        }
    }

    /// Size of a v2 f16-quantized frame carrying `active` of `params`
    /// entries (the bitset is omitted when every entry is active).
    pub(crate) fn quant_f16(params: usize, active: usize) -> Self {
        WireSize {
            header_bytes: HEADER_BYTES,
            mask_bytes: if active < params {
                params.div_ceil(8)
            } else {
                0
            },
            index_bytes: 0,
            scale_bytes: 0,
            payload_bytes: 2 * active,
            checksum_bytes: CHECKSUM_BYTES,
        }
    }

    /// Size of a v2 int8-quantized frame carrying `active` of `params`
    /// entries plus its per-tensor scale.
    pub(crate) fn quant_i8(params: usize, active: usize) -> Self {
        WireSize {
            header_bytes: HEADER_BYTES,
            mask_bytes: if active < params {
                params.div_ceil(8)
            } else {
                0
            },
            index_bytes: 0,
            scale_bytes: 4,
            payload_bytes: active,
            checksum_bytes: CHECKSUM_BYTES,
        }
    }

    /// Total frame size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.header_bytes
            + self.mask_bytes
            + self.index_bytes
            + self.scale_bytes
            + self.payload_bytes
            + self.checksum_bytes
    }
}

/// Converts an `f32` to IEEE 754 binary16 bits, rounding to nearest even.
///
/// Deterministic pure-integer arithmetic — no platform FPU mode can
/// perturb it. Finite values beyond the binary16 range saturate to
/// ±65504; infinities stay infinite; NaNs stay NaN with the top 10
/// payload bits preserved (a zeroed payload is forced to 1 to keep the
/// value NaN). Values below the smallest subnormal round to signed zero.
pub(crate) fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        if man == 0 {
            return sign | 0x7c00; // ±inf
        }
        let payload = ((man >> 13) as u16) & 0x03ff;
        return sign | 0x7c00 | if payload == 0 { 1 } else { payload };
    }
    let unbiased = exp - 127;
    if unbiased >= 16 {
        return sign | 0x7bff; // finite overflow → ±65504
    }
    if unbiased >= -14 {
        // Normal binary16 range: drop 13 mantissa bits with RNE.
        let mut h = (((unbiased + 15) as u32) << 10) | (man >> 13);
        let rest = man & 0x1fff;
        if rest > 0x1000 || (rest == 0x1000 && h & 1 != 0) {
            h += 1;
        }
        if h >= 0x7c00 {
            return sign | 0x7bff; // rounding carried past the max
        }
        return sign | h as u16;
    }
    if unbiased >= -25 {
        // Subnormal binary16: shift the (implicit-bit) mantissa into
        // units of 2⁻²⁴ with RNE.
        let m = man | 0x0080_0000;
        let shift = (-unbiased - 1) as u32;
        let h = (m >> shift) as u16;
        let rest = m & ((1 << shift) - 1);
        let half = 1u32 << (shift - 1);
        if rest > half || (rest == half && h & 1 != 0) {
            return sign | (h + 1);
        }
        return sign | h;
    }
    sign // underflow to signed zero
}

/// Converts IEEE 754 binary16 bits to the exactly-representable `f32`.
///
/// Every binary16 value (including subnormals, ±0, ±inf, and NaN
/// payloads) maps to a distinct `f32` bit pattern, so
/// `f32_to_f16_bits(f16_bits_to_f32(h)) == h` for all 65536 inputs.
pub(crate) fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = (u32::from(h) & 0x8000) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = u32::from(h & 0x03ff);
    let bits = match exp {
        0 => {
            if man == 0 {
                sign // ±0
            } else {
                // Subnormal: normalize. msb ∈ 0..=9 is the position of
                // the leading set bit; value = man · 2⁻²⁴.
                let msb = 31 - man.leading_zeros();
                let exp32 = (msb + 103) << 23;
                let man32 = (man << (23 - msb)) & 0x007f_ffff;
                sign | exp32 | man32
            }
        }
        0x1f => sign | 0x7f80_0000 | (man << 13), // inf / NaN (payload kept)
        _ => sign | ((u32::from(exp) + 112) << 23) | (man << 13),
    };
    f32::from_bits(bits)
}

/// A decoded wire frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Sender id ([`SERVER_SENDER`] for broadcasts).
    pub sender: u32,
    /// Cycle index the frame belongs to.
    pub cycle: u32,
    /// The parameter payload.
    pub payload: Payload,
}

/// The parameter payload of a [`Frame`].
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Every parameter, in canonical order (v1).
    Full(Vec<f32>),
    /// Only the actively trained parameters, plus the activity bitset
    /// locating them in the full vector (v1).
    Masked {
        /// Per-parameter activity (length = total parameter count).
        mask: UnitMask,
        /// Values of the active parameters, in mask order.
        active: Vec<f32>,
    },
    /// Raw values of the entries whose bits differ from the broadcast
    /// base (v2, lossless).
    Delta {
        /// Per-parameter changed flag (length = total parameter count).
        changed: UnitMask,
        /// Values of the changed parameters, in bitset order.
        values: Vec<f32>,
    },
    /// The k largest-magnitude update entries by `|update − base|`
    /// (v2, lossy: dropped entries revert to base).
    TopK {
        /// Total parameter count of the model.
        len: usize,
        /// Strictly ascending indices of the kept entries.
        indices: Vec<u32>,
        /// Raw update values at those indices.
        values: Vec<f32>,
    },
    /// IEEE binary16 quantized deltas against the base (v2, lossy).
    QuantF16 {
        /// Per-parameter activity (length = total parameter count).
        mask: UnitMask,
        /// binary16 bits of `update − base` for the active entries.
        values: Vec<u16>,
    },
    /// int8 quantized deltas with a per-tensor scale (v2, lossy).
    QuantInt8 {
        /// Per-parameter activity (length = total parameter count).
        mask: UnitMask,
        /// Dequantization scale: `delta ≈ q · scale`.
        scale: f32,
        /// Quantized deltas for the active entries.
        values: Vec<i8>,
    },
}

/// Checks that a bitset/value pairing agrees: `|values| == popcount`.
fn check_bitset_pairing(mask: &UnitMask, values: usize) -> Result<(), NetError> {
    let counted = mask.count_ones();
    if counted != values {
        return Err(NetError::MaskCountMismatch {
            declared: values,
            counted,
        });
    }
    Ok(())
}

fn check_base(frame_len: usize, base: &[f32]) -> Result<(), NetError> {
    if frame_len != base.len() {
        return Err(NetError::ParamLengthMismatch {
            expected: base.len(),
            actual: frame_len,
        });
    }
    Ok(())
}

impl Frame {
    /// Reassembles the full parameter vector. For every kind except
    /// `Full`, entries the frame does not carry are filled from `base` —
    /// the receiver's copy of the global vector the sender trained from.
    /// Quantized entries whose encoded delta is exactly ±0 keep the base
    /// bits untouched, so an update that didn't move a parameter never
    /// perturbs it (not even `-0.0` → `+0.0`).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::ParamLengthMismatch`] when `base` does not
    /// match the frame's parameter count (full frames do not consult
    /// `base` and only check the length), [`NetError::MaskCountMismatch`]
    /// when a bitset's population disagrees with the value count (decoded
    /// frames always agree, but a hand-built [`Frame`] may not), or
    /// [`NetError::BadIndexBlock`] for out-of-range or non-ascending
    /// top-k indices.
    pub fn into_params(self, base: &[f32]) -> Result<Vec<f32>, NetError> {
        match self.payload {
            Payload::Full(p) => {
                check_base(p.len(), base)?;
                Ok(p)
            }
            Payload::Masked {
                mask: bits,
                active: values,
            }
            | Payload::Delta {
                changed: bits,
                values,
            } => {
                check_base(bits.len(), base)?;
                check_bitset_pairing(&bits, values.len())?;
                let mut out = base.to_vec();
                for (i, v) in bits.iter_ones().zip(values) {
                    out[i] = v;
                }
                Ok(out)
            }
            Payload::TopK {
                len,
                indices,
                values,
            } => {
                check_base(len, base)?;
                if indices.len() != values.len() {
                    return Err(NetError::MaskCountMismatch {
                        declared: values.len(),
                        counted: indices.len(),
                    });
                }
                check_indices(&indices, len)?;
                let mut out = base.to_vec();
                for (&i, &v) in indices.iter().zip(&values) {
                    out[i as usize] = v;
                }
                Ok(out)
            }
            Payload::QuantF16 { mask, values } => {
                check_base(mask.len(), base)?;
                check_bitset_pairing(&mask, values.len())?;
                let mut out = base.to_vec();
                for (i, h) in mask.iter_ones().zip(values) {
                    // ±0 delta: keep the base bits untouched.
                    if h & 0x7fff != 0 {
                        out[i] += f16_bits_to_f32(h);
                    }
                }
                Ok(out)
            }
            Payload::QuantInt8 {
                mask,
                scale,
                values,
            } => {
                check_base(mask.len(), base)?;
                check_bitset_pairing(&mask, values.len())?;
                if !(scale.is_finite() && scale >= 0.0) {
                    return Err(NetError::BadScale {
                        scale_bits: scale.to_bits(),
                    });
                }
                let mut out = base.to_vec();
                for (i, q) in mask.iter_ones().zip(values) {
                    if q != 0 {
                        out[i] += f32::from(q) * scale;
                    }
                }
                Ok(out)
            }
        }
    }
}

/// Validates a top-k index block: strictly ascending, all below `len`.
fn check_indices(indices: &[u32], len: usize) -> Result<(), NetError> {
    let mut prev: Option<u32> = None;
    for &i in indices {
        if i as usize >= len {
            return Err(NetError::BadIndexBlock {
                what: format!("index {i} out of range for {len} parameters"),
            });
        }
        if let Some(p) = prev {
            if i <= p {
                return Err(NetError::BadIndexBlock {
                    what: format!("indices not strictly ascending ({p} then {i})"),
                });
            }
        }
        prev = Some(i);
    }
    Ok(())
}

fn check_len(params: usize) -> Result<u32, NetError> {
    u32::try_from(params).map_err(|_| NetError::TooManyParams(params))
}

fn push_header(buf: &mut Vec<u8>, kind: u8, sender: u32, cycle: u32, n: u32, k: u32) {
    buf.extend_from_slice(&MAGIC);
    buf.push(if kind <= KIND_MASKED {
        VERSION
    } else {
        VERSION_V2
    });
    buf.push(kind);
    buf.extend_from_slice(&sender.to_le_bytes());
    buf.extend_from_slice(&cycle.to_le_bytes());
    buf.extend_from_slice(&n.to_le_bytes());
    buf.extend_from_slice(&k.to_le_bytes());
}

/// Validates a parameter mask given as a `UnitMask`'s words for `n`
/// parameters and returns its population.
fn checked_population(words: &[u64], n: usize) -> Result<usize, NetError> {
    mask_population(words, n).map_err(|e| match e {
        MaskWordsError::WordCount => NetError::MaskLengthMismatch {
            params: n,
            mask: words.len(),
        },
        MaskWordsError::PaddingSet => NetError::MaskPaddingSet { params: n },
    })
}

/// Appends the wire bitset of an `n`-bit word mask: the words'
/// little-endian bytes, cut to ⌈n/8⌉.
fn push_bitset(buf: &mut Vec<u8>, words: &[u64], n: usize) {
    let bytes = words.iter().flat_map(|w| w.to_le_bytes());
    buf.extend(bytes.take(n.div_ceil(8)));
}

/// Appends `values` as one block of little-endian f32 words.
fn push_f32_block(buf: &mut Vec<u8>, values: &[f32]) {
    let start = buf.len();
    buf.resize(start + 4 * values.len(), 0);
    for (word, v) in buf[start..].chunks_exact_mut(4).zip(values) {
        word.copy_from_slice(&v.to_le_bytes());
    }
}

fn seal(mut buf: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Encodes a full parameter vector.
///
/// # Errors
///
/// Returns [`NetError::TooManyParams`] when the vector exceeds the `u32`
/// length field.
pub fn encode_full(sender: u32, cycle: u32, params: &[f32]) -> Result<Vec<u8>, NetError> {
    let n = check_len(params.len())?;
    let mut buf = Vec::with_capacity(WireSize::full(params.len()).total_bytes());
    push_header(&mut buf, KIND_FULL, sender, cycle, n, n);
    push_f32_block(&mut buf, params);
    Ok(seal(buf))
}

/// Encodes a masked update: the activity bitset plus only the active
/// parameter values. `mask` holds one bit per parameter in LSB-first
/// `u64` words (a `UnitMask`'s words).
///
/// # Errors
///
/// Returns [`NetError::MaskLengthMismatch`] when `mask` is not ⌈n/64⌉
/// words for `n` parameters, [`NetError::MaskPaddingSet`] when a bit
/// past the last parameter is set, or [`NetError::TooManyParams`] for
/// oversized vectors.
pub fn encode_masked(
    sender: u32,
    cycle: u32,
    params: &[f32],
    mask: &[u64],
) -> Result<Vec<u8>, NetError> {
    let active = checked_population(mask, params.len())?;
    let n = check_len(params.len())?;
    let k = check_len(active)?;
    let mut buf = Vec::with_capacity(WireSize::masked(params.len(), active).total_bytes());
    push_header(&mut buf, KIND_MASKED, sender, cycle, n, k);
    push_bitset(&mut buf, mask, params.len());
    // `checked_population` bounds every set bit below `params.len()`.
    for i in mask_ones(mask) {
        buf.extend_from_slice(&params[i].to_le_bytes());
    }
    Ok(seal(buf))
}

/// Encodes a v2 delta frame: the bitset of entries whose bits differ
/// from `base`, plus their raw f32 values. Lossless by construction —
/// reconstruction copies bits, no arithmetic — and strictly no larger
/// than the masked layout whenever the update obeys the soft-training
/// invariant (masked-out entries hold the broadcast values, so they are
/// never "changed").
///
/// # Errors
///
/// Returns [`NetError::ParamLengthMismatch`] when `base` and `params`
/// disagree, or [`NetError::TooManyParams`] for oversized vectors.
pub fn encode_delta(
    sender: u32,
    cycle: u32,
    params: &[f32],
    base: &[f32],
) -> Result<Vec<u8>, NetError> {
    check_base(params.len(), base)?;
    let n = check_len(params.len())?;
    let differs = |(p, b): (&f32, &f32)| p.to_bits() != b.to_bits();
    let count = params.iter().zip(base).filter(|&pb| differs(pb)).count();
    let k = check_len(count)?;
    let mut buf = Vec::with_capacity(WireSize::delta(params.len(), count).total_bytes());
    push_header(&mut buf, KIND_DELTA, sender, cycle, n, k);
    // One pass fills the bitset a byte at a time (into its reserved
    // slot) while the changed values stream in behind it.
    let bitset_at = buf.len();
    buf.resize(bitset_at + params.len().div_ceil(8), 0);
    for (byte, (ps, bs)) in params.chunks(8).zip(base.chunks(8)).enumerate() {
        let mut packed = 0u8;
        for (bit, (p, b)) in ps.iter().zip(bs).enumerate() {
            if differs((p, b)) {
                packed |= 1 << bit;
                buf.extend_from_slice(&p.to_le_bytes());
            }
        }
        buf[bitset_at + byte] = packed;
    }
    Ok(seal(buf))
}

/// Encodes a v2 top-k frame keeping (at most) the `k` largest-magnitude
/// entries of `update − base` as `(index, raw value)` pairs.
///
/// Selection is fully deterministic: candidates are the entries whose
/// bits differ from `base` (an unchanged entry carries no information),
/// ranked by `|params[i] − base[i]|` descending under
/// [`f32::total_cmp`] — which totally orders NaN magnitudes above
/// infinity, so NaN-carrying entries are always kept — with ties broken
/// toward the lower index. Kept entries reconstruct bit-exactly; dropped
/// entries revert to the base.
///
/// # Errors
///
/// Returns [`NetError::ParamLengthMismatch`] when `base` and `params`
/// disagree, or [`NetError::TooManyParams`] for oversized vectors.
pub fn encode_topk(
    sender: u32,
    cycle: u32,
    params: &[f32],
    base: &[f32],
    k: usize,
) -> Result<Vec<u8>, NetError> {
    check_base(params.len(), base)?;
    let n = check_len(params.len())?;
    let mut candidates: Vec<(u32, f32)> = params
        .iter()
        .zip(base)
        .enumerate()
        .filter(|(_, (p, b))| p.to_bits() != b.to_bits())
        .map(|(i, (p, b))| (i as u32, (p - b).abs()))
        .collect();
    // Only the kept *set* reaches the wire (in index order), so a
    // partition around the k-th ranked candidate replaces the full sort.
    // The comparator is a strict total order — the index breaks every
    // magnitude tie — so that set is unique.
    if 0 < k && k < candidates.len() {
        candidates.select_nth_unstable_by(k - 1, topk_rank);
    }
    candidates.truncate(k);
    let mut kept: Vec<u32> = candidates.into_iter().map(|(i, _)| i).collect();
    kept.sort_unstable();
    let kk = check_len(kept.len())?;
    let mut buf = Vec::with_capacity(WireSize::topk(kept.len()).total_bytes());
    push_header(&mut buf, KIND_TOPK, sender, cycle, n, kk);
    for &i in &kept {
        buf.extend_from_slice(&i.to_le_bytes());
    }
    for &i in &kept {
        buf.extend_from_slice(&params[i as usize].to_le_bytes());
    }
    Ok(seal(buf))
}

/// Top-k ranking of `(index, |update − base|)` candidates: magnitude
/// descending under [`f32::total_cmp`], ties toward the lower index.
fn topk_rank(a: &(u32, f32), b: &(u32, f32)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Encodes a v2 f16-quantized frame: `update − base` deltas of the
/// active entries as IEEE binary16, round-to-nearest-even, finite
/// overflow saturating to ±65504. The bitset rides along only when
/// a mask leaves some entries inactive.
///
/// Determinism argument: binary16 conversion is pure integer bit
/// manipulation (`f32_to_f16_bits`), and the delta subtraction is a
/// single IEEE f32 operation — identical on every host.
///
/// # Errors
///
/// Returns [`NetError::ParamLengthMismatch`] when `base` and `params`
/// disagree, the [`encode_masked`] mask errors for a bad mask, or
/// [`NetError::TooManyParams`] for oversized vectors.
pub fn encode_quant_f16(
    sender: u32,
    cycle: u32,
    params: &[f32],
    mask: Option<&[u64]>,
    base: &[f32],
) -> Result<Vec<u8>, NetError> {
    check_base(params.len(), base)?;
    let (n, k, all) = quant_extent(params.len(), mask)?;
    let mut buf = Vec::with_capacity(WireSize::quant_f16(params.len(), k as usize).total_bytes());
    push_header(&mut buf, KIND_QF16, sender, cycle, n, k);
    if let Some(m) = mask {
        if !all {
            push_bitset(&mut buf, m, params.len());
        }
    }
    for (i, (p, b)) in params.iter().zip(base).enumerate() {
        if mask.is_none_or(|m| mask_bit(m, i)) {
            // Bit-equal entries encode a zero delta so the receiver keeps
            // the base bits exactly (`inf - inf` would otherwise smuggle
            // a NaN into an unchanged slot).
            let h = if p.to_bits() == b.to_bits() {
                0
            } else {
                f32_to_f16_bits(p - b)
            };
            buf.extend_from_slice(&h.to_le_bytes());
        }
    }
    Ok(seal(buf))
}

/// Encodes a v2 int8-quantized frame: active deltas scaled by the
/// per-tensor scale `max|delta|/127` (computed over *finite* deltas;
/// non-finite deltas quantize to 0 and reconstruct as the base value),
/// rounded half-away-from-zero and clamped to ±127.
///
/// Determinism argument: the scale is a fold over the deltas in index
/// order with `f32::max` (order-insensitive for the finite values it
/// sees), and `f32::round` ties away from zero — both exactly specified
/// by IEEE 754, so every host produces identical bytes.
///
/// # Errors
///
/// Returns [`NetError::ParamLengthMismatch`] when `base` and `params`
/// disagree, the [`encode_masked`] mask errors for a bad mask, or
/// [`NetError::TooManyParams`] for oversized vectors.
pub fn encode_quant_i8(
    sender: u32,
    cycle: u32,
    params: &[f32],
    mask: Option<&[u64]>,
    base: &[f32],
) -> Result<Vec<u8>, NetError> {
    check_base(params.len(), base)?;
    let (n, k, all) = quant_extent(params.len(), mask)?;
    let mut max_abs = 0.0f32;
    for (i, (p, b)) in params.iter().zip(base).enumerate() {
        if mask.is_none_or(|m| mask_bit(m, i)) {
            let d = p - b;
            if d.is_finite() {
                max_abs = max_abs.max(d.abs());
            }
        }
    }
    let scale = max_abs / 127.0;
    let mut buf = Vec::with_capacity(WireSize::quant_i8(params.len(), k as usize).total_bytes());
    push_header(&mut buf, KIND_QI8, sender, cycle, n, k);
    if let Some(m) = mask {
        if !all {
            push_bitset(&mut buf, m, params.len());
        }
    }
    buf.extend_from_slice(&scale.to_le_bytes());
    for (i, (p, b)) in params.iter().zip(base).enumerate() {
        if mask.is_none_or(|m| mask_bit(m, i)) {
            let d = p - b;
            let q = if d.is_finite() && scale > 0.0 {
                (d / scale).round().clamp(-127.0, 127.0) as i8
            } else {
                0
            };
            buf.push(q as u8);
        }
    }
    Ok(seal(buf))
}

/// Shared mask bookkeeping for the quantized encoders: validates the
/// mask length and returns `(n, k, mask_covers_everything)`.
fn quant_extent(params: usize, mask: Option<&[u64]>) -> Result<(u32, u32, bool), NetError> {
    let n = check_len(params)?;
    match mask {
        Some(m) => {
            let active = checked_population(m, params)?;
            Ok((n, check_len(active)?, active == params))
        }
        None => Ok((n, n, true)),
    }
}

/// Encodes a local update, choosing the masked layout when a mask is
/// present and the full layout otherwise.
///
/// # Errors
///
/// Same conditions as [`encode_full`] and [`encode_masked`].
pub(crate) fn encode_update(
    sender: u32,
    cycle: u32,
    params: &[f32],
    mask: Option<&[u64]>,
) -> Result<Vec<u8>, NetError> {
    match mask {
        Some(m) => encode_masked(sender, cycle, params, m),
        None => encode_full(sender, cycle, params),
    }
}

/// Fast integrity check: magic, minimum length, supported version, and
/// CRC32. Used by the transport to model receiver-side corruption
/// detection without a full decode.
///
/// The version byte is checked so that `verify` never accepts a frame
/// [`decode`] would reject as [`NetError::UnsupportedVersion`] — without
/// it, a corrupted-in-flight version byte whose CRC happened to survive
/// (or a newer sender talking to an older receiver) would pass the
/// receiver's integrity gate and only fail later, outside the
/// retry/fault-injection path that is supposed to handle it.
pub fn verify(bytes: &[u8]) -> bool {
    if bytes.len() < HEADER_BYTES + CHECKSUM_BYTES || bytes[..4] != MAGIC {
        return false;
    }
    if bytes[4] != VERSION && bytes[4] != VERSION_V2 {
        return false;
    }
    let body = &bytes[..bytes.len() - CHECKSUM_BYTES];
    let mut stored = [0u8; 4];
    stored.copy_from_slice(&bytes[bytes.len() - CHECKSUM_BYTES..]);
    crc32(body) == u32::from_le_bytes(stored)
}

fn read_u32(bytes: &[u8], offset: usize) -> u32 {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&bytes[offset..offset + 4]);
    u32::from_le_bytes(raw)
}

fn read_f32(bytes: &[u8], offset: usize) -> f32 {
    f32::from_bits(read_u32(bytes, offset))
}

/// Reads an LSB-first bitset of `n` bits starting at `offset` and checks
/// its population against the declared count `k`. Padding bits in the
/// last byte are ignored (cleared).
fn read_bitset(bytes: &[u8], offset: usize, n: usize, k: usize) -> Result<UnitMask, NetError> {
    let mask = UnitMask::from_le_bytes(&bytes[offset..], n);
    check_bitset_pairing(&mask, k)?;
    Ok(mask)
}

/// The `count` little-endian u32 words starting at `offset`.
fn read_words(bytes: &[u8], offset: usize, count: usize) -> impl Iterator<Item = u32> + '_ {
    bytes[offset..offset + 4 * count]
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
}

fn read_f32_block(bytes: &[u8], offset: usize, count: usize) -> Vec<f32> {
    read_words(bytes, offset, count)
        .map(f32::from_bits)
        .collect()
}

/// Decodes and validates one frame (either version).
///
/// # Errors
///
/// Returns a [`NetError`] describing the first violated invariant: bad
/// magic, unsupported version, truncation, trailing bytes, checksum
/// mismatch, unknown kind (each version pins its own legal kind set),
/// a bitset/active-count disagreement, a malformed top-k index block,
/// or a non-finite quantization scale.
pub fn decode(bytes: &[u8]) -> Result<Frame, NetError> {
    if bytes.len() < HEADER_BYTES + CHECKSUM_BYTES {
        return Err(NetError::Truncated {
            needed: HEADER_BYTES + CHECKSUM_BYTES,
            available: bytes.len(),
        });
    }
    if bytes[..4] != MAGIC {
        return Err(NetError::BadMagic);
    }
    let version = bytes[4];
    if version != VERSION && version != VERSION_V2 {
        return Err(NetError::UnsupportedVersion(version));
    }
    let body = &bytes[..bytes.len() - CHECKSUM_BYTES];
    let stored = read_u32(bytes, bytes.len() - CHECKSUM_BYTES);
    let computed = crc32(body);
    if stored != computed {
        return Err(NetError::ChecksumMismatch { stored, computed });
    }
    let kind = bytes[5];
    let sender = read_u32(bytes, 6);
    let cycle = read_u32(bytes, 10);
    let n = read_u32(bytes, 14) as usize;
    let k = read_u32(bytes, 18) as usize;
    // Each version owns its kind set: a v1 receiver must keep decoding
    // old captures unchanged, and a v2 kind under a v1 version byte is a
    // malformed frame, not a negotiation.
    let version_ok = match kind {
        KIND_FULL | KIND_MASKED => version == VERSION,
        KIND_DELTA | KIND_TOPK | KIND_QF16 | KIND_QI8 => version == VERSION_V2,
        _ => false,
    };
    if !version_ok {
        return Err(NetError::UnknownFrameKind(kind));
    }
    if k > n {
        return Err(NetError::MaskCountMismatch {
            declared: k,
            counted: n,
        });
    }
    let expected = match kind {
        KIND_FULL => WireSize::full(n).total_bytes(),
        KIND_MASKED => WireSize::masked(n, k).total_bytes(),
        KIND_DELTA => WireSize::delta(n, k).total_bytes(),
        KIND_TOPK => WireSize::topk(k).total_bytes(),
        KIND_QF16 => WireSize::quant_f16(n, k).total_bytes(),
        _ => WireSize::quant_i8(n, k).total_bytes(),
    };
    if bytes.len() < expected {
        return Err(NetError::Truncated {
            needed: expected,
            available: bytes.len(),
        });
    }
    if bytes.len() > expected {
        return Err(NetError::TrailingBytes {
            expected,
            actual: bytes.len(),
        });
    }
    let payload = match kind {
        KIND_FULL => {
            if k != n {
                return Err(NetError::MaskCountMismatch {
                    declared: k,
                    counted: n,
                });
            }
            Payload::Full(read_f32_block(bytes, HEADER_BYTES, n))
        }
        KIND_MASKED | KIND_DELTA => {
            let mask_bytes = n.div_ceil(8);
            let mask = read_bitset(bytes, HEADER_BYTES, n, k)?;
            let values = read_f32_block(bytes, HEADER_BYTES + mask_bytes, k);
            if kind == KIND_MASKED {
                Payload::Masked {
                    mask,
                    active: values,
                }
            } else {
                Payload::Delta {
                    changed: mask,
                    values,
                }
            }
        }
        KIND_TOPK => {
            let indices: Vec<u32> = read_words(bytes, HEADER_BYTES, k).collect();
            check_indices(&indices, n)?;
            let values = read_f32_block(bytes, HEADER_BYTES + 4 * k, k);
            Payload::TopK {
                len: n,
                indices,
                values,
            }
        }
        KIND_QF16 => {
            let (mask, off) = read_quant_mask(bytes, n, k)?;
            let values = bytes[off..off + 2 * k]
                .chunks_exact(2)
                .map(|h| u16::from_le_bytes([h[0], h[1]]))
                .collect();
            Payload::QuantF16 { mask, values }
        }
        _ => {
            let (mask, off) = read_quant_mask(bytes, n, k)?;
            let scale = read_f32(bytes, off);
            if !(scale.is_finite() && scale >= 0.0) {
                return Err(NetError::BadScale {
                    scale_bits: scale.to_bits(),
                });
            }
            let values = bytes[off + 4..off + 4 + k]
                .iter()
                .map(|&q| q as i8)
                .collect();
            Payload::QuantInt8 {
                mask,
                scale,
                values,
            }
        }
    };
    Ok(Frame {
        sender,
        cycle,
        payload,
    })
}

/// Reads the optional activity bitset of a quantized frame (present iff
/// `k < n`; an omitted bitset means every entry is active). Returns the
/// materialized mask and the offset just past it.
fn read_quant_mask(bytes: &[u8], n: usize, k: usize) -> Result<(UnitMask, usize), NetError> {
    if k < n {
        let mask = read_bitset(bytes, HEADER_BYTES, n, k)?;
        Ok((mask, HEADER_BYTES + n.div_ceil(8)))
    } else {
        Ok((UnitMask::full(n), HEADER_BYTES))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// Test oracle: the byte-at-a-time CRC32 recurrence [`crc32`] slices.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Deterministic filler bytes.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = helios_tensor::TensorRng::seed_from(seed);
        (0..len).map(|_| rng.below(256) as u8).collect()
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The classic check value for IEEE CRC32.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Every tail length (all 16 remainders) at several block counts.
    #[test]
    fn crc32_matches_bytewise_oracle_at_every_short_length() {
        let data = noise(80, 1);
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), crc32_bytewise(&data[..len]), "{len}");
        }
    }

    /// Frame-sized inputs, cut at arbitrary (unaligned) offsets.
    #[test]
    fn crc32_matches_bytewise_oracle_on_long_and_unaligned_slices() {
        let data = noise(256 * 1024, 2);
        assert_eq!(crc32(&data), crc32_bytewise(&data));
        let cuts = noise(64, 3);
        for pair in cuts.chunks_exact(4) {
            let a = usize::from(pair[0]) * 7 + usize::from(pair[1] % 16);
            let len = (usize::from(pair[2]) << 10 | usize::from(pair[3])).min(data.len() - a);
            let slice = &data[a..a + len];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "offset {a} len {len}");
        }
    }

    fn mask(bits: &[bool]) -> UnitMask {
        bits.iter().copied().collect()
    }

    /// Bitsets pack LSB-first and unpack to the same mask, whatever the
    /// length leaves in the last byte.
    #[test]
    fn bitset_pack_and_unpack_match_the_per_bit_layout() {
        for n in (0..=24).chain([61, 64, 67]) {
            let bits: Vec<bool> = noise(n, n as u64).iter().map(|b| b & 1 != 0).collect();
            let mut per_bit = vec![0u8; n.div_ceil(8)];
            for (i, _) in bits.iter().enumerate().filter(|(_, &on)| on) {
                per_bit[i / 8] |= 1 << (i % 8);
            }
            let m = mask(&bits);
            let mut packed = Vec::new();
            push_bitset(&mut packed, m.words(), n);
            assert_eq!(packed, per_bit, "n = {n}");
            let k = m.count_ones();
            assert_eq!(read_bitset(&packed, 0, n, k).unwrap(), m, "n = {n}");
            // Set padding bits are ignored, as the per-bit reader did.
            if n % 8 != 0 {
                *packed.last_mut().unwrap() |= 0xff << (n % 8);
                assert_eq!(read_bitset(&packed, 0, n, k).unwrap(), m, "n = {n}");
            }
            assert!(matches!(
                read_bitset(&packed, 0, n, k + 1),
                Err(NetError::MaskCountMismatch { .. })
            ));
        }
    }

    /// Recomputes a frame's CRC trailer after a deliberate edit.
    fn reseal(frame: &mut [u8]) {
        let body = frame.len() - CHECKSUM_BYTES;
        let crc = crc32(&frame[..body]).to_le_bytes();
        frame[body..].copy_from_slice(&crc);
    }

    /// A sender that leaves garbage in the bitset's padding bits still
    /// produces a frame that decodes to the same parameters.
    #[test]
    fn set_padding_bits_decode_to_the_same_parameters() {
        let base = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        let trained = vec![10.0, -2.0, 30.0, 40.0, 7.5];
        let m = mask(&[false, true, false, false, true]);
        for frame in [
            encode_masked(1, 0, &trained, m.words()).unwrap(),
            encode_quant_f16(1, 0, &trained, Some(m.words()), &base).unwrap(),
            encode_quant_i8(1, 0, &trained, Some(m.words()), &base).unwrap(),
        ] {
            let clean = decode(&frame).unwrap().into_params(&base).unwrap();
            let mut padded = frame.clone();
            padded[HEADER_BYTES] |= 0b1110_0000;
            reseal(&mut padded);
            assert_ne!(padded, frame);
            let out = decode(&padded).unwrap().into_params(&base).unwrap();
            assert_eq!(bits_of(&out), bits_of(&clean));
        }
    }

    fn bits_of(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Test oracle for [`encode_topk`]: rank every candidate with a full
    /// sort, as the encoder did before it partitioned.
    fn encode_topk_by_full_sort(params: &[f32], base: &[f32], k: usize) -> Vec<u8> {
        let mut candidates: Vec<(u32, f32)> = (0..params.len())
            .filter(|&i| params[i].to_bits() != base[i].to_bits())
            .map(|i| (i as u32, (params[i] - base[i]).abs()))
            .collect();
        candidates.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        candidates.truncate(k);
        let mut kept: Vec<u32> = candidates.into_iter().map(|(i, _)| i).collect();
        kept.sort_unstable();
        let mut buf = Vec::new();
        let (n, kk) = (params.len() as u32, kept.len() as u32);
        push_header(&mut buf, KIND_TOPK, 5, 3, n, kk);
        for &i in &kept {
            buf.extend_from_slice(&i.to_le_bytes());
        }
        for &i in &kept {
            buf.extend_from_slice(&params[i as usize].to_le_bytes());
        }
        seal(buf)
    }

    /// Deltas drawn from a handful of magnitudes, so most ranks are tied
    /// and only the index separates them; NaN, ±inf, −0.0, and subnormal
    /// deltas included. Shape 0 leaves the entry unchanged.
    fn tied_update() -> impl Strategy<Value = Vec<(f32, f32)>> {
        proptest::collection::vec((0u32..10, 0u32..4), 0..96).prop_map(|entries| {
            entries
                .into_iter()
                .map(|(shape, base)| {
                    let base = base as f32 * 0.5;
                    let update = match shape {
                        0 => base,
                        1 => f32::NAN,
                        2 => f32::INFINITY,
                        3 => f32::NEG_INFINITY,
                        4 => -0.0,
                        5 => base + f32::from_bits(1),
                        6 => base - 1.0,
                        _ => base + 1.0,
                    };
                    (base, update)
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn topk_partition_is_byte_identical_to_full_sort(entries in tied_update()) {
            let (base, update): (Vec<f32>, Vec<f32>) = entries.into_iter().unzip();
            let changed = update
                .iter()
                .zip(&base)
                .filter(|(u, b)| u.to_bits() != b.to_bits())
                .count();
            for k in [0, 1, changed.saturating_sub(1), changed, changed + 1, update.len()] {
                prop_assert_eq!(
                    encode_topk(5, 3, &update, &base, k).unwrap(),
                    encode_topk_by_full_sort(&update, &base, k),
                    "k = {} of {} changed", k, changed
                );
            }
        }
    }

    #[test]
    fn topk_of_an_unchanged_update_keeps_nothing() {
        let base = vec![1.0, -0.0, f32::NAN];
        for k in [0, 1, 3] {
            let frame = encode_topk(5, 3, &base, &base, k).unwrap();
            assert_eq!(frame, encode_topk_by_full_sort(&base, &base, k));
            assert_eq!(frame.len(), WireSize::topk(0).total_bytes());
        }
    }

    #[test]
    fn full_roundtrip_is_bitwise_exact() {
        let params = vec![
            0.0,
            -0.0,
            1.5,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            f32::from_bits(0x7fc0_dead), // NaN with payload bits
        ];
        let frame = encode_full(3, 9, &params).unwrap();
        assert_eq!(frame.len(), WireSize::full(params.len()).total_bytes());
        assert!(verify(&frame));
        let decoded = decode(&frame).unwrap();
        assert_eq!(decoded.sender, 3);
        assert_eq!(decoded.cycle, 9);
        let out = decoded.into_params(&vec![0.0; params.len()]).unwrap();
        let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        let expect: Vec<u32> = params.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expect);
    }

    #[test]
    fn masked_roundtrip_reconstructs_against_base() {
        let base = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        let mut trained = base.clone();
        trained[1] = -2.0;
        trained[4] = 7.5;
        let mask = mask(&[false, true, false, false, true]);
        let frame = encode_masked(1, 0, &trained, mask.words()).unwrap();
        assert_eq!(frame.len(), WireSize::masked(5, 2).total_bytes());
        let out = decode(&frame).unwrap().into_params(&base).unwrap();
        assert_eq!(out, trained);
    }

    #[test]
    fn masked_upload_is_smaller_than_full() {
        let n = 10_000;
        let active = 3_000;
        assert!(WireSize::masked(n, active).total_bytes() < WireSize::full(n).total_bytes());
    }

    /// Every single-byte error — each byte flipped by each nonzero value,
    /// the transport's corruption fault model — fails `verify` and
    /// `decode`, so a damaged frame is never delivered.
    fn assert_every_byte_flip_detected(frame: &[u8]) {
        let mut bad = frame.to_vec();
        for i in 0..frame.len() {
            for flip in 1..=255u8 {
                bad[i] = frame[i] ^ flip;
                assert!(!verify(&bad), "flip {flip:#04x} at byte {i} undetected");
                assert!(
                    decode(&bad).is_err(),
                    "flip {flip:#04x} at byte {i} decoded"
                );
            }
            bad[i] = frame[i];
        }
    }

    #[test]
    fn corruption_is_detected_at_every_byte() {
        assert_every_byte_flip_detected(&encode_full(0, 0, &[1.0, 2.0, 3.0]).unwrap());
        assert_every_byte_flip_detected(&encode_masked(0, 0, &[1.0, 2.0, 3.0], &[0b101]).unwrap());
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        assert!(matches!(decode(&[]), Err(NetError::Truncated { .. })));
        let ok = encode_full(0, 0, &[1.0]).unwrap();
        let mut wrong_magic = ok.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(decode(&wrong_magic), Err(NetError::BadMagic)));
        let mut truncated = ok.clone();
        truncated.truncate(ok.len() - 5);
        assert!(decode(&truncated).is_err());
        let mut extended = ok.clone();
        extended.push(0);
        assert!(decode(&extended).is_err());
    }

    #[test]
    fn encode_masked_validates_mask_length() {
        let err = encode_masked(0, 0, &[1.0, 2.0], &[]);
        assert!(matches!(
            err,
            Err(NetError::MaskLengthMismatch { params: 2, mask: 0 })
        ));
        let err = encode_masked(0, 0, &[1.0, 2.0], &[0b101]);
        assert!(matches!(err, Err(NetError::MaskPaddingSet { params: 2 })));
    }

    #[test]
    fn into_params_validates_base_length() {
        let frame = decode(&encode_full(0, 0, &[1.0, 2.0]).unwrap()).unwrap();
        assert!(matches!(
            frame.into_params(&[0.0; 3]),
            Err(NetError::ParamLengthMismatch { .. })
        ));
    }

    #[test]
    fn encode_update_picks_layout_by_mask() {
        let full = encode_update(0, 0, &[1.0, 2.0], None).unwrap();
        let masked = encode_update(0, 0, &[1.0, 2.0], Some(&[0b01])).unwrap();
        assert!(matches!(decode(&full).unwrap().payload, Payload::Full(_)));
        assert!(matches!(
            decode(&masked).unwrap().payload,
            Payload::Masked { .. }
        ));
    }

    // ---- wire v2 + hardening tests (PR: wire-protocol v2) ----

    /// Regression: a masked frame whose `active` vector is *shorter* than
    /// the mask popcount used to silently leave trailing entries at their
    /// base values. It must be a typed error instead.
    #[test]
    fn into_params_rejects_short_active_vector() {
        let frame = Frame {
            sender: 0,
            cycle: 0,
            payload: Payload::Masked {
                mask: mask(&[true, false, true]),
                active: vec![1.0], // popcount is 2
            },
        };
        assert!(matches!(
            frame.into_params(&[0.0; 3]),
            Err(NetError::MaskCountMismatch {
                declared: 1,
                counted: 2
            })
        ));
    }

    /// Regression: a *longer* `active` vector used to be silently
    /// truncated, dropping trailing values on the floor.
    #[test]
    fn into_params_rejects_long_active_vector() {
        let frame = Frame {
            sender: 0,
            cycle: 0,
            payload: Payload::Masked {
                mask: mask(&[true, false, true]),
                active: vec![1.0, 2.0, 3.0], // popcount is 2
            },
        };
        assert!(matches!(
            frame.into_params(&[0.0; 3]),
            Err(NetError::MaskCountMismatch {
                declared: 3,
                counted: 2
            })
        ));
    }

    /// The same pairing check guards the v2 bitset payloads.
    #[test]
    fn into_params_checks_pairing_on_v2_payloads() {
        let frame = Frame {
            sender: 0,
            cycle: 0,
            payload: Payload::Delta {
                changed: UnitMask::full(2),
                values: vec![1.0],
            },
        };
        assert!(matches!(
            frame.into_params(&[0.0; 2]),
            Err(NetError::MaskCountMismatch { .. })
        ));
        let frame = Frame {
            sender: 0,
            cycle: 0,
            payload: Payload::QuantF16 {
                mask: UnitMask::full(2),
                values: vec![0x3c00, 0x3c00, 0x3c00],
            },
        };
        assert!(matches!(
            frame.into_params(&[0.0; 2]),
            Err(NetError::MaskCountMismatch { .. })
        ));
        let frame = Frame {
            sender: 0,
            cycle: 0,
            payload: Payload::QuantInt8 {
                mask: mask(&[true, false]),
                scale: 1.0,
                values: vec![],
            },
        };
        assert!(matches!(
            frame.into_params(&[0.0; 2]),
            Err(NetError::MaskCountMismatch { .. })
        ));
    }

    /// Regression: `verify` used to accept any version byte as long as
    /// magic and CRC checked out, disagreeing with `decode`.
    #[test]
    fn verify_rejects_unknown_version_even_with_valid_crc() {
        let mut frame = encode_full(0, 0, &[1.0, 2.0]).unwrap();
        frame[4] = 3; // unknown version
        let body = frame.len() - CHECKSUM_BYTES;
        let crc = crc32(&frame[..body]).to_le_bytes();
        frame[body..].copy_from_slice(&crc); // re-seal so only the version is wrong
        assert!(!verify(&frame));
        assert!(matches!(
            decode(&frame),
            Err(NetError::UnsupportedVersion(3))
        ));
    }

    #[test]
    fn verify_accepts_v2_frames() {
        let base = vec![1.0, 2.0, 3.0];
        let frame = encode_delta(0, 0, &[1.0, 2.5, 3.0], &base).unwrap();
        assert_eq!(frame[4], VERSION_V2);
        assert!(verify(&frame));
    }

    /// Decode enforces the kind ↔ version pairing in both directions.
    #[test]
    fn decode_rejects_mismatched_kind_and_version() {
        // A v1 frame claiming a v2 kind...
        let mut frame = encode_full(0, 0, &[1.0]).unwrap();
        frame[5] = KIND_DELTA;
        let body = frame.len() - CHECKSUM_BYTES;
        let crc = crc32(&frame[..body]).to_le_bytes();
        frame[body..].copy_from_slice(&crc);
        assert!(matches!(
            decode(&frame),
            Err(NetError::UnknownFrameKind { .. })
        ));
        // ...and a v2 frame claiming a v1 kind.
        let mut frame = encode_delta(0, 0, &[2.0], &[1.0]).unwrap();
        frame[5] = KIND_FULL;
        let body = frame.len() - CHECKSUM_BYTES;
        let crc = crc32(&frame[..body]).to_le_bytes();
        frame[body..].copy_from_slice(&crc);
        assert!(matches!(
            decode(&frame),
            Err(NetError::UnknownFrameKind { .. })
        ));
    }

    #[test]
    fn delta_roundtrip_is_bitwise_exact() {
        let base = vec![1.0, -0.0, f32::NAN, 4.0, 5.0];
        let mut update = base.clone();
        update[0] = 1.5;
        update[2] = f32::from_bits(0x7fc0_beef); // NaN → different NaN
        update[4] = f32::NEG_INFINITY;
        let frame = encode_delta(7, 3, &update, &base).unwrap();
        assert_eq!(frame.len(), WireSize::delta(5, 3).total_bytes());
        let out = decode(&frame).unwrap().into_params(&base).unwrap();
        let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        let expect: Vec<u32> = update.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expect);
    }

    #[test]
    fn delta_of_identical_params_is_empty() {
        let base = vec![1.0, f32::NAN, -0.0];
        let frame = encode_delta(0, 0, &base, &base).unwrap();
        assert_eq!(frame.len(), WireSize::delta(3, 0).total_bytes());
        let out = decode(&frame).unwrap().into_params(&base).unwrap();
        let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        let expect: Vec<u32> = base.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expect);
    }

    #[test]
    fn topk_keeps_largest_deltas_bit_exact_and_reverts_the_rest() {
        let base = vec![0.0; 5];
        let update = vec![0.1, -3.0, 0.2, 2.0, 0.0];
        let frame = encode_topk(0, 0, &update, &base, 2).unwrap();
        assert_eq!(frame.len(), WireSize::topk(2).total_bytes());
        let out = decode(&frame).unwrap().into_params(&base).unwrap();
        // |−3.0| and |2.0| win; the rest revert to base.
        assert_eq!(out, vec![0.0, -3.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn topk_breaks_magnitude_ties_toward_lower_index() {
        let base = vec![0.0; 3];
        let update = vec![1.0, -1.0, 1.0];
        let out = decode(&encode_topk(0, 0, &update, &base, 2).unwrap())
            .unwrap()
            .into_params(&base)
            .unwrap();
        assert_eq!(out, vec![1.0, -1.0, 0.0]);
    }

    #[test]
    fn topk_with_k_at_least_changed_count_is_lossless() {
        let base = vec![1.0, 2.0, 3.0, 4.0];
        let update = vec![1.0, f32::NAN, 3.5, 4.0];
        let frame = encode_topk(0, 0, &update, &base, 16).unwrap();
        assert_eq!(frame.len(), WireSize::topk(2).total_bytes());
        let out = decode(&frame).unwrap().into_params(&base).unwrap();
        let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        let expect: Vec<u32> = update.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expect);
    }

    #[test]
    fn quant_f16_roundtrip_respects_error_bound() {
        let base = vec![0.5, -1.0, 2.0, 0.0];
        let update = vec![0.75, -1.125, 2.0, 1e-5];
        let frame = encode_quant_f16(0, 0, &update, None, &base).unwrap();
        assert_eq!(frame.len(), WireSize::quant_f16(4, 4).total_bytes());
        let out = decode(&frame).unwrap().into_params(&base).unwrap();
        for ((o, u), b) in out.iter().zip(&update).zip(&base) {
            let delta = (u - b).abs();
            // f16 has 11 significand bits → relative error ≤ 2^-11.
            let bound = delta / 1024.0 + 1e-7;
            assert!((o - u).abs() <= bound, "out {o} vs update {u}");
        }
    }

    #[test]
    fn quant_zero_delta_preserves_base_bits() {
        // A ±0 encoded delta must not rewrite base bits (e.g. −0.0 → +0.0).
        let base = vec![-0.0, 1.0, f32::NAN];
        let update = base.clone();
        for frame in [
            encode_quant_f16(0, 0, &update, None, &base).unwrap(),
            encode_quant_i8(0, 0, &update, None, &base).unwrap(),
        ] {
            let out = decode(&frame).unwrap().into_params(&base).unwrap();
            let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            let expect: Vec<u32> = base.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, expect);
        }
    }

    #[test]
    fn quant_i8_roundtrip_respects_scale_bound() {
        let base = vec![0.0, 10.0, -5.0, 2.5];
        let update = vec![1.0, 9.0, -5.5, 2.5];
        let frame = encode_quant_i8(0, 0, &update, None, &base).unwrap();
        assert_eq!(frame.len(), WireSize::quant_i8(4, 4).total_bytes());
        let Payload::QuantInt8 { scale, .. } = decode(&frame).unwrap().payload else {
            panic!("expected int8 payload");
        };
        let out = decode(&frame).unwrap().into_params(&base).unwrap();
        for (o, u) in out.iter().zip(&update) {
            let bound = scale * 0.5 + scale * 1e-5 + 1e-7;
            assert!((o - u).abs() <= bound, "out {o} vs update {u} (±{bound})");
        }
    }

    #[test]
    fn quant_frames_compose_with_activity_mask() {
        let base = vec![1.0, 2.0, 3.0, 4.0];
        let update = vec![1.5, 2.0, 3.25, 4.0];
        let mask = [0b0101];
        for frame in [
            encode_quant_f16(0, 0, &update, Some(&mask), &base).unwrap(),
            encode_quant_i8(0, 0, &update, Some(&mask), &base).unwrap(),
        ] {
            let out = decode(&frame).unwrap().into_params(&base).unwrap();
            // Masked-out entries keep base *bits*; active ones approximate.
            assert_eq!(out[1].to_bits(), base[1].to_bits());
            assert_eq!(out[3].to_bits(), base[3].to_bits());
            assert!((out[0] - update[0]).abs() < 0.01);
            assert!((out[2] - update[2]).abs() < 0.01);
        }
    }

    #[test]
    fn quant_i8_of_all_zero_delta_uses_zero_scale() {
        let base = vec![3.0, -2.0];
        let frame = encode_quant_i8(0, 0, &base, None, &base).unwrap();
        let out = decode(&frame).unwrap().into_params(&base).unwrap();
        assert_eq!(out, base);
    }

    #[test]
    fn decode_rejects_nonfinite_i8_scale() {
        let base = vec![0.0];
        let mut frame = encode_quant_i8(0, 0, &[1.0], None, &base).unwrap();
        // Scale sits right after the header when no bitset is present.
        frame[HEADER_BYTES..HEADER_BYTES + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        let body = frame.len() - CHECKSUM_BYTES;
        let crc = crc32(&frame[..body]).to_le_bytes();
        frame[body..].copy_from_slice(&crc);
        assert!(matches!(decode(&frame), Err(NetError::BadScale { .. })));
    }

    #[test]
    fn decode_rejects_malformed_topk_index_blocks() {
        let base = vec![0.0; 4];
        let good = encode_topk(0, 0, &[1.0, 2.0, 3.0, 4.0], &base, 2).unwrap();
        // Swap the two indices so they are non-ascending.
        let mut bad = good.clone();
        let (a, b) = (HEADER_BYTES, HEADER_BYTES + 4);
        for i in 0..4 {
            bad.swap(a + i, b + i);
        }
        let body = bad.len() - CHECKSUM_BYTES;
        let crc = crc32(&bad[..body]).to_le_bytes();
        bad[body..].copy_from_slice(&crc);
        assert!(matches!(decode(&bad), Err(NetError::BadIndexBlock { .. })));
        // Point an index past the parameter vector.
        let mut oob = good.clone();
        oob[a..a + 4].copy_from_slice(&99u32.to_le_bytes());
        let body = oob.len() - CHECKSUM_BYTES;
        let crc = crc32(&oob[..body]).to_le_bytes();
        oob[body..].copy_from_slice(&crc);
        assert!(matches!(decode(&oob), Err(NetError::BadIndexBlock { .. })));
    }

    #[test]
    fn v2_corruption_is_detected_at_every_byte() {
        let base = vec![0.5, 1.5, 2.5];
        for frame in [
            encode_delta(1, 2, &[0.5, 9.0, 2.5], &base).unwrap(),
            encode_topk(1, 2, &[0.5, 9.0, 8.0], &base, 1).unwrap(),
            encode_quant_f16(1, 2, &[0.75, 1.5, 2.5], None, &base).unwrap(),
            encode_quant_i8(1, 2, &[0.75, 1.5, 2.5], None, &base).unwrap(),
        ] {
            assert_every_byte_flip_detected(&frame);
        }
    }

    /// f16 conversion is exact on the full 16-bit domain: every half
    /// bit pattern survives a trip through f32 and back unchanged.
    #[test]
    fn f16_roundtrip_is_exhaustively_exact() {
        for h in 0..=u16::MAX {
            let back = f32_to_f16_bits(f16_bits_to_f32(h));
            assert_eq!(back, h, "half bits {h:#06x} roundtripped to {back:#06x}");
        }
    }

    #[test]
    fn f16_conversion_handles_special_values() {
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        // Finite overflow saturates to ±65504 (the largest finite
        // binary16) instead of rounding to inf.
        assert_eq!(f32_to_f16_bits(1e9), 0x7bff);
        assert_eq!(f32_to_f16_bits(-1e9), 0xfbff);
        assert_eq!(f16_bits_to_f32(0x7bff), 65504.0);
        // NaN stays NaN.
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Round-to-nearest-even at the halfway point: 1 + 2^-11 is exactly
        // between 1.0 and the next half; ties go to the even significand.
        assert_eq!(f32_to_f16_bits(1.0 + f32::powi(2.0, -11)), 0x3c00);
        assert_eq!(f32_to_f16_bits(1.0 + 3.0 * f32::powi(2.0, -11)), 0x3c02);
    }

    #[test]
    fn wire_size_accounts_for_v2_layouts() {
        // Delta frames have exactly the masked shape.
        assert_eq!(
            WireSize::delta(100, 7).total_bytes(),
            WireSize::masked(100, 7).total_bytes()
        );
        // Top-k pays 8 bytes per kept entry.
        let topk = WireSize::topk(5);
        assert_eq!(topk.index_bytes, 20);
        assert_eq!(topk.payload_bytes, 20);
        // Quantized frames halve (f16) or quarter (int8) the payload.
        assert_eq!(WireSize::quant_f16(8, 8).payload_bytes, 16);
        assert_eq!(WireSize::quant_i8(8, 8).payload_bytes, 8);
        assert_eq!(WireSize::quant_i8(8, 8).scale_bytes, 4);
        // The bitset appears only when the frame is partial.
        assert_eq!(WireSize::quant_f16(8, 8).mask_bytes, 0);
        assert_eq!(WireSize::quant_f16(8, 3).mask_bytes, 1);
        // Encoded frames match their predicted sizes.
        let base = vec![0.0; 8];
        let update = vec![1.0; 8];
        assert_eq!(
            encode_quant_f16(0, 0, &update, None, &base).unwrap().len(),
            WireSize::quant_f16(8, 8).total_bytes()
        );
        assert_eq!(
            encode_quant_i8(0, 0, &update, None, &base).unwrap().len(),
            WireSize::quant_i8(8, 8).total_bytes()
        );
    }

    /// `WireSize` artifacts written before wire v2 (no `index_bytes` /
    /// `scale_bytes` fields) still deserialize.
    #[test]
    fn wire_size_accepts_pre_v2_json() {
        let v: WireSize = serde_json::from_str(
            r#"{"header_bytes":22,"mask_bytes":0,"payload_bytes":8,"checksum_bytes":4}"#,
        )
        .unwrap();
        assert_eq!(v.index_bytes, 0);
        assert_eq!(v.scale_bytes, 0);
        assert_eq!(v.total_bytes(), 34);
    }

    #[test]
    fn frame_mode_peeks_v2_kinds_only() {
        let base = vec![1.0, 2.0];
        let v1 = encode_full(0, 0, &base).unwrap();
        assert_eq!(frame_mode(&v1), None);
        let masked = encode_masked(0, 0, &base, &[0b01]).unwrap();
        assert_eq!(frame_mode(&masked), None);
        assert_eq!(
            frame_mode(&encode_delta(0, 0, &[9.0, 2.0], &base).unwrap()),
            Some("delta")
        );
        assert_eq!(
            frame_mode(&encode_topk(0, 0, &[9.0, 2.0], &base, 1).unwrap()),
            Some("topk")
        );
        assert_eq!(
            frame_mode(&encode_quant_f16(0, 0, &[9.0, 2.0], None, &base).unwrap()),
            Some("qf16")
        );
        assert_eq!(
            frame_mode(&encode_quant_i8(0, 0, &[9.0, 2.0], None, &base).unwrap()),
            Some("qi8")
        );
        assert_eq!(frame_mode(b"xx"), None);
    }
}
