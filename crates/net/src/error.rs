//! Error type for the simulated network layer.

use std::error::Error;
use std::fmt;

/// Error returned by fallible wire-codec and transport operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// The frame does not start with the wire magic.
    BadMagic,
    /// The frame's format version is not supported by this build.
    UnsupportedVersion(u8),
    /// The frame's kind byte is not a known frame kind.
    UnknownFrameKind(u8),
    /// The frame is shorter than its headers and length fields require.
    Truncated {
        /// Bytes the frame claims to need.
        needed: usize,
        /// Bytes actually present.
        available: usize,
    },
    /// The frame carries bytes beyond its declared payload.
    TrailingBytes {
        /// Bytes the frame should occupy.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The CRC32 trailer does not match the frame contents.
    ChecksumMismatch {
        /// Checksum recorded in the frame.
        stored: u32,
        /// Checksum recomputed from the frame bytes.
        computed: u32,
    },
    /// A masked frame's bitset population disagrees with its active count.
    MaskCountMismatch {
        /// Active parameters the header declares.
        declared: usize,
        /// Active bits actually set in the bitset.
        counted: usize,
    },
    /// An encode-side mask is not ⌈params/64⌉ words long.
    MaskLengthMismatch {
        /// Parameter count.
        params: usize,
        /// Mask length in `u64` words.
        mask: usize,
    },
    /// An encode-side mask sets a bit past its last parameter.
    MaskPaddingSet {
        /// Parameter count.
        params: usize,
    },
    /// A frame's parameter count disagrees with the receiver's model.
    ParamLengthMismatch {
        /// Parameter count the receiver expects.
        expected: usize,
        /// Parameter count the frame declares.
        actual: usize,
    },
    /// A top-k frame's index block is out of range or not strictly
    /// ascending.
    BadIndexBlock {
        /// Description of the violation.
        what: String,
    },
    /// A quantized frame's per-tensor scale is not a finite non-negative
    /// number.
    BadScale {
        /// Bit pattern of the offending `f32` scale.
        scale_bits: u32,
    },
    /// A parameter vector exceeds the wire format's `u32` length field.
    TooManyParams(usize),
    /// A device index is out of range for the transport.
    UnknownDevice {
        /// The offending index.
        device: usize,
        /// Number of devices registered with the transport.
        num_devices: usize,
    },
    /// A link profile or fault configuration holds an invalid value.
    InvalidConfig {
        /// Description of the problem.
        what: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::BadMagic => write!(f, "not a helios wire frame (bad magic)"),
            NetError::UnsupportedVersion(v) => write!(f, "unsupported wire format version {v}"),
            NetError::UnknownFrameKind(k) => write!(f, "unknown wire frame kind {k}"),
            NetError::Truncated { needed, available } => {
                write!(f, "truncated frame: need {needed} bytes, have {available}")
            }
            NetError::TrailingBytes { expected, actual } => {
                write!(f, "frame should be {expected} bytes but is {actual}")
            }
            NetError::ChecksumMismatch { stored, computed } => write!(
                f,
                "crc32 mismatch: frame says {stored:#010x}, contents hash to {computed:#010x}"
            ),
            NetError::MaskCountMismatch { declared, counted } => write!(
                f,
                "mask bitset has {counted} active bits but header declares {declared}"
            ),
            NetError::MaskLengthMismatch { params, mask } => {
                write!(f, "mask of {mask} words does not cover {params} parameters")
            }
            NetError::MaskPaddingSet { params } => {
                write!(f, "mask sets a bit past its {params} parameters")
            }
            NetError::ParamLengthMismatch { expected, actual } => {
                write!(
                    f,
                    "frame holds {actual} parameters, receiver expects {expected}"
                )
            }
            NetError::BadIndexBlock { what } => {
                write!(f, "malformed top-k index block: {what}")
            }
            NetError::BadScale { scale_bits } => {
                write!(
                    f,
                    "quantization scale {} (bits {scale_bits:#010x}) is not finite and non-negative",
                    f32::from_bits(*scale_bits)
                )
            }
            NetError::TooManyParams(n) => {
                write!(
                    f,
                    "{n} parameters exceed the wire format's u32 length field"
                )
            }
            NetError::UnknownDevice {
                device,
                num_devices,
            } => write!(f, "device {device} out of range for {num_devices} devices"),
            NetError::InvalidConfig { what } => {
                write!(f, "invalid network configuration: {what}")
            }
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_fields() {
        assert!(NetError::BadMagic.to_string().contains("magic"));
        let e = NetError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("crc32"));
        let e = NetError::UnknownDevice {
            device: 9,
            num_devices: 2,
        };
        assert!(e.to_string().contains("device 9"));
        assert!(e.source().is_none());
    }
}
