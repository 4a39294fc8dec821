//! Block floating point format descriptors.

use std::fmt;

/// A block floating point format: a group of `block_size` values shares one
/// exponent of `exponent_bits`, and each element carries a sign bit plus
/// `mantissa_bits` of magnitude.
///
/// The paper (§VI) uses a 5-bit shared exponent with mantissas trimmed to
/// between 2 bits (large RNN serving on BW_S10, written `1s.5e.2m`) and
/// 5 bits (the CNN featurizer on Arria 10, `1s.5e.5m`).
///
/// # Example
///
/// ```
/// use bw_bfp::BfpFormat;
///
/// let fmt = BfpFormat::new(5, 2, 128)?;
/// assert_eq!(fmt.bits_per_element_amortized(), 3.0 + 5.0 / 128.0);
/// assert_eq!(fmt.to_string(), "1s.5e.2m/128");
/// # Ok::<(), bw_bfp::FormatError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BfpFormat {
    exponent_bits: u8,
    mantissa_bits: u8,
    block_size: u32,
}

/// The mantissa storage layouts (see the `kernel` module doc).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Layout {
    /// Magnitudes ≤ 7 — the paper's 1s.5e.2m and 3m: two per byte.
    Packed,
    /// Magnitudes ≤ 127: one `i8` each.
    Narrow,
    /// Anything wider: one `i32` each.
    Wide,
}

/// Error returned when constructing an invalid [`BfpFormat`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FormatError {
    /// The exponent width was zero or wider than 8 bits.
    ExponentBits(u8),
    /// The mantissa width was zero or wider than 23 bits.
    MantissaBits(u8),
    /// The block size was zero.
    BlockSize,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::ExponentBits(b) => {
                write!(f, "exponent width {b} outside the supported 1..=8 bits")
            }
            FormatError::MantissaBits(b) => {
                write!(f, "mantissa width {b} outside the supported 1..=23 bits")
            }
            FormatError::BlockSize => write!(f, "block size must be non-zero"),
        }
    }
}

impl std::error::Error for FormatError {}

impl BfpFormat {
    /// The production BW_S10 RNN serving format: 1 sign, 5-bit shared
    /// exponent, 2-bit mantissa, shared at the native-vector level
    /// (128 elements is the paper's quoted sharing group).
    pub const BFP_1S_5E_2M: BfpFormat = BfpFormat {
        exponent_bits: 5,
        mantissa_bits: 2,
        block_size: 128,
    };

    /// The BW_CNN_A10 featurizer format: 1 sign, 5-bit shared exponent,
    /// 5-bit mantissa (Table VI).
    pub const BFP_1S_5E_5M: BfpFormat = BfpFormat {
        exponent_bits: 5,
        mantissa_bits: 5,
        block_size: 128,
    };

    /// A 3-bit mantissa variant, in the paper's validated 2–5 bit range.
    #[cfg(test)]
    pub(crate) const BFP_1S_5E_3M: BfpFormat = BfpFormat {
        exponent_bits: 5,
        mantissa_bits: 3,
        block_size: 128,
    };

    /// Creates a format, validating the field widths.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] if the exponent is not 1–8 bits, the mantissa
    /// is not 1–23 bits, or the block size is zero.
    pub fn new(exponent_bits: u8, mantissa_bits: u8, block_size: u32) -> Result<Self, FormatError> {
        if exponent_bits == 0 || exponent_bits > 8 {
            return Err(FormatError::ExponentBits(exponent_bits));
        }
        if mantissa_bits == 0 || mantissa_bits > 23 {
            return Err(FormatError::MantissaBits(mantissa_bits));
        }
        if block_size == 0 {
            return Err(FormatError::BlockSize);
        }
        Ok(BfpFormat {
            exponent_bits,
            mantissa_bits,
            block_size,
        })
    }

    /// Width of the shared exponent in bits.
    #[cfg(test)]
    #[inline]
    pub(crate) fn exponent_bits(self) -> u8 {
        self.exponent_bits
    }

    /// Width of each element's mantissa in bits (excluding the sign).
    #[inline]
    pub fn mantissa_bits(self) -> u8 {
        self.mantissa_bits
    }

    /// Number of elements sharing one exponent.
    #[inline]
    pub(crate) fn block_size(self) -> u32 {
        self.block_size
    }

    /// The largest representable mantissa magnitude, `2^m - 1`.
    #[inline]
    pub(crate) fn max_mantissa(self) -> i32 {
        (1i32 << self.mantissa_bits) - 1
    }

    /// How mantissas of this format are stored: the narrowest layout that
    /// holds `±max_mantissa`. Nothing but the format decides this.
    #[inline]
    pub(crate) fn layout(self) -> Layout {
        match self.mantissa_bits {
            0..=3 => Layout::Packed,
            4..=7 => Layout::Narrow,
            _ => Layout::Wide,
        }
    }

    /// The exponent bias; shared exponents are stored biased like IEEE
    /// exponents so a 5-bit field covers `-15..=16` unbiased.
    #[inline]
    pub(crate) fn exponent_bias(self) -> i32 {
        (1i32 << (self.exponent_bits - 1)) - 1
    }

    /// The smallest and largest storable unbiased exponents.
    #[inline]
    pub(crate) fn exponent_range(self) -> (i32, i32) {
        let bias = self.exponent_bias();
        (-bias, (1i32 << self.exponent_bits) - 1 - bias)
    }

    /// Average storage cost per element in bits: sign + mantissa + the
    /// shared exponent amortized over the block.
    pub fn bits_per_element_amortized(self) -> f64 {
        1.0 + f64::from(self.mantissa_bits)
            + f64::from(self.exponent_bits) / f64::from(self.block_size)
    }

    /// Storage in bytes for `n` elements laid out in ceil(n/block) blocks,
    /// rounding each block's payload up to whole bytes. This is the figure
    /// used for the "Data" column of Table I and MRF capacity accounting.
    pub fn storage_bytes(self, n: u64) -> u64 {
        let blocks = n.div_ceil(u64::from(self.block_size));
        let payload_bits =
            n * (1 + u64::from(self.mantissa_bits)) + blocks * u64::from(self.exponent_bits);
        payload_bits.div_ceil(8)
    }
}

impl fmt::Display for BfpFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "1s.{}e.{}m/{}",
            self.exponent_bits, self.mantissa_bits, self.block_size
        )
    }
}

impl Default for BfpFormat {
    fn default() -> Self {
        BfpFormat::BFP_1S_5E_2M
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_formats_match_paper() {
        assert_eq!(BfpFormat::BFP_1S_5E_2M.exponent_bits(), 5);
        assert_eq!(BfpFormat::BFP_1S_5E_2M.mantissa_bits(), 2);
        assert_eq!(BfpFormat::BFP_1S_5E_5M.mantissa_bits(), 5);
        assert_eq!(BfpFormat::BFP_1S_5E_2M.to_string(), "1s.5e.2m/128");
    }

    #[test]
    fn validation_rejects_bad_widths() {
        assert_eq!(BfpFormat::new(0, 2, 128), Err(FormatError::ExponentBits(0)));
        assert_eq!(BfpFormat::new(9, 2, 128), Err(FormatError::ExponentBits(9)));
        assert_eq!(BfpFormat::new(5, 0, 128), Err(FormatError::MantissaBits(0)));
        assert_eq!(
            BfpFormat::new(5, 24, 128),
            Err(FormatError::MantissaBits(24))
        );
        assert_eq!(BfpFormat::new(5, 2, 0), Err(FormatError::BlockSize));
    }

    #[test]
    fn exponent_bias_and_range() {
        let fmt = BfpFormat::BFP_1S_5E_2M;
        assert_eq!(fmt.exponent_bias(), 15);
        assert_eq!(fmt.exponent_range(), (-15, 16));
    }

    #[test]
    fn max_mantissa_values() {
        assert_eq!(BfpFormat::BFP_1S_5E_2M.max_mantissa(), 3);
        assert_eq!(BfpFormat::BFP_1S_5E_5M.max_mantissa(), 31);
    }

    #[test]
    fn storage_accounting() {
        let fmt = BfpFormat::BFP_1S_5E_2M;
        // 128 elements: 128 * 3 bits + 5 bits = 389 bits = 49 bytes.
        assert_eq!(fmt.storage_bytes(128), 49);
        // Zero elements cost nothing.
        assert_eq!(fmt.storage_bytes(0), 0);
        // Partial block still pays a full exponent.
        assert_eq!(fmt.storage_bytes(1), 1);
    }

    #[test]
    fn amortized_bits() {
        let fmt = BfpFormat::new(5, 2, 128).unwrap();
        let bits = fmt.bits_per_element_amortized();
        assert!((bits - 3.0390625).abs() < 1e-12);
    }
}
