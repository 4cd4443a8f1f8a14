//! Panic-free little-endian readers for fixed-size record formats.
//!
//! `slice.try_into().unwrap()` is the idiomatic way to read an integer out
//! of a record, but library code here must not panic (`clippy::unwrap_used`, DESIGN.md §9). These
//! readers zero-pad short input instead: every caller feeds fixed-size
//! records whose length the splitter already guarantees, so the padding
//! path is unreachable in practice and merely replaces an abort with a
//! well-defined value.

/// Read a little-endian `f64` starting at `offset`.
pub(crate) fn f64_at(bytes: &[u8], offset: usize) -> f64 {
    let mut buf = [0u8; 8];
    for (dst, src) in buf.iter_mut().zip(bytes.iter().skip(offset)) {
        *dst = *src;
    }
    f64::from_le_bytes(buf)
}

/// Read a little-endian `u64` starting at `offset`.
pub(crate) fn u64_at(bytes: &[u8], offset: usize) -> u64 {
    let mut buf = [0u8; 8];
    for (dst, src) in buf.iter_mut().zip(bytes.iter().skip(offset)) {
        *dst = *src;
    }
    u64::from_le_bytes(buf)
}

/// Read a little-endian `u32` starting at `offset`.
pub(crate) fn u32_at(bytes: &[u8], offset: usize) -> u32 {
    let mut buf = [0u8; 4];
    for (dst, src) in buf.iter_mut().zip(bytes.iter().skip(offset)) {
        *dst = *src;
    }
    u32::from_le_bytes(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_at_offsets() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1.5f64.to_le_bytes());
        bytes.extend_from_slice(&(-2.25f64).to_le_bytes());
        assert_eq!(f64_at(&bytes, 0), 1.5);
        assert_eq!(f64_at(&bytes, 8), -2.25);
        assert_eq!(u64_at(&7u64.to_le_bytes(), 0), 7);
        assert_eq!(u32_at(&9u32.to_le_bytes(), 0), 9);
    }

    #[test]
    fn short_input_zero_pads() {
        assert_eq!(u32_at(&[1], 0), 1);
        assert_eq!(u64_at(&[], 3), 0);
        assert_eq!(f64_at(&[0, 0], 1), 0.0);
    }
}
