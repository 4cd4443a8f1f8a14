//! The partition integrity check (paper Fig. 7).
//!
//! When a large data file is cut into fragments, "the content of the source
//! data file could be broken in shatters (e.g. a word could be cut and
//! placed into two splitted files not on purpose)" (§IV-C). The
//! integrity-check procedure therefore scans forward from a proposed cut
//! point until it finds "the first space, return or the symbol defined by
//! the programmer" and moves the cut there, so no record ever spans two
//! fragments. [`IntegrityCheck`] alone owns that rule, for a slice and for
//! a file scanned in windows; [`crate::splitter`] has the one loop applying it.

use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};

/// Bytes an on-file delimiter scan reads at a time.
const SCAN_WINDOW: usize = 64 * 1024;

/// The delimiter class a boundary may legally be placed after.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Delimiter {
    /// ASCII whitespace: space, tab, newline, carriage return. The paper's
    /// default ("the first space, return…").
    Whitespace,
    /// Line-oriented data: cut only after b'\n'. Used by String Match,
    /// whose map processes whole lines of the "encrypt" file.
    Newline,
    /// A programmer-defined delimiter byte ("…or the symbol defined by the
    /// programmer").
    Byte(u8),
    /// Any byte from a programmer-defined set.
    AnyOf(Vec<u8>),
}

impl Delimiter {
    /// Whether `b` is a member of this delimiter class.
    pub fn matches(&self, b: u8) -> bool {
        match self {
            Delimiter::Whitespace => b == b' ' || b == b'\t' || b == b'\n' || b == b'\r',
            Delimiter::Newline => b == b'\n',
            Delimiter::Byte(d) => b == *d,
            Delimiter::AnyOf(set) => set.contains(&b),
        }
    }
}

/// How a proposed fragment boundary is legalized.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntegrityCheck {
    /// Advance the cut to just past the next delimiter byte (Fig. 7's
    /// "Starting Point ++" loop). The extra bytes are the paper's "extra
    /// displacements from the integrity-check function".
    Delimited(Delimiter),
    /// Fixed-size records: the cut is moved forward to the next multiple of
    /// the record size. Used by Matrix Multiplication, whose input is a
    /// sequence of fixed-width row descriptors.
    FixedRecord(usize),
    /// No adjustment; cut anywhere (only safe for byte-oriented jobs).
    None,
}

impl IntegrityCheck {
    /// Legalize a proposed cut point.
    ///
    /// Returns the smallest legal boundary `b >= proposed` (clamped to
    /// `data.len()`), such that cutting `data` into `[..b]` and `[b..]`
    /// does not split a record:
    ///
    /// * `Delimited`: `b` is just past a delimiter byte, or the end of
    ///   data if no delimiter follows `proposed`.
    /// * `FixedRecord(r)`: `b` is the next multiple of `r`.
    /// * `None`: `b == min(proposed, data.len())`.
    pub fn adjust(&self, data: &[u8], proposed: usize) -> usize {
        let from = proposed.min(data.len());
        self.without_scan(data.len(), from).unwrap_or_else(|delim| {
            let hit = data[from..].iter().position(|&b| delim.matches(b));
            hit.map_or(data.len(), |off| from + off + 1)
        })
    }

    /// [`IntegrityCheck::adjust`] over a file of `len` bytes that is never
    /// loaded: only a delimiter scan reads anything, [`SCAN_WINDOW`] bytes
    /// at a time through `window`, from the proposed cut to the delimiter.
    pub(crate) fn adjust_file(
        &self,
        file: &mut File,
        len: usize,
        window: &mut Vec<u8>,
        proposed: usize,
    ) -> io::Result<usize> {
        let mut base = proposed.min(len);
        self.without_scan(len, base).or_else(|delim| {
            while base < len {
                window.resize(SCAN_WINDOW.min(len - base), 0);
                file.seek(SeekFrom::Start(base as u64))?;
                file.read_exact(window)?;
                if let Some(off) = window.iter().position(|&b| delim.matches(b)) {
                    return Ok(base + off + 1);
                }
                base += window.len();
            }
            Ok(len)
        })
    }

    /// The rule up to the point where bytes are needed: `Ok(boundary)`, or
    /// `Err(delim)` when the boundary lies just past the first `delim` byte
    /// at or after `proposed` — Fig. 7's "Starting Point ++" scan, ending
    /// at `len` if no delimiter follows. `proposed` is already clamped.
    fn without_scan(&self, len: usize, proposed: usize) -> Result<usize, &Delimiter> {
        match self {
            IntegrityCheck::None => Ok(proposed),
            IntegrityCheck::FixedRecord(r) => Ok(proposed.next_multiple_of(*r).min(len)),
            IntegrityCheck::Delimited(delim) if 0 < proposed && proposed < len => Err(delim),
            IntegrityCheck::Delimited(_) => Ok(proposed),
        }
    }

    /// Whether a boundary is legal (used by tests and debug assertions).
    pub fn is_legal(&self, data: &[u8], boundary: usize) -> bool {
        if boundary == 0 || boundary >= data.len() {
            return boundary <= data.len();
        }
        match self {
            IntegrityCheck::None => true,
            IntegrityCheck::FixedRecord(r) => boundary.is_multiple_of(*r),
            IntegrityCheck::Delimited(delim) => delim.matches(data[boundary - 1]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitespace_matches() {
        let d = Delimiter::Whitespace;
        assert!(d.matches(b' '));
        assert!(d.matches(b'\n'));
        assert!(d.matches(b'\t'));
        assert!(d.matches(b'\r'));
        assert!(!d.matches(b'a'));
    }

    #[test]
    fn custom_byte_delimiter() {
        let d = Delimiter::Byte(b';');
        assert!(d.matches(b';'));
        assert!(!d.matches(b' '));
    }

    #[test]
    fn any_of_delimiter() {
        let d = Delimiter::AnyOf(vec![b',', b';']);
        assert!(d.matches(b','));
        assert!(d.matches(b';'));
        assert!(!d.matches(b'.'));
    }

    #[test]
    fn delimited_adjust_moves_past_next_space() {
        let data = b"hello world foo";
        let ic = IntegrityCheck::Delimited(Delimiter::Whitespace);
        // Proposed cut inside "world" -> moved past the space after it.
        assert_eq!(ic.adjust(data, 8), 12);
        // The boundary is legal: previous byte is the space.
        assert!(ic.is_legal(data, 12));
    }

    #[test]
    fn delimited_adjust_on_delimiter_moves_past_it() {
        let data = b"ab cd";
        let ic = IntegrityCheck::Delimited(Delimiter::Whitespace);
        // Proposed cut exactly on the space: fragment extends to include it.
        assert_eq!(ic.adjust(data, 2), 3);
    }

    #[test]
    fn delimited_adjust_without_following_delimiter_hits_end() {
        let data = b"abcdef";
        let ic = IntegrityCheck::Delimited(Delimiter::Whitespace);
        assert_eq!(ic.adjust(data, 3), 6);
    }

    #[test]
    fn delimited_adjust_at_ends_is_identity() {
        let data = b"ab cd";
        let ic = IntegrityCheck::Delimited(Delimiter::Whitespace);
        assert_eq!(ic.adjust(data, 0), 0);
        assert_eq!(ic.adjust(data, 5), 5);
        assert_eq!(ic.adjust(data, 999), 5);
    }

    #[test]
    fn fixed_record_rounds_up() {
        let data = [0u8; 20];
        let ic = IntegrityCheck::FixedRecord(4);
        assert_eq!(ic.adjust(&data, 5), 8);
        assert_eq!(ic.adjust(&data, 8), 8);
        assert_eq!(ic.adjust(&data, 19), 20);
    }

    #[test]
    fn none_is_identity() {
        let data = [0u8; 10];
        let ic = IntegrityCheck::None;
        assert_eq!(ic.adjust(&data, 7), 7);
        assert_eq!(ic.adjust(&data, 15), 10);
    }

    #[test]
    fn newline_delimiter_cuts_whole_lines() {
        let data = b"line one\nline two\nline three\n";
        let ic = IntegrityCheck::Delimited(Delimiter::Newline);
        let b = ic.adjust(data, 4);
        assert_eq!(b, 9);
        assert_eq!(&data[..b], b"line one\n");
    }

    #[test]
    fn legality_of_fixed_records() {
        let data = [0u8; 12];
        let ic = IntegrityCheck::FixedRecord(4);
        assert!(ic.is_legal(&data, 0));
        assert!(ic.is_legal(&data, 4));
        assert!(!ic.is_legal(&data, 5));
        assert!(ic.is_legal(&data, 12));
    }
}
