//! On-disk page format for cells.
//!
//! A cell is one 512-byte block (the paper's Section 4: "a cell can be
//! thought of as a page or a unit of memory allocation and data
//! transfer, containing one or more points"). This module gives that
//! page a concrete layout:
//!
//! ```text
//! +--------+--------+----------------------------------------+
//! | magic  | count  | count fixed-size records …   (padding) |
//! | u16    | u16    |                                        |
//! +--------+--------+----------------------------------------+
//! ```
//!
//! Records are opaque fixed-size byte strings; the schema layer decides
//! what goes in them. `CellPage::capacity(record_len)` is exactly the
//! paper's "cell capacity" that the fill factor multiplies.

use multimap_disksim::SECTOR_BYTES;

/// Magic tag marking a formatted cell page.
const MAGIC: u16 = 0x4D4D; // "MM"

/// Header bytes: magic + record count.
const HEADER: usize = 4;

/// A 512-byte cell page holding fixed-size records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellPage {
    record_len: usize,
    records: Vec<Vec<u8>>,
}

/// Errors decoding a page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageError {
    /// The buffer is not exactly one sector.
    WrongSize,
    /// The magic tag is missing (unformatted or foreign data).
    BadMagic,
    /// The header's record count does not fit the page.
    CorruptCount,
    /// The page is full.
    Full,
    /// A record has the wrong length.
    WrongRecordLen,
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageError::WrongSize => write!(f, "page must be exactly {SECTOR_BYTES} bytes"),
            PageError::BadMagic => write!(f, "page has no MultiMap magic"),
            PageError::CorruptCount => write!(f, "record count exceeds page capacity"),
            PageError::Full => write!(f, "page is full"),
            PageError::WrongRecordLen => write!(f, "record length mismatch"),
        }
    }
}

impl std::error::Error for PageError {}

impl CellPage {
    /// An empty page for records of `record_len` bytes.
    ///
    /// # Panics
    /// Panics if a single record cannot fit a page.
    pub fn new(record_len: usize) -> Self {
        assert!(
            record_len > 0 && record_len <= SECTOR_BYTES as usize - HEADER,
            "record length must fit a page"
        );
        CellPage {
            record_len,
            records: Vec::new(),
        }
    }

    /// Records of `record_len` bytes that fit one page — the paper's
    /// cell capacity.
    pub fn capacity(record_len: usize) -> u32 {
        ((SECTOR_BYTES as usize - HEADER) / record_len.max(1)) as u32
    }

    /// Records currently stored.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether no further record fits.
    pub fn is_full(&self) -> bool {
        self.records.len() as u32 >= Self::capacity(self.record_len)
    }

    /// Append one record.
    pub fn push(&mut self, record: &[u8]) -> Result<(), PageError> {
        if record.len() != self.record_len {
            return Err(PageError::WrongRecordLen);
        }
        if self.is_full() {
            return Err(PageError::Full);
        }
        self.records.push(record.to_vec());
        Ok(())
    }

    /// Iterate the records.
    pub fn records(&self) -> impl Iterator<Item = &[u8]> {
        self.records.iter().map(Vec::as_slice)
    }

    /// Serialise to exactly one 512-byte sector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(SECTOR_BYTES as usize);
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&(self.records.len() as u16).to_le_bytes());
        for r in &self.records {
            buf.extend_from_slice(r);
        }
        buf.resize(SECTOR_BYTES as usize, 0);
        buf
    }

    /// Parse a 512-byte sector back into a page.
    pub fn from_bytes(data: &[u8], record_len: usize) -> Result<Self, PageError> {
        if data.len() != SECTOR_BYTES as usize {
            return Err(PageError::WrongSize);
        }
        let (header, body) = data.split_at(HEADER);
        if u16::from_le_bytes([header[0], header[1]]) != MAGIC {
            return Err(PageError::BadMagic);
        }
        let count = u16::from_le_bytes([header[2], header[3]]) as usize;
        if count > Self::capacity(record_len) as usize {
            return Err(PageError::CorruptCount);
        }
        // In bounds: `count` is at most `capacity(record_len)`.
        let records = (0..count)
            .map(|i| body[i * record_len..(i + 1) * record_len].to_vec())
            .collect();
        Ok(CellPage {
            record_len,
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_matches_paper_arithmetic() {
        // 16-byte records: (512 - 4) / 16 = 31 per cell.
        assert_eq!(CellPage::capacity(16), 31);
        assert_eq!(CellPage::capacity(8), 63);
        assert_eq!(CellPage::capacity(508), 1);
    }

    #[test]
    fn roundtrip() {
        let mut p = CellPage::new(16);
        for i in 0..10u8 {
            let rec = [i; 16];
            p.push(&rec).unwrap();
        }
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), 512);
        let back = CellPage::from_bytes(&bytes, 16).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.len(), 10);
        assert_eq!(back.records().nth(3).unwrap(), &[3u8; 16]);
    }

    #[test]
    fn fills_to_capacity_then_rejects() {
        let mut p = CellPage::new(16);
        for i in 0..31u32 {
            p.push(&[(i % 251) as u8; 16]).unwrap();
        }
        assert!(p.is_full());
        assert_eq!(p.push(&[0; 16]), Err(PageError::Full));
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut p = CellPage::new(16);
        assert_eq!(p.push(&[0; 15]), Err(PageError::WrongRecordLen));
        assert_eq!(
            CellPage::from_bytes(&[0u8; 100], 16),
            Err(PageError::WrongSize)
        );
        assert_eq!(CellPage::from_bytes(&[0u8; 512], 16), Err(PageError::BadMagic));
        // Corrupt count.
        let mut buf = [0u8; 512];
        buf[..4].copy_from_slice(&[0x4D, 0x4D, 0xFF, 0x00]);
        assert_eq!(CellPage::from_bytes(&buf, 16), Err(PageError::CorruptCount));
    }

    #[test]
    #[should_panic(expected = "fit a page")]
    fn oversized_record_panics() {
        let _ = CellPage::new(600);
    }
}
