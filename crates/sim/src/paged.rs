//! Copy-on-write paged byte memory.
//!
//! [`PagedBytes`] is the one bulk-memory representation of the
//! simulator: the DDR contents, the SD card's flash array, the
//! crossbar's RAM slave, and every [`crate::state::StateValue::Bytes`]
//! payload. It is a vector of [`PAGE_SIZE`]-byte pages behind `Arc`s,
//! and every page that was never written shares one process-wide zero
//! page. The live memory and a checkpoint of it are the same type:
//!
//! * **Checkpoint** is [`Clone`]: it copies the page pointers, never
//!   the bytes — O(pages).
//! * **Restore** ([`PagedBytes::restore_from`]) re-points every page
//!   that is not already the saved page (`Arc::ptr_eq`), so rewinding
//!   costs one pointer compare per page plus one pointer swap per page
//!   written since.
//! * **Writes** copy a page only the first time it is written after a
//!   checkpoint or restore shared it (`Arc::make_mut`); later writes to
//!   the same page are in place.
//!
//! Reads and writes copy page by page. AXI bursts never cross a 4 KiB
//! boundary, so an aligned beat always lies in a single page and is one
//! copy; only an unaligned access that straddles two pages takes two.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// Page size in bytes (the AXI 4 KiB burst boundary).
pub const PAGE_SIZE: usize = 4096;

type Page = [u8; PAGE_SIZE];

/// The page every never-written page points at.
fn zero_page() -> &'static Arc<Page> {
    static ZERO: OnceLock<Arc<Page>> = OnceLock::new();
    ZERO.get_or_init(|| Arc::new([0; PAGE_SIZE]))
}

/// A fixed-length, copy-on-write byte memory (see the module docs).
///
/// Equality compares contents (pages shared by pointer compare equal
/// without reading them). Bytes past [`PagedBytes::len`] in the last
/// page are always zero, so whole-page comparison is exact.
#[derive(Clone, PartialEq, Eq)]
pub struct PagedBytes {
    len: usize,
    pages: Vec<Arc<Page>>,
}

impl PagedBytes {
    /// `len` zero bytes, all pages shared with the zero page.
    pub fn zeroed(len: usize) -> Self {
        PagedBytes {
            len,
            pages: vec![zero_page().clone(); len.div_ceil(PAGE_SIZE)],
        }
    }

    /// A memory holding a copy of `data`.
    pub fn from_slice(data: &[u8]) -> Self {
        let pages = data
            .chunks(PAGE_SIZE)
            .map(|chunk| {
                let mut page = [0; PAGE_SIZE];
                page[..chunk.len()].copy_from_slice(chunk);
                Arc::new(page)
            })
            .collect();
        PagedBytes {
            len: data.len(),
            pages,
        }
    }

    /// Logical length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length memory.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages (the last one may be only partly in use).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Pages this memory shares by pointer with `other` at the same
    /// index — after a restore from `other`, every page.
    pub fn shared_pages(&self, other: &PagedBytes) -> usize {
        self.pages
            .iter()
            .zip(&other.pages)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    fn check(&self, off: usize, n: usize) {
        assert!(
            off.checked_add(n).is_some_and(|end| end <= self.len),
            "access of {n} bytes at offset {off:#x} outside a {}-byte memory",
            self.len
        );
    }

    /// Copy `buf.len()` bytes starting at `off` into `buf`. Panics when
    /// the range leaves the memory.
    #[inline]
    pub fn read_into(&self, off: usize, buf: &mut [u8]) {
        self.check(off, buf.len());
        let (mut p, mut o, mut done) = (off / PAGE_SIZE, off % PAGE_SIZE, 0);
        while done < buf.len() {
            let n = (PAGE_SIZE - o).min(buf.len() - done);
            buf[done..done + n].copy_from_slice(&self.pages[p][o..o + n]);
            (p, o, done) = (p + 1, 0, done + n);
        }
    }

    /// `len` bytes starting at `off`, copied out.
    pub fn read_vec(&self, off: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        self.read_into(off, &mut out);
        out
    }

    /// The whole memory, copied out.
    pub fn to_vec(&self) -> Vec<u8> {
        self.read_vec(0, self.len)
    }

    /// Copy `data` into the memory at `off`, first copying any page
    /// that is still shared. Panics when the range leaves the memory.
    #[inline]
    pub fn write(&mut self, off: usize, data: &[u8]) {
        self.check(off, data.len());
        let (mut p, mut o, mut done) = (off / PAGE_SIZE, off % PAGE_SIZE, 0);
        while done < data.len() {
            let n = (PAGE_SIZE - o).min(data.len() - done);
            Arc::make_mut(&mut self.pages[p])[o..o + n].copy_from_slice(&data[done..done + n]);
            (p, o, done) = (p + 1, 0, done + n);
        }
    }

    /// Rewind to `saved` by re-pointing every page that is not already
    /// `saved`'s page. No bytes are copied. Panics on a length
    /// mismatch: restore paths check lengths first and report a typed
    /// error.
    pub fn restore_from(&mut self, saved: &PagedBytes) {
        assert_eq!(
            self.len, saved.len,
            "restore from a different-length memory"
        );
        for (live, page) in self.pages.iter_mut().zip(&saved.pages) {
            if !Arc::ptr_eq(live, page) {
                *live = Arc::clone(page);
            }
        }
    }

    /// Offset of the first byte that differs from `other`, or `None`
    /// when equal. A length mismatch differs at the shorter length.
    pub fn first_difference(&self, other: &PagedBytes) -> Option<usize> {
        for (i, (a, b)) in self.pages.iter().zip(&other.pages).enumerate() {
            if a != b {
                let o = a.iter().zip(b.iter()).position(|(x, y)| x != y);
                return Some(i * PAGE_SIZE + o.unwrap_or(0));
            }
        }
        (self.len != other.len).then(|| self.len.min(other.len))
    }
}

impl fmt::Debug for PagedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagedBytes")
            .field("len", &self.len)
            .field("pages", &self.pages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_memory_shares_one_page() {
        let m = PagedBytes::zeroed(3 * PAGE_SIZE + 5);
        assert_eq!(m.len(), 3 * PAGE_SIZE + 5);
        assert_eq!(m.page_count(), 4);
        assert!(m.pages.iter().all(|p| Arc::ptr_eq(p, zero_page())));
        assert_eq!(m.to_vec(), vec![0; 3 * PAGE_SIZE + 5]);
    }

    #[test]
    fn write_copies_only_the_touched_page() {
        let mut m = PagedBytes::zeroed(4 * PAGE_SIZE);
        let snap = m.clone();
        m.write(PAGE_SIZE + 3, &[1, 2, 3]);
        assert_eq!(m.shared_pages(&snap), 3);
        assert_eq!(m.read_vec(PAGE_SIZE + 2, 5), vec![0, 1, 2, 3, 0]);
        assert_eq!(snap.read_vec(PAGE_SIZE + 2, 5), vec![0; 5]);
    }

    #[test]
    fn straddling_access_splits_across_pages() {
        let mut m = PagedBytes::zeroed(2 * PAGE_SIZE);
        let data: Vec<u8> = (1..=8).collect();
        m.write(PAGE_SIZE - 3, &data);
        let mut buf = [0u8; 8];
        m.read_into(PAGE_SIZE - 3, &mut buf);
        assert_eq!(buf.to_vec(), data);
        assert_eq!(
            m.first_difference(&PagedBytes::zeroed(2 * PAGE_SIZE)),
            Some(PAGE_SIZE - 3)
        );
    }

    #[test]
    fn restore_repoints_without_copying() {
        let mut m = PagedBytes::from_slice(&[7; 3 * PAGE_SIZE]);
        let snap = m.clone();
        m.write(10, &[0]);
        m.write(2 * PAGE_SIZE, &[0]);
        assert_eq!(m.shared_pages(&snap), 1);
        m.restore_from(&snap);
        assert_eq!(m.shared_pages(&snap), 3);
        assert_eq!(m, snap);
    }

    #[test]
    fn short_buffers_round_trip() {
        for data in [vec![], vec![0u8; 6], vec![1, 2, 3], vec![9; PAGE_SIZE + 1]] {
            let m = PagedBytes::from_slice(&data);
            assert_eq!(m.len(), data.len());
            assert_eq!(m.to_vec(), data);
        }
        assert_eq!(PagedBytes::from_slice(&[0; 6]), PagedBytes::zeroed(6));
        assert_ne!(PagedBytes::zeroed(6), PagedBytes::zeroed(7));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_access_panics() {
        PagedBytes::zeroed(16).read_into(12, &mut [0; 8]);
    }
}
