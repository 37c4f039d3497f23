//! Out-of-core CSR: a page-aligned on-disk format with a streaming writer
//! and a memory-mapped reader.
//!
//! ## File layout (little-endian, 4096-byte page-aligned sections)
//!
//! | section     | contents                                   |
//! |-------------|--------------------------------------------|
//! | header page | magic `GALECSR1`, `rows`, `cols`, `nnz` as u64 |
//! | row offsets | `rows + 1` u64 entry offsets               |
//! | col indices | `nnz` u64 column indices, sorted per row   |
//! | values      | `nnz` f64 entry values                     |
//!
//! Each section starts on a page boundary, so the mapped reader can hand
//! out properly aligned `&[u64]` / `&[f64]` views straight over the file
//! and the kernel pages the working set in and out on demand — a 10M-edge
//! graph costs ~240 MB of *file*, not of resident memory.
//!
//! [`CsrWriter`] streams entries row-by-row (column and value sections go
//! through temporary spill files, so nothing proportional to the edge
//! count is ever held in RAM; only the `O(rows)` offset table is).
//! [`CsrStore`] reads via `mmap(2)` on Linux and falls back to decoding
//! the sections into owned vectors elsewhere (or when asked explicitly,
//! which the round-trip tests use to compare both backings byte for
//! byte).

use gale_tensor::{EdgeSample, NeighborAccess};
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Section alignment: one page.
const PAGE: u64 = 4096;
/// Magic bytes identifying the format, version included.
const MAGIC: &[u8; 8] = b"GALECSR1";

/// Typed failure modes of the CSR writer.
///
/// Compaction treats a finished store file as the new source of truth and
/// discards the overlay that produced it, so the writer must report —
/// not best-effort-swallow — anything that would leave a short or
/// non-durable file behind.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// `finish` was called before every declared row was sealed, or a row
    /// was sealed past the declared count.
    RowCount {
        /// Rows sealed via [`CsrWriter::finish_row`].
        finished: usize,
        /// Rows declared at [`CsrWriter::create`].
        declared: usize,
    },
    /// A spill file held fewer bytes than the entry count requires
    /// (truncated out from under the writer).
    ShortSpill {
        /// Bytes actually spliced from the spill file.
        copied: u64,
        /// Bytes the entry count requires.
        expected: u64,
    },
    /// A store file's header or sections break the format: counts whose
    /// sections overflow or exceed the file, offsets that start past 0,
    /// decrease or end off `nnz`, or a column index out of range.
    Malformed(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "csr store i/o: {e}"),
            StoreError::RowCount { finished, declared } => {
                write!(f, "csr writer: {finished} of {declared} rows finished")
            }
            StoreError::ShortSpill { copied, expected } => {
                write!(
                    f,
                    "csr writer: short spill file ({copied} of {expected} bytes)"
                )
            }
            StoreError::Malformed(what) => write!(f, "malformed csr store: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<StoreError> for io::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Removes the spill files when the writer is dropped without reaching
/// the end of [`CsrWriter::finish`] (early drop, error path, panic).
struct SpillGuard {
    paths: [PathBuf; 2],
}

impl Drop for SpillGuard {
    fn drop(&mut self) {
        for p in &self.paths {
            let _ = std::fs::remove_file(p);
        }
    }
}

fn pad_to_page(w: &mut impl Write, pos: u64) -> io::Result<u64> {
    let rem = pos % PAGE;
    if rem == 0 {
        return Ok(pos);
    }
    let pad = (PAGE - rem) as usize;
    w.write_all(&vec![0u8; pad])?;
    Ok(pos + pad as u64)
}

/// Streaming writer for the on-disk CSR format.
///
/// Rows must be finished in ascending order (empty rows included); entries
/// within a row must be pushed in ascending column order. Columns and
/// values spill to `<path>.cols.tmp` / `<path>.vals.tmp` while writing and
/// are spliced into the final page-aligned file by [`CsrWriter::finish`].
pub struct CsrWriter {
    path: PathBuf,
    cols_tmp: PathBuf,
    vals_tmp: PathBuf,
    cols: BufWriter<File>,
    vals: BufWriter<File>,
    indptr: Vec<u64>,
    rows: usize,
    n_cols: usize,
    nnz: u64,
    finished_rows: usize,
    // Dropped last (declaration order): removes the spill files whether
    // the writer finishes cleanly or is abandoned mid-stream.
    _spill_guard: SpillGuard,
}

impl CsrWriter {
    /// Creates a writer for a `rows x cols` operator at `path`.
    pub fn create(path: impl AsRef<Path>, rows: usize, cols: usize) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let cols_tmp = path.with_extension("cols.tmp");
        let vals_tmp = path.with_extension("vals.tmp");
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0);
        Ok(CsrWriter {
            cols: BufWriter::new(File::create(&cols_tmp)?),
            vals: BufWriter::new(File::create(&vals_tmp)?),
            path,
            _spill_guard: SpillGuard {
                paths: [cols_tmp.clone(), vals_tmp.clone()],
            },
            cols_tmp,
            vals_tmp,
            indptr,
            rows,
            n_cols: cols,
            nnz: 0,
            finished_rows: 0,
        })
    }

    /// Appends an entry to the row currently being built.
    pub fn push(&mut self, col: usize, value: f64) -> Result<(), StoreError> {
        assert!(col < self.n_cols, "CsrWriter::push: col {col} out of range");
        self.cols.write_all(&(col as u64).to_le_bytes())?;
        self.vals.write_all(&value.to_le_bytes())?;
        self.nnz += 1;
        Ok(())
    }

    /// Seals the current row. Must be called exactly `rows` times.
    pub fn finish_row(&mut self) -> Result<(), StoreError> {
        if self.finished_rows >= self.rows {
            return Err(StoreError::RowCount {
                finished: self.finished_rows + 1,
                declared: self.rows,
            });
        }
        self.finished_rows += 1;
        self.indptr.push(self.nnz);
        Ok(())
    }

    /// Assembles the final file, syncs it to stable storage, and removes
    /// the spill files. The file is only durable once this returns `Ok` —
    /// callers that replace another representation (e.g. a delta overlay
    /// compacting into a fresh CSR) must not discard the old one before.
    pub fn finish(mut self) -> Result<(), StoreError> {
        if self.finished_rows != self.rows {
            return Err(StoreError::RowCount {
                finished: self.finished_rows,
                declared: self.rows,
            });
        }
        self.cols.flush()?;
        self.vals.flush()?;
        // Swap in empty buffers so the spill handles close now; the real
        // fields can't be moved out of a struct that still owns a guard.
        drop(std::mem::replace(
            &mut self.cols,
            BufWriter::new(File::open(&self.cols_tmp)?),
        ));
        drop(std::mem::replace(
            &mut self.vals,
            BufWriter::new(File::open(&self.vals_tmp)?),
        ));

        let mut out = BufWriter::new(File::create(&self.path)?);
        // Header page.
        out.write_all(MAGIC)?;
        out.write_all(&(self.rows as u64).to_le_bytes())?;
        out.write_all(&(self.n_cols as u64).to_le_bytes())?;
        out.write_all(&self.nnz.to_le_bytes())?;
        let mut pos = pad_to_page(&mut out, 8 * 4)?;
        // Row-offset section.
        for off in &self.indptr {
            out.write_all(&off.to_le_bytes())?;
        }
        pos += 8 * self.indptr.len() as u64;
        pos = pad_to_page(&mut out, pos)?;
        // Column and value sections, spliced from the spill files.
        for tmp in [&self.cols_tmp, &self.vals_tmp] {
            let mut src = File::open(tmp)?;
            let copied = io::copy(&mut src, &mut out)?;
            if copied != 8 * self.nnz {
                return Err(StoreError::ShortSpill {
                    copied,
                    expected: 8 * self.nnz,
                });
            }
            pos += copied;
            pos = pad_to_page(&mut out, pos)?;
        }
        out.flush()?;
        // fsync before reporting success: "finished" must mean "on disk",
        // not "in the page cache" (the spill guard removes the tmps).
        out.get_ref().sync_all()?;
        Ok(())
    }
}

/// Writes an in-memory operator (anything implementing [`NeighborAccess`])
/// to the on-disk format. Test and small-graph convenience.
pub fn write_csr<A: NeighborAccess + ?Sized>(
    a: &A,
    cols: usize,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    let mut w = CsrWriter::create(path, a.node_count(), cols)?;
    for r in 0..a.node_count() {
        let mut err = None;
        a.visit_neighbors(r, &mut |c, v| {
            if err.is_none() {
                err = w.push(c, v).err();
            }
        });
        if let Some(e) = err {
            return Err(e.into());
        }
        w.finish_row()?;
    }
    Ok(w.finish()?)
}

/// How a [`CsrStore`] holds the file contents.
enum Backing {
    /// A read-only private `mmap(2)` of the whole file (Linux).
    #[cfg(target_os = "linux")]
    Mapped(mapped::Mapping),
    /// Sections decoded into owned vectors (portable fallback).
    Owned {
        indptr: Vec<u64>,
        cols: Vec<u64>,
        vals: Vec<f64>,
    },
}

/// A read-only CSR operator backed by the on-disk format.
pub struct CsrStore {
    rows: usize,
    cols: usize,
    nnz: usize,
    indptr_off: usize,
    cols_off: usize,
    vals_off: usize,
    backing: Backing,
}

fn malformed(what: String) -> io::Error {
    StoreError::Malformed(what).into()
}

/// Byte offsets of the offset, column and value sections and the file
/// length they need; `None` when the header's counts overflow them.
fn section_offsets(rows: u64, nnz: u64) -> Option<(u64, u64, u64, u64)> {
    let entries = nnz.checked_mul(8)?;
    let cols_off = rows
        .checked_add(1)?
        .checked_mul(8)?
        .checked_add(PAGE)?
        .checked_next_multiple_of(PAGE)?;
    let vals_off = cols_off
        .checked_add(entries)?
        .checked_next_multiple_of(PAGE)?;
    Some((PAGE, cols_off, vals_off, vals_off.checked_add(entries)?))
}

/// Reads the header and checks, before anything is allocated or mapped,
/// that its sections fit in the file. The store comes back with no
/// sections loaded (an empty owned backing).
fn read_layout(f: &mut File) -> io::Result<CsrStore> {
    let (rows, cols, nnz) = read_header(f)?;
    let (indptr_off, cols_off, vals_off, need) = section_offsets(rows, nnz)
        .ok_or_else(|| malformed(format!("rows {rows} / nnz {nnz} overflow the layout")))?;
    let len = f.metadata()?.len();
    if len < need {
        return Err(malformed(format!("truncated: {len} < {need} bytes")));
    }
    let size = |x: u64| usize::try_from(x).map_err(|_| malformed(format!("{x} exceeds usize")));
    Ok(CsrStore {
        rows: size(rows)?,
        cols: size(cols)?,
        nnz: size(nnz)?,
        indptr_off: size(indptr_off)?,
        cols_off: size(cols_off)?,
        vals_off: size(vals_off)?,
        backing: Backing::Owned {
            indptr: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        },
    })
}

/// Checks what every reader indexes by: offsets start at 0, never
/// decrease and end at `nnz`; every column is below `cols`.
fn validate(indptr: &[u64], col_idx: &[u64], cols: usize) -> io::Result<()> {
    if indptr.first() != Some(&0) {
        return Err(malformed("row offsets do not start at 0".into()));
    }
    if let Some(r) = indptr.windows(2).position(|w| w[0] > w[1]) {
        return Err(malformed(format!("row offsets decrease after row {r}")));
    }
    let end = indptr.last().copied().unwrap_or(0);
    if end != col_idx.len() as u64 {
        return Err(malformed(format!(
            "row offsets end at {end}, nnz is {}",
            col_idx.len()
        )));
    }
    if let Some(k) = col_idx.iter().position(|&c| c >= cols as u64) {
        return Err(malformed(format!(
            "entry {k}: column {} >= {cols}",
            col_idx[k]
        )));
    }
    Ok(())
}

fn read_header(f: &mut File) -> io::Result<(u64, u64, u64)> {
    let mut head = [0u8; 32];
    f.read_exact(&mut head)?;
    if &head[..8] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a GALECSR1 file",
        ));
    }
    let u = |i: usize| u64::from_le_bytes(head[i..i + 8].try_into().unwrap());
    Ok((u(8), u(16), u(24)))
}

impl CsrStore {
    /// Opens a store, memory-mapping it on Linux and falling back to
    /// [`CsrStore::open_in_memory`] elsewhere.
    ///
    /// Both backings validate the file before returning it (see
    /// [`StoreError::Malformed`], reported as `InvalidData`): one pass over
    /// the row offsets and the column indices, O(rows + nnz), which on the
    /// mapped backing also pages both sections in once.
    pub fn open(path: impl AsRef<Path>) -> io::Result<CsrStore> {
        #[cfg(target_os = "linux")]
        {
            Self::open_mapped(path)
        }
        #[cfg(not(target_os = "linux"))]
        {
            Self::open_in_memory(path)
        }
    }

    /// Opens a store via `mmap(2)`. Linux only.
    #[cfg(target_os = "linux")]
    pub fn open_mapped(path: impl AsRef<Path>) -> io::Result<CsrStore> {
        Self::open_with(path.as_ref(), |f, _| {
            let len = usize::try_from(f.metadata()?.len())
                .map_err(|_| malformed("file exceeds the address space".into()))?;
            Ok(Backing::Mapped(mapped::Mapping::map(f, len)?))
        })
    }

    /// Opens a store by decoding the sections into owned memory. Portable;
    /// also the explicit choice for tests comparing both backings.
    pub fn open_in_memory(path: impl AsRef<Path>) -> io::Result<CsrStore> {
        Self::open_with(path.as_ref(), |f, l| {
            let mut read_u64s = |off: usize, count: usize| -> io::Result<Vec<u64>> {
                f.seek(SeekFrom::Start(off as u64))?;
                let mut bytes = vec![0u8; count * 8];
                f.read_exact(&mut bytes)?;
                Ok(bytes
                    .chunks_exact(8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .collect())
            };
            Ok(Backing::Owned {
                indptr: read_u64s(l.indptr_off, l.rows + 1)?,
                cols: read_u64s(l.cols_off, l.nnz)?,
                vals: read_u64s(l.vals_off, l.nnz)?
                    .into_iter()
                    .map(f64::from_bits)
                    .collect(),
            })
        })
    }

    /// Both open paths: `load` maps or reads sections that the layout
    /// check has already proven to lie inside the file, and the store is
    /// validated before it is handed out.
    fn open_with(
        path: &Path,
        load: impl FnOnce(&mut File, &CsrStore) -> io::Result<Backing>,
    ) -> io::Result<CsrStore> {
        let mut f = File::open(path)?;
        let mut store = read_layout(&mut f)?;
        store.backing = load(&mut f, &store)?;
        validate(store.indptr(), store.col_indices(), store.cols)?;
        Ok(store)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Whether this store reads through a memory mapping (as opposed to
    /// the decoded in-memory fallback).
    pub fn is_mapped(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            matches!(self.backing, Backing::Mapped(_))
        }
        #[cfg(not(target_os = "linux"))]
        {
            false
        }
    }

    fn indptr(&self) -> &[u64] {
        match &self.backing {
            #[cfg(target_os = "linux")]
            Backing::Mapped(m) => m.u64s(self.indptr_off, self.rows + 1),
            Backing::Owned { indptr, .. } => indptr,
        }
    }

    fn col_indices(&self) -> &[u64] {
        match &self.backing {
            #[cfg(target_os = "linux")]
            Backing::Mapped(m) => m.u64s(self.cols_off, self.nnz),
            Backing::Owned { cols, .. } => cols,
        }
    }

    /// Row `r`'s column indices and values as borrowed slices.
    pub fn row(&self, r: usize) -> (&[u64], &[f64]) {
        let indptr = self.indptr();
        let lo = indptr[r] as usize;
        let hi = indptr[r + 1] as usize;
        match &self.backing {
            #[cfg(target_os = "linux")]
            Backing::Mapped(m) => (
                &m.u64s(self.cols_off, self.nnz)[lo..hi],
                &m.f64s(self.vals_off, self.nnz)[lo..hi],
            ),
            Backing::Owned { cols, vals, .. } => (&cols[lo..hi], &vals[lo..hi]),
        }
    }
}

impl NeighborAccess for CsrStore {
    fn node_count(&self) -> usize {
        self.rows
    }

    fn neighbor_count(&self, r: usize) -> usize {
        let indptr = self.indptr();
        (indptr[r + 1] - indptr[r]) as usize
    }

    fn visit_neighbors(&self, r: usize, f: &mut dyn FnMut(usize, f64)) {
        let (cols, vals) = self.row(r);
        for (c, v) in cols.iter().zip(vals) {
            f(*c as usize, *v);
        }
    }

    fn has_neighbor(&self, r: usize, c: usize) -> bool {
        let (cols, _) = self.row(r);
        cols.binary_search(&(c as u64)).is_ok()
    }
}

impl EdgeSample for CsrStore {
    fn entry_count(&self) -> usize {
        self.nnz
    }

    fn entry_at(&self, k: usize) -> (usize, usize) {
        assert!(k < self.nnz, "entry_at: {k} >= nnz {}", self.nnz);
        let indptr = self.indptr();
        let r = indptr.partition_point(|&p| p as usize <= k) - 1;
        (r, self.col_indices()[k] as usize)
    }
}

// Scoped like gale-tensor's `par` / `aligned`: the crate denies unsafe
// code except for this audited module, which wraps `mmap(2)` through raw
// `extern "C"` declarations (the workspace builds without libc) and hands
// out typed views over the page-aligned sections.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod mapped {
    use std::fs::File;
    use std::io;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 0x1;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A read-only private mapping of a whole file.
    pub struct Mapping {
        ptr: *const u8,
        len: usize,
    }

    // The mapping is read-only for its entire lifetime, so shared access
    // from the worker pool is safe.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps `len` bytes of `f` read-only.
        pub fn map(f: &File, len: usize) -> io::Result<Mapping> {
            if len == 0 {
                return Ok(Mapping {
                    ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                    len: 0,
                });
            }
            // SAFETY: a fresh READ/PRIVATE mapping of a file we hold open;
            // failure is reported via MAP_FAILED and surfaced as an error.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    f.as_raw_fd(),
                    0,
                )
            };
            if ptr == MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            Ok(Mapping {
                ptr: ptr as *const u8,
                len,
            })
        }

        fn slice<T>(&self, byte_off: usize, count: usize) -> &[T] {
            let need = byte_off + count * std::mem::size_of::<T>();
            assert!(need <= self.len, "mapping: {need} > {} bytes", self.len);
            let ptr = unsafe { self.ptr.add(byte_off) } as *const T;
            assert_eq!(
                ptr as usize % std::mem::align_of::<T>(),
                0,
                "mapping: section misaligned"
            );
            // SAFETY: in-bounds (asserted), aligned (sections are
            // page-aligned by construction, asserted), read-only for the
            // mapping's lifetime, and u64/f64 have no invalid bit
            // patterns. Little-endian layout matches the host (the format
            // is LE; the mapped reader is only compiled on Linux targets,
            // which this workspace builds for x86-64/aarch64 LE).
            unsafe { std::slice::from_raw_parts(ptr, count) }
        }

        /// A `&[u64]` view over `count` entries at `byte_off`.
        pub fn u64s(&self, byte_off: usize, count: usize) -> &[u64] {
            self.slice(byte_off, count)
        }

        /// A `&[f64]` view over `count` entries at `byte_off`.
        pub fn f64s(&self, byte_off: usize, count: usize) -> &[f64] {
            self.slice(byte_off, count)
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: exactly the pointer/length pair mmap returned.
                unsafe {
                    munmap(self.ptr as *mut c_void, self.len);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gale_tensor::SparseMatrix;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gale-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn ragged() -> SparseMatrix {
        // Ragged rows incl. leading/trailing empties and an empty middle.
        SparseMatrix::from_triplets(
            6,
            5,
            [
                (1, 0, 0.5),
                (1, 4, -2.0),
                (3, 2, 1.25),
                (4, 0, 3.0),
                (4, 1, 4.0),
                (4, 3, 5.0),
            ],
        )
    }

    #[test]
    fn roundtrip_both_backings() {
        let s = ragged();
        let path = tmp("roundtrip.csr");
        write_csr(&s, s.cols(), &path).unwrap();
        for store in [
            CsrStore::open(&path).unwrap(),
            CsrStore::open_in_memory(&path).unwrap(),
        ] {
            assert_eq!(store.rows(), 6);
            assert_eq!(store.cols(), 5);
            assert_eq!(store.nnz(), 6);
            for r in 0..6 {
                let mut got = Vec::new();
                store.visit_neighbors(r, &mut |c, v| got.push((c, v.to_bits())));
                let want: Vec<(usize, u64)> =
                    s.row_iter(r).map(|(c, v)| (c, v.to_bits())).collect();
                assert_eq!(got, want, "row {r}");
                assert_eq!(store.neighbor_count(r), s.row_nnz(r));
            }
        }
        #[cfg(target_os = "linux")]
        assert!(CsrStore::open(&path).unwrap().is_mapped());
    }

    #[test]
    fn entry_at_matches_sparse() {
        let s = ragged();
        let path = tmp("entries.csr");
        write_csr(&s, s.cols(), &path).unwrap();
        let store = CsrStore::open(&path).unwrap();
        assert_eq!(store.entry_count(), s.nnz());
        for k in 0..s.nnz() {
            assert_eq!(store.entry_at(k), s.entry_coords(k), "entry {k}");
        }
    }

    #[test]
    fn empty_matrix_roundtrips() {
        let s = SparseMatrix::zeros(4, 4);
        let path = tmp("empty.csr");
        write_csr(&s, 4, &path).unwrap();
        let store = CsrStore::open(&path).unwrap();
        assert_eq!(store.rows(), 4);
        assert_eq!(store.nnz(), 0);
        for r in 0..4 {
            assert_eq!(store.neighbor_count(r), 0);
        }
    }

    #[test]
    fn unfinished_rows_is_typed_error() {
        let path = tmp("short.csr");
        let mut w = CsrWriter::create(&path, 3, 3).unwrap();
        w.push(1, 1.0).unwrap();
        w.finish_row().unwrap();
        match w.finish() {
            Err(StoreError::RowCount { finished, declared }) => {
                assert_eq!((finished, declared), (1, 3));
            }
            other => panic!("wanted RowCount error, got {other:?}"),
        }
    }

    #[test]
    fn sealing_past_declared_rows_is_typed_error() {
        let path = tmp("overrow.csr");
        let mut w = CsrWriter::create(&path, 1, 3).unwrap();
        w.finish_row().unwrap();
        assert!(matches!(
            w.finish_row(),
            Err(StoreError::RowCount {
                finished: 2,
                declared: 1
            })
        ));
    }

    #[test]
    fn dropped_writer_removes_spill_files() {
        let path = tmp("dropped.csr");
        let cols_tmp = path.with_extension("cols.tmp");
        let vals_tmp = path.with_extension("vals.tmp");
        let mut w = CsrWriter::create(&path, 2, 2).unwrap();
        w.push(0, 1.0).unwrap();
        assert!(cols_tmp.exists() && vals_tmp.exists());
        drop(w);
        assert!(!cols_tmp.exists(), "cols spill survived drop");
        assert!(!vals_tmp.exists(), "vals spill survived drop");
    }

    #[test]
    fn finish_removes_spill_files() {
        let s = ragged();
        let path = tmp("synced.csr");
        write_csr(&s, s.cols(), &path).unwrap();
        assert!(!path.with_extension("cols.tmp").exists());
        assert!(!path.with_extension("vals.tmp").exists());
        assert!(CsrStore::open(&path).is_ok());
    }

    #[test]
    fn garbage_file_is_refused() {
        let path = tmp("garbage.csr");
        std::fs::write(&path, b"definitely not a csr file").unwrap();
        assert!(CsrStore::open(&path).is_err());
        assert!(CsrStore::open_in_memory(&path).is_err());
    }
}
