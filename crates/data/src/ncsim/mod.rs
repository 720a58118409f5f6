//! `ncsim`: a minimal chunked scientific-data container with hyperslab
//! reads, standing in for the paper's NetCDF4 parallel-IO path.
//!
//! One on-disk version, v2: row-panel chunks of an f64 or f32 variable,
//! optionally compressed with a dependency-free codec (byte-shuffle + RLE,
//! see [`codec`]):
//!
//! ```text
//! magic      : 8 bytes  = b"NCSIM\x02\0\0"
//! name       : u32 length + UTF-8 bytes (variable name, ≤ 4096 bytes)
//! rows       : u64  (spatial degrees of freedom, M)
//! cols       : u64  (snapshots, N)
//! dtype      : u8   (0 = f64, 1 = f32)
//! codec      : u8   (0 = raw, 1 = byte-shuffle + RLE)
//! chunk_rows : u64  (rows per panel; last panel may be shorter)
//! chunk_lens : ceil(rows / chunk_rows) x u64  (byte length of each chunk,
//!              written as zeros at create and patched by `finish`)
//! chunks     : concatenated row panels
//! ```
//!
//! Each chunk holds rows `[ci*chunk_rows, min(rows, (ci+1)*chunk_rows))`
//! stored **column-major within the panel**:
//!
//! ```text
//! seg_lens : cols x u32           (encoded byte length of each segment)
//! segments : cols segments, column order; segment = tag byte + payload
//! ```
//!
//! The column-segment layout is what makes the file streamable: the driver
//! consumes *column batches* (B snapshots at a time), and columns
//! `[c0, c1)` of a chunk are one contiguous byte range — so a batch read
//! costs one seek + one sequential read per chunk regardless of how the
//! codec changed segment sizes, with no N/B read amplification. A per-rank
//! *row* block ([`NcsimReader::read_rank_block`]) touches only the chunks
//! it overlaps — the hyperslab parallel NetCDF reads for a
//! domain-decomposed field. Each rank opens its own reader (its own file
//! handle), exactly like MPI-IO with independent access.
//!
//! All reader entry points return typed [`io::Error`]s — corrupt magic,
//! unsupported versions (v1 included), truncated files, out-of-range
//! requests and dtype mismatches are errors, never panics, so a bad file
//! cannot take down a long streaming run.

pub mod codec;

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::mem;
use std::path::Path;

use bytes::{Buf, BufMut, BytesMut};
use psvd_linalg::{Matrix, Scalar};

const MAGIC: &[u8; 8] = b"NCSIM\x02\0\0";

/// Longest variable name the writer emits and the reader accepts.
const MAX_NAME_BYTES: usize = 4096;

/// Row-panel height when [`V2Options::chunk_rows`] is 0: 8 KiB per column
/// at f64 — big enough to amortize seek cost, small enough that a panel of
/// a few thousand columns fits cache-friendly in the prefetch ring.
const DEFAULT_CHUNK_ROWS: usize = 1024;

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn bad_input(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg.into())
}

/// Element type of an ncsim variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dtype {
    /// IEEE binary64.
    F64,
    /// IEEE binary32.
    F32,
}

impl Dtype {
    /// On-disk tag byte.
    pub fn tag(self) -> u8 {
        match self {
            Dtype::F64 => 0,
            Dtype::F32 => 1,
        }
    }

    /// Parse an on-disk tag byte.
    pub fn from_tag(t: u8) -> Option<Self> {
        match t {
            0 => Some(Dtype::F64),
            1 => Some(Dtype::F32),
            _ => None,
        }
    }

    /// Element size in bytes.
    pub fn size(self) -> usize {
        match self {
            Dtype::F64 => 8,
            Dtype::F32 => 4,
        }
    }

    /// Stable lowercase label ("f64" / "f32").
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F64 => "f64",
            Dtype::F32 => "f32",
        }
    }

    /// The dtype corresponding to a [`Scalar`] element type.
    pub fn of<T: Scalar>() -> Self {
        match T::NAME {
            "f64" => Dtype::F64,
            "f32" => Dtype::F32,
            other => unreachable!("Scalar is sealed; unknown dtype {other}"),
        }
    }
}

/// Chunk-payload codec of a v2 file. Purely an optimization: decoders
/// accept both segment tags regardless of this field, which only records
/// what the writer *attempted* per segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    /// Raw little-endian element bytes.
    Raw,
    /// Byte-shuffle + PackBits RLE per column segment, with automatic
    /// raw fallback for segments that do not shrink.
    ShuffleRle,
}

impl Codec {
    /// On-disk tag byte.
    pub fn tag(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::ShuffleRle => 1,
        }
    }

    /// Parse an on-disk tag byte.
    pub fn from_tag(t: u8) -> Option<Self> {
        match t {
            0 => Some(Codec::Raw),
            1 => Some(Codec::ShuffleRle),
            _ => None,
        }
    }
}

/// Writer-side options for the v2 format.
#[derive(Clone, Copy, Debug)]
pub struct V2Options {
    /// Rows per panel; `0` means the default of 1024 (the writer also
    /// clamps to the matrix height so tiny files get one panel).
    pub chunk_rows: usize,
    /// Segment codec to attempt.
    pub codec: Codec,
}

impl Default for V2Options {
    fn default() -> Self {
        Self { chunk_rows: 0, codec: Codec::Raw }
    }
}

/// Parsed header of an ncsim file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NcsimHeader {
    /// Variable name.
    pub name: String,
    /// Spatial degrees of freedom (matrix rows).
    pub rows: usize,
    /// Snapshots (matrix columns).
    pub cols: usize,
    /// Container version (always 2, the one this build reads).
    pub version: u8,
    /// Element type.
    pub dtype: Dtype,
    /// Codec the writer attempted.
    pub codec: Codec,
    /// Rows per chunk panel (positive whenever `rows > 0`).
    pub chunk_rows: usize,
}

impl NcsimHeader {
    /// Payload bytes the header declares, with overflow checked.
    fn payload_bytes(&self) -> io::Result<u64> {
        self.rows
            .checked_mul(self.cols)
            .and_then(|n| n.checked_mul(self.dtype.size()))
            .map(|n| n as u64)
            .ok_or_else(|| bad_data("dimensions overflow"))
    }
}

// ---------------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------------

/// Write a full matrix as an ncsim v2 file at the element type of the
/// matrix, with the given chunking/codec options.
pub fn write_v2<T: Scalar>(
    path: &Path,
    name: &str,
    data: &Matrix<T>,
    opts: V2Options,
) -> io::Result<()> {
    let mut w = NcsimV2Writer::<T>::create(path, name, data.rows(), data.cols(), opts)?;
    w.write_rows(data.as_slice())?;
    w.finish()
}

/// Incremental row-wise v2 writer: rows are buffered into panels of
/// `chunk_rows`, each panel transposed to column segments, encoded, and
/// written with its seg-length table; `finish` seeks back and patches the
/// chunk-length table written as zeros at create time.
pub struct NcsimV2Writer<T: Scalar> {
    out: BufWriter<File>,
    rows: usize,
    cols: usize,
    chunk_rows: usize,
    codec: Codec,
    table_pos: u64,
    n_chunks: usize,
    chunk_lens: Vec<u64>,
    pending: Vec<T>,
    pending_rows: usize,
    written_rows: usize,
    // Scratch reused across chunks so steady-state writes allocate nothing.
    colbuf: Vec<u8>,
    shuf: Vec<u8>,
    rle: Vec<u8>,
    body: Vec<u8>,
    seg_table: Vec<u8>,
}

impl<T: Scalar> NcsimV2Writer<T> {
    /// Create the file and write the v2 header plus a zeroed chunk-length
    /// table (patched by [`NcsimV2Writer::finish`]).
    pub fn create(
        path: &Path,
        name: &str,
        rows: usize,
        cols: usize,
        opts: V2Options,
    ) -> io::Result<Self> {
        if name.len() > MAX_NAME_BYTES {
            return Err(bad_input(format!(
                "variable name of {} bytes exceeds the {MAX_NAME_BYTES}-byte limit",
                name.len()
            )));
        }
        let elem = mem::size_of::<T>();
        rows.checked_mul(cols)
            .and_then(|n| n.checked_mul(elem))
            .ok_or_else(|| bad_input(format!("{rows} x {cols} {} payload overflows", T::NAME)))?;
        let chunk_rows = if opts.chunk_rows == 0 { DEFAULT_CHUNK_ROWS } else { opts.chunk_rows };
        // One panel suffices for short matrices; clamping also keeps the
        // per-segment u32 length guard tight.
        let chunk_rows = chunk_rows.min(rows.max(1));
        // A raw segment is chunk_rows * elem bytes + 1 tag byte and the
        // codec never grows a segment past that, so this guard makes every
        // seg_lens entry representable.
        if chunk_rows.checked_mul(elem).is_none_or(|b| b + 1 > u32::MAX as usize) {
            return Err(bad_input(format!("chunk_rows {chunk_rows} segment exceeds u32 bytes")));
        }
        cols.checked_mul(4).ok_or_else(|| bad_input("seg table size overflows"))?;
        let n_chunks = if rows == 0 { 0 } else { rows.div_ceil(chunk_rows) };

        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        let mut header = BytesMut::with_capacity(64 + name.len());
        header.put_slice(MAGIC);
        header.put_u32_le(name.len() as u32);
        header.put_slice(name.as_bytes());
        header.put_u64_le(rows as u64);
        header.put_u64_le(cols as u64);
        header.put_u8(Dtype::of::<T>().tag());
        header.put_u8(opts.codec.tag());
        header.put_u64_le(chunk_rows as u64);
        let table_pos = header.len() as u64;
        out.write_all(&header)?;
        out.write_all(&vec![0u8; n_chunks * 8])?;
        Ok(Self {
            out,
            rows,
            cols,
            chunk_rows,
            codec: opts.codec,
            table_pos,
            n_chunks,
            chunk_lens: Vec::with_capacity(n_chunks),
            pending: Vec::with_capacity(chunk_rows.saturating_mul(cols).min(1 << 24)),
            pending_rows: 0,
            written_rows: 0,
            colbuf: Vec::new(),
            shuf: Vec::new(),
            rle: Vec::new(),
            body: Vec::new(),
            seg_table: Vec::new(),
        })
    }

    /// Append one row (must have exactly `cols` values).
    pub fn write_row(&mut self, row: &[T]) -> io::Result<()> {
        if row.len() != self.cols {
            return Err(bad_input(format!(
                "row has {} values, file declares {} columns",
                row.len(),
                self.cols
            )));
        }
        if self.written_rows + self.pending_rows >= self.rows {
            return Err(bad_input(format!(
                "file declares {} rows, all already written",
                self.rows
            )));
        }
        self.pending.extend_from_slice(row);
        self.pending_rows += 1;
        if self.pending_rows == self.chunk_rows {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Append a row-major slab of whole rows (`data.len()` must be a
    /// multiple of `cols`), flushing completed panels as it goes.
    pub fn write_rows(&mut self, data: &[T]) -> io::Result<()> {
        if self.cols == 0 {
            return if data.is_empty() {
                Ok(())
            } else {
                Err(bad_input("write_rows on a zero-column file expects no data"))
            };
        }
        if !data.len().is_multiple_of(self.cols) {
            return Err(bad_input(format!(
                "slab of {} values is not a whole number of {}-column rows",
                data.len(),
                self.cols
            )));
        }
        let nrows = data.len() / self.cols;
        if self.written_rows + self.pending_rows + nrows > self.rows {
            return Err(bad_input(format!(
                "slab of {nrows} rows exceeds the {} declared (already have {})",
                self.rows,
                self.written_rows + self.pending_rows
            )));
        }
        let mut off = 0;
        let mut left = nrows;
        while left > 0 {
            let take = (self.chunk_rows - self.pending_rows).min(left);
            self.pending.extend_from_slice(&data[off..off + take * self.cols]);
            self.pending_rows += take;
            off += take * self.cols;
            left -= take;
            if self.pending_rows == self.chunk_rows {
                self.flush_chunk()?;
            }
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        let nrows = self.pending_rows;
        debug_assert!(nrows > 0);
        let elem = mem::size_of::<T>();
        let try_compress = self.codec == Codec::ShuffleRle;
        self.body.clear();
        self.seg_table.clear();
        for j in 0..self.cols {
            self.colbuf.clear();
            for i in 0..nrows {
                self.pending[i * self.cols + j].put_le_bytes(&mut self.colbuf);
            }
            let len = codec::encode_segment(
                &self.colbuf,
                elem,
                try_compress,
                &mut self.shuf,
                &mut self.rle,
                &mut self.body,
            );
            debug_assert!(len <= nrows * elem + 1);
            self.seg_table.extend_from_slice(&(len as u32).to_le_bytes());
        }
        self.out.write_all(&self.seg_table)?;
        self.out.write_all(&self.body)?;
        self.chunk_lens.push((self.seg_table.len() + self.body.len()) as u64);
        self.written_rows += nrows;
        self.pending.clear();
        self.pending_rows = 0;
        Ok(())
    }

    /// Flush the final partial panel, verify all declared rows were
    /// written, and patch the chunk-length table.
    pub fn finish(mut self) -> io::Result<()> {
        // A zero-column file's chunks hold no segments: the zeroed chunk
        // table written at create time is already complete.
        if self.cols == 0 {
            return self.out.flush();
        }
        if self.pending_rows > 0 {
            self.flush_chunk()?;
        }
        if self.written_rows != self.rows {
            return Err(bad_data(format!(
                "declared {} rows but wrote {}",
                self.rows, self.written_rows
            )));
        }
        debug_assert_eq!(self.chunk_lens.len(), self.n_chunks);
        self.out.seek(SeekFrom::Start(self.table_pos))?;
        let mut table = BytesMut::with_capacity(self.chunk_lens.len() * 8);
        for &len in &self.chunk_lens {
            table.put_u64_le(len);
        }
        self.out.write_all(&table)?;
        self.out.flush()
    }
}

// ---------------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------------

/// Reader with hyperslab (row-range and column-range) access.
pub struct NcsimReader {
    file: BufReader<File>,
    header: NcsimHeader,
    /// Absolute file offset of each chunk's seg-length table.
    chunk_offsets: Vec<u64>,
    chunk_lens: Vec<u64>,
    /// Lazily-built per-chunk cumulative segment offsets (`cum[j]` = byte
    /// offset of column `j`'s segment within the chunk body; `cum[cols]` =
    /// body length). Cached after first touch so steady-state batch reads
    /// re-read no metadata.
    seg_tables: Vec<Option<Vec<u64>>>,
    bytes_read: u64,
    chunks_touched: u64,
    // Scratch reused across reads.
    chunkbuf: Vec<u8>,
    colraw: Vec<u8>,
    shuf: Vec<u8>,
}

impl NcsimReader {
    /// Open and parse the header of a v2 file. Other `NCSIM` versions
    /// (v1 included) and non-ncsim files produce typed `InvalidData` errors.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut file = BufReader::new(File::open(path)?);
        let file_len = file.get_ref().metadata()?.len();
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic).map_err(|_| bad_data("file too short for ncsim magic"))?;
        if &magic[..5] != b"NCSIM" || magic[6] != 0 || magic[7] != 0 {
            return Err(bad_data("not an ncsim file"));
        }
        let version = magic[5];
        if version != 2 {
            return Err(bad_data(format!(
                "unsupported ncsim version {version} (this build reads v2)"
            )));
        }

        let mut len4 = [0u8; 4];
        file.read_exact(&mut len4).map_err(|_| bad_data("truncated header"))?;
        let name_len = (&len4[..]).get_u32_le() as usize;
        if name_len > MAX_NAME_BYTES {
            return Err(bad_data("unreasonable name length"));
        }
        let mut name_bytes = vec![0u8; name_len];
        file.read_exact(&mut name_bytes).map_err(|_| bad_data("truncated header"))?;
        let name = String::from_utf8(name_bytes).map_err(|_| bad_data("name not UTF-8"))?;
        let mut fields = [0u8; 26];
        file.read_exact(&mut fields).map_err(|_| bad_data("truncated header"))?;
        let mut cursor = &fields[..];
        let rows = cursor.get_u64_le() as usize;
        let cols = cursor.get_u64_le() as usize;
        let dtype_tag = cursor.get_u8();
        let codec_tag = cursor.get_u8();
        let chunk_rows = cursor.get_u64_le() as usize;
        let dtype = Dtype::from_tag(dtype_tag)
            .ok_or_else(|| bad_data(format!("unknown dtype tag {dtype_tag}")))?;
        let file_codec = Codec::from_tag(codec_tag)
            .ok_or_else(|| bad_data(format!("unknown codec tag {codec_tag}")))?;
        if rows > 0 && chunk_rows == 0 {
            return Err(bad_data("zero chunk_rows with nonzero rows"));
        }
        let header =
            NcsimHeader { name, rows, cols, version, dtype, codec: file_codec, chunk_rows };
        header.payload_bytes()?; // overflow guard on declared dimensions
        let n_chunks = if rows == 0 { 0 } else { rows.div_ceil(chunk_rows) };
        let table_bytes =
            n_chunks.checked_mul(8).ok_or_else(|| bad_data("chunk table size overflows"))?;
        let mut table = vec![0u8; table_bytes];
        file.read_exact(&mut table).map_err(|_| bad_data("truncated chunk table"))?;
        let mut cursor = &table[..];
        let seg_table_bytes =
            cols.checked_mul(4).ok_or_else(|| bad_data("seg table overflows"))? as u64;
        let data_start =
            (8 + 4 + header.name.len() + 8 + 8 + 1 + 1 + 8) as u64 + table_bytes as u64;
        let mut chunk_offsets = Vec::with_capacity(n_chunks);
        let mut chunk_lens = Vec::with_capacity(n_chunks);
        let mut off = data_start;
        for ci in 0..n_chunks {
            let len = cursor.get_u64_le();
            // Every segment carries at least a tag byte, so a chunk can
            // never be shorter than its seg table plus one byte per column.
            if len < seg_table_bytes + cols as u64 {
                return Err(bad_data(format!("chunk {ci} shorter than its segment table")));
            }
            chunk_offsets.push(off);
            off = off.checked_add(len).ok_or_else(|| bad_data("chunk offsets overflow"))?;
            chunk_lens.push(len);
        }
        if off > file_len {
            return Err(bad_data(format!(
                "file too short for declared chunks (need {off} bytes, have {file_len})"
            )));
        }
        Ok(Self {
            file,
            header,
            chunk_offsets,
            chunk_lens,
            seg_tables: vec![None; n_chunks],
            bytes_read: 0,
            chunks_touched: 0,
            chunkbuf: Vec::new(),
            colraw: Vec::new(),
            shuf: Vec::new(),
        })
    }

    /// The parsed header.
    pub fn header(&self) -> &NcsimHeader {
        &self.header
    }

    /// Total rows (spatial DOF).
    pub fn rows(&self) -> usize {
        self.header.rows
    }

    /// Total columns (snapshots).
    pub fn cols(&self) -> usize {
        self.header.cols
    }

    /// Payload bytes read so far (data + chunk metadata, not the header).
    pub fn io_bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Chunks touched by reads so far.
    pub fn io_chunks_touched(&self) -> u64 {
        self.chunks_touched
    }

    fn require_dtype<T: Scalar>(&self) -> io::Result<()> {
        if self.header.dtype != Dtype::of::<T>() {
            return Err(bad_input(format!(
                "file holds {} data, requested {}",
                self.header.dtype.name(),
                T::NAME
            )));
        }
        Ok(())
    }

    /// Read the hyperslab rows `[r0, r1)` x cols `[c0, c1)` into `dst`,
    /// reshaping it to `(r1-r0) x (c1-c0)` without reallocating when
    /// capacity suffices — the zero-transient-allocation entry point the
    /// prefetcher and drivers use. `T` must match the file dtype.
    pub fn read_block_into<T: Scalar>(
        &mut self,
        r0: usize,
        r1: usize,
        c0: usize,
        c1: usize,
        dst: &mut Matrix<T>,
    ) -> io::Result<()> {
        if r0 > r1 || r1 > self.header.rows {
            return Err(bad_input(format!(
                "row range {r0}..{r1} out of bounds for {} rows",
                self.header.rows
            )));
        }
        if c0 > c1 || c1 > self.header.cols {
            return Err(bad_input(format!(
                "col range {c0}..{c1} out of bounds for {} cols",
                self.header.cols
            )));
        }
        self.require_dtype::<T>()?;
        dst.reshape_for_overwrite(r1 - r0, c1 - c0);
        if r1 == r0 || c1 == c0 {
            return Ok(());
        }
        let Self {
            file,
            header,
            chunk_offsets,
            chunk_lens,
            seg_tables,
            bytes_read,
            chunks_touched,
            chunkbuf,
            colraw,
            shuf,
        } = self;
        let elem = mem::size_of::<T>();
        let cols = header.cols;
        let chunk_rows = header.chunk_rows;
        let seg_table_bytes = (cols * 4) as u64;
        let ci0 = r0 / chunk_rows;
        let ci1 = (r1 - 1) / chunk_rows;
        for ci in ci0..=ci1 {
            if seg_tables[ci].is_none() {
                let cum = load_seg_table(file, chunk_offsets[ci], chunk_lens[ci], cols, ci)?;
                *bytes_read += seg_table_bytes;
                seg_tables[ci] = Some(cum);
            }
            let cum = seg_tables[ci].as_ref().unwrap();
            // Columns [c0, c1) of this chunk are contiguous on disk: one
            // seek + one read regardless of per-segment encoded sizes.
            let start = chunk_offsets[ci] + seg_table_bytes + cum[c0];
            let nbytes = (cum[c1] - cum[c0]) as usize;
            chunkbuf.clear();
            chunkbuf.resize(nbytes, 0);
            file.seek(SeekFrom::Start(start))?;
            file.read_exact(chunkbuf)
                .map_err(|_| bad_data(format!("file truncated inside chunk {ci}")))?;
            *bytes_read += nbytes as u64;
            *chunks_touched += 1;

            let cr0 = ci * chunk_rows;
            let cr1 = ((ci + 1) * chunk_rows).min(header.rows);
            let nrows = cr1 - cr0;
            let rr0 = r0.max(cr0);
            let rr1 = r1.min(cr1);
            for (jj, j) in (c0..c1).enumerate() {
                let s = (cum[j] - cum[c0]) as usize;
                let e = (cum[j + 1] - cum[c0]) as usize;
                codec::decode_segment(&chunkbuf[s..e], elem, nrows * elem, shuf, colraw)?;
                for r in rr0..rr1 {
                    dst.row_mut(r - r0)[jj] = T::get_le_bytes(&colraw[(r - cr0) * elem..]);
                }
            }
        }
        Ok(())
    }

    /// Read the whole variable (f64 files).
    pub fn read_all(&mut self) -> io::Result<Matrix> {
        self.read_rank_block(1, 0)
    }

    /// Read the balanced row block owned by `rank` of `n_ranks` (the
    /// per-rank hyperslab of a distributed run; f64 files).
    pub fn read_rank_block(&mut self, n_ranks: usize, rank: usize) -> io::Result<Matrix> {
        let (r0, r1) = crate::partition::block_range(self.header.rows, n_ranks, rank);
        let mut m = Matrix::zeros(0, 0);
        self.read_block_into(r0, r1, 0, self.header.cols, &mut m)?;
        Ok(m)
    }
}

/// Read and validate one chunk's segment-length table, returning the
/// cumulative offsets (`cum[j]` = start of column `j`'s segment in the
/// chunk body, `cum[cols]` = body length).
fn load_seg_table(
    file: &mut BufReader<File>,
    chunk_offset: u64,
    chunk_len: u64,
    cols: usize,
    ci: usize,
) -> io::Result<Vec<u64>> {
    file.seek(SeekFrom::Start(chunk_offset))?;
    let mut raw = vec![0u8; cols * 4];
    file.read_exact(&mut raw)
        .map_err(|_| bad_data(format!("file truncated in chunk {ci} segment table")))?;
    let mut cum = Vec::with_capacity(cols + 1);
    cum.push(0u64);
    let mut cursor = &raw[..];
    let mut total = 0u64;
    for j in 0..cols {
        let len = cursor.get_u32_le() as u64;
        if len == 0 {
            return Err(bad_data(format!("chunk {ci} column {j} has a zero-length segment")));
        }
        total = total
            .checked_add(len)
            .ok_or_else(|| bad_data(format!("chunk {ci} segment lengths overflow")))?;
        cum.push(total);
    }
    let body_len = chunk_len
        .checked_sub((cols * 4) as u64)
        .ok_or_else(|| bad_data(format!("chunk {ci} shorter than its segment table")))?;
    if total != body_len {
        return Err(bad_data(format!(
            "chunk {ci} segment lengths sum to {total}, chunk body is {body_len}"
        )));
    }
    Ok(cum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("psvd_ncsim_test_{name}_{}", std::process::id()));
        p
    }

    fn block<T: Scalar>(
        r: &mut NcsimReader,
        r0: usize,
        r1: usize,
        c0: usize,
        c1: usize,
    ) -> io::Result<Matrix<T>> {
        let mut m = Matrix::zeros(0, 0);
        r.read_block_into(r0, r1, c0, c1, &mut m)?;
        Ok(m)
    }

    #[test]
    fn roundtrip_full() {
        let path = tmpfile("roundtrip");
        let a = Matrix::from_fn(13, 7, |i, j| (i as f64 * 0.5) - j as f64);
        write_v2(&path, "pressure", &a, V2Options::default()).unwrap();
        let mut r = NcsimReader::open(&path).unwrap();
        assert_eq!(r.header().name, "pressure");
        assert_eq!(r.header().version, 2);
        assert_eq!(r.header().dtype, Dtype::F64);
        assert_eq!(r.header().chunk_rows, 13, "the default clamps to the row count");
        assert_eq!(r.rows(), 13);
        assert_eq!(r.cols(), 7);
        assert_eq!(r.read_all().unwrap(), a);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn roundtrip_zero_columns() {
        let path = tmpfile("zero_cols");
        let a = Matrix::<f64>::zeros(9, 0);
        write_v2(&path, "v", &a, V2Options { chunk_rows: 4, codec: Codec::Raw }).unwrap();
        let mut r = NcsimReader::open(&path).unwrap();
        assert_eq!((r.rows(), r.cols()), (9, 0));
        assert_eq!(r.read_all().unwrap(), a);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hyperslab_matches_slice() {
        let path = tmpfile("hyperslab");
        let a = Matrix::from_fn(20, 5, |i, j| ((i * 5 + j) as f64).cos());
        write_v2(&path, "v", &a, V2Options { chunk_rows: 4, codec: Codec::Raw }).unwrap();
        let mut r = NcsimReader::open(&path).unwrap();
        assert_eq!(block::<f64>(&mut r, 3, 11, 0, 5).unwrap(), a.row_block(3, 11));
        // Second read after seek-back also works.
        assert_eq!(block::<f64>(&mut r, 0, 2, 0, 5).unwrap(), a.row_block(0, 2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rank_blocks_tile_file() {
        let path = tmpfile("rankblocks");
        let a = Matrix::from_fn(17, 4, |i, j| (i + j) as f64);
        write_v2(&path, "v", &a, V2Options { chunk_rows: 3, codec: Codec::Raw }).unwrap();
        let mut blocks = Vec::new();
        for rank in 0..4 {
            let mut r = NcsimReader::open(&path).unwrap();
            blocks.push(r.read_rank_block(4, rank).unwrap());
        }
        assert_eq!(Matrix::vstack_all(&blocks), a);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmpfile("badmagic");
        std::fs::write(&path, b"NOTNCSIMxxxxxxxxxxxxxxxxxxx").unwrap();
        assert!(NcsimReader::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_version_rejected_gracefully() {
        let path = tmpfile("badversion");
        let mut future = Vec::new();
        future.extend_from_slice(b"NCSIM\x03\0\0");
        future.extend_from_slice(&[0u8; 64]);
        // A complete, well-formed v1 file: the flat row-major f64 slab of
        // the retired format.
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"NCSIM\x01\0\0");
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(b"v");
        v1.extend_from_slice(&2u64.to_le_bytes());
        v1.extend_from_slice(&2u64.to_le_bytes());
        for x in [1.0f64, 2.0, 3.0, 4.0] {
            v1.extend_from_slice(&x.to_le_bytes());
        }
        for (version, bytes) in [(3, future), (1, v1)] {
            std::fs::write(&path, &bytes).unwrap();
            let err = match NcsimReader::open(&path) {
                Err(e) => e,
                Ok(_) => panic!("version {version} must be rejected"),
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(&format!("version {version}")), "got: {err}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let path = tmpfile("oob");
        write_v2(&path, "v", &Matrix::<f64>::zeros(3, 3), V2Options::default()).unwrap();
        let mut r = NcsimReader::open(&path).unwrap();
        assert!(block::<f64>(&mut r, 2, 5, 0, 3).is_err());
        assert!(block::<f64>(&mut r, 0, 3, 2, 4).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_name_ok() {
        let path = tmpfile("noname");
        write_v2(&path, "", &Matrix::<f64>::zeros(1, 1), V2Options::default()).unwrap();
        let r = NcsimReader::open(&path).unwrap();
        assert_eq!(r.header().name, "");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_rejects_overflowing_dimensions() {
        let path = tmpfile("overflow");
        let (rows, cols) = (usize::MAX / 4, usize::MAX / 4);
        assert!(NcsimV2Writer::<f64>::create(&path, "v", rows, cols, V2Options::default()).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writer_slab_rejects_ragged_and_excess_rows() {
        let path = tmpfile("slabguards");
        let mut w = NcsimV2Writer::<f64>::create(&path, "v", 2, 3, V2Options::default()).unwrap();
        assert!(w.write_rows(&[1.0; 4]).is_err(), "4 values is not whole 3-col rows");
        assert!(w.write_rows(&[1.0; 9]).is_err(), "3 rows exceeds the 2 declared");
        w.write_rows(&[1.0; 6]).unwrap();
        w.finish().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    fn v2_roundtrip_case<T: Scalar>(tag: &str, chunk_rows: usize, codec: Codec) {
        let path = tmpfile(&format!("v2rt_{tag}_{chunk_rows}_{:?}", codec.tag()));
        let a: Matrix<T> =
            Matrix::from_fn(23, 6, |i, j| T::from_f64(((i * 6 + j) as f64 * 0.37).sin()));
        write_v2(&path, "field", &a, V2Options { chunk_rows, codec }).unwrap();
        let mut r = NcsimReader::open(&path).unwrap();
        assert_eq!(r.header().version, 2);
        assert_eq!(r.header().dtype, Dtype::of::<T>());
        assert_eq!(block::<T>(&mut r, 0, 23, 0, 6).unwrap(), a);
        // Hyperslabs in both dimensions match in-core slicing.
        let mut blk = Matrix::zeros(0, 0);
        r.read_block_into(5, 14, 2, 5, &mut blk).unwrap();
        assert_eq!(blk, a.submatrix(5, 14, 2, 5));
        r.read_block_into(0, 23, 1, 4, &mut blk).unwrap();
        assert_eq!(blk, a.submatrix(0, 23, 1, 4));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_roundtrips_all_chunkings_and_codecs() {
        for chunk_rows in [1, 4, 7, 23, 100] {
            v2_roundtrip_case::<f64>("f64", chunk_rows, Codec::Raw);
            v2_roundtrip_case::<f64>("f64", chunk_rows, Codec::ShuffleRle);
            v2_roundtrip_case::<f32>("f32", chunk_rows, Codec::Raw);
            v2_roundtrip_case::<f32>("f32", chunk_rows, Codec::ShuffleRle);
        }
    }

    #[test]
    fn v2_dtype_mismatch_is_typed_error() {
        let path = tmpfile("dtypemismatch");
        let a: Matrix<f32> = Matrix::from_fn(8, 3, |i, j| (i + j) as f32);
        write_v2(&path, "v", &a, V2Options::default()).unwrap();
        let mut r = NcsimReader::open(&path).unwrap();
        let err = block::<f64>(&mut r, 0, 8, 0, 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(block::<f32>(&mut r, 0, 8, 0, 3).unwrap(), a);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_truncated_file_rejected() {
        let path = tmpfile("v2trunc");
        let a = Matrix::from_fn(50, 4, |i, j| (i * 4 + j) as f64);
        write_v2(&path, "v", &a, V2Options { chunk_rows: 16, codec: Codec::Raw }).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();
        assert!(NcsimReader::open(&path).is_err(), "truncated chunks must be caught at open");
        // Truncation inside the chunk table is also caught.
        std::fs::write(&path, &bytes[..60]).unwrap();
        assert!(NcsimReader::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_incremental_writer_must_complete() {
        let path = tmpfile("v2incomplete");
        let mut w = NcsimV2Writer::<f64>::create(&path, "v", 5, 2, V2Options::default()).unwrap();
        w.write_row(&[1.0, 2.0]).unwrap();
        assert!(w.finish().is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_io_counters_track_reads() {
        let path = tmpfile("v2counters");
        let a = Matrix::from_fn(64, 8, |i, j| (i * 8 + j) as f64);
        write_v2(&path, "v", &a, V2Options { chunk_rows: 16, codec: Codec::Raw }).unwrap();
        let mut r = NcsimReader::open(&path).unwrap();
        assert_eq!(r.io_bytes_read(), 0);
        block::<f64>(&mut r, 0, 64, 0, 4).unwrap();
        assert_eq!(r.io_chunks_touched(), 4, "64 rows / 16-row chunks");
        assert!(r.io_bytes_read() >= (64 * 4 * 8) as u64);
        std::fs::remove_file(&path).unwrap();
    }
}
