// Package format defines spio's on-disk layout: per-aggregator data files
// holding LOD-ordered particle records, and the spatial metadata file of
// paper Section 3.5 / Fig. 4 mapping each data file to the bounding box
// of the particles it holds. Both are little-endian binary with explicit
// magic, version and checksum, so readers can validate files from any
// writer configuration. Their headers are framed with internal/binio.
package format

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"spio/internal/binio"
	"spio/internal/fault"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
)

// Data file layout (little-endian):
//
//	magic "SPIODATA" | version u32 | header CRC32 of the fields below
//	schema | count u64 | bounds box | lod params | heuristic u8 | seed i64 | flags u8
//	[codec table + block index when flags&flagCompressed]
//	particle records (count × schema.Stride() bytes), or the
//	compressed block stream when flags&flagCompressed
//	[payload CRC32 when flags&flagPayloadCRC]
//
// The particles are stored in LOD order: any prefix is a valid
// lower-resolution subset (Section 3.4). The header is always
// checksummed (header corruption misroutes readers); the payload
// checksum is optional so huge checkpoint writes can stay single-pass,
// and is verified only on demand (VerifyPayload).
//
// Compressed files (flagCompressed) extend the checksummed header with a
// per-field codec table (codec u8 + error bound f64 per schema field)
// and a block index (block count, then record count + compressed byte
// length per block). Blocks are cut at the LOD level boundaries of the
// canonical single-reader schedule (oversized levels split at
// maxCodecBlockRecords), and the compression happens after the LOD
// reorder, so every whole-block prefix of the payload decompresses to a
// valid LOD prefix of the particle sequence. Uncompressed files carry
// no table at all — codec 0 is the absence of the flag — so every
// pre-codec file reads unchanged, and readers that predate the flag
// reject compressed files cleanly via the unknown-flags check.

const (
	dataMagic   = "SPIODATA"
	dataVersion = 2 // v2 added the flags byte + optional payload CRC
)

// ErrTruncated marks a data file whose on-disk size disagrees with its
// header — a torn or truncated write (the atomic-rename path never
// produces one; an fsck hit means the file was mutilated out-of-band
// or written by a pre-atomic version). errors.Is-matchable.
var ErrTruncated = errors.New("torn or truncated data file")

// DataHeader is the decoded header of a data file.
type DataHeader struct {
	Schema    *particle.Schema
	Count     int64
	Bounds    geom.Box // closed bounding box of the contained particles
	LOD       lod.Params
	Heuristic lod.Heuristic
	Seed      int64
	// PayloadCRC, when true, means a CRC32 of the particle records is
	// stored after the payload; VerifyPayload checks it.
	PayloadCRC bool
	// Codec is the per-field compression spec the payload was written
	// under. The zero value (raw) writes the classic uncompressed
	// layout, byte-identical to pre-codec files.
	Codec particle.Spec
	// EncodeTime is how long WriteDataFile spent compressing the payload:
	// a result of the write, like Count and Bounds, not stored.
	EncodeTime time.Duration
}

// header flag bits.
const (
	flagPayloadCRC = 1
	// flagCompressed marks a payload stored as the compressed block
	// stream described atop this file. The CRC (when present) covers the
	// compressed bytes as stored.
	flagCompressed = 2
)

// maxCodecBlockRecords caps one compressed block. Blocks are cut at LOD
// level boundaries first; levels larger than this split, which keeps a
// random record read from decompressing more than ~1 MiB of records
// while leaving every block boundary on a valid LOD prefix.
const maxCodecBlockRecords = 8192

// codecBlock is one entry of a compressed file's block index.
type codecBlock struct {
	recs  int64 // records in the block
	bytes int64 // compressed byte length
}

// codecBlockLens cuts count records into compressed-block lengths along
// the LOD level boundaries of the canonical single-reader schedule
// (base = BasePerReader), splitting oversized levels. Any whole-block
// prefix of the resulting partition is therefore a valid LOD prefix.
func codecBlockLens(count int64, p lod.Params) []int64 {
	var lens []int64
	for _, lv := range lod.LevelSizes(count, int64(p.BasePerReader), p.Scale) {
		for lv > maxCodecBlockRecords {
			lens = append(lens, maxCodecBlockRecords)
			lv -= maxCodecBlockRecords
		}
		if lv > 0 {
			lens = append(lens, lv)
		}
	}
	return lens
}

// DataFileName derives a data file's name from its aggregator rank, the
// paper's Fig. 4 convention ("Agg rank is used to derive the name of the
// data file").
func DataFileName(aggRank int) string { return fmt.Sprintf("file_%d.spd", aggRank) }

// encodeDataHeader writes everything after the magic+version+crc
// prefix. blocks is the compressed block index (nil for raw payloads);
// compressed headers carry the codec table and the index after the
// flags byte.
func encodeDataHeader(e *binio.Writer, h *DataHeader, blocks []codecBlock) {
	EncodeSchema(e, h.Schema)
	e.U64(uint64(h.Count))
	e.Box(h.Bounds)
	e.Uvarint(uint64(h.LOD.BasePerReader))
	e.Uvarint(uint64(h.LOD.Scale))
	e.U8(uint8(h.Heuristic))
	e.I64(h.Seed)
	var flags uint8
	if h.PayloadCRC {
		flags |= flagPayloadCRC
	}
	compressed := blocks != nil
	if compressed {
		flags |= flagCompressed
	}
	e.U8(flags)
	if compressed {
		for i := 0; i < h.Schema.NumFields(); i++ {
			fc := h.Codec.Fields[i]
			e.U8(uint8(fc.ID))
			e.F64(fc.ErrBound)
		}
		e.Uvarint(uint64(len(blocks)))
		for _, b := range blocks {
			e.Uvarint(uint64(b.recs))
			e.Uvarint(uint64(b.bytes))
		}
	}
}

// WriteDataFile writes a complete data file at path: record i of the
// payload is row order[i] of rows, or row i when order is nil (rows
// already in LOD order). The payload is gathered through order as it
// streams out, so the reorder is never materialized; the bytes on disk
// are those of reordering first. hdr.Schema, hdr.Count and hdr.Bounds are
// filled from rows, for the file and for the caller, hdr.EncodeTime for
// the caller. rows stay the caller's. The file lands via temp-file + fsync + atomic rename (fsys nil
// means the real filesystem), so readers never observe a torn data file
// under path.
func WriteDataFile(fsys fault.WriteFS, path string, hdr *DataHeader, rows *particle.Rows, order []int) error {
	if order != nil && len(order) != rows.Len() {
		return fmt.Errorf("format: order has %d indices, the rows are %d", len(order), rows.Len())
	}
	if hdr.Schema == nil {
		hdr.Schema = rows.Schema()
	}
	if !hdr.Schema.Equal(rows.Schema()) {
		return fmt.Errorf("format: header schema %v != rows schema %v", hdr.Schema, rows.Schema())
	}
	if err := hdr.LOD.Validate(); err != nil {
		return err
	}
	if err := hdr.Codec.Validate(hdr.Schema); err != nil {
		return err
	}
	hdr.Count = int64(rows.Len())
	hdr.Bounds = rows.Bounds()

	// Compress first when the spec asks for it: the header's block index
	// needs every compressed length before the first payload byte lands.
	// The frames live in a pooled arena until the file has them or failed.
	var blocks []codecBlock
	var blockData [][]byte
	if !hdr.Codec.IsRaw() {
		start := time.Now()
		var arena []byte
		var err error
		blocks, blockData, arena, err = compressPayload(hdr, rows, order)
		defer releaseArena(arena)
		hdr.EncodeTime = time.Since(start)
		if err != nil {
			return err
		}
	}

	// Encode the header body once to learn its CRC.
	var body headerBuf
	e := binio.NewWriter(&body)
	encodeDataHeader(e, hdr, blocks)
	if e.Err() != nil {
		return e.Err()
	}

	// Pre-encode the full file prefix (everything before the payload)
	// so each write attempt only replays raw bytes plus the record
	// stream.
	var prefix headerBuf
	pre := binio.NewWriter(&prefix)
	pre.Bytes([]byte(dataMagic))
	pre.U32(dataVersion)
	pre.U32(crc32.ChecksumIEEE(body.b))
	pre.Bytes(body.b)
	if pre.Err() != nil {
		return pre.Err()
	}

	if blocks != nil {
		return writeFileAtomic(fsOrOS(fsys), path, func(w io.Writer) error {
			return writeCompressedPayload(w, prefix.b, hdr, blockData)
		})
	}
	return writeFileAtomic(fsOrOS(fsys), path, func(w io.Writer) error {
		return writeDataPayload(w, prefix.b, hdr, rows, order)
	})
}

// compressPayload compresses the LOD-ordered records (payload record i
// is row order[i], so compression happens strictly after the reorder)
// block by block under the header's codec spec (particle.CompressRowsInto:
// one job a block, gathered as it is compressed). It returns the block
// index and the compressed bytes, held in memory until the write: the
// index precedes the payload on disk. The frames alias the returned
// arena, one pooled slice sized by their bound, the caller's to release
// once the frames are used — with an error too.
func compressPayload(hdr *DataHeader, rows *particle.Rows, order []int) ([]codecBlock, [][]byte, []byte, error) {
	lens := codecBlockLens(hdr.Count, hdr.LOD)
	bound := 0
	for _, n := range lens {
		bound += particle.FrameBound(hdr.Schema, int(n)*hdr.Schema.Stride())
	}
	arena := particle.Bytes.Get(bound)
	arenasHeld.Add(1)
	frames, err := particle.CompressRowsInto(arena, hdr.Codec, rows, order, lens)
	if err != nil {
		return nil, nil, arena, err
	}
	// A compressed file always carries an index, even an empty one: the
	// flag, not the block count, is what distinguishes the layouts.
	blocks := make([]codecBlock, len(frames))
	for i, f := range frames {
		blocks[i] = codecBlock{recs: lens[i], bytes: int64(len(f))}
	}
	return blocks, frames, arena, nil
}

// arenasHeld counts the arenas out of the pool: zero while no file is
// being written. releaseArena ends the life of compressPayload's frames.
var arenasHeld atomic.Int64

func releaseArena(arena []byte) {
	particle.Bytes.Put(arena)
	arenasHeld.Add(-1)
}

// writeCompressedPayload streams the prefix and the pre-compressed
// blocks, checksumming the stored (compressed) bytes if requested.
func writeCompressedPayload(w io.Writer, prefix []byte, hdr *DataHeader, blockData [][]byte) error {
	if _, err := w.Write(prefix); err != nil {
		return err
	}
	var payloadCRC uint32
	for _, b := range blockData {
		if hdr.PayloadCRC {
			payloadCRC = crc32.Update(payloadCRC, crc32.IEEETable, b)
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	if hdr.PayloadCRC {
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], payloadCRC)
		if _, err := w.Write(tail[:]); err != nil {
			return err
		}
	}
	return nil
}

// chunkRecords is the streaming granularity of the raw payload writer:
// ~1MB of records per Write.
const chunkRecords = 8192

// writeDataPayload streams the prefix and the records, gathered through
// order (Rows.Gather) ~1MB at a time whatever the payload's size,
// checksumming along the way if requested.
func writeDataPayload(w io.Writer, prefix []byte, hdr *DataHeader, rows *particle.Rows, order []int) error {
	if _, err := w.Write(prefix); err != nil {
		return err
	}
	stride := rows.Schema().Stride()
	scratch := particle.Bytes.Get(min(rows.Len(), chunkRecords) * stride)
	defer particle.Bytes.Put(scratch)
	var payloadCRC uint32
	for lo := 0; lo < rows.Len(); lo += chunkRecords {
		hi := min(lo+chunkRecords, rows.Len())
		p := scratch[:(hi-lo)*stride]
		rows.Gather(p, order, lo, hi)
		if hdr.PayloadCRC {
			payloadCRC = crc32.Update(payloadCRC, crc32.IEEETable, p)
		}
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	if hdr.PayloadCRC {
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], payloadCRC)
		if _, err := w.Write(tail[:]); err != nil {
			return err
		}
	}
	return nil
}

// headerBuf is a minimal growing byte sink for header pre-encoding.
type headerBuf struct{ b []byte }

func (h *headerBuf) Write(p []byte) (int, error) {
	h.b = append(h.b, p...)
	return len(p), nil
}

// DataFile is an open handle to a data file supporting random-access
// record-range reads (the primitive behind LOD prefix reads).
type DataFile struct {
	f *os.File
	// ra is what every payload read goes through: f, or what
	// OpenOptions.Seam put in front of it. Fixed at open.
	ra         io.ReaderAt
	Header     DataHeader
	payloadOff int64
	path       string
	// Compressed-file block index (nil for raw payloads): cumulative
	// record starts and payload byte offsets, both len(nBlocks)+1.
	blockRecs []int64
	blockOffs []int64
	// payloadBytes is the stored payload length: compressed bytes for
	// compressed files, Count*Stride for raw ones.
	payloadBytes int64
}

// Compressed reports whether the payload is stored compressed.
func (df *DataFile) Compressed() bool { return df.blockRecs != nil }

// PayloadBytes returns the stored payload length in bytes (the
// compressed length for compressed files).
func (df *DataFile) PayloadBytes() int64 { return df.payloadBytes }

// OpenOptions is what a serving layer puts between a data file's record
// reads and its bytes. It is fixed when the file is opened: a DataFile
// has no state installed after it is built. The zero value reads the
// file directly.
type OpenOptions struct {
	// Seam, when non-nil, is given the opened file and returns what
	// every payload read (Scan and its wrappers, VerifyPayload) goes
	// through instead — a shared block cache, a counter. What it returns
	// must serve the exact bytes of file. One that also has ViewAt
	// (viewerAt) lends a raw scan its bytes, under a lease, instead of
	// copying them into a staging chunk.
	Seam func(path string, file io.ReaderAt) io.ReaderAt
}

// OpenDataFile opens and validates a data file, to be read directly.
func OpenDataFile(path string) (*DataFile, error) {
	return OpenDataFileWith(path, OpenOptions{})
}

// OpenDataFileWith is OpenDataFile with the handle's payload reads routed
// as opts says.
func OpenDataFileWith(path string, opts OpenOptions) (*DataFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	df, err := readDataFileHeader(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	if opts.Seam != nil {
		df.ra = opts.Seam(path, f)
	}
	return df, nil
}

func readDataFileHeader(f *os.File, path string) (*DataFile, error) {
	src := &crcReader{r: bufio.NewReaderSize(f, 64<<10)}
	d := binio.NewReader(src, "format")
	magic := make([]byte, len(dataMagic))
	d.Bytes(magic)
	if d.Err() == nil && string(magic) != dataMagic {
		return nil, fmt.Errorf("format: %s: not a spio data file (magic %q)", path, magic)
	}
	version := d.U32()
	if d.Err() == nil && version != dataVersion {
		return nil, fmt.Errorf("format: %s: unsupported data version %d", path, version)
	}
	wantCRC := d.U32()
	if d.Err() != nil {
		return nil, classifyHeaderErr(path, d.Err())
	}

	src.crc = 0 // CRC covers only the header body
	var h DataHeader
	schema, err := DecodeSchema(d)
	if err != nil {
		return nil, fmt.Errorf("format: %s: %w", path, err)
	}
	h.Schema = schema
	h.Count = int64(d.U64())
	h.Bounds = d.Box()
	h.LOD.BasePerReader = int(d.Uvarint())
	h.LOD.Scale = int(d.Uvarint())
	h.Heuristic = lod.Heuristic(d.U8())
	h.Seed = d.I64()
	flags := d.U8()
	h.PayloadCRC = flags&flagPayloadCRC != 0
	compressed := flags&flagCompressed != 0
	if d.Err() == nil && flags&^uint8(flagPayloadCRC|flagCompressed) != 0 {
		return nil, fmt.Errorf("format: %s: unknown header flags %#x", path, flags)
	}
	var blockRecs, blockOffs []int64
	if compressed {
		h.Codec.Fields = make([]particle.FieldCodec, schema.NumFields())
		for i := range h.Codec.Fields {
			h.Codec.Fields[i].ID = particle.CodecID(d.U8())
			h.Codec.Fields[i].ErrBound = d.F64()
		}
		nBlocks := d.Uvarint()
		if d.Err() == nil && h.Count >= 0 && nBlocks > uint64(h.Count) {
			// Every block holds at least one record; a larger claim is
			// corrupt, and rejecting it here bounds the index allocation.
			return nil, fmt.Errorf("format: %s: %d compressed blocks for %d records", path, nBlocks, h.Count)
		}
		blockRecs = append(blockRecs, 0)
		blockOffs = append(blockOffs, 0)
		// Per block, the per-field fallback guarantees the stored bytes
		// never exceed the raw records plus the field framing.
		maxOverhead := int64(schema.NumFields()) * 16
		for i := uint64(0); i < nBlocks && d.Err() == nil; i++ {
			recs := int64(d.Uvarint())
			bytes := int64(d.Uvarint())
			if d.Err() != nil {
				break
			}
			if recs <= 0 || recs > h.Count-blockRecs[len(blockRecs)-1] {
				return nil, fmt.Errorf("format: %s: compressed block %d holds %d records", path, i, recs)
			}
			if bytes < 0 || bytes > recs*int64(schema.Stride())+maxOverhead {
				return nil, fmt.Errorf("format: %s: compressed block %d claims %d bytes for %d records", path, i, bytes, recs)
			}
			blockRecs = append(blockRecs, blockRecs[len(blockRecs)-1]+recs)
			blockOffs = append(blockOffs, blockOffs[len(blockOffs)-1]+bytes)
		}
	}
	if d.Err() != nil {
		return nil, classifyHeaderErr(path, d.Err())
	}
	if src.crc != wantCRC {
		return nil, fmt.Errorf("format: %s: header checksum mismatch", path)
	}
	if h.Count < 0 {
		return nil, fmt.Errorf("format: %s: negative count", path)
	}
	if err := h.LOD.Validate(); err != nil {
		return nil, fmt.Errorf("format: %s: %w", path, err)
	}
	if err := h.Codec.Validate(schema); err != nil {
		return nil, fmt.Errorf("format: %s: %w", path, err)
	}
	payloadBytes := h.Count * int64(h.Schema.Stride())
	if compressed {
		if got := blockRecs[len(blockRecs)-1]; got != h.Count {
			return nil, fmt.Errorf("format: %s: compressed blocks cover %d of %d records", path, got, h.Count)
		}
		payloadBytes = blockOffs[len(blockOffs)-1]
	}
	// d.N() counts every byte consumed so far (magic, version, crc, header
	// body), which is exactly where the payload starts.
	payloadOff := d.N()

	// Verify payload size against the file size.
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	want := payloadOff + payloadBytes
	if h.PayloadCRC {
		want += 4
	}
	if st.Size() != want {
		return nil, fmt.Errorf("format: %s: size %d, want %d (%d records): %w", path, st.Size(), want, h.Count, ErrTruncated)
	}
	return &DataFile{f: f, ra: f, Header: h, payloadOff: payloadOff, path: path,
		blockRecs: blockRecs, blockOffs: blockOffs, payloadBytes: payloadBytes}, nil
}

// classifyHeaderErr tags header reads that ran off the end of the file
// as truncation, so fsck can tell a torn file from a corrupt one.
func classifyHeaderErr(path string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("format: %s: header ends early: %w", path, ErrTruncated)
	}
	return fmt.Errorf("format: %s: %w", path, err)
}

// Close releases the file handle. A Scan starts no goroutine, so nothing
// of the handle's is running once its scans have returned.
func (df *DataFile) Close() error {
	return df.f.Close()
}

// scanChunkRecords is the granularity a raw payload is scanned at: a
// quarter-megabyte of Uintah records, small enough that the chunk the
// ReadAt just filled is still cache-resident when the callback filters
// it, large enough that the per-chunk costs are noise.
const scanChunkRecords = 2048

// stagePool recycles the read path's staging slices: raw scan chunks,
// compressed block bytes, decoded block images. Codec blocks follow the
// LOD levels, so their sizes span two orders of magnitude; a pool of
// as-needed sizes would keep handing a small slice to a large request
// and allocating anyway. Every slice is therefore allocated with the
// capacity of the largest thing the file can make the path stage — its
// largest possible codec block's records plus framing — and whatever is
// pooled serves whatever a file of that size asks.
var stagePool particle.Pool[[]byte]

func (df *DataFile) stage(n int) []byte {
	if v := stagePool.Get(); cap(v) >= n {
		return v[:n]
	}
	full := int(min(df.Header.Count, maxCodecBlockRecords))*df.Header.Schema.Stride() + 16*df.Header.Schema.NumFields()
	return make([]byte, n, max(n, full))
}

func unstage(b []byte) { stagePool.Put(b) }

// Scan is the one read primitive: it hands fn the AoS record bytes of
// records [lo, hi), in record order, as record-aligned chunks. Every
// other read (ReadRange and its wrappers, the reader's box filter, the
// progressive stream) is a callback over it, so nothing on the read path
// materializes more than a chunk of a file.
//
// A scan selects, then takes. box, when non-nil, selects from every
// chunk the records whose position lies in that closed box, and fn gets
// the chunk with that selection (indices of records in the chunk,
// increasing); of the chunk only the selected records are defined. With a
// nil box, picked is nil and every record of the chunk counts. Knowing
// the box before the take is what lets a compressed block select on its
// position as it inflates and assemble the selected records alone
// (particle.DecompressPickedInto). fn runs on the caller's goroutine,
// chunk by chunk, in order.
//
// A chunk and its selection are valid only for the duration of the call
// and must not be written: the chunk is a pooled buffer about to be
// refilled, or the ra seam's own memory. Raw payloads are read through
// the ra seam scanChunkRecords records at a time, or, when the seam can
// lend its bytes (viewerAt; the serving layer's block cache can), handed
// over in place — and then a box selects on the cell index the seam keeps
// beside them, testing only the records in the cells the box meets
// (scanIndexed). Compressed payloads read whole compressed blocks through
// the ra seam — so a serving layer's block cache holds compressed bytes,
// multiplying its effective capacity — and decode on the way out, one
// codec block per chunk (the edge blocks clipped to the range), one
// block at a time: concurrency is between scans, not inside one
// (DESIGN.md §13.3).
//
// proj, when non-nil, names the fields fn will look at (it must have
// been built from this file's schema); the others may hold garbage: a
// compressed block inflates only those fields' frames.
func (df *DataFile) Scan(lo, hi int64, proj *particle.Projection, box *geom.Box, fn func(recs []byte, picked []int32) error) error {
	var want []bool
	if proj != nil {
		if !proj.Source().Equal(df.Header.Schema) {
			return fmt.Errorf("format: %s: projection source schema mismatch", df.path)
		}
		want = proj.Wants()
	}
	if err := df.checkRange(lo, hi); err != nil {
		return err
	}
	if err := df.scan(lo, hi, want, box, fn); err != nil {
		return fmt.Errorf("format: %s: %w", df.path, err)
	}
	return nil
}

func (df *DataFile) checkRange(lo, hi int64) error {
	if lo < 0 || hi > df.Header.Count || lo > hi {
		return fmt.Errorf("format: %s: range [%d,%d) out of [0,%d)", df.path, lo, hi, df.Header.Count)
	}
	return nil
}

// selPool recycles selection vectors, one per scan. A kernel grows its
// vector by the chunk's record count before it selects, so a pooled
// vector is as long as the longest chunk it has served.
var selPool particle.Pool[[]int32]

func getSel() []int32 { return selPool.Get()[:0] }

func putSel(sel []int32) {
	if cap(sel) > 0 {
		selPool.Put(sel)
	}
}

func (df *DataFile) scan(lo, hi int64, want []bool, box *geom.Box, fn func(recs []byte, picked []int32) error) error {
	if lo == hi {
		return nil
	}
	// Select and take run back to back on the caller's goroutine, chunk
	// by chunk, so one selection vector serves the whole scan.
	var picked []int32
	if box != nil {
		picked = getSel()
		defer func() { putSel(picked) }()
	}
	if df.blockRecs != nil {
		// Every block overlapping [lo, hi): the first that extends past lo,
		// then each that starts before hi.
		bi := sort.Search(len(df.blockRecs)-1, func(i int) bool { return df.blockRecs[i+1] > lo })
		for ; bi < len(df.blockRecs)-1 && df.blockRecs[bi] < hi; bi++ {
			var err error
			if picked, err = df.scanBlock(bi, lo, hi, want, box, picked, fn); err != nil {
				return err
			}
		}
		return nil
	}
	if v, ok := df.ra.(viewerAt); ok {
		if box != nil {
			var err error
			picked, err = df.scanIndexed(v, lo, hi, box, picked, fn)
			return err
		}
		return df.scanViews(v, lo, hi, func(recs []byte) error { return fn(recs, nil) })
	}
	stride := int64(df.Header.Schema.Stride())
	chunk := df.stage(int(min(hi-lo, scanChunkRecords) * stride))
	defer unstage(chunk)
	for at := lo; at < hi; at += scanChunkRecords {
		recs := chunk[:min(hi-at, scanChunkRecords)*stride]
		if _, err := df.ra.ReadAt(recs, df.payloadOff+at*stride); err != nil {
			return err
		}
		if box != nil {
			picked = particle.SelectClosed(picked[:0], recs, int(stride), box)
		}
		if err := fn(recs, picked); err != nil {
			return err
		}
	}
	return nil
}

// scanIndexed is the raw box scan over a seam that lends its bytes: the
// records of each particle.IndexChunkRecords chunk are selected on the
// chunk's cell index, which the seam keeps beside the bytes (Derive,
// built from them on first use), and then taken from the views, fn
// handed each view's records with the picks that fall in it. It returns
// the selection vector for the scan to pool.
func (df *DataFile) scanIndexed(ra viewerAt, lo, hi int64, box *geom.Box, picked []int32, fn func(recs []byte, picked []int32) error) ([]int32, error) {
	const chunk = particle.IndexChunkRecords
	stride := df.Header.Schema.Stride()
	for k := lo / chunk; k*chunk < hi; k++ {
		cLo, cHi := k*chunk, min((k+1)*chunk, df.Header.Count)
		img, lease, err := ra.Derive(k, func() ([]byte, error) { return df.buildIndex(ra, cLo, cHi) })
		if err != nil {
			return picked, err
		}
		picked = particle.SelectIndexed(picked[:0], img, int(max(lo, cLo)-cLo), int(min(hi, cHi)-cLo), df.Header.Bounds, box)
		lease.Release()
		at, rest := int32(max(lo, cLo)-cLo), picked
		err = df.scanViews(ra, max(lo, cLo), min(hi, cHi), func(recs []byte) error {
			n := int32(len(recs) / stride)
			j := 0
			for j < len(rest) && rest[j] < at+n {
				rest[j] -= at
				j++
			}
			mine := rest[:j]
			at, rest = at+n, rest[j:]
			return fn(recs, mine)
		})
		if err != nil {
			return picked, err
		}
	}
	return picked, nil
}

// buildIndex returns the cell index of records [lo, hi) over the file's
// bounds, built from their positions, which it gathers from the views:
// the blocks the take is about to read, and no copy of the records.
func (df *DataFile) buildIndex(ra viewerAt, lo, hi int64) ([]byte, error) {
	stride := df.Header.Schema.Stride()
	pos := df.stage(int(hi-lo) * 24)
	defer unstage(pos)
	at := 0
	err := df.scanViews(ra, lo, hi, func(recs []byte) error {
		for off := 0; off < len(recs); off, at = off+stride, at+24 {
			*(*[24]byte)(pos[at:]) = *(*[24]byte)(recs[off:])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return particle.BuildCellIndex(pos, 24, df.Header.Bounds), nil
}

// scanBlock is the compressed scan's step: it reads codec block bi whole
// through the ra seam, inflates it into a pooled image — position first,
// selected on by box, then of the wanted fields only the rows box keeps
// of the block's overlap with [lo, hi) (particle.DecompressPickedInto) —
// and hands fn that overlap with the selection, which it returns for the
// next block to reuse. A scan holds one block image however long its
// range.
func (df *DataFile) scanBlock(bi int, lo, hi int64, want []bool, box *geom.Box, picked []int32, fn func(recs []byte, picked []int32) error) ([]int32, error) {
	bLo, bHi := df.blockRecs[bi], df.blockRecs[bi+1]
	count, stride := int(bHi-bLo), df.Header.Schema.Stride()
	cLo, cHi := int(max(lo, bLo)-bLo), int(min(hi, bHi)-bLo)
	comp := df.stage(int(df.blockOffs[bi+1] - df.blockOffs[bi]))
	defer unstage(comp)
	if _, err := df.ra.ReadAt(comp, df.payloadOff+df.blockOffs[bi]); err != nil {
		return picked, err
	}
	recs := df.stage(count * stride)
	defer unstage(recs)
	picked, err := particle.DecompressPickedInto(df.Header.Schema, comp, count, recs, want, cLo, cHi, box, picked[:0])
	if err != nil {
		return picked, err
	}
	return picked, fn(recs[cLo*stride:cHi*stride], picked)
}

// viewerAt is an ra seam that can lend its bytes instead of copying them
// out: ViewAt returns the file's bytes from off on, as far as the seam
// holds them in one piece (a block cache: to the end of the cache block)
// and at least one, or io.EOF at the end of the file, with the lease
// that keeps them. The view is read-only and stays valid and unchanged
// until the lease is released, and not a moment longer: the seam may
// recycle the bytes at once.
//
// Derive keeps, beside those bytes, an image made from them: it returns
// the image build makes for idx (the scan asks for the cell index of the
// idx'th particle.IndexChunkRecords records), building it on first use
// and keeping it as long as the seam sees fit, under a lease like
// ViewAt's. build reads through the seam.
type viewerAt interface {
	ViewAt(off int64) (view []byte, lease interface{ Release() }, err error)
	Derive(idx int64, build func() ([]byte, error)) (img []byte, lease interface{ Release() }, err error)
}

// scanViews is the raw scan over a seam that lends its bytes: fn is
// handed record-aligned sub-slices of the seam's own memory, and only
// the record that straddles the end of a view is copied, to be handed
// over whole. Each view is released once its callbacks have returned and
// its straddling tail is copied, on every exit, so a scan holds at most
// one lease at a time.
func (df *DataFile) scanViews(ra viewerAt, lo, hi int64, fn func(recs []byte) error) error {
	stride := df.Header.Schema.Stride()
	pos, end := df.payloadOff+lo*int64(stride), df.payloadOff+hi*int64(stride)
	straddler := make([]byte, 0, stride)
	for pos < end {
		v, lease, err := ra.ViewAt(pos)
		if err != nil {
			return err
		}
		v = v[:min(int64(len(v)), end-pos)]
		pos += int64(len(v))
		straddler, err = viewRecords(v, stride, straddler, fn)
		lease.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// viewRecords is scanViews' step over one view: it completes the record
// straddler holds, hands fn the view's whole records in place, and
// returns straddler holding a copy of the record begun at the view's end.
func viewRecords(v []byte, stride int, straddler []byte, fn func(recs []byte) error) ([]byte, error) {
	if len(v) == 0 {
		return straddler, io.ErrNoProgress
	}
	if len(straddler) > 0 {
		k := min(stride-len(straddler), len(v))
		straddler = append(straddler, v[:k]...)
		v = v[k:]
		if len(straddler) < stride {
			return straddler, nil
		}
		if err := fn(straddler); err != nil {
			return straddler, err
		}
		straddler = straddler[:0]
	}
	whole := len(v) / stride * stride
	if whole > 0 {
		if err := fn(v[:whole:whole]); err != nil {
			return straddler, err
		}
	}
	return append(straddler, v[whole:]...), nil
}

// ReadRange reads records [lo, hi) into a new buffer, allocated once at
// its exact size and filled chunk by chunk.
func (df *DataFile) ReadRange(lo, hi int64) (*particle.Buffer, error) {
	if err := df.checkRange(lo, hi); err != nil {
		return nil, err
	}
	fill := particle.NewFiller(df.Header.Schema, int(hi-lo))
	if err := df.Scan(lo, hi, nil, nil, fill.Chunk); err != nil {
		return nil, err
	}
	return fill.Buffer()
}

// ReadPrefix reads the first n records — a level-of-detail read. n is
// clamped to the record count.
func (df *DataFile) ReadPrefix(n int64) (*particle.Buffer, error) {
	if n > df.Header.Count {
		n = df.Header.Count
	}
	if n < 0 {
		n = 0
	}
	return df.ReadRange(0, n)
}

// ReadAll reads every record.
func (df *DataFile) ReadAll() (*particle.Buffer, error) {
	return df.ReadRange(0, df.Header.Count)
}

// VerifyPayload re-reads the whole payload and checks it against the
// stored CRC32 (the CRC covers the stored bytes — the compressed stream
// for compressed files). It fails if the file was written without
// PayloadCRC.
func (df *DataFile) VerifyPayload() error {
	if !df.Header.PayloadCRC {
		return fmt.Errorf("format: %s: no payload checksum stored", df.path)
	}
	payloadLen := df.payloadBytes
	var crc uint32
	buf := make([]byte, 1<<20)
	for off := int64(0); off < payloadLen; {
		n := int64(len(buf))
		if off+n > payloadLen {
			n = payloadLen - off
		}
		if _, err := df.ra.ReadAt(buf[:n], df.payloadOff+off); err != nil {
			return fmt.Errorf("format: %s: %w", df.path, err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:n])
		off += n
	}
	var tail [4]byte
	if _, err := df.ra.ReadAt(tail[:], df.payloadOff+payloadLen); err != nil {
		return fmt.Errorf("format: %s: %w", df.path, err)
	}
	if want := binary.LittleEndian.Uint32(tail[:]); crc != want {
		return fmt.Errorf("format: %s: payload checksum mismatch (%#x != %#x)", df.path, crc, want)
	}
	return nil
}

var _ io.Closer = (*DataFile)(nil)
