// Package reader implements the paper's read side (Section 4): parallel
// post-processing reads performed by far fewer processes than wrote the
// data. Three mechanisms make the reads fast:
//
//  1. Aggregation produced few, large files, so each reader opens
//     files/readers files instead of ranks/readers.
//  2. The spatial metadata file maps box queries to exactly the files
//     that intersect them.
//  3. The within-file LOD order makes any prefix a valid
//     lower-resolution subset, enabling progressive refinement.
//
// The package also provides the spatially-blind fallback (reading every
// file and cherry-picking, Fig. 7's "without spatial metadata" case) as
// the paper's comparison point.
package reader

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
)

// Stats counts the file-system work a read performed — the quantities
// that explain the Fig. 7/8 timings.
type Stats struct {
	FilesOpened   int
	ParticlesRead int64
	BytesRead     int64
	// ParticlesKept counts particles surviving the box filter.
	ParticlesKept int64
	// CacheHits counts file-cache hits the read scored (files touched
	// without a real open).
	CacheHits int64
	// BytesFromCache counts payload bytes read through an
	// already-cached file handle.
	BytesFromCache int64
	// Partial marks a result that is missing some region's particles
	// because a shard of a scatter-gathered read failed or was draining.
	// Local reads never set it; a gateway sets it instead of failing the
	// whole query when one backend is down (the partial-result contract,
	// DESIGN §14).
	Partial bool
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.FilesOpened += other.FilesOpened
	s.ParticlesRead += other.ParticlesRead
	s.BytesRead += other.BytesRead
	s.ParticlesKept += other.ParticlesKept
	s.CacheHits += other.CacheHits
	s.BytesFromCache += other.BytesFromCache
	s.Partial = s.Partial || other.Partial
}

// Dataset is an open spio dataset directory.
type Dataset struct {
	dir  string
	meta *format.Meta
	// open is how every read opens a data file, fixed by OpenWith. Fsck
	// opens files plainly: a check must not fill a serving layer's caches.
	open format.OpenOptions
	// cache is nil unless SetFileCache enabled it. SetFileCache may run
	// beside queries, so each of them loads the pointer once; setCache
	// orders SetFileCache calls among themselves.
	cache    atomic.Pointer[fileCache]
	setCache sync.Mutex
}

// openDataFile opens one data file the way OpenWith fixed.
func (d *Dataset) openDataFile(name string) (*format.DataFile, error) {
	return format.OpenDataFileWith(filepath.Join(d.dir, name), d.open)
}

// Open reads and validates the dataset's spatial metadata file.
func Open(dir string) (*Dataset, error) {
	return OpenWith(dir, format.OpenOptions{})
}

// OpenWith is Open for a serving layer: every data file the dataset
// opens to read is opened with opts (format.OpenDataFileWith).
func OpenWith(dir string, opts format.OpenOptions) (*Dataset, error) {
	meta, err := format.ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	return &Dataset{dir: dir, meta: meta, open: opts}, nil
}

// Meta exposes the decoded metadata.
func (d *Dataset) Meta() *format.Meta { return d.meta }

// Dir returns the dataset directory.
func (d *Dataset) Dir() string { return d.dir }

// Options configures a query. The records of a file lie in LOD order,
// so a read names the levels it wants as a range: [SkipLevels, Levels),
// from the start of the file when SkipLevels is 0 and to its end when
// Levels is. A progressive read is the ranges [l, l+1) one after another,
// each a read like any other.
type Options struct {
	// Levels ends the read after the first Levels levels of detail;
	// <= 0 means full resolution.
	Levels int
	// SkipLevels starts the read after the first SkipLevels levels: what a
	// caller holding that prefix needs to refine it up to Levels. At or
	// beyond a positive Levels the range is empty.
	SkipLevels int
	// Readers is n in the LOD level-size formula x(n,l) = n·P·S^l; it
	// should be the number of processes participating in the read.
	// Defaults to 1.
	Readers int
	// NoFilter returns whole files without discarding particles outside
	// the query box (cheaper when the caller clips anyway).
	NoFilter bool
	// Fields, when non-empty, projects the result onto the named fields
	// (the position is always included). Bytes still stream in whole —
	// records are AoS — but only the named fields are decoded and kept.
	Fields []string
	// PerFileBase, when positive, overrides the per-file level-0 budget
	// instead of deriving it from Readers and this dataset's file count.
	// A gateway that scatters a query over shards sets it to the
	// merged dataset's base so every shard reads exactly the level range
	// the whole dataset would — a shard's own (smaller) file count would
	// otherwise inflate its per-file base and desynchronize the levels.
	PerFileBase int64
}

// PerFileBase is the per-file level-0 budget derivation: n·P spread
// over the dataset's files (readers <= 0 means one). A gateway uses it
// on the merged metadata to compute the base it pushes down to every
// shard (Options.PerFileBase).
func PerFileBase(meta *format.Meta, readers int) int64 {
	nFiles := int64(len(meta.Files))
	if nFiles == 0 {
		return 1
	}
	base := int64(max(readers, 1)) * int64(meta.LOD.BasePerReader) / nFiles
	return max(base, 1)
}

// levelRange is the one place a level range becomes a record range: the
// records [lo, hi) a read under opts takes from a file of count records —
// levels [SkipLevels, Levels), sized from the per-file base, an explicit
// override or the derivation from Readers.
func (d *Dataset) levelRange(opts Options, count int64, scale int) (lo, hi int64) {
	if opts.Levels <= 0 && opts.SkipLevels <= 0 {
		return 0, count
	}
	base := opts.PerFileBase
	if base <= 0 {
		base = PerFileBase(d.meta, opts.Readers)
	}
	hi = count
	if opts.Levels > 0 {
		hi = lod.PrefixCount(count, base, scale, opts.Levels)
	}
	return min(lod.PrefixCount(count, base, scale, opts.SkipLevels), hi), hi
}

// The column reads of a Dataset are the ones every Answerer has
// (answer.go).

// QueryBox reads the particles intersecting q (see QueryBox).
func (d *Dataset) QueryBox(q geom.Box, opts Options) (*particle.Buffer, Stats, error) {
	return QueryBox(d, q, opts)
}

// ReadAll reads the whole dataset (see ReadAll).
func (d *Dataset) ReadAll(opts Options) (*particle.Buffer, Stats, error) { return ReadAll(d, opts) }

// KNN returns the k particles nearest to p and their distances (see KNN).
func (d *Dataset) KNN(p geom.Vec3, k int) (*particle.Buffer, []float64, Stats, error) {
	return KNN(d, p, k)
}

// Halo reads a patch's particles and its ghost layer, apart (see Halo).
func (d *Dataset) Halo(patch geom.Box, halo float64, opts Options) (own, ghost *particle.Buffer, st Stats, err error) {
	return Halo(d, patch, halo, opts)
}

// DensityGrid estimates per-cell particle counts (see DensityGrid).
func (d *Dataset) DensityGrid(dims geom.Idx3, levels, readers int) ([]float64, float64, Stats, error) {
	return DensityGrid(d, dims, levels, readers)
}

// LevelCount returns the number of LOD levels the dataset exposes to
// nReaders readers (see LevelCount).
func (d *Dataset) LevelCount(nReaders int) int { return LevelCount(d.meta, nReaders) }

// ReadEntries reads the given metadata entries (a reader rank's assigned
// file subset), filtered to q unless opts.NoFilter.
func (d *Dataset) ReadEntries(entries []*format.FileEntry, q geom.Box, opts Options) (*particle.Buffer, Stats, error) {
	rows, st, err := d.entriesRows(entries, q, opts)
	if err != nil {
		return nil, st, err
	}
	return rows.Buffer(), st, nil
}

// boxRows is the box read: the files the metadata says intersect q,
// filtered to q unless opts.NoFilter.
func (d *Dataset) boxRows(q geom.Box, opts Options) (*particle.Rows, Stats, error) {
	return d.entriesRows(d.meta.FilesIntersecting(q), q, opts)
}

// entriesRows is the read under every box and whole-file read: one scan
// over the entries whose callback keeps the records inside q — or, with
// opts.NoFilter, all of them, checked against the count the metadata
// announces — as rows the caller owns.
func (d *Dataset) entriesRows(entries []*format.FileEntry, q geom.Box, opts Options) (*particle.Rows, Stats, error) {
	proj, err := d.meta.Schema.ProjectOnto(opts.Fields)
	if err != nil {
		return nil, Stats{}, err
	}
	if opts.NoFilter {
		var total int64
		for _, e := range entries {
			lo, hi := d.levelRange(opts, e.Count, d.meta.LOD.Scale)
			total += hi - lo
		}
		fill := particle.NewRowFiller(d.meta.Schema, proj, int(total))
		st, err := d.Scan(entries, opts, nil, fill.Chunk)
		if err != nil {
			fill.Release()
			return nil, st, err
		}
		out, err := fill.Rows()
		if err != nil {
			return nil, st, err
		}
		st.ParticlesKept = total
		return out, st, nil
	}
	f := particle.NewBoxFilter(d.meta.Schema, proj, q)
	st, err := d.Scan(entries, opts, f.Box(), f.Take)
	if err != nil {
		f.Release()
		return nil, st, err
	}
	out := f.Rows()
	st.ParticlesKept = int64(out.Len())
	return out, st, nil
}

// Scan streams the records of the given entries to fn as AoS chunks of
// the dataset schema, in metadata-then-record order — of each file the
// level range opts selects (opts.NoFilter is ignored: what is
// kept is box's and the callback's business). Every read of the package
// is a callback over it. box and fn are format.DataFile.Scan's: with a
// box, fn gets each chunk with the selection of the records in the
// closed box and may look at the selected records only; without, picked
// is nil and every record counts. A chunk is valid only during the call
// and must not be written; with opts.Fields set, only the projected
// fields of its records are meaningful. The returned Stats count the
// file-system work; ParticlesKept is left to the caller.
func (d *Dataset) Scan(entries []*format.FileEntry, opts Options, box *geom.Box, fn func(recs []byte, picked []int32) error) (Stats, error) {
	var st Stats
	proj, err := d.meta.Schema.ProjectOnto(opts.Fields)
	if err != nil {
		return st, err
	}
	for _, e := range entries {
		fst, err := d.scanFile(e, opts, proj, box, fn)
		st.Add(fst)
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// scanFile streams one data file's level range to fn through the file
// cache, and reports the work done.
func (d *Dataset) scanFile(e *format.FileEntry, opts Options, proj *particle.Projection, box *geom.Box, fn func(recs []byte, picked []int32) error) (Stats, error) {
	var st Stats
	var df *format.DataFile
	cache := d.cache.Load()
	if cache != nil {
		cached, hit, err := cache.acquire(d, e.Name)
		if err != nil {
			return st, err
		}
		defer cache.Release(cached)
		df = cached.Value
		if hit {
			st.CacheHits = 1
		} else {
			st.FilesOpened = 1
		}
	} else {
		opened, err := d.openDataFile(e.Name)
		if err != nil {
			return st, err
		}
		defer opened.Close()
		df = opened
		st.FilesOpened = 1
	}

	lo, hi := d.levelRange(opts, df.Header.Count, df.Header.LOD.Scale)
	if err := df.Scan(lo, hi, proj, box, fn); err != nil {
		return st, err
	}
	st.ParticlesRead = hi - lo
	// Bytes stream in whole records regardless of projection.
	st.BytesRead = st.ParticlesRead * int64(d.meta.Schema.Stride())
	if st.CacheHits > 0 {
		st.BytesFromCache = st.BytesRead
		cache.bytesFromCache.Add(st.BytesRead)
	}
	return st, nil
}

// QueryFieldRange returns the metadata entries whose stored per-field
// summaries admit values of the named field component within [lo, hi] —
// the range-query narrowing extension of Section 3.5. Files written
// without summaries are conservatively kept.
func (d *Dataset) QueryFieldRange(field string, component int, lo, hi float64) ([]*format.FileEntry, error) {
	fi := d.meta.Schema.FieldIndex(field)
	if fi < 0 {
		return nil, fmt.Errorf("reader: schema has no field %q", field)
	}
	f := d.meta.Schema.Field(fi)
	if component < 0 || component >= f.Components {
		return nil, fmt.Errorf("reader: field %q has %d components, asked for %d", field, f.Components, component)
	}
	// Flattened component offset of (field, component).
	off := 0
	for i := 0; i < fi; i++ {
		off += d.meta.Schema.Field(i).Components
	}
	off += component

	var out []*format.FileEntry
	for i := range d.meta.Files {
		e := &d.meta.Files[i]
		if e.Count == 0 {
			continue // empty file: no value of any field is present
		}
		if len(e.FieldMin) == 0 {
			out = append(out, e) // no summary: cannot exclude
			continue
		}
		if e.FieldMax[off] < lo || e.FieldMin[off] > hi {
			continue
		}
		out = append(out, e)
	}
	return out, nil
}

// AssignFiles deals the dataset's files to nReaders readers in
// spatially-contiguous chunks: entries are ordered by the Morton key of
// their partition centers so each reader's files tile a compact region,
// then split evenly. Returns reader's slice.
func AssignFiles(meta *format.Meta, nReaders, reader int) []*format.FileEntry {
	if nReaders <= 0 || reader < 0 || reader >= nReaders {
		return nil
	}
	idx := make([]int, len(meta.Files))
	for i := range idx {
		idx[i] = i
	}
	keys := make([]uint64, len(meta.Files))
	// Quantize partition centers onto a 2^10 lattice over the domain.
	const q = 1 << 10
	size := meta.Domain.Size()
	for i := range meta.Files {
		c := meta.Files[i].Partition.Center().Sub(meta.Domain.Lo)
		xi := quant(c.X/nonzero(size.X), q)
		yi := quant(c.Y/nonzero(size.Y), q)
		zi := quant(c.Z/nonzero(size.Z), q)
		keys[i] = geom.MortonEncode3(xi, yi, zi)
	}
	sort.Slice(idx, func(a, b int) bool {
		if keys[idx[a]] != keys[idx[b]] {
			return keys[idx[a]] < keys[idx[b]]
		}
		return idx[a] < idx[b]
	})
	lo := reader * len(idx) / nReaders
	hi := (reader + 1) * len(idx) / nReaders
	out := make([]*format.FileEntry, 0, hi-lo)
	for _, i := range idx[lo:hi] {
		out = append(out, &meta.Files[i])
	}
	return out
}

func quant(x float64, q uint32) uint32 {
	if x < 0 {
		return 0
	}
	v := uint32(x * float64(q))
	if v >= q {
		v = q - 1
	}
	return v
}

func nonzero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// ScanWithoutMetadata is the spatially-blind read the paper compares
// against (Fig. 7, "without spatial metadata"): with no box-to-file
// mapping, the reader must open every data file in the directory, read
// everything, and cherry-pick the particles in q.
func ScanWithoutMetadata(dir string, schema *particle.Schema, q geom.Box) (*particle.Buffer, Stats, error) {
	var st Stats
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, st, err
	}
	f := particle.NewBoxFilter(schema, nil, q)
	defer f.Release() // on success the records have been handed out by then
	for _, de := range names {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".spd") {
			continue
		}
		df, err := format.OpenDataFile(filepath.Join(dir, de.Name()))
		if err != nil {
			return nil, st, err
		}
		if !df.Header.Schema.Equal(schema) {
			_ = df.Close() // read-only; the schema mismatch is the error to report
			return nil, st, fmt.Errorf("reader: %s: schema %v differs from the requested %v", de.Name(), df.Header.Schema, schema)
		}
		err = df.Scan(0, df.Header.Count, nil, f.Box(), f.Take)
		_ = df.Close() // read-only; the scan error is the one to report
		if err != nil {
			return nil, st, err
		}
		st.FilesOpened++
		st.ParticlesRead += df.Header.Count
		st.BytesRead += df.Header.Count * int64(schema.Stride())
	}
	out := f.Buffer()
	st.ParticlesKept = int64(out.Len())
	return out, st, nil
}
