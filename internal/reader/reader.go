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
	dir      string
	meta     *format.Meta
	cache    *fileCache             // nil unless SetFileCache enabled it
	openHook func(*format.DataFile) // nil unless SetOpenHook installed one
}

// SetOpenHook registers fn to run on every data-file handle this
// Dataset opens (cache misses and cache-bypassing progressive streams
// included), before any payload read goes through it. The serving
// layer uses the hook to reroute payload reads through a shared block
// cache via DataFile.SetReaderAt. Install it before issuing reads; it
// is not safe to change concurrently with queries.
func (d *Dataset) SetOpenHook(fn func(*format.DataFile)) { d.openHook = fn }

// openDataFile opens one data file, applying the open hook.
func (d *Dataset) openDataFile(name string) (*format.DataFile, error) {
	df, err := format.OpenDataFile(filepath.Join(d.dir, name))
	if err != nil {
		return nil, err
	}
	if d.openHook != nil {
		d.openHook(df)
	}
	return df, nil
}

// Open reads and validates the dataset's spatial metadata file.
func Open(dir string) (*Dataset, error) {
	meta, err := format.ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	return &Dataset{dir: dir, meta: meta}, nil
}

// Meta exposes the decoded metadata.
func (d *Dataset) Meta() *format.Meta { return d.meta }

// Dir returns the dataset directory.
func (d *Dataset) Dir() string { return d.dir }

// Options configures a query.
type Options struct {
	// Levels limits the read to the first Levels levels of detail;
	// <= 0 means full resolution.
	Levels int
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
	// A gateway scatter-gathering a query over shards sets it to the
	// merged dataset's base so every shard reads exactly the LOD prefix
	// the whole dataset would — a shard's own (smaller) file count would
	// otherwise inflate its per-file base and desynchronize the levels.
	PerFileBase int64
}

func (o Options) readers() int {
	if o.Readers <= 0 {
		return 1
	}
	return o.Readers
}

// perFileBase distributes the dataset-wide level-0 budget n·P over the
// dataset's files.
func perFileBase(meta *format.Meta, readers int) int64 {
	nFiles := int64(len(meta.Files))
	if nFiles == 0 {
		return 1
	}
	base := int64(readers) * int64(meta.LOD.BasePerReader) / nFiles
	if base < 1 {
		base = 1
	}
	return base
}

// PerFileBase exposes the per-file level-0 budget derivation: n·P spread
// over the dataset's files. A gateway uses it on the merged metadata to
// compute the base it pushes down to every shard (Options.PerFileBase).
func PerFileBase(meta *format.Meta, readers int) int64 {
	if readers <= 0 {
		readers = 1
	}
	return perFileBase(meta, readers)
}

// QueryBox reads the particles intersecting q, consulting the metadata
// to open only intersecting files (Section 4: "any process making such
// reads simply uses the bounding box information stored in the metadata
// file to select exactly which file to read").
func (d *Dataset) QueryBox(q geom.Box, opts Options) (*particle.Buffer, Stats, error) {
	entries := d.meta.FilesIntersecting(q)
	return d.readEntries(entries, q, opts)
}

// ReadAll reads the whole dataset (optionally only some LOD levels).
func (d *Dataset) ReadAll(opts Options) (*particle.Buffer, Stats, error) {
	entries := make([]*format.FileEntry, len(d.meta.Files))
	for i := range d.meta.Files {
		entries[i] = &d.meta.Files[i]
	}
	opts.NoFilter = true
	return d.readEntries(entries, d.meta.Domain, opts)
}

// ReadEntries reads the given metadata entries (a reader rank's assigned
// file subset), filtered to q unless opts.NoFilter.
func (d *Dataset) ReadEntries(entries []*format.FileEntry, q geom.Box, opts Options) (*particle.Buffer, Stats, error) {
	return d.readEntries(entries, q, opts)
}

func (d *Dataset) readEntries(entries []*format.FileEntry, q geom.Box, opts Options) (*particle.Buffer, Stats, error) {
	var st Stats
	var proj *particle.Projection
	outSchema := d.meta.Schema
	if len(opts.Fields) > 0 {
		p, err := d.meta.Schema.Project(opts.Fields)
		if err != nil {
			return nil, st, err
		}
		proj = p
		outSchema = p.Schema()
	}
	out := particle.NewBuffer(outSchema, 0)
	base := opts.PerFileBase
	if base <= 0 {
		base = perFileBase(d.meta, opts.readers())
	}
	for _, e := range entries {
		buf, fst, err := d.readOne(e, base, opts, proj)
		if err != nil {
			return nil, st, err
		}
		st.Add(fst)
		if opts.NoFilter {
			out.AppendBuffer(buf)
			st.ParticlesKept += int64(buf.Len())
			continue
		}
		for i := 0; i < buf.Len(); i++ {
			if q.Contains(buf.Position(i)) || q.ContainsClosed(buf.Position(i)) {
				out.AppendFrom(buf, i)
				st.ParticlesKept++
			}
		}
	}
	return out, st, nil
}

func (d *Dataset) readOne(e *format.FileEntry, base int64, opts Options, proj *particle.Projection) (*particle.Buffer, Stats, error) {
	var st Stats
	var df *format.DataFile
	fromCache := false
	if d.cache != nil {
		cached, opened, err := d.cache.acquire(d, e.Name)
		if err != nil {
			return nil, st, err
		}
		defer d.cache.release(cached)
		df = cached.df
		if opened {
			st.FilesOpened = 1
		} else {
			fromCache = true
			st.CacheHits = 1
		}
	} else {
		opened, err := d.openDataFile(e.Name)
		if err != nil {
			return nil, st, err
		}
		defer opened.Close()
		df = opened
		st.FilesOpened = 1
	}

	hi := df.Header.Count
	if opts.Levels > 0 {
		hi = lod.PrefixCount(df.Header.Count, base, df.Header.LOD.Scale, opts.Levels)
	}
	var buf *particle.Buffer
	var err error
	if proj != nil {
		buf, err = df.ReadRangeProjected(0, hi, proj)
	} else {
		buf, err = df.ReadRange(0, hi)
	}
	if err != nil {
		return nil, st, err
	}
	st.ParticlesRead = int64(buf.Len())
	// Bytes stream in whole records regardless of projection.
	st.BytesRead = int64(buf.Len()) * int64(d.meta.Schema.Stride())
	if fromCache {
		st.BytesFromCache = st.BytesRead
		d.cache.noteBytes(st.BytesRead)
	}
	return buf, st, nil
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
	out := particle.NewBuffer(schema, 0)
	for _, de := range names {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".spd") {
			continue
		}
		df, err := format.OpenDataFile(filepath.Join(dir, de.Name()))
		if err != nil {
			return nil, st, err
		}
		buf, err := df.ReadAll()
		_ = df.Close() // read-only; the ReadAll error is the one to report
		if err != nil {
			return nil, st, err
		}
		st.FilesOpened++
		st.ParticlesRead += int64(buf.Len())
		st.BytesRead += buf.Bytes()
		for i := 0; i < buf.Len(); i++ {
			if q.Contains(buf.Position(i)) || q.ContainsClosed(buf.Position(i)) {
				out.AppendFrom(buf, i)
				st.ParticlesKept++
			}
		}
	}
	return out, st, nil
}

// LevelCount returns the number of LOD levels the dataset exposes to
// nReaders readers (Section 5.4's l = log_S(total/(n·P)) computation).
func (d *Dataset) LevelCount(nReaders int) int {
	if nReaders <= 0 {
		nReaders = 1
	}
	base := int64(nReaders) * int64(d.meta.LOD.BasePerReader)
	return lod.NumLevels(d.meta.Total, base, d.meta.LOD.Scale)
}
