package format

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"spio/internal/binio"
	"spio/internal/fault"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
)

// Spatial metadata file (paper Section 3.5, Fig. 4). One per dataset,
// written by rank 0 after an Allgather of aggregator bounding boxes. It
// maps every data file to the disjoint spatial partition whose particles
// it holds, letting readers open exactly the files intersecting a box
// query.
//
// Layout (little-endian):
//
//	magic "SPIOMETA" | version u32 | body CRC32
//	domain box | sim dims idx3 | partition factor idx3 | agg dims idx3
//	schema | lod params | heuristic u8 | total count u64
//	file count uvarint | entries...
//
// Each entry is: box index uvarint | agg rank uvarint | name string |
// partition box | tight bounds box | count u64 | range-summary flag u8
// [+ per-component min/max f64 pairs]. The per-component min/max is the
// range-query extension the paper plans in Section 3.5 ("storing, e.g.,
// the minimum and maximum values of scalar fields"); spio implements it
// behind a flag so paper-faithful files can omit it.

const (
	metaMagic   = "SPIOMETA"
	metaVersion = 1
	// MetaFileName is the canonical name of the metadata file inside a
	// dataset directory.
	MetaFileName = "meta.spmd"
)

// FileEntry is one row of the metadata table: one data file written by
// one aggregator.
type FileEntry struct {
	// BoxIndex is the row-major linear index of the aggregation
	// partition in the aggregation-grid (the "Box #" column of Fig. 4).
	BoxIndex int
	// AggRank is the writer rank (the "Agg rank" column); the file name
	// is derived from it.
	AggRank int
	// Name is the data file's name relative to the dataset directory.
	Name string
	// Partition is the aggregation partition box ("Low"/"High" columns):
	// disjoint from every other entry's, and covering the domain.
	Partition geom.Box
	// Bounds is the tight closed bounding box of the particles actually
	// present in the file (⊆ Partition up to boundary closure).
	Bounds geom.Box
	// Count is the number of particles in the file.
	Count int64
	// FieldMin/FieldMax, when present, hold per-component minima and
	// maxima of every schema field, flattened in schema order. Length is
	// either 0 or the schema's total component count.
	FieldMin, FieldMax []float64
}

// Meta is the decoded metadata file.
type Meta struct {
	// Domain is the full simulation domain.
	Domain geom.Box
	// SimDims is the simulation's patch decomposition (one patch per
	// writer rank).
	SimDims geom.Idx3
	// PartitionFactor is (Px, Py, Pz) of Section 3.1.
	PartitionFactor geom.Idx3
	// AggDims = SimDims / PartitionFactor is the aggregation-grid shape;
	// its volume is the file count for uniform datasets.
	AggDims geom.Idx3
	// Schema describes the particle records in every data file.
	Schema *particle.Schema
	// LOD and Heuristic describe the within-file ordering.
	LOD       lod.Params
	Heuristic lod.Heuristic
	// Total is the dataset-wide particle count.
	Total int64
	// Files lists every data file. For adaptive datasets entries may
	// cover only the occupied subdomain.
	Files []FileEntry
}

// Validate checks structural invariants: positive dims, every entry's
// partition inside the domain, disjoint partitions, counts summing to
// Total, and distinct entry names that are each one file of the dataset's
// own directory — a name is joined to that directory by every reader and
// by a split's copy, so "../x", "/x", "a/b", "." or "" would reach outside
// it or no file at all. Its errors start with what is wrong: EncodeMeta
// and the decoder put the package, and the image's path, before them.
func (m *Meta) Validate() error {
	if m.Schema == nil {
		return fmt.Errorf("meta has no schema")
	}
	if err := m.LOD.Validate(); err != nil {
		return err
	}
	if m.Domain.IsEmpty() {
		return fmt.Errorf("meta domain %v is empty", m.Domain)
	}
	var sum int64
	comps := totalComponents(m.Schema)
	for i, f := range m.Files {
		if f.Count < 0 {
			return fmt.Errorf("file %d has negative count", i)
		}
		if f.Name == "." || !filepath.IsLocal(f.Name) || f.Name != filepath.Base(f.Name) {
			return fmt.Errorf("file %d name %q is not a file of the dataset directory", i, f.Name)
		}
		if !f.Partition.IsValid() || f.Partition.IsEmpty() {
			return fmt.Errorf("file %d partition %v invalid", i, f.Partition)
		}
		if !m.Domain.ContainsBox(f.Partition) {
			return fmt.Errorf("file %d partition %v escapes domain %v", i, f.Partition, m.Domain)
		}
		if len(f.FieldMin) != 0 && len(f.FieldMin) != comps {
			return fmt.Errorf("file %d has %d field minima, want 0 or %d", i, len(f.FieldMin), comps)
		}
		if len(f.FieldMin) != len(f.FieldMax) {
			return fmt.Errorf("file %d min/max length mismatch", i)
		}
		for j := 0; j < i; j++ {
			if m.Files[j].Partition.Intersects(f.Partition) {
				return fmt.Errorf("files %d and %d have overlapping partitions", j, i)
			}
			if m.Files[j].Name == f.Name {
				return fmt.Errorf("files %d and %d are both named %q", j, i, f.Name)
			}
		}
		sum += f.Count
	}
	if sum != m.Total {
		return fmt.Errorf("file counts sum to %d, meta total is %d", sum, m.Total)
	}
	return nil
}

func totalComponents(s *particle.Schema) int {
	n := 0
	for i := 0; i < s.NumFields(); i++ {
		n += s.Field(i).Components
	}
	return n
}

// FilesIntersecting returns the entries whose half-open partition
// intersects q, or whose closed particle bounds touch it, in file order —
// the metadata-driven file selection of Section 4. The bounds catch what
// the partition misses: a particle on its partition's upper face, one on
// its lower face under a query whose Hi is that face, and one filed in
// the nearest partition of its writer's block. The partition keeps a file
// whose bounds a NaN position has made unusable.
func (m *Meta) FilesIntersecting(q geom.Box) []*FileEntry {
	var out []*FileEntry
	for i := range m.Files {
		if m.Files[i].Partition.Intersects(q) || m.Files[i].Bounds.Touches(q) {
			out = append(out, &m.Files[i])
		}
	}
	return out
}

// AllFiles returns every entry, in file order.
func (m *Meta) AllFiles() []*FileEntry {
	out := make([]*FileEntry, len(m.Files))
	for i := range m.Files {
		out[i] = &m.Files[i]
	}
	return out
}

// WriteMeta writes the metadata file into dir, atomically: the bytes
// land in a temp file that is fsynced and renamed over the canonical
// name (fsys nil means the real filesystem), so a reader either sees
// the previous metadata or the complete new table — never a torn one.
// Since the metadata is the dataset's commit record, this makes the
// whole write pipeline fail-stop: no meta.spmd, no dataset.
func WriteMeta(fsys fault.WriteFS, dir string, m *Meta) error {
	// The metadata is small: pre-encode the complete file so each
	// atomic-write attempt just replays the bytes.
	var full headerBuf
	if err := EncodeMeta(&full, m); err != nil {
		return err
	}
	return writeFileAtomic(fsOrOS(fsys), filepath.Join(dir, MetaFileName), func(w io.Writer) error {
		_, err := w.Write(full.b)
		return err
	})
}

// EncodeMeta serializes the complete metadata file image — magic,
// version, checksum, body — to w. It is the wire twin of WriteMeta: a
// dataset-serving daemon ships exactly these bytes to remote clients,
// so the remote and on-disk representations cannot drift.
func EncodeMeta(w io.Writer, m *Meta) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("format: %w", err)
	}

	var body headerBuf
	e := binio.NewWriter(&body)
	e.Box(m.Domain)
	e.Idx3(m.SimDims)
	e.Idx3(m.PartitionFactor)
	e.Idx3(m.AggDims)
	EncodeSchema(e, m.Schema)
	e.Uvarint(uint64(m.LOD.BasePerReader))
	e.Uvarint(uint64(m.LOD.Scale))
	e.U8(uint8(m.Heuristic))
	e.U64(uint64(m.Total))
	e.Uvarint(uint64(len(m.Files)))
	for i := range m.Files {
		EncodeFileEntry(e, &m.Files[i])
	}
	if e.Err() != nil {
		return e.Err()
	}

	out := binio.NewWriter(w)
	out.Bytes([]byte(metaMagic))
	out.U32(metaVersion)
	out.U32(crc32.ChecksumIEEE(body.b))
	out.Bytes(body.b)
	return out.Err()
}

// EncodeFileEntry and DecodeFileEntry are the codec of one row of the
// metadata table — of the paper's Fig. 4 — wherever it travels: in the
// metadata file, and from each aggregator to rank 0 in the Allgather that
// precedes it (internal/core). A range summary is as long as the schema
// has components.
func EncodeFileEntry(e *binio.Writer, fe *FileEntry) {
	e.Uvarint(uint64(fe.BoxIndex))
	e.Uvarint(uint64(fe.AggRank))
	e.Str(fe.Name)
	e.Box(fe.Partition)
	e.Box(fe.Bounds)
	e.U64(uint64(fe.Count))
	if len(fe.FieldMin) > 0 {
		e.U8(1)
		for i := range fe.FieldMin {
			e.F64(fe.FieldMin[i])
			e.F64(fe.FieldMax[i])
		}
	} else {
		e.U8(0)
	}
}

func DecodeFileEntry(d *binio.Reader, schema *particle.Schema) FileEntry {
	var fe FileEntry
	fe.BoxIndex = int(d.Uvarint())
	fe.AggRank = int(d.Uvarint())
	fe.Name = d.Str(maxFieldName)
	fe.Partition = d.Box()
	fe.Bounds = d.Box()
	fe.Count = int64(d.U64())
	if d.U8() != 0 && d.Err() == nil {
		// At most maxFields × maxComponents (DecodeSchema).
		comps := totalComponents(schema)
		fe.FieldMin = make([]float64, comps)
		fe.FieldMax = make([]float64, comps)
		for j := 0; j < comps; j++ {
			fe.FieldMin[j] = d.F64()
			fe.FieldMax[j] = d.F64()
		}
	}
	return fe
}

// ReadMeta reads and validates the metadata file in dir.
func ReadMeta(dir string) (*Meta, error) {
	path := filepath.Join(dir, MetaFileName)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeMeta(bufio.NewReader(f), path)
}

// DecodeMeta decodes a metadata file image produced by EncodeMeta (or
// read from disk) from r.
func DecodeMeta(r io.Reader) (*Meta, error) {
	return decodeMeta(r, "metadata")
}

// decodeMeta decodes and validates one metadata image; path labels
// errors.
func decodeMeta(r io.Reader, path string) (*Meta, error) {
	var err error
	src := &crcReader{r: r}
	d := binio.NewReader(src, "format: "+path)
	magic := make([]byte, len(metaMagic))
	d.Bytes(magic)
	if d.Err() == nil && string(magic) != metaMagic {
		return nil, fmt.Errorf("format: %s: not a spio metadata file", path)
	}
	version := d.U32()
	if d.Err() == nil && version != metaVersion {
		return nil, fmt.Errorf("format: %s: unsupported metadata version %d", path, version)
	}
	wantCRC := d.U32()
	if d.Err() != nil {
		return nil, d.Err()
	}
	src.crc = 0 // the CRC covers the body alone

	var m Meta
	m.Domain = d.Box()
	m.SimDims = d.Idx3()
	m.PartitionFactor = d.Idx3()
	m.AggDims = d.Idx3()
	m.Schema, err = DecodeSchema(d)
	if err != nil {
		return nil, err
	}
	m.LOD.BasePerReader = int(d.Uvarint())
	m.LOD.Scale = int(d.Uvarint())
	m.Heuristic = lod.Heuristic(d.U8())
	m.Total = int64(d.U64())
	nFiles := d.Uvarint()
	// The table grows as its entries decode, so a count the bytes behind
	// it do not bear out costs what those bytes can decode to, not what
	// the count claims.
	for i := uint64(0); i < nFiles && d.Err() == nil; i++ {
		m.Files = append(m.Files, DecodeFileEntry(d, m.Schema))
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if src.crc != wantCRC {
		return nil, fmt.Errorf("format: %s: checksum mismatch", path)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("format: %s: %w", path, err)
	}
	return &m, nil
}
