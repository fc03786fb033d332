package format

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spio/internal/fault"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
)

// writeBuf writes buf, already in its final order, as a data file.
func writeBuf(fsys fault.WriteFS, path string, hdr DataHeader, buf *particle.Buffer) error {
	rows := buf.Rows()
	defer rows.Release()
	return WriteDataFile(fsys, path, &hdr, rows, nil)
}

func writeTestDataFile(t *testing.T, n int) (string, *particle.Buffer) {
	t.Helper()
	dir := t.TempDir()
	buf := particle.Uniform(particle.Uintah(), geom.UnitBox(), n, 42, 0)
	lod.Shuffle(buf, 7)
	path := filepath.Join(dir, DataFileName(0))
	hdr := DataHeader{LOD: lod.DefaultParams(), Heuristic: lod.Random, Seed: 7}
	if err := writeBuf(nil, path, hdr, buf); err != nil {
		t.Fatal(err)
	}
	return path, buf
}

func TestDataFileRoundTrip(t *testing.T) {
	path, buf := writeTestDataFile(t, 257)
	df, err := OpenDataFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	if df.Header.Count != 257 {
		t.Errorf("Count = %d", df.Header.Count)
	}
	if !df.Header.Schema.Equal(particle.Uintah()) {
		t.Error("schema mismatch")
	}
	if df.Header.Bounds != buf.Bounds() {
		t.Errorf("bounds %v != %v", df.Header.Bounds, buf.Bounds())
	}
	back, err := df.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(buf) {
		t.Error("payload mismatch")
	}
}

func TestDataFileReadRange(t *testing.T) {
	path, buf := writeTestDataFile(t, 100)
	df, err := OpenDataFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	mid, err := df.ReadRange(30, 70)
	if err != nil {
		t.Fatal(err)
	}
	if !mid.Equal(buf.Slice(30, 70)) {
		t.Error("range read mismatch")
	}
	if _, err := df.ReadRange(-1, 5); err == nil {
		t.Error("negative lo should fail")
	}
	if _, err := df.ReadRange(0, 101); err == nil {
		t.Error("hi beyond count should fail")
	}
	empty, err := df.ReadRange(50, 50)
	if err != nil || empty.Len() != 0 {
		t.Errorf("empty range: %v, len %d", err, empty.Len())
	}
}

func TestDataFileReadPrefixClamps(t *testing.T) {
	path, buf := writeTestDataFile(t, 40)
	df, err := OpenDataFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	p, err := df.ReadPrefix(1000)
	if err != nil || p.Len() != 40 {
		t.Errorf("over-long prefix: err=%v len=%d", err, p.Len())
	}
	p, err = df.ReadPrefix(-3)
	if err != nil || p.Len() != 0 {
		t.Errorf("negative prefix: err=%v len=%d", err, p.Len())
	}
	p, err = df.ReadPrefix(10)
	if err != nil || !p.Equal(buf.Slice(0, 10)) {
		t.Error("prefix read mismatch")
	}
}

func TestDataFileReadLevels(t *testing.T) {
	path, _ := writeTestDataFile(t, 100)
	df, err := OpenDataFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	// Per-file base 32, S=2: levels are 32, 64, 4.
	l1, err := df.ReadPrefix(lod.PrefixCount(df.Header.Count, 32, df.Header.LOD.Scale, 1))
	if err != nil || l1.Len() != 32 {
		t.Errorf("level 1: err=%v len=%d", err, l1.Len())
	}
	l2, err := df.ReadPrefix(lod.PrefixCount(df.Header.Count, 32, df.Header.LOD.Scale, 2))
	if err != nil || l2.Len() != 96 {
		t.Errorf("levels 2: err=%v len=%d", err, l2.Len())
	}
	l3, err := df.ReadPrefix(lod.PrefixCount(df.Header.Count, 32, df.Header.LOD.Scale, 3))
	if err != nil || l3.Len() != 100 {
		t.Errorf("levels 3: err=%v len=%d", err, l3.Len())
	}
	// Progressive refinement: earlier levels are prefixes of later reads.
	if !l2.Slice(0, 32).Equal(l1) {
		t.Error("level 1 is not a prefix of levels 1..2")
	}
}

func TestDataFileEmpty(t *testing.T) {
	dir := t.TempDir()
	buf := particle.NewBuffer(particle.Uintah(), 0)
	path := filepath.Join(dir, DataFileName(3))
	if err := writeBuf(nil, path, DataHeader{LOD: lod.DefaultParams()}, buf); err != nil {
		t.Fatal(err)
	}
	df, err := OpenDataFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	if df.Header.Count != 0 {
		t.Errorf("Count = %d", df.Header.Count)
	}
	all, err := df.ReadAll()
	if err != nil || all.Len() != 0 {
		t.Errorf("ReadAll on empty: %v, %d", err, all.Len())
	}
}

func TestDataFileRejectsCorruption(t *testing.T) {
	path, _ := writeTestDataFile(t, 10)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		mut[0] = 'X'
		p := filepath.Join(t.TempDir(), "x.spd")
		os.WriteFile(p, mut, 0o644)
		if _, err := OpenDataFile(p); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		mut[8] = 99
		p := filepath.Join(t.TempDir(), "x.spd")
		os.WriteFile(p, mut, 0o644)
		if _, err := OpenDataFile(p); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("flipped header byte", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		mut[20] ^= 0xff // inside the header body
		p := filepath.Join(t.TempDir(), "x.spd")
		os.WriteFile(p, mut, 0o644)
		if _, err := OpenDataFile(p); err == nil {
			t.Error("corrupt header accepted")
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "x.spd")
		os.WriteFile(p, raw[:len(raw)-5], 0o644)
		if _, err := OpenDataFile(p); err == nil || !strings.Contains(err.Error(), "size") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("extra bytes", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "x.spd")
		os.WriteFile(p, append(append([]byte(nil), raw...), 0, 0), 0o644)
		if _, err := OpenDataFile(p); err == nil {
			t.Error("oversized file accepted")
		}
	})
}

func TestWriteDataFileSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	buf := particle.Uniform(particle.Uintah(), geom.UnitBox(), 5, 1, 0)
	hdr := DataHeader{Schema: particle.PositionOnly(), LOD: lod.DefaultParams()}
	if err := writeBuf(nil, filepath.Join(dir, "x.spd"), hdr, buf); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func TestDataFileNameConvention(t *testing.T) {
	// Fig. 4: agg rank derives the file name.
	if DataFileName(12) != "file_12.spd" {
		t.Errorf("DataFileName(12) = %q", DataFileName(12))
	}
}

func testMeta(t *testing.T) *Meta {
	t.Helper()
	domain := geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
	g := geom.NewGrid(domain, geom.I3(2, 2, 1))
	m := &Meta{
		Domain:          domain,
		SimDims:         geom.I3(4, 4, 1),
		PartitionFactor: geom.I3(2, 2, 1),
		AggDims:         geom.I3(2, 2, 1),
		Schema:          particle.Uintah(),
		LOD:             lod.DefaultParams(),
		Heuristic:       lod.Random,
		Total:           4000,
	}
	for i := 0; i < 4; i++ {
		box := g.CellBoxLinear(i)
		m.Files = append(m.Files, FileEntry{
			BoxIndex:  i,
			AggRank:   i * 4,
			Name:      DataFileName(i * 4),
			Partition: box,
			Bounds:    box,
			Count:     1000,
		})
	}
	return m
}

func TestMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := testMeta(t)
	if err := WriteMeta(nil, dir, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Total != m.Total || len(back.Files) != len(m.Files) {
		t.Fatalf("meta mismatch: %+v", back)
	}
	if back.Domain != m.Domain || back.SimDims != m.SimDims ||
		back.PartitionFactor != m.PartitionFactor || back.AggDims != m.AggDims {
		t.Error("geometry fields mismatch")
	}
	if !back.Schema.Equal(m.Schema) {
		t.Error("schema mismatch")
	}
	for i := range m.Files {
		if back.Files[i].Name != m.Files[i].Name ||
			back.Files[i].Partition != m.Files[i].Partition ||
			back.Files[i].Count != m.Files[i].Count ||
			back.Files[i].AggRank != m.Files[i].AggRank ||
			back.Files[i].BoxIndex != m.Files[i].BoxIndex {
			t.Errorf("entry %d mismatch", i)
		}
	}
}

func TestMetaFig4Layout(t *testing.T) {
	// Fig. 4's example: 4 aggregation partitions over the unit square,
	// aggregator ranks 0, 4, 8, 12, with Low/High columns.
	m := testMeta(t)
	m.Files[1].AggRank = 4
	m.Files[1].Name = DataFileName(4)
	m.Files[2].AggRank = 8
	m.Files[2].Name = DataFileName(8)
	m.Files[3].AggRank = 12
	m.Files[3].Name = DataFileName(12)
	dir := t.TempDir()
	if err := WriteMeta(nil, dir, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Box 0 covers [0,0]..[0.5,0.5] as in the figure.
	if back.Files[0].Partition.Lo != geom.V3(0, 0, 0) ||
		back.Files[0].Partition.Hi.X != 0.5 || back.Files[0].Partition.Hi.Y != 0.5 {
		t.Errorf("box 0 = %v", back.Files[0].Partition)
	}
	if back.Files[3].Partition.Hi != geom.V3(1, 1, 1) {
		t.Errorf("box 3 = %v", back.Files[3].Partition)
	}
}

func TestMetaWithFieldRanges(t *testing.T) {
	m := testMeta(t)
	comps := totalComponents(m.Schema) // 16 for Uintah
	if comps != 16 {
		t.Fatalf("Uintah components = %d", comps)
	}
	for i := range m.Files {
		mins := make([]float64, comps)
		maxs := make([]float64, comps)
		for j := range mins {
			mins[j] = float64(i) - 1
			maxs[j] = float64(i) + 1
		}
		m.Files[i].FieldMin = mins
		m.Files[i].FieldMax = maxs
	}
	dir := t.TempDir()
	if err := WriteMeta(nil, dir, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range back.Files {
		if len(back.Files[i].FieldMin) != comps {
			t.Fatalf("entry %d: %d minima", i, len(back.Files[i].FieldMin))
		}
		if back.Files[i].FieldMin[3] != float64(i)-1 || back.Files[i].FieldMax[5] != float64(i)+1 {
			t.Errorf("entry %d ranges wrong", i)
		}
	}
}

func TestMetaValidateRejects(t *testing.T) {
	mutations := map[string]func(m *Meta){
		"overlapping partitions": func(m *Meta) { m.Files[1].Partition = m.Files[0].Partition },
		"count mismatch":         func(m *Meta) { m.Files[0].Count += 5 },
		"negative count":         func(m *Meta) { m.Files[0].Count = -1; m.Total -= 1001 },
		"escaping partition": func(m *Meta) {
			m.Files[0].Partition = geom.NewBox(geom.V3(-1, 0, 0), geom.V3(0.5, 0.5, 1))
		},
		"bad lod":        func(m *Meta) { m.LOD.Scale = 1 },
		"empty domain":   func(m *Meta) { m.Domain = geom.EmptyBox() },
		"min/max length": func(m *Meta) { m.Files[0].FieldMin = []float64{1} },
	}
	for name, mutate := range mutations {
		m := testMeta(t)
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
}

func TestMetaFilesIntersecting(t *testing.T) {
	m := testMeta(t)
	// Query inside box 0 only.
	q := geom.NewBox(geom.V3(0.1, 0.1, 0.1), geom.V3(0.2, 0.2, 0.2))
	hits := m.FilesIntersecting(q)
	if len(hits) != 1 || hits[0].BoxIndex != 0 {
		t.Errorf("hits = %v", hits)
	}
	// Query spanning the whole domain hits all 4.
	if got := m.FilesIntersecting(m.Domain); len(got) != 4 {
		t.Errorf("domain query hit %d files", len(got))
	}
	// Disjoint query hits none.
	if got := m.FilesIntersecting(geom.NewBox(geom.V3(5, 5, 5), geom.V3(6, 6, 6))); len(got) != 0 {
		t.Errorf("disjoint query hit %d files", len(got))
	}
}

func TestMetaRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	if err := WriteMeta(nil, dir, testMeta(t)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, MetaFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), raw...)
	mut[40] ^= 0x01
	os.WriteFile(path, mut, 0o644)
	if _, err := ReadMeta(dir); err == nil {
		t.Error("corrupt metadata accepted")
	}
	os.WriteFile(path, raw[:30], 0o644)
	if _, err := ReadMeta(dir); err == nil {
		t.Error("truncated metadata accepted")
	}
}

func TestMetaMissingFile(t *testing.T) {
	if _, err := ReadMeta(t.TempDir()); err == nil {
		t.Error("missing metadata file should error")
	}
}

func TestWriteMetaValidatesFirst(t *testing.T) {
	m := testMeta(t)
	m.Total = 1 // inconsistent
	if err := WriteMeta(nil, t.TempDir(), m); err == nil {
		t.Error("invalid meta written")
	}
}
