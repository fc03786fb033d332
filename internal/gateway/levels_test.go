package gateway

import (
	"bytes"
	"fmt"
	"testing"

	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/particle"
	rdr "spio/internal/reader"
	"spio/internal/server"
)

// levelTarget is one way to read level ranges of a dataset: read answers
// a range of the files a box intersects, files lists those in the order
// the target delivers them, and stream, where the target has one, opens
// its progressive read.
type levelTarget struct {
	name   string
	read   func(q geom.Box, opts rdr.Options) (*particle.Buffer, rdr.Stats, error)
	files  func(q geom.Box) []*format.FileEntry
	stream func(q geom.Box, levels, readers int) (*rdr.Stream, error)
}

func remoteLevelTarget(t *testing.T, name, addr, ref string) levelTarget {
	t.Helper()
	ds, err := server.OpenRemote(addr, ref)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return levelTarget{name, ds.QueryBox, ds.Meta().FilesIntersecting, ds.ProgressiveBox}
}

// TestLevelRangesTileThePrefix is the LOD-prefix-validity invariant
// (DESIGN.md §12.1) over level ranges, once for every way there is to
// read one: {local reader, spiod, 3-shard spiogate} x disk codec {raw,
// lossless} x readers {1, 2, 256} x {whole records, Fields: density},
// over four files of very different sizes — one crosses a codec block,
// one is smaller than a first level — so that the files of one read run
// out of levels at different depths. For every
// file alone, the ranges [l, l+1), l < k, one after another are the bytes
// of the Levels: k read, for every k. Over several files — where a prefix
// read goes file by file and a level across them — each range is the
// bytes of the level a local Dataset.Progressive stream delivers over the
// same files in the target's order, and the ranges below k are the
// Levels: k read as a set of records. The range past the last level is
// empty, and every target's own stream — local, through spiod or through
// spiogate — delivers those ranges as its levels, Done exactly when the
// Progressive stream is.
func TestLevelRangesTileThePrefix(t *testing.T) {
	for _, disk := range []struct {
		name string
		spec particle.Spec
	}{{"raw", particle.Spec{}}, {"lossless", particle.LosslessSpec(particle.Uintah())}} {
		src := t.TempDir()
		counts := []int{300, 9000, 1700, 50}
		writeDatasetWith(t, src, geom.I3(2, 2, 1), geom.I3(1, 1, 1), disk.spec, func(rank int) int { return counts[rank] })
		local, err := rdr.Open(src)
		if err != nil {
			t.Fatal(err)
		}
		defer local.Close()
		spiod, _ := startBackend(t, src)
		specs, _ := splitShards(t, src, 3)
		_, gate := startGateway(t, Config{}, specs)
		targets := []levelTarget{
			{name: "local", read: local.QueryBox, files: local.Meta().FilesIntersecting, stream: local.ProgressiveBox},
			remoteLevelTarget(t, "spiod", spiod, "shard"),
			remoteLevelTarget(t, "spiogate", gate, "sim"),
		}

		// One box inside each file's partition, then two that take several.
		boxes := []geom.Box{geom.NewBox(geom.V3(0, 0, 0), geom.V3(0.7, 0.4, 1)), local.Meta().Domain}
		for _, e := range local.Meta().AllFiles() {
			c, quarter := e.Partition.Center(), e.Partition.Size().Mul(0.25)
			boxes = append(boxes, geom.NewBox(c.Sub(quarter), c.Add(quarter)))
		}
		for _, tg := range targets {
			for _, readers := range []int{1, 2, 256} {
				for _, fields := range [][]string{nil, {"density"}} {
					for _, q := range boxes {
						what := fmt.Sprintf("disk=%s %s readers=%d fields=%v box=%v", disk.name, tg.name, readers, fields, q)
						checkLevelRanges(t, what, local, tg, q, readers, fields)
					}
				}
			}
		}
	}
}

// checkLevelRanges checks one cell of TestLevelRangesTileThePrefix.
func checkLevelRanges(t *testing.T, what string, local *rdr.Dataset, tg levelTarget, q geom.Box, readers int, fields []string) {
	t.Helper()
	fail := func(err error, format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s: %v", what, fmt.Sprintf(format, args...), err)
	}
	proj, err := local.Meta().Schema.ProjectOnto(fields)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle: the local progressive reader over the files the target
	// reads, in the target's order (a gateway's is shard by shard).
	byName := map[string]*format.FileEntry{}
	for _, e := range local.Meta().AllFiles() {
		byName[e.Name] = e
	}
	var entries []*format.FileEntry
	for _, e := range tg.files(q) {
		entries = append(entries, byName[e.Name])
	}
	oracle, err := local.Progressive(entries, readers)
	if err != nil {
		fail(err, "oracle")
	}
	defer oracle.Close()
	var stream *rdr.Stream
	if tg.stream != nil && fields == nil {
		if stream, err = tg.stream(q, 0, readers); err != nil {
			fail(err, "stream")
		}
	}
	opts := rdr.Options{Readers: readers, NoFilter: true, Fields: fields}
	var below *particle.Buffer // the ranges read so far, one after another
	for l := 0; !oracle.Done(); l++ {
		want, _, err := oracle.NextLevel()
		if err == nil && proj != nil {
			want, err = proj.Apply(want)
		}
		if err != nil {
			fail(err, "oracle level %d", l)
		}
		opts.SkipLevels, opts.Levels = l, l+1
		got, _, err := tg.read(q, opts)
		if err != nil || !bytes.Equal(got.Encode(), want.Encode()) {
			fail(err, "range [%d, %d) is not the bytes of Progressive's level (%d particles)", l, l+1, want.Len())
		}
		if below == nil {
			below = particle.NewBuffer(got.Schema(), 0)
		}
		below.AppendBuffer(got)
		opts.SkipLevels = 0
		prefix, _, err := tg.read(q, opts)
		if err != nil || (len(entries) == 1 && !bytes.Equal(prefix.Encode(), below.Encode())) {
			fail(err, "the ranges below %d are not the bytes of the Levels: %d read", l+1, l+1)
		}
		sameRecords(t, what+": the ranges below a level against the read of as many levels", below, prefix)
		if stream == nil {
			continue
		}
		level, ok, err := stream.NextLevel()
		if err != nil || !ok || !bytes.Equal(level.Encode(), want.Encode()) {
			fail(err, "stream level %d (ok=%v) is not the range's bytes", l, ok)
		}
		if stream.Done() != oracle.Done() || stream.Level() != oracle.Level() {
			fail(nil, "after level %d the stream is at %d, done=%v; Progressive at %d, done=%v",
				l, stream.Level(), stream.Done(), oracle.Level(), oracle.Done())
		}
	}
	opts.SkipLevels, opts.Levels = oracle.Level(), oracle.Level()+1
	if past, _, err := tg.read(q, opts); err != nil || past.Len() != 0 {
		fail(err, "the range past the last level is not empty")
	}
}
