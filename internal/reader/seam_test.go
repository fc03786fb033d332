package reader

import (
	"io"
	"path/filepath"
	"sync"
	"testing"

	"spio/internal/agg"
	"spio/internal/core"
	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// coverage is an OpenOptions.Seam that marks every byte read through it.
type coverage struct {
	mu   sync.Mutex
	seen map[string][]bool // path → offset → read
}

func (c *coverage) seam(path string, file io.ReaderAt) io.ReaderAt {
	return coveredFile{c, path, file}
}

type coveredFile struct {
	c    *coverage
	path string
	file io.ReaderAt
}

func (f coveredFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.file.ReadAt(p, off)
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	marks := f.c.seen[f.path]
	if need := int(off) + n; need > len(marks) {
		marks = append(marks, make([]bool, need-len(marks))...)
	}
	for i := int(off); i < int(off)+n; i++ {
		marks[i] = true
	}
	f.c.seen[f.path] = marks
	return n, err
}

// take returns the number of distinct bytes read through the seam since
// the last take.
func (c *coverage) take() (n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, marks := range c.seen {
		for _, read := range marks {
			if read {
				n++
			}
		}
	}
	c.seen = map[string][]bool{}
	return n
}

// TestEveryReadGoesThroughTheSeam: what a dataset was opened with is what
// every read of it goes through — box, whole-dataset and halo reads and a
// progressive stream's levels, through the file cache — while a check of
// the dataset, which a server runs at mount on files nobody has asked for
// yet, reads around it.
func TestEveryReadGoesThroughTheSeam(t *testing.T) {
	simDims := geom.I3(4, 4, 1)
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	for name, spec := range map[string]particle.Spec{"raw": {}, "lossless": particle.LosslessSpec(particle.Uintah())} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := core.WriteConfig{
				Agg:      agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(2, 2, 1)},
				Codec:    spec,
				Checksum: true, // so the check below has a payload read to make
			}
			err := mpi.Run(16, func(c *mpi.Comm) error {
				local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), 700, 7, c.Rank())
				_, werr := core.Write(c, dir, cfg, local)
				return werr
			})
			if err != nil {
				t.Fatal(err)
			}
			seen := &coverage{seen: map[string][]bool{}}
			ds, err := OpenWith(dir, format.OpenOptions{Seam: seen.seam})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			if err := ds.SetFileCache(2); err != nil { // fewer slots than files
				t.Fatal(err)
			}
			var payload int64
			for _, e := range ds.Meta().Files {
				df, err := format.OpenDataFile(filepath.Join(dir, e.Name))
				if err != nil {
					t.Fatal(err)
				}
				payload += df.PayloadBytes()
				df.Close()
			}
			through := func(what string, want int64) {
				t.Helper()
				if got := seen.take(); got != want {
					t.Errorf("%s read %d distinct bytes through the seam, want %d of the %d payload bytes", what, got, want, payload)
				}
			}

			if problems := ds.Fsck(FsckOptions{Deep: true, Checksums: true}); len(problems) != 0 {
				t.Fatal(problems)
			}
			through("Fsck", 0)
			if _, _, err := ds.QueryBox(geom.UnitBox(), Options{}); err != nil {
				t.Fatal(err)
			}
			through("QueryBox", payload)
			if _, _, err := ds.ReadAll(Options{}); err != nil {
				t.Fatal(err)
			}
			through("ReadAll", payload)
			if _, _, _, err := ds.Halo(geom.NewBox(geom.V3(0.4, 0.4, 0), geom.V3(0.6, 0.6, 1)), 0.1, Options{}); err != nil {
				t.Fatal(err)
			}
			through("Halo", payload)
			stream, err := ds.Progressive(ds.Meta().AllFiles(), 1)
			if err != nil {
				t.Fatal(err)
			}
			defer stream.Close()
			for {
				_, more, err := stream.NextLevel()
				if err != nil {
					t.Fatal(err)
				}
				if !more {
					break
				}
			}
			through("Progressive", payload)
		})
	}
}
