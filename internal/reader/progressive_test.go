package reader

import (
	"testing"

	"spio/internal/geom"
)

// TestProgressiveStreamsWholeDataset: a local stream delivers every
// particle once, in disjoint increments. Its levels are reads like any
// other, so its Stats are their sum and it holds no handle between two of
// them. With a file cache of at least its k files it opens each file once
// over all its levels, and every later level hits; without one it opens
// the k files again for every level. The bytes of every level, and Done
// level by level, are TestReadContract's (internal/gateway).
func TestProgressiveStreamsWholeDataset(t *testing.T) {
	dir, all := writeDataset(t, geom.I3(4, 4, 1), geom.I3(2, 2, 1), 128, nil)
	for _, slots := range []int{0, 4, 8} {
		ds, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.SetFileCache(slots); err != nil {
			t.Fatal(err)
		}
		entries := ds.Meta().AllFiles()
		k := len(entries)
		st, err := ds.Progressive(entries, 1)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[float64]bool)
		total, prevInc := 0, 0
		for !st.Done() {
			inc, ok, err := st.NextLevel()
			if err != nil || !ok {
				t.Fatalf("cache %d: level %d: ok=%v err=%v", slots, st.Level(), ok, err)
			}
			// Increments are disjoint: no particle arrives twice.
			for _, id := range inc.Float64Field(inc.Schema().FieldIndex("id")) {
				if seen[id] {
					t.Fatalf("cache %d: particle %v delivered twice", slots, id)
				}
				seen[id] = true
			}
			total += inc.Len()
			// Geometric-ish growth until the tail.
			if prevInc > 0 && inc.Len() > 3*prevInc {
				t.Errorf("cache %d: level %d increment %d jumped from %d", slots, st.Level(), inc.Len(), prevInc)
			}
			if inc.Len() > 0 {
				prevInc = inc.Len()
			}
		}
		if total != all.Len() {
			t.Errorf("cache %d: streamed %d of %d particles", slots, total, all.Len())
		}
		// Further calls keep returning not-ok.
		if _, ok, _ := st.NextLevel(); ok {
			t.Errorf("cache %d: NextLevel after done returned ok", slots)
		}
		levels := st.Level()
		opened, hits := k*levels, 0
		if slots >= k {
			opened, hits = k, (levels-1)*k
		}
		read := st.Stats()
		if levels < 3 || read.FilesOpened != opened || read.CacheHits != int64(hits) || read.ParticlesKept != int64(all.Len()) {
			t.Errorf("cache %d: %d levels over %d files opened %d and hit %d, kept %d; want %d, %d and %d",
				slots, levels, k, read.FilesOpened, read.CacheHits, read.ParticlesKept, opened, hits, all.Len())
		}
		ds.Close()
	}
}

func TestProgressivePerReaderSubset(t *testing.T) {
	// Two readers streaming disjoint file sets cover the dataset.
	dir, all := writeDataset(t, geom.I3(4, 2, 1), geom.I3(2, 1, 1), 64, nil)
	ds, _ := Open(dir)
	total := 0
	for rdr := 0; rdr < 2; rdr++ {
		p, err := ds.Progressive(AssignFiles(ds.Meta(), 2, rdr), 2)
		if err != nil {
			t.Fatal(err)
		}
		for {
			inc, ok, err := p.NextLevel()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			total += inc.Len()
		}
		p.Close()
	}
	if total != all.Len() {
		t.Errorf("two readers streamed %d of %d", total, all.Len())
	}
}

func TestProgressiveEmptyEntries(t *testing.T) {
	dir, _ := writeDataset(t, geom.I3(2, 1, 1), geom.I3(1, 1, 1), 10, nil)
	ds, _ := Open(dir)
	if _, err := ds.Progressive(nil, 1); err == nil {
		t.Error("empty entry list accepted")
	}
}
