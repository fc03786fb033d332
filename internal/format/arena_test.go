package format

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"spio/internal/fault"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
)

// TestArenaReleasedOnEveryExit: the frames of a compressed write live in
// one pooled arena a file from the compress to the end of its write, and
// the arena goes back whichever way that ends — the file landed, the
// filesystem failed at any step, the codec refused the run — also with
// writers beside each other (the run under -race is the assertion that a
// returned arena is no longer written).
func TestArenaReleasedOnEveryExit(t *testing.T) {
	held := arenasHeld.Load()
	check := func(exit string) {
		t.Helper()
		if n := arenasHeld.Load() - held; n != 0 {
			t.Fatalf("%s: %d arenas still out", exit, n)
		}
	}
	schema := particle.Uintah()
	rows := particle.Uniform(schema, geom.UnitBox(), 3000, 8, 0).Rows()
	defer rows.Release()
	newHeader := func() *DataHeader {
		return &DataHeader{LOD: lod.DefaultParams(), Codec: particle.LosslessSpec(schema), PayloadCRC: true}
	}
	dir := t.TempDir()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, op := range []fault.Op{fault.OpCreate, fault.OpWrite, fault.OpSync, fault.OpClose, fault.OpRename} {
				in := fault.NewInjector()
				in.Add(0, fault.Fault{Op: op})
				path := filepath.Join(dir, fmt.Sprintf("w%d_%d.spd", w, i))
				if err := WriteDataFile(in.FS(0), path, newHeader(), rows, nil); err == nil {
					t.Errorf("write with a failing %v succeeded", op)
				}
				if err := WriteDataFile(nil, path, newHeader(), rows, nil); err != nil {
					t.Errorf("clean write: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	check("clean and failing writes")

	// A codec error cannot pass WriteDataFile's own validation, so the
	// payload is compressed directly under a spec that does not fit the
	// schema: the arena was drawn, the error comes back with it, and
	// releasing it is the caller's one duty.
	bad := newHeader()
	bad.Schema, bad.Count = schema, int64(rows.Len())
	bad.Codec.Fields = bad.Codec.Fields[:2]
	_, _, arena, err := compressPayload(bad, rows, nil)
	if err == nil || arena == nil || arenasHeld.Load() != held+1 {
		t.Fatalf("compressPayload under a bad spec: err %v with an arena of %d bytes, %d out", err, len(arena), arenasHeld.Load()-held)
	}
	releaseArena(arena)
	check("codec error")
}
