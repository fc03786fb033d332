package spio_test

// Acceptance test for the compression layer through the public API
// only: a dataset written with a lossy position codec stays within its
// bound. (Compressed datasets served by spiod, and through a sharded
// mount, answer as the local reader does: TestReadContract in
// internal/gateway.)

import (
	"math"
	"testing"

	"spio"
)

func writeCodecDataset(t *testing.T, dir string, codec spio.CodecSpec) {
	t.Helper()
	domain := spio.UnitBox()
	simDims := spio.I3(2, 2, 1)
	grid := spio.NewGrid(domain, simDims)
	cfg := spio.WriteConfig{
		Agg:      spio.AggConfig{Domain: domain, SimDims: simDims, Factor: spio.I3(2, 1, 1)},
		Seed:     7,
		Checksum: true,
		Codec:    codec,
	}
	err := spio.Run(simDims.Volume(), func(c *spio.Comm) error {
		patch := grid.CellBox(spio.Unlinear(c.Rank(), simDims))
		local := spio.Clustered(spio.UintahSchema(), patch, 800, 3, 7, c.Rank())
		_, err := spio.Write(c, dir, cfg, local)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLossyCodecRespectsBoundPublicAPI(t *testing.T) {
	rawDir, lossyDir := t.TempDir(), t.TempDir()
	const bound = 1e-3
	writeCodecDataset(t, rawDir, spio.CodecSpec{})
	writeCodecDataset(t, lossyDir, spio.LossyCodec(spio.UintahSchema(), bound))

	exact, err := spio.Open(rawDir)
	if err != nil {
		t.Fatal(err)
	}
	defer exact.Close()
	lossy, err := spio.Open(lossyDir)
	if err != nil {
		t.Fatal(err)
	}
	defer lossy.Close()

	a, _, err := exact.ReadAll(spio.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := lossy.ReadAll(spio.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("particle counts diverge: %d vs %d", a.Len(), b.Len())
	}
	// Same write order, so particles correspond index-for-index; every
	// position component must sit within the error bound.
	for i := 0; i < a.Len(); i++ {
		pa, pb := a.Position(i), b.Position(i)
		for c, d := range []float64{pa.X - pb.X, pa.Y - pb.Y, pa.Z - pb.Z} {
			if math.Abs(d) > bound {
				t.Fatalf("particle %d component %d: error %g exceeds bound %g", i, c, d, bound)
			}
		}
	}
	// Ids are integers and must survive exactly.
	idx := a.Schema().FieldIndex("id")
	ida, idb := a.Float64Field(idx), b.Float64Field(idx)
	for i := range ida {
		if ida[i] != idb[i] {
			t.Fatalf("particle %d: id changed under lossy positions", i)
		}
	}
}
