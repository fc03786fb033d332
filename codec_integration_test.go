package spio_test

// Acceptance test for the compression layer through the public API
// only: a dataset written with a per-field codec, served by an embedded
// daemon, must answer remote queries byte-identically to the local
// reader — with the wire codec negotiated on and off.

import (
	"context"
	"math"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

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

func serveDataset(t *testing.T, dir string) string {
	t.Helper()
	sockDir, err := os.MkdirTemp("", "spio-codec")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(sockDir) })
	sock := filepath.Join(sockDir, "s.sock")
	s := spio.NewServer(spio.ServerConfig{CacheBytes: 32 << 10, BlockBytes: 4 << 10})
	if err := s.Mount("sim", dir); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return "unix:" + sock
}

func TestCompressedRemoteMatchesLocalPublicAPI(t *testing.T) {
	dir := t.TempDir()
	writeCodecDataset(t, dir, spio.LosslessCodec(spio.UintahSchema()))

	local, err := spio.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	addr := serveDataset(t, dir)

	q := spio.NewBox(spio.V3(0.1, 0.1, 0), spio.V3(0.7, 0.6, 1))
	want, _, err := local.QueryBox(q, spio.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rds, err := spio.Dial(addr, "sim")
	if err != nil {
		t.Fatal(err)
	}
	defer rds.Close()
	got, _, err := rds.QueryBox(q, spio.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("remote result diverges from local")
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
