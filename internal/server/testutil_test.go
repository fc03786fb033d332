package server

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spio/internal/agg"
	"spio/internal/core"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// writeDataset writes a uniform dataset into dir (creating it).
func writeDataset(t testing.TB, dir string, simDims, factor geom.Idx3, perRank int) {
	t.Helper()
	cfg := core.WriteConfig{
		Agg:  agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: factor},
		Seed: 21,
	}
	grid := geom.NewGrid(cfg.Agg.Domain, simDims)
	err := mpi.Run(simDims.Volume(), func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), perRank, 13, c.Rank())
		_, err := core.Write(c, dir, cfg, local)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sockAddr returns a fresh, short unix socket address (unix socket
// paths are limited to ~100 bytes; t.TempDir can exceed that).
func sockAddr(t testing.TB) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "spiod")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return "unix:" + filepath.Join(dir, "s.sock")
}

// startServer serves s (a Server or a bare Front) on a fresh unix socket
// and returns the dial address. Shutdown runs at test cleanup.
func startServer(t testing.TB, s interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}) string {
	t.Helper()
	addr := sockAddr(t)
	_, path, err := ParseAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := s.Serve(l); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return addr
}
