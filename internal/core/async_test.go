package core

import (
	"fmt"
	"testing"

	"spio/internal/agg"
	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

func TestWriteAsyncOverlapsForegroundCommunication(t *testing.T) {
	dir := t.TempDir()
	simDims := geom.I3(4, 2, 1)
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	cfg := WriteConfig{
		Agg: agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(2, 2, 1)},
	}
	err := mpi.Run(8, func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), 500, 3, c.Rank())
		pending := WriteAsync(c, dir, cfg, local)

		// Foreground continues with its own collectives and P2P while the
		// checkpoint drains in the background.
		for i := 0; i < 20; i++ {
			if sum := c.Allreduce(1, mpi.OpSum); sum != 8 {
				return fmt.Errorf("foreground allreduce = %d", sum)
			}
			c.Barrier()
			right := (c.Rank() + 1) % c.Size()
			left := (c.Rank() + c.Size() - 1) % c.Size()
			got, _ := c.SendRecv(right, left, 5, []byte{byte(c.Rank())})
			if int(got[0]) != left {
				return fmt.Errorf("foreground ring got %d", got[0])
			}
		}

		res, err := pending.Wait()
		if err != nil {
			return err
		}
		if !pending.Done() {
			return fmt.Errorf("Done false after Wait")
		}
		if c.Rank() == 0 && res.Partition != 0 {
			return fmt.Errorf("rank 0 partition = %d", res.Partition)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := format.ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Total != 8*500 {
		t.Errorf("total = %d", meta.Total)
	}
}

func TestTwoConcurrentAsyncWrites(t *testing.T) {
	// Two checkpoints in flight at once (double-buffered simulation):
	// each lands complete and correct in its own directory.
	dirA, dirB := t.TempDir(), t.TempDir()
	simDims := geom.I3(2, 2, 1)
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	cfg := WriteConfig{
		Agg: agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(2, 1, 1)},
	}
	err := mpi.Run(4, func(c *mpi.Comm) error {
		bufA := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), 300, 1, c.Rank())
		bufB := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), 200, 2, c.Rank())
		pa := WriteAsync(c, dirA, cfg, bufA)
		pb := WriteAsync(c, dirB, cfg, bufB)
		if _, err := pb.Wait(); err != nil {
			return err
		}
		if _, err := pa.Wait(); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, want := range map[string]int64{dirA: 4 * 300, dirB: 4 * 200} {
		meta, err := format.ReadMeta(dir)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Total != want {
			t.Errorf("%s total = %d, want %d", dir, meta.Total, want)
		}
	}
}
