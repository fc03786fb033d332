package core

import (
	"fmt"
	"testing"

	"spio/internal/agg"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

func TestWriteScanAndAdaptiveExclusive(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		cfg := WriteConfig{
			Agg:      agg.Config{Domain: geom.UnitBox(), SimDims: geom.I3(2, 1, 1), Factor: geom.I3(1, 1, 1)},
			AggDims:  geom.I3(2, 1, 1),
			Adaptive: true,
		}
		_, err := Write(c, t.TempDir(), cfg, particle.NewBuffer(particle.Uintah(), 0))
		if err == nil {
			return fmt.Errorf("exclusive options accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteScanRejectsTooManyPartitions(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		cfg := WriteConfig{
			Agg:     agg.Config{Domain: geom.UnitBox(), SimDims: geom.I3(2, 1, 1), Factor: geom.I3(1, 1, 1)},
			AggDims: geom.I3(4, 1, 1),
		}
		_, err := Write(c, t.TempDir(), cfg, particle.NewBuffer(particle.Uintah(), 0))
		if err == nil {
			return fmt.Errorf("4 partitions on 2 ranks accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
