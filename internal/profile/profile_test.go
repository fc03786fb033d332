package profile

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"spio/internal/agg"
	"spio/internal/binio"
	"spio/internal/core"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

func TestCollectRealWrite(t *testing.T) {
	dir := t.TempDir()
	simDims := geom.I3(4, 2, 1)
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	cfg := core.WriteConfig{
		Agg: agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(2, 2, 1)},
	}
	var report *Report
	err := mpi.Run(8, func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), 200, 3, c.Rank())
		res, err := core.Write(c, dir, cfg, local)
		if err != nil {
			return err
		}
		rep, err := Collect(c, res)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if rep == nil {
				return fmt.Errorf("rank 0 got nil report")
			}
			report = rep
		} else if rep != nil {
			return fmt.Errorf("rank %d got a report", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Ranks != 8 || report.Aggregators != 2 {
		t.Errorf("report = %+v", report)
	}
	if report.TotalParticles != 1600 || report.MaxFileParticles != 800 {
		t.Errorf("particle accounting: %+v", report)
	}
	// Aggregators did file I/O; non-aggregators did not — so min is 0
	// and max positive.
	if report.FileIO.Max <= 0 || report.FileIO.Min != 0 {
		t.Errorf("file I/O stats: %+v", report.FileIO)
	}
	if report.FileIO.Mean <= 0 || report.FileIO.Mean > report.FileIO.Max {
		t.Errorf("mean out of range: %+v", report.FileIO)
	}
	share := report.AggregationShare()
	if share < 0 || share >= 1 {
		t.Errorf("aggregation share = %v", share)
	}

	var buf bytes.Buffer
	if err := report.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"8 ranks", "2 aggregators", "setup", "particle exchange", "file I/O"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

// TestResultCodecRoundTrip sends a result whose twelve words are all
// non-zero and distinct, so two that traded places on one side would decode
// as each other; a message a byte short or a byte long is refused.
func TestResultCodecRoundTrip(t *testing.T) {
	in := core.WriteResult{
		Partition:     3,
		FileParticles: 12345,
	}
	in.Timing.Setup = 7 * time.Microsecond
	in.Timing.MetadataExchange = 11 * time.Microsecond
	in.Timing.ParticleExchange = 22 * time.Microsecond
	in.Timing.Reorder = 33 * time.Microsecond
	in.Timing.FileIO = 44 * time.Microsecond
	in.Timing.Encode = 40 * time.Microsecond
	in.Timing.MetaIO = 55 * time.Microsecond
	in.Timing.Wait = 60 * time.Microsecond
	in.Timing.Abort = 66 * time.Microsecond
	in.Timing.ExchangeBytes = 777
	var msg bytes.Buffer
	encodeResult(binio.NewWriter(&msg), &in)
	d := binio.NewReader(bytes.NewReader(msg.Bytes()), "profile")
	if out := decodeResult(d); d.Whole(msg.Len()) != nil || out != in || msg.Len() != 96 {
		t.Errorf("roundtrip of %d bytes: %+v != %+v (%v)", msg.Len(), out, in, d.Err())
	}
	for _, torn := range [][]byte{msg.Bytes()[:95], append(msg.Bytes(), 0)} {
		d := binio.NewReader(bytes.NewReader(torn), "profile")
		decodeResult(d)
		if d.Whole(len(torn)) == nil {
			t.Errorf("result message of %d bytes accepted", len(torn))
		}
	}
}

func TestPhaseStatsString(t *testing.T) {
	s := PhaseStats{Min: time.Millisecond, Mean: 2 * time.Millisecond, Max: 3 * time.Millisecond}.String()
	if !strings.Contains(s, "1ms") || !strings.Contains(s, "3ms") {
		t.Errorf("String() = %q", s)
	}
}
