// Package profile aggregates the per-rank phase timings of a collective
// write into the min/mean/max summary I/O studies report — the kind of
// breakdown behind the paper's Fig. 6. Every rank contributes its
// core.WriteResult; rank 0 receives the fleet-wide Report.
package profile

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"spio/internal/core"
	"spio/internal/mpi"
)

// PhaseStats summarizes one pipeline phase across ranks.
type PhaseStats struct {
	Min, Max, Mean time.Duration
}

func (p PhaseStats) String() string {
	return fmt.Sprintf("min %v / mean %v / max %v",
		p.Min.Round(time.Microsecond), p.Mean.Round(time.Microsecond), p.Max.Round(time.Microsecond))
}

// Report is the fleet-wide write profile.
type Report struct {
	Ranks       int
	Aggregators int
	// Phase summaries across all ranks.
	MetadataExchange PhaseStats
	ParticleExchange PhaseStats
	Reorder          PhaseStats
	FileIO           PhaseStats
	MetaIO           PhaseStats
	Abort            PhaseStats
	// TotalParticles written, and the largest single file.
	TotalParticles   int64
	MaxFileParticles int64
	// ExchangeBytes is the fleet-wide wire payload volume of the data
	// phase (self-sends excluded).
	ExchangeBytes int64
}

// Collect gathers every rank's WriteResult on rank 0 and returns the
// Report there (nil elsewhere). It is collective: every rank must call
// it after a successful Write.
func Collect(c *mpi.Comm, res core.WriteResult) (*Report, error) {
	payload := encodeResult(res)
	parts := c.Gather(0, payload)
	if c.Rank() != 0 {
		return nil, nil
	}
	rep := &Report{Ranks: c.Size()}
	var sums [6]time.Duration
	var mins, maxs [6]time.Duration
	for i := range mins {
		mins[i] = math.MaxInt64
	}
	for rank, p := range parts {
		r, err := decodeResult(p)
		if err != nil {
			return nil, fmt.Errorf("profile: rank %d: %w", rank, err)
		}
		phases := [6]time.Duration{
			r.Timing.MetadataExchange, r.Timing.ParticleExchange,
			r.Timing.Reorder, r.Timing.FileIO, r.Timing.MetaIO,
			r.Timing.Abort,
		}
		for i, d := range phases {
			sums[i] += d
			if d < mins[i] {
				mins[i] = d
			}
			if d > maxs[i] {
				maxs[i] = d
			}
		}
		if r.Partition >= 0 {
			rep.Aggregators++
			rep.TotalParticles += r.FileParticles
			if r.FileParticles > rep.MaxFileParticles {
				rep.MaxFileParticles = r.FileParticles
			}
		}
		rep.ExchangeBytes += r.Timing.ExchangeBytes
	}
	mk := func(i int) PhaseStats {
		return PhaseStats{Min: mins[i], Max: maxs[i], Mean: sums[i] / time.Duration(c.Size())}
	}
	rep.MetadataExchange = mk(0)
	rep.ParticleExchange = mk(1)
	rep.Reorder = mk(2)
	rep.FileIO = mk(3)
	rep.MetaIO = mk(4)
	rep.Abort = mk(5)
	return rep, nil
}

// Fprint renders the report as an aligned text block.
func (r *Report) Fprint(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "write profile: %d ranks, %d aggregators, %d particles (largest file %d)\n",
		r.Ranks, r.Aggregators, r.TotalParticles, r.MaxFileParticles)
	rows := []struct {
		name string
		st   PhaseStats
	}{
		{"metadata exchange", r.MetadataExchange},
		{"particle exchange", r.ParticleExchange},
		{"LOD reorder", r.Reorder},
		{"file I/O", r.FileIO},
		{"metadata write", r.MetaIO},
		{"abort", r.Abort},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "  %-18s %s\n", row.name, row.st)
	}
	fmt.Fprintf(&b, "  %-18s %d bytes\n", "exchange volume", r.ExchangeBytes)
	_, err := io.WriteString(w, b.String())
	return err
}

// AggregationShare returns the fleet-level Fig. 6 quantity using the
// max (critical-path) phase times.
func (r *Report) AggregationShare() float64 {
	agg := (r.MetadataExchange.Max + r.ParticleExchange.Max).Seconds()
	denom := agg + r.FileIO.Max.Seconds()
	if denom <= 0 {
		return 0
	}
	return agg / denom
}

// encodeResult packs a WriteResult into a fixed 9-word payload.
func encodeResult(r core.WriteResult) []byte {
	out := make([]byte, 9*8)
	put := func(i int, v int64) { binary.LittleEndian.PutUint64(out[i*8:], uint64(v)) }
	put(0, int64(r.Timing.MetadataExchange))
	put(1, int64(r.Timing.ParticleExchange))
	put(2, int64(r.Timing.Reorder))
	put(3, int64(r.Timing.FileIO))
	put(4, int64(r.Timing.MetaIO))
	put(5, int64(r.Timing.Abort))
	put(6, int64(r.Partition))
	put(7, r.FileParticles)
	put(8, r.Timing.ExchangeBytes)
	return out
}

func decodeResult(data []byte) (core.WriteResult, error) {
	var r core.WriteResult
	if len(data) != 9*8 {
		return r, fmt.Errorf("payload has %d bytes, want %d", len(data), 9*8)
	}
	get := func(i int) int64 { return int64(binary.LittleEndian.Uint64(data[i*8:])) }
	r.Timing.MetadataExchange = time.Duration(get(0))
	r.Timing.ParticleExchange = time.Duration(get(1))
	r.Timing.Reorder = time.Duration(get(2))
	r.Timing.FileIO = time.Duration(get(3))
	r.Timing.MetaIO = time.Duration(get(4))
	r.Timing.Abort = time.Duration(get(5))
	r.Partition = int(get(6))
	r.FileParticles = get(7)
	r.Timing.ExchangeBytes = get(8)
	return r, nil
}
