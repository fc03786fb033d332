// Package profile aggregates the per-rank phase timings of a collective
// write into the min/mean/max summary I/O studies report — the kind of
// breakdown behind the paper's Fig. 6. Every rank contributes its
// core.WriteResult; rank 0 receives the fleet-wide Report.
package profile

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"spio/internal/binio"
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
	Setup            PhaseStats // validation and the layout, before any exchange
	MetadataExchange PhaseStats
	ParticleExchange PhaseStats
	Reorder          PhaseStats
	FileIO           PhaseStats
	Encode           PhaseStats // of FileIO: compressing the payload
	MetaIO           PhaseStats
	Wait             PhaseStats // agreement rounds that passed
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
	var payload bytes.Buffer
	encodeResult(binio.NewWriter(&payload), &res)
	parts := c.Gather(0, payload.Bytes())
	if c.Rank() != 0 {
		return nil, nil
	}
	rep := &Report{Ranks: c.Size()}
	// The phases in Timing's order, each with the row it is summarized in.
	stats := [...]*PhaseStats{&rep.Setup, &rep.MetadataExchange, &rep.ParticleExchange,
		&rep.Reorder, &rep.FileIO, &rep.Encode, &rep.MetaIO, &rep.Wait, &rep.Abort}
	var sums, mins, maxs [len(stats)]time.Duration
	for i := range mins {
		mins[i] = math.MaxInt64
	}
	for rank, p := range parts {
		d := binio.NewReader(bytes.NewReader(p), "profile")
		r := decodeResult(d)
		if err := d.Whole(len(p)); err != nil {
			return nil, fmt.Errorf("profile: rank %d's result: %w", rank, err)
		}
		phases := [len(stats)]time.Duration{
			r.Timing.Setup, r.Timing.MetadataExchange, r.Timing.ParticleExchange,
			r.Timing.Reorder, r.Timing.FileIO, r.Timing.Encode,
			r.Timing.MetaIO, r.Timing.Wait, r.Timing.Abort,
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
	for i, st := range stats {
		*st = PhaseStats{Min: mins[i], Max: maxs[i], Mean: sums[i] / time.Duration(c.Size())}
	}
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
		{"setup", r.Setup},
		{"metadata exchange", r.MetadataExchange},
		{"particle exchange", r.ParticleExchange},
		{"LOD reorder", r.Reorder},
		{"file I/O", r.FileIO},
		{"  of it encode", r.Encode},
		{"metadata write", r.MetaIO},
		{"agreement wait", r.Wait},
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

// encodeResult and decodeResult are the Gather's message: a WriteResult
// as twelve 64-bit words.
func encodeResult(e *binio.Writer, r *core.WriteResult) {
	e.I64(int64(r.Timing.Setup))
	e.I64(int64(r.Timing.MetadataExchange))
	e.I64(int64(r.Timing.ParticleExchange))
	e.I64(int64(r.Timing.Reorder))
	e.I64(int64(r.Timing.FileIO))
	e.I64(int64(r.Timing.Encode))
	e.I64(int64(r.Timing.MetaIO))
	e.I64(int64(r.Timing.Wait))
	e.I64(int64(r.Timing.Abort))
	e.I64(int64(r.Partition))
	e.I64(r.FileParticles)
	e.I64(r.Timing.ExchangeBytes)
}

func decodeResult(d *binio.Reader) core.WriteResult {
	var r core.WriteResult
	r.Timing.Setup = time.Duration(d.I64())
	r.Timing.MetadataExchange = time.Duration(d.I64())
	r.Timing.ParticleExchange = time.Duration(d.I64())
	r.Timing.Reorder = time.Duration(d.I64())
	r.Timing.FileIO = time.Duration(d.I64())
	r.Timing.Encode = time.Duration(d.I64())
	r.Timing.MetaIO = time.Duration(d.I64())
	r.Timing.Wait = time.Duration(d.I64())
	r.Timing.Abort = time.Duration(d.I64())
	r.Partition = int(d.I64())
	r.FileParticles = d.I64()
	r.Timing.ExchangeBytes = d.I64()
	return r
}
