package reader

import (
	"fmt"

	"spio/internal/format"
	"spio/internal/lod"
	"spio/internal/particle"
)

// Progressive streams a file set level by level: each NextLevel call
// returns only the *new* particles of the next level of detail, so a
// visualization can refine its current frame without re-reading what it
// already has (Section 4: "the application can read and append another
// level of data to the previously loaded particles to provide
// progressive refinement").
type Progressive struct {
	ds       *Dataset
	files    []*format.DataFile
	consumed []int64 // particles already delivered per file
	base     int64   // per-file level-0 budget
	level    int     // next level to deliver (0-based)
	done     bool
	stats    Stats // cumulative over the levels delivered
}

// Progressive opens the given entries for level-by-level streaming.
// readers is n in the LOD formula. Close the returned reader when done.
func (d *Dataset) Progressive(entries []*format.FileEntry, readers int) (*Progressive, error) {
	return d.ProgressiveBase(entries, readers, 0)
}

// ProgressiveBase is Progressive with an explicit per-file level-0
// budget (base <= 0 derives it from readers as usual). A gateway
// streaming one logical dataset from several shards passes the merged
// dataset's base so every shard's levels line up with the whole.
func (d *Dataset) ProgressiveBase(entries []*format.FileEntry, readers int, base int64) (*Progressive, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("reader: no entries to stream")
	}
	if base <= 0 {
		base = PerFileBase(d.meta, readers)
	}
	p := &Progressive{
		ds:       d,
		consumed: make([]int64, len(entries)),
		base:     base,
	}
	for _, e := range entries {
		df, err := d.openDataFile(e.Name)
		if err != nil {
			_ = p.Close() // unwinding: the open error is the one to report
			return nil, err
		}
		p.files = append(p.files, df)
	}
	p.stats.FilesOpened = len(p.files)
	return p, nil
}

// Level returns the number of levels already delivered.
func (p *Progressive) Level() int { return p.level }

// Done reports whether every file has been fully streamed.
func (p *Progressive) Done() bool { return p.done }

// Stats returns the read telemetry accumulated over the levels
// delivered so far; every particle streamed is kept.
func (p *Progressive) Stats() Stats { return p.stats }

// NextLevel reads and returns the increment for the next level of
// detail: the particles in level p.Level() that have not been delivered
// yet. It returns (nil, false, nil) once all levels are exhausted.
func (p *Progressive) NextLevel() (*particle.Buffer, bool, error) {
	rows, ok, err := p.NextLevelRows()
	if !ok || err != nil {
		return nil, false, err
	}
	return rows.Buffer(), true, nil
}

// NextLevelRows is NextLevel for a caller that sends the increment on
// instead of looking at it (a server): the same particles as rows, which
// the caller owns.
func (p *Progressive) NextLevelRows() (*particle.Rows, bool, error) {
	if p.done {
		return nil, false, nil
	}
	// The headers give every file's share of the level, so the increment
	// is checked against its exact size.
	targets := make([]int64, len(p.files))
	var total int64
	remaining := false
	for i, df := range p.files {
		targets[i] = max(p.consumed[i], lod.PrefixCount(df.Header.Count, p.base, df.Header.LOD.Scale, p.level+1))
		total += targets[i] - p.consumed[i]
		if targets[i] < df.Header.Count {
			remaining = true
		}
	}
	fill := particle.NewRowFiller(p.ds.meta.Schema, nil, int(total))
	for i, df := range p.files {
		if err := df.Scan(p.consumed[i], targets[i], nil, nil, fill.Chunk); err != nil {
			fill.Release()
			return nil, false, err
		}
		p.consumed[i] = targets[i]
	}
	out, err := fill.Rows()
	if err != nil {
		return nil, false, err
	}
	p.level++
	p.done = !remaining
	p.stats.ParticlesRead += int64(out.Len())
	p.stats.ParticlesKept += int64(out.Len())
	p.stats.BytesRead += out.Bytes()
	return out, true, nil
}

// Close releases all file handles.
func (p *Progressive) Close() error {
	var first error
	for _, df := range p.files {
		if err := df.Close(); err != nil && first == nil {
			first = err
		}
	}
	p.files = nil
	return first
}
