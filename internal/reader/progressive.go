package reader

import (
	"fmt"

	"spio/internal/format"
	"spio/internal/particle"
)

// Progressive streams a file set level by level: each NextLevel call
// returns only the *new* particles of the next level of detail, so a
// visualization can refine its current frame without re-reading what it
// already has (Section 4: "the application can read and append another
// level of data to the previously loaded particles to provide
// progressive refinement").
//
// It keeps its files open between levels: on a parallel file system a
// level read is dominated by the opens (paper Fig. 8). A server holds
// nothing between two levels; its clients ask for the same ranges as
// ordinary reads (Options.SkipLevels).
type Progressive struct {
	ds    *Dataset
	files []*format.DataFile
	base  int64 // per-file level-0 budget
	level int   // next level to deliver (0-based)
	done  bool
	stats Stats // cumulative over the levels delivered
}

// Progressive opens the given entries for level-by-level streaming.
// readers is n in the LOD formula. Close the returned reader when done.
func (d *Dataset) Progressive(entries []*format.FileEntry, readers int) (*Progressive, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("reader: no entries to stream")
	}
	p := &Progressive{ds: d, base: PerFileBase(d.meta, readers)}
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
	if p.done {
		return nil, false, nil
	}
	// The level is the range [level, level+1) of every file; the headers
	// give each file's share of it, so the increment is checked against
	// its exact size.
	level := Options{SkipLevels: p.level, Levels: p.level + 1, PerFileBase: p.base}
	los, his := make([]int64, len(p.files)), make([]int64, len(p.files))
	var total int64
	remaining := false
	for i, df := range p.files {
		los[i], his[i] = p.ds.levelRange(level, df.Header.Count, df.Header.LOD.Scale)
		total += his[i] - los[i]
		if his[i] < df.Header.Count {
			remaining = true
		}
	}
	fill := particle.NewRowFiller(p.ds.meta.Schema, nil, int(total))
	for i, df := range p.files {
		if err := df.Scan(los[i], his[i], nil, nil, fill.Chunk); err != nil {
			fill.Release()
			return nil, false, err
		}
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
	return out.Buffer(), true, nil
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
