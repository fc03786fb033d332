package reader

import (
	"errors"

	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
)

// Stream is a progressive read: a cursor over the LOD levels of a file
// set, each NextLevel returning only the *new* particles of the next
// level, so a visualization can refine its current frame without
// re-reading what it already has (Section 4: "the application can read
// and append another level of data to the previously loaded particles to
// provide progressive refinement"). Level l is the read of the range
// [l, l+1) (Options.SkipLevels) like any other, so between two levels the
// stream holds nothing: no file, no connection, no worker. A local stream
// reuses handles through its dataset's file cache (SetFileCache).
type Stream struct {
	read    func(opts Options) (*particle.Buffer, Stats, error) // one level range of the stream's files
	readers int
	last    int   // levels the stream has: those of its deepest file, within the caller's bound, less what a Cancel cut off
	level   int   // levels delivered
	stats   Stats // summed over the levels delivered
}

// newStream starts a stream over entries of the dataset meta describes,
// each level read by read; levels > 0 bounds it.
func newStream(meta *format.Meta, entries []*format.FileEntry, levels, readers int, read func(Options) (*particle.Buffer, Stats, error)) (*Stream, error) {
	if len(entries) == 0 {
		return nil, errors.New("reader: no files to stream")
	}
	// One level at least: empty files have an empty first level.
	s := &Stream{read: read, readers: readers, last: 1}
	base := PerFileBase(meta, readers)
	for _, e := range entries {
		s.last = max(s.last, lod.NumLevels(e.Count, base, meta.LOD.Scale))
	}
	if levels > 0 {
		s.last = min(s.last, levels)
	}
	return s, nil
}

// ProgressiveBox starts a progressive read of ds over the files
// intersecting q — whole files, level by level, not clipped to q. levels
// > 0 bounds the stream; readers is n in the LOD formula.
func ProgressiveBox(ds Answerer, q geom.Box, levels, readers int) (*Stream, error) {
	return newStream(ds.Meta(), ds.Meta().FilesIntersecting(q), levels, readers, func(opts Options) (*particle.Buffer, Stats, error) {
		return QueryBox(ds, q, opts)
	})
}

// ProgressiveBox starts a progressive read over the files intersecting q
// (see ProgressiveBox).
func (d *Dataset) ProgressiveBox(q geom.Box, levels, readers int) (*Stream, error) {
	return ProgressiveBox(d, q, levels, readers)
}

// Progressive starts a progressive read of the given entries (a reader
// rank's assigned file subset, AssignFiles). readers is n in the LOD
// formula.
func (d *Dataset) Progressive(entries []*format.FileEntry, readers int) (*Stream, error) {
	return newStream(d.meta, entries, 0, readers, func(opts Options) (*particle.Buffer, Stats, error) {
		return d.ReadEntries(entries, geom.Box{}, opts)
	})
}

// Level returns the number of levels already delivered.
func (s *Stream) Level() int { return s.level }

// Done reports whether the stream has ended.
func (s *Stream) Done() bool { return s.level >= s.last }

// Stats returns the read telemetry summed over the levels delivered.
func (s *Stream) Stats() Stats { return s.stats }

// NextLevel reads and returns the next level increment; ok is false once
// the stream is exhausted. A level that fails — a server overloaded, the
// increment over its byte budget — leaves the stream where it was: the
// levels already delivered are a valid coarser subset, and the same level
// can be asked for again.
func (s *Stream) NextLevel() (*particle.Buffer, bool, error) {
	if s.Done() {
		return nil, false, nil
	}
	buf, read, err := s.read(Options{SkipLevels: s.level, Levels: s.level + 1, Readers: s.readers, NoFilter: true})
	if err != nil {
		return nil, false, err
	}
	s.level++
	s.stats.Add(read)
	return buf, true, nil
}

// Cancel ends the stream after the levels already delivered. It costs
// nothing: nothing is held for the stream.
func (s *Stream) Cancel() error {
	s.last = s.level
	return nil
}

// Close ends the stream.
func (s *Stream) Close() error { return s.Cancel() }
