package reader

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spio/internal/format"
)

// Problem is one inconsistency Fsck found in a dataset.
type Problem struct {
	// File names the offending data file (empty for dataset-level
	// problems).
	File string
	// Err describes the inconsistency.
	Err error
}

func (p Problem) String() string {
	if p.File == "" {
		return p.Err.Error()
	}
	return fmt.Sprintf("%s: %v", p.File, p.Err)
}

// FsckOptions controls how deep the check goes.
type FsckOptions struct {
	// Checksums verifies stored payload CRCs (reads every byte of files
	// that have one).
	Checksums bool
	// Deep additionally reads every particle and checks it lies inside
	// its file's metadata partition — the spatial-locality invariant the
	// whole format rests on.
	Deep bool
}

// Fsck validates the dataset's on-disk state against its metadata:
// every listed file opens, headers agree with the metadata, schemas
// match, and (optionally) checksums hold and particles sit inside their
// partitions. It returns all problems found, nil if the dataset is
// clean.
func (d *Dataset) Fsck(opts FsckOptions) []Problem {
	var problems []Problem
	add := func(file string, err error) {
		problems = append(problems, Problem{File: file, Err: err})
	}
	// Leftover *.spio-tmp files mark writes that were interrupted before
	// their atomic rename: the dataset itself is still consistent (the
	// canonical names hold either old or complete content), but the
	// crash is worth reporting.
	if ents, err := os.ReadDir(d.dir); err == nil {
		for _, ent := range ents {
			if strings.HasSuffix(ent.Name(), format.TempSuffix) {
				add(ent.Name(), fmt.Errorf("leftover temp file from an interrupted write"))
			}
		}
	}
	for i := range d.meta.Files {
		fe := &d.meta.Files[i]
		df, err := format.OpenDataFile(filepath.Join(d.dir, fe.Name))
		if err != nil {
			if errors.Is(err, format.ErrTruncated) {
				err = fmt.Errorf("torn or truncated data file (crashed or interrupted write): %w", err)
			}
			add(fe.Name, err)
			continue
		}
		if df.Header.Count != fe.Count {
			add(fe.Name, fmt.Errorf("header holds %d particles, metadata says %d", df.Header.Count, fe.Count))
		}
		if !df.Header.Schema.Equal(d.meta.Schema) {
			add(fe.Name, fmt.Errorf("schema %v differs from dataset schema %v", df.Header.Schema, d.meta.Schema))
		}
		if df.Header.LOD != d.meta.LOD {
			add(fe.Name, fmt.Errorf("LOD params %+v differ from dataset %+v", df.Header.LOD, d.meta.LOD))
		}
		if opts.Checksums && df.Header.PayloadCRC {
			if err := df.VerifyPayload(); err != nil {
				add(fe.Name, err)
			}
		}
		if opts.Deep {
			buf, err := df.ReadAll()
			if err == nil {
				err = buf.CheckInside(fe.Partition)
			}
			if err != nil {
				add(fe.Name, err)
			}
		}
		_ = df.Close() // read-only; close failures are not integrity problems
	}
	return problems
}
