package gateway

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"spio/internal/format"
	rdr "spio/internal/reader"
)

// Split partitions the dataset at srcDir into len(outDirs) shard
// datasets, each a self-contained spio dataset directory a spiod can
// mount: a subset of the data files plus a recomputed metadata file
// (same domain, schema, and LOD parameters; Total and the file table
// restricted to the shard). Files are dealt with reader.AssignFiles —
// Morton order over partition centers, split into contiguous runs — so
// each shard's files tile a compact region and box queries route to few
// shards. The shard datasets together hold exactly the source's files,
// so a gateway mounting all of them serves the identical logical
// dataset.
func Split(srcDir string, outDirs []string) error {
	if len(outDirs) == 0 {
		return fmt.Errorf("gateway: split: no output directories")
	}
	meta, err := format.ReadMeta(srcDir)
	if err != nil {
		return err
	}
	if len(meta.Files) < len(outDirs) {
		return fmt.Errorf("gateway: split: %d files cannot fill %d shards", len(meta.Files), len(outDirs))
	}
	for shard, dir := range outDirs {
		entries := rdr.AssignFiles(meta, len(outDirs), shard)
		if len(entries) == 0 {
			return fmt.Errorf("gateway: split: shard %d would be empty", shard)
		}
		if err := os.MkdirAll(dir, 0o777); err != nil {
			return err
		}
		sub := &format.Meta{
			Domain:          meta.Domain,
			SimDims:         meta.SimDims,
			PartitionFactor: meta.PartitionFactor,
			AggDims:         meta.AggDims,
			Schema:          meta.Schema,
			LOD:             meta.LOD,
			Heuristic:       meta.Heuristic,
		}
		for _, e := range entries {
			sub.Total += e.Count
			sub.Files = append(sub.Files, *e)
			if err := copyFile(filepath.Join(srcDir, e.Name), filepath.Join(dir, e.Name)); err != nil {
				return fmt.Errorf("gateway: split: shard %d: %w", shard, err)
			}
		}
		if err := format.WriteMeta(nil, dir, sub); err != nil {
			return fmt.Errorf("gateway: split: shard %d: %w", shard, err)
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer func() {
		_ = in.Close() // read-only handle
	}()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close() // copy failed; the copy error is the one to report
		return err
	}
	return out.Close()
}
