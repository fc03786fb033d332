package spio

import (
	"spio/internal/core"
	"spio/internal/reader"
)

// Time-series conventions: a simulation writes one dataset directory per
// checkpoint under a common base directory, named t000000, t000001, ….
// These helpers manage such a series.

// StepDir returns the dataset directory for one timestep.
func StepDir(base string, step int) string { return reader.StepDir(base, step) }

// Steps lists the timesteps present under base (directories matching the
// StepDir convention that contain a readable metadata file), sorted.
func Steps(base string) ([]int, error) { return reader.Steps(base) }

// LatestStep returns the newest readable timestep under base — the
// checkpoint a "serve newest" consumer (spiod's name@latest references)
// should open. ok is false when no complete checkpoint exists.
func LatestStep(base string) (step int, ok bool, err error) {
	return reader.LatestStep(base)
}

// WriteStep writes one timestep of a series (Write into StepDir).
func WriteStep(c *Comm, base string, step int, cfg WriteConfig, local *Buffer) (WriteResult, error) {
	return core.Write(c, StepDir(base, step), cfg, local)
}

// OpenStep opens one timestep of a series.
func OpenStep(base string, step int) (*Dataset, error) {
	return reader.Open(StepDir(base, step))
}

// Restart collectively loads the particles of each calling rank's patch
// from a checkpoint, for a job of any size (simDims.Volume() must equal
// the world size, but need not match the writer count).
func Restart(c *Comm, dir string, domain Box, simDims Idx3) (*Buffer, error) {
	return reader.Restart(c, dir, domain, simDims)
}

// Stream is a progressive LOD read, local or served: a cursor, one read
// per level, nothing held between two of them; stop after any prefix.
type Stream = reader.Stream
