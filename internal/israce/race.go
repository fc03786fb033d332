//go:build race

// Package israce reports whether the race detector is compiled in, for
// the few tests whose assertions it invalidates: under the detector
// sync.Pool drops a share of what is put into it, so allocation budgets
// that rely on pooled staging do not hold.
package israce

// Enabled is true when the build has the race detector on.
const Enabled = true
