//go:build !race

package israce

// Enabled is true when the build has the race detector on.
const Enabled = false
