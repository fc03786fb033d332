// Fixture for the errdrop analyzer: error and WriteResult returns from
// the spio API surface must not be silently dropped.
package errdrop

import (
	"spio/internal/core"
	"spio/internal/format"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// A bare statement drops both the WriteResult and the error.
func droppedWrite(c *mpi.Comm, cfg core.WriteConfig, buf *particle.Buffer) {
	core.Write(c, "out", cfg, buf) // want "is dropped: it reports both an error and the rank's WriteResult"
}

// A format encode call's error silently dropped.
func droppedEncode(path string, hdr *format.DataHeader, rows *particle.Rows) {
	format.WriteDataFile(nil, path, hdr, rows, nil) // want "result of format.WriteDataFile is dropped"
}

// Blanking the error while binding the payload hides decode failures.
func blankedError() *particle.Schema {
	s, _ := particle.NewSchema(nil) // want "error from particle.NewSchema is blanked"
	return s
}

// Keeping the error while discarding the WriteResult is the documented
// non-aggregator pattern. No finding.
func writeResultDiscarded(c *mpi.Comm, cfg core.WriteConfig, buf *particle.Buffer) error {
	_, err := core.Write(c, "out", cfg, buf)
	return err
}

// Deferred teardown and explicit single-value discards are idiomatic.
// No finding.
func deferredClose(df *format.DataFile) {
	defer df.Close()
	_ = df.Close()
}

// writeBoth wraps the watched API: its error result carries
// core.Write's error, so per its summary it is watched too.
func writeBoth(c *mpi.Comm, cfg core.WriteConfig, a, b *particle.Buffer) error {
	if _, err := core.Write(c, "a", cfg, a); err != nil {
		return err
	}
	_, err := core.Write(c, "b", cfg, b)
	return err
}

// Interprocedural: dropping the helper's result drops the API error it
// propagates; the diagnostic names the call path.
func droppedHelper(c *mpi.Comm, cfg core.WriteConfig, a, b *particle.Buffer) {
	writeBoth(c, cfg, a, b) // want "call path: errdrop.writeBoth → core.Write"
}

// countAndWrite returns a count alongside the propagated error.
func countAndWrite(c *mpi.Comm, cfg core.WriteConfig, buf *particle.Buffer) (int, error) {
	_, err := core.Write(c, "out", cfg, buf)
	return buf.Len(), err
}

// Interprocedural: blanking the helper's error while keeping the count
// hides the propagated write failure.
func blankedHelperError(c *mpi.Comm, cfg core.WriteConfig, buf *particle.Buffer) int {
	n, _ := countAndWrite(c, cfg, buf) // want "propagates core.Write"
	return n
}

// Handling the helper's error is the point of the propagation summary.
// No finding.
func okHelperHandled(c *mpi.Comm, cfg core.WriteConfig, buf *particle.Buffer) error {
	return writeBoth(c, cfg, buf, buf)
}
