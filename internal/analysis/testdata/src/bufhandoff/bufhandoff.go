// Fixture for the bufhandoff analyzer: the particle buffer belongs to
// the asynchronous checkpoint between WriteAsync and Wait.
package bufhandoff

import (
	"spio/internal/core"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// Reading the buffer while the checkpoint owns it races with the
// background write.
func useAfterHandoff(c *mpi.Comm, cfg core.WriteConfig, buf *particle.Buffer) int {
	p := core.WriteAsync(c, "out", cfg, buf)
	n := buf.Len() // want "used after being handed off to WriteAsync"
	_, _ = p.Wait()
	return n
}

// Handing the buffer to other code before Wait is the same race.
func aliasBeforeWait(c *mpi.Comm, cfg core.WriteConfig, buf *particle.Buffer, sink func(*particle.Buffer)) {
	p := core.WriteAsync(c, "out", cfg, buf)
	sink(buf) // want "used after being handed off to WriteAsync"
	_, _ = p.Wait()
}

// Discarding the PendingWrite handle leaves the buffer owned by the
// checkpoint for the rest of the function.
func neverWaited(c *mpi.Comm, cfg core.WriteConfig, buf *particle.Buffer) int {
	core.WriteAsync(c, "out", cfg, buf)
	return buf.Len() // want "never waited on"
}

// Using the buffer after Wait is the documented ownership return.
func okAfterWait(c *mpi.Comm, cfg core.WriteConfig, buf *particle.Buffer) int {
	p := core.WriteAsync(c, "out", cfg, buf)
	_, _ = p.Wait()
	return buf.Len()
}

// Rebinding the variable to a fresh buffer ends the old buffer's taint:
// the double-buffering pattern a simulation uses.
func okDoubleBuffer(c *mpi.Comm, cfg core.WriteConfig, buf *particle.Buffer, schema *particle.Schema) int {
	p := core.WriteAsync(c, "out", cfg, buf)
	buf = particle.NewBuffer(schema, 0)
	n := buf.Len()
	_, _ = p.Wait()
	return n
}

// startCheckpoint wraps WriteAsync: per its summary, its buffer
// parameter is handed off to the background checkpoint.
func startCheckpoint(c *mpi.Comm, cfg core.WriteConfig, buf *particle.Buffer) *core.PendingWrite {
	return core.WriteAsync(c, "out", cfg, buf)
}

// readLen is a deep use: any buffer passed to it is touched.
func readLen(buf *particle.Buffer) int {
	return buf.Len()
}

// Interprocedural: the handoff hides one call deep. The ownership
// window opens at the wrapper call, and the use is flagged with the
// hand-off chain.
func useAfterHelperHandoff(c *mpi.Comm, cfg core.WriteConfig, buf *particle.Buffer) int {
	p := startCheckpoint(c, cfg, buf)
	n := buf.Len() // want "handed off via bufhandoff.startCheckpoint"
	_, _ = p.Wait()
	return n
}

// Interprocedural: the use hides one call deep too — the diagnostic
// names the path to the touch inside the helper.
func deepUseAfterHandoff(c *mpi.Comm, cfg core.WriteConfig, buf *particle.Buffer) int {
	p := core.WriteAsync(c, "out", cfg, buf)
	n := readLen(buf) // want "use path: bufhandoff.readLen"
	_, _ = p.Wait()
	return n
}

// The helper wrapper used correctly: hand off, wait, then read. The
// summary-driven window closes at Wait exactly like the direct one.
func okHelperHandoff(c *mpi.Comm, cfg core.WriteConfig, buf *particle.Buffer) int {
	p := startCheckpoint(c, cfg, buf)
	_, _ = p.Wait()
	return readLen(buf)
}
