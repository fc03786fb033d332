package core

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"spio/internal/agg"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// noSegmentsHeld asserts that every aggregate of the writes this test
// binary has run so far is back in the pool: the Rows ownership rule, on
// whatever exit the test drove.
func noSegmentsHeld(t *testing.T) {
	t.Helper()
	if n := particle.RowSegmentsHeld(); n != 0 {
		t.Errorf("%d row segments still held after the write returned", n)
	}
}

// TestRogueSenderAbortsAllRanks drives the exchange's content errors
// through Write: rank 2 of four speaks the protocol by hand — a count and
// payloads on the exchange's tags, then its votes in the input-validation
// and agreement rounds — and gets it wrong. The write must fail on every
// rank, leave no file behind and hold no aggregate.
func TestRogueSenderAbortsAllRanks(t *testing.T) {
	// The exchange's wire protocol (agg/exchange.go), and the test's own
	// signal that the rogue has sent: its messages are then first in the
	// aggregator's mailbox, so the receive loop meets them in a known
	// order.
	const tagMetaCount, tagData, tagGo = 1, 2, 9
	const rogue, k = 2, 5
	simDims := geom.I3(4, 1, 1)
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	cfg := WriteConfig{Agg: agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: simDims}}
	count := func(n uint64) []byte {
		return binary.LittleEndian.AppendUint64(nil, n)
	}
	cases := []struct {
		name     string
		count    []byte
		payloads []int // records in each data message the rogue sends
	}{
		{"7-byte count", count(k)[:7], nil},
		{"negative count", count(1<<63 | k), nil},
		{"unannounced payload", count(0), []int{k}},
		{"payload twice", count(k), []int{k, k}},
		{"payload one record short", count(k), []int{k - 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			errs := make([]error, 4)
			var rogueSaw int64
			err := runWithWatchdog(t, 4, 60*time.Second, func(c *mpi.Comm) error {
				local := func(n int) *particle.Buffer {
					return particle.Uniform(particle.Uintah(), grid.CellBoxLinear(c.Rank()), n, 5, c.Rank())
				}
				if c.Rank() != rogue {
					if c.Rank() != 0 {
						c.Recv(rogue, tagGo)
					}
					_, errs[c.Rank()] = Write(c, dir, cfg, local(k))
					return nil
				}
				c.Send(0, tagMetaCount, tc.count)
				for _, n := range tc.payloads {
					c.Send(0, tagData, local(n).Encode())
				}
				c.Send(1, tagGo, nil)
				c.Send(3, tagGo, nil)
				c.Allreduce(0, mpi.OpSum)            // the input validation every write runs
				rogueSaw = c.Allreduce(0, mpi.OpSum) // agreement point 1
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r, werr := range errs {
				if r != rogue && (werr == nil || !strings.Contains(werr.Error(), "particle exchange")) {
					t.Errorf("rank %d: error %v, want the agreed exchange failure", r, werr)
				}
			}
			if rogueSaw != 1 {
				t.Errorf("the agreement round counted %d failed ranks, want the aggregator alone", rogueSaw)
			}
			for _, name := range listDatasetFiles(t, dir) {
				t.Errorf("aborted write left %q visible", name)
			}
			noSegmentsHeld(t)
		})
	}
}
