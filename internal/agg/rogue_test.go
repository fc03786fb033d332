package agg

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// tagGo is the test's own signal: the rogue tells the honest senders it
// has sent, so its messages are first in the aggregator's mailbox and the
// receive loop meets them in a known order.
const tagGo = 9

// TestExchangeSurvivesRogueSender drives every content-error branch of
// the receive loop (DESIGN §9 rests on them): one rank of four speaks the
// protocol by hand and gets it wrong. Every rank must return — no hang,
// no panic — the aggregator must report the error, and the payloads of
// the honest senders must still have been consumed and placed.
func TestExchangeSurvivesRogueSender(t *testing.T) {
	const rogue, k = 2, 5
	schema := particle.Uintah()
	cfg := unitCfg(geom.I3(4, 1, 1), geom.I3(4, 1, 1))
	l, err := NewLayout(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if l.Aggregator(0) != 0 {
		t.Fatalf("aggregator is rank %d, the test wants 0", l.Aggregator(0))
	}
	localOf := func(rank, n int) *particle.Buffer {
		return particle.Uniform(schema, patchOf(cfg, rank), n, 7, rank)
	}
	count := func(n uint64) []byte {
		return binary.LittleEndian.AppendUint64(nil, n)
	}
	cases := []struct {
		name      string
		count     []byte
		payloads  []int // records in each data message the rogue sends
		rogueRows int   // rows the aggregate sets aside for the rogue
		want      string
	}{
		{"7-byte count", count(k)[:7], nil, 0, "malformed count"},
		{"negative count", count(1<<63 | k), nil, 0, "malformed count"},
		{"count too large for an aggregate", count(1 << 62), nil, 0, "malformed count"},
		{"unannounced payload", count(0), []int{k}, 0, "unexpected data message from rank 2"},
		{"payload twice", count(k), []int{k, k}, k, "duplicate data message from rank 2"},
		{"payload one record short", count(k), []int{k - 1}, k, "announced 5 particles but sent"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			held := particle.RowSegmentsHeld()
			var got *particle.Buffer
			var aggErr error
			err := mpi.NewWorld(4).RunTimeout(30*time.Second, func(c *mpi.Comm) error {
				local := localOf(c.Rank(), k)
				switch c.Rank() {
				case rogue:
					c.Send(0, tagMetaCount, tc.count)
					for _, n := range tc.payloads {
						c.Send(0, tagData, localOf(rogue, n).Encode())
					}
					c.Send(1, tagGo, nil)
					c.Send(3, tagGo, nil)
				case 0:
					var ag Aggregate
					ag, _, aggErr = l.Exchange(c, local)
					got = ag.Rows.Buffer()
				default:
					c.Recv(rogue, tagGo)
					if ag, _, err := l.Exchange(c, local); err != nil || ag.Rows != nil {
						return fmt.Errorf("honest sender: aggregate %v, error %v", ag.Rows != nil, err)
					}
				}
				c.Barrier()
				if c.Rank() == 0 && c.Probe(mpi.AnySource, tagData) {
					return fmt.Errorf("a payload was left unconsumed")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if aggErr == nil || !strings.Contains(aggErr.Error(), tc.want) {
				t.Errorf("aggregator error %v, want one naming %q", aggErr, tc.want)
			}
			// Sender order 0, 1, rogue, 3: the honest regions are where the
			// counts put them, whatever the rogue's holds.
			if got.Len() != 3*k+tc.rogueRows {
				t.Fatalf("aggregate of %d rows, want %d", got.Len(), 3*k+tc.rogueRows)
			}
			for rank, at := range map[int]int{0: 0, 1: k, 3: 2*k + tc.rogueRows} {
				if !got.Slice(at, at+k).Equal(localOf(rank, k)) {
					t.Errorf("rank %d's particles are not at rows [%d, %d)", rank, at, at+k)
				}
			}
			if n := particle.RowSegmentsHeld() - held; n != 0 {
				t.Errorf("%d segments still held", n)
			}
		})
	}
}
