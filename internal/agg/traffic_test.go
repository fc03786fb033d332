package agg

import (
	"testing"

	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// These tests tie the local engine to the model engine's traffic
// assumptions: the bytes the exchange actually moves must equal what a
// Plan predicts (senders × particles × stride, minus self-deliveries).

func measureTraffic(t *testing.T, cfg Config, nRanks, perRank int) mpi.TrafficStats {
	t.Helper()
	layout, err := NewLayout(cfg, nRanks)
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(nRanks)
	err = w.Run(func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), patchOf(cfg, c.Rank()), perRank, 7, c.Rank())
		ag, _, err := layout.Exchange(c, local)
		ag.Rows.Release()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.Traffic()
}

func TestAlignedExchangeTrafficMatchesPlan(t *testing.T) {
	const nRanks, perRank = 16, 250
	cfg := unitCfg(geom.I3(4, 4, 1), geom.I3(2, 2, 1))
	layout, err := NewLayout(cfg, nRanks)
	if err != nil {
		t.Fatal(err)
	}
	// A rank's bundle crosses the wire unless it happens to be its own
	// aggregator (aggregators are spread uniformly over the rank space,
	// so they are not necessarily members of the partitions they own).
	wireSenders := int64(0)
	for r := 0; r < nRanks; r++ {
		if layout.Aggregator(cellOf(t, layout, r)) != r {
			wireSenders++
		}
	}
	if wireSenders == 0 || wireSenders == nRanks {
		t.Fatalf("degenerate sender count %d", wireSenders)
	}
	tr := measureTraffic(t, cfg, nRanks, perRank)

	stride := int64(particle.Uintah().Stride())
	want := wireSenders*int64(perRank)*stride + wireSenders*8 // payload + count messages
	if tr.Bytes != want {
		t.Errorf("exchange moved %d bytes, plan predicts %d", tr.Bytes, want)
	}
	// Two messages (count + data) per wire sender.
	if tr.Messages != wireSenders*2 {
		t.Errorf("exchange used %d messages, want %d", tr.Messages, wireSenders*2)
	}
}

func TestFilePerProcessMovesNothing(t *testing.T) {
	// (1,1,1): every rank is its own aggregator; the exchange must not
	// touch the network at all — the property that makes FPP the
	// zero-communication baseline in the model.
	cfg := unitCfg(geom.I3(4, 2, 1), geom.I3(1, 1, 1))
	tr := measureTraffic(t, cfg, 8, 100)
	if tr.Bytes != 0 || tr.Messages != 0 {
		t.Errorf("FPP exchange moved %d bytes in %d messages; want zero", tr.Bytes, tr.Messages)
	}
}

func TestSharedFileMovesAlmostEverything(t *testing.T) {
	// Whole-domain aggregation: all ranks but the single aggregator ship
	// everything — the worst case the model charges collective I/O for.
	const nRanks, perRank = 8, 100
	cfg := unitCfg(geom.I3(4, 2, 1), geom.I3(4, 2, 1))
	tr := measureTraffic(t, cfg, nRanks, perRank)
	stride := int64(particle.Uintah().Stride())
	wantPayload := int64(nRanks-1) * int64(perRank) * stride
	if tr.Bytes != wantPayload+int64(nRanks-1)*8 {
		t.Errorf("shared-file exchange moved %d bytes, want %d", tr.Bytes, wantPayload+int64(nRanks-1)*8)
	}
}

func TestTrafficScalesWithGroupSize(t *testing.T) {
	// Larger partition factors move a larger share of the data — the
	// monotonicity behind Fig. 6's growing aggregation share.
	small := measureTraffic(t, unitCfg(geom.I3(8, 2, 1), geom.I3(2, 1, 1)), 16, 100)
	big := measureTraffic(t, unitCfg(geom.I3(8, 2, 1), geom.I3(4, 2, 1)), 16, 100)
	if big.Bytes <= small.Bytes {
		t.Errorf("group 8 moved %d bytes, group 2 moved %d — should grow", big.Bytes, small.Bytes)
	}
}
