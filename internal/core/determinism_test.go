package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"spio/internal/agg"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// goldenScanHashes pins the exact bytes a fixed 16-rank multi-aggregator
// scan write produces. They were captured from the rank-order assembly
// path before the arrival-order exchange landed, so they also prove the
// new path is byte-identical to the old one, not merely self-consistent.
var goldenScanHashes = map[string]string{
	"file_0.spd":  "c867d04bf342ab1f093104db14855a75c4a43c329bf0da7ba083ad15699d0da4",
	"file_10.spd": "7f97b91397f36e2afbbb4053591fdb98dfe34c82a524b85a9cf025e70c22b495",
	"file_5.spd":  "592484190efc3285830f53a34e7a861c9e191c16eab37f5a28fca77e579da9a5",
	"meta.spmd":   "e395f9b9726c353471922012d45beccfb674a84d746cf18df72101b64812bf7a",
}

// goldenScanWrite runs the pinned 16-rank write into dir on world w.
func goldenScanWrite(w *mpi.World, dir string) error {
	simDims := geom.I3(4, 4, 1)
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	cfg := WriteConfig{
		Agg:         agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(2, 2, 1)},
		AggDims:     geom.I3(3, 1, 1),
		Seed:        42,
		FieldRanges: true,
		Checksum:    true,
	}
	return w.Run(func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBoxLinear(c.Rank()), 512, 3, c.Rank())
		_, err := Write(c, dir, cfg, local)
		return err
	})
}

func hashDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fmt.Sprintf("%x", sha256.Sum256(data))
	}
	return out
}

// TestWriteScanDeterministicUnderAdversarialDelivery writes the same
// dataset twice — once plainly, once with a send-delay injector that
// scrambles cross-pair message arrival order — and requires every output
// file to match the pinned golden hashes both times. This is the
// end-to-end proof that the AnySource arrival-order exchange places
// every payload by its sender's precomputed offset: delivery order is
// free to change, the bytes on disk are not.
func TestWriteScanDeterministicUnderAdversarialDelivery(t *testing.T) {
	check := func(name string, got map[string]string) {
		if len(got) != len(goldenScanHashes) {
			var names []string
			for n := range got {
				names = append(names, n)
			}
			sort.Strings(names)
			t.Fatalf("%s: wrote %v, want %d files", name, names, len(goldenScanHashes))
		}
		for n, want := range goldenScanHashes {
			if got[n] != want {
				t.Errorf("%s: %s hash %s, want %s", name, n, got[n], want)
			}
		}
	}

	plain := t.TempDir()
	if err := goldenScanWrite(mpi.NewWorld(16), plain); err != nil {
		t.Fatal(err)
	}
	check("plain", hashDir(t, plain))

	// Adversarial run: deterministic per-(src,dst) delays invert likely
	// arrival orders (high ranks fast, low ranks slow, with extra jitter
	// from the payload size) so the aggregators' AnySource receives see a
	// different interleaving than the plain run.
	adv := t.TempDir()
	w := mpi.NewWorld(16)
	w.SetSendDelay(func(src, dst, bytes int) {
		h := uint32(src*131071 + dst*8191 + bytes)
		h ^= h >> 7
		time.Sleep(time.Duration(h%5) * 300 * time.Microsecond)
	})
	if err := goldenScanWrite(w, adv); err != nil {
		t.Fatal(err)
	}
	check("adversarial", hashDir(t, adv))
}
