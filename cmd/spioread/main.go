// Command spioread performs metadata-driven reads on a spio dataset:
//
//	spioread -dir out/t0000 -box 0,0,0,0.5,0.5,1        # box query
//	spioread -dir out/t0000 -levels 3 -readers 4        # LOD read
//	spioread -dir out/t0000 -blind -box 0,0,0,1,1,1     # no-metadata scan
//	spioread -dir out/t0000 -fields density,id          # projected read
//	spioread -dir out/t0000 -knn 0.5,0.5,0.5 -k 8       # nearest neighbours
//
// The same queries run against a resident spiod daemon instead of the
// local filesystem:
//
//	spioread -remote unix:/tmp/spiod.sock -dataset sim@latest -knn 0.5,0.5,0.5
//
// It prints what the paper's Fig. 7 argues about: how many files the
// read had to open and how many bytes it moved.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"spio"
)

func main() {
	var (
		dir     = flag.String("dir", "", "dataset directory (local reads)")
		remote  = flag.String("remote", "", "spiod address (unix:/path or tcp:host:port) to query instead of -dir")
		dataset = flag.String("dataset", "", "dataset reference on the -remote server (name, name@N, name@latest)")
		boxSpec = flag.String("box", "", "query box: x0,y0,z0,x1,y1,z1 (default: whole domain)")
		levels  = flag.Int("levels", 0, "read only the first N LOD levels (0 = full resolution)")
		readers = flag.Int("readers", 1, "reader count n in the LOD formula x(n,l)=n*P*S^l")
		blind   = flag.Bool("blind", false, "ignore the spatial metadata (scan every file; local only)")
		fields  = flag.String("fields", "", "comma-separated fields to decode (projection)")
		knnAt   = flag.String("knn", "", "query point x,y,z for a nearest-neighbour search")
		k       = flag.Int("k", 8, "neighbour count for -knn")
		sched   = flag.Bool("schedule", false, "print the LOD level schedule for -readers and exit")
	)
	flag.Parse()
	if (*dir == "") == (*remote == "") {
		fmt.Fprintln(os.Stderr, "spioread: exactly one of -dir and -remote is required")
		flag.Usage()
		os.Exit(2)
	}
	if *remote != "" && *dataset == "" {
		fmt.Fprintln(os.Stderr, "spioread: -remote needs -dataset")
		os.Exit(2)
	}
	if *remote != "" && *blind {
		fmt.Fprintln(os.Stderr, "spioread: -blind scans the local filesystem; it cannot run against -remote")
		os.Exit(2)
	}

	// Both backends serve the same Queryable surface.
	var ds spio.Queryable
	var err error
	if *remote != "" {
		ds, err = spio.Dial(*remote, *dataset)
	} else {
		ds, err = spio.Open(*dir)
	}
	if err != nil {
		fatal(err)
	}
	defer ds.Close()

	if *knnAt != "" {
		runKNN(ds, *knnAt, *k)
		return
	}
	if *sched {
		printSchedule(ds, *readers)
		return
	}

	q := ds.Meta().Domain
	if *boxSpec != "" {
		q, err = parseBox(*boxSpec)
		if err != nil {
			fatal(err)
		}
	}
	var fieldList []string
	if *fields != "" {
		for _, f := range strings.Split(*fields, ",") {
			fieldList = append(fieldList, strings.TrimSpace(f))
		}
	}

	start := time.Now()
	var buf *spio.Buffer
	var st spio.ReadStats
	if *blind {
		buf, st, err = spio.ScanWithoutMetadata(*dir, ds.Meta().Schema, q)
	} else {
		buf, st, err = ds.QueryBox(q, spio.QueryOptions{Levels: *levels, Readers: *readers, Fields: fieldList})
	}
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("dataset: %d particles in %d files, LOD levels available to %d reader(s): %d\n",
		ds.Meta().Total, len(ds.Meta().Files), *readers, ds.LevelCount(*readers))
	fmt.Printf("query:   %v", q)
	if *levels > 0 {
		fmt.Printf(", first %d level(s)", *levels)
	}
	if *blind {
		fmt.Printf(" [blind: no spatial metadata]")
	}
	if *remote != "" {
		fmt.Printf(" [remote: %s %s]", *remote, *dataset)
	}
	fmt.Println()
	fmt.Printf("result:  %d particles kept of %d read; %d files opened; %.2f MB moved; %v%s\n",
		buf.Len(), st.ParticlesRead, st.FilesOpened, float64(st.BytesRead)/1e6, elapsed.Round(time.Microsecond),
		partialTag(st))
	if buf.Len() > 0 {
		fmt.Printf("bounds:  %v\n", buf.Bounds())
	}
	if len(fieldList) > 0 {
		fmt.Printf("schema:  %v (%d of %d bytes per particle decoded)\n",
			buf.Schema(), buf.Schema().Stride(), ds.Meta().Schema.Stride())
	}
}

// printSchedule shows the x(n,l) = n·P·S^l level table of Section 3.4
// for the dataset as seen by n readers.
func printSchedule(ds spio.Queryable, readers int) {
	if readers <= 0 {
		readers = 1
	}
	m := ds.Meta()
	base := int64(readers) * int64(m.LOD.BasePerReader)
	sizes := spio.LevelSizes(m.Total, base, m.LOD.Scale)
	fmt.Printf("LOD schedule for %d reader(s): P=%d S=%d total=%d\n",
		readers, m.LOD.BasePerReader, m.LOD.Scale, m.Total)
	var cum int64
	for l, s := range sizes {
		cum += s
		fmt.Printf("  level %2d: %12d particles (cumulative %12d, %5.1f%%)\n",
			l, s, cum, 100*float64(cum)/float64(m.Total))
	}
}

func runKNN(ds spio.Queryable, at string, k int) {
	parts := strings.Split(at, ",")
	if len(parts) != 3 {
		fatal(fmt.Errorf("knn point %q: want x,y,z", at))
	}
	var v [3]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			fatal(err)
		}
		v[i] = f
	}
	point := spio.V3(v[0], v[1], v[2])
	start := time.Now()
	nn, dists, st, err := ds.KNN(point, k)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d nearest neighbours of %v (%d files opened, %v)%s:\n",
		k, point, st.FilesOpened, time.Since(start).Round(time.Microsecond), partialTag(st))
	for i := 0; i < nn.Len(); i++ {
		fmt.Printf("  %v  distance %.6f\n", nn.Position(i), dists[i])
	}
}

// partialTag marks answers a sharded gateway degraded by routing
// around a dead backend.
func partialTag(st spio.ReadStats) string {
	if st.Partial {
		return " [partial]"
	}
	return ""
}

func parseBox(s string) (spio.Box, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 6 {
		return spio.Box{}, fmt.Errorf("box %q: want 6 comma-separated numbers", s)
	}
	var v [6]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return spio.Box{}, fmt.Errorf("box %q: %v", s, err)
		}
		v[i] = f
	}
	b := spio.NewBox(spio.V3(v[0], v[1], v[2]), spio.V3(v[3], v[4], v[5]))
	if !b.IsValid() {
		return spio.Box{}, fmt.Errorf("box %q: lo must not exceed hi", s)
	}
	return b, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spioread: %v\n", err)
	os.Exit(1)
}
