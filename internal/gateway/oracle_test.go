package gateway

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"spio/internal/agg"
	"spio/internal/core"
	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/mpi"
	"spio/internal/particle"
	rdr "spio/internal/reader"
	"spio/internal/server"
)

// TestReadContract is the read path's one oracle (DESIGN.md §12.1): every
// way there is to read a dataset answers a fixed, seeded set of queries
// exactly as brute force over the files' records does. The targets are a
// local reader without and with its file cache, a spiod with an ample and
// with a tiny block cache, and a 3-shard spiogate over either kind of
// spiod, each under disk codec {raw, lossless, lossy:1e-3} and driven by
// four concurrent clients through the one reader.Answerer surface; each op
// is asked under one of the three codecs, in turn. The queries
// are boxes under every read option (level ranges, readers, NoFilter,
// Fields), KNN, halos, density grids and progressive streams, level by
// level with Done exactly at the last.
//
// The ground truth uses no reader code: membership is geometry over the
// records the files hold (lossy: as decoded, each within the bound of its
// raw twin, and the files selected by the raw records' bounds, which the
// metadata keeps), record order is theirs
// (format.OpenDataFile), and a level range is lod.PrefixCount under the
// base n·P/files. A local reader and a spiod answer in that order; a
// gateway answers the same records in shard order, so its answers are
// compared as record multisets. The dataset's eight files differ in size
// by 450× — one crosses a codec block, one is smaller than a first level
// — and it holds particles on a partition face, an edge, the corner of all
// eight partitions and rank 7's lower face, and one filed in a partition
// that does not hold it. A failure names the codec, the target and the op;
// `-run TestReadContract/<codec>` replays it.
func TestReadContract(t *testing.T) {
	locals := contractParticles()
	ops := contractOps(rand.New(rand.NewSource(35)))
	disks := []struct {
		name string
		spec particle.Spec
	}{
		{"raw", particle.Spec{}},
		{"lossless", particle.LosslessSpec(particle.Uintah())},
		{"lossy:1e-3", particle.LossySpec(particle.Uintah(), lossyBound)},
	}
	var raw *groundTruth
	for ci, disk := range disks {
		dir := t.TempDir()
		writeContractDataset(t, dir, locals, disk.spec)
		// The lossless files hold the raw files' records
		// (TestWriteMatchesColumnReference in internal/core): one truth
		// serves both. The lossy files' truth is their decoded records.
		truth := raw
		switch {
		case raw == nil:
			raw = readTruth(t, dir, locals, nil)
			truth = raw
		case disk.name == "lossy:1e-3":
			truth = readTruth(t, dir, locals, raw)
		}
		// Each op is asked under one codec, in turn.
		var mine []contractOp
		var wants []reply
		for i, op := range ops {
			if i%len(disks) != ci {
				continue
			}
			want := truth.answer(t, op)
			for _, p := range want.parts {
				want.encoded, want.sorted = append(want.encoded, p.Encode()), append(want.sorted, records(p))
			}
			mine, wants = append(mine, op), append(wants, want)
		}
		t.Run(disk.name, func(t *testing.T) {
			for _, tg := range contractTargets(t, dir) {
				tg.drive(t, disk.name, truth.meta, mine, wants)
			}
		})
	}
}

// lossyBound is the lossy row's error bound.
const lossyBound = 1e-3

// contractParticles is the dataset's particles, rank by rank: eight ranks
// of 2×2×2 over the unit box with very different counts, and particles
// where a half-open test goes wrong.
func contractParticles() []*particle.Buffer {
	counts := []int{300, 9000, 1700, 50, 400, 20, 2500, 600}
	grid := geom.NewGrid(geom.UnitBox(), geom.I3(2, 2, 2))
	locals := make([]*particle.Buffer, len(counts))
	for r, n := range counts {
		locals[r] = particle.Uniform(particle.Uintah(), grid.CellBoxLinear(r), n, 9, r)
	}
	// Aligned 2×2×2 ÷ 1×1×1: each rank's patch is its partition, rank 0's
	// [0, .5)³ and rank 7's [.5, 1)³, and a rank files its whole buffer.
	for i, at := range []geom.Vec3{
		geom.V3(0.5, 0.25, 0.25), // on rank 0's upper x face
		geom.V3(0.5, 0.5, 0.25),  // on an edge
		geom.V3(0.5, 0.5, 0.5),   // on the corner of all eight partitions
		geom.V3(0.8, 0.8, 0.8),   // a rogue inside rank 7's partition
	} {
		locals[0].SetPosition(i, at)
	}
	locals[7].SetPosition(0, geom.V3(0.5, 0.75, 0.75)) // on rank 7's lower x face
	// Unique ids, which a lossy record is matched to its raw twin by.
	id := 0.0
	for _, l := range locals {
		ids := l.Float64Field(l.Schema().FieldIndex("id"))
		for i := range ids {
			ids[i], id = id, id+1
		}
	}
	return locals
}

func writeContractDataset(t *testing.T, dir string, locals []*particle.Buffer, codec particle.Spec) {
	t.Helper()
	cfg := core.WriteConfig{
		Agg:   agg.Config{Domain: geom.UnitBox(), SimDims: geom.I3(2, 2, 2), Factor: geom.I3(1, 1, 1)},
		Seed:  21,
		Codec: codec,
	}
	err := mpi.Run(len(locals), func(c *mpi.Comm) error {
		_, err := core.Write(c, dir, cfg, locals[c.Rank()])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// opKind is what a contract op asks.
type opKind int

const (
	opBox opKind = iota
	opKNN
	opHalo
	opDensity
	opStream
)

// contractOp is one query of the contract. box is a box read's box, a
// halo's patch or a stream's box; opts the read options of a box or halo,
// and Levels and Readers those of a density grid or stream.
type contractOp struct {
	kind   opKind
	name   string
	box    geom.Box
	opts   rdr.Options
	point  geom.Vec3
	k      int
	margin float64
	dims   geom.Idx3
}

func (o contractOp) String() string {
	switch o.kind {
	case opKNN:
		return fmt.Sprintf("knn %d nearest %v", o.k, o.point)
	case opHalo:
		return fmt.Sprintf("halo %v margin %v %+v", o.box, o.margin, o.opts)
	case opDensity:
		return fmt.Sprintf("density %v levels %d readers %d", o.dims, o.opts.Levels, o.opts.Readers)
	case opStream:
		return fmt.Sprintf("stream %v levels %d readers %d", o.box, o.opts.Levels, o.opts.Readers)
	}
	return fmt.Sprintf("box %s %v %+v", o.name, o.box, o.opts)
}

// contractOps draws the 72 ops from r: 46 boxes (the named ones, then
// random ones, cycling through the read options), 16 KNN, 4 halos, 3
// density grids and 3 streams.
func contractOps(r *rand.Rand) []contractOp {
	readers := []int{1, 2, 256}
	variant := func(v int) rdr.Options {
		rd := readers[r.Intn(len(readers))]
		switch v % 4 {
		case 1:
			return rdr.Options{Levels: 1 + r.Intn(3), Readers: rd}
		case 2:
			o := rdr.Options{SkipLevels: r.Intn(4), Readers: rd, NoFilter: true}
			if r.Intn(2) == 0 {
				o.Levels = o.SkipLevels + 1
			}
			return o
		case 3:
			return rdr.Options{Fields: [][]string{{"density"}, {"id", "type"}}[r.Intn(2)], Levels: r.Intn(3), Readers: rd}
		}
		return rdr.Options{}
	}
	named := []struct {
		name string
		box  geom.Box
	}{
		{"face-lo", geom.NewBox(geom.V3(0.5, 0, 0), geom.V3(0.75, 1, 1))},        // Lo on the x face
		{"face-hi", geom.NewBox(geom.V3(0.25, 0.5, 0.5), geom.V3(0.5, 1, 1))},    // Hi on the x face: rank 7's lower face
		{"edge", geom.NewBox(geom.V3(0.5, 0.5, 0), geom.V3(1, 1, 0.3))},          // the edge
		{"corner", geom.NewBox(geom.V3(0.5, 0.5, 0.5), geom.V3(0.5, 0.5, 0.5))},  // the corner alone
		{"rogue", geom.NewBox(geom.V3(0.75, 0.75, 0.75), geom.V3(0.85, 1, 0.9))}, // the rogue
		{"sliver", geom.NewBox(geom.V3(0.49, 0, 0), geom.V3(0.51, 1, 1))},        // both sides of a face
		{"domain", geom.UnitBox()},                                      // everything
		{"off-domain", geom.NewBox(geom.V3(2, 2, 2), geom.V3(3, 3, 3))}, // no file
	}
	var ops []contractOp
	for j := 0; j < 2*len(named); j++ {
		// Each named box plain, then under one of the other options.
		n := named[j/2]
		ops = append(ops, contractOp{kind: opBox, name: n.name, box: n.box, opts: variant(j % 2 * (1 + j/2%3))})
	}
	for j := 0; j < 30; j++ {
		var q geom.Box
		switch {
		case j%7 == 0: // off the domain
			lo := geom.V3(1+r.Float64(), 1+r.Float64(), 1+r.Float64())
			q = geom.NewBox(lo, lo.Add(geom.V3(r.Float64(), r.Float64(), r.Float64())))
		case j%3 == 0: // centred: across every partition face
			h := 0.1 + 0.4*r.Float64()
			q = geom.NewBox(geom.V3(0.5-h, 0.5-h, 0.5-h), geom.V3(0.5+h, 0.5+h, 0.5+h))
		default:
			lo := geom.V3(r.Float64(), r.Float64(), r.Float64())
			q = geom.NewBox(lo, lo.Add(geom.V3(r.Float64(), r.Float64(), r.Float64())))
		}
		ops = append(ops, contractOp{kind: opBox, name: "random", box: q, opts: variant(j)})
	}
	for j := 0; j < 12; j++ {
		p := geom.V3(2*r.Float64()-0.5, 2*r.Float64()-0.5, 2*r.Float64()-0.5)
		ops = append(ops, contractOp{kind: opKNN, point: p, k: 1 + r.Intn(32)})
	}
	for _, n := range []struct {
		p geom.Vec3
		k int
	}{{geom.V3(0.5, 0.5, 0.5), 4}, {geom.V3(2, 0.5, 0.5), 900}, {geom.V3(3, 3, 3), 1}, {geom.V3(-2, 3, 0.5), 40}} {
		ops = append(ops, contractOp{kind: opKNN, point: n.p, k: n.k})
	}
	for _, h := range []contractOp{
		{box: geom.NewBox(geom.V3(0, 0, 0), geom.V3(0.5, 0.5, 0.5)), margin: 0}, // the face, edge and corner particles are ghosts
		{box: geom.NewBox(geom.V3(0.5, 0, 0), geom.V3(1, 0.5, 0.5)), margin: 0.1, opts: rdr.Options{Levels: 2, Readers: 2}},
		{box: geom.NewBox(geom.V3(0.7, 0.7, 0.7), geom.V3(0.9, 0.9, 0.9)), margin: 0.05, opts: rdr.Options{Fields: []string{"density"}}},
		{box: geom.NewBox(geom.V3(0.25, 0.25, 0.25), geom.V3(0.75, 0.75, 0.75)), margin: 0.1},
	} {
		h.kind = opHalo
		ops = append(ops, h)
	}
	for j, rd := range readers {
		ops = append(ops, contractOp{kind: opDensity, dims: geom.I3(4, 3, 5), opts: rdr.Options{Levels: j, Readers: rd}})
	}
	for _, s := range []contractOp{
		{box: geom.UnitBox(), opts: rdr.Options{Readers: 1}},
		{box: geom.NewBox(geom.V3(0.85, 0.1, 0.1), geom.V3(0.95, 0.4, 0.4)), opts: rdr.Options{Readers: 2}}, // the 9000-record file alone
		{box: named[0].box, opts: rdr.Options{Levels: 3, Readers: 256}},                                     // bounded below its depth
	} {
		s.kind = opStream
		ops = append(ops, s)
	}
	return ops
}

// reply is an op's answer, normalised for comparison: the particles of
// each part (a box or KNN: one; a halo: own, ghost; a stream: one per
// level) and the floats (KNN distances; density cells, then the
// fraction). A brute-force reply also holds each part's record bytes, as
// they come and as a sorted multiset, computed once for every target.
type reply struct {
	parts   []*particle.Buffer
	floats  []float64
	partial bool
	encoded [][]byte
	sorted  [][]string
}

// ask puts o to ds through the column reads every Answerer has.
func (o contractOp) ask(ds rdr.Answerer) (reply, error) {
	switch o.kind {
	case opKNN:
		buf, dists, st, err := rdr.KNN(ds, o.point, o.k)
		return reply{parts: []*particle.Buffer{buf}, floats: dists, partial: st.Partial}, err
	case opHalo:
		own, ghost, st, err := rdr.Halo(ds, o.box, o.margin, o.opts)
		return reply{parts: []*particle.Buffer{own, ghost}, partial: st.Partial}, err
	case opDensity:
		counts, frac, st, err := rdr.DensityGrid(ds, o.dims, o.opts.Levels, o.opts.Readers)
		return reply{floats: append(counts, frac), partial: st.Partial}, err
	case opStream:
		st, err := rdr.ProgressiveBox(ds, o.box, o.opts.Levels, o.opts.Readers)
		if err != nil {
			return reply{}, err
		}
		var a reply
		for !st.Done() && len(a.parts) < 64 {
			buf, ok, err := st.NextLevel()
			if err != nil || !ok {
				return a, fmt.Errorf("level %d before Done: ok=%v, %v", st.Level(), ok, err)
			}
			a.parts = append(a.parts, buf)
			if st.Level() != len(a.parts) {
				return a, fmt.Errorf("at level %d after %d levels", st.Level(), len(a.parts))
			}
		}
		if _, ok, err := st.NextLevel(); ok || err != nil {
			return a, fmt.Errorf("a level after Done: ok=%v, %v", ok, err)
		}
		a.partial = st.Stats().Partial
		return a, nil
	}
	buf, st, err := rdr.QueryBox(ds, o.box, o.opts)
	return reply{parts: []*particle.Buffer{buf}, partial: st.Partial}, err
}

// differs says how got departs from want: part by part the same records —
// in the same order, when ordered — and the same floats, bit for bit, and
// never flagged partial (every target has all its shards up).
func (want reply) differs(got reply, ordered bool) error {
	if got.partial {
		return fmt.Errorf("flagged partial with every shard up")
	}
	if len(got.parts) != len(want.parts) {
		return fmt.Errorf("%d parts (levels), brute force %d", len(got.parts), len(want.parts))
	}
	for i, w := range want.parts {
		g := got.parts[i]
		if !g.Schema().Equal(w.Schema()) {
			return fmt.Errorf("part %d: schema %v, brute force %v", i, g.Schema(), w.Schema())
		}
		if !bytes.Equal(g.Encode(), want.encoded[i]) && (ordered || !slices.Equal(records(g), want.sorted[i])) {
			return fmt.Errorf("part %d: %d particles, brute force %d; the records differ (ordered=%v)", i, g.Len(), w.Len(), ordered)
		}
	}
	if len(got.floats) != len(want.floats) {
		return fmt.Errorf("%d floats, brute force %d", len(got.floats), len(want.floats))
	}
	for i, w := range want.floats {
		if got.floats[i] != w {
			return fmt.Errorf("float %d is %v, brute force %v", i, got.floats[i], w)
		}
	}
	return nil
}

// groundTruth is the dataset as its raw files hold it: the metadata, and
// every file's records and closed bounds, in file order.
type groundTruth struct {
	meta   *format.Meta
	files  []*particle.Buffer
	bounds []geom.Box
}

// readTruth reads the dataset at dir record by record. Without raw, the
// records must be the written particles. With raw, the truth of the same
// particles written raw, each record must be within lossyBound of its raw
// twin, matched by id, in position and equal in every other field; the
// bounds a whole-file read selects by are then the raw records', which
// the metadata holds.
func readTruth(t *testing.T, dir string, locals []*particle.Buffer, raw *groundTruth) *groundTruth {
	t.Helper()
	meta, err := format.ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := &groundTruth{meta: meta}
	all, written := particle.NewBuffer(meta.Schema, 0), particle.NewBuffer(meta.Schema, 0)
	for i, e := range meta.Files {
		df, err := format.OpenDataFile(filepath.Join(dir, e.Name))
		if err != nil {
			t.Fatal(err)
		}
		buf, err := df.ReadAll()
		_ = df.Close() // read-only; the read's error is the one to report
		if err != nil {
			t.Fatal(err)
		}
		tr.files = append(tr.files, buf)
		if raw != nil {
			tr.bounds = append(tr.bounds, raw.bounds[i])
		} else {
			tr.bounds = append(tr.bounds, buf.Bounds())
		}
		all.AppendBuffer(buf)
	}
	for _, l := range locals {
		written.AppendBuffer(l)
	}
	if raw == nil {
		if !slices.Equal(records(all), records(written)) {
			t.Fatalf("the files hold %d records, not the %d particles written", all.Len(), written.Len())
		}
		return tr
	}
	ids := meta.Schema.FieldIndex("id")
	twin := make(map[float64]int, written.Len())
	for i, id := range written.Float64Field(ids) {
		twin[id] = i
	}
	for i, id := range all.Float64Field(ids) {
		j, ok := twin[id]
		if !ok {
			t.Fatalf("record %d has id %v, not a written particle's", i, id)
		}
		delete(twin, id)
		got, want := all.Position(i), written.Position(j)
		rec := all.Select([]int{i})
		rec.SetPosition(0, want)
		if d := got.Sub(want); max(math.Abs(d.X), math.Abs(d.Y), math.Abs(d.Z)) > lossyBound || !bytes.Equal(rec.Encode(), written.Select([]int{j}).Encode()) {
			t.Fatalf("record %d (id %v) at %v is not within %v of its raw twin at %v, or differs in another field", i, id, got, lossyBound, want)
		}
	}
	if len(twin) != 0 {
		t.Fatalf("%d written particles have no record", len(twin))
	}
	return tr
}

// levelRange is the records [lo, hi) a read under opts takes from file i:
// levels [SkipLevels, Levels), level 0 being n·P/files records.
func (tr *groundTruth) levelRange(i int, opts rdr.Options) (lo, hi int) {
	n := int64(tr.files[i].Len())
	base := max(int64(max(opts.Readers, 1))*int64(tr.meta.LOD.BasePerReader)/int64(len(tr.files)), 1)
	end := n
	if opts.Levels > 0 {
		end = lod.PrefixCount(n, base, tr.meta.LOD.Scale, opts.Levels)
	}
	return int(min(lod.PrefixCount(n, base, tr.meta.LOD.Scale, opts.SkipLevels), end)), int(end)
}

// selects reports whether a whole-file read of q reads file i: its
// half-open partition intersects q, or its records' closed bounds touch
// it (Section 4's metadata selection, with the bounds that catch a
// particle on a partition's upper face or filed outside it).
func (tr *groundTruth) selects(i int, q geom.Box) bool {
	return tr.meta.Files[i].Partition.Intersects(q) || tr.bounds[i].Touches(q)
}

// pick gathers, file by file, the records of each file's range under opts
// that keep holds.
func (tr *groundTruth) pick(opts rdr.Options, keep func(file int, p geom.Vec3) bool) *particle.Buffer {
	out := particle.NewBuffer(tr.meta.Schema, 0)
	for i, f := range tr.files {
		lo, hi := tr.levelRange(i, opts)
		for r := lo; r < hi; r++ {
			if keep(i, f.Position(r)) {
				out.AppendFrom(f, r)
			}
		}
	}
	return out
}

// answer is op's brute-force answer.
func (tr *groundTruth) answer(t *testing.T, op contractOp) reply {
	t.Helper()
	project := func(bufs ...*particle.Buffer) []*particle.Buffer {
		proj, err := tr.meta.Schema.ProjectOnto(op.opts.Fields)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range bufs {
			if proj != nil {
				if bufs[i], err = proj.Apply(b); err != nil {
					t.Fatal(err)
				}
			}
		}
		return bufs
	}
	switch op.kind {
	case opBox:
		if op.opts.NoFilter {
			return reply{parts: project(tr.pick(op.opts, func(i int, _ geom.Vec3) bool { return tr.selects(i, op.box) }))}
		}
		return reply{parts: project(tr.pick(op.opts, func(_ int, p geom.Vec3) bool { return op.box.ContainsClosed(p) }))}
	case opHalo:
		h := geom.V3(op.margin, op.margin, op.margin)
		grown := geom.NewBox(op.box.Lo.Sub(h), op.box.Hi.Add(h))
		own := tr.pick(op.opts, func(_ int, p geom.Vec3) bool { return grown.ContainsClosed(p) && op.box.Contains(p) })
		ghost := tr.pick(op.opts, func(_ int, p geom.Vec3) bool { return grown.ContainsClosed(p) && !op.box.Contains(p) })
		return reply{parts: project(own, ghost)}
	case opKNN:
		all := tr.pick(rdr.Options{}, func(int, geom.Vec3) bool { return true })
		order := make([]int, all.Len())
		dist := make([]float64, all.Len())
		for i := range order {
			order[i], dist[i] = i, op.point.Dist(all.Position(i))
		}
		sort.SliceStable(order, func(a, b int) bool { return dist[order[a]] < dist[order[b]] })
		if op.k < len(order) && dist[order[op.k-1]] == dist[order[op.k]] {
			t.Fatalf("%v: the k-th neighbour ties the next; the op set needs another seed", op)
		}
		a := reply{parts: []*particle.Buffer{all.Select(order[:op.k])}}
		for _, i := range order[:op.k] {
			a.floats = append(a.floats, dist[i])
		}
		return a
	case opDensity:
		grid := geom.NewGrid(tr.meta.Domain, op.dims)
		counts := make([]float64, grid.Cells())
		sampled := tr.pick(op.opts, func(_ int, p geom.Vec3) bool {
			counts[grid.LocateLinear(p)]++
			return true
		}).Len()
		frac := float64(sampled) / float64(tr.meta.Total)
		for i := range counts {
			counts[i] /= frac
		}
		return reply{floats: append(counts, frac)}
	}
	// A stream: the level ranges [l, l+1) of the files a whole-file read of
	// its box reads, up to the level that ends the deepest of them.
	var a reply
	for l := 0; op.opts.Levels <= 0 || l < op.opts.Levels; l++ {
		level := rdr.Options{SkipLevels: l, Levels: l + 1, Readers: op.opts.Readers}
		a.parts = append(a.parts, tr.pick(level, func(i int, _ geom.Vec3) bool { return tr.selects(i, op.box) }))
		deeper := false
		for i := range tr.files {
			_, hi := tr.levelRange(i, level)
			deeper = deeper || (tr.selects(i, op.box) && hi < tr.files[i].Len())
		}
		if !deeper {
			break
		}
	}
	return a
}

// contractTarget is one way to read the dataset: how one of its clients
// opens it, whether its answers keep the files' record order, and what,
// after the ops, shows its cache was under pressure.
type contractTarget struct {
	name     string
	open     func(t *testing.T) rdr.Answerer
	ordered  bool
	pressure func() error
}

// contractTargets serves the dataset at dir every way there is.
func contractTargets(t *testing.T, dir string) []contractTarget {
	t.Helper()
	local := func(files int) contractTarget {
		ds, err := rdr.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		tg := contractTarget{name: "local", open: func(*testing.T) rdr.Answerer { return ds }, ordered: true}
		if files > 0 {
			_ = ds.SetFileCache(files) // the error is nil
			tg.name += " with its file cache"
			tg.pressure = func() error {
				if st := ds.CacheStats(); st.Hits == 0 || st.Evictions == 0 {
					return fmt.Errorf("file cache %+v: no hit or no eviction", st)
				}
				return nil
			}
		}
		return tg
	}
	// spiod serves d; under a cache budget, pressure says whether its
	// block cache was under pressure.
	tiny := server.Config{CacheBytes: 16 << 10, BlockBytes: 2 << 10}
	spiod := func(d string, cfg server.Config) (addr string, pressure func() error) {
		s, addr := serveSpiod(t, d, cfg, nil)
		t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
		if cfg.CacheBytes == 0 {
			return addr, nil
		}
		return addr, func() error {
			if st := s.Snapshot().BlockCache; st.Evictions == 0 || st.Used > cfg.CacheBytes {
				return fmt.Errorf("block cache %+v: no eviction, or over its %d bytes", st, cfg.CacheBytes)
			}
			return nil
		}
	}
	shards := make([]string, 3)
	for i := range shards {
		shards[i] = filepath.Join(t.TempDir(), "shard")
	}
	if err := Split(dir, shards); err != nil {
		t.Fatal(err)
	}
	gateway := func(cfg server.Config) (addr string, pressure func() error) {
		specs := make([]ShardSpec, len(shards))
		var backends []func() error
		for i, d := range shards {
			addr, pressure := spiod(d, cfg)
			specs[i] = ShardSpec{Ref: "shard", Addrs: []string{addr}}
			backends = append(backends, pressure)
		}
		_, addr = startGateway(t, Config{}, specs)
		if cfg.CacheBytes == 0 {
			return addr, nil
		}
		return addr, func() error {
			for _, p := range backends {
				if err := p(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	remote := func(name, addr, ref string, ordered bool, pressure func() error) contractTarget {
		return contractTarget{name: name, ordered: ordered, pressure: pressure, open: func(t *testing.T) rdr.Answerer {
			ds, err := server.OpenRemote(addr, ref)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ds.Close() })
			return ds
		}}
	}
	ample, _ := spiod(dir, server.Config{})
	small, smallPressure := spiod(dir, tiny)
	gate, _ := gateway(server.Config{})
	tinyGate, tinyPressure := gateway(tiny)
	return []contractTarget{
		local(0),
		local(3),
		remote("spiod", ample, "shard", true, nil),
		remote("spiod with a tiny block cache", small, "shard", true, smallPressure),
		remote("3-shard spiogate", gate, "sim", false, nil),
		remote("3-shard spiogate over tiny block caches", tinyGate, "sim", false, tinyPressure),
	}
}

// drive puts the ops to tg from four concurrent clients, op i on client
// i mod 4, and holds each answer to its brute-force one, and what each
// client sees of the dataset to meta's total and files.
func (tg contractTarget) drive(t *testing.T, codec string, meta *format.Meta, ops []contractOp, wants []reply) {
	t.Helper()
	clients := make([]rdr.Answerer, 4)
	for c := range clients {
		clients[c] = tg.open(t)
		if m := clients[c].Meta(); m.Total != meta.Total || len(m.Files) != len(meta.Files) {
			t.Errorf("%s, %s: %d particles in %d files, the dataset is %d in %d", codec, tg.name, m.Total, len(m.Files), meta.Total, len(meta.Files))
		}
	}
	var wg sync.WaitGroup
	for c, ds := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(ops); i += len(clients) {
				got, err := ops[i].ask(ds)
				if err == nil {
					err = wants[i].differs(got, tg.ordered && ops[i].kind != opKNN)
				}
				if err != nil {
					t.Errorf("%s, %s: op %d, %v: %v", codec, tg.name, i, ops[i], err)
				}
			}
		}()
	}
	wg.Wait()
	if tg.pressure != nil {
		if err := tg.pressure(); err != nil {
			t.Errorf("%s, %s: %v", codec, tg.name, err)
		}
	}
}
