package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spio"
	"spio/internal/format"
	"spio/internal/lod"
	"spio/internal/particle"
)

// Sizes of the layer-by-layer stage of a traced run.
const (
	probeReps    = 5   // repetitions of each codec, reorder and read probe
	openReps     = 200 // OpenDataFile+Close pairs
	replayRounds = 3   // measured rounds of the op sample per deployment
)

// layerStage is the second half of a traced run. It is the same for
// every workload: it times each layer on its own through exported
// functions, on files written from this run's particles, and replays a
// fixed prefix of S through one spiod (lossless and raw wire), through a
// 3-shard gateway, and through the local reader. Metrics the workload's
// own measured phase already produced are kept; the stage supplies the
// rest, so every traced run reports every per-layer metric.
func (rc *runCtx) layerStage(rep *report) error {
	L := map[string]float64{}
	root := "layers"
	defer os.RemoveAll(root)
	ops := buildSchedule(sampleOps, rc.data)

	// One spiod over raw D65, one client, everything cached after the
	// warm-up round.
	single, err := bringUp(serveSpec{name: "layers", clients: 1}, rc.data, filepath.Join(root, "one"), rc.opts.seed)
	if err != nil {
		if single != nil {
			_ = single.close() // already failing
		}
		return err
	}
	defer func() { _ = single.close() }() // scratch files only
	lzDir := filepath.Join(root, "lz")
	lzStep, err := rc.data.write(lzDir, spio.LosslessCodec(rc.data.schema), rc.opts.seed, nil, -1)
	if err != nil {
		return err
	}
	writeLayerMetrics(L, []writeStep{single.step, lzStep}, rc.data.userBytes())

	if err := rc.probeFiles(L, single.dataDir, lzDir); err != nil {
		return err
	}

	if err := rc.replay(single, single.dataDir, ops, rep); err != nil {
		return err
	}
	if err := rc.probeReader(L, single.dataDir, ops, rep); err != nil {
		return err
	}

	lossless, err := rc.replayRounds(single, ops, rep, L)
	if err != nil {
		return err
	}
	// The same sample with the raw wire codec: the difference is what
	// compressing and decompressing the answers costs.
	rawCli, err := spio.Dial(single.front.addr, mountName, spio.WithWireCodec(spio.WireCodecRaw))
	if err != nil {
		return err
	}
	defer single.clients[0].Close() // the lossless client; env.close closes its replacement
	single.clients[0] = rawCli
	if err := rc.replay(single, single.dataDir, ops, rep); err != nil {
		return err
	}
	raw, err := rc.replayRounds(single, ops, rep, map[string]float64{})
	if err != nil {
		return err
	}
	L["server.wire_codec_ms_per_op"] = lossless - raw

	// The same sample through a gateway over three shards.
	sharded, err := bringUp(serveSpec{name: "layers", shards: 3, clients: 1}, rc.data, filepath.Join(root, "gw"), rc.opts.seed)
	if err != nil {
		if sharded != nil {
			_ = sharded.close() // already failing
		}
		return err
	}
	defer func() { _ = sharded.close() }() // scratch files only
	if err := rc.replay(sharded, sharded.dataDir, ops, rep); err != nil {
		return err
	}
	G := map[string]float64{}
	viaGateway, err := rc.replayRounds(sharded, ops, rep, G)
	if err != nil {
		return err
	}
	for k, v := range G {
		if strings.HasPrefix(k, "gateway.") {
			L[k] = v
		}
	}
	L["gateway.overhead_ms_per_op"] = viaGateway - lossless

	for k, v := range L {
		if _, ok := rep.layer[k]; !ok {
			rep.layer[k] = v
		}
	}
	return nil
}

// replay sends the op sample once and checks every answer in full
// against the oracle; it is the warm-up round of a deployment.
func (rc *runCtx) replay(e *serveEnv, servedDir string, ops []op, rep *report) error {
	warm := e.runPass(ops, nil, -1, true, rc.logf)
	failed, err := verifyPass(rc.data, servedDir, ops, &warm, rc.logf)
	rep.attempted += len(ops)
	rep.failed += failed
	return err
}

// replayRounds sends the op sample replayRounds times over one client,
// fills L with the serving-side metrics of those rounds and returns the
// client's mean latency in ms.
func (rc *runCtx) replayRounds(e *serveEnv, ops []op, rep *report, L map[string]float64) (float64, error) {
	before, err := e.counters()
	if err != nil {
		return 0, err
	}
	var samples []opSample
	var userBytes int64
	for r := 0; r < replayRounds; r++ {
		res := e.runPass(ops, rc.tr, 1000+r, false, rc.logf)
		samples = append(samples, res.samples...)
		userBytes += res.userBytes
		rep.attempted += len(ops)
		rep.failed += res.failed
	}
	after, err := e.counters()
	if err != nil {
		return 0, err
	}
	serveLayerMetrics(L, before, after, samples, userBytes)
	return L["harness.client_ms_per_op"], nil
}

// probeReader times the box ops of the sample on the local reader, with
// no cache of any kind, and derives the pruning ratios from its stats.
func (rc *runCtx) probeReader(L map[string]float64, dir string, ops []op, rep *report) error {
	ds, err := spio.Open(dir)
	if err != nil {
		return err
	}
	defer ds.Close()
	var lat []float64
	var st spio.ReadStats
	var scratch []uint64
	for i := range ops {
		if ops[i].kind != kindBox {
			continue
		}
		sp := rc.tr.begin("reader.QueryBox", -1, 2000+i)
		t0 := time.Now()
		buf, s, err := ds.QueryBox(ops[i].box, spio.QueryOptions{})
		lat = append(lat, ms(int64(time.Since(t0))))
		rc.tr.end(sp)
		rep.attempted++
		if err != nil {
			rep.failed++
			rc.logf("local box %d: %v", i, err)
			continue
		}
		a := answer{bufs: []*spio.Buffer{buf}}
		if !a.summarise(kindBox, &scratch).matches(ops[i].want) {
			rep.failed++
			rc.logf("local box %d: wrong answer", i)
		}
		st.Add(s)
	}
	L["reader.box_ms"] = median(lat)
	L["reader.files_opened_per_op"] = float64(st.FilesOpened) / float64(len(lat))
	L["reader.bytes_read_per_kept_byte"] = ratio(float64(st.BytesRead), float64(st.ParticlesKept)*float64(rc.data.schema.Stride()))
	L["reader.particles_read_per_kept"] = ratio(float64(st.ParticlesRead), float64(st.ParticlesKept))
	return nil
}

// probeFiles times the particle, lod and format layers on one data file
// of the raw dataset and its lossless twin.
func (rc *runCtx) probeFiles(L map[string]float64, rawDir, lzDir string) error {
	meta, err := format.ReadMeta(rawDir)
	if err != nil {
		return err
	}
	name := meta.Files[0].Name
	schema := rc.data.schema

	// format: open cost and whole-file ReadRange, without any cache seam.
	t0 := time.Now()
	for i := 0; i < openReps; i++ {
		df, err := format.OpenDataFile(filepath.Join(rawDir, name))
		if err != nil {
			return err
		}
		if err := df.Close(); err != nil {
			return err
		}
	}
	L["format.open_us"] = float64(time.Since(t0).Microseconds()) / openReps
	var buf *spio.Buffer
	for _, f := range []struct{ metric, dir string }{
		{"format.read_range_raw_mb_per_s", rawDir},
		{"format.read_range_lossless_mb_per_s", lzDir},
	} {
		df, err := format.OpenDataFile(filepath.Join(f.dir, name))
		if err != nil {
			return err
		}
		var rates []float64
		for i := 0; i < probeReps; i++ {
			sp := rc.tr.begin("format.ReadRange", -1, -1)
			t0 := time.Now()
			buf, err = df.ReadRange(0, df.Header.Count)
			dt := time.Since(t0)
			rc.tr.end(sp)
			if err != nil {
				_ = df.Close() // the read error is the one reported
				return err
			}
			rates = append(rates, float64(buf.Bytes())/1e6/dt.Seconds())
		}
		if err := df.Close(); err != nil {
			return err
		}
		L[f.metric] = median(rates)
	}

	// particle: the two codec specs in use, one worker, on the file's
	// records cut into blocks the size the format uses.
	records := buf.Encode()
	const blockRecords = 8192
	stride := schema.Stride()
	var blocks [][]byte
	var counts []int
	for lo := 0; lo < buf.Len(); lo += blockRecords {
		hi := min(lo+blockRecords, buf.Len())
		blocks = append(blocks, records[lo*stride:hi*stride])
		counts = append(counts, hi-lo)
	}
	mb := float64(len(records)) / 1e6
	for _, c := range []struct {
		name string
		spec spio.CodecSpec
	}{
		{"lossless", particle.LosslessSpec(schema)},
		{"fast", particle.FastSpec(schema)},
	} {
		var enc, dec []float64
		for i := 0; i < probeReps; i++ {
			sp := rc.tr.begin("particle.CompressBlocks."+c.name, -1, -1)
			t0 := time.Now()
			frames, err := particle.CompressBlocks(schema, c.spec, blocks, 1)
			dt := time.Since(t0)
			rc.tr.end(sp)
			if err != nil {
				return err
			}
			enc = append(enc, mb/dt.Seconds())
			cbs := make([]particle.CompressedBlock, len(frames))
			stored, lo := 0, 0
			for j, f := range frames {
				cbs[j] = particle.CompressedBlock{Frame: f, Count: counts[j], At: lo}
				lo += counts[j]
				stored += len(f)
			}
			out := make([]byte, len(records))
			sp = rc.tr.begin("particle.DecompressBlocks."+c.name, -1, -1)
			t0 = time.Now()
			err = particle.DecompressBlocks(schema, cbs, out, 1)
			dt = time.Since(t0)
			rc.tr.end(sp)
			if err != nil {
				return err
			}
			if !bytes.Equal(out, records) {
				return fmt.Errorf("particle %s codec: round trip changed the records", c.name)
			}
			dec = append(dec, mb/dt.Seconds())
			L["particle."+c.name+"_ratio"] = float64(stored) / float64(len(records))
		}
		L["particle."+c.name+"_encode_mb_per_s"] = median(enc)
		L["particle."+c.name+"_decode_mb_per_s"] = median(dec)
	}

	// lod: the random reorder of one file's particles.
	var rates []float64
	for i := 0; i < probeReps; i++ {
		cp := spio.NewBuffer(schema, buf.Len())
		cp.AppendBuffer(buf)
		sp := rc.tr.begin("lod.Reorder", -1, -1)
		t0 := time.Now()
		lod.Reorder(cp, lod.Random, rc.opts.seed+int64(i))
		dt := time.Since(t0)
		rc.tr.end(sp)
		rates = append(rates, float64(cp.Len())/1e6/dt.Seconds())
	}
	L["lod.reorder_mparticles_per_s"] = median(rates)
	return nil
}
