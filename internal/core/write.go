// Package core wires the substrates into the paper's end-to-end I/O
// pipeline. The write side is the eight-step scheme of Section 3:
//
//	(1) set up the aggregation-grid        (one agg.Layout: NewLayout / NewImposedLayout / BuildAdaptive)
//	(2) select aggregators                 (agg, uniform over rank space)
//	(3) exchange metadata                  (counts, non-blocking P2P)
//	(4) allocate aggregation buffers       (particle.Rows, sized from the counts)
//	(5) exchange particles                 (non-blocking P2P, placed by sender offset)
//	(6) shuffle particles into LOD order   (lod.Permutation, applied by the write's gather)
//	(7) write each aggregator's data file  (format.WriteDataFile)
//	(8) gather + write spatial metadata    (Allgather to rank 0, format.WriteMeta)
//
// Step 1 builds one agg.Layout whichever grid the configuration asks for
// — aligned (Factor), imposed (AggDims) or adaptive — and steps 3–5 are its
// one Exchange. Each rank reports per-phase timings; the
// aggregation-vs-file-I/O split is the quantity Fig. 6 reports.
package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"spio/internal/agg"
	"spio/internal/binio"
	"spio/internal/fault"
	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// WriteConfig configures one dataset write.
type WriteConfig struct {
	// Agg is the aggregation setup: domain, per-rank patch decomposition
	// and partition factor.
	Agg agg.Config
	// LOD configures the level-of-detail layout; zero value means
	// lod.DefaultParams().
	LOD lod.Params
	// Heuristic selects the reorder strategy (paper default: Random).
	Heuristic lod.Heuristic
	// Seed makes the LOD reorder deterministic; each aggregator derives
	// its own stream from (Seed, partition).
	Seed int64
	// Adaptive enables the Section 6 adaptive aggregation-grid. The
	// partition-grid shape is SimDims/Factor, re-fitted to the occupied
	// subdomain.
	Adaptive bool
	// AggDims, when non-zero, imposes an arbitrary (generally
	// non-aligned) aggregation-grid of this shape over the domain
	// instead of the Factor-derived aligned grid; ranks then scan their
	// particles into partitions (the general case of Section 3). Its
	// volume must not exceed the world size. Mutually exclusive with
	// Adaptive. A particle outside its rank's closed patch is filed in
	// the nearest of the partitions its patch touches.
	AggDims geom.Idx3
	// FieldRanges additionally stores per-file min/max summaries of every
	// field in the metadata (the Section 3.5 range-query extension).
	FieldRanges bool
	// Checksum additionally stores a CRC32 of each data file's payload,
	// verifiable with spioinspect -verify or DataFile.VerifyPayload.
	Checksum bool
	// Codec is the per-field compression spec each aggregator applies to
	// its data file, strictly after the LOD reorder (so every compressed
	// block stays a valid LOD prefix). The zero value writes the classic
	// uncompressed layout.
	Codec particle.Spec
	// FS, when non-nil, routes every mutating filesystem operation of
	// this rank's write through it — the fault-injection seam of
	// internal/fault. Nil means the real filesystem.
	FS fault.WriteFS
}

func (cfg *WriteConfig) withDefaults() WriteConfig {
	out := *cfg
	if out.LOD == (lod.Params{}) {
		out.LOD = lod.DefaultParams()
	}
	return out
}

// fs resolves the possibly-nil injected filesystem to a usable one.
func (cfg *WriteConfig) fs() fault.WriteFS {
	if cfg.FS == nil {
		return fault.OS()
	}
	return cfg.FS
}

// WriteResult reports one rank's view of a completed write.
type WriteResult struct {
	// Timing holds this rank's per-phase durations.
	Timing agg.Timing
	// Partition is the aggregation partition this rank wrote, or -1 if
	// the rank was not an aggregator.
	Partition int
	// FileParticles is the particle count of the written file (0 if not
	// an aggregator).
	FileParticles int64
}

// Write runs the full pipeline on the calling rank. Every rank of the
// world must call it collectively with the same dir and cfg. dir must
// exist. local holds the rank's particles.
func Write(c *mpi.Comm, dir string, cfg WriteConfig, local *particle.Buffer) (WriteResult, error) {
	start := time.Now()
	cfg = cfg.withDefaults()
	res := WriteResult{Partition: -1}
	if err := cfg.LOD.Validate(); err != nil {
		return res, err
	}
	if cfg.Heuristic != lod.Random && cfg.Heuristic != lod.DensityStratified {
		return res, fmt.Errorf("core: unknown heuristic %d", cfg.Heuristic)
	}
	if cfg.Adaptive && cfg.AggDims != (geom.Idx3{}) {
		return res, fmt.Errorf("core: Adaptive and AggDims are mutually exclusive")
	}
	// Steps 1–2: the layout, and the partition factor the metadata records.
	// A layout fixed by the configuration is built before any
	// communication: its errors are pure config errors, identical on every
	// rank, so an early return here is symmetric and cannot strand a peer
	// in a collective.
	var layout *agg.Layout
	factor := cfg.Agg.Factor
	var err error
	switch {
	case cfg.Adaptive:
		// Fitted to the particles, collectively, once they are validated.
	case cfg.AggDims != (geom.Idx3{}):
		// A non-aligned grid has no meaningful partition factor; record
		// zeros so readers can tell the difference.
		factor = geom.Idx3{}
		layout, err = imposedLayout(c.Size(), cfg)
	default:
		layout, err = agg.NewLayout(cfg.Agg, c.Size())
	}
	if err != nil {
		return res, err
	}
	// Every write validates its input, collectively: a particle with a
	// non-finite position or outside the domain would silently land in the
	// wrong file, and agreeing on the verdict aborts the write on every
	// rank instead of deadlocking the healthy ones in the exchange.
	verr := local.CheckFinite()
	if verr == nil {
		verr = local.CheckInside(cfg.Agg.Domain)
	}
	if err := agreeOnError(c, "input validation", verr); err != nil {
		return res, err
	}
	if cfg.Adaptive {
		if layout, err = adaptiveLayout(c, cfg, local); err != nil {
			return res, err
		}
	}

	setup := time.Since(start)

	// Steps 3–5.
	ag, tm, exchErr := layout.Exchange(c, local)
	tm.Setup = setup
	res.Timing = tm

	// Steps 6–8 plus error agreement.
	err = finishWrite(c, dir, cfg, factor, layout.Grid.Dims, local.Schema(), ag, exchErr, &res)
	return res, err
}

// imposedLayout imposes the non-aligned aggregation-grid
// WriteConfig.AggDims on the ranks' simulation patches.
func imposedLayout(nRanks int, cfg WriteConfig) (*agg.Layout, error) {
	if v := cfg.Agg.SimDims.Volume(); v != nRanks {
		return nil, fmt.Errorf("core: sim dims %v cover %d patches, world has %d ranks", cfg.Agg.SimDims, v, nRanks)
	}
	simGrid := geom.NewGrid(cfg.Agg.Domain, cfg.Agg.SimDims)
	patches := make([]geom.Box, nRanks)
	for r := range patches {
		patches[r] = simGrid.CellBoxLinear(r)
	}
	return agg.NewImposedLayout(cfg.Agg.Domain, cfg.AggDims, patches)
}

// adaptiveLayout fits the Section 6 grid, of shape SimDims/Factor, to the
// occupied subdomain. It is collective (agg.BuildAdaptive).
func adaptiveLayout(c *mpi.Comm, cfg WriteConfig, local *particle.Buffer) (*agg.Layout, error) {
	// Validate before deriving the partition-grid shape: a zero factor
	// component must be rejected here, not divided by below.
	if err := cfg.Agg.Validate(c.Size()); err != nil {
		return nil, err
	}
	return agg.BuildAdaptive(c, cfg.Agg.Domain, cfg.Agg.SimDims.Div(cfg.Agg.Factor), local)
}

// finishWrite runs steps 6–8 plus the collective error-agreement
// protocol (DESIGN §9). Every exit path between the particle exchange
// and the metadata write passes through an agreement round, so a
// failure on any rank surfaces as a non-nil error on every rank and no
// rank is left blocked in a collective its peers skipped. The aggregate
// is released on every one of them (its file entry holds values and fresh
// slices, nothing of the rows).
func finishWrite(c *mpi.Comm, dir string, cfg WriteConfig,
	factor, aggDims geom.Idx3, schema *particle.Schema,
	ag agg.Aggregate, exchErr error, res *WriteResult) error {

	defer ag.Rows.Release()
	isAgg := ag.Rows != nil
	// Agreement point 1: the exchange itself. Nothing has been written
	// yet, so there is nothing to clean up.
	if err := agreePoint(c, "particle exchange", exchErr, dir, cfg, isAgg, false, &res.Timing); err != nil {
		return err
	}

	var entry format.FileEntry
	var werr error
	if isAgg {
		res.Partition = ag.Part
		res.FileParticles = int64(ag.Rows.Len())
		entry, werr = reorderAndWrite(cfg.fs(), dir, cfg, c.Rank(), ag, &res.Timing)
	}
	// Agreement point 2: the data-file writes. Some aggregators may have
	// already published their file; an agreed failure removes them.
	if err := agreePoint(c, "data file write", werr, dir, cfg, isAgg, true, &res.Timing); err != nil {
		return err
	}

	start := time.Now()
	merr := writeMetaCollective(c, dir, cfg, factor, aggDims, schema, isAgg, entry)
	res.Timing.MetaIO += time.Since(start)
	// Agreement point 3: the metadata write (only rank 0 writes the
	// file, so only rank 0 can fail it locally).
	return agreePoint(c, "metadata write", merr, dir, cfg, isAgg, true, &res.Timing)
}

// agreeOnError is one round of the error-agreement protocol: every rank
// contributes its local error flag to an Allreduce, and if any rank
// failed, every rank returns a non-nil error — ranks that failed
// locally report their own cause, the rest a summary. The result is
// symmetric by construction, so callers may return on it without
// stranding peers.
func agreeOnError(c *mpi.Comm, phase string, local error) error {
	flag := int64(0)
	if local != nil {
		flag = 1
	}
	failed := c.Allreduce(flag, mpi.OpSum)
	if failed == 0 {
		return nil
	}
	if local != nil {
		return fmt.Errorf("core: rank %d: %s failed: %w", c.Rank(), phase, local)
	}
	return fmt.Errorf("core: %s failed on %d of %d ranks", phase, failed, c.Size())
}

// agreePoint is agreeOnError plus its bookkeeping: a round that passes is
// charged to the Wait phase; on an agreed failure it optionally removes
// this rank's published outputs and charges the time to the Abort phase.
func agreePoint(c *mpi.Comm, phase string, local error, dir string, cfg WriteConfig,
	isAgg, cleanup bool, tm *agg.Timing) error {
	start := time.Now()
	err := agreeOnError(c, phase, local)
	if err == nil {
		tm.Wait += time.Since(start)
		return nil
	}
	if cleanup {
		abortWrite(c, dir, cfg, isAgg)
	}
	tm.Abort += time.Since(start)
	return err
}

// abortWrite removes this rank's visible contribution to a failed
// write: each aggregator its (possibly already renamed) data file,
// rank 0 the metadata file. Removal is best-effort — the fail-stop
// contract is carried by the absent meta.spmd, which readers require.
// Temp files need no handling here: writeFileOnce already removed them
// on the failing rank.
func abortWrite(c *mpi.Comm, dir string, cfg WriteConfig, isAgg bool) {
	fsys := cfg.fs()
	if isAgg {
		_ = fsys.Remove(filepath.Join(dir, format.DataFileName(c.Rank())))
	}
	if c.Rank() == 0 {
		_ = fsys.Remove(filepath.Join(dir, format.MetaFileName))
	}
}

// reorderAndWrite performs steps 6–7 on an aggregator. The LOD reorder
// is fused into the file write: only the index permutation is computed
// here, and WriteDataFile gathers the payload through it as it streams
// out, so the permuted aggregate is never materialized (the bytes on disk
// are identical to reordering in place first). The rows themselves stay
// in sender order — the bounds and field-range scans are
// order-independent.
func reorderAndWrite(fsys fault.WriteFS, dir string, cfg WriteConfig, aggRank int, ag agg.Aggregate, tm *agg.Timing) (format.FileEntry, error) {
	start := time.Now()
	order := lod.Permutation(ag.Rows, cfg.Heuristic, reorderSeed(cfg.Seed, ag.Part))
	defer particle.Ints.Put(order)
	tm.Reorder = time.Since(start)

	start = time.Now()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return format.FileEntry{}, err
	}
	name := format.DataFileName(aggRank)
	hdr := format.DataHeader{
		LOD:        cfg.LOD,
		Heuristic:  cfg.Heuristic,
		Seed:       reorderSeed(cfg.Seed, ag.Part),
		PayloadCRC: cfg.Checksum,
		Codec:      cfg.Codec,
	}
	if err := format.WriteDataFile(fsys, filepath.Join(dir, name), &hdr, ag.Rows, order); err != nil {
		return format.FileEntry{}, err
	}
	tm.FileIO, tm.Encode = time.Since(start), hdr.EncodeTime

	entry := format.FileEntry{
		BoxIndex:  ag.Part,
		AggRank:   aggRank,
		Name:      name,
		Partition: ag.Box,
		Bounds:    hdr.Bounds,
		Count:     hdr.Count,
	}
	// An aggregator with no particles has no field values: FieldRanges
	// yields no row rather than the ±Inf scan sentinels. The scan is the
	// metadata row's content, so it is charged to MetaIO.
	if cfg.FieldRanges {
		start = time.Now()
		entry.FieldMin, entry.FieldMax = ag.Rows.FieldRanges()
		tm.MetaIO = time.Since(start)
	}
	return entry, nil
}

// reorderSeed derives the per-partition shuffle seed.
func reorderSeed(seed int64, part int) int64 {
	z := uint64(seed) ^ (0x9e3779b97f4a7c15 * uint64(part+1))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return int64(z ^ (z >> 27))
}

// writeMetaCollective gathers all aggregators' file entries (Section
// 3.5) and writes the metadata file on rank 0. An entry travels as the
// row of the table it becomes (format.EncodeFileEntry); non-aggregators
// contribute an empty payload.
func writeMetaCollective(c *mpi.Comm, dir string, cfg WriteConfig,
	factor, aggDims geom.Idx3, schema *particle.Schema,
	isAgg bool, entry format.FileEntry) error {

	var payload bytes.Buffer
	if isAgg {
		format.EncodeFileEntry(binio.NewWriter(&payload), &entry)
	}
	gathered := c.Allgather(payload.Bytes())
	if c.Rank() != 0 {
		return nil
	}

	meta := &format.Meta{
		Domain:          cfg.Agg.Domain,
		SimDims:         cfg.Agg.SimDims,
		PartitionFactor: factor,
		AggDims:         aggDims,
		Schema:          schema,
		LOD:             cfg.LOD,
		Heuristic:       cfg.Heuristic,
	}
	for rank, msg := range gathered {
		if len(msg) == 0 {
			continue
		}
		d := binio.NewReader(bytes.NewReader(msg), "core")
		fe := format.DecodeFileEntry(d, schema)
		if err := d.Whole(len(msg)); err != nil {
			return fmt.Errorf("core: rank %d metadata entry: %w", rank, err)
		}
		meta.Total += fe.Count
		meta.Files = append(meta.Files, fe)
	}
	fsys := cfg.fs()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return format.WriteMeta(fsys, dir, meta)
}
