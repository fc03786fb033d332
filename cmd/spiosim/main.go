// Command spiosim drives a miniature particle simulation through the
// full production loop spio is built for: initialize (or restart from a
// checkpoint), advect + migrate particles each step, write a
// spatially-aware checkpoint every -interval steps, and finish with an
// LOD analysis pass over the series.
//
//	spiosim -base /tmp/run -dims 4x2x2 -steps 8 -particles 8192
//	spiosim -base /tmp/run -dims 2x2x2 -steps 8 -restart 4   # resume at step 4 on fewer ranks
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"spio"
)

// errUsage is a command line run cannot act on; main exits 2 on it.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "spiosim: %v\n", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, simulates, checkpoints and
// analyses, and prints its report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("spiosim", flag.ContinueOnError)
	var (
		base      = fs.String("base", "", "series base directory (required)")
		dims      = fs.String("dims", "4x2x2", "rank patch grid")
		factor    = fs.String("factor", "2x2x1", "aggregation partition factor")
		steps     = fs.Int("steps", 6, "timesteps to run")
		interval  = fs.Int("interval", 2, "checkpoint every N steps")
		particles = fs.Int("particles", 8192, "initial particles per rank")
		restart   = fs.Int("restart", -1, "resume from this checkpoint step (-1: fresh start)")
		checksum  = fs.Bool("checksum", false, "store payload checksums in checkpoints")
		async     = fs.Bool("async", false, "checkpoint asynchronously, overlapping the next steps")
		seed      = fs.Int64("seed", 17, "initial-conditions seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *base == "" {
		fmt.Fprintln(fs.Output(), "spiosim: -base is required")
		fs.Usage()
		return errUsage
	}
	simDims, err := parseDims(*dims)
	if err != nil {
		return err
	}
	fDims, err := parseDims(*factor)
	if err != nil {
		return err
	}
	nRanks := simDims.Volume()
	domain := spio.UnitBox()
	grid := spio.NewGrid(domain, simDims)
	cfg := spio.WriteConfig{
		Agg:      spio.AggConfig{Domain: domain, SimDims: simDims, Factor: fDims},
		Seed:     *seed,
		Checksum: *checksum,
	}
	velocity := spio.V3(0.4, 0.25, -0.3)

	start := time.Now()
	firstStep := 0
	err = spio.Run(nRanks, func(c *spio.Comm) error {
		var local *spio.Buffer
		if *restart >= 0 {
			// Resume: each rank loads its patch from the checkpoint —
			// regardless of how many ranks wrote it.
			b, err := spio.Restart(c, spio.StepDir(*base, *restart), domain, simDims)
			if err != nil {
				return err
			}
			local = b
			if c.Rank() == 0 {
				fmt.Fprintf(out, "restarted from step %d on %d ranks\n", *restart, nRanks)
			}
		} else {
			patch := grid.CellBox(spio.Unlinear(c.Rank(), simDims))
			local = spio.Uniform(spio.UintahSchema(), patch, *particles, *seed, c.Rank())
		}
		first := 0
		if *restart >= 0 {
			first = *restart + 1
		}
		if c.Rank() == 0 {
			firstStep = first
		}

		var pending *spio.PendingWrite
		for step := first; step < first+*steps; step++ {
			spio.Advect(local, domain, velocity, 0.15)
			var err error
			local, err = migrate(c, grid, simDims, local)
			// Agree on the migrate outcome before acting on it: a
			// rank-local decode error would otherwise strand the healthy
			// ranks in the next collective (advect barrier / checkpoint).
			if err = agreeStep(c, err); err != nil {
				return err
			}
			if step%*interval == 0 {
				if *async {
					// Finish the previous in-flight checkpoint, snapshot
					// the current state, and let the write drain while
					// the next steps compute.
					if pending != nil {
						// The wait outcome is rank-local; agree on it
						// before acting so a failed checkpoint aborts
						// every rank together.
						_, werr := pending.Wait()
						if werr = agreeStep(c, werr); werr != nil {
							return werr
						}
					}
					snapshot := spio.NewBuffer(local.Schema(), local.Len())
					snapshot.AppendBuffer(local)
					pending = spio.WriteAsync(c, spio.StepDir(*base, step), cfg, snapshot)
					if c.Rank() == 0 {
						fmt.Fprintf(out, "step %4d: checkpoint started asynchronously\n", step)
					}
				} else {
					res, err := spio.WriteStep(c, *base, step, cfg, local)
					if err != nil {
						return err
					}
					if c.Rank() == 0 {
						fmt.Fprintf(out, "step %4d: checkpoint (rank0 agg %v, I/O %v)\n",
							step, res.Timing.Aggregation().Round(time.Microsecond),
							res.Timing.FileIO.Round(time.Microsecond))
					}
				}
			}
		}
		if pending != nil {
			if _, err := pending.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "simulated %d steps on %d ranks in %v\n\n", *steps, nRanks, time.Since(start).Round(time.Millisecond))

	// Analysis pass: per-checkpoint density summary from cheap LOD reads.
	stepsOnDisk, err := spio.Steps(*base)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "series holds %d checkpoints: %v\n", len(stepsOnDisk), stepsOnDisk)
	for _, s := range stepsOnDisk {
		if s < firstStep {
			continue
		}
		ds, err := spio.OpenStep(*base, s)
		if err != nil {
			return err
		}
		counts, frac, _, err := spio.DensityGrid(ds, spio.I3(4, 1, 1), 5, 4)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  t%06d: %8d particles, x-slab densities %v (sampled %.0f%%)\n",
			s, ds.Meta().Total, round(counts), frac*100)
	}
	return nil
}

// migrate routes particles to the ranks owning their positions.
func migrate(c *spio.Comm, grid spio.Grid, simDims spio.Idx3, local *spio.Buffer) (*spio.Buffer, error) {
	schema := local.Schema()
	outgoing := make([]*spio.Buffer, c.Size())
	for i := 0; i < local.Len(); i++ {
		owner := grid.Locate(local.Position(i)).Linear(simDims)
		if outgoing[owner] == nil {
			outgoing[owner] = spio.NewBuffer(schema, 0)
		}
		outgoing[owner].AppendFrom(local, i)
	}
	bufs := make([][]byte, c.Size())
	for r, b := range outgoing {
		if b != nil {
			bufs[r] = b.Encode()
		}
	}
	merged := spio.NewBuffer(schema, local.Len())
	for _, data := range c.Alltoall(bufs) {
		if err := merged.DecodeRecords(data); err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// agreeStep is one round of the error-agreement protocol (the same
// shape internal/core uses between write phases): every rank
// contributes a failure flag to an Allreduce, so either every rank
// returns an error or none does, and an early return cannot strand
// peers in the next collective.
func agreeStep(c *spio.Comm, local error) error {
	flag := int64(0)
	if local != nil {
		flag = 1
	}
	if c.Allreduce(flag, spio.OpSum) == 0 {
		return nil
	}
	if local != nil {
		return local
	}
	return fmt.Errorf("spiosim: migrate failed on a peer rank")
}

func round(xs []float64) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x + 0.5)
	}
	return out
}

func parseDims(s string) (spio.Idx3, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 3 {
		return spio.Idx3{}, fmt.Errorf("dims %q: want AxBxC", s)
	}
	var v [3]int
	for i, p := range parts {
		if _, err := fmt.Sscanf(p, "%d", &v[i]); err != nil || v[i] <= 0 {
			return spio.Idx3{}, fmt.Errorf("dims %q: bad component %q", s, p)
		}
	}
	return spio.I3(v[0], v[1], v[2]), nil
}
