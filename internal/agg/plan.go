package agg

import "fmt"

// Plan is the machine-independent summary of one write: how many ranks
// feed each aggregation partition and how many particles (bytes) each
// partition's file receives. The local engine executes a plan with real
// messages and files; the performance model prices the identical plan
// with a machine profile — this shared structure is what keeps the two
// engines honest with each other.
type Plan struct {
	// NumRanks is the writer world size.
	NumRanks int
	// BytesPerParticle is the schema stride.
	BytesPerParticle int
	// Aligned is true when the aggregation-grid is aligned with the
	// simulation patches, so senders skip the per-particle scan.
	Aligned bool
	// Parts has one entry per aggregation partition (= output file).
	Parts []PartPlan
}

// PartPlan summarizes one partition.
type PartPlan struct {
	// Senders is the number of ranks that send a non-zero bundle to the
	// partition's aggregator.
	Senders int
	// Particles is the partition's aggregated particle count.
	Particles int64
}

// Validate checks basic consistency.
func (p *Plan) Validate() error {
	if p.NumRanks <= 0 {
		return fmt.Errorf("agg: plan has %d ranks", p.NumRanks)
	}
	if p.BytesPerParticle <= 0 {
		return fmt.Errorf("agg: plan has %d bytes/particle", p.BytesPerParticle)
	}
	if len(p.Parts) == 0 {
		return fmt.Errorf("agg: plan has no partitions")
	}
	for i, pp := range p.Parts {
		if pp.Senders < 0 || pp.Particles < 0 {
			return fmt.Errorf("agg: partition %d has negative senders/particles", i)
		}
	}
	return nil
}

// NumFiles returns the number of partitions holding at least one
// particle — the files that actually get written.
func (p *Plan) NumFiles() int {
	n := 0
	for _, pp := range p.Parts {
		if pp.Particles > 0 {
			n++
		}
	}
	return n
}

// TotalParticles sums the per-partition counts.
func (p *Plan) TotalParticles() int64 {
	var t int64
	for _, pp := range p.Parts {
		t += pp.Particles
	}
	return t
}

// TotalBytes returns the dataset payload size.
func (p *Plan) TotalBytes() int64 {
	return p.TotalParticles() * int64(p.BytesPerParticle)
}

// MaxPartBytes returns the largest per-file payload — the I/O burst size
// of the busiest aggregator.
func (p *Plan) MaxPartBytes() int64 {
	var m int64
	for _, pp := range p.Parts {
		if b := pp.Particles * int64(p.BytesPerParticle); b > m {
			m = b
		}
	}
	return m
}

// UniformPlan is the analytic plan for the paper's weak-scaling
// workloads: nRanks equal patches, particlesPerRank particles each,
// aggregated in groups of groupSize = Px·Py·Pz.
func UniformPlan(nRanks, groupSize int, particlesPerRank int64, bytesPerParticle int) (*Plan, error) {
	if groupSize <= 0 || nRanks%groupSize != 0 {
		return nil, fmt.Errorf("agg: group size %d does not divide %d ranks", groupSize, nRanks)
	}
	nParts := nRanks / groupSize
	p := &Plan{
		NumRanks:         nRanks,
		BytesPerParticle: bytesPerParticle,
		Aligned:          true,
		Parts:            make([]PartPlan, nParts),
	}
	for i := range p.Parts {
		p.Parts[i] = PartPlan{Senders: groupSize, Particles: int64(groupSize) * particlesPerRank}
	}
	return p, p.Validate()
}

// OccupancyPlan is the analytic plan for the Fig. 11 workload: the total
// particle load of nRanks·particlesPerRank confined to fraction q of the
// domain, aggregated into nRanks/groupSize partitions.
//
// Non-adaptive (adaptive=false): the grid still spans the whole domain,
// so only ~q of the partitions receive particles — each from its full
// group of senders but with 1/q the density — and the rest produce
// nothing (Fig. 10e).
//
// Adaptive (adaptive=true): the grid is rebuilt over the occupied region,
// so every partition receives an equal share from the ~q·nRanks occupied
// ranks (Fig. 10f).
func OccupancyPlan(nRanks, groupSize int, particlesPerRank int64, bytesPerParticle int, q float64, adaptive bool) (*Plan, error) {
	if q <= 0 || q > 1 {
		return nil, fmt.Errorf("agg: occupancy fraction %v out of (0,1]", q)
	}
	if groupSize <= 0 || nRanks%groupSize != 0 {
		return nil, fmt.Errorf("agg: group size %d does not divide %d ranks", groupSize, nRanks)
	}
	nParts := nRanks / groupSize
	total := int64(nRanks) * particlesPerRank
	p := &Plan{
		NumRanks:         nRanks,
		BytesPerParticle: bytesPerParticle,
		Aligned:          false,
		Parts:            make([]PartPlan, nParts),
	}
	if adaptive {
		// Every partition gets an equal slice of the occupied ranks.
		senders := int(float64(nRanks)*q) / nParts
		if senders < 1 {
			senders = 1
		}
		per := total / int64(nParts)
		rem := total - per*int64(nParts)
		for i := range p.Parts {
			extra := int64(0)
			if int64(i) < rem {
				extra = 1
			}
			p.Parts[i] = PartPlan{Senders: senders, Particles: per + extra}
		}
	} else {
		active := int(float64(nParts) * q)
		if active < 1 {
			active = 1
		}
		per := total / int64(active)
		rem := total - per*int64(active)
		for i := range p.Parts {
			if i < active {
				extra := int64(0)
				if int64(i) < rem {
					extra = 1
				}
				p.Parts[i] = PartPlan{Senders: groupSize, Particles: per + extra}
			}
		}
	}
	return p, p.Validate()
}
