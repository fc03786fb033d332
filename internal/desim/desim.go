// Package desim is a discrete-event cross-check for the analytic
// performance model (internal/perfmodel). Where the analytic engine
// treats the write as bulk-synchronous — every phase lasts as long as
// its slowest partition — the event simulation lets each aggregation
// partition pipeline independently: a partition whose gather finishes
// early starts creating and writing its file early, and concurrent file
// transfers share the storage system as a fluid processor-sharing
// resource (bandwidth min(peak, writers·perWriter)·eff recomputed at
// every arrival/departure). Serialized metadata servers (Lustre creates)
// are a FIFO queue.
//
// The two engines embody different idealizations of the same plan and
// machine profile; tests assert they agree to within a small factor and
// rank strategies identically, which is the evidence that neither
// encodes an accidental artifact.
package desim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"spio/internal/agg"
	"spio/internal/machine"
)

// Result summarizes one simulated write.
type Result struct {
	// Time is the makespan: the last partition's file-write completion.
	Time time.Duration
	// AggDone is when the last gather (+ reorder) finished.
	AggDone time.Duration
	// Partitions is the number of non-empty partitions simulated.
	Partitions int
}

// SimulateWrite runs the event simulation of the paper's write pipeline
// for a plan on a machine profile.
func SimulateWrite(m machine.Profile, p *agg.Plan) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}

	// Per-partition timeline: gather -> reorder -> create -> transfer.
	type job struct {
		readyAt float64 // seconds when the file create may start
		bytes   float64
	}
	var jobs []job
	aggDone := 0.0
	for _, part := range p.Parts {
		if part.Particles == 0 {
			continue
		}
		bytes := float64(part.Particles * int64(p.BytesPerParticle))
		gather := 0.0
		if !(p.Aligned && part.Senders <= 1) {
			gather = m.Network.GatherTime(part.Senders, part.Particles*int64(p.BytesPerParticle)).Seconds()
		}
		reorder := float64(part.Particles) * m.ReorderPerParticle.Seconds()
		ready := gather + reorder
		if ready > aggDone {
			aggDone = ready
		}
		jobs = append(jobs, job{readyAt: ready, bytes: bytes})
	}
	if len(jobs) == 0 {
		return Result{}, fmt.Errorf("desim: plan has no particles")
	}

	// Creates: a serialized metadata server is a FIFO queue in arrival
	// order; parallel creates add a fixed latency.
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].readyAt < jobs[b].readyAt })
	per := m.Storage.CreatePerFile.Seconds()
	if m.Storage.CreateSerialized {
		mdsFree := 0.0
		for i := range jobs {
			start := math.Max(jobs[i].readyAt, mdsFree)
			mdsFree = start + per
			jobs[i].readyAt = mdsFree
		}
	} else {
		latency := m.Storage.CreateTime(len(jobs)).Seconds() / float64(len(jobs))
		for i := range jobs {
			jobs[i].readyAt += latency
		}
	}

	// Transfers: fluid processor sharing of the storage system.
	flows := make([]flow, len(jobs))
	for i, j := range jobs {
		flows[i] = flow{arrive: j.readyAt, remaining: j.bytes, total: j.bytes}
	}
	makespan := simulateProcessorSharing(m.Storage, flows)
	return Result{
		Time:       secondsToDuration(makespan),
		AggDone:    secondsToDuration(aggDone),
		Partitions: len(jobs),
	}, nil
}

type flow struct {
	arrive    float64
	remaining float64
	total     float64
}

// simulateProcessorSharing advances a fluid model where all active flows
// share the storage bandwidth equally, with per-writer caps and the
// burst-size efficiency of each flow's own file size. Returns the time
// the last flow completes.
//
// Each active flow i drains at rate g(n)·eff_i where g(n) =
// min(writerBW, peak/n) is identical for every flow. Normalizing flow
// i's service demand to v_i = bytes_i / eff_i makes all active flows
// drain normalized service at the common rate g(n), so the simulation
// runs on a virtual clock V (cumulative per-flow normalized service):
// a flow entering at virtual time V completes when V reaches
// V + v_i. Events are just arrivals and heap-min completions —
// O(F log F) for F flows.
func simulateProcessorSharing(s machine.Storage, flows []flow) float64 {
	// Arrivals sorted by real time.
	order := make([]int, len(flows))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return flows[order[a]].arrive < flows[order[b]].arrive })

	g := func(n int) float64 {
		if n == 0 {
			return 0
		}
		per := s.WriterBW
		if share := s.PeakBW / float64(n); share < per {
			per = share
		}
		return per
	}

	completions := &floatHeap{} // virtual completion thresholds of active flows
	now := 0.0                  // real time
	V := 0.0                    // virtual (normalized-service) clock
	next := 0                   // next arrival index in order
	last := 0.0

	for completions.Len() > 0 || next < len(order) {
		n := completions.Len()
		// Candidate events in real time.
		arriveAt := math.Inf(1)
		if next < len(order) {
			arriveAt = flows[order[next]].arrive
		}
		doneAt := math.Inf(1)
		if n > 0 {
			doneAt = now + ((*completions)[0]-V)/g(n)
		}
		if arriveAt <= doneAt {
			// Advance virtual clock to the arrival, then admit it.
			if n > 0 {
				V += g(n) * (arriveAt - now)
			}
			now = math.Max(now, arriveAt)
			f := flows[order[next]]
			eff := s.Eff(int64(f.total))
			if eff <= 0 {
				eff = 1
			}
			heap.Push(completions, V+f.remaining/eff)
			next++
			continue
		}
		// Advance to the completion.
		V = (*completions)[0]
		now = doneAt
		heap.Pop(completions)
		last = now
	}
	return last
}

// floatHeap is a min-heap of float64.
type floatHeap []float64

func (h floatHeap) Len() int           { return len(h) }
func (h floatHeap) Less(a, b int) bool { return h[a] < h[b] }
func (h floatHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *floatHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *floatHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
