package main

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The cores of a machine shared with other tenants do not run at one speed:
// a busy neighbour on the same physical core or cache slows every
// instruction, and the process's CPU time grows with it although no steal
// is counted. A speed probe measures that directly. It is a fixed piece of
// work that uses nothing of the program — sorting strings, filling a hash
// map and scattering row ids into classes, the kinds of work rank encoding
// and partition products do — run on one goroutine per engine worker at
// once and timed by the process's CPU time. Run beside the ops, its median
// says how fast the cores ran while they were measured, and the timings are
// scaled to the speed the benchmark was sized at (nominalProbeMs). A change
// to the program does not move the probe, so it moves the scaled figures as
// much as the raw ones.

// nominalProbeMs is the probe's median CPU time on the machine the
// benchmark was sized on (2-vCPU VM, Go 1.24). It sets the scale of the
// scaled figures only; spreads and comparisons do not depend on it.
const nominalProbeMs = 7.0

const (
	probeWords   = 3000
	probeKeys    = 25000
	probeClasses = 1000
	// probeSettle is how many untimed probes precede the timed ones: right
	// after an op the collector may still be finishing its cycle and the
	// caches hold the op's data, and a probe timed then reads both.
	probeSettle = 2
)

// speedProbe holds one kernel per engine worker and the probe's samples.
type speedProbe struct {
	kernels []*probeKernel
	samples []float64 // process CPU milliseconds per timed probe
	// spent is the wall and process CPU time all probes took, which a timed
	// phase with probes inside it leaves out.
	spent phase
}

// probeKernel is one goroutine's share of a probe: its fixed input and
// reusable buffers. A probe allocates only the few hundred bytes its
// goroutines need, nothing measurable beside an op's tens of megabytes.
type probeKernel struct {
	words, sorted []string
	keys          []int32
	starts, rows  []int32
	ranks         map[string]int32
	pairs         map[int64]int32
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{
		// Room for the probes of any run up to a few minutes long.
		samples: make([]float64, 0, 1024),
	}
	for range engineWorkers {
		p.kernels = append(p.kernels, newProbeKernel())
	}
	return p
}

func newProbeKernel() *probeKernel {
	rng := rand.New(rand.NewSource(1))
	k := &probeKernel{
		words:  make([]string, probeWords),
		sorted: make([]string, probeWords),
		keys:   make([]int32, probeKeys),
		starts: make([]int32, probeClasses+1),
		rows:   make([]int32, probeKeys),
		ranks:  make(map[string]int32, probeWords),
		pairs:  make(map[int64]int32, probeKeys),
	}
	for i := range k.words {
		b := make([]byte, 4+rng.Intn(8))
		for j := range b {
			b[j] = byte('a' + rng.Intn(6))
		}
		k.words[i] = string(b)
	}
	for i := range k.keys {
		k.keys[i] = int32(rng.Intn(probeClasses))
	}
	k.once() // the maps reach their full size
	return k
}

// run settles, then probes n times and records each probe's CPU time.
func (p *speedProbe) run(n int) {
	w0, c0 := time.Now(), processCPU()
	for range probeSettle {
		p.once()
	}
	for range n {
		t0 := processCPU()
		if p.once() {
			p.samples = append(p.samples, msOf(processCPU()-t0))
		}
	}
	p.spent.wall += time.Since(w0)
	p.spent.cpu += processCPU() - c0
}

// once runs every kernel at the same time, each on its own goroutine, and
// reports whether all of them finished.
func (p *speedProbe) once() bool {
	var wg sync.WaitGroup
	var failed atomic.Bool
	for _, k := range p.kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					failed.Store(true) // a failed probe leaves no sample
				}
			}()
			k.once()
		}()
	}
	wg.Wait()
	return !failed.Load()
}

func (k *probeKernel) once() {
	copy(k.sorted, k.words)
	slices.Sort(k.sorted)
	clear(k.ranks)
	for _, w := range k.sorted {
		if _, ok := k.ranks[w]; !ok {
			k.ranks[w] = int32(len(k.ranks))
		}
	}
	clear(k.starts)
	for _, key := range k.keys {
		k.starts[key+1]++
	}
	for i := 1; i < len(k.starts); i++ {
		k.starts[i] += k.starts[i-1]
	}
	for i, key := range k.keys {
		k.rows[k.starts[key]] = int32(i)
		k.starts[key]++
	}
	clear(k.pairs)
	for i, r := range k.rows {
		key := int64(k.keys[r])<<32 | int64(k.ranks[k.words[int(r)%len(k.words)]])
		if _, ok := k.pairs[key]; !ok {
			k.pairs[key] = int32(i)
		}
	}
}

// speed is what a run's probes found.
type speed struct {
	// factor is what the run's timings are multiplied by: the nominal probe
	// time over the median measured one, 1 without samples.
	factor   float64
	medianMs float64
	probes   int
}

// finish returns what the probes found and drops the probe's buffers and
// samples, so that the live heap measured after the timed phase is the
// program's alone.
func (p *speedProbe) finish() speed {
	sp := speed{factor: 1, medianMs: median(p.samples), probes: len(p.samples)}
	if sp.medianMs > 0 {
		sp.factor = nominalProbeMs / sp.medianMs
	}
	p.kernels, p.samples = nil, nil
	return sp
}
