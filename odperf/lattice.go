package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	fastod "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/lattice"
	"repro/internal/partition"
	"repro/internal/relation"
)

// latticeShape is one of the two batch workloads: a generated table run
// through the op the fastod command performs (load the CSV, run FASTOD,
// print the ODs).
type latticeShape struct {
	rows, cols         int
	tinyRows, tinyCols int
	// rate is the nominal op rate the op count is derived from; the count is
	// fixed by the arguments, never by how fast the ops run.
	rate float64
	gen  func(rows, cols int, seed int64) *relation.Relation
}

var latticeShapes = map[string]latticeShape{
	// Exp-1's axis: many tuples, few attributes.
	"tall": {rows: 20000, cols: 10, tinyRows: 400, tinyCols: 6, rate: 6, gen: datagen.FlightLike},
	// Exp-2's axis: few tuples, many attributes.
	"wide": {rows: 155, cols: 13, tinyRows: 60, tinyCols: 7, rate: 3.6, gen: datagen.HepatitisLike},
}

// latticeOp is the result of one tall or wide op. The three phase durations
// split the op's latency: ingest (fastod.LoadCSV), run (Dataset.Run) and
// render (printing the ODs).
type latticeOp struct {
	total, ingest, run, render time.Duration
	got                        answer
	interrupted                bool
}

// plainLatticeOp runs one op through the public API, as the fastod command
// does.
func plainLatticeOp(ctx context.Context, name string, csv []byte) (latticeOp, error) {
	t0 := time.Now()
	ds, err := fastod.LoadCSV(name, bytes.NewReader(csv))
	if err != nil {
		return latticeOp{}, err
	}
	t1 := time.Now()
	rep, err := ds.Run(ctx, fastod.Request{RunOptions: fastod.RunOptions{Workers: engineWorkers}})
	if err != nil {
		return latticeOp{}, err
	}
	t2 := time.Now()
	text := renderODs(rep.FASTOD)
	t3 := time.Now()
	return latticeOp{
		total: t3.Sub(t0), ingest: t1.Sub(t0), run: t2.Sub(t1), render: t3.Sub(t2),
		got: answerOf(rep.FASTOD.Counts.Total, text), interrupted: rep.Interrupted,
	}, nil
}

// latticeTrace holds what a traced op measured inside its layers.
type latticeTrace struct {
	decode, encode, discover, firstLevel time.Duration
	busy                                 float64
	seed, pairs                          time.Duration
	stats                                core.Stats
	ods                                  int
}

// tracedLatticeOp runs the same op as plainLatticeOp through the layers the
// public API calls — relation.ReadCSV, relation.Encode, core.DiscoverContext
// — with a span around each call and one per lattice level from the
// progress callback. After the op, outside its interval, it replays the
// partition kernels on the op's encoding: FromColumn on every column and
// ProductWith on every attribute pair.
func tracedLatticeOp(ctx context.Context, tr *tracer, opID int, name string, csv []byte) (latticeOp, latticeTrace, error) {
	var lt latticeTrace
	t0 := time.Now()
	root := tr.open("op", 0, opID)
	rel, err := relation.ReadCSV(name, bytes.NewReader(csv))
	if err != nil {
		return latticeOp{}, lt, err
	}
	t1 := time.Now()
	tr.record("relation.ReadCSV", root, opID, t0, t1)
	enc, err := relation.Encode(rel)
	if err != nil {
		return latticeOp{}, lt, err
	}
	t2 := time.Now()
	tr.record("relation.Encode", root, opID, t1, t2)

	disc := tr.open("core.DiscoverContext", root, opID)
	cpu0 := processCPU()
	levelStart := t2
	progress := func(ev lattice.ProgressEvent) {
		now := time.Now()
		if ev.Level == 1 {
			lt.firstLevel = now.Sub(t2)
		}
		tr.record(fmt.Sprintf("lattice.level.%d", ev.Level), disc, opID, levelStart, now)
		levelStart = now
	}
	res, err := core.DiscoverContext(ctx, enc, core.Options{Workers: engineWorkers, Progress: progress})
	if err != nil {
		return latticeOp{}, lt, err
	}
	t3 := time.Now()
	lt.busy = float64(processCPU()-cpu0) / (float64(t3.Sub(t2)) * engineWorkers)
	tr.close(disc)
	text := renderODs(res)
	t4 := time.Now()
	tr.record("render", root, opID, t3, t4)
	tr.close(root)

	lt.decode, lt.encode, lt.discover = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	lt.stats, lt.ods = res.Stats, res.Counts.Total
	op := latticeOp{
		total: t4.Sub(t0), ingest: t2.Sub(t0), run: t3.Sub(t2), render: t4.Sub(t3),
		got: answerOf(res.Counts.Total, text), interrupted: res.Stats.Interrupted,
	}

	replay := tr.open("partition.replay", 0, opID)
	s0 := time.Now()
	parts := make([]*partition.Partition, enc.NumCols())
	for c := range parts {
		parts[c] = partition.FromColumn(enc.Values[c], enc.Cardinality[c])
	}
	s1 := time.Now()
	tr.record("partition.FromColumn", replay, opID, s0, s1)
	scratch := partition.NewScratch()
	for i := range parts {
		for j := i + 1; j < len(parts); j++ {
			parts[i].ProductWith(parts[j], scratch)
		}
	}
	s2 := time.Now()
	tr.record("partition.ProductWith", replay, opID, s1, s2)
	tr.close(replay)
	lt.seed, lt.pairs = s1.Sub(s0), s2.Sub(s1)
	return op, lt, nil
}

// latticeReference derives the answer every timed op must reproduce: the
// FASTOD result on the workload's table, cross-checked against TANE, whose
// FD count must equal FASTOD's constancy count.
func latticeReference(ctx context.Context, name string, csv []byte) (answer, error) {
	ds, err := fastod.LoadCSV(name, bytes.NewReader(csv))
	if err != nil {
		return answer{}, err
	}
	rep, err := ds.Run(ctx, fastod.Request{RunOptions: fastod.RunOptions{Workers: engineWorkers}})
	if err != nil {
		return answer{}, err
	}
	tane, err := ds.Run(ctx, fastod.Request{Algorithm: fastod.AlgorithmTANE, RunOptions: fastod.RunOptions{Workers: engineWorkers}})
	if err != nil {
		return answer{}, err
	}
	if rep.Interrupted || tane.Interrupted {
		return answer{}, fmt.Errorf("reference run was interrupted")
	}
	if fds, cons := len(tane.TANE.FDs), rep.FASTOD.Counts.Constancy; fds != cons {
		return answer{}, fmt.Errorf("TANE finds %d FDs but FASTOD %d constancy ODs", fds, cons)
	}
	return answerOf(rep.FASTOD.Counts.Total, renderODs(rep.FASTOD)), nil
}

// runLattice runs the tall or wide workload.
func runLattice(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	shape := latticeShapes[cfg.workload]
	rows, cols := shape.rows, shape.cols
	if cfg.tiny {
		rows, cols = shape.tinyRows, shape.tinyCols
	}
	rel := shape.gen(rows, cols, subSeed(cfg.seed, cfg.workload))
	csv, err := csvOf(rel)
	if err != nil {
		return nil, err
	}
	in := newDigest()
	in.add(csv)
	name := cfg.workload + ".csv"
	out := &outcome{inputDigest: in.hex(), classes: map[string]int{}}

	// Set-up, repeated: reference answer plus warm-up ops. Every repetition
	// must derive the same reference.
	var ref answer
	refOK := true
	var setups []float64
	probe := newSpeedProbe()
	for r := 0; r < setupRepeats; r++ {
		start := readCounters()
		got, err := latticeReference(ctx, name, csv)
		if err != nil {
			out.notef("reference: %v", err)
			refOK = false
		}
		if r == 0 {
			ref = got
		} else if got != ref {
			out.notef("reference differs between set-ups")
			refOK = false
		}
		for w := 0; w < warmupOps; w++ {
			if _, err := plainLatticeOp(ctx, name, csv); err != nil {
				return nil, fmt.Errorf("warm-up op: %w", err)
			}
		}
		setups = append(setups, start.until(readCounters()).adjusted().Seconds())
		probe.run(setupProbes)
	}
	out.notef("input %s %dx%d: reference %d ODs, digest %.12s", cfg.workload, rel.NumRows(), rel.NumCols(), ref.count, ref.digest)

	n := opCount(cfg, shape.rate)
	var lat latencies
	var plainOps, tracedOps []float64
	var traces []latticeTrace
	deadline := time.Now().Add(timedPhaseCap)
	before, probed := readCounters(), probe.spent
	for i := 0; i < n; i++ {
		if time.Now().After(deadline) {
			out.notef("timed phase cut at its %v cap after %d of %d ops", timedPhaseCap, i, n)
			break
		}
		out.attempted++
		var op latticeOp
		var err error
		traced := cfg.trace && i%2 == 1
		if traced {
			var lt latticeTrace
			op, lt, err = tracedLatticeOp(ctx, tr, i+1, name, csv)
			if err == nil {
				traces = append(traces, lt)
			}
		} else {
			op, err = plainLatticeOp(ctx, name, csv)
		}
		probe.run(1) // between ops, outside their intervals
		if err != nil || op.interrupted || op.got != ref || !refOK {
			out.failed++
			if err != nil {
				out.notef("op %d: %v", i+1, err)
			} else if op.got != ref {
				out.notef("op %d: %d ODs (digest %.12s), want %d (%.12s)", i+1, op.got.count, op.got.digest, ref.count, ref.digest)
			}
			continue
		}
		lat.op = append(lat.op, msOf(op.total))
		// Without a report cache, the classes follow where the data is: a
		// question on data not yet loaded (the whole op), one on data
		// already loaded (run and render), and the load itself.
		lat.cold = append(lat.cold, msOf(op.total))
		lat.warm = append(lat.warm, msOf(op.run+op.render))
		lat.upload = append(lat.upload, msOf(op.ingest))
		if traced {
			tracedOps = append(tracedOps, msOf(op.total))
		} else {
			plainOps = append(plainOps, msOf(op.total))
		}
	}
	ph := before.until(readCounters()).without(probe.spent.without(probed))
	sp := probe.finish()
	heap := liveHeap()
	runtime.KeepAlive(csv) // the input is part of the live heap
	out.classes["ops"] = len(lat.op)
	if len(lat.op) == 0 {
		return nil, fmt.Errorf("no op completed (%d attempted, %d failed)", out.attempted, out.failed)
	}
	out.correct = out.failed == 0 && refOK
	if !cfg.trace {
		out.metrics = endToEnd(median(setups), lat, ph, heap, sp.factor)
		out.notef("samples: %d ops, p90 has %d beyond it", len(lat.op), beyond(len(lat.op), 0.9))
		hostNote(out, lat, ph, median(setups), sp)
		return out, nil
	}
	out.metrics = latticeLayers(traces)
	runtimeLayer(out.metrics, ph, len(lat.op), sp)
	out.metrics["trace.overhead_pct"] = metric{overheadPct(tracedOps, plainOps), "%"}
	return out, nil
}

// latticeLayers turns the traced ops' measurements into the per-layer
// metrics of tall and wide. The serve-only layers read zero here.
func latticeLayers(traces []latticeTrace) map[string]metric {
	m := zeroLayers()
	if len(traces) == 0 {
		return m
	}
	pick := func(f func(latticeTrace) float64) float64 {
		xs := make([]float64, len(traces))
		for i, t := range traces {
			xs[i] = f(t)
		}
		return median(xs)
	}
	last := traces[len(traces)-1]
	discover := pick(func(t latticeTrace) float64 { return msOf(t.discover) })
	m["relation.decode_ms"] = metric{pick(func(t latticeTrace) float64 { return msOf(t.decode) }), "ms"}
	m["relation.encode_ms"] = metric{pick(func(t latticeTrace) float64 { return msOf(t.encode) }), "ms"}
	m["partition.seed_ms"] = metric{pick(func(t latticeTrace) float64 { return msOf(t.seed) }), "ms"}
	m["partition.pair_product_ms"] = metric{pick(func(t latticeTrace) float64 { return msOf(t.pairs) }), "ms"}
	m["core.discover_ms"] = metric{discover, "ms"}
	m["core.first_level_ms"] = metric{pick(func(t latticeTrace) float64 { return msOf(t.firstLevel) }), "ms"}
	m["core.us_per_node"] = metric{discover * 1000 / float64(last.stats.NodesVisited), "us"}
	m["core.fd_checks"] = metric{float64(last.stats.FDChecks), "count"}
	m["core.swap_checks"] = metric{float64(last.stats.SwapChecks), "count"}
	m["core.key_prunes"] = metric{float64(last.stats.KeyPrunes), "count"}
	m["core.nodes_pruned"] = metric{float64(last.stats.NodesPruned), "count"}
	m["core.ods"] = metric{float64(last.ods), "count"}
	m["lattice.nodes"] = metric{float64(last.stats.NodesVisited), "count"}
	m["lattice.max_level"] = metric{float64(last.stats.MaxLevelReached), "count"}
	m["lattice.busy_frac"] = metric{pick(func(t latticeTrace) float64 { return t.busy }), "ratio"}
	return m
}

// overheadPct compares the median latency of traced ops with that of
// untraced ops run in the same phase.
func overheadPct(traced, plain []float64) float64 {
	p := median(plain)
	if p == 0 || len(traced) == 0 {
		return 0
	}
	return (median(traced)/p - 1) * 100
}

// beyond returns how many of n samples lie above their q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}
