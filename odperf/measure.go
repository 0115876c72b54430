package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// mib converts bytes to the MB unit every memory metric reports (2^20 bytes).
func mib(b float64) float64 { return b / (1 << 20) }

// msOf converts a duration to fractional milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usOf converts a duration to fractional microseconds.
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of xs by the nearest-rank rule: the
// smallest sample with at least q of the samples at or below it. The p90 of n
// samples therefore has n - ceil(0.9 n) samples beyond it. It returns 0 for
// an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's peak resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// userHZ is the unit of the tick counters in /proc/stat (USER_HZ), 100 on
// every Linux architecture Go supports.
const userHZ = 100

// hostSteal returns the time, summed over this machine's vCPUs, that the
// hypervisor ran something else while a vCPU had work to run: the steal
// counter of /proc/stat, in seconds. It is 0 where the kernel reports none.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / userHZ
}

// runtime/metrics names the meter reads.
const (
	allocBytesMetric = "/gc/heap/allocs:bytes"
	gcCPUMetric      = "/cpu/classes/gc/total:cpu-seconds"
	gcCyclesMetric   = "/gc/cycles/total:gc-cycles"
	liveHeapMetric   = "/gc/heap/live:bytes"
)

// counters is one reading of the process-wide counters a phase is metered by.
type counters struct {
	at       time.Time
	cpu      time.Duration
	steal    float64
	alloc    float64
	gcCPU    float64
	gcCycles float64
}

func readCounters() counters {
	s := []metrics.Sample{{Name: allocBytesMetric}, {Name: gcCPUMetric}, {Name: gcCyclesMetric}}
	metrics.Read(s)
	return counters{
		at:       time.Now(),
		cpu:      processCPU(),
		steal:    hostSteal(),
		alloc:    sampleValue(s[0]),
		gcCPU:    sampleValue(s[1]),
		gcCycles: sampleValue(s[2]),
	}
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// phase is the difference of two counter readings: what the process spent
// between them.
type phase struct {
	wall     time.Duration
	cpu      time.Duration
	steal    float64 // seconds the host withheld from runnable vCPUs
	alloc    float64 // bytes allocated on the heap
	gcCPU    float64 // seconds of GC CPU time
	gcCycles float64
}

func (a counters) until(b counters) phase {
	return phase{
		wall:     b.at.Sub(a.at),
		cpu:      b.cpu - a.cpu,
		steal:    b.steal - a.steal,
		alloc:    b.alloc - a.alloc,
		gcCPU:    b.gcCPU - a.gcCPU,
		gcCycles: b.gcCycles - a.gcCycles,
	}
}

// hostShare is the share of the time the process had work on a vCPU that
// the host actually gave it: CPU ÷ (CPU + steal). A vCPU that wants to run
// either runs (CPU time) or is stolen, so wall time scales by this share
// when the host shares the machine with other tenants. The timings of a
// phase are multiplied by it, which takes the host's contention out of the
// numbers; on a machine without steal accounting it is 1.
func (p phase) hostShare() float64 {
	cpu := p.cpu.Seconds()
	if cpu <= 0 || p.steal <= 0 {
		return 1
	}
	return cpu / (cpu + p.steal)
}

// adjusted returns the phase's wall time with the host's steal taken out.
func (p phase) adjusted() time.Duration {
	return time.Duration(float64(p.wall) * p.hostShare())
}

// without returns the phase less the wall and CPU time of q, a part of it
// that is not the program's (the speed probes run inside it).
func (p phase) without(q phase) phase {
	p.wall -= q.wall
	p.cpu -= q.cpu
	return p
}

// liveHeap forces a collection and returns the live heap it left, in bytes.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return sampleValue(s[0])
}

// latencies collects the per-op latencies of one timed phase, overall and
// per class. Classes are the serve request kinds; tall and wide fill them
// from the phases of each op (see README.md).
type latencies struct {
	op, cold, warm, upload []float64 // milliseconds
}

// endToEnd turns one timed phase into the end-to-end metrics every workload
// reports. setup is the median set-up time in seconds, already
// steal-adjusted; every latency and the op rate are adjusted by the phase's
// host share. Every timing, CPU time too, is then scaled by speed, the
// run's speed-probe factor.
func endToEnd(setup float64, lat latencies, ph phase, heapLive, speed float64) map[string]metric {
	ops := float64(len(lat.op)) // callers guarantee at least one
	k := ph.hostShare() * speed
	return map[string]metric{
		"setup_s":         {speed * setup, "s"},
		"op_p50_ms":       {k * median(lat.op), "ms"},
		"op_p90_ms":       {k * quantile(lat.op, 0.9), "ms"},
		"ops_per_s":       {ops / (speed * ph.adjusted().Seconds()), "1/s"},
		"cpu_ms_per_op":   {speed * msOf(ph.cpu) / ops, "ms"},
		"alloc_mb_per_op": {mib(ph.alloc) / ops, "MB"},
		"rss_peak_mb":     {mib(peakRSS()), "MB"},
		"heap_live_mb":    {mib(heapLive), "MB"},
		"cold_p50_ms":     {k * median(lat.cold), "ms"},
		"warm_p50_ms":     {k * median(lat.warm), "ms"},
		"upload_p50_ms":   {k * median(lat.upload), "ms"},
	}
}

// hostNote records both adjustments with the unadjusted figures, so a
// reader can see what the host took and how fast the cores ran, and undo
// either.
func hostNote(out *outcome, lat latencies, ph phase, setup float64, sp speed) {
	probe := "no speed probe"
	if sp.probes > 0 {
		probe = fmt.Sprintf("speed factor %.4f (probe median %.4f ms over %d probes)", sp.factor, sp.medianMs, sp.probes)
	}
	out.notef("host share %.4f (%.2f s stolen from %.2f s of process CPU); %s",
		ph.hostShare(), ph.steal, ph.cpu.Seconds(), probe)
	out.notef("unadjusted: setup_s %.4f, op_p50 %.4f ms, op_p90 %.4f ms, ops_per_s %.4f, cpu_ms_per_op %.4f",
		setup, median(lat.op), quantile(lat.op, 0.9), float64(len(lat.op))/ph.wall.Seconds(), msOf(ph.cpu)/float64(len(lat.op)))
}

// runtimeLayer is the runtime row of the per-layer table: GC cost per op,
// the share of runnable time the host withheld, and the speed probe's
// median.
func runtimeLayer(m map[string]metric, ph phase, ops int, sp speed) {
	n := float64(ops)
	m["runtime.gc_cpu_ms_per_op"] = metric{ph.gcCPU * 1000 / n, "ms"}
	m["runtime.gc_cycles_per_op"] = metric{ph.gcCycles / n, "count"}
	m["runtime.steal_pct"] = metric{(1 - ph.hostShare()) * 100, "%"}
	m["runtime.probe_ms"] = metric{sp.medianMs, "ms"}
}
