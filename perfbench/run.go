package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/hostif"
	"repro/internal/lsm"
	"repro/internal/ocssd"
	"repro/internal/offload"
	"repro/internal/vclock"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	tiny     bool // test-sized rigs and inputs
}

// workload builds passes over one seed's pre-generated inputs.
type workload interface {
	// newPass builds, attaches and prefills one instance of the
	// workload's stack. tr, when set, wraps the layer interfaces for
	// tracing; loopback serves the namespace over the fabrics loopback.
	newPass(tr *tracer, loopback bool) (pass, error)
}

// pass is one built instance of a workload's stack.
type pass interface {
	// warm drives the pass to steady state; the op count it takes is a
	// function of the inputs alone, so every pass warms identically.
	warm(rec *recorder) error
	warmNote() string
	// step runs the next closed-loop op (one per group for zns-stream).
	step(rec *recorder) error
	counters() (counters, error)
	close()
}

// counters are layer counters read from public accessors.
type counters struct {
	media       ocssd.Stats
	exec        hostif.ExecutorLog
	userWrites  int64 // write commands the FTL served
	userSectors int64 // sectors those commands asked it to write
	gcMoved     int64
	walRecords  int64
	checkpoints int64
	lsm         lsm.Stats
	offload     offload.Stats
	putBytes    int64
	redials     int64
}

type spec struct {
	name     string
	loopback bool // the workload's own passes run over the fabrics loopback
	// setups is how many times a run builds the stack; setup_s is their
	// median. Zero means defaultSetups.
	setups int
	build  func(seed int64, tiny bool) workload
}

var specs = []spec{
	{name: "block-oltp", build: func(seed int64, tiny bool) workload {
		sz := blockSize{rig: blockRig(tiny), logicalPages: 27648, writeShare: 0.7, ckpt: vclock.Second,
			poolPages: 4096, txnPages: 256, streamLen: 1 << 19, warmWindow: 16384, warmMax: 40, warmTol: 0.1}
		if tiny {
			sz.logicalPages, sz.poolPages, sz.streamLen, sz.warmWindow, sz.warmMax = 2048, 512, 1<<14, 2048, 12
		}
		return newBlockWorkload(sz, seed)
	}},
	// Each zns-stream set-up keeps its rig's memory for the rest of the
	// process (a host with engine workers is never collected), so it
	// sets up fewer times.
	{name: "zns-stream", setups: 5, build: func(seed int64, tiny bool) workload {
		rig := exp.RigConfig{Groups: 16, PUsPerGroup: 2, ChunksPerPU: 8, PagesPerBlock: 12, Seed: 1, PLP: true}
		if tiny {
			rig.Groups, rig.ChunksPerPU = 4, 4
		}
		return newZNSWorkload(znsSize{rig: rig, appendShare: 0.25, poolUnits: 64, streamLen: 1 << 18}, seed)
	}},
	{name: "lsm-kv", build: func(seed int64, tiny bool) workload {
		sz := lsmSize{rig: exp.DefaultRig(), keys: 32768, valueBytes: 1024, getShare: 0.8, poolValues: 4096,
			streamLen: 1 << 18, memtableBytes: 1 << 20, warmCompactions: 3, warmMaxOps: 400000}
		if tiny {
			sz.rig.Groups, sz.rig.PUsPerGroup = 2, 2
			sz.keys, sz.poolValues, sz.streamLen, sz.memtableBytes, sz.warmCompactions, sz.warmMaxOps = 2048, 256, 1<<14, 256<<10, 1, 40000
		}
		return newLSMWorkload(sz, seed)
	}},
	{name: "block-fabric", loopback: true, build: func(seed int64, tiny bool) workload {
		sz := blockSize{rig: blockRig(tiny), logicalPages: 4096, writeShare: 0.1, ckpt: vclock.Second,
			poolPages: 4096, txnPages: 256, streamLen: 1 << 18, warmFixed: 5000}
		if tiny {
			sz.logicalPages, sz.poolPages, sz.streamLen, sz.warmFixed = 1024, 512, 1<<14, 200
		}
		return newBlockWorkload(sz, seed)
	}},
}

// blockRig is the default rig's shape (8 groups × 4 PUs, dual-plane
// TLC, 32 MB write cache) with fewer, smaller chunks, so that GC
// reaches steady state within the warm-up.
func blockRig(tiny bool) exp.RigConfig {
	rc := exp.DefaultRig()
	rc.ChunksPerPU, rc.PagesPerBlock = 16, 12
	if tiny {
		rc.Groups, rc.PUsPerGroup, rc.ChunksPerPU, rc.CacheMB = 2, 2, 48, 1
	}
	return rc
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}

func validWorkload(name string) bool {
	_, ok := lookupSpec(name)
	return ok
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one invocation reports.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           []metric // the JSON metrics
	labels            []string // labelled output lines, printed first
}

func (r *result) label(format string, args ...any) {
	r.labels = append(r.labels, fmt.Sprintf(format, args...))
}

// add records a JSON metric and its labelled line.
func (r *result) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
	r.label("%-28s %14.4f %-6s %s", name, value, unit, note)
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.label("CHECK FAILED: "+format, args...)
}

func (r *result) summary() map[string]any {
	m := make(map[string]any, len(r.metrics))
	for _, x := range r.metrics {
		m[x.name] = map[string]any{"value": x.value, "unit": x.unit}
	}
	return map[string]any{"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": m}
}

// timedRun is the measured phase of one pass.
type timedRun struct {
	rec    *recorder
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64
	c0, c1 counters
	spans  []span
	note   string
	// Per-slice throughput, CPU cost and latency percentiles: the timed
	// phase is cut into sliceCount equal wall slices, and their medians
	// are reported, so a short burst of outside load moves a run's
	// figures less.
	sliceOpsPerSec, sliceCPUPerOp []float64
	sliceEnds                     []int64 // op count at the end of each slice
}

const sliceCount = 10

func (t *timedRun) opsPerSec() float64 { return float64(t.rec.ops) / t.wall.Seconds() }

// drive warms p and runs its timed phase: for the given wall time when
// ops is zero, else for exactly ops ops. snapAt is the op count at which
// the recorder snapshots its digest.
func drive(p pass, tr *tracer, wall time.Duration, ops, snapAt, latCap int64) (*timedRun, error) {
	rec := newRecorder(int(latCap))
	if err := p.warm(rec); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	t := &timedRun{rec: rec, note: p.warmNote()}
	var err error
	if t.c0, err = p.counters(); err != nil {
		return nil, err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	rec.timing, rec.snapAt = true, snapAt
	if tr != nil {
		tr.on.Store(true)
	}
	start := time.Now()
	slice, sliceStart, sliceOps, sliceCPU := wall/sliceCount, start, int64(0), cpu0
	for {
		now := time.Now()
		if ops == 0 && now.Sub(sliceStart) >= slice {
			cpu := cpuTime()
			n := rec.ops - sliceOps
			t.sliceOpsPerSec = append(t.sliceOpsPerSec, float64(n)/now.Sub(sliceStart).Seconds())
			t.sliceCPUPerOp = append(t.sliceCPUPerOp, float64((cpu-sliceCPU).Microseconds())/float64(max(n, 1)))
			t.sliceEnds = append(t.sliceEnds, rec.ops)
			sliceStart, sliceOps, sliceCPU = now, rec.ops, cpu
		}
		if ops > 0 && rec.ops >= ops || ops == 0 && len(t.sliceOpsPerSec) == sliceCount {
			break
		}
		if err := p.step(rec); err != nil {
			return nil, err
		}
	}
	t.wall = time.Since(start)
	if tr != nil {
		tr.on.Store(false)
		t.spans = tr.spans
	}
	t.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	t.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	t.c1, err = p.counters()
	return t, err
}

const (
	defaultSetups = 11
	digestPrefix  = 2048    // ops the traced check replays when not tracing
	traceReplay   = 1 << 18 // at most this many timed ops are replayed traced
	latCap        = 1 << 21
)

func run(cfg config) (*result, error) {
	sp, ok := lookupSpec(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &result{correct: true}
	res.label("workload %s seed %d seconds %g trace %v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	w := sp.build(cfg.seed, cfg.tiny)

	// Set-up, timed several times; the last instance is measured.
	reps := defaultSetups
	if sp.setups > 0 {
		reps = sp.setups
	}
	if cfg.tiny {
		reps = 1
	}
	var setups []float64
	var p pass
	for i := 0; i < reps; i++ {
		if p != nil {
			p.close()
			p = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if p, err = w.newPass(nil, sp.loopback); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	wall := time.Duration(cfg.seconds * float64(time.Second))
	snapAt := int64(digestPrefix)
	if cfg.trace {
		snapAt = traceReplay
	}
	base, err := drive(p, nil, wall, 0, snapAt, latCap)
	p.close()
	if err != nil {
		return nil, err
	}
	peakMB, err := peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("reading peak RSS: %w", err)
	}
	rec := base.rec
	res.attempted, res.failed = rec.attempted, rec.failed+rec.mismatched
	res.label("warm-up: %s", base.note)
	if rec.ops == 0 {
		return nil, errors.New("no op completed in the timed phase")
	}

	// The traced check: replay the same inputs through wrapped layers and
	// compare the virtual-time digests over the first k timed ops.
	k := min(rec.ops, traceReplay)
	if !cfg.trace {
		k = min(k, digestPrefix)
	}
	variants := []bool{sp.loopback}
	if sp.loopback {
		variants = []bool{false} // the in-process replay checks both transports
		if cfg.trace {
			variants = []bool{true, false}
		}
	}
	traced := make(map[bool]*timedRun)
	recs := []*recorder{rec}
	for _, loop := range variants {
		tr := newTracer()
		tp, err := w.newPass(tr, loop)
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		t, err := drive(tp, tr, 0, k, k, k)
		tp.close()
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		traced[loop] = t
		recs = append(recs, t.rec)
		res.attempted += t.rec.attempted
		res.failed += t.rec.failed + t.rec.mismatched
		want, okWant := rec.digestAt(k)
		got, okGot := t.rec.digestAt(k)
		name := transport(loop) + " traced"
		if !okWant || !okGot || want != got {
			res.fail("virtual digest of the %s pass %#x != untraced %s pass %#x over %d ops", name, got, transport(sp.loopback), want, k)
		} else {
			res.label("check: %s pass virtual digest %#x equals the untraced %s pass over %d ops", name, got, transport(sp.loopback), k)
		}
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s.%s.spans", cfg.workload, transport(loop)))
		if err := writeSpans(path, t.spans); err != nil {
			return nil, err
		}
		res.label("spans: %d written to %s", len(t.spans), path)
	}

	for _, r := range recs {
		if r.mismatched > 0 {
			res.fail("%d outputs disagree with the shadow copy, first: %s", r.mismatched, strings.Join(r.examples, "; "))
		}
	}
	if res.failed > 0 {
		res.fail("%d of %d ops failed or mismatched", res.failed, res.attempted)
	}
	res.label("output virt_digest %#x over %d timed ops", rec.digest, rec.ops)
	res.label("output virt_ops_per_s %.1f (virtual time, the model's answer; not gated)", rec.virtOpsPerSec())
	res.label("output failed_op_share %g (%d of %d attempted)", float64(res.failed)/float64(res.attempted), res.failed, res.attempted)

	if !cfg.trace {
		endToEnd(res, base, setups, peakMB)
		return res, nil
	}
	if sp.loopback {
		perLayerFabric(res, base, traced[true], traced[false])
	} else {
		perLayer(res, base, traced[false], traced[false])
	}
	return res, nil
}

func transport(loopback bool) string {
	if loopback {
		return "loopback"
	}
	return "in-process"
}

func endToEnd(res *result, t *timedRun, setups []float64, peakMB float64) {
	ops := float64(t.rec.ops)
	p50s, p99s, ok := slicePercentiles(t.rec.lat, t.sliceEnds)
	if !ok {
		res.fail("op_p99_us needs at least ten samples beyond the 99th percentile of every slice; have %d samples in %d slices", len(t.rec.lat), len(t.sliceEnds))
	}
	lat := sortedCopy(t.rec.lat)
	whole50, _ := percentile(lat, 0.50)
	whole99, _ := percentile(lat, 0.99)
	samples := func(whole int64) string {
		return fmt.Sprintf("(median of %d slices; %d samples; whole phase %.4f)", len(p50s), len(lat), float64(whole)/1e3)
	}
	res.add("ops_per_s", medianFloat(t.sliceOpsPerSec), "1/s",
		fmt.Sprintf("(median of %d slices, range %.1f-%.1f; %d ops in %.3f s)", len(t.sliceOpsPerSec),
			slices.Min(t.sliceOpsPerSec), slices.Max(t.sliceOpsPerSec), t.rec.ops, t.wall.Seconds()))
	res.add("op_p50_us", medianFloat(p50s), "us", samples(whole50))
	res.add("op_p99_us", medianFloat(p99s), "us", samples(whole99))
	res.add("cpu_us_per_op", medianFloat(t.sliceCPUPerOp), "us",
		fmt.Sprintf("(user+sys, median of %d slices; whole phase %.4f)", len(t.sliceCPUPerOp), float64(t.cpu.Microseconds())/ops))
	res.add("alloc_bytes_per_op", float64(t.alloc)/ops, "B", "")
	res.add("peak_rss_mb", peakMB, "MB", "(VmHWM after the timed phase)")
	res.add("setup_s", medianFloat(setups), "s", fmt.Sprintf("(median of %d: %s)", len(setups), fmtFloats(setups)))
}

// slicePercentiles returns the p50 and p99 latency, in µs, of each
// slice of lat that ends (exclusive) at the op counts in ends; ok is
// false if a slice has fewer than ten samples beyond its p99.
func slicePercentiles(lat, ends []int64) (p50s, p99s []float64, ok bool) {
	ok = len(ends) > 0
	start := 0
	for _, e := range ends {
		end := min(int(e), len(lat))
		s := sortedCopy(lat[start:end])
		start = end
		p50, _ := percentile(s, 0.50)
		p99, ok99 := percentile(s, 0.99)
		ok = ok && ok99
		p50s, p99s = append(p50s, float64(p50)/1e3), append(p99s, float64(p99)/1e3)
	}
	return p50s, p99s, ok
}

func fmtFloats(xs []float64) string {
	var s []string
	for _, x := range xs {
		s = append(s, fmt.Sprintf("%.3f", x))
	}
	return strings.Join(s, " ")
}

// spanSums totals span counts, durations and self times by kind.
type spanSums struct {
	n, dur, self [numKinds]int64
	cmds         int64
}

func sumSpans(spans []span) spanSums {
	var s spanSums
	self := selfTimes(spans)
	for i, sp := range spans {
		s.n[sp.kind]++
		s.dur[sp.kind] += sp.end - sp.start
		s.self[sp.kind] += self[i]
		if sp.kind.isCmd() {
			s.cmds++
		}
	}
	return s
}

func usPer(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / 1e3 / float64(n)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// hostifSelf is the Push→Reap (or Env/Lookup) time outside Execute, per
// command.
func (s spanSums) hostifSelf() float64 {
	return usPer(s.self[kindQP]+s.self[kindEnv]+s.self[kindLookup], s.cmds)
}

// perLayer reports the per-layer metrics of traced run t (and the
// hostif self time of traced run h), against the untraced run base.
func perLayer(res *result, base, t, h *timedRun) {
	s := sumSpans(t.spans)
	c0, c1 := t.c0, t.c1
	dm := func(f func(ocssd.Stats) int64) int64 { return f(c1.media) - f(c0.media) }
	var mediaN, mediaNS int64
	for k := kindMediaRead; k < numKinds; k++ {
		mediaN, mediaNS = mediaN+s.n[k], mediaNS+s.self[k]
	}
	sectorsW := dm(func(m ocssd.Stats) int64 { return m.SectorsWritten })
	grants := c1.exec.Grants - c0.exec.Grants
	userWrites := c1.userWrites - c0.userWrites
	cmds := fmt.Sprintf("(%d commands)", s.cmds)

	res.add("hostif.self_us_per_cmd", sumSpans(h.spans).hostifSelf(), "us", "(Push→Reap minus Execute)")
	res.add("hostif.acq_per_grant", ratio(c1.exec.Acquisitions-c0.exec.Acquisitions, grants), "ratio", fmt.Sprintf("(%d grants)", grants))
	res.add("hostif.overlap_share", ratio(c1.exec.Overlapped-c0.exec.Overlapped, grants), "ratio", "")
	res.add("hostif.max_inflight", float64(c1.exec.MaxInflight), "count", "")
	res.add("ftl.self_us_per_cmd", usPer(s.self[kindExec], s.cmds), "us", "(Execute minus media calls)")
	res.add("ftl.write_amp", ratio(sectorsW, c1.userSectors-c0.userSectors), "ratio", "(media sectors written / sectors asked of the FTL)")
	res.add("ftl.gc_moved_per_write", ratio(c1.gcMoved-c0.gcMoved, userWrites), "ratio", fmt.Sprintf("(%d writes)", userWrites))
	res.add("ftl.wal_records_per_write", ratio(c1.walRecords-c0.walRecords, userWrites), "ratio", "")
	res.add("ftl.checkpoints", float64(c1.checkpoints-c0.checkpoints), "count", "")
	res.add("media.self_us_per_cmd", usPer(mediaNS, s.cmds), "us", cmds)
	res.add("media.read_us_per_call", usPer(s.self[kindMediaRead], s.n[kindMediaRead]), "us", fmt.Sprintf("(%d calls)", s.n[kindMediaRead]))
	res.add("media.write_us_per_call", usPer(s.self[kindMediaWrite], s.n[kindMediaWrite]), "us", fmt.Sprintf("(%d calls)", s.n[kindMediaWrite]))
	res.add("media.calls_per_cmd", ratio(mediaN, s.cmds), "ratio", "")
	res.add("media.read_bytes_per_cmd", ratio(dm(func(m ocssd.Stats) int64 { return m.SectorsRead })*pageBytes, s.cmds), "B", "")
	res.add("media.write_bytes_per_cmd", ratio(sectorsW*pageBytes, s.cmds), "B", "")
	res.add("media.pad_share", ratio(dm(func(m ocssd.Stats) int64 { return m.PadSectors }), sectorsW), "ratio", "")
	res.add("trace.overhead_share", 1-t.opsPerSec()/base.opsPerSec(), "ratio",
		fmt.Sprintf("(traced %.1f vs untraced %.1f ops/s)", t.opsPerSec(), base.opsPerSec()))

	// Layers only some workloads load: labelled, not in the JSON.
	for _, k := range []kind{kindMediaErase, kindMediaCopy} {
		if s.n[k] > 0 {
			res.label("%-28s %14.4f us     (%d calls)", "media."+strings.TrimPrefix(kindNames[k], "media-")+"_us_per_call", usPer(s.self[k], s.n[k]), s.n[k])
		}
	}
	if s.n[kindOp] > 0 {
		l0, l1 := c0.lsm, c1.lsm
		gets, puts := l1.Gets-l0.Gets, l1.Puts-l0.Puts
		probes := l1.BloomSkips - l0.BloomSkips + l1.BlockReads - l0.BlockReads
		res.label("%-28s %14.4f us     (DB call minus Env and Lookup calls; %d ops)", "lsm.self_us_per_op", usPer(s.self[kindOp], s.n[kindOp]), s.n[kindOp])
		res.label("%-28s %14.4f us", "lsm.env_us_per_op", usPer(s.dur[kindEnv], s.n[kindOp]))
		res.label("%-28s %14.4f ratio  (%d gets, %d puts)", "lsm.block_reads_per_get", ratio(l1.BlockReads-l0.BlockReads, gets), gets, puts)
		res.label("%-28s %14.4f ratio", "lsm.bloom_skip_share", ratio(l1.BloomSkips-l0.BloomSkips, probes))
		res.label("%-28s %14.4f ratio", "lsm.write_amp", ratio(l1.BytesFlushed-l0.BytesFlushed+l1.BytesCompacted-l0.BytesCompacted, c1.putBytes-c0.putBytes))
		res.label("%-28s %14d count", "lsm.compactions", l1.Compactions-l0.Compactions)
		res.label("%-28s %14.4f virt_ms", "lsm.stall_virt_ms", float64(l1.StallTime-l0.StallTime)/float64(vclock.Millisecond))
		o0, o1 := c0.offload, c1.offload
		res.label("%-28s %14.4f us     (%d calls)", "offload.get_us_per_call", usPer(s.dur[kindLookup], s.n[kindLookup]), s.n[kindLookup])
		res.label("%-28s %14.4f ratio", "offload.hit_share", ratio(o1.GetHits-o0.GetHits, o1.Gets-o0.Gets))
		res.label("%-28s %14.4f B", "offload.bytes_saved_per_get", ratio(o1.BytesSaved()-o0.BytesSaved(), o1.Gets-o0.Gets))
	}
	wallAccount(res, t)
}

// perLayerFabric reports block-fabric's layers: the loopback traced run
// gives every layer below the wire, the in-process replay of the same
// op stream the host-interface self time, and their difference the
// fabrics layer's.
func perLayerFabric(res *result, base, loop, inproc *timedRun) {
	perLayer(res, base, loop, inproc)
	ls, is := sumSpans(loop.spans), sumSpans(inproc.spans)
	self := usPer(ls.self[kindSession], ls.cmds) - is.hostifSelf()
	alloc := float64(loop.alloc)/float64(loop.rec.ops) - float64(inproc.alloc)/float64(inproc.rec.ops)
	res.label("%-28s %14.4f us     (loopback round trip minus Execute, less in-process Push→Reap minus Execute)", "fabrics.self_us_per_cmd", self)
	res.label("%-28s %14.4f B", "fabrics.alloc_bytes_per_cmd", alloc)
	res.label("%-28s %14d count", "fabrics.redials", loop.c1.redials-loop.c0.redials)
	wallAccount(res, inproc)
}

// wallAccount prints how the traced pass's wall time divides among the
// layers, with the time outside every span charged to the benchmark's
// own driver loop, and checks that the layer shares add up to the time
// the spans cover.
func wallAccount(res *result, t *timedRun) {
	shares, covered := wallShares(t.spans)
	wall := float64(t.wall.Nanoseconds())
	byLayer := map[string]float64{"bench-driver": wall - float64(covered)}
	var sum float64
	for k, v := range shares {
		byLayer[kind(k).layer()] += v
		sum += v
	}
	names := make([]string, 0, len(byLayer))
	for n := range byLayer {
		names = append(names, n)
	}
	sort.Strings(names)
	var parts []string
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", n, 100*byLayer[n]/wall))
	}
	res.label("wall account (%s pass, %.3f s): %s", transport(hasKind(t.spans, kindSession)), t.wall.Seconds(), strings.Join(parts, ", "))
	if d := sum - float64(covered); d > 1e-6*wall || d < -1e-6*wall {
		res.fail("wall account: layer shares %.0f ns != covered %d ns", sum, covered)
	}
}

func hasKind(spans []span, k kind) bool {
	for _, s := range spans {
		if s.kind == k {
			return true
		}
	}
	return false
}
