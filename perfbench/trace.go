package main

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hostif"
)

// kind names the call a span wraps.
type kind uint8

const (
	kindOp         kind = iota // one KV operation: an lsm.DB call
	kindEnv                    // an lsm.Env (or TableWriter) call through hostif.EnvClient
	kindLookup                 // the lsm.Options.Lookup hook (offloaded get)
	kindQP                     // hostif.QueuePair Push→Reap
	kindSession                // fabrics.QueuePair Push→Reap (wire round trip)
	kindExec                   // hostif.Namespace.Execute
	kindMediaRead              // ox.Media VectorRead
	kindMediaWrite             // ox.Media VectorWrite, Append, Pad
	kindMediaErase             // ox.Media Reset
	kindMediaCopy              // ox.Media Copy
	numKinds
)

var kindNames = [numKinds]string{"op", "env", "lookup", "qp", "session", "exec",
	"media-read", "media-write", "media-erase", "media-copy"}

// layer maps a span kind to the simulator layer whose self time it
// measures.
func (k kind) layer() string {
	switch k {
	case kindOp:
		return "lsm"
	case kindEnv, kindLookup, kindQP:
		return "hostif"
	case kindSession:
		return "fabrics+hostif"
	case kindExec:
		return "ftl"
	default:
		return "media"
	}
}

// isCmd reports whether a span is one host-interface command round trip.
func (k kind) isCmd() bool {
	return k == kindEnv || k == kindLookup || k == kindQP || k == kindSession
}

// span is one traced call: its wall interval in nanoseconds since the
// tracer's base, the span that caused it (-1 for a root) and the id of
// the request it belongs to, shared by every span of that request.
type span struct {
	start, end int64
	id         int64
	parent     int32
	kind       kind
}

const noSpan = -1

// tracer records spans in memory while it is on. Driver-goroutine
// spans nest on a stack; Execute spans, which the pipelined engine may
// run on worker goroutines, find their parent through the command
// pointer (or the stack), and media spans through the device group of
// the Execute that is open on it. The engine never runs two commands
// with conflicting footprints at once, so at most one Execute is open
// per group, or a single exclusive one.
type tracer struct {
	on   atomic.Bool
	base time.Time

	mu        sync.Mutex
	spans     []span
	stack     []int32
	byCmd     map[*hostif.Command]int32
	byGroup   [64]int32
	exclusive int32
	nextID    int64
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), byCmd: make(map[*hostif.Command]int32), exclusive: noSpan}
	for g := range t.byGroup {
		t.byGroup[g] = noSpan
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add appends a span; caller holds mu.
func (t *tracer) add(k kind, parent int32, start int64) int32 {
	id := t.nextID
	if parent != noSpan {
		id = t.spans[parent].id
	} else {
		t.nextID++
	}
	t.spans = append(t.spans, span{start: start, id: id, parent: parent, kind: k})
	return int32(len(t.spans) - 1)
}

func (t *tracer) top() int32 {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return noSpan
}

// recording reports whether spans are being recorded. Every open
// method returns noSpan when they are not (including on a nil tracer,
// which untraced passes hold), and every close method ignores noSpan.
func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// open starts a driver-goroutine span nested in the innermost open one.
// cmd, when non-nil, lets the command's Execute find this span.
func (t *tracer) open(k kind, cmd *hostif.Command) int32 {
	if !t.recording() {
		return noSpan
	}
	start := t.now()
	t.mu.Lock()
	i := t.add(k, t.top(), start)
	t.stack = append(t.stack, i)
	if cmd != nil {
		t.byCmd[cmd] = i
	}
	t.mu.Unlock()
	return i
}

// close ends the innermost driver-goroutine span i.
func (t *tracer) close(i int32, cmd *hostif.Command) {
	if i == noSpan {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].end = end
	t.stack = t.stack[:len(t.stack)-1]
	if cmd != nil {
		delete(t.byCmd, cmd)
	}
	t.mu.Unlock()
}

// openCmd starts a root span for a command that overlaps other
// commands in flight (one driver goroutine, several queue pairs).
func (t *tracer) openCmd(k kind, cmd *hostif.Command) int32 {
	if !t.recording() {
		return noSpan
	}
	start := t.now()
	t.mu.Lock()
	i := t.add(k, noSpan, start)
	t.byCmd[cmd] = i
	t.mu.Unlock()
	return i
}

func (t *tracer) closeCmd(i int32, cmd *hostif.Command) {
	if i == noSpan {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].end = end
	delete(t.byCmd, cmd)
	t.mu.Unlock()
}

// openExec starts an Execute span and registers it on the device
// groups of its footprint (all groups when exclusive).
func (t *tracer) openExec(cmd *hostif.Command, fp hostif.Footprint) int32 {
	if !t.recording() {
		return noSpan
	}
	start := t.now()
	t.mu.Lock()
	parent, ok := t.byCmd[cmd]
	if !ok {
		parent = t.top()
	}
	i := t.add(kindExec, parent, start)
	if exclusiveFootprint(fp) {
		t.exclusive = i
	} else {
		for g := range t.byGroup {
			if fp.Groups&(1<<uint(g)) != 0 {
				t.byGroup[g] = i
			}
		}
	}
	t.mu.Unlock()
	return i
}

func (t *tracer) closeExec(i int32, fp hostif.Footprint) {
	if i == noSpan {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].end = end
	if exclusiveFootprint(fp) {
		t.exclusive = noSpan
	} else {
		for g := range t.byGroup {
			if fp.Groups&(1<<uint(g)) != 0 {
				t.byGroup[g] = noSpan
			}
		}
	}
	t.mu.Unlock()
}

// exclusiveFootprint mirrors hostif's normalization of unknown
// footprints to exclusive.
func exclusiveFootprint(fp hostif.Footprint) bool {
	return fp.Exclusive || fp.Domain == nil || fp.Groups == 0
}

// openMedia starts a media span under the Execute open on group g.
func (t *tracer) openMedia(k kind, g int) int32 {
	if !t.recording() {
		return noSpan
	}
	start := t.now()
	t.mu.Lock()
	parent := t.exclusive
	if g >= 0 && g < len(t.byGroup) && t.byGroup[g] != noSpan {
		parent = t.byGroup[g]
	}
	if parent == noSpan {
		parent = t.top()
	}
	i := t.add(k, parent, start)
	t.mu.Unlock()
	return i
}

func (t *tracer) closeMedia(i int32) {
	if i == noSpan {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].end = end
	t.mu.Unlock()
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its children cover. Children of one parent may
// overlap each other (their union is subtracted, not their sum).
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent != noSpan {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var ivs [][2]int64
	for i, s := range spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self[i] = s.end - s.start - unionLen(ivs)
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// wallShares partitions the wall time covered by spans among span
// kinds. Each instant goes to the open spans that have no open child
// (the innermost work), split evenly when several run at once, except
// that a root span with no open child does not share an instant with
// deeper work: a command waiting in a queue while workers execute
// others is not where that instant went. The shares sum to the length
// of the union of all spans, so together with the uncovered remainder
// they account for the whole traced wall time, even where worker
// goroutines overlap Execute spans.
func wallShares(spans []span) (shares [numKinds]float64, covered int64) {
	type event struct {
		at    int64
		span  int32
		start bool
	}
	evs := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		evs = append(evs, event{s.start, int32(i), true}, event{s.end, int32(i), false})
	}
	slices.SortFunc(evs, func(a, b event) int { return cmp.Compare(a.at, b.at) })
	active := make([]bool, len(spans))
	openKids := make([]int32, len(spans))
	// Open leaves by kind, roots and inner spans apart.
	var leaves [2][numKinds]int
	var total [2]int
	isLeaf := func(i int32) bool { return active[i] && openKids[i] == 0 }
	setLeaf := func(i int32, d int) {
		inner := 0
		if spans[i].parent != noSpan {
			inner = 1
		}
		leaves[inner][spans[i].kind] += d
		total[inner] += d
	}
	last := int64(0)
	for _, e := range evs {
		if d := e.at - last; d > 0 && total[0]+total[1] > 0 {
			covered += d
			set := 1
			if total[1] == 0 {
				set = 0
			}
			for k, n := range leaves[set] {
				shares[k] += float64(d) * float64(n) / float64(total[set])
			}
		}
		last = e.at
		i, p := e.span, spans[e.span].parent
		if e.start {
			if p != noSpan {
				if isLeaf(p) {
					setLeaf(p, -1)
				}
				openKids[p]++
			}
			active[i] = true
			if isLeaf(i) {
				setLeaf(i, 1)
			}
			continue
		}
		if isLeaf(i) {
			setLeaf(i, -1)
		}
		active[i] = false
		if p != noSpan {
			openKids[p]--
			if isLeaf(p) {
				setLeaf(p, 1)
			}
		}
	}
	return shares, covered
}

// writeSpans writes spans as fixed 32-byte little-endian records:
// start ns, end ns, request id (int64 each), parent index (int32),
// kind (uint8) and three bytes of padding.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var rec [32]byte
	for _, s := range spans {
		binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[8:], uint64(s.end))
		binary.LittleEndian.PutUint64(rec[16:], uint64(s.id))
		binary.LittleEndian.PutUint32(rec[24:], uint32(s.parent))
		rec[28] = byte(s.kind)
		if _, err := w.Write(rec[:]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
