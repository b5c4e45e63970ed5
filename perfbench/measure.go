package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/hostif"
	"repro/internal/vclock"
)

// recorder counts and checks every op a pass runs. While timing is on
// it also keeps each op's wall latency and folds the op's virtual
// completion into the pass's digest.
type recorder struct {
	timing bool
	lat    []int64 // wall ns per timed op

	attempted, failed, mismatched int64
	examples                      []string // first mismatches

	ops    int64 // timed ops folded into digest
	digest uint64
	snapAt int64 // op count at which snap is taken
	snap   uint64

	vstart, vend vclock.Time // virtual span of the timed ops
}

const fnvOffset = 14695981039346656037

func newRecorder(latCap int) *recorder {
	return &recorder{lat: make([]int64, 0, latCap), digest: fnvOffset, snap: fnvOffset}
}

// done records one completed op: its wall latency, virtual submission
// and completion instants, status and an op-specific value (a zone
// append's offset) that joins the digest.
func (r *recorder) done(wall time.Duration, submitted, doneAt vclock.Time, st hostif.Status, extra int64) {
	r.attempted++
	if st != hostif.StatusOK {
		r.failed++
	}
	if !r.timing {
		return
	}
	if r.ops == 0 || submitted < r.vstart {
		r.vstart = submitted
	}
	if doneAt > r.vend {
		r.vend = doneAt
	}
	r.lat = append(r.lat, int64(wall))
	r.digest = mix(mix(mix(r.digest, uint64(doneAt)), uint64(st)), uint64(extra))
	r.ops++
	if r.ops == r.snapAt {
		r.snap = r.digest
	}
}

// mismatch records an op whose output disagreed with the shadow copy,
// keeping the first few descriptions for the report.
func (r *recorder) mismatch(format string, args ...any) {
	r.mismatched++
	if len(r.examples) < 3 {
		r.examples = append(r.examples, fmt.Sprintf(format, args...))
	}
}

// digestAt returns the digest over the first n timed ops, which must be
// the snapshot point or the full count.
func (r *recorder) digestAt(n int64) (uint64, bool) {
	switch n {
	case r.ops:
		return r.digest, true
	case r.snapAt:
		return r.snap, r.ops >= n
	}
	return 0, false
}

// virtOpsPerSec is the model's answer: timed ops per virtual second.
func (r *recorder) virtOpsPerSec() float64 {
	d := r.vend.Sub(r.vstart)
	if d <= 0 {
		return 0
	}
	return float64(r.ops) / (float64(d) / float64(vclock.Second))
}

// mix folds v into an FNV-1a style 64-bit hash, eight bytes at a time.
func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// percentile returns the nearest-rank q-quantile of sorted samples. ok
// is false unless at least ten samples lie beyond the selected rank, so
// a tail percentile is only reported when the sample supports it.
func percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n-rank >= 10
}

func sortedCopy(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func medianFloat(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-memory high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
