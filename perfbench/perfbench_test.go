package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/hostif"
	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/vclock"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	var xs []int64
	for i := int64(1); i <= 1000; i++ {
		xs = append(xs, i)
	}
	if v, ok := percentile(xs, 0.50); v != 500 || !ok {
		t.Errorf("p50 of 1..1000 = %d, %v; want 500, true", v, ok)
	}
	if v, ok := percentile(xs, 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %d, %v; want 990, true (ten samples beyond)", v, ok)
	}
	if v, ok := percentile(xs[:999], 0.99); v != 990 || ok {
		t.Errorf("p99 of 1..999 = %d, %v; want 990, false (nine samples beyond)", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestSlicePercentilesSplitAtSliceEnds(t *testing.T) {
	// Two slices of 1000 samples: 1..1000 µs, then 1001..2000 µs.
	var lat []int64
	for i := int64(1); i <= 2000; i++ {
		lat = append(lat, i*1000)
	}
	p50s, p99s, ok := slicePercentiles(lat, []int64{1000, 2000})
	if !ok || !slices.Equal(p50s, []float64{500, 1500}) || !slices.Equal(p99s, []float64{990, 1990}) {
		t.Errorf("got p50s %v p99s %v ok %v; want [500 1500] [990 1990] true", p50s, p99s, ok)
	}
	// A 999-sample slice has only nine samples beyond its p99.
	if _, _, ok := slicePercentiles(lat, []int64{999, 2000}); ok {
		t.Error("a slice with nine samples beyond its p99 reported ok")
	}
	if _, _, ok := slicePercentiles(nil, nil); ok {
		t.Error("no slices reported ok")
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: noSpan, kind: kindQP},
		{start: 10, end: 40, parent: 0, kind: kindExec},
		{start: 30, end: 60, parent: 0, kind: kindExec},  // overlaps the first child
		{start: 90, end: 120, parent: 0, kind: kindExec}, // runs past its parent
	}
	self := selfTimes(spans)
	if want := []int64{40, 30, 30, 30}; !slices.Equal(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// Two commands in flight, their Execute spans overlapping on two
// workers: the per-span self times overlap too, but the wall shares
// partition the covered time exactly, and a command that is only
// waiting gets no share while the other one's Execute runs.
func TestWallSharesPartitionOverlappingExecutes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: noSpan, kind: kindQP},
		{start: 0, end: 100, parent: noSpan, kind: kindQP},
		{start: 10, end: 60, parent: 0, kind: kindExec},
		{start: 40, end: 90, parent: 1, kind: kindExec},
		{start: 20, end: 30, parent: 2, kind: kindMediaWrite},
	}
	shares, covered := wallShares(spans)
	if covered != 100 {
		t.Fatalf("covered %d, want 100", covered)
	}
	want := map[kind]float64{kindQP: 20, kindExec: 70, kindMediaWrite: 10}
	for k, v := range want {
		if shares[k] != v {
			t.Errorf("share of %s = %v, want %v", kindNames[k], shares[k], v)
		}
	}
	self := selfTimes(spans)
	if want := []int64{50, 50, 40, 50, 10}; !slices.Equal(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestTracerParentsOverlappingCommands(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	c1, c2 := &hostif.Command{}, &hostif.Command{}
	dom := new(int)
	q1 := tr.openCmd(kindQP, c1)
	q2 := tr.openCmd(kindQP, c2)
	e1 := tr.openExec(c1, hostif.GroupFootprint(dom, 0))
	e2 := tr.openExec(c2, hostif.GroupFootprint(dom, 3))
	m2 := tr.openMedia(kindMediaRead, 3)
	m1 := tr.openMedia(kindMediaWrite, 0)
	tr.closeMedia(m1)
	tr.closeMedia(m2)
	tr.closeExec(e2, hostif.GroupFootprint(dom, 3))
	tr.closeExec(e1, hostif.GroupFootprint(dom, 0))
	tr.closeCmd(q2, c2)
	tr.closeCmd(q1, c1)
	x := tr.openExec(&hostif.Command{}, hostif.ExclusiveFootprint(dom))
	mx := tr.openMedia(kindMediaErase, 5)
	tr.closeMedia(mx)
	tr.closeExec(x, hostif.ExclusiveFootprint(dom))

	parents := map[int32]int32{e1: q1, e2: q2, m1: e1, m2: e2, mx: x, q1: noSpan, q2: noSpan, x: noSpan}
	for s, p := range parents {
		if got := tr.spans[s].parent; got != p {
			t.Errorf("span %d (%s) parent %d, want %d", s, kindNames[tr.spans[s].kind], got, p)
		}
	}
	if tr.spans[m2].id != tr.spans[q2].id || tr.spans[m1].id != tr.spans[q1].id || tr.spans[q1].id == tr.spans[q2].id {
		t.Errorf("request ids not shared along each chain: %+v", tr.spans)
	}
}

// flipMedia corrupts one byte of every 4 KB read the device returns.
type flipMedia struct{ *ocssd.Device }

func (m flipMedia) VectorRead(now vclock.Time, ppas []ocssd.PPA, dst []byte) (vclock.Time, error) {
	end, err := m.Device.VectorRead(now, ppas, dst)
	if len(dst) == pageBytes {
		dst[len(dst)/2] ^= 0x20
	}
	return end, err
}

func TestOutputCheckRejectsFlippedByte(t *testing.T) {
	sp, _ := lookupSpec("block-oltp")
	for _, corrupt := range []bool{false, true} {
		w := sp.build(1, true).(*blockWorkload)
		if corrupt {
			w.wrapMedia = func(d *ocssd.Device) ox.Media { return flipMedia{d} }
		}
		p, err := w.newPass(nil, false)
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder(0)
		for i := 0; i < 2000; i++ {
			if err := p.step(rec); err != nil {
				t.Fatal(err)
			}
		}
		p.close()
		if got := rec.mismatched > 0; got != corrupt {
			t.Errorf("corrupt=%v: %d mismatches of %d ops", corrupt, rec.mismatched, rec.attempted)
		}
	}
}

// benchmarkMetrics reads the metric names the benchmark declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	for _, m := range decl.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range decl.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	slices.Sort(endToEnd)
	slices.Sort(perLayer)
	return endToEnd, perLayer
}

func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			res, err := run(config{workload: sp.name, seed: 3, seconds: 1.5, trace: trace, traceDir: t.TempDir(), tiny: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d\n%v", sp.name, trace, res.correct, res.failed, res.attempted, res.labels)
			}
			var names []string
			for _, m := range res.metrics {
				names = append(names, m.name)
			}
			slices.Sort(names)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !slices.Equal(names, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", sp.name, trace, names, want)
			}
		}
	}
}
