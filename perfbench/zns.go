package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/hostif"
	"repro/internal/ocssd"
	"repro/internal/vclock"
	"repro/internal/zns"
)

// znsSize sizes the zns-stream workload.
type znsSize struct {
	rig         exp.RigConfig
	appendShare float64
	poolUnits   int
	streamLen   int
}

// unitBytes is the rigs' unit of write: two planes of TLC pages of
// four 4 KB sectors (96 KB), the OX-ZNS block size.
const unitBytes = 2 * 3 * 4 * pageBytes

// znsWorkload drives OX-ZNS from one driver goroutine with one queue
// pair per device group. Each round pushes one command on every group,
// then reaps them in group order, so the batched engine overlaps the
// groups' commands on its workers.
type znsWorkload struct {
	sz   znsSize
	pool []byte // poolUnits random write units
	ops  []znsOp
}

type znsOp struct {
	append bool
	r      uint32 // picks the payload of an append or the target of a read
}

func newZNSWorkload(sz znsSize, seed int64) *znsWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &znsWorkload{sz: sz, pool: make([]byte, sz.poolUnits*unitBytes), ops: make([]znsOp, sz.streamLen)}
	rng.Read(w.pool)
	for i := range w.ops {
		w.ops[i] = znsOp{append: rng.Float64() < sz.appendShare, r: rng.Uint32()}
	}
	return w
}

func (w *znsWorkload) unit(i int32) []byte {
	return w.pool[int(i)*unitBytes : int(i+1)*unitBytes]
}

type znsPass struct {
	w  *znsWorkload
	tr *tracer

	dev  *ocssd.Device
	host *hostif.Host
	qps  []*hostif.QueuePair

	zones  [][]int   // zone indices per group, in ring order
	units  int       // write units per zone
	shadow [][]int32 // pool unit appended at each unit offset, per zone
	filled []int     // written units per group
	cur    []int     // ring position of the zone each group appends to
	resets []int     // zone resets per group
	now    []vclock.Time
	next   int

	filling bool // every op appends

	appends int64
	inRound []znsCmd
}

type znsCmd struct {
	cmd     *hostif.Command
	zone    int
	payload int32
	span    int32
	t0      time.Time
}

func (w *znsWorkload) newPass(tr *tracer, _ bool) (pass, error) {
	dev, ctrl, err := buildMedia(w.sz.rig, tr, nil)
	if err != nil {
		return nil, err
	}
	tgt, err := zns.New(ctrl, zns.Config{})
	if err != nil {
		return nil, err
	}
	if tgt.BlockSize() != unitBytes {
		return nil, fmt.Errorf("zns block size %d, want %d", tgt.BlockSize(), unitBytes)
	}
	if !tgt.ConcurrentWriteSafe() {
		return nil, fmt.Errorf("zns target is not concurrent-write safe; groups would serialize")
	}
	groups := w.sz.rig.Groups
	p := &znsPass{w: w, tr: tr, dev: dev,
		host:  hostif.NewHost(ctrl, hostif.HostConfig{Executor: hostif.ExecutorBatched, Workers: runtime.GOMAXPROCS(0)}),
		zones: make([][]int, groups), units: int(tgt.ZoneCapacity() / unitBytes), shadow: make([][]int32, tgt.Zones()),
		filled: make([]int, groups), cur: make([]int, groups), resets: make([]int, groups),
		now: make([]vclock.Time, groups), inRound: make([]znsCmd, groups)}
	for _, zi := range tgt.Report() {
		p.zones[zi.Group] = append(p.zones[zi.Group], zi.Index)
	}
	var ns hostif.Namespace = hostif.NewZoneNamespace(tgt)
	if tr != nil {
		ns = &tracedNS{Namespace: ns, t: tr}
	}
	admin := p.host.Admin()
	nsid, err := admin.AttachNamespace(0, ns)
	if err != nil || nsid != 1 {
		p.close()
		return nil, fmt.Errorf("attaching zns namespace: nsid %d: %v", nsid, err)
	}
	for g := 0; g < groups; g++ {
		qp, err := admin.CreateIOQueuePair(0, 1, hostif.ClassMedium)
		if err != nil {
			p.close()
			return nil, err
		}
		p.qps = append(p.qps, qp)
	}
	if err := p.fill(); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// fill appends to every zone until each group's ring is full.
func (p *znsPass) fill() error {
	rec := newRecorder(0)
	p.filling = true
	for u := 0; u < len(p.zones[0])*p.units; u++ {
		if err := p.step(rec); err != nil {
			return err
		}
	}
	p.filling = false
	if rec.failed+rec.mismatched > 0 {
		return fmt.Errorf("zns prefill: %d failed, %d mismatched appends %v", rec.failed, rec.mismatched, rec.examples)
	}
	return nil
}

// plan fills the next command for group g: an append at the group's
// current zone (resetting the next zone of the ring first when it still
// holds data from the previous pass) or a one-unit read of data the
// group has written.
func (p *znsPass) plan(g int, op znsOp, c *znsCmd) {
	zs := p.zones[g]
	*c.cmd = hostif.Command{NSID: 1}
	c.zone = -1
	if op.append || p.filling || p.filled[g] == 0 {
		z := zs[p.cur[g]]
		if len(p.shadow[z]) == p.units {
			p.cur[g] = (p.cur[g] + 1) % len(zs)
			z = zs[p.cur[g]]
		}
		c.zone = z
		c.cmd.Zone = z
		if len(p.shadow[z]) == p.units { // the previous pass's data
			c.cmd.Op = hostif.OpZoneReset
			return
		}
		c.payload = int32(op.r % uint32(p.w.sz.poolUnits))
		c.cmd.Op = hostif.OpZoneAppend
		c.cmd.Data = p.w.unit(c.payload)
		return
	}
	i := int(op.r) % len(zs)
	for len(p.shadow[zs[i]]) == 0 {
		i = (i + 1) % len(zs)
	}
	z := zs[i]
	u := int(op.r>>16) % len(p.shadow[z])
	c.payload = p.shadow[z][u]
	*c.cmd = hostif.Command{Op: hostif.OpRead, NSID: 1, Zone: z, LPN: int64(u) * unitBytes, Length: unitBytes}
}

// step runs one round: a command per group, pushed together, reaped in
// group order.
func (p *znsPass) step(rec *recorder) error {
	for g, qp := range p.qps {
		c := &p.inRound[g]
		c.cmd = qp.AcquireCommand()
		p.plan(g, p.w.ops[p.next], c)
		p.next = (p.next + 1) % len(p.w.ops)
		c.t0 = time.Now()
		c.span = p.tr.openCmd(kindQP, c.cmd)
		if err := qp.Push(p.now[g], c.cmd); err != nil {
			return err
		}
	}
	for g, qp := range p.qps {
		c := &p.inRound[g]
		comp, ok := qp.Reap()
		p.tr.closeCmd(c.span, c.cmd)
		wall := time.Since(c.t0)
		if !ok {
			return fmt.Errorf("zns: no completion on group %d", g)
		}
		var extra int64
		if comp.Err == nil {
			switch comp.Op {
			case hostif.OpZoneAppend:
				extra = comp.Offset
				if comp.Offset != int64(len(p.shadow[c.zone]))*unitBytes {
					rec.mismatch("append to zone %d landed at %d, want %d", c.zone, comp.Offset, len(p.shadow[c.zone])*unitBytes)
				} else {
					p.shadow[c.zone] = append(p.shadow[c.zone], c.payload)
					p.filled[g]++
					p.appends++
				}
			case hostif.OpZoneReset:
				p.resets[g]++
				p.filled[g] -= len(p.shadow[c.zone])
				p.shadow[c.zone] = p.shadow[c.zone][:0]
			case hostif.OpRead:
				if !bytes.Equal(comp.Data, p.w.unit(c.payload)) {
					rec.mismatch("read of zone %d at %d returned data other than its append", c.zone, c.cmd.LPN)
				}
			}
		}
		rec.done(wall, comp.Submitted, comp.Done, comp.Status, extra)
		p.now[g] = comp.Done
	}
	return nil
}

// warm runs rounds until every group has reset and rewritten each zone
// of its ring once.
func (p *znsPass) warm(rec *recorder) error {
	for g := 0; g < len(p.qps); {
		if p.resets[g] < len(p.zones[g]) {
			if err := p.step(rec); err != nil {
				return err
			}
			continue
		}
		g++
	}
	return nil
}

func (p *znsPass) warmNote() string {
	return fmt.Sprintf("every group wrapped its ring of %d zones", len(p.zones[0]))
}

func (p *znsPass) counters() (counters, error) {
	c := counters{media: p.dev.Stats(), userWrites: p.appends, userSectors: p.appends * unitBytes / pageBytes}
	var err error
	c.exec, err = p.host.Admin().ExecutorStats(p.maxNow())
	return c, err
}

func (p *znsPass) maxNow() vclock.Time {
	var m vclock.Time
	for _, t := range p.now {
		m = max(m, t)
	}
	return m
}

func (p *znsPass) close() {
	p.host.Close()
	p.dev.Close()
}
