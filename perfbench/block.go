package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/exp"
	"repro/internal/fabrics"
	"repro/internal/hostif"
	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/oxblock"
	"repro/internal/vclock"
)

const pageBytes = 4096

// blockSize sizes the OX-Block workloads (block-oltp and block-fabric).
type blockSize struct {
	rig          exp.RigConfig
	logicalPages int64 // 0 selects the FTL default, 70% of physical
	writeShare   float64
	ckpt         vclock.Duration
	poolPages    int
	txnPages     int // prefill transaction size
	streamLen    int
	// Warm-up: windows of warmWindow ops until GC moves per write level
	// off (within warmTol of the previous window), at most warmMax
	// windows; or exactly warmFixed ops when the workload has no GC to
	// wait for.
	warmWindow, warmMax, warmFixed int
	warmTol                        float64
}

// blockWorkload is a closed loop of 4 KB reads and writes over OX-Block
// from one driver goroutine and one queue pair of depth 1, in-process
// (block-oltp) or over the fabrics loopback (block-fabric).
type blockWorkload struct {
	sz blockSize
	// wrapMedia, when set, interposes on the device of untraced passes
	// (the output-check test corrupts reads through it).
	wrapMedia func(*ocssd.Device) ox.Media

	pool    []byte  // poolPages random 4 KB payloads
	prefill []int32 // first pool page of each prefill transaction
	ops     []blockOp
}

type blockOp struct {
	lpn     int32
	payload int32 // pool page written, or -1 for a read
}

func newBlockWorkload(sz blockSize, seed int64) *blockWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &blockWorkload{sz: sz, pool: make([]byte, sz.poolPages*pageBytes)}
	rng.Read(w.pool)
	pages := w.logicalPages()
	for lpn := int64(0); lpn < pages; lpn += int64(sz.txnPages) {
		w.prefill = append(w.prefill, int32(rng.Intn(sz.poolPages-sz.txnPages+1)))
	}
	w.ops = make([]blockOp, sz.streamLen)
	for i := range w.ops {
		op := blockOp{lpn: int32(rng.Int63n(pages)), payload: -1}
		if rng.Float64() < sz.writeShare {
			op.payload = int32(rng.Intn(sz.poolPages))
		}
		w.ops[i] = op
	}
	return w
}

// logicalPages resolves the exposed capacity the way oxblock does.
func (w *blockWorkload) logicalPages() int64 {
	if w.sz.logicalPages > 0 {
		return w.sz.logicalPages
	}
	rc := w.sz.rig
	sectorsPerChunk := int64(rc.PagesPerBlock) * 2 * 4
	return int64(rc.Groups*rc.PUsPerGroup*rc.ChunksPerPU) * sectorsPerChunk * 7 / 10
}

func (w *blockWorkload) page(i int32) []byte {
	return w.pool[int(i)*pageBytes : int(i+1)*pageBytes]
}

// queue is the closed-loop driver's view of a queue pair, in-process
// (*hostif.QueuePair) or over the wire (*fabrics.QueuePair).
type queue interface {
	AcquireCommand() *hostif.Command
	Push(now vclock.Time, cmd *hostif.Command) error
	Reap() (hostif.Completion, bool)
}

type blockPass struct {
	w    *blockWorkload
	tr   *tracer
	kind kind // span kind of one Push→Reap

	dev  *ocssd.Device
	ftl  *oxblock.Device
	host *hostif.Host
	srv  *fabrics.Server
	fqp  *fabrics.QueuePair
	q    queue
	nsid int

	now    vclock.Time
	shadow []int32 // pool page last acknowledged per logical page
	next   int
	writes int64

	warmWindows int
	warmMoved   float64
	levelled    bool
}

// buildMedia builds the rig's device and a controller over it, with the
// device wrapped for tracing when tr is set, else by wrap when set.
func buildMedia(rc exp.RigConfig, tr *tracer, wrap func(*ocssd.Device) ox.Media) (*ocssd.Device, *ox.Controller, error) {
	dev, ctrl, err := rc.Build()
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		wrap = func(d *ocssd.Device) ox.Media { return &tracedMedia{dev: d, t: tr} }
	}
	if wrap != nil {
		ctrl, err = ox.NewController(ox.DefaultConfig(), wrap(dev))
	}
	return dev, ctrl, err
}

func (w *blockWorkload) newPass(tr *tracer, loopback bool) (pass, error) {
	dev, ctrl, err := buildMedia(w.sz.rig, tr, w.wrapMedia)
	if err != nil {
		return nil, err
	}
	ftl, _, _, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: w.logicalPages(), CheckpointInterval: w.sz.ckpt}, 0)
	if err != nil {
		return nil, err
	}
	p := &blockPass{w: w, tr: tr, kind: kindQP, dev: dev, ftl: ftl,
		host: hostif.NewHost(ctrl, hostif.HostConfig{}), shadow: make([]int32, w.logicalPages())}
	var ns hostif.Namespace = hostif.NewBlockNamespace(ftl)
	if tr != nil {
		ns = &tracedNS{Namespace: ns, t: tr}
	}
	admin := p.host.Admin()
	if p.nsid, err = admin.AttachNamespace(0, ns); err != nil {
		p.close()
		return nil, err
	}
	if loopback {
		p.kind = kindSession
		p.srv = fabrics.NewServer(p.host)
		p.fqp, err = fabrics.Loopback(p.srv).QueuePair(0, 1, hostif.ClassMedium, 1)
		p.q = p.fqp
	} else {
		p.q, err = admin.CreateIOQueuePair(0, 1, hostif.ClassMedium)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	if err := p.fill(); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// fill writes the whole logical space once in large transactions.
func (p *blockPass) fill() error {
	w := p.w
	n := int32(w.sz.txnPages)
	for t, first := range w.prefill {
		lpn := int64(t) * int64(n)
		pages := min(n, int32(int64(len(p.shadow))-lpn))
		cmd := p.q.AcquireCommand()
		*cmd = hostif.Command{Op: hostif.OpWrite, NSID: p.nsid, LPN: lpn,
			Data: w.pool[int(first)*pageBytes : int(first+pages)*pageBytes]}
		comp, err := p.roundTrip(cmd)
		if err != nil {
			return err
		}
		if comp.Err != nil {
			return fmt.Errorf("prefill write at %d: %w", lpn, comp.Err)
		}
		for i := int32(0); i < pages; i++ {
			p.shadow[lpn+int64(i)] = first + i
		}
		p.now = comp.Done
	}
	return nil
}

func (p *blockPass) roundTrip(cmd *hostif.Command) (hostif.Completion, error) {
	if err := p.q.Push(p.now, cmd); err != nil {
		return hostif.Completion{}, err
	}
	comp, ok := p.q.Reap()
	if !ok {
		return comp, fmt.Errorf("no completion for %v at lpn %d", cmd.Op, cmd.LPN)
	}
	return comp, nil
}

func (p *blockPass) step(rec *recorder) error {
	w := p.w
	op := w.ops[p.next]
	p.next = (p.next + 1) % len(w.ops)
	cmd := p.q.AcquireCommand()
	if op.payload >= 0 {
		*cmd = hostif.Command{Op: hostif.OpWrite, NSID: p.nsid, LPN: int64(op.lpn), Data: w.page(op.payload)}
		p.writes++
	} else {
		*cmd = hostif.Command{Op: hostif.OpRead, NSID: p.nsid, LPN: int64(op.lpn), Pages: 1}
	}
	t0 := time.Now()
	s := p.tr.open(p.kind, cmd)
	comp, err := p.roundTrip(cmd)
	p.tr.close(s, cmd)
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	switch {
	case comp.Err != nil:
	case op.payload >= 0:
		p.shadow[op.lpn] = op.payload
	case !bytes.Equal(comp.Data, w.page(p.shadow[op.lpn])):
		rec.mismatch("read of lpn %d returned data other than its last acknowledged write", op.lpn)
	}
	rec.done(wall, comp.Submitted, comp.Done, comp.Status, 0)
	p.now = comp.Done
	return nil
}

// warm runs until GC moves per write level off, or a fixed op count.
func (p *blockPass) warm(rec *recorder) error {
	sz := p.w.sz
	for i := 0; i < sz.warmFixed; i++ {
		if err := p.step(rec); err != nil {
			return err
		}
	}
	prev := -1.0
	for p.warmWindows = 0; p.warmWindows < sz.warmMax && !p.levelled; p.warmWindows++ {
		moved0, writes0 := p.ftl.GCStats().SectorsMoved, p.writes
		for i := 0; i < sz.warmWindow; i++ {
			if err := p.step(rec); err != nil {
				return err
			}
		}
		p.warmMoved = float64(p.ftl.GCStats().SectorsMoved-moved0) / float64(max(p.writes-writes0, 1))
		p.levelled = p.warmMoved > 0 && prev > 0 && math.Abs(p.warmMoved-prev) <= sz.warmTol*prev
		prev = p.warmMoved
	}
	return nil
}

func (p *blockPass) warmNote() string {
	if p.w.sz.warmWindow == 0 {
		return fmt.Sprintf("fixed %d ops", p.w.sz.warmFixed)
	}
	return fmt.Sprintf("%d windows of %d ops, gc moved/write %.3f, levelled %v",
		p.warmWindows, p.w.sz.warmWindow, p.warmMoved, p.levelled)
}

func (p *blockPass) counters() (counters, error) {
	c := counters{media: p.dev.Stats(), userWrites: p.writes, userSectors: p.ftl.Stats().PagesWritten,
		gcMoved: p.ftl.GCStats().SectorsMoved, walRecords: p.ftl.WALRecords(), checkpoints: p.ftl.Stats().Checkpoints}
	var err error
	c.exec, err = p.host.Admin().ExecutorStats(p.now)
	if p.fqp != nil {
		c.redials = int64(p.fqp.Stats().Redials)
	}
	return c, err
}

func (p *blockPass) close() {
	if p.fqp != nil {
		p.fqp.Close()
	}
	if p.srv != nil {
		p.srv.Close()
	}
	p.host.Close()
	p.dev.Close()
}
