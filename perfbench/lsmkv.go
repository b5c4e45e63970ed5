package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/exp"
	"repro/internal/hostif"
	"repro/internal/lightlsm"
	"repro/internal/lsm"
	"repro/internal/ocssd"
	"repro/internal/vclock"
)

// lsmSize sizes the lsm-kv workload.
type lsmSize struct {
	rig             exp.RigConfig
	keys            int
	valueBytes      int
	getShare        float64
	poolValues      int
	streamLen       int
	memtableBytes   int64
	warmCompactions int64 // compactions to complete before timing
	warmMaxOps      int
}

// lsmWorkload runs the mini-RocksDB over LightLSM through a
// hostif.EnvClient, with point lookups offloaded into the device and
// compaction host-side: one client, one op at a time.
type lsmWorkload struct {
	sz      lsmSize
	seed    int64
	keys    [][]byte
	pool    []byte  // poolValues random values
	prefill []int32 // value of each key after the prefill
	ops     []lsmOp
}

type lsmOp struct {
	key   int32
	value int32 // value put, or -1 for a get
}

func newLSMWorkload(sz lsmSize, seed int64) *lsmWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &lsmWorkload{sz: sz, seed: seed, keys: make([][]byte, sz.keys),
		pool: make([]byte, sz.poolValues*sz.valueBytes), prefill: make([]int32, sz.keys), ops: make([]lsmOp, sz.streamLen)}
	rng.Read(w.pool)
	for i := range w.keys {
		w.keys[i] = []byte(fmt.Sprintf("key%08d", i))
		w.prefill[i] = int32(rng.Intn(sz.poolValues))
	}
	for i := range w.ops {
		op := lsmOp{key: int32(rng.Intn(sz.keys)), value: -1}
		if rng.Float64() >= sz.getShare {
			op.value = int32(rng.Intn(sz.poolValues))
		}
		w.ops[i] = op
	}
	return w
}

func (w *lsmWorkload) value(i int32) []byte {
	return w.pool[int(i)*w.sz.valueBytes : int(i+1)*w.sz.valueBytes]
}

type lsmPass struct {
	w  *lsmWorkload
	tr *tracer

	dev  *ocssd.Device
	env  *lightlsm.Env
	host *hostif.Host
	db   *lsm.DB

	now      vclock.Time
	shadow   []int32 // value of each key as last acknowledged
	dst      []byte
	next     int
	putBytes int64

	warmOps int
}

func (w *lsmWorkload) newPass(tr *tracer, _ bool) (pass, error) {
	dev, ctrl, err := buildMedia(w.sz.rig, tr, nil)
	if err != nil {
		return nil, err
	}
	env, err := lightlsm.New(ctrl, lightlsm.Config{Placement: lightlsm.Horizontal})
	if err != nil {
		return nil, err
	}
	p := &lsmPass{w: w, tr: tr, dev: dev, env: env,
		host:   hostif.NewHost(ctrl, hostif.HostConfig{ChargeHostLink: true}),
		shadow: make([]int32, len(w.keys)), dst: make([]byte, 0, w.sz.valueBytes)}
	var ns hostif.Namespace = hostif.NewLSMNamespace(env)
	if tr != nil {
		ns = &tracedNS{Namespace: ns, t: tr}
	}
	admin := p.host.Admin()
	nsid, err := admin.AttachNamespace(0, ns)
	if err != nil {
		p.close()
		return nil, err
	}
	qp, err := admin.CreateIOQueuePair(0, 1, hostif.ClassMedium)
	if err != nil {
		p.close()
		return nil, err
	}
	// The identity comes from the FTL itself: a wrapped namespace cannot
	// answer hostif's identify.
	cli := hostif.NewEnvClient(qp, nsid, hostif.NamespaceIdentity{BlockSize: env.BlockSize(), MaxTableBlocks: env.MaxTableBlocks()})
	opts := lsm.Options{Env: cli, MemtableBytes: w.sz.memtableBytes, Seed: w.seed, Lookup: cli.OffloadGet}
	if tr != nil {
		opts.Env = &tracedEnv{Env: cli, t: tr}
		opts.Lookup = tracedLookup(tr, cli.OffloadGet)
	}
	if p.db, err = lsm.Open(opts); err != nil {
		p.close()
		return nil, err
	}
	if err := p.fill(); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// fill puts every key once, then flushes and waits for compaction.
func (p *lsmPass) fill() error {
	var err error
	for i, v := range p.w.prefill {
		if p.now, err = p.db.Put(p.now, p.w.keys[i], p.w.value(v)); err != nil {
			return fmt.Errorf("prefill put %d: %w", i, err)
		}
		p.shadow[i] = v
	}
	if p.now, err = p.db.Flush(p.now); err != nil {
		return fmt.Errorf("prefill flush: %w", err)
	}
	p.now = p.db.WaitIdle(p.now)
	return nil
}

func (p *lsmPass) step(rec *recorder) error {
	w := p.w
	op := w.ops[p.next]
	p.next = (p.next + 1) % len(w.ops)
	key := w.keys[op.key]
	start := p.now
	t0 := time.Now()
	s := p.tr.open(kindOp, nil)
	var (
		got []byte
		end vclock.Time
		err error
	)
	if op.value >= 0 {
		end, err = p.db.Put(start, key, w.value(op.value))
	} else {
		got, end, err = p.db.GetInto(start, key, p.dst)
	}
	p.tr.close(s, nil)
	wall := time.Since(t0)
	st := hostif.StatusOK
	switch {
	case op.value >= 0 && err == nil:
		p.shadow[op.key] = op.value
		p.putBytes += int64(len(key) + w.sz.valueBytes)
	case errors.Is(err, lsm.ErrNotFound):
		rec.mismatch("get %s (op %d) found nothing; last put value %d", key, p.next-1, p.shadow[op.key])
	case err != nil:
		st = hostif.StatusOf(err)
	case !bytes.Equal(got, w.value(p.shadow[op.key])):
		rec.mismatch("get %s (op %d) returned a value other than its last put (value %d)", key, p.next-1, p.shadow[op.key])
	}
	if got != nil {
		p.dst = got[:0]
	}
	rec.done(wall, start, end, st, 0)
	p.now = end
	return nil
}

// warm runs until compaction has cycled warmCompactions times.
func (p *lsmPass) warm(rec *recorder) error {
	c0 := p.db.Stats().Compactions
	for p.warmOps = 0; p.warmOps < p.w.sz.warmMaxOps && p.db.Stats().Compactions-c0 < p.w.sz.warmCompactions; p.warmOps++ {
		if err := p.step(rec); err != nil {
			return err
		}
	}
	return nil
}

func (p *lsmPass) warmNote() string {
	return fmt.Sprintf("%d ops, %d compactions", p.warmOps, p.db.Stats().Compactions)
}

func (p *lsmPass) counters() (counters, error) {
	st := p.env.Stats()
	c := counters{media: p.dev.Stats(), userWrites: st.BlocksWritten,
		userSectors: st.BlocksWritten * int64(p.env.BlockSize()) / pageBytes,
		lsm:         p.db.Stats(), offload: p.env.Offload().Stats(), putBytes: p.putBytes}
	var err error
	c.exec, err = p.host.Admin().ExecutorStats(p.now)
	return c, err
}

func (p *lsmPass) close() {
	p.host.Close()
	p.dev.Close()
}
