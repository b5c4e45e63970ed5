package main

import (
	"repro/internal/hostif"
	"repro/internal/lsm"
	"repro/internal/ocssd"
	"repro/internal/ox"
	"repro/internal/vclock"
)

// tracedMedia wraps the device handed to ox.NewController, recording a
// span around every data-path call while the tracer is on. It forwards
// the optional extensions other layers type-assert: zns.Target checks
// WriteCacheEnabled to decide whether zone writes may overlap, and the
// admin log pages read Stats and FaultLog. Dropping any of them would
// change what runs under the traced pass.
type tracedMedia struct {
	dev *ocssd.Device
	t   *tracer
}

var _ ox.Media = (*tracedMedia)(nil)

func (m *tracedMedia) Geometry() ocssd.Geometry { return m.dev.Geometry() }
func (m *tracedMedia) WriteCacheEnabled() bool  { return m.dev.WriteCacheEnabled() }
func (m *tracedMedia) Stats() ocssd.Stats       { return m.dev.Stats() }
func (m *tracedMedia) FaultLog() ocssd.FaultLog { return m.dev.FaultLog() }

func (m *tracedMedia) Chunk(id ocssd.ChunkID) (ocssd.ChunkInfo, error) { return m.dev.Chunk(id) }
func (m *tracedMedia) Report() []ocssd.ChunkInfo                       { return m.dev.Report() }

func ppaGroup(ppas []ocssd.PPA) int {
	if len(ppas) == 0 {
		return -1
	}
	return ppas[0].Group
}

func (m *tracedMedia) VectorWrite(now vclock.Time, ppas []ocssd.PPA, data []byte) (vclock.Time, error) {
	s := m.t.openMedia(kindMediaWrite, ppaGroup(ppas))
	end, err := m.dev.VectorWrite(now, ppas, data)
	m.t.closeMedia(s)
	return end, err
}

func (m *tracedMedia) VectorRead(now vclock.Time, ppas []ocssd.PPA, dst []byte) (vclock.Time, error) {
	s := m.t.openMedia(kindMediaRead, ppaGroup(ppas))
	end, err := m.dev.VectorRead(now, ppas, dst)
	m.t.closeMedia(s)
	return end, err
}

func (m *tracedMedia) Append(now vclock.Time, id ocssd.ChunkID, data []byte) (int, vclock.Time, error) {
	s := m.t.openMedia(kindMediaWrite, id.Group)
	off, end, err := m.dev.Append(now, id, data)
	m.t.closeMedia(s)
	return off, end, err
}

func (m *tracedMedia) Pad(now vclock.Time, id ocssd.ChunkID) (vclock.Time, error) {
	s := m.t.openMedia(kindMediaWrite, id.Group)
	end, err := m.dev.Pad(now, id)
	m.t.closeMedia(s)
	return end, err
}

func (m *tracedMedia) Reset(now vclock.Time, id ocssd.ChunkID) (vclock.Time, error) {
	s := m.t.openMedia(kindMediaErase, id.Group)
	end, err := m.dev.Reset(now, id)
	m.t.closeMedia(s)
	return end, err
}

func (m *tracedMedia) Copy(now vclock.Time, src []ocssd.PPA, dst ocssd.ChunkID) (int, vclock.Time, error) {
	s := m.t.openMedia(kindMediaCopy, dst.Group)
	n, end, err := m.dev.Copy(now, src, dst)
	m.t.closeMedia(s)
	return n, end, err
}

// tracedNS wraps a namespace adapter's Execute. Footprint is forwarded
// unchanged, so the engine overlaps exactly what it overlaps untraced.
// The wrapper cannot serve hostif's unexported identify and log-page
// extensions; the workloads read those from the unwrapped FTL objects.
type tracedNS struct {
	hostif.Namespace
	t *tracer
}

func (n *tracedNS) Execute(now vclock.Time, cmd *hostif.Command) hostif.Result {
	var fp hostif.Footprint
	if n.t.recording() {
		fp = n.Namespace.Footprint(cmd)
	}
	s := n.t.openExec(cmd, fp)
	r := n.Namespace.Execute(now, cmd)
	n.t.closeExec(s, fp)
	return r
}

// tracedEnv wraps the lsm.Env the database runs on (a hostif.EnvClient):
// every call is one command round trip through a queue pair.
type tracedEnv struct {
	lsm.Env
	t *tracer
}

func (e *tracedEnv) CreateTable(now vclock.Time) (lsm.TableWriter, error) {
	s := e.t.open(kindEnv, nil)
	w, err := e.Env.CreateTable(now)
	e.t.close(s, nil)
	if err != nil {
		return nil, err
	}
	return &tracedWriter{w, e.t}, nil
}

func (e *tracedEnv) ReadBlock(now vclock.Time, h lsm.TableHandle, block int, dst []byte) (vclock.Time, error) {
	s := e.t.open(kindEnv, nil)
	end, err := e.Env.ReadBlock(now, h, block, dst)
	e.t.close(s, nil)
	return end, err
}

func (e *tracedEnv) DeleteTable(now vclock.Time, h lsm.TableHandle) (vclock.Time, error) {
	s := e.t.open(kindEnv, nil)
	end, err := e.Env.DeleteTable(now, h)
	e.t.close(s, nil)
	return end, err
}

type tracedWriter struct {
	lsm.TableWriter
	t *tracer
}

func (w *tracedWriter) Append(now vclock.Time, block []byte) (vclock.Time, error) {
	s := w.t.open(kindEnv, nil)
	end, err := w.TableWriter.Append(now, block)
	w.t.close(s, nil)
	return end, err
}

func (w *tracedWriter) Commit(now vclock.Time) (lsm.TableHandle, vclock.Time, error) {
	s := w.t.open(kindEnv, nil)
	h, end, err := w.TableWriter.Commit(now)
	w.t.close(s, nil)
	return h, end, err
}

func (w *tracedWriter) Abort(now vclock.Time) (vclock.Time, error) {
	s := w.t.open(kindEnv, nil)
	end, err := w.TableWriter.Abort(now)
	w.t.close(s, nil)
	return end, err
}

// lookupFunc is the lsm.Options.Lookup hook signature.
type lookupFunc = func(now vclock.Time, h lsm.TableHandle, block int, key []byte) ([]byte, bool, bool, vclock.Time, error)

// tracedLookup wraps the offloaded-get hook.
func tracedLookup(t *tracer, f lookupFunc) lookupFunc {
	return func(now vclock.Time, h lsm.TableHandle, block int, key []byte) ([]byte, bool, bool, vclock.Time, error) {
		s := t.open(kindLookup, nil)
		v, del, found, end, err := f(now, h, block, key)
		t.close(s, nil)
		return v, del, found, end, err
	}
}
