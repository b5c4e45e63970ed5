package ocssd

// The durable backend gives the simulated device a life across process
// restarts, mirroring the QEMU OCSSD 2.0 device's file-backed storage:
// sector data persists to one flat file and chunk-state transitions
// append to a checksummed chunk-state log (the moral equivalent of
// QEMU's lchunkstate table, but as a log so a power cut can only ever
// tear its tail). Persistence is a wall-clock side effect: it never
// touches virtual timing, so enabling the backend does not perturb any
// scenario table.
//
// File layout (see DESIGN.md, "Durability & fault model"):
//
//	<path>        sector data, addressed by flat chunk index:
//	              offset = (flat*sectorsPerChunk + sector) * sectorSize
//	<path>.cklog  36-byte header, then 20-byte records:
//	              flat(4) state(1) zero(3) wp(4) wear(4) crc32(4)
//
// Records are appended on every durable transition — stripe program,
// reset, close, offline — and the last record per chunk wins at
// restore. A record is only appended after its data write, so a cut
// between the two leaves the write pointer pointing at fully persisted
// data (prefix consistency). A torn or short record at the log tail is
// detected by its checksum and truncated, never fatal.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

const (
	ckMagic     = "OXCKLOG1"
	ckVersion   = 1
	ckHeaderLen = 36 // magic(8) version(4) groups(4) pus(4) chunks(4) spc(4) secSize(4) crc(4)
	ckRecordLen = 20 // flat(4) state(1) zero(3) wp(4) wear(4) crc(4)
)

// ErrBackendGeometry rejects opening a backend formatted for a
// different device geometry.
var ErrBackendGeometry = errors.New("ocssd: backend geometry mismatch")

// chunkDurable is the restored durable state of one chunk.
type chunkDurable struct {
	state ChunkState
	wp    int
	wear  int
}

// backendStore owns the two backing files. Log appends are serialized
// by mu; data writes target disjoint offsets per parallel unit and need
// no lock of their own.
type backendStore struct {
	geo   Geometry
	data  *os.File
	log   *os.File
	zeros []byte // one stripe of zeros, the source of padded tails

	mu     sync.Mutex
	logOff int64
	dead   bool
}

// LogPath is the chunk-state log companion of a backend data file.
func LogPath(backendPath string) string { return backendPath + ".cklog" }

func encodeCkHeader(geo Geometry) []byte {
	h := make([]byte, ckHeaderLen)
	copy(h, ckMagic)
	binary.LittleEndian.PutUint32(h[8:], ckVersion)
	binary.LittleEndian.PutUint32(h[12:], uint32(geo.Groups))
	binary.LittleEndian.PutUint32(h[16:], uint32(geo.PUsPerGroup))
	binary.LittleEndian.PutUint32(h[20:], uint32(geo.ChunksPerPU))
	binary.LittleEndian.PutUint32(h[24:], uint32(geo.SectorsPerChunk()))
	binary.LittleEndian.PutUint32(h[28:], uint32(geo.Chip.SectorSize))
	binary.LittleEndian.PutUint32(h[32:], crc32.ChecksumIEEE(h[:32]))
	return h
}

// checkCkHeader validates a header against geo. ok=false means the
// header is absent or torn (treat the backend as unformatted); a
// non-nil error means it is valid but for another geometry.
func checkCkHeader(h []byte, geo Geometry) (bool, error) {
	if len(h) < ckHeaderLen || string(h[:8]) != ckMagic {
		return false, nil
	}
	if crc32.ChecksumIEEE(h[:32]) != binary.LittleEndian.Uint32(h[32:]) {
		return false, nil
	}
	if binary.LittleEndian.Uint32(h[8:]) != ckVersion {
		return false, nil
	}
	if binary.LittleEndian.Uint32(h[12:]) != uint32(geo.Groups) ||
		binary.LittleEndian.Uint32(h[16:]) != uint32(geo.PUsPerGroup) ||
		binary.LittleEndian.Uint32(h[20:]) != uint32(geo.ChunksPerPU) ||
		binary.LittleEndian.Uint32(h[24:]) != uint32(geo.SectorsPerChunk()) ||
		binary.LittleEndian.Uint32(h[28:]) != uint32(geo.Chip.SectorSize) {
		return false, fmt.Errorf("%w: log header does not match %v", ErrBackendGeometry, geo)
	}
	return true, nil
}

// openBackend opens (or formats) the backing files. With reset the
// files are truncated and a fresh header written; otherwise the chunk
// log is scanned — torn tail truncated — and the surviving chunk table
// returned for restore.
func openBackend(path string, geo Geometry, reset bool) (*backendStore, map[uint32]chunkDurable, error) {
	flags := os.O_RDWR | os.O_CREATE
	data, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ocssd: backend data: %w", err)
	}
	logF, err := os.OpenFile(LogPath(path), flags, 0o644)
	if err != nil {
		data.Close()
		return nil, nil, fmt.Errorf("ocssd: backend log: %w", err)
	}
	b := &backendStore{geo: geo, data: data, log: logF, zeros: make([]byte, geo.WSOpt*geo.Chip.SectorSize)}

	format := func() (*backendStore, map[uint32]chunkDurable, error) {
		if err := data.Truncate(0); err != nil {
			b.Close()
			return nil, nil, err
		}
		if err := logF.Truncate(0); err != nil {
			b.Close()
			return nil, nil, err
		}
		if _, err := logF.WriteAt(encodeCkHeader(geo), 0); err != nil {
			b.Close()
			return nil, nil, err
		}
		b.logOff = ckHeaderLen
		return b, nil, nil
	}
	if reset {
		return format()
	}

	raw, err := io.ReadAll(logF)
	if err != nil {
		b.Close()
		return nil, nil, fmt.Errorf("ocssd: backend log: %w", err)
	}
	ok, err := checkCkHeader(raw, geo)
	if err != nil {
		b.Close()
		return nil, nil, err
	}
	if !ok {
		// Absent or torn header: nothing durable yet — format fresh.
		return format()
	}

	table := make(map[uint32]chunkDurable)
	total := uint32(geo.Groups * geo.PUsPerGroup * geo.ChunksPerPU)
	off := ckHeaderLen
	for off+ckRecordLen <= len(raw) {
		rec := raw[off : off+ckRecordLen]
		if crc32.ChecksumIEEE(rec[:16]) != binary.LittleEndian.Uint32(rec[16:]) {
			break // torn tail
		}
		flat := binary.LittleEndian.Uint32(rec)
		if flat >= total {
			break // corrupt record: stop at the last good prefix
		}
		table[flat] = chunkDurable{
			state: ChunkState(rec[4]),
			wp:    int(binary.LittleEndian.Uint32(rec[8:])),
			wear:  int(binary.LittleEndian.Uint32(rec[12:])),
		}
		off += ckRecordLen
	}
	// Truncate the torn tail so future appends extend a clean log.
	if err := logF.Truncate(int64(off)); err != nil {
		b.Close()
		return nil, nil, err
	}
	b.logOff = int64(off)
	return b, table, nil
}

// dataOffset is the byte offset of (flat, sector) in the data file.
func (b *backendStore) dataOffset(flat uint32, sector int) int64 {
	return (int64(flat)*int64(b.geo.SectorsPerChunk()) + int64(sector)) * int64(b.geo.Chip.SectorSize)
}

// writeData persists n bytes at sector: the prefix p (clipped to n),
// then zeros up to n, so a padded stripe is stored whole without its
// zero tail ever being materialized. A dead backend (post power-cut)
// silently drops writes: the simulated device has no power to persist.
func (b *backendStore) writeData(flat uint32, sector int, p []byte, n int) error {
	b.mu.Lock()
	dead := b.dead
	b.mu.Unlock()
	if dead {
		return nil
	}
	off := b.dataOffset(flat, sector)
	p = p[:min(len(p), n)]
	if _, err := b.data.WriteAt(p, off); err != nil {
		return fmt.Errorf("ocssd: backend data write: %w", err)
	}
	if tail := n - len(p); tail > 0 {
		if _, err := b.data.WriteAt(b.zeros[:tail], off+int64(len(p))); err != nil {
			return fmt.Errorf("ocssd: backend data write: %w", err)
		}
	}
	return nil
}

// readData reads sector bytes at restore; holes (never-written space)
// read as zeros.
func (b *backendStore) readData(flat uint32, sector int, p []byte) error {
	n, err := b.data.ReadAt(p, b.dataOffset(flat, sector))
	if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		clear(p[n:])
		return nil
	}
	if err != nil {
		return fmt.Errorf("ocssd: backend data read: %w", err)
	}
	return nil
}

// logState appends one chunk-state record. Dead backends drop it.
func (b *backendStore) logState(flat uint32, state ChunkState, wp, wear int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead {
		return nil
	}
	var rec [ckRecordLen]byte
	binary.LittleEndian.PutUint32(rec[0:], flat)
	rec[4] = byte(state)
	binary.LittleEndian.PutUint32(rec[8:], uint32(wp))
	binary.LittleEndian.PutUint32(rec[12:], uint32(wear))
	binary.LittleEndian.PutUint32(rec[16:], crc32.ChecksumIEEE(rec[:16]))
	if _, err := b.log.WriteAt(rec[:], b.logOff); err != nil {
		return fmt.Errorf("ocssd: backend log write: %w", err)
	}
	b.logOff += ckRecordLen
	return nil
}

// markDead stops all persistence: the power is gone.
func (b *backendStore) markDead() {
	b.mu.Lock()
	b.dead = true
	b.mu.Unlock()
}

// Close releases the backing files.
func (b *backendStore) Close() error {
	err1 := b.data.Close()
	err2 := b.log.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
