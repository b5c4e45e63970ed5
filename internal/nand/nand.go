// Package nand simulates NAND flash chips at the level of detail §2.1 of
// the paper requires: planes, blocks, pages, sectors, out-of-bound areas,
// paired pages and per-cell-type (SLC/MLC/TLC/QLC) timing. The simulator
// enforces the physical programming rules — erase before write, strictly
// sequential page programming within a block, paired pages readable only
// once their whole wordline is programmed — and models wear (P/E cycles),
// grown bad blocks and read bit errors.
//
// A Chip is a pure state machine: timing is exposed as durations that the
// device layer (internal/ocssd) composes with channel and chip resources.
package nand

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/vclock"
)

// CellType is the number of bits stored per flash cell.
type CellType int

// Supported NAND cell technologies.
const (
	SLC CellType = iota + 1 // 1 bit/cell
	MLC                     // 2 bits/cell
	TLC                     // 3 bits/cell
	QLC                     // 4 bits/cell
)

func init() {
	// Guard against iota drift: the constants double as bits-per-cell.
	if SLC != 1 || MLC != 2 || TLC != 3 || QLC != 4 {
		panic("nand: cell type constants must equal bits per cell")
	}
}

// BitsPerCell reports the number of bits a cell of this type stores,
// which is also the number of paired pages per wordline (§2.1).
func (c CellType) BitsPerCell() int { return int(c) }

func (c CellType) String() string {
	switch c {
	case SLC:
		return "SLC"
	case MLC:
		return "MLC"
	case TLC:
		return "TLC"
	case QLC:
		return "QLC"
	default:
		return fmt.Sprintf("CellType(%d)", int(c))
	}
}

// Valid reports whether c is one of the four known technologies.
func (c CellType) Valid() bool { return c >= SLC && c <= QLC }

// TimingProfile holds the virtual durations of the three array operations.
// Program is indexed by the page's position within its wordline: lower
// pages program faster than upper pages on MLC/TLC/QLC chips.
type TimingProfile struct {
	Read    vclock.Duration   // tR: array read of one page
	Program []vclock.Duration // tProg per paired-page index (len = bits/cell)
	Erase   vclock.Duration   // tBERS: erase of one block
}

// DefaultTiming returns representative datasheet timings for a cell type.
// Absolute values matter less than the ratios: read ≪ program ≪ erase,
// and upper paired pages program slower than lower ones.
func DefaultTiming(c CellType) TimingProfile {
	us := vclock.Microsecond
	ms := vclock.Millisecond
	switch c {
	case SLC:
		return TimingProfile{Read: 25 * us, Program: []vclock.Duration{200 * us}, Erase: 2 * ms}
	case MLC:
		return TimingProfile{Read: 50 * us, Program: []vclock.Duration{400 * us, 1200 * us}, Erase: 4 * ms}
	case TLC:
		return TimingProfile{Read: 70 * us, Program: []vclock.Duration{500 * us, 1500 * us, 3000 * us}, Erase: 6 * ms}
	case QLC:
		return TimingProfile{Read: 110 * us, Program: []vclock.Duration{700 * us, 1800 * us, 3500 * us, 5500 * us}, Erase: 10 * ms}
	default:
		return TimingProfile{Read: 50 * us, Program: []vclock.Duration{500 * us}, Erase: 5 * ms}
	}
}

// Geometry describes one chip. All counts are per chip.
type Geometry struct {
	Planes         int      // 1, 2 or 4 (§2.1)
	BlocksPerPlane int      // erase blocks per plane
	PagesPerBlock  int      // program pages per block
	SectorsPerPage int      // read sectors per page (typically 4)
	SectorSize     int      // bytes per sector (typically 4096)
	OOBPerPage     int      // out-of-bound bytes per page
	Cell           CellType // bits per cell
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	switch {
	case !g.Cell.Valid():
		return fmt.Errorf("nand: invalid cell type %d", int(g.Cell))
	case g.Planes != 1 && g.Planes != 2 && g.Planes != 4:
		return fmt.Errorf("nand: planes must be 1, 2 or 4, got %d", g.Planes)
	case g.BlocksPerPlane <= 0 || g.PagesPerBlock <= 0 || g.SectorsPerPage <= 0 || g.SectorSize <= 0:
		return errors.New("nand: geometry counts must be positive")
	case g.PagesPerBlock%g.Cell.BitsPerCell() != 0:
		return fmt.Errorf("nand: pages per block (%d) must be a multiple of bits per cell (%d)",
			g.PagesPerBlock, g.Cell.BitsPerCell())
	case g.OOBPerPage < 0:
		return errors.New("nand: negative OOB size")
	}
	return nil
}

// PageBytes reports the data payload of one page (sectors only, no OOB).
func (g Geometry) PageBytes() int { return g.SectorsPerPage * g.SectorSize }

// BlockBytes reports the data payload of one block.
func (g Geometry) BlockBytes() int64 {
	return int64(g.PagesPerBlock) * int64(g.PageBytes())
}

// ChipBytes reports the data payload of the whole chip.
func (g Geometry) ChipBytes() int64 {
	return int64(g.Planes) * int64(g.BlocksPerPlane) * g.BlockBytes()
}

// Wordlines reports the number of wordlines per block (pages / bits-per-cell).
func (g Geometry) Wordlines() int { return g.PagesPerBlock / g.Cell.BitsPerCell() }

// UnitOfWrite reports the natural write unit of the chip in bytes:
// sectors-per-page × paired pages × planes × sector size (§2.1). On a
// dual-plane TLC chip with 4 KB sectors this is 96 KB; on a 4-plane QLC
// chip it is 256 KB.
func (g Geometry) UnitOfWrite() int {
	return g.SectorsPerPage * g.Cell.BitsPerCell() * g.Planes * g.SectorSize
}

// Reliability tunes the failure injection model.
type Reliability struct {
	Endurance       int     // P/E cycles before a block wears out (0 = unlimited)
	FactoryBadRate  float64 // probability a block is bad from the factory
	ProgramFailRate float64 // probability a program op fails (block grows bad)
	// ReadErrorBase is the per-read probability of a correctable bit error
	// at zero wear; the probability grows linearly to 10x at Endurance.
	ReadErrorBase float64
}

// DefaultReliability returns a mild failure model suitable for tests.
func DefaultReliability() Reliability {
	return Reliability{Endurance: 3000, FactoryBadRate: 0.002, ProgramFailRate: 0, ReadErrorBase: 0}
}

// Errors reported by chip operations.
var (
	ErrBadBlock         = errors.New("nand: bad block")
	ErrNotErased        = errors.New("nand: program to non-erased page")
	ErrOutOfOrder       = errors.New("nand: pages must be programmed sequentially within a block")
	ErrUnwritten        = errors.New("nand: read of unwritten page")
	ErrPairedIncomplete = errors.New("nand: read of page whose wordline is not fully programmed")
	ErrAddress          = errors.New("nand: address out of range")
	ErrWornOut          = errors.New("nand: block exceeded endurance")
	ErrProgramFail      = errors.New("nand: program failure")
	ErrDataSize         = errors.New("nand: payload size does not match page size")
)

type page struct {
	data []byte // empty until programmed (unless zero is set)
	oob  []byte
	zero bool // programmed with all-zero data; stored deduplicated
}

// programmed reports whether the page holds data. Erase truncates data
// buffers instead of dropping them, so steady-state program/erase
// cycles (GC, chunk resets) reuse page storage; the memory retained is
// bounded by the pages that last held non-zero data (all-zero programs
// release their buffer, see Program).
func (p *page) programmed() bool { return len(p.data) > 0 || p.zero }

type block struct {
	next   int // index of the next page to program (write pointer)
	erases int
	bad    bool
	grown  bool // bad grew during use (vs factory)
	pages  []page
}

// Stats aggregates chip operation counts.
type Stats struct {
	Reads      int64
	Programs   int64
	Erases     int64
	BitErrors  int64 // injected correctable read errors
	GrownBad   int64 // blocks that went bad during use
	FactoryBad int64
}

// Chip is one simulated NAND die. Methods are safe for concurrent use;
// the chip serializes state mutations internally (operation *timing*
// serialization is the device layer's job, via a vclock.Resource).
type Chip struct {
	geo    Geometry
	timing TimingProfile
	rel    Reliability

	mu       sync.Mutex
	planes   [][]block // [plane][block]
	rng      *rand.Rand
	stats    Stats
	zeroPage []byte // shared buffer returned for all-zero pages
}

// New creates a chip with the given geometry, timing and reliability
// model. The seed drives all failure injection deterministically.
func New(geo Geometry, timing TimingProfile, rel Reliability, seed int64) (*Chip, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if len(timing.Program) != geo.Cell.BitsPerCell() {
		return nil, fmt.Errorf("nand: timing has %d program entries, cell type needs %d",
			len(timing.Program), geo.Cell.BitsPerCell())
	}
	c := &Chip{
		geo:    geo,
		timing: timing,
		rel:    rel,
		rng:    rand.New(rand.NewSource(seed)),
	}
	c.planes = make([][]block, geo.Planes)
	for p := range c.planes {
		c.planes[p] = make([]block, geo.BlocksPerPlane)
		for b := range c.planes[p] {
			blk := &c.planes[p][b]
			blk.pages = make([]page, geo.PagesPerBlock)
			if rel.FactoryBadRate > 0 && c.rng.Float64() < rel.FactoryBadRate {
				blk.bad = true
				c.stats.FactoryBad++
			}
		}
	}
	return c, nil
}

// Geometry reports the chip geometry.
func (c *Chip) Geometry() Geometry { return c.geo }

// Timing reports the chip timing profile.
func (c *Chip) Timing() TimingProfile { return c.timing }

// ReadTime reports tR for one page.
func (c *Chip) ReadTime() vclock.Duration { return c.timing.Read }

// ProgramTime reports tProg for the page at index pageIdx within its
// block, which depends on the page's position within its wordline.
func (c *Chip) ProgramTime(pageIdx int) vclock.Duration {
	bits := c.geo.Cell.BitsPerCell()
	return c.timing.Program[pageIdx%bits]
}

// EraseTime reports tBERS for one block.
func (c *Chip) EraseTime() vclock.Duration { return c.timing.Erase }

// Stats returns a copy of the chip's operation counters.
func (c *Chip) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Chip) checkAddr(plane, blk, pg int) error {
	if plane < 0 || plane >= c.geo.Planes ||
		blk < 0 || blk >= c.geo.BlocksPerPlane ||
		pg < 0 || pg >= c.geo.PagesPerBlock {
		return ErrAddress
	}
	return nil
}

// IsBad reports whether the block is marked bad (factory or grown).
func (c *Chip) IsBad(plane, blk int) bool {
	if err := c.checkAddr(plane, blk, 0); err != nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planes[plane][blk].bad
}

// Erases reports the P/E cycle count of a block.
func (c *Chip) Erases(plane, blk int) int {
	if err := c.checkAddr(plane, blk, 0); err != nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planes[plane][blk].erases
}

// WritePointer reports the next programmable page index of a block.
func (c *Chip) WritePointer(plane, blk int) int {
	if err := c.checkAddr(plane, blk, 0); err != nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planes[plane][blk].next
}

// Program writes one full page (data payload plus optional OOB bytes).
// It enforces: the block is not bad, the page is the block's next
// sequential page, and the payload is exactly one page. A program
// failure (injected) marks the block grown-bad and returns ErrProgramFail.
func (c *Chip) Program(plane, blk, pg int, data, oob []byte) error {
	return c.program(plane, blk, pg, data, oob, false)
}

// ProgramZero programs one all-zero page without a payload: the caller
// already knows the page is zero (a pad tail), so nothing is copied or
// scanned. Every rule of Program applies unchanged.
func (c *Chip) ProgramZero(plane, blk, pg int, oob []byte) error {
	return c.program(plane, blk, pg, nil, oob, true)
}

// program is the shared body of Program and ProgramZero; zero means the
// page is known to be all zeros and data is ignored.
func (c *Chip) program(plane, blk, pg int, data, oob []byte, zero bool) error {
	if err := c.checkAddr(plane, blk, pg); err != nil {
		return err
	}
	if !zero && len(data) != c.geo.PageBytes() {
		return fmt.Errorf("%w: got %d, want %d", ErrDataSize, len(data), c.geo.PageBytes())
	}
	if len(oob) > c.geo.OOBPerPage {
		return fmt.Errorf("%w: oob %d exceeds %d", ErrDataSize, len(oob), c.geo.OOBPerPage)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := &c.planes[plane][blk]
	if b.bad {
		return ErrBadBlock
	}
	if pg != b.next {
		if pg < b.next {
			return ErrNotErased
		}
		return ErrOutOfOrder
	}
	if c.rel.ProgramFailRate > 0 && c.rng.Float64() < c.rel.ProgramFailRate {
		b.bad = true
		b.grown = true
		c.stats.GrownBad++
		return ErrProgramFail
	}
	p := &b.pages[pg]
	if zero || isZero(data) {
		// WAL padding and chunk pads program whole zero pages; dedup
		// them so padding never consumes simulator memory — including
		// any buffer retained from a previous program/erase cycle.
		p.data = nil
		p.zero = true
	} else {
		p.data = append(p.data[:0], data...)
		p.zero = false
	}
	if len(oob) > 0 {
		p.oob = append(p.oob[:0], oob...)
	}
	b.next++
	c.stats.Programs++
	return nil
}

// isZero reports whether b is all zeros, 32 bytes per iteration as four
// OR-ed 8-byte loads, then a word and byte tail.
func isZero(b []byte) bool {
	for len(b) >= 32 {
		if binary.LittleEndian.Uint64(b)|binary.LittleEndian.Uint64(b[8:])|
			binary.LittleEndian.Uint64(b[16:])|binary.LittleEndian.Uint64(b[24:]) != 0 {
			return false
		}
		b = b[32:]
	}
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
		b = b[8:]
	}
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// Read returns the data payload and OOB of a page. It enforces the
// paired-page rule: the page's wordline must be fully programmed
// (§2.1: "All paired pages must be written before one of them can be
// read"). The returned error may be a correctable bit error injection,
// reported as nil with the BitErrors counter incremented (the device
// corrects it via ECC but pays the accounting).
func (c *Chip) Read(plane, blk, pg int) (data, oob []byte, err error) {
	if err := c.checkAddr(plane, blk, pg); err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := &c.planes[plane][blk]
	if b.bad {
		return nil, nil, ErrBadBlock
	}
	p := &b.pages[pg]
	if !p.programmed() {
		return nil, nil, ErrUnwritten
	}
	bits := c.geo.Cell.BitsPerCell()
	wordline := pg / bits
	wlEnd := (wordline + 1) * bits
	if b.next < wlEnd {
		return nil, nil, ErrPairedIncomplete
	}
	if base := c.rel.ReadErrorBase; base > 0 {
		prob := base
		if c.rel.Endurance > 0 {
			prob *= 1 + 9*float64(b.erases)/float64(c.rel.Endurance)
		}
		if c.rng.Float64() < prob {
			c.stats.BitErrors++
		}
	}
	c.stats.Reads++
	if p.zero {
		if c.zeroPage == nil {
			c.zeroPage = make([]byte, c.geo.PageBytes())
		}
		return c.zeroPage, p.oob, nil
	}
	return p.data, p.oob, nil
}

// Erase erases one block on one plane, resetting its write pointer.
// Exceeding the endurance limit marks the block grown-bad.
func (c *Chip) Erase(plane, blk int) error {
	if err := c.checkAddr(plane, blk, 0); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := &c.planes[plane][blk]
	if b.bad {
		return ErrBadBlock
	}
	b.erases++
	if c.rel.Endurance > 0 && b.erases > c.rel.Endurance {
		b.bad = true
		b.grown = true
		c.stats.GrownBad++
		return ErrWornOut
	}
	for i := range b.pages {
		b.pages[i].data = b.pages[i].data[:0]
		b.pages[i].oob = b.pages[i].oob[:0]
		b.pages[i].zero = false
	}
	b.next = 0
	c.stats.Erases++
	return nil
}

// EraseMulti erases the same block index on every plane, modeling a
// multi-plane erase. The first error aborts and is returned.
func (c *Chip) EraseMulti(blk int) error {
	for p := 0; p < c.geo.Planes; p++ {
		if err := c.Erase(p, blk); err != nil {
			return err
		}
	}
	return nil
}

// MarkBad explicitly retires a block (bad media management, §2.2).
func (c *Chip) MarkBad(plane, blk int) error {
	if err := c.checkAddr(plane, blk, 0); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := &c.planes[plane][blk]
	if !b.bad {
		b.bad = true
		b.grown = true
		c.stats.GrownBad++
	}
	return nil
}
