package nand

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/vclock"
)

func testGeo(cell CellType, planes int) Geometry {
	return Geometry{
		Planes:         planes,
		BlocksPerPlane: 8,
		PagesPerBlock:  24,
		SectorsPerPage: 4,
		SectorSize:     4096,
		OOBPerPage:     64,
		Cell:           cell,
	}
}

func newChip(t *testing.T, cell CellType, planes int) *Chip {
	t.Helper()
	geo := testGeo(cell, planes)
	c, err := New(geo, DefaultTiming(cell), Reliability{}, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func pageData(geo Geometry, fill byte) []byte {
	return bytes.Repeat([]byte{fill}, geo.PageBytes())
}

func TestCellTypeProperties(t *testing.T) {
	cases := []struct {
		c    CellType
		bits int
		name string
	}{{SLC, 1, "SLC"}, {MLC, 2, "MLC"}, {TLC, 3, "TLC"}, {QLC, 4, "QLC"}}
	for _, tc := range cases {
		if tc.c.BitsPerCell() != tc.bits {
			t.Errorf("%v bits = %d, want %d", tc.c, tc.c.BitsPerCell(), tc.bits)
		}
		if tc.c.String() != tc.name {
			t.Errorf("String = %q, want %q", tc.c.String(), tc.name)
		}
		if !tc.c.Valid() {
			t.Errorf("%v should be valid", tc.c)
		}
	}
	if CellType(9).Valid() {
		t.Error("CellType(9) should be invalid")
	}
}

func TestGeometryDerived(t *testing.T) {
	g := testGeo(TLC, 2)
	if g.PageBytes() != 16384 {
		t.Fatalf("PageBytes = %d", g.PageBytes())
	}
	if g.BlockBytes() != 24*16384 {
		t.Fatalf("BlockBytes = %d", g.BlockBytes())
	}
	if g.ChipBytes() != 2*8*24*16384 {
		t.Fatalf("ChipBytes = %d", g.ChipBytes())
	}
	if g.Wordlines() != 8 {
		t.Fatalf("Wordlines = %d, want 8", g.Wordlines())
	}
	// The paper's running example: dual-plane TLC, 4 sectors/page, 4KB
	// sectors => unit of write = 96KB.
	if g.UnitOfWrite() != 96*1024 {
		t.Fatalf("UnitOfWrite = %d, want 96KB", g.UnitOfWrite())
	}
	// §2.1: QLC with 4 planes => 256KB unit of write.
	q := testGeo(QLC, 4)
	if q.UnitOfWrite() != 256*1024 {
		t.Fatalf("QLC×4 UnitOfWrite = %d, want 256KB", q.UnitOfWrite())
	}
}

func TestGeometryValidate(t *testing.T) {
	good := testGeo(TLC, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := good
	bad.Planes = 3
	if bad.Validate() == nil {
		t.Error("3 planes should be rejected")
	}
	bad = good
	bad.PagesPerBlock = 25 // not a multiple of 3 bits
	if bad.Validate() == nil {
		t.Error("pages not multiple of bits should be rejected")
	}
	bad = good
	bad.Cell = CellType(7)
	if bad.Validate() == nil {
		t.Error("unknown cell type should be rejected")
	}
	bad = good
	bad.SectorSize = 0
	if bad.Validate() == nil {
		t.Error("zero sector size should be rejected")
	}
	bad = good
	bad.OOBPerPage = -1
	if bad.Validate() == nil {
		t.Error("negative OOB should be rejected")
	}
}

func TestNewRejectsTimingMismatch(t *testing.T) {
	geo := testGeo(TLC, 2)
	_, err := New(geo, DefaultTiming(SLC), Reliability{}, 1)
	if err == nil {
		t.Fatal("SLC timing on TLC chip should be rejected")
	}
}

func TestDefaultTimingOrdering(t *testing.T) {
	for _, c := range []CellType{SLC, MLC, TLC, QLC} {
		tp := DefaultTiming(c)
		if len(tp.Program) != c.BitsPerCell() {
			t.Fatalf("%v: %d program timings", c, len(tp.Program))
		}
		if tp.Read >= tp.Program[0] {
			t.Errorf("%v: read should be faster than program", c)
		}
		if tp.Program[len(tp.Program)-1] >= tp.Erase {
			t.Errorf("%v: program should be faster than erase", c)
		}
		for i := 1; i < len(tp.Program); i++ {
			if tp.Program[i] <= tp.Program[i-1] {
				t.Errorf("%v: upper paired page %d should be slower", c, i)
			}
		}
	}
	// Density costs latency: each step up in bits/cell reads slower.
	if !(DefaultTiming(SLC).Read < DefaultTiming(MLC).Read &&
		DefaultTiming(MLC).Read < DefaultTiming(TLC).Read &&
		DefaultTiming(TLC).Read < DefaultTiming(QLC).Read) {
		t.Error("read latency should grow with density")
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	c := newChip(t, SLC, 1)
	geo := c.Geometry()
	want := pageData(geo, 0xAB)
	oob := []byte("meta")
	if err := c.Program(0, 0, 0, want, oob); err != nil {
		t.Fatalf("Program: %v", err)
	}
	got, gotOOB, err := c.Read(0, 0, 0)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data mismatch")
	}
	if !bytes.Equal(gotOOB, oob) {
		t.Fatal("oob mismatch")
	}
}

func TestProgramSequentialRule(t *testing.T) {
	c := newChip(t, SLC, 1)
	d := pageData(c.Geometry(), 1)
	if err := c.Program(0, 0, 1, d, nil); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("skip-ahead program: %v, want ErrOutOfOrder", err)
	}
	if err := c.Program(0, 0, 0, d, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Program(0, 0, 0, d, nil); !errors.Is(err, ErrNotErased) {
		t.Fatalf("reprogram: %v, want ErrNotErased", err)
	}
	if c.WritePointer(0, 0) != 1 {
		t.Fatalf("wp = %d, want 1", c.WritePointer(0, 0))
	}
}

func TestProgramWrongSize(t *testing.T) {
	c := newChip(t, SLC, 1)
	page := c.Geometry().PageBytes()
	// All-zero payloads included: only ProgramZero takes no payload.
	for _, data := range [][]byte{{1, 2, 3}, nil, make([]byte, page-1), make([]byte, page+1)} {
		if err := c.Program(0, 0, 0, data, nil); !errors.Is(err, ErrDataSize) {
			t.Fatalf("%d-byte payload: %v, want ErrDataSize", len(data), err)
		}
	}
	if wp := c.WritePointer(0, 0); wp != 0 {
		t.Fatalf("rejected programs moved wp to %d", wp)
	}
	big := make([]byte, c.Geometry().OOBPerPage+1)
	if err := c.Program(0, 0, 0, pageData(c.Geometry(), 0), big); !errors.Is(err, ErrDataSize) {
		t.Fatalf("oversized oob: %v, want ErrDataSize", err)
	}
}

func TestPairedPageRule(t *testing.T) {
	// TLC: wordline = 3 pages. Page 0 unreadable until pages 0..2 written.
	c := newChip(t, TLC, 1)
	d := pageData(c.Geometry(), 7)
	if err := c.Program(0, 0, 0, d, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(0, 0, 0); !errors.Is(err, ErrPairedIncomplete) {
		t.Fatalf("read before wordline complete: %v, want ErrPairedIncomplete", err)
	}
	if err := c.Program(0, 0, 1, d, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(0, 0, 1); !errors.Is(err, ErrPairedIncomplete) {
		t.Fatalf("still incomplete: %v", err)
	}
	if err := c.Program(0, 0, 2, d, nil); err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg < 3; pg++ {
		if _, _, err := c.Read(0, 0, pg); err != nil {
			t.Fatalf("read page %d after wordline complete: %v", pg, err)
		}
	}
}

func TestSLCHasNoPairedRestriction(t *testing.T) {
	c := newChip(t, SLC, 1)
	d := pageData(c.Geometry(), 7)
	if err := c.Program(0, 0, 0, d, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(0, 0, 0); err != nil {
		t.Fatalf("SLC page should be readable immediately: %v", err)
	}
}

func TestReadUnwritten(t *testing.T) {
	c := newChip(t, SLC, 1)
	if _, _, err := c.Read(0, 0, 0); !errors.Is(err, ErrUnwritten) {
		t.Fatalf("read unwritten: %v, want ErrUnwritten", err)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	c := newChip(t, SLC, 1)
	d := pageData(c.Geometry(), 3)
	for pg := 0; pg < 4; pg++ {
		if err := c.Program(0, 0, pg, d, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	if c.WritePointer(0, 0) != 0 {
		t.Fatal("erase should reset write pointer")
	}
	if _, _, err := c.Read(0, 0, 0); !errors.Is(err, ErrUnwritten) {
		t.Fatalf("read after erase: %v, want ErrUnwritten", err)
	}
	if c.Erases(0, 0) != 1 {
		t.Fatalf("erases = %d, want 1", c.Erases(0, 0))
	}
	// Reprogram after erase must work.
	if err := c.Program(0, 0, 0, d, nil); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
}

func TestEraseMulti(t *testing.T) {
	c := newChip(t, SLC, 2)
	d := pageData(c.Geometry(), 1)
	for p := 0; p < 2; p++ {
		if err := c.Program(p, 3, 0, d, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.EraseMulti(3); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if c.Erases(p, 3) != 1 {
			t.Fatalf("plane %d erases = %d", p, c.Erases(p, 3))
		}
	}
}

func TestEnduranceWearOut(t *testing.T) {
	geo := testGeo(SLC, 1)
	c, err := New(geo, DefaultTiming(SLC), Reliability{Endurance: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Erase(0, 0); err != nil {
			t.Fatalf("erase %d: %v", i, err)
		}
	}
	if err := c.Erase(0, 0); !errors.Is(err, ErrWornOut) {
		t.Fatalf("4th erase: %v, want ErrWornOut", err)
	}
	if !c.IsBad(0, 0) {
		t.Fatal("worn block should be bad")
	}
	if err := c.Erase(0, 0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("erase of bad block: %v, want ErrBadBlock", err)
	}
}

func TestMarkBad(t *testing.T) {
	c := newChip(t, SLC, 1)
	if err := c.MarkBad(0, 5); err != nil {
		t.Fatal(err)
	}
	if !c.IsBad(0, 5) {
		t.Fatal("block should be bad")
	}
	d := pageData(c.Geometry(), 1)
	if err := c.Program(0, 5, 0, d, nil); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("program to bad block: %v", err)
	}
	if _, _, err := c.Read(0, 5, 0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("read of bad block: %v", err)
	}
	if got := c.Stats().GrownBad; got != 1 {
		t.Fatalf("grown bad = %d, want 1", got)
	}
	// Marking twice must not double count.
	if err := c.MarkBad(0, 5); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().GrownBad; got != 1 {
		t.Fatalf("grown bad after re-mark = %d, want 1", got)
	}
}

func TestFactoryBadBlocks(t *testing.T) {
	geo := testGeo(SLC, 2)
	geo.BlocksPerPlane = 500
	c, err := New(geo, DefaultTiming(SLC), Reliability{FactoryBadRate: 0.05}, 42)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Stats().FactoryBad
	if n == 0 {
		t.Fatal("expected some factory bad blocks at 5% over 1000 blocks")
	}
	if n > 120 {
		t.Fatalf("factory bad = %d, implausibly many", n)
	}
}

func TestProgramFailInjection(t *testing.T) {
	geo := testGeo(SLC, 1)
	c, err := New(geo, DefaultTiming(SLC), Reliability{ProgramFailRate: 1.0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := pageData(geo, 1)
	if err := c.Program(0, 0, 0, d, nil); !errors.Is(err, ErrProgramFail) {
		t.Fatalf("program: %v, want ErrProgramFail", err)
	}
	if !c.IsBad(0, 0) {
		t.Fatal("failed block should be marked bad")
	}
}

func TestReadErrorInjectionGrowsWithWear(t *testing.T) {
	geo := testGeo(SLC, 1)
	geo.PagesPerBlock = 64
	c, err := New(geo, DefaultTiming(SLC), Reliability{Endurance: 10, ReadErrorBase: 0.05}, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := pageData(geo, 1)
	readAll := func() {
		if err := c.Program(0, 0, 0, d, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			if _, _, err := c.Read(0, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	readAll()
	fresh := c.Stats().BitErrors
	// Wear the block close to its endurance, then read again.
	for i := 0; i < 9; i++ {
		if err := c.Erase(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	readAll()
	worn := c.Stats().BitErrors - fresh
	if worn <= fresh {
		t.Fatalf("bit errors should grow with wear: fresh=%d worn=%d", fresh, worn)
	}
}

func TestAddressValidation(t *testing.T) {
	c := newChip(t, SLC, 1)
	d := pageData(c.Geometry(), 0)
	for _, bad := range [][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 8, 0}, {0, 0, -1}, {0, 0, 24}} {
		if err := c.Program(bad[0], bad[1], bad[2], d, nil); !errors.Is(err, ErrAddress) {
			t.Errorf("program %v: %v, want ErrAddress", bad, err)
		}
		if _, _, err := c.Read(bad[0], bad[1], bad[2]); !errors.Is(err, ErrAddress) {
			t.Errorf("read %v: %v, want ErrAddress", bad, err)
		}
	}
	if err := c.Erase(0, 99); !errors.Is(err, ErrAddress) {
		t.Errorf("erase: %v, want ErrAddress", err)
	}
	if err := c.MarkBad(9, 9); !errors.Is(err, ErrAddress) {
		t.Errorf("markbad: %v, want ErrAddress", err)
	}
	if c.Erases(9, 9) != 0 || c.WritePointer(9, 9) != 0 || !c.IsBad(9, 9) {
		t.Error("out-of-range queries should answer safe defaults")
	}
}

func TestProgramTimePerPairedPage(t *testing.T) {
	c := newChip(t, TLC, 1)
	tp := c.Timing()
	// Pages 0,1,2 are the three paired pages of wordline 0.
	if c.ProgramTime(0) != tp.Program[0] || c.ProgramTime(1) != tp.Program[1] || c.ProgramTime(2) != tp.Program[2] {
		t.Fatal("program time should follow paired index")
	}
	// Page 3 starts wordline 1, back to the lower-page timing.
	if c.ProgramTime(3) != tp.Program[0] {
		t.Fatal("page 3 should use lower-page timing")
	}
	if c.ReadTime() != tp.Read || c.EraseTime() != tp.Erase {
		t.Fatal("read/erase timing accessors mismatch")
	}
}

func TestStatsCounting(t *testing.T) {
	c := newChip(t, SLC, 1)
	d := pageData(c.Geometry(), 1)
	for pg := 0; pg < 3; pg++ {
		if err := c.Program(0, 0, pg, d, nil); err != nil {
			t.Fatal(err)
		}
	}
	for pg := 0; pg < 3; pg++ {
		if _, _, err := c.Read(0, 0, pg); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Programs != 3 || s.Reads != 3 || s.Erases != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// Property: any sequence of in-order programs followed by reads of
// completed wordlines round-trips the data exactly.
func TestRoundTripProperty(t *testing.T) {
	geo := testGeo(MLC, 1)
	f := func(seed int64, fills []byte) bool {
		c, err := New(geo, DefaultTiming(MLC), Reliability{}, seed)
		if err != nil {
			return false
		}
		n := len(fills)
		if n > geo.PagesPerBlock {
			n = geo.PagesPerBlock
		}
		for pg := 0; pg < n; pg++ {
			if err := c.Program(0, 0, pg, pageData(geo, fills[pg]), nil); err != nil {
				return false
			}
		}
		bits := geo.Cell.BitsPerCell()
		complete := (n / bits) * bits
		for pg := 0; pg < complete; pg++ {
			got, _, err := c.Read(0, 0, pg)
			if err != nil {
				return false
			}
			if got[0] != fills[pg] || got[len(got)-1] != fills[pg] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the write pointer equals the number of successful programs
// since the last erase, and never exceeds pages-per-block.
func TestWritePointerProperty(t *testing.T) {
	geo := testGeo(SLC, 1)
	f := func(ops []bool) bool {
		c, err := New(geo, DefaultTiming(SLC), Reliability{}, 1)
		if err != nil {
			return false
		}
		want := 0
		d := pageData(geo, 1)
		for _, program := range ops {
			if program && want < geo.PagesPerBlock {
				if err := c.Program(0, 0, want, d, nil); err != nil {
					return false
				}
				want++
			} else if !program {
				if err := c.Erase(0, 0); err != nil {
					return false
				}
				want = 0
			}
			if c.WritePointer(0, 0) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	geo := testGeo(SLC, 2)
	geo.BlocksPerPlane = 200
	mk := func() int64 {
		c, err := New(geo, DefaultTiming(SLC), Reliability{FactoryBadRate: 0.1}, 99)
		if err != nil {
			t.Fatal(err)
		}
		return c.Stats().FactoryBad
	}
	if mk() != mk() {
		t.Fatal("same seed must produce the same factory bad map")
	}
}

func TestDurationForHelper(t *testing.T) {
	// Sanity-check that vclock integrates: transferring one 16KB page at
	// 800 MB/s takes 20.48µs of virtual time.
	d := vclock.DurationFor(16384, 800)
	if d < 20*vclock.Microsecond || d > 21*vclock.Microsecond {
		t.Fatalf("transfer time = %v", d)
	}
}
