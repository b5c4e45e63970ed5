package nand

import (
	"bytes"
	"errors"
	"testing"
)

// isZeroRef is the byte-at-a-time reference the word-wise isZero must
// agree with.
func isZeroRef(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

func TestIsZeroMatchesByteReference(t *testing.T) {
	page := testGeo(SLC, 1).PageBytes()
	buf := make([]byte, page)
	// Every length from empty to one page, all zero.
	for n := 0; n <= page; n++ {
		if !isZero(buf[:n]) {
			t.Fatalf("len %d: all-zero buffer reported non-zero", n)
		}
	}
	// One non-zero byte at every offset of a full page, with bit
	// patterns that catch a lost high or low bit in the word loads.
	vals := []byte{0x01, 0x80, 0xff}
	for off := 0; off < page; off++ {
		buf[off] = vals[off%len(vals)]
		if isZero(buf) {
			t.Fatalf("page: non-zero byte at %d missed", off)
		}
		buf[off] = 0
	}
	// Every offset of every short length (word and 32-byte block
	// boundaries, tails shorter than one word) and of lengths just
	// under a page, whose tails are not word-aligned.
	var lengths []int
	for n := 1; n <= 80; n++ {
		lengths = append(lengths, n)
	}
	for n := page - 40; n < page; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for off := max(0, n-80); off < n; off++ {
			buf[off] = vals[off%len(vals)]
			if isZero(buf[:n]) {
				t.Fatalf("len %d: non-zero byte at %d missed", n, off)
			}
			// A non-zero byte just past the slice must not be seen.
			if n < page {
				buf[off] = 0
				buf[n] = 1
				if !isZero(buf[:n]) {
					t.Fatalf("len %d: byte past the end read", n)
				}
				buf[n] = 0
			}
			buf[off] = 0
		}
	}
}

func TestProgramZeroReadsSharedZeroPage(t *testing.T) {
	c := newChip(t, SLC, 1)
	geo := c.Geometry()
	oob := []byte("pad")
	// A page that held data in the previous cycle: ProgramZero must not
	// resurrect its retained buffer.
	if err := c.Program(0, 0, 0, pageData(geo, 0xCD), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.ProgramZero(0, 0, 0, oob); err != nil {
		t.Fatalf("ProgramZero: %v", err)
	}
	if err := c.Program(0, 0, 1, pageData(geo, 0), nil); err != nil {
		t.Fatal(err)
	}
	a, aOOB, err := c.Read(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := c.Read(0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != geo.PageBytes() || !isZeroRef(a) {
		t.Fatalf("zero page reads back %d bytes, zero=%v", len(a), isZeroRef(a))
	}
	if !bytes.Equal(aOOB, oob) {
		t.Fatalf("oob = %q, want %q", aOOB, oob)
	}
	if &a[0] != &b[0] {
		t.Fatal("ProgramZero and a scanned zero Program should share the zero page")
	}
	if got := c.Stats().Programs; got != 3 {
		t.Fatalf("programs = %d, want 3", got)
	}
}

func TestProgramZeroKeepsProgramRules(t *testing.T) {
	c := newChip(t, SLC, 1)
	geo := c.Geometry()
	if err := c.ProgramZero(0, 0, 1, nil); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("skip-ahead: %v, want ErrOutOfOrder", err)
	}
	if err := c.ProgramZero(0, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.ProgramZero(0, 0, 0, nil); !errors.Is(err, ErrNotErased) {
		t.Fatalf("reprogram: %v, want ErrNotErased", err)
	}
	// Data and zero programs share one write pointer.
	if err := c.Program(0, 0, 1, pageData(geo, 7), nil); err != nil {
		t.Fatal(err)
	}
	if wp := c.WritePointer(0, 0); wp != 2 {
		t.Fatalf("wp = %d, want 2", wp)
	}
	if err := c.ProgramZero(0, geo.BlocksPerPlane, 0, nil); !errors.Is(err, ErrAddress) {
		t.Fatalf("bad address: %v, want ErrAddress", err)
	}
	if err := c.ProgramZero(0, 1, 0, make([]byte, geo.OOBPerPage+1)); !errors.Is(err, ErrDataSize) {
		t.Fatalf("oversized oob: %v, want ErrDataSize", err)
	}
	if err := c.MarkBad(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.ProgramZero(0, 2, 0, nil); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("bad block: %v, want ErrBadBlock", err)
	}

	failing, err := New(geo, DefaultTiming(SLC), Reliability{ProgramFailRate: 1.0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := failing.ProgramZero(0, 0, 0, nil); !errors.Is(err, ErrProgramFail) {
		t.Fatalf("injected failure: %v, want ErrProgramFail", err)
	}
	if !failing.IsBad(0, 0) {
		t.Fatal("failed zero program should grow the block bad")
	}
}
