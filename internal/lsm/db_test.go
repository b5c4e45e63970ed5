package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/vclock"
)

func testDB(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.Env == nil {
		opts.Env = NewMemEnv(16*1024, 8)
	}
	if opts.MemtableBytes == 0 {
		opts.MemtableBytes = 32 * 1024
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func key(i int) []byte   { return []byte(fmt.Sprintf("key%08d", i)) }
func value(i int) []byte { return bytes.Repeat([]byte{byte(i%250 + 1)}, 100) }

func TestPutGetMemtable(t *testing.T) {
	db := testDB(t, Options{})
	now, err := db.Put(0, key(1), value(1))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := db.Get(now, key(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, value(1)) {
		t.Fatal("value mismatch")
	}
	if _, _, err := db.Get(now, key(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.Put(0, nil, value(1)); err == nil {
		t.Fatal("empty key should fail")
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	db := testDB(t, Options{})
	now := vclock.Time(0)
	var err error
	for v := 0; v < 5; v++ {
		if now, err = db.Put(now, key(7), value(v)); err != nil {
			t.Fatal(err)
		}
	}
	got, now, err := db.Get(now, key(7))
	if err != nil || !bytes.Equal(got, value(4)) {
		t.Fatalf("newest version lost: %v", err)
	}
	if now, err = db.Delete(now, key(7)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Get(now, key(7)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key visible: %v", err)
	}
}

func TestFlushToL0AndGet(t *testing.T) {
	db := testDB(t, Options{})
	now := vclock.Time(0)
	var err error
	for i := 0; i < 200; i++ {
		if now, err = db.Put(now, key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	now, err = db.Flush(now)
	if err != nil {
		t.Fatal(err)
	}
	if db.Stats().Flushes == 0 {
		t.Fatal("no flush happened")
	}
	for i := 0; i < 200; i += 17 {
		got, n2, err := db.Get(now, key(i))
		if err != nil {
			t.Fatalf("get %d after flush: %v", i, err)
		}
		if !bytes.Equal(got, value(i)) {
			t.Fatalf("key %d value mismatch", i)
		}
		now = n2
	}
	if db.Stats().BlockReads == 0 {
		t.Fatal("gets from tables should read blocks")
	}
}

func TestCompactionKeepsNewest(t *testing.T) {
	db := testDB(t, Options{MemtableBytes: 16 * 1024, L0CompactTrigger: 2})
	now := vclock.Time(0)
	var err error
	// Several rounds of overwrites force flushes and L0 compactions.
	for round := 0; round < 8; round++ {
		for i := 0; i < 100; i++ {
			if now, err = db.Put(now, key(i), value(round*1000+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if db.Stats().Compactions == 0 {
		t.Fatal("no compaction happened")
	}
	now = db.WaitIdle(now)
	for i := 0; i < 100; i += 7 {
		got, n2, err := db.Get(now, key(i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, value(7*1000+i)) {
			t.Fatalf("key %d: stale value after compaction", i)
		}
		now = n2
	}
}

func TestTombstoneSurvivesCompaction(t *testing.T) {
	db := testDB(t, Options{MemtableBytes: 16 * 1024, L0CompactTrigger: 2})
	now := vclock.Time(0)
	var err error
	for i := 0; i < 150; i++ {
		if now, err = db.Put(now, key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = db.Delete(now, key(42)); err != nil {
		t.Fatal(err)
	}
	// Churn to force flush+compaction of the tombstone.
	for i := 150; i < 400; i++ {
		if now, err = db.Put(now, key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	now = db.WaitIdle(now)
	if _, _, err := db.Get(now, key(42)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key resurrected: %v", err)
	}
	got, _, err := db.Get(now, key(41))
	if err != nil || !bytes.Equal(got, value(41)) {
		t.Fatalf("neighbor key lost: %v", err)
	}
}

func TestIteratorSortedUniqueLive(t *testing.T) {
	db := testDB(t, Options{MemtableBytes: 16 * 1024, L0CompactTrigger: 2})
	now := vclock.Time(0)
	var err error
	const n = 300
	for i := n - 1; i >= 0; i-- { // insert in reverse order
		if now, err = db.Put(now, key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite some, delete some.
	for i := 0; i < n; i += 10 {
		if now, err = db.Put(now, key(i), value(i+5000)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 5; i < n; i += 50 {
		if now, err = db.Delete(now, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	clock := db.WaitIdle(now)
	it := db.NewIterator(&clock)
	var prev []byte
	count := 0
	for {
		k, v, ok := it.Next()
		if !ok {
			break
		}
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("iterator out of order: %q after %q", k, prev)
		}
		prev = append(prev[:0], k...)
		var i int
		fmt.Sscanf(string(k), "key%d", &i)
		want := value(i)
		if i%10 == 0 {
			want = value(i + 5000)
		}
		if !bytes.Equal(v, want) {
			t.Fatalf("key %q wrong value", k)
		}
		count++
	}
	wantCount := n - len(deleted(n))
	if count != wantCount {
		t.Fatalf("iterator yielded %d keys, want %d", count, wantCount)
	}
}

func deleted(n int) []int {
	var out []int
	for i := 5; i < n; i += 50 {
		if i%10 != 0 { // overwrites after delete don't exist here; deletes at i%50==5 never overwritten
			out = append(out, i)
		}
	}
	// Deletions happened after overwrites, so all i%50==5 keys are gone.
	out = out[:0]
	for i := 5; i < n; i += 50 {
		out = append(out, i)
	}
	return out
}

func TestWriteStallsAccounted(t *testing.T) {
	// A slow env with a tiny memtable must eventually stall writers.
	env := NewMemEnv(16*1024, 4)
	env.WriteLatency = 50 * vclock.Millisecond
	db := testDB(t, Options{Env: env, MemtableBytes: 8 * 1024, L0CompactTrigger: 100, L0StallTrigger: 100})
	now := vclock.Time(0)
	var err error
	for i := 0; i < 2000; i++ {
		if now, err = db.Put(now, key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().StallTime == 0 {
		t.Fatal("writers never stalled against a slow env")
	}
}

func TestRateLimiterSlowsFlushes(t *testing.T) {
	run := func(mbps float64) vclock.Time {
		env := NewMemEnv(16*1024, 8)
		env.WriteLatency = 0
		db := testDB(t, Options{Env: env, MemtableBytes: 16 * 1024, RateLimitMBps: mbps})
		now := vclock.Time(0)
		var err error
		for i := 0; i < 3000; i++ {
			if now, err = db.Put(now, key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		return db.WaitIdle(now)
	}
	fast := run(0)   // unlimited
	slow := run(0.5) // 0.5 MB/s
	if slow <= fast {
		t.Fatalf("rate limiter had no effect: %v vs %v", fast, slow)
	}
}

func TestBloomSkipsTableReads(t *testing.T) {
	db := testDB(t, Options{MemtableBytes: 16 * 1024})
	now := vclock.Time(0)
	var err error
	for i := 0; i < 500; i++ {
		if now, err = db.Put(now, key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	now, err = db.Flush(now)
	if err != nil {
		t.Fatal(err)
	}
	// Probe many absent keys: blooms should avoid most block reads.
	before := db.Stats().BlockReads
	for i := 10000; i < 10200; i++ {
		db.Get(now, key(i))
	}
	reads := db.Stats().BlockReads - before
	if db.Stats().BloomSkips == 0 {
		t.Fatal("bloom filters never skipped")
	}
	if reads > 40 { // 200 probes, expect <10% false positives per table
		t.Fatalf("absent-key probes read %d blocks; blooms ineffective", reads)
	}
}

func TestLevelsPopulate(t *testing.T) {
	db := testDB(t, Options{MemtableBytes: 16 * 1024, L0CompactTrigger: 2, L1TargetBytes: 64 * 1024})
	now := vclock.Time(0)
	var err error
	for i := 0; i < 4000; i++ {
		if now, err = db.Put(now, key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	levels := db.Levels()
	if levels[1] == 0 && levels[2] == 0 {
		t.Fatalf("levels = %v; compaction never populated L1/L2", levels)
	}
	// The paper's setup ends fill-sequential with 3 levels on disk.
	if levels[2] == 0 {
		t.Logf("L2 empty (levels=%v); acceptable for small fills", levels)
	}
}

// Property: the DB agrees with a model map under random workloads.
func TestDBModelProperty(t *testing.T) {
	f := func(ops []struct {
		K   uint16
		V   uint16
		Del bool
	}) bool {
		db := testDB(t, Options{MemtableBytes: 8 * 1024, L0CompactTrigger: 2})
		model := make(map[string][]byte)
		now := vclock.Time(0)
		var err error
		for _, op := range ops {
			k := key(int(op.K % 64))
			if op.Del {
				if now, err = db.Delete(now, k); err != nil {
					return false
				}
				delete(model, string(k))
			} else {
				v := value(int(op.V))
				if now, err = db.Put(now, k, v); err != nil {
					return false
				}
				model[string(k)] = v
			}
		}
		now = db.WaitIdle(now)
		for k, want := range model {
			got, n2, err := db.Get(now, []byte(k))
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
			now = n2
		}
		// Absent keys answer NotFound.
		for i := 100; i < 110; i++ {
			if _, _, err := db.Get(now, key(i)); !errors.Is(err, ErrNotFound) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSkiplistOrdering(t *testing.T) {
	s := newSkiplist(1)
	s.insert([]byte("b"), 1, []byte("b1"), false)
	s.insert([]byte("a"), 2, []byte("a2"), false)
	s.insert([]byte("a"), 5, []byte("a5"), false)
	s.insert([]byte("c"), 3, nil, true)
	// Internal order: a@5, a@2, b@1, c@3.
	n := s.first()
	wantKeys := []string{"a", "a", "b", "c"}
	wantSeqs := []uint64{5, 2, 1, 3}
	for i := 0; n != nil; i++ {
		if string(n.key) != wantKeys[i] || n.seq != wantSeqs[i] {
			t.Fatalf("position %d: %s@%d", i, n.key, n.seq)
		}
		n = n.next[0]
	}
	// get returns the newest visible version.
	v, del, found := s.get([]byte("a"), 10)
	if !found || del || string(v) != "a5" {
		t.Fatalf("get a@10: %q %v %v", v, del, found)
	}
	// Snapshot reads see older versions.
	v, _, found = s.get([]byte("a"), 3)
	if !found || string(v) != "a2" {
		t.Fatalf("get a@3: %q", v)
	}
	if _, _, found := s.get([]byte("zz"), 10); found {
		t.Fatal("absent key found")
	}
	if _, del, _ := s.get([]byte("c"), 10); !del {
		t.Fatal("tombstone lost")
	}
}

func TestBloomFilterBasics(t *testing.T) {
	keys := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	b := newBloomFromKeys(keys, 10)
	for _, k := range keys {
		if !b.mayContain(k) {
			t.Fatalf("false negative on %q", k)
		}
	}
	// Round-trip through marshal.
	b2 := unmarshalBloom(b.marshal())
	for _, k := range keys {
		if !b2.mayContain(k) {
			t.Fatalf("false negative after round-trip on %q", k)
		}
	}
	fp := 0
	for i := 0; i < 1000; i++ {
		if b.mayContain(key(i)) {
			fp++
		}
	}
	if fp > 100 {
		t.Fatalf("false positive rate %d/1000 too high", fp)
	}
	// nil filter answers true (no filter = must check).
	var nilB *bloom
	if !nilB.mayContain([]byte("x")) {
		t.Fatal("nil bloom must not skip")
	}
}

func TestBlockEncodeDecode(t *testing.T) {
	var buf []byte
	var err error
	entries := []Entry{
		{Key: []byte("a"), Seq: 3, Value: []byte("va")},
		{Key: []byte("b"), Seq: 2, Del: true},
		{Key: []byte("c"), Seq: 1, Value: bytes.Repeat([]byte("x"), 100)},
	}
	for _, e := range entries {
		buf, err = appendEntry(buf, e, 4096)
		if err != nil {
			t.Fatal(err)
		}
	}
	padded := make([]byte, 4096)
	copy(padded, buf)
	got := decodeBlock(padded)
	if len(got) != 3 {
		t.Fatalf("decoded %d entries", len(got))
	}
	for i, e := range entries {
		if !bytes.Equal(got[i].Key, e.Key) || got[i].Seq != e.Seq || got[i].Del != e.Del ||
			!bytes.Equal(got[i].Value, e.Value) {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, got[i], e)
		}
	}
	// Block-full detection.
	big := Entry{Key: []byte("k"), Value: bytes.Repeat([]byte("y"), 5000)}
	if _, err := appendEntry(nil, big, 4096); !errors.Is(err, errBlockFull) {
		t.Fatalf("oversized entry: %v", err)
	}
}

func TestMemEnvLifecycle(t *testing.T) {
	env := NewMemEnv(4096, 4)
	w, err := env.CreateTable(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(0, make([]byte, 100)); err == nil {
		t.Fatal("short block should fail")
	}
	now := vclock.Time(0)
	for i := 0; i < 4; i++ {
		if now, err = w.Append(now, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Append(now, make([]byte, 4096)); err == nil {
		t.Fatal("table overflow should fail")
	}
	h, now, err := w.Commit(now)
	if err != nil || h.Blocks != 4 {
		t.Fatalf("commit: %+v %v", h, err)
	}
	if _, _, err := w.Commit(now); err == nil {
		t.Fatal("double commit should fail")
	}
	dst := make([]byte, 4096)
	if _, err := env.ReadBlock(now, h, 0, dst); err != nil {
		t.Fatal(err)
	}
	if _, err := env.ReadBlock(now, h, 9, dst); err == nil {
		t.Fatal("out-of-range block should fail")
	}
	if _, err := env.DeleteTable(now, h); err != nil {
		t.Fatal(err)
	}
	if _, err := env.ReadBlock(now, h, 0, dst); err == nil {
		t.Fatal("read of deleted table should fail")
	}
	if env.TableCount() != 0 {
		t.Fatal("table leak")
	}
}

// TestFlushKeepsNewestAcrossBlocks overwrites keys until their versions
// fill several SSTable blocks of one memtable, then flushes it. The
// block index points a lookup at the last block whose first key is ≤
// the key, so a flush that kept every version would serve an older one;
// both the host-side and the offloaded get must see the newest.
func TestFlushKeepsNewestAcrossBlocks(t *testing.T) {
	const blockSize, versions = 1024, 30
	if versions*len(value(0)) <= 2*blockSize {
		t.Fatal("versions must straddle a block boundary")
	}
	for _, offloaded := range []bool{false, true} {
		env := NewMemEnv(blockSize, 64)
		opts := Options{Env: env, MemtableBytes: 1 << 20}
		if offloaded {
			// The device-side half of an offloaded get: read the block
			// in place and search it there.
			opts.Lookup = func(now vclock.Time, h TableHandle, block int, k []byte) ([]byte, bool, bool, vclock.Time, error) {
				buf := make([]byte, blockSize)
				end, err := env.ReadBlock(now, h, block, buf)
				if err != nil {
					return nil, false, false, now, err
				}
				v, del, found := SearchBlock(buf, k)
				return v, del, found, end, nil
			}
		}
		db := testDB(t, opts)
		now := vclock.Time(0)
		var err error
		for _, k := range []int{4, 5, 6, 8} {
			for v := 0; v < versions; v++ {
				if now, err = db.Put(now, key(k), value(k*100+v)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if now, err = db.Delete(now, key(8)); err != nil {
			t.Fatal(err)
		}
		if now, err = db.Flush(now); err != nil {
			t.Fatal(err)
		}
		if db.Stats().Flushes == 0 {
			t.Fatal("no flush happened")
		}
		for _, k := range []int{4, 5, 6} {
			got, _, err := db.Get(now, key(k))
			if err != nil {
				t.Fatalf("offloaded=%v key %d: %v", offloaded, k, err)
			}
			if !bytes.Equal(got, value(k*100+versions-1)) {
				t.Fatalf("offloaded=%v key %d: stale version after flush", offloaded, k)
			}
		}
		if _, _, err := db.Get(now, key(8)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("offloaded=%v: deleted key resurrected by an older version: %v", offloaded, err)
		}
	}
}
