package ocssd

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/vclock"
)

// refHeap is entryHeap driven through container/heap, the reference
// for the typed push/pop.
type refHeap []cacheEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].freeAt < h[j].freeAt }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(cacheEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestEntryHeapMatchesContainerHeap pins the typed heap to
// container/heap's pop order, ties included: which of two entries with
// the same freeAt drains first decides how many bytes an admission
// frees, so a different order would move virtual time.
func TestEntryHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var got entryHeap
	var want refHeap
	for op := 0; op < 20000; op++ {
		if len(got) == 0 || rng.Intn(3) > 0 {
			// Few distinct instants, so ties are common; bytes tell
			// tied entries apart.
			e := cacheEntry{freeAt: vclock.Time(rng.Intn(8)), bytes: int64(op)}
			got.push(e)
			heap.Push(&want, e)
			continue
		}
		if g, w := got.pop(), heap.Pop(&want).(cacheEntry); g != w {
			t.Fatalf("op %d: pop %+v, container/heap pops %+v", op, g, w)
		}
	}
}
