package huffman

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refNode and refNodeHeap are the pointer tree and container/heap queue
// BuildSorted used before it moved to an index heap.
type refNode struct {
	freq        uint64
	value       uint32
	left, right *refNode
}

type refNodeHeap []*refNode

func (h refNodeHeap) Len() int { return len(h) }
func (h refNodeHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].value < h[j].value
}
func (h refNodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refNodeHeap) Push(x any)   { *h = append(*h, x.(*refNode)) }
func (h *refNodeHeap) Pop() any     { old := *h; n := old[len(old)-1]; *h = old[:len(old)-1]; return n }

// refBuildSorted is the original BuildSorted, kept as the oracle for the
// index-heap builder: a container/heap of *refNode, a recursive depth walk
// and a sort of the leaves by (depth, value).
func refBuildSorted(values []uint32, freqs []uint64) *Code {
	if len(values) == 0 {
		return &Code{N: []int{0}}
	}
	if len(values) == 1 {
		return &Code{N: []int{0, 1}, D: values}
	}
	h := make(refNodeHeap, 0, len(values))
	for i, v := range values {
		h = append(h, &refNode{freq: freqs[i], value: v})
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*refNode)
		b := heap.Pop(&h).(*refNode)
		heap.Push(&h, &refNode{freq: a.freq + b.freq, value: min(a.value, b.value), left: a, right: b})
	}
	type leafDepth struct {
		value uint32
		depth int
	}
	var leaves []leafDepth
	var walk func(n *refNode, d int)
	walk = func(n *refNode, d int) {
		if n.left == nil {
			leaves = append(leaves, leafDepth{n.value, d})
			return
		}
		walk(n.left, d+1)
		walk(n.right, d+1)
	}
	walk(h[0], 0)
	maxLen := 0
	for _, l := range leaves {
		maxLen = max(maxLen, l.depth)
	}
	c := &Code{N: make([]int, maxLen+1)}
	for _, l := range leaves {
		c.N[l.depth]++
	}
	sort.Slice(leaves, func(i, j int) bool {
		if leaves[i].depth != leaves[j].depth {
			return leaves[i].depth < leaves[j].depth
		}
		return leaves[i].value < leaves[j].value
	})
	c.D = make([]uint32, len(leaves))
	for i, l := range leaves {
		c.D[i] = l.value
	}
	return c
}

// TestBuildSortedMatchesReference compares BuildSorted with refBuildSorted
// on 2 000 random tables. Frequencies are drawn from small ranges so that
// equal frequencies, and merged subtrees tying with leaves, are common;
// sizes run from 1 to 600 values, and values are sparse so some exceed
// denseLimit.
func TestBuildSortedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(600)
		if trial%4 == 0 {
			n = 1 + rng.Intn(8)
		}
		spread := []int64{int64(n) + 1, 4 * int64(n), 1 << 21}[trial%3]
		seen := map[uint32]bool{}
		values := make([]uint32, 0, n)
		for len(values) < n {
			v := uint32(rng.Int63n(spread))
			if !seen[v] {
				seen[v] = true
				values = append(values, v)
			}
		}
		sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
		fmax := []int64{1, 3, 10, 1 << 20}[rng.Intn(4)]
		freqs := make([]uint64, n)
		for i := range freqs {
			freqs[i] = 1 + uint64(rng.Int63n(fmax))
		}
		got := BuildSorted(append([]uint32(nil), values...), freqs)
		want := refBuildSorted(append([]uint32(nil), values...), freqs)
		if !reflect.DeepEqual(got.N, want.N) || !reflect.DeepEqual(got.D, want.D) {
			t.Fatalf("trial %d (%d values, freq ≤ %d): N %v D %v, reference N %v D %v",
				trial, n, fmax, got.N, got.D, want.N, want.D)
		}
		checkEncoder(t, fmt.Sprintf("trial %d", trial), got)
	}
}
