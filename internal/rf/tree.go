package rf

import (
	"container/heap"
	"math"

	"automatazoo/internal/randx"
)

// Tree is one CART decision tree over quantized features. Nodes are stored
// in a flat slice; leaves carry the predicted class.
type Tree struct {
	Nodes []Node
}

// Node is a tree node. A leaf has Feature == -1.
type Node struct {
	Feature     int   // quantized-feature index, -1 for leaves
	Threshold   uint8 // go left when value < Threshold (levels space)
	Left, Right int32 // child node indices
	Class       int   // leaf prediction
}

// TrainConfig controls tree induction.
type TrainConfig struct {
	MaxLeaves  int // best-first growth stops at this many leaves
	MTry       int // features sampled per split (0 = sqrt of feature count)
	MinSamples int // nodes smaller than this become leaves
}

// grower carries shared training state.
type grower struct {
	X    [][]uint8 // quantized samples
	y    []int
	q    int // levels per feature
	mtry int
	rng  *randx.Rand
}

// candidate is a pending best-first split.
type candidate struct {
	node    int32   // index of the (currently leaf) node to split
	idx     []int   // sample indices reaching the node
	gain    float64 // impurity decrease of its best split
	feature int
	thresh  uint8
}

type candHeap []*candidate

func (h candHeap) Len() int            { return len(h) }
func (h candHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(*candidate)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TrainTree grows a tree on the given quantized samples by best-first
// (highest impurity decrease) splitting until cfg.MaxLeaves is reached.
func TrainTree(X [][]uint8, y []int, levels int, cfg TrainConfig, rng *randx.Rand) *Tree {
	if cfg.MaxLeaves < 2 {
		cfg.MaxLeaves = 2
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 2
	}
	mtry := cfg.MTry
	if mtry <= 0 {
		mtry = int(math.Sqrt(float64(len(X[0]))))
		if mtry < 1 {
			mtry = 1
		}
	}
	g := &grower{X: X, y: y, q: levels, mtry: mtry, rng: rng}
	t := &Tree{}
	rootIdx := make([]int, len(X))
	for i := range rootIdx {
		rootIdx[i] = i
	}
	t.Nodes = append(t.Nodes, Node{Feature: -1, Class: g.majority(rootIdx)})
	h := &candHeap{}
	if c := g.bestSplit(0, rootIdx, cfg.MinSamples); c != nil {
		heap.Push(h, c)
	}
	leaves := 1
	for h.Len() > 0 && leaves < cfg.MaxLeaves {
		c := heap.Pop(h).(*candidate)
		var left, right []int
		for _, i := range c.idx {
			if g.X[i][c.feature] < c.thresh {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		li := int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, Node{Feature: -1, Class: g.majority(left)})
		ri := int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, Node{Feature: -1, Class: g.majority(right)})
		t.Nodes[c.node].Feature = c.feature
		t.Nodes[c.node].Threshold = c.thresh
		t.Nodes[c.node].Left = li
		t.Nodes[c.node].Right = ri
		leaves++
		if c := g.bestSplit(li, left, cfg.MinSamples); c != nil {
			heap.Push(h, c)
		}
		if c := g.bestSplit(ri, right, cfg.MinSamples); c != nil {
			heap.Push(h, c)
		}
	}
	return t
}

func (g *grower) majority(idx []int) int {
	var counts [NumClasses]int
	for _, i := range idx {
		counts[g.y[i]]++
	}
	best, bestC := 0, -1
	for c, n := range counts {
		if n > bestC {
			best, bestC = c, n
		}
	}
	return best
}

// bestSplit evaluates mtry random features on the node's samples and
// returns the best gini-gain split, or nil if the node is pure or too
// small.
func (g *grower) bestSplit(node int32, idx []int, minSamples int) *candidate {
	if len(idx) < minSamples*2 {
		return nil
	}
	var total [NumClasses]float64
	for _, i := range idx {
		total[g.y[i]]++
	}
	n := float64(len(idx))
	parentGini := giniOf(total[:], n)
	if parentGini == 0 {
		return nil
	}
	best := &candidate{node: node, idx: idx, gain: 1e-12, feature: -1}
	// Histogram per level per class, rebuilt per tried feature.
	hist := make([][NumClasses]float64, g.q)
	tried := map[int]bool{}
	nf := len(g.X[0])
	for t := 0; t < g.mtry; t++ {
		f := g.rng.Intn(nf)
		if tried[f] {
			continue
		}
		tried[f] = true
		for l := range hist {
			hist[l] = [NumClasses]float64{}
		}
		for _, i := range idx {
			hist[g.X[i][f]][g.y[i]]++
		}
		// Prefix scan over thresholds 1..q-1.
		var left [NumClasses]float64
		var ln float64
		for th := 1; th < g.q; th++ {
			for c := 0; c < NumClasses; c++ {
				left[c] += hist[th-1][c]
			}
			ln = 0
			for c := 0; c < NumClasses; c++ {
				ln += left[c]
			}
			rn := n - ln
			if ln < float64(minSamples) || rn < float64(minSamples) {
				continue
			}
			var right [NumClasses]float64
			for c := 0; c < NumClasses; c++ {
				right[c] = total[c] - left[c]
			}
			gain := parentGini - (ln/n)*giniOf(left[:], ln) - (rn/n)*giniOf(right[:], rn)
			if gain > best.gain {
				best.gain = gain
				best.feature = f
				best.thresh = uint8(th)
			}
		}
	}
	if best.feature < 0 {
		return nil
	}
	return best
}

func giniOf(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	s := 1.0
	for _, c := range counts {
		p := c / n
		s -= p * p
	}
	return s
}

// Predict returns the leaf class for a quantized sample.
func (t *Tree) Predict(x []uint8) int {
	n := int32(0)
	for {
		node := &t.Nodes[n]
		if node.Feature < 0 {
			return node.Class
		}
		if x[node.Feature] < node.Threshold {
			n = node.Left
		} else {
			n = node.Right
		}
	}
}

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int {
	n := 0
	for i := range t.Nodes {
		if t.Nodes[i].Feature < 0 {
			n++
		}
	}
	return n
}

// LeafPath describes one root-to-leaf path as per-feature level intervals
// [Lo, Hi] (inclusive), plus the leaf's class.
type LeafPath struct {
	Lo, Hi []uint8
	Class  int
}

// Paths enumerates all root-to-leaf paths as interval constraints over the
// quantized feature space (levels 0..q-1).
func (t *Tree) Paths(numFeatures, levels int) []LeafPath {
	var out []LeafPath
	lo := make([]uint8, numFeatures)
	hi := make([]uint8, numFeatures)
	for i := range hi {
		hi[i] = uint8(levels - 1)
	}
	var rec func(i int32)
	rec = func(i int32) {
		nd := &t.Nodes[i]
		if nd.Feature < 0 {
			p := LeafPath{Lo: append([]uint8(nil), lo...), Hi: append([]uint8(nil), hi...), Class: nd.Class}
			out = append(out, p)
			return
		}
		f, th := nd.Feature, nd.Threshold
		// Left: value < th.
		oldHi := hi[f]
		if th-1 < oldHi {
			hi[f] = th - 1
		}
		if lo[f] <= hi[f] {
			rec(nd.Left)
		}
		hi[f] = oldHi
		// Right: value >= th.
		oldLo := lo[f]
		if th > oldLo {
			lo[f] = th
		}
		if lo[f] <= hi[f] {
			rec(nd.Right)
		}
		lo[f] = oldLo
	}
	rec(0)
	return out
}
