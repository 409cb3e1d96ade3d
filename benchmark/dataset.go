package main

import (
	"sort"

	"pdmtune"
)

// The data sets. d7b5 is the paper's headline scenario; d9b3 is sized
// so that the navigational statement set (one literal-id expand per
// visible node, 4,255 of them) is larger than the engine's 4,096-entry
// plan cache and than warm-repeat's 2,048-entry structure cache. Its
// generator seed is fixed: the benchmark's -seed varies the op list,
// never the data. d3b3 is the -quick stand-in for both.
var (
	d7b5 = dataset{Name: "d7b5", Config: pdmtune.ProductConfig{Depth: 7, Branch: 5, Sigma: 0.6}}
	d9b3 = dataset{Name: "d9b3", Config: pdmtune.ProductConfig{Depth: 9, Branch: 3, Sigma: 0.8, RandomVisibility: true, Seed: 2}}
	d3b3 = dataset{Name: "d3b3", Config: pdmtune.ProductConfig{Depth: 3, Branch: 3, Sigma: 0.8}}
)

type dataset struct {
	Name   string
	Config pdmtune.ProductConfig
}

// truth is the generator's ground truth in the shape the op generator
// and the correctness checks need: what every action on every visible
// object must return, derived from Product.Nodes alone.
type truth struct {
	prod *pdmtune.Product
	// visSub[id] is the number of visible descendants of a visible
	// object: MultiLevelExpand's Visible. visKids[id] is Expand's.
	visSub  map[int64]int
	visKids map[int64]int
	// byLevel[l] lists the visible objects of level l in id order.
	byLevel [][]int64
	// assemblies and components count every object, visible or not:
	// what Report returns.
	assemblies, components int
}

func newTruth(prod *pdmtune.Product) *truth {
	t := &truth{
		prod:    prod,
		visSub:  map[int64]int{},
		visKids: map[int64]int{},
		byLevel: make([][]int64, prod.Config.Depth+1),
	}
	for id, n := range prod.Nodes {
		if n.Type == "assy" {
			t.assemblies++
		} else {
			t.components++
		}
		if n.Visible {
			t.byLevel[n.Level] = append(t.byLevel[n.Level], id)
		}
	}
	for _, ids := range t.byLevel {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	// Deepest level first, so every child's count exists before its
	// parent adds it up.
	for l := len(t.byLevel) - 1; l >= 0; l-- {
		for _, id := range t.byLevel[l] {
			for _, c := range prod.Nodes[id].Children {
				if prod.Nodes[c].Visible {
					t.visKids[id]++
					t.visSub[id] += 1 + t.visSub[c]
				}
			}
		}
	}
	return t
}

// depth is δ: objects of level depth are components, all others
// assemblies.
func (t *truth) depth() int { return t.prod.Config.Depth }

// level returns an object's level, which is also the number of its
// ancestors: WhereUsed's Visible and ECOPropagate's len(Affected).
func (t *truth) level(id int64) int { return t.prod.Nodes[id].Level }

// visibleTotal is Query's Visible: every visible object, root included.
func (t *truth) visibleTotal() int { return 1 + t.prod.VisibleNodes() }

// under reports whether id lies in the subtree rooted at root (root
// itself included).
func (t *truth) under(id, root int64) bool {
	for id != 0 {
		if id == root {
			return true
		}
		id = t.prod.Nodes[id].Parent
	}
	return false
}

// visible lists the visible objects of levels lo..hi, one slice per
// level, each in id order. The range is clamped to the tree, so the deep
// ranges written for d9b3 still select something on the -quick tree.
// keep filters (nil keeps all).
func (t *truth) visible(lo, hi int, keep func(int64) bool) [][]int64 {
	if hi > t.depth() {
		hi = t.depth()
	}
	if lo > hi {
		lo = hi
	}
	var out [][]int64
	for l := lo; l <= hi; l++ {
		var ids []int64
		for _, id := range t.byLevel[l] {
			if keep == nil || keep(id) {
				ids = append(ids, id)
			}
		}
		if len(ids) > 0 {
			out = append(out, ids)
		}
	}
	return out
}

// visibleAssemblies lists the visible assemblies of levels lo..hi, one
// slice per level.
func (t *truth) visibleAssemblies(lo, hi int, keep func(int64) bool) [][]int64 {
	if hi > t.depth()-1 {
		hi = t.depth() - 1
	}
	return t.visible(lo, hi, keep)
}
