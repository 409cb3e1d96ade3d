package core

import (
	"fmt"

	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
)

// Positions of the unified result columns (cf. UnifiedCols).
const (
	colType = iota
	colObID
	colName
	colDec
	colMakeOrBuy
	colState
	colMaterial
	colWeight
	colCheckedOut
	colData
	colPathOpt
	colLeft
	colRight
	colEffFrom
	colEffTo
	colStrcOpt
)

// The schema's object types, as the unified rows' type column holds them.
const (
	typeAssy = "assy"
	typeComp = "comp"
	typeLink = "link"
)

// internType returns a received object type boxed: the schema's three
// types as their constants, which allocates nothing and points into no
// frame, so a map keyed on a node's type cannot retain the frame the
// type arrived in.
func internType(s string) any {
	switch s {
	case typeAssy:
		return typeAssy
	case typeComp:
		return typeComp
	case typeLink:
		return typeLink
	}
	return s
}

// Node is one reassembled product object as the PDM client presents it
// to the user, with the link that attached it to its parent.
type Node struct {
	Type       string
	ObID       int64
	Name       string
	Dec        string
	MakeOrBuy  string
	State      string
	Material   string
	Weight     float64
	CheckedOut bool
	// Link attributes (zero for roots and set-oriented query results).
	Parent  int64
	EffFrom int64
	EffTo   int64
	StrcOpt string
	PathOpt string

	Children []*Node
}

// Tree is a reassembled product structure.
type Tree struct {
	Root  *Node
	Index map[int64]*Node
}

// Size returns the number of nodes excluding the root (the paper's n_v
// convention: "the root object is considered to be already at the
// client").
func (t *Tree) Size() int {
	if t == nil || t.Root == nil {
		return 0
	}
	return len(t.Index) - 1
}

// Walk visits every node (root first, depth first).
func (t *Tree) Walk(fn func(*Node)) {
	if t == nil || t.Root == nil {
		return
	}
	var rec func(*Node)
	rec = func(n *Node) {
		fn(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.Root)
}

func intOf(v types.Value) int64 {
	switch v.Kind() {
	case types.KindInt:
		return v.Int()
	case types.KindFloat:
		return int64(v.Float())
	}
	return 0
}

func floatOf(v types.Value) float64 {
	f, _ := v.AsFloat()
	return f
}

// decodeNode converts one unified row into *n (link columns included
// when the row carries them, as navigational expand rows do).
func decodeNode(row storage.Row, n *Node) error {
	if len(row) != len(UnifiedCols) {
		return fmt.Errorf("core: unified row has %d columns, want %d", len(row), len(UnifiedCols))
	}
	*n = Node{
		Type:       internType(row[colType].String()).(string),
		ObID:       intOf(row[colObID]),
		Name:       row[colName].String(),
		Dec:        row[colDec].String(),
		MakeOrBuy:  row[colMakeOrBuy].String(),
		State:      row[colState].String(),
		Material:   row[colMaterial].String(),
		Weight:     floatOf(row[colWeight]),
		CheckedOut: types.Truth(row[colCheckedOut]) == types.True,
		PathOpt:    row[colPathOpt].String(),
	}
	if !row[colLeft].IsNull() {
		n.Parent = intOf(row[colLeft])
		n.EffFrom = intOf(row[colEffFrom])
		n.EffTo = intOf(row[colEffTo])
		n.StrcOpt = row[colStrcOpt].String()
	}
	return nil
}

// AssembleRecursive rebuilds the product tree from the rows of a
// Section 5.2 recursive query: node rows (type assy/comp) plus link rows
// (type link) that carry the structure information. The nodes share one
// array.
func AssembleRecursive(rootID int64, rows []storage.Row) (*Tree, error) {
	isLink := func(row storage.Row) bool { return len(row) == len(UnifiedCols) && row[colType].String() == typeLink }
	links := 0
	for _, row := range rows {
		if isLink(row) {
			links++
		}
	}
	nodes := make([]Node, len(rows)-links)
	tree := &Tree{Index: make(map[int64]*Node, len(nodes))}
	for _, row := range rows {
		if isLink(row) {
			continue
		}
		n := &nodes[0]
		nodes = nodes[1:]
		if err := decodeNode(row, n); err != nil {
			return nil, err
		}
		tree.Index[n.ObID] = n
	}
	if len(tree.Index) == 0 {
		return tree, nil // empty result (e.g. an ∀rows condition failed)
	}
	root, ok := tree.Index[rootID]
	if !ok {
		return nil, fmt.Errorf("core: recursive result does not contain the root %d", rootID)
	}
	tree.Root = root
	for _, row := range rows {
		if !isLink(row) {
			continue
		}
		parent, okParent := tree.Index[intOf(row[colLeft])]
		child, okChild := tree.Index[intOf(row[colRight])]
		if !okParent || !okChild {
			continue
		}
		child.Parent = parent.ObID
		child.EffFrom, child.EffTo = intOf(row[colEffFrom]), intOf(row[colEffTo])
		child.StrcOpt = row[colStrcOpt].String()
		parent.Children = append(parent.Children, child)
	}
	return tree, nil
}

// nodeToUnifiedRow re-projects a Node into the unified layout so rule
// conditions can be evaluated client-side against received objects.
func nodeToUnifiedRow(n *Node) storage.Row {
	row := make(storage.Row, len(UnifiedCols))
	fillUnifiedRow(row, n)
	return row
}

// fillUnifiedRow writes a Node's unified projection into row, which has
// len(UnifiedCols) columns.
func fillUnifiedRow(row storage.Row, n *Node) {
	row[colType] = types.NewText(n.Type)
	row[colObID] = types.NewInt(n.ObID)
	row[colName] = types.NewText(n.Name)
	row[colDec] = types.NewText(n.Dec)
	row[colMakeOrBuy] = types.NewText(n.MakeOrBuy)
	row[colState] = types.NewText(n.State)
	row[colMaterial] = types.NewText(n.Material)
	row[colWeight] = types.NewFloat(n.Weight)
	row[colCheckedOut] = types.NewBool(n.CheckedOut)
	row[colData] = types.NewText("")
	row[colPathOpt] = types.NewText(n.PathOpt)
	if n.Parent != 0 {
		row[colLeft] = types.NewInt(n.Parent)
		row[colRight] = types.NewInt(n.ObID)
		row[colEffFrom] = types.NewInt(n.EffFrom)
		row[colEffTo] = types.NewInt(n.EffTo)
		row[colStrcOpt] = types.NewText(n.StrcOpt)
	} else {
		row[colLeft] = types.Null
		row[colRight] = types.Null
		row[colEffFrom] = types.Null
		row[colEffTo] = types.Null
		row[colStrcOpt] = types.Null
	}
}
