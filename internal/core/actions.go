package core

import (
	"context"

	"pdmtune/internal/costmodel"
	"pdmtune/internal/netsim"
)

// The paper's read actions, orchestrated over the client's fetcher.
// The fetcher is the only way these actions touch the WAN, so the
// structure cache (when configured) accelerates all of them
// uniformly.

// ActionResult reports one user action: what came back and what it cost.
type ActionResult struct {
	// Tree is the reassembled structure (expand actions).
	Tree *Tree
	// Objects is the flat result of the set-oriented Query action.
	Objects []*Node
	// RowsReceived counts unified rows shipped to the client before
	// client-side filtering — the transferred data volume in rows. A
	// cache hit ships nothing, so warm actions report fewer rows.
	RowsReceived int
	// Visible counts objects the user is finally allowed to see.
	Visible int
	// Metrics is the WAN cost of exactly this action.
	Metrics netsim.Metrics
}

// ---------------------------------------------------------------------------
// Query (set-oriented retrieval of all nodes of a product)

// QueryAll performs the paper's "Query" action: retrieve all nodes of a
// product (without structure information) in one statement. Under late
// evaluation all rows are shipped and filtered at the client; otherwise
// the row conditions travel inside the query. A single statement gains
// nothing from preparation, so the prepared mode does not change it.
// The result is not structure-cached: rows join the product by a
// `prod` attribute the version log does not key, so a cached answer
// could not detect newly inserted nodes. A product spans every subtree,
// so at a subscription-bounded replica the statement runs at the
// primary as a fall-through read.
func (c *Client) QueryAll(ctx context.Context, prod int64) (*ActionResult, error) {
	before := c.start()
	if err := c.beginAction(ctx); err != nil {
		return nil, err
	}
	st, err := c.statement(stmtKey{kind: stmtQuery, action: ActionQuery})
	if err != nil {
		return nil, err
	}
	resp, err := c.fetch.Exec(ctx, c.request(st, prod))
	if err != nil {
		return nil, err
	}
	res := &ActionResult{RowsReceived: len(resp.Rows), Objects: make([]*Node, 0, len(resp.Rows))}
	nodes := make([]Node, len(resp.Rows))
	decoded := 0 // the nodes whose types are learned, even when a later row fails
	defer c.rememberTypes(len(nodes), func(yield func(*Node)) {
		for i := range nodes[:decoded] {
			yield(&nodes[i])
		}
	})
	for i, row := range resp.Rows {
		n := &nodes[i]
		if err := decodeNode(row, n); err != nil {
			return nil, err
		}
		decoded++
		if c.knobs.Strategy == costmodel.LateEval {
			ok, err := c.localRowPermitted(n.Type, ActionQuery, row)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		res.Objects = append(res.Objects, n)
	}
	res.Visible = len(res.Objects)
	c.countAction(ActionQuery, prod, false)
	res.Metrics = c.delta(before)
	return res, nil
}

// ---------------------------------------------------------------------------
// Single-level expand

// Expand performs a single-level expand: fetch the direct children of
// one object together with the connecting links. The root's actual
// object type is looked up (and cached), not assumed to be an assembly.
func (c *Client) Expand(ctx context.Context, parent int64) (*ActionResult, error) {
	before := c.start()
	if err := c.beginAction(ctx); err != nil {
		return nil, err
	}
	rootType, err := c.fetch.LookupType(ctx, parent)
	if err != nil {
		return nil, err
	}
	root := &Node{Type: rootType, ObID: parent}
	pages, received, err := c.fetch.ExpandLevel(ctx, []*Node{root}, ActionExpand)
	if err != nil {
		return nil, err
	}
	children := pages[0].Children
	root.Children = children
	tree := &Tree{Root: root, Index: map[int64]*Node{parent: root}}
	for _, ch := range children {
		tree.Index[ch.ObID] = ch
	}
	c.countAction(ActionExpand, parent, false)
	return &ActionResult{
		Tree:         tree,
		RowsReceived: received,
		Visible:      len(children),
		Metrics:      c.delta(before),
	}, nil
}

// ---------------------------------------------------------------------------
// Multi-level expand

// MultiLevelExpand retrieves the entire structure under root. Under the
// navigational strategies it recursively applies single-level expands
// ("the resulting objects are filtered according to the rules, and the
// surviving objects are then expanded recursively"); under the Recursive
// strategy it ships one recursive query with all rules embedded.
func (c *Client) MultiLevelExpand(ctx context.Context, root int64) (*ActionResult, error) {
	c.follow(false)
	return c.multiLevelExpand(ctx, root, ActionMLE)
}

// multiLevelExpand is the MLE of an action that followed its route at
// entry (MultiLevelExpand, CheckOut, CheckIn).
func (c *Client) multiLevelExpand(ctx context.Context, root int64, action string) (*ActionResult, error) {
	before := c.snapshot()
	if err := c.beginAction(ctx); err != nil {
		return nil, err
	}
	if c.knobs.Strategy == costmodel.Recursive {
		tree, received, _, err := c.fetch.FetchRecursive(ctx, root, action)
		if err != nil {
			return nil, err
		}
		if action == ActionMLE {
			c.countAction(action, root, false)
		}
		return &ActionResult{
			Tree:         tree,
			RowsReceived: received,
			Visible:      tree.Size(),
			Metrics:      c.delta(before),
		}, nil
	}

	// Navigational: breadth-first expansion. The root is already at the
	// client (paper footnote 4) but its object type is not assumed — it
	// is looked up (one cached WAN statement). Every surviving node is
	// expanded, leaves included — the client only learns they are leaves
	// from the empty answer. With batching enabled the whole level
	// travels as one wire batch; otherwise each node costs its own round
	// trip, as in the paper.
	rootType, err := c.fetch.LookupType(ctx, root)
	if err != nil {
		return nil, err
	}
	rootNode := &Node{Type: rootType, ObID: root}
	tree := &Tree{Root: rootNode, Index: map[int64]*Node{root: rootNode}}
	received := 0
	level := []*Node{rootNode}
	for len(level) > 0 {
		pages, got, err := c.fetch.ExpandLevel(ctx, level, action)
		if err != nil {
			return nil, err
		}
		received += got
		var next []*Node
		for i, parent := range level {
			parent.Children = pages[i].Children
			for _, ch := range pages[i].Children {
				tree.Index[ch.ObID] = ch
				next = append(next, ch)
			}
		}
		level = next
	}

	// Tree conditions cannot travel inside navigational queries
	// (Section 4.1) — evaluate them at the client on the fetched tree.
	ok, err := c.clientTreeConditions(tree, action)
	if err != nil {
		return nil, err
	}
	if !ok {
		tree = &Tree{Index: map[int64]*Node{}} // all-or-nothing
	}
	// The check actions run this expand as their read phase — they count
	// themselves as writes, so only a user-level MLE counts here.
	if action == ActionMLE {
		c.countAction(action, root, false)
	}
	return &ActionResult{
		Tree:         tree,
		RowsReceived: received,
		Visible:      tree.Size(),
		Metrics:      c.delta(before),
	}, nil
}
