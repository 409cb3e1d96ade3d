package core

import (
	"context"
)

// FetchRecursive ships the Section 5 combined query and reassembles
// the tree from the unified rows. The root's type comes from the
// result itself, so no lookup statement is needed.
func (w *wireFetcher) FetchRecursive(ctx context.Context, root int64, action string) (*Tree, int, uint64, error) {
	c := w.c
	st, err := c.statement(stmtKey{kind: stmtRecursive, action: action})
	if err != nil {
		return nil, 0, 0, err
	}
	resp, err := w.Exec(ctx, c.request(st, root))
	if err != nil {
		return nil, 0, 0, err
	}
	tree, err := AssembleRecursive(root, resp.Rows)
	if err != nil {
		return nil, 0, 0, err
	}
	c.rememberTypes(len(tree.Index), tree.Walk)
	return tree, len(resp.Rows), resp.Epoch, nil
}
