package core

import (
	"context"

	"pdmtune/internal/wire"
)

// fetcher is the unified read path of the PDM client. Every byte a
// read action pulls across the WAN flows through one of its methods:
// the per-level navigational expand (probes included), the object
// type lookup, and the Section 5 recursive fetch. Unifying the four
// formerly hand-woven code paths behind one interface is what lets
// the structure cache decorate all read traffic in one place — and
// what keeps the wire strategies (batching, prepared statements) in
// one file each instead of threaded through every action.
//
// Implementations: wireFetcher (the real WAN paths), cachedFetcher
// (the version-validated structure cache decorating a wireFetcher) and
// fallThroughFetcher (partial replicas).
type fetcher interface {
	// BeginAction resets per-action state; every user action calls it
	// once before its first fetch. The cached fetcher uses it to scope
	// its validate-on-use exchange to one round trip per action.
	BeginAction()

	// ExpandLevel fetches the visible children of every parent of one
	// BFS level — the single-level expand queries plus the ∃structure
	// probes the survivors need. It returns one page per parent (same
	// order) and the total number of rows received over the wire.
	ExpandLevel(ctx context.Context, parents []*Node, action string) ([]expandPage, int, error)

	// LookupType resolves an object id to its object type ("assy",
	// "comp"). An id found in no object table is an error.
	LookupType(ctx context.Context, obid int64) (string, error)

	// FetchRecursive ships the Section 5 combined recursive query and
	// returns the reassembled tree, the rows received and the server
	// epoch of the fetch.
	FetchRecursive(ctx context.Context, root int64, action string) (*Tree, int, uint64, error)
}

// expandPage is the result of expanding one parent: the children the
// user may see, plus the bookkeeping the cache layer needs to stamp
// and later revalidate the page.
type expandPage struct {
	// Children are the visible children (rule-filtered, probes
	// applied), each with its connecting link attributes.
	Children []*Node
	// AllIDs are the object ids of every row the expand answer
	// carried, including children the rules filtered out — the full
	// set whose server versions govern this page's freshness.
	AllIDs []int64
	// Epoch is the server's modification epoch at fetch time (0 when
	// the server does not version its data, or when the page was
	// served from cache).
	Epoch uint64
}

// wireFetcher is the real read path, bound to the connection it
// executes on: the client's read connection under the configured wire
// strategy (batched levels, prepared executions), or — primary set —
// the fall-through lane of a partial replica, where every statement
// crosses to the primary one round trip at a time, as text, counted as
// fall-through. Its method bodies live in expand.go, probe.go,
// typelookup.go and recursive.go.
type wireFetcher struct {
	c       *Client
	primary bool
}

// exec ships one statement on the fetcher's connection.
func (w *wireFetcher) exec(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if w.primary {
		return w.c.execFallThrough(ctx, req)
	}
	return w.c.sql.Do(ctx, req)
}

// BeginAction is a no-op: the wire fetcher keeps no per-action state.
func (w *wireFetcher) BeginAction() {}

// ExpandLevel expands one BFS level: as a single batch round trip per
// level when batching is enabled, one round trip per parent (the
// paper's behavior) otherwise.
func (w *wireFetcher) ExpandLevel(ctx context.Context, parents []*Node, action string) ([]expandPage, int, error) {
	if w.c.knobs.Batching && !w.primary {
		return w.expandLevelBatched(ctx, parents, action)
	}
	pages := make([]expandPage, len(parents))
	received := 0
	for i, parent := range parents {
		page, err := w.expandOnce(ctx, parent.ObID, action)
		if err != nil {
			return nil, 0, err
		}
		received += len(page.AllIDs)
		pages[i] = page
	}
	return pages, received, nil
}
