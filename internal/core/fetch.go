package core

import (
	"context"

	"pdmtune/internal/wire"
)

// fetcher is the one read path of the PDM client. Every byte a read
// pulls across the WAN flows through one of its methods: the per-level
// navigational expand (probes included), the object type lookup, the
// Section 5 recursive fetch, and the statements that need the whole
// structure (Query, where-used, the report, raw reads). One interface
// lets the structure cache decorate the structure reads in one place,
// lets a partial replica decide in one place where each read runs, and
// keeps the statement modes in one place each instead of threaded
// through every action: batching in execLevel, prepared statements in
// the request constructor (statement.go).
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

	// Exec ships one read statement where the whole structure lives:
	// the client's read connection, or the primary while the client
	// reads at a subscription-bounded replica.
	Exec(ctx context.Context, req *wire.Request) (*wire.Response, error)
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

// Exec ships one statement on the fetcher's connection.
func (w *wireFetcher) Exec(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if w.primary {
		return w.c.execFallThrough(ctx, req)
	}
	return w.c.route.Load().Read.Do(ctx, req)
}

// BeginAction is a no-op: the wire fetcher keeps no per-action state.
func (w *wireFetcher) BeginAction() {}

// execLevel ships one level's n statements: in one batch frame when
// batching is on (never on the fall-through lane), one round trip each
// otherwise. The statements are the same either way; req builds
// statement i and got receives its answer, in order, as it arrives.
func (w *wireFetcher) execLevel(ctx context.Context, n int, req func(i int) (*wire.Request, error), got func(i int, resp *wire.Response) error) error {
	if w.c.knobs.Batching && !w.primary {
		reqs := make([]*wire.Request, n)
		for i := range reqs {
			r, err := req(i)
			if err != nil {
				return err
			}
			reqs[i] = r
		}
		resps, err := w.c.route.Load().Read.ExecBatch(ctx, reqs)
		if err != nil {
			return err
		}
		for i, resp := range resps {
			if err := got(i, resp); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		r, err := req(i)
		if err != nil {
			return err
		}
		resp, err := w.Exec(ctx, r)
		if err != nil {
			return err
		}
		if err := got(i, resp); err != nil {
			return err
		}
	}
	return nil
}

// ExpandLevel expands one BFS level: one expand statement per parent
// (the paper's statement-per-node loop), then the ∃structure probes its
// candidates need, each shipped through execLevel.
func (w *wireFetcher) ExpandLevel(ctx context.Context, parents []*Node, action string) ([]expandPage, int, error) {
	c := w.c
	pages := make([]expandPage, len(parents))
	received := 0
	err := w.execLevel(ctx, len(parents), func(i int) (*wire.Request, error) {
		return c.expandRequest(parents[i].ObID, action)
	}, func(i int, resp *wire.Response) error {
		ns, allIDs, err := c.filterExpandRows(resp.Rows, action)
		if err != nil {
			return err
		}
		received += len(resp.Rows)
		pages[i] = expandPage{Children: ns, AllIDs: allIDs, Epoch: resp.Epoch}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if err := w.probeLevel(ctx, pages, action); err != nil {
		return nil, 0, err
	}
	return pages, received, nil
}
