package pdmtune_test

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"

	"pdmtune"
	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/parser"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/wire"
)

// TestStatementModeMatrix is the metamorphic matrix of the statement
// pipeline on a small tree: every {strategy} × {batching} × {prepared}
// session must return byte-identical trees wherever it reads — at the
// primary, at a full replica, inside a partial replica's subscription
// and, through fall-through, outside it. (Only the root's own record
// differs between the access families: the recursive query fetches it,
// the navigational client has it already and looks up just its type —
// so below the root line all twelve configurations must agree, and
// within a family the root line too.) An ∃structure rule keeps the
// probe statements in play on every navigational lane. The fall-through
// lane ships one text statement per round trip whatever the session's
// mode, so its round-trip count depends on the strategy alone; the
// pinned counts were measured before the fall-through fetcher became a
// second wire fetcher.
func TestStatementModeMatrix(t *testing.T) {
	ctx := context.Background()
	rules := pdmtune.StandardRules()
	rules.MustAdd(pdmtune.Rule{
		User: "*", Action: "access", ObjType: "comp", Kind: pdmtune.KindExistsStructure,
		Cond: "EXISTS (SELECT * FROM specified_by AS s JOIN spec ON s.right = spec.obid WHERE s.left = comp.obid)",
	})
	// A where-used row condition: the recursive statement evaluates it at
	// the server, the level-wise walk at the client.
	rules.MustAdd(pdmtune.Rule{
		User: "*", Action: "where-used", ObjType: "assy", Kind: pdmtune.KindRow,
		Cond: "sets_overlap(assy.path_opt, {options})",
	})
	cl, err := pdmtune.NewCluster(rules, pdmtune.SiteConfig{Name: "full"}, pdmtune.SiteConfig{Name: "partial"})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 4, Branch: 3, Sigma: 0.8, Seed: 11, PadBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	children := prod.Nodes[prod.RootID].Children
	inSub, outSub := children[1], children[2]
	if err := cl.Subscribe("partial", inSub); err != nil {
		t.Fatal(err)
	}
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}

	// Fall-through round trips of one MLE of outSub, per strategy: the
	// type lookup, one expand per visible node and one probe per
	// candidate component — or the one recursive statement.
	wantFallThrough := map[pdmtune.Strategy]int{
		pdmtune.LateEval:  fallThroughNavigational,
		pdmtune.EarlyEval: fallThroughNavigational,
		pdmtune.Recursive: 1,
	}

	places := []struct {
		name, site string
		root       int64
	}{
		{"primary", "", outSub},
		{"full-replica", "full", outSub},
		{"partial-in", "partial", inSub},
		{"partial-fallthrough", "partial", outSub},
	}
	type family struct {
		root      int64
		recursive bool
	}
	want := map[family][]byte{}     // whole tree, per access family
	wantBelow := map[int64][]byte{} // everything below the root line
	for _, place := range places {
		for _, strategy := range []pdmtune.Strategy{pdmtune.LateEval, pdmtune.EarlyEval, pdmtune.Recursive} {
			for mode := 0; mode < 4; mode++ {
				batching, prepared := mode&1 != 0, mode&2 != 0
				name := fmt.Sprintf("%s/%v/batch=%t/prepared=%t", place.name, strategy, batching, prepared)
				opts := []pdmtune.Option{
					pdmtune.WithUser(pdmtune.DefaultUser("engineer")),
					pdmtune.WithStrategy(strategy),
					pdmtune.WithBatching(batching),
					pdmtune.WithPreparedStatements(prepared),
				}
				sess, err := openAt(ctx, cl, place.site, opts...)
				if err != nil {
					t.Fatalf("%s: open: %v", name, err)
				}
				res, err := sess.MultiLevelExpand(ctx, place.root)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := flattenTree(res.Tree)
				if res.Visible < 10 {
					t.Fatalf("%s: degenerate tree of %d nodes", name, res.Visible)
				}
				fam := family{place.root, strategy == pdmtune.Recursive}
				if want[fam] == nil {
					want[fam] = got
				} else if !bytes.Equal(got, want[fam]) {
					t.Errorf("%s: tree differs from the first configuration's", name)
				}
				below := got[bytes.IndexByte(got, '\n')+1:]
				if wantBelow[place.root] == nil {
					wantBelow[place.root] = below
				} else if !bytes.Equal(below, wantBelow[place.root]) {
					t.Errorf("%s: tree below the root differs from the first configuration's", name)
				}
				ft := sess.WANMetrics().FallThroughRoundTrips
				switch place.name {
				case "partial-fallthrough":
					if ft != wantFallThrough[strategy] {
						t.Errorf("%s: %d fall-through round trips, want %d", name, ft, wantFallThrough[strategy])
					}
				default:
					if ft != 0 {
						t.Errorf("%s: %d fall-through round trips, want none", name, ft)
					}
				}
				if err := sess.Close(); err != nil {
					t.Errorf("%s: close: %v", name, err)
				}
			}
		}
	}
	if bytes.Equal(wantBelow[inSub], wantBelow[outSub]) {
		t.Fatal("degenerate trees: both roots flatten alike")
	}

	// Query and Expand through every result encoding — v1 or v2, deflated
	// or not — under every strategy, at the primary and both replicas:
	// the objects and the expanded level must be byte-identical to the
	// first configuration's. A product spans every subtree, so the partial
	// replica's Query is one fall-through read of the whole product, and
	// so is a raw SELECT there, which must count what the primary counts.
	var wantQuery, wantExpand []byte
	wantCount := int64(-1) // the primary's assemblies of the product
	for _, place := range []struct{ name, site string }{{"primary", ""}, {"full-replica", "full"}, {"partial", "partial"}} {
		for _, strategy := range []pdmtune.Strategy{pdmtune.LateEval, pdmtune.EarlyEval, pdmtune.Recursive} {
			for mode := 0; mode < 4; mode++ {
				columnar, compress := mode&1 != 0, mode&2 != 0
				name := fmt.Sprintf("%s/%v/columnar=%t/compress=%t", place.name, strategy, columnar, compress)
				sess, err := openAt(ctx, cl, place.site,
					pdmtune.WithUser(pdmtune.DefaultUser("engineer")),
					pdmtune.WithStrategy(strategy),
					pdmtune.WithColumnarResults(columnar),
					pdmtune.WithCompression(compress))
				if err != nil {
					t.Fatalf("%s: open: %v", name, err)
				}
				query, err := sess.Query(ctx, prod.Config.ProdID)
				if err != nil {
					t.Fatalf("query/%s: %v", name, err)
				}
				var got bytes.Buffer
				for _, n := range query.Objects {
					got.Write(flattenTree(&pdmtune.Tree{Root: n}))
				}
				wantFT := 0
				if place.site == "partial" {
					wantFT = 1
				}
				if ft := sess.WANMetrics().FallThroughRoundTrips; ft != wantFT {
					t.Errorf("query/%s: %d fall-through round trips, want %d", name, ft, wantFT)
				}
				if strategy == pdmtune.LateEval && mode == 0 {
					count, err := sess.Exec(ctx, "SELECT COUNT(*) FROM assy WHERE prod = ?", types.NewInt(prod.Config.ProdID))
					if err != nil {
						t.Fatalf("count/%s: %v", name, err)
					}
					if len(count.Rows) != 1 || len(count.Rows[0]) != 1 || count.Rows[0][0].Kind() != types.KindInt {
						t.Fatalf("count/%s: answer %v is not one integer", name, count.Rows)
					}
					if n := count.Rows[0][0].Int(); wantCount < 0 {
						wantCount = n
					} else if n != wantCount {
						t.Errorf("count/%s: %d assemblies, the primary counts %d", name, n, wantCount)
					}
				}
				expand, err := sess.Expand(ctx, outSub)
				if err != nil {
					t.Fatalf("expand/%s: %v", name, err)
				}
				switch {
				case query.Visible < 10 || expand.Visible < 2:
					t.Fatalf("%s: degenerate results: %d objects, %d nodes expanded", name, query.Visible, expand.Visible)
				case wantQuery == nil:
					wantQuery, wantExpand = got.Bytes(), flattenTree(expand.Tree)
				case !bytes.Equal(got.Bytes(), wantQuery):
					t.Errorf("query/%s: objects differ from the first configuration's", name)
				case !bytes.Equal(flattenTree(expand.Tree), wantExpand):
					t.Errorf("expand/%s: tree differs from the first configuration's", name)
				}
				if err := sess.Close(); err != nil {
					t.Errorf("%s: close: %v", name, err)
				}
			}
		}
	}

	// Report is one statement over the whole product: site-local at the
	// primary and the full replica, one fall-through round trip at the
	// partial replica, which cannot count what it does not hold. Every
	// configuration must report the same aggregate.
	var wantReport *pdmtune.ReportResult
	for _, place := range []struct{ name, site string }{{"primary", ""}, {"full-replica", "full"}, {"partial-fallthrough", "partial"}} {
		for _, strategy := range []pdmtune.Strategy{pdmtune.LateEval, pdmtune.EarlyEval, pdmtune.Recursive} {
			for mode := 0; mode < 4; mode++ {
				batching, prepared := mode&1 != 0, mode&2 != 0
				name := fmt.Sprintf("report/%s/%v/batch=%t/prepared=%t", place.name, strategy, batching, prepared)
				opts := []pdmtune.Option{
					pdmtune.WithUser(pdmtune.DefaultUser("engineer")),
					pdmtune.WithStrategy(strategy),
					pdmtune.WithBatching(batching),
					pdmtune.WithPreparedStatements(prepared),
				}
				sess, err := openAt(ctx, cl, place.site, opts...)
				if err != nil {
					t.Fatalf("%s: open: %v", name, err)
				}
				res, err := sess.Report(ctx, prod.Config.ProdID)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Assemblies+res.Components != prod.AllNodes()+1 {
					t.Errorf("%s: report counts %d nodes, the product has %d", name, res.Assemblies+res.Components, prod.AllNodes()+1)
				}
				got := *res
				got.Metrics = pdmtune.Metrics{}
				if wantReport == nil {
					wantReport = &got
				} else if got != *wantReport {
					t.Errorf("%s: report %+v, the first configuration's %+v", name, got, *wantReport)
				}
				wantFT := 0
				if place.site == "partial" {
					wantFT = 1
				}
				if ft := sess.WANMetrics().FallThroughRoundTrips; res.Metrics.RoundTrips != 1 || ft != wantFT {
					t.Errorf("%s: %d round trips, %d fall-through; want 1, %d", name, res.Metrics.RoundTrips, ft, wantFT)
				}
				if err := sess.Close(); err != nil {
					t.Errorf("%s: close: %v", name, err)
				}
			}
		}
	}

	// Where-used and ECO of one part: the smallest deepest component
	// outside the subscription under a hidden parent, so the where-used
	// row condition drops some of its ancestors but not all (the root is
	// always visible). Where-used must return the ancestor set the
	// level-wise LateEval walk finds, in exactly one round trip under
	// Recursive — a fall-through one on the partial site — and ECO is one
	// procedure call under every strategy, whatever the session's result
	// encoding, compression and statement mode.
	var part int64
	for id, n := range prod.Nodes {
		if n.Type == "comp" && n.Level == prod.Config.Depth && !n.Visible && !underNode(prod, id, inSub) &&
			!prod.Nodes[n.Parent].Visible && (part == 0 || id < part) {
			part = id
		}
	}
	if part == 0 {
		t.Fatal("no deepest component under a hidden parent")
	}
	var chain []int64 // every ancestor, root included
	for id := prod.Nodes[part].Parent; id != 0; id = prod.Nodes[id].Parent {
		chain = append(chain, id)
	}
	sort.Slice(chain, func(i, j int) bool { return chain[i] < chain[j] })

	var wantAncestors []int64 // the level-wise LateEval walk's
	for _, eco := range []bool{false, true} {
		for _, place := range []struct{ name, site string }{{"primary", ""}, {"full-replica", "full"}, {"partial-fallthrough", "partial"}} {
			for _, strategy := range []pdmtune.Strategy{pdmtune.LateEval, pdmtune.EarlyEval, pdmtune.Recursive} {
				for mode := 0; mode < 8; mode++ {
					columnar, compress, prepared := mode&1 != 0, mode&2 != 0, mode&4 != 0
					name := fmt.Sprintf("%s/%v/columnar=%t/compress=%t/prepared=%t", place.name, strategy, columnar, compress, prepared)
					sess, err := openAt(ctx, cl, place.site,
						pdmtune.WithUser(pdmtune.DefaultUser("engineer")),
						pdmtune.WithStrategy(strategy),
						pdmtune.WithColumnarResults(columnar),
						pdmtune.WithCompression(compress),
						pdmtune.WithPreparedStatements(prepared))
					if err != nil {
						t.Fatalf("%s: open: %v", name, err)
					}
					if eco {
						name = "eco/" + name
						res, err := sess.ECOPropagate(ctx, part, fmt.Sprintf("rev%d", mode))
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						affected := append([]int64(nil), res.Affected...)
						sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })
						if fmt.Sprint(affected) != fmt.Sprint(chain) || res.Updated != len(chain)+1 || res.Conflicts != 0 {
							t.Errorf("%s: affected %v, updated %d, %d conflicts; want %v, %d, none",
								name, affected, res.Updated, res.Conflicts, chain, len(chain)+1)
						}
						if rt, ft := res.Metrics.RoundTrips, sess.WANMetrics().FallThroughRoundTrips; rt != 1 || ft != 0 {
							t.Errorf("%s: %d round trips, %d fall-through; want 1, none", name, rt, ft)
						}
					} else {
						name = "where-used/" + name
						res, err := sess.WhereUsed(ctx, part)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						var got []int64
						for _, n := range res.Objects {
							got = append(got, n.ObID)
						}
						sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
						if wantAncestors == nil {
							if strategy != pdmtune.LateEval {
								t.Fatal("the LateEval walk must run first")
							}
							if len(got) == 0 || len(got) >= len(chain) {
								t.Fatalf("%s: %d of %d ancestors visible; the row condition must drop some, not all", name, len(got), len(chain))
							}
							wantAncestors = got
						} else if fmt.Sprint(got) != fmt.Sprint(wantAncestors) {
							t.Errorf("%s: ancestors %v, the LateEval walk's %v", name, got, wantAncestors)
						}
						if strategy == pdmtune.Recursive {
							wantFT := 0
							if place.site == "partial" {
								wantFT = 1
							}
							if rt, ft := res.Metrics.RoundTrips, sess.WANMetrics().FallThroughRoundTrips; rt != 1 || ft != wantFT {
								t.Errorf("%s: %d round trips, %d fall-through; want 1, %d", name, rt, ft, wantFT)
							}
						}
					}
					if err := sess.Close(); err != nil {
						t.Errorf("%s: close: %v", name, err)
					}
				}
			}
		}
	}
}

// TestMatrixTextsClassifyAlike: every SQL text the sessions of
// TestStatementModeMatrix ship — its MLE, Query, Expand, Report,
// where-used and ECO under every strategy, batched or not, prepared or
// not — gets one verdict from the server's classifier, which reads the
// parsed statement (minisql.ReadOnly), and from the clients' keyword
// peek (wire.ReadOnlySQL), which reads past comments as the lexer does.
func TestMatrixTextsClassifyAlike(t *testing.T) {
	ctx := context.Background()
	rules := pdmtune.StandardRules()
	rules.MustAdd(pdmtune.Rule{
		User: "*", Action: "access", ObjType: "comp", Kind: pdmtune.KindExistsStructure,
		Cond: "EXISTS (SELECT * FROM specified_by AS s JOIN spec ON s.right = spec.obid WHERE s.left = comp.obid)",
	})
	rules.MustAdd(pdmtune.Rule{
		User: "*", Action: "where-used", ObjType: "assy", Kind: pdmtune.KindRow,
		Cond: "sets_overlap(assy.path_opt, {options})",
	})
	sys := pdmtune.NewSystem(rules)
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{Depth: 4, Branch: 3, Sigma: 0.8, Seed: 11, PadBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	var part int64
	for id, n := range prod.Nodes {
		if n.Type == "comp" && n.Level == prod.Config.Depth && (part == 0 || id < part) {
			part = id
		}
	}
	rec := &sqlRecorder{inner: &wire.MeteredChannel{Conn: sys.Server.NewConn()}, texts: map[string]bool{}}
	for _, strategy := range []pdmtune.Strategy{pdmtune.LateEval, pdmtune.EarlyEval, pdmtune.Recursive} {
		for mode := 0; mode < 4; mode++ {
			sess, err := sys.Open(pdmtune.WithTransport(rec),
				pdmtune.WithUser(pdmtune.DefaultUser("engineer")),
				pdmtune.WithStrategy(strategy),
				pdmtune.WithBatching(mode&1 != 0),
				pdmtune.WithPreparedStatements(mode&2 != 0))
			if err != nil {
				t.Fatal(err)
			}
			children := prod.Nodes[prod.RootID].Children
			for _, action := range []func() error{
				func() error { _, err := sess.MultiLevelExpand(ctx, children[2]); return err },
				func() error { _, err := sess.Query(ctx, prod.Config.ProdID); return err },
				func() error { _, err := sess.Expand(ctx, children[2]); return err },
				func() error { _, err := sess.Report(ctx, prod.Config.ProdID); return err },
				func() error { _, err := sess.WhereUsed(ctx, part); return err },
				func() error { _, err := sess.ECOPropagate(ctx, part, fmt.Sprintf("rev%d", mode)); return err },
			} {
				if err := action(); err != nil {
					t.Fatalf("%v/mode %d: %v", strategy, mode, err)
				}
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(rec.texts) < 10 {
		t.Fatalf("the matrix's sessions shipped %d texts", len(rec.texts))
	}
	for sql := range rec.texts {
		stmt, err := parser.Parse(sql)
		if err != nil {
			t.Errorf("shipped text does not parse: %v\n%s", err, sql)
			continue
		}
		ast, peek := minisql.ReadOnly(stmt), wire.ReadOnlySQL(sql)
		if ast != peek {
			t.Errorf("minisql.ReadOnly %v, wire.ReadOnlySQL %v:\n%s", ast, peek, sql)
		}
	}
}

// sqlRecorder is a transport that keeps the SQL text of every statement
// and prepare its requests carry.
type sqlRecorder struct {
	inner wire.Transport
	texts map[string]bool
}

func (r *sqlRecorder) RoundTrip(ctx context.Context, request []byte) ([]byte, error) {
	body := wire.FencedInner(request)
	if len(body) > 0 {
		switch body[0] {
		case wire.TypePrepare:
			if sql, err := wire.DecodePrepare(body); err == nil {
				r.texts[sql] = true
			}
		case wire.TypeRequest:
			if req, err := wire.DecodeRequest(body); err == nil {
				r.texts[req.SQL] = true
			}
		case wire.TypeBatch:
			reqs, _ := wire.DecodeBatch(body)
			for _, req := range reqs {
				if !req.Prepared {
					r.texts[req.SQL] = true
				}
			}
		}
	}
	return r.inner.RoundTrip(ctx, request)
}

// openAt opens a session at the primary (site "") or at a replica site.
func openAt(ctx context.Context, cl *pdmtune.Cluster, site string, opts ...pdmtune.Option) (*pdmtune.Session, error) {
	if site == "" {
		return cl.Primary().Open(opts...)
	}
	return cl.OpenAt(ctx, site, opts...)
}

// underNode reports whether id lies in the subtree rooted at root.
func underNode(prod *pdmtune.Product, id, root int64) bool {
	for ; id != 0; id = prod.Nodes[id].Parent {
		if id == root {
			return true
		}
	}
	return false
}

// fallThroughNavigational is the parent commit's fall-through count for
// a navigational MLE of the matrix's out-of-subscription root.
const fallThroughNavigational = 37
