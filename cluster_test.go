package pdmtune_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pdmtune"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
)

func newTestCluster(t *testing.T, sites ...pdmtune.SiteConfig) *pdmtune.Cluster {
	t.Helper()
	cl, err := pdmtune.NewCluster(nil, sites...)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestNewClusterValidatesSites: empty, duplicate and reserved site
// names are rejected.
func TestNewClusterValidatesSites(t *testing.T) {
	if _, err := pdmtune.NewCluster(nil, pdmtune.SiteConfig{Name: ""}); err == nil {
		t.Error("NewCluster accepted an empty site name")
	}
	if _, err := pdmtune.NewCluster(nil, pdmtune.SiteConfig{Name: "primary"}); err == nil {
		t.Error("NewCluster accepted the reserved name \"primary\"")
	}
	if _, err := pdmtune.NewCluster(nil,
		pdmtune.SiteConfig{Name: "munich"}, pdmtune.SiteConfig{Name: "munich"}); err == nil {
		t.Error("NewCluster accepted a duplicate site")
	}
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"}, pdmtune.SiteConfig{Name: "tokyo"})
	if names := cl.SiteNames(); len(names) != 2 || names[0] != "munich" || names[1] != "tokyo" {
		t.Errorf("SiteNames = %v", names)
	}
}

// TestOpenOptionConflicts: every conflicting option pair fails Open
// up front with one structured *OptionError, in either order.
func TestOpenOptionConflicts(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"})
	sys := cl.Primary()
	if err := sys.LoadPaperExample(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tr := pdmtune.MeteredTransport(
		&wire.MeteredChannel{Conn: sys.Server.NewConn()}, netsim.NewMeter(pdmtune.LAN()))

	cases := []struct {
		name string
		open func() (*pdmtune.Session, error)
	}{
		{"WithTransport+WithLink", func() (*pdmtune.Session, error) {
			return sys.Open(pdmtune.WithTransport(tr), pdmtune.WithLink(pdmtune.LAN()))
		}},
		{"WithLink+WithTransport", func() (*pdmtune.Session, error) {
			return sys.Open(pdmtune.WithLink(pdmtune.LAN()), pdmtune.WithTransport(tr))
		}},
		{"WithMaxStaleness at the primary", func() (*pdmtune.Session, error) {
			return sys.Open(pdmtune.WithMaxStaleness(time.Second))
		}},
		{"WithMaxStaleness at the primary site", func() (*pdmtune.Session, error) {
			return cl.OpenAt(ctx, pdmtune.PrimarySite, pdmtune.WithMaxStaleness(time.Second))
		}},
		{"WithTransport at a replica site", func() (*pdmtune.Session, error) {
			return cl.OpenAt(ctx, "munich", pdmtune.WithTransport(tr))
		}},
		{"unknown site", func() (*pdmtune.Session, error) {
			return cl.OpenAt(ctx, "atlantis")
		}},
		{"negative staleness bound", func() (*pdmtune.Session, error) {
			return cl.OpenAt(ctx, "munich", pdmtune.WithMaxStaleness(-time.Second))
		}},
	}
	for _, tc := range cases {
		_, err := tc.open()
		if err == nil {
			t.Errorf("%s: Open succeeded, want *OptionError", tc.name)
			continue
		}
		var oe *pdmtune.OptionError
		if !errors.As(err, &oe) {
			t.Errorf("%s: error %v (%T), want *OptionError", tc.name, err, err)
		}
	}

	// The non-conflicting spellings still work.
	if _, err := sys.Open(pdmtune.WithCache(16)); err != nil {
		t.Errorf("WithCache alone: %v", err)
	}
	if _, err := sys.Open(pdmtune.WithTransport(tr), pdmtune.WithMeter(netsim.NewMeter(pdmtune.LAN()))); err != nil {
		t.Errorf("WithTransport+WithMeter: %v", err)
	}
	if _, err := cl.OpenAt(ctx, "munich", pdmtune.WithMaxStaleness(0)); err != nil {
		t.Errorf("WithMaxStaleness at a replica: %v", err)
	}
}

// dumpSys serializes the PDM tables of a database for equality checks.
func dumpSys(t *testing.T, q func(string) ([][]string, error)) string {
	t.Helper()
	var lines []string
	for _, table := range []string{"assy", "comp", "link", "spec", "specified_by"} {
		rows, err := q(table)
		if err != nil {
			if strings.Contains(err.Error(), "no such table") {
				continue
			}
			t.Fatal(err)
		}
		for _, row := range rows {
			lines = append(lines, table+"|"+strings.Join(row, "|"))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// dumpVia dumps through a *Session's raw Exec (SELECTs route to the
// session's local server — the replica for site sessions).
func dumpVia(t *testing.T, sess *pdmtune.Session) string {
	t.Helper()
	ctx := context.Background()
	return dumpSys(t, func(table string) ([][]string, error) {
		resp, err := sess.Exec(ctx, "SELECT * FROM "+table)
		if err != nil {
			return nil, err
		}
		out := make([][]string, len(resp.Rows))
		for i, row := range resp.Rows {
			parts := make([]string, len(row))
			for j, v := range row {
				parts[j] = v.String()
			}
			out[i] = parts
		}
		return out, nil
	})
}

// TestClusterReplicationProperty: random interleavings of primary
// writes (check-out/check-in, raw DML) and SyncSite keep the replica's
// full dump equal to the primary's as of each sync.
func TestClusterReplicationProperty(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 3, Sigma: 0.8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	writer, err := cl.Primary().Open(pdmtune.WithLink(pdmtune.LAN()))
	if err != nil {
		t.Fatal(err)
	}
	reader, err := cl.OpenAt(ctx, "munich")
	if err != nil {
		t.Fatal(err)
	}
	primary, err := cl.OpenAt(ctx, pdmtune.PrimarySite, pdmtune.WithLink(pdmtune.LAN()))
	if err != nil {
		t.Fatal(err)
	}

	var subtrees []int64
	for id, n := range prod.Nodes {
		if n.Type == "assy" && n.Visible {
			subtrees = append(subtrees, id)
		}
	}
	sort.Slice(subtrees, func(i, j int) bool { return subtrees[i] < subtrees[j] })

	out := false
	for step := 0; step < 12; step++ {
		root := subtrees[step%len(subtrees)]
		var err error
		if out {
			_, err = writer.CheckInViaProcedure(ctx, prod.RootID)
		} else if step%3 == 2 {
			_, err = writer.Exec(ctx, fmt.Sprintf("UPDATE comp SET state = 'rev%d' WHERE obid = %d",
				step, prod.Nodes[subtrees[0]].Children[0]))
		} else {
			_, err = writer.CheckOutViaProcedure(ctx, root)
			out = true
		}
		if err != nil {
			t.Fatal(err)
		}
		if out && step%2 == 1 {
			_, err = writer.CheckInViaProcedure(ctx, prod.RootID)
			if err != nil {
				t.Fatal(err)
			}
			out = false
		}
		if step%2 == 0 {
			if _, err := cl.SyncSite(ctx, "munich"); err != nil {
				t.Fatal(err)
			}
			if p, r := dumpVia(t, primary), dumpVia(t, reader); p != r {
				t.Fatalf("step %d: replica dump differs from primary after SyncSite", step)
			}
		}
	}
	if _, err := cl.SyncSite(ctx, "munich"); err != nil {
		t.Fatal(err)
	}
	if p, r := dumpVia(t, primary), dumpVia(t, reader); p != r {
		t.Fatal("final replica dump differs from primary")
	}
}

// TestReplicaWriteRouting: a check-out from a replica session lands at
// the primary (across the WAN meter), and the replica serves the new
// state only after a sync.
func TestReplicaWriteRouting(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "tokyo"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 3, Sigma: 1.0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess, err := cl.OpenAt(ctx, "tokyo", pdmtune.WithUser(pdmtune.DefaultUser("kenji")))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Site() != "tokyo" {
		t.Errorf("Site() = %q", sess.Site())
	}

	// The read costs nothing on the WAN.
	if _, err := sess.MultiLevelExpand(ctx, prod.RootID); err != nil {
		t.Fatal(err)
	}
	if m := sess.WANMetrics(); m.RoundTrips != 0 {
		t.Errorf("replica MLE crossed the WAN: %+v", m)
	}
	if m := sess.LocalMetrics(); m.RoundTrips == 0 {
		t.Error("replica MLE charged no local traffic")
	}

	// The write crosses the WAN and mutates the primary, not the replica.
	co, err := sess.CheckOutViaProcedure(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	if !co.Granted || co.Updated == 0 {
		t.Fatalf("check-out from the replica session: %+v", co)
	}
	if m := sess.WANMetrics(); m.RoundTrips == 0 {
		t.Error("check-out did not cross the WAN")
	}
	count := func() int64 {
		resp, err := sess.Exec(ctx, "SELECT COUNT(*) FROM assy WHERE checkedout = TRUE")
		if err != nil {
			t.Fatal(err)
		}
		return resp.Rows[0][0].Int()
	}
	if n := count(); n != 0 {
		t.Fatalf("replica sees %d checked-out assemblies before sync", n)
	}
	if _, err := cl.SyncSite(ctx, "tokyo"); err != nil {
		t.Fatal(err)
	}
	if n := count(); n == 0 {
		t.Fatal("replica sees no checked-out assemblies after sync")
	}
}

// TestMaxStalenessBounds: a zero-bound session syncs before every
// action and sees primary writes immediately; an unbounded session
// reads its own site until an explicit sync. The two sessions live at
// different sites — staleness is a property of the site a session
// reads from, so a bounded session's sync freshens its whole site.
func TestMaxStalenessBounds(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"}, pdmtune.SiteConfig{Name: "tokyo"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 2, Branch: 3, Sigma: 1.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fresh, err := cl.OpenAt(ctx, "munich", pdmtune.WithMaxStaleness(0))
	if err != nil {
		t.Fatal(err)
	}
	stale, err := cl.OpenAt(ctx, "tokyo")
	if err != nil {
		t.Fatal(err)
	}
	writer, err := cl.Primary().Open(pdmtune.WithLink(pdmtune.LAN()))
	if err != nil {
		t.Fatal(err)
	}

	checkedOut := func(sess *pdmtune.Session) bool {
		res, err := sess.MultiLevelExpand(ctx, prod.RootID)
		if err != nil {
			t.Fatal(err)
		}
		return res.Tree.Root.CheckedOut
	}
	if checkedOut(fresh) || checkedOut(stale) {
		t.Fatal("product starts checked out")
	}
	if _, err := writer.CheckOutViaProcedure(ctx, prod.RootID); err != nil {
		t.Fatal(err)
	}
	if !checkedOut(fresh) {
		t.Error("zero-bound session served a stale read")
	}
	if checkedOut(stale) {
		t.Error("read-your-own-site session synced without being asked")
	}
	if _, err := cl.SyncSite(ctx, "tokyo"); err != nil {
		t.Fatal(err)
	}
	if !checkedOut(stale) {
		t.Error("read-your-own-site session blind after explicit sync")
	}

	// The set-oriented Query honors the bound too — it ships its
	// statement outside the fetcher, which once made it skip the sync.
	if _, err := writer.CheckInViaProcedure(ctx, prod.RootID); err != nil {
		t.Fatal(err)
	}
	q, err := fresh.Query(ctx, prod.Config.ProdID)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range q.Objects {
		if n.ObID == prod.RootID && n.CheckedOut {
			t.Error("zero-bound Query served the pre-check-in revision")
		}
	}
}

// TestOpenAtRejectsEmptySite: an empty site name is an error, not a
// silent full-WAN primary session.
func TestOpenAtRejectsEmptySite(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"})
	if err := cl.Primary().LoadPaperExample(); err != nil {
		t.Fatal(err)
	}
	_, err := cl.OpenAt(context.Background(), "")
	var oe *pdmtune.OptionError
	if !errors.As(err, &oe) {
		t.Fatalf("OpenAt(\"\") = %v, want *OptionError", err)
	}
	if _, err := cl.OpenAt(context.Background(), pdmtune.PrimarySite); err != nil {
		t.Fatalf("OpenAt(PrimarySite): %v", err)
	}
}

// TestSessionCloseCostsNoRoundTrip: sessions hold no server-side state,
// so Close never touches the wire — prepared statements or not — and the
// session stays usable.
func TestSessionCloseCostsNoRoundTrip(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{Depth: 2, Branch: 3, Sigma: 1.0, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, opts := range [][]pdmtune.Option{
		{pdmtune.WithStrategy(pdmtune.EarlyEval)},
		{pdmtune.WithStrategy(pdmtune.EarlyEval), pdmtune.WithBatching(true), pdmtune.WithPreparedStatements(true)},
	} {
		sess, err := sys.Open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		res1, err := sess.MultiLevelExpand(ctx, prod.RootID)
		if err != nil {
			t.Fatal(err)
		}
		before := sess.Metrics()
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if got := sess.Metrics().RoundTrips - before.RoundTrips; got != 0 {
			t.Errorf("Close cost %d round trips (%d prepared execs before it)", got, before.PreparedExecs)
		}
		res2, err := sess.MultiLevelExpand(ctx, prod.RootID)
		if err != nil {
			t.Fatal(err)
		}
		if res1.Visible != res2.Visible {
			t.Errorf("post-Close MLE sees %d nodes, pre-Close %d", res2.Visible, res1.Visible)
		}
	}
}

// TestConcurrentSiteReadersDuringSync is the cluster-level -race
// exercise: sessions read at a site while the primary writes and the
// site syncs.
func TestConcurrentSiteReadersDuringSync(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 3, Sigma: 1.0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cl.SyncSite(ctx, "munich"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer at the primary
		defer wg.Done()
		sess, err := cl.Primary().Open(pdmtune.WithLink(pdmtune.LAN()))
		if err != nil {
			t.Error(err)
			return
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := sess.CheckOutViaProcedure(ctx, prod.RootID); err != nil {
				t.Error(err)
				return
			}
			if _, err := sess.CheckInViaProcedure(ctx, prod.RootID); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) { // readers at the site (one session per goroutine)
			defer wg.Done()
			opts := []pdmtune.Option{pdmtune.WithUser(pdmtune.DefaultUser(fmt.Sprintf("r%d", r)))}
			if r == 0 {
				opts = append(opts, pdmtune.WithMaxStaleness(time.Millisecond))
			}
			sess, err := cl.OpenAt(ctx, "munich", opts...)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sess.MultiLevelExpand(ctx, prod.RootID); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() { // sync loop
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := cl.SyncSite(ctx, "munich"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}
