package topology

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pdmtune/internal/minisql"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
)

// newTestCluster builds a fenced cluster over raw databases: the
// newPrimary schema at the origin and one empty replica per name.
func newTestCluster(t *testing.T, names ...string) (*Cluster, *Site) {
	t.Helper()
	db, _ := newPrimary(t)
	origin := NewPrimary(db)
	var sites []*Site
	for _, name := range names {
		sites = append(sites, newSite(t, name, origin.Server()))
	}
	return NewCluster(origin, sites...), origin
}

func fenceOf(n *Site) (term uint64, primary bool) { return n.Server().CurrentFence().State() }

// TestPromoteAndFailBackWithoutFacade drives promotion, rejoin and
// fail-back on bare nodes: the primary role, the fences and the pulls
// follow, and every node converges on the primary's data.
func TestPromoteAndFailBackWithoutFacade(t *testing.T) {
	cl, origin := newTestCluster(t, "munich", "tokyo")
	ctx := context.Background()
	write := func(n *Site, id int) {
		t.Helper()
		mustExec(t, n.DB().NewSession(), fmt.Sprintf("INSERT INTO obj VALUES (%d, 'n%d', %d)", id, id, id))
	}
	syncAll := func() {
		t.Helper()
		for _, s := range cl.Sites() {
			if _, err := s.Sync(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	converged := func() {
		t.Helper()
		syncAll()
		want := dumpDB(t, cl.Primary().DB())
		for _, s := range cl.Sites() {
			if dumpDB(t, s.DB()) != want {
				t.Fatalf("site %s diverged from primary %s", s.Name(), cl.PrimaryName())
			}
		}
	}

	write(origin, 1)
	converged()
	if err := cl.Promote(ctx, "munich"); err != nil {
		t.Fatal(err)
	}
	munich, _ := cl.Site("munich")
	if cl.Primary() != munich || cl.PrimaryName() != "munich" || cl.Term() != 2 {
		t.Fatalf("after promotion: primary %q term %d", cl.PrimaryName(), cl.Term())
	}
	if term, primary := fenceOf(origin); term != 1 || primary {
		t.Fatalf("deposed origin fence = (%d, %v), want (1, false)", term, primary)
	}
	if term, primary := fenceOf(munich); term != 2 || !primary {
		t.Fatalf("new primary fence = (%d, %v), want (2, true)", term, primary)
	}
	var pe *PromoteError
	if err := cl.Promote(ctx, "munich"); !errors.As(err, &pe) || pe.Stage != "already-primary" {
		t.Fatalf("re-promoting the primary: %v", err)
	}
	write(munich, 2)
	converged()

	if _, err := cl.Rejoin(ctx); err != nil {
		t.Fatal(err)
	}
	if rejoined, ok := cl.Site(DemotedPrimarySite); !ok || rejoined != origin {
		t.Fatal("Rejoin did not register the original node as a site")
	}
	if term, primary := fenceOf(origin); term != 2 || primary {
		t.Fatalf("rejoined origin fence = (%d, %v), want (2, false)", term, primary)
	}
	converged()

	if err := cl.Promote(ctx, DemotedPrimarySite); err != nil {
		t.Fatal(err)
	}
	if cl.Primary() != origin || cl.PrimaryName() != DemotedPrimarySite || cl.Term() != 3 {
		t.Fatalf("after fail-back: primary %q term %d", cl.PrimaryName(), cl.Term())
	}
	if term, primary := fenceOf(origin); term != 3 || !primary {
		t.Fatalf("failed-back origin fence = (%d, %v), want (3, true)", term, primary)
	}
	write(origin, 3)
	converged()
	if _, err := cl.Rejoin(ctx); err == nil {
		t.Fatal("second Rejoin accepted")
	}
}

// TestPromoteWrapsTransportsByNodeName: the transport wrapper sees the
// original primary as PrimarySite until it rejoins, and under its site
// name after.
func TestPromoteWrapsTransportsByNodeName(t *testing.T) {
	cl, _ := newTestCluster(t, "munich")
	ctx := context.Background()
	seen := map[string]int{}
	cl.SetTransportWrapper(func(target string, tr wire.Transport) wire.Transport {
		seen[target]++
		return tr
	})
	if seen[PrimarySite] != 1 {
		t.Fatalf("wrapper targets after install: %v, want munich's pull into %q", seen, PrimarySite)
	}
	if err := cl.Promote(ctx, "munich"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Rejoin(ctx); err != nil {
		t.Fatal(err)
	}
	clear(seen)
	origin, _ := cl.Site(DemotedPrimarySite)
	_ = cl.Wrap(origin, &wire.MeteredChannel{Conn: origin.Server().NewConn(), Meter: netsim.NewMeter(netsim.LAN())})
	if seen[DemotedPrimarySite] != 1 || seen[PrimarySite] != 0 {
		t.Fatalf("wrapper targets after Rejoin: %v, want %q", seen, DemotedPrimarySite)
	}
}

// TestSiteLessClusterIsUnfenced: without sites nothing is fenced and
// nothing can be promoted or rejoined.
func TestSiteLessClusterIsUnfenced(t *testing.T) {
	origin := NewPrimary(minisql.NewDB())
	cl := NewCluster(origin)
	if cl.Fenced() || cl.Term() != 0 || origin.Server().CurrentFence() != nil {
		t.Fatal("a site-less cluster installed fences")
	}
	var pe *PromoteError
	if err := cl.Promote(context.Background(), "munich"); !errors.As(err, &pe) || pe.Stage != "unknown-site" {
		t.Fatalf("Promote without sites: %v", err)
	}
	if _, err := cl.Rejoin(context.Background()); err == nil {
		t.Fatal("Rejoin without a promotion accepted")
	}
}
