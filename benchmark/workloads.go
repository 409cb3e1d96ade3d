package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"pdmtune"
	"pdmtune/internal/costmodel"
)

// workload is one of the four fixed scenarios: a data set, a session
// configuration, a mix, and the reason it exists.
type workload struct {
	Name string
	// Why is the one-line rationale BENCHMARK.json carries.
	Why  string
	Data dataset
	// OpsPerSecond sizes the op list: a run executes
	// round(OpsPerSecond x -seconds) ops per workload, split evenly over
	// the clients. The rates were measured once on the 2-core sandbox so
	// that the measured phase lasts about -seconds there, and are frozen:
	// a fixed op list is what makes the count metrics repeat exactly.
	OpsPerSecond float64
	// Setups is how many times a run sets the system up; setup_s is the
	// median. The large data set affords fewer repeats.
	Setups  int
	Clients int
	// TCP routes the client over a loopback socket served by the
	// benchmark's own accept loop.
	TCP bool
	// Procs, when > 0, is the GOMAXPROCS the workload runs under. The
	// loopback workload runs on one P: with two, the Go scheduler resumed
	// the serving goroutine now on the client's thread and now on the
	// other, one way or the other for most of a run, and expand_p50_ms
	// came out at 0.145 or 0.20 ms accordingly (25% spread over ten runs,
	// against 8% on one P, where every hand-over is the same).
	Procs int
	// SyncEvery makes client 0 pull its site forward every n actions
	// (every quickSyncEvery under -quick, whose lists are short).
	SyncEvery int
	// Session is the session configuration under test; Cached adds a
	// structure cache of instance.cacheSize entries to it.
	Session []pdmtune.Option
	Cached  bool
	// Predict is the cost model's entry point for that configuration.
	Predict func(m costmodel.Model, a costmodel.Action) costmodel.Estimate
	// open opens the clients' sessions (nil: one client at the primary).
	open func(ctx context.Context, inst *instance) error
	mix  func(t *truth, client int) []stratum
}

const replicaSite = "eu"

const quickSyncEvery = 4

var workloads = []*workload{
	{
		Name:         "wan-recursive",
		Why:          "the paper's tuned configuration on the large tree: one round trip per action, so SQL execution, result encoding, deflate and tree assembly do the work",
		Data:         d7b5,
		OpsPerSecond: 12,
		Setups:       2,
		Clients:      1,
		Session: []pdmtune.Option{pdmtune.WithStrategy(pdmtune.Recursive), pdmtune.WithBatching(true),
			pdmtune.WithPreparedStatements(true), pdmtune.WithColumnarResults(true), pdmtune.WithCompression(true)},
		Predict: func(m costmodel.Model, a costmodel.Action) costmodel.Estimate {
			return m.PredictCompressed(a, costmodel.Recursive, costmodel.DefaultCompressionRatio)
		},
		mix: func(t *truth, _ int) []stratum {
			roots := t.visibleAssemblies(0, 4, nil)
			prod := [][]int64{{t.prod.Config.ProdID}}
			return []stratum{
				{Kind: opMLE, Share: 0.45, Levels: roots},
				{Kind: opExpand, Share: 0.35, Levels: roots},
				{Kind: opQuery, Share: 0.10, Levels: prod},
				{Kind: opWhereUsed, Share: 0.05, Levels: t.visible(t.depth(), t.depth(), nil)},
				{Kind: opReport, Share: 0.05, Levels: prod},
			}
		},
	},
	{
		Name:         "untuned-navigate",
		Why:          "the paper's Table 2 baseline over loopback TCP: dozens to hundreds of tiny round trips per action, so framing, the socket, parsing and client-side rule filtering dominate",
		Data:         d9b3,
		OpsPerSecond: 60,
		Setups:       3,
		Clients:      1,
		TCP:          true,
		Procs:        1,
		Session:      []pdmtune.Option{pdmtune.WithStrategy(pdmtune.LateEval)},
		Predict: func(m costmodel.Model, a costmodel.Action) costmodel.Estimate {
			return m.Predict(a, costmodel.LateEval)
		},
		mix: func(t *truth, _ int) []stratum {
			roots := t.visibleAssemblies(2, 6, nil)
			return []stratum{
				{Kind: opMLE, Share: 0.50, Levels: roots},
				{Kind: opExpand, Share: 0.48, Levels: roots},
				{Kind: opQuery, Share: 0.02, Levels: [][]int64{{t.prod.Config.ProdID}}},
			}
		},
	},
	{
		Name:         "warm-repeat",
		Why:          "Zipf-repeated roots through a structure cache of half the visible pages, check-outs invalidating beside the reads: a hit is client work only, so server changes must not move the medians",
		Data:         d9b3,
		OpsPerSecond: 130,
		Setups:       3,
		Clients:      1,
		Session:      []pdmtune.Option{pdmtune.WithStrategy(pdmtune.EarlyEval), pdmtune.WithBatching(true)},
		Cached:       true,
		Predict: func(m costmodel.Model, a costmodel.Action) costmodel.Estimate {
			return m.PredictCached(a, costmodel.EarlyEval, false)
		},
		mix: func(t *truth, _ int) []stratum {
			roots := t.visibleAssemblies(2, 6, nil)
			return []stratum{
				{Kind: opMLE, Share: 0.47, Levels: roots, Zipf: 1.1},
				{Kind: opExpand, Share: 0.47, Levels: roots, Zipf: 1.1},
				{Kind: opQuery, Share: 0.03, Levels: [][]int64{{t.prod.Config.ProdID}}},
				{Kind: opPair, Share: 0.03, Levels: t.visibleAssemblies(4, 6, nil)},
			}
		},
	},
	{
		Name:         "replica-write",
		Why:          "two clients, at a partial replica and at the primary, mixing reads with check-outs, UPDATEs and ECOs: the only workload where MVCC commits, latches, delta sync and WAN write routing carry load",
		Data:         d9b3,
		OpsPerSecond: 42,
		Setups:       3,
		Clients:      2,
		SyncEvery:    20,
		Session:      []pdmtune.Option{pdmtune.WithStrategy(pdmtune.Recursive), pdmtune.WithBatching(true)},
		Predict: func(m costmodel.Model, a costmodel.Action) costmodel.Estimate {
			return m.PredictReplicated(a, costmodel.Recursive, costmodel.LANNetwork(), 0)
		},
		open: openReplicaWrite,
		mix:  mixReplicaWrite,
	},
}

// workloadNames lists the workloads in run order. Later issues cite the
// names, so they never change.
func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// instance is one set-up of a workload: a loaded system with its
// clients' sessions open, ready to execute op lists.
type instance struct {
	w       *workload
	data    dataset
	tr      *tracer // nil when untraced
	cluster *pdmtune.Cluster
	sys     *pdmtune.System
	truth   *truth
	clients []*client

	// replica-write only: the replica site, the session holding a
	// subtree checked out for the whole run, and that subtree's root.
	site   *pdmtune.Site
	holder *pdmtune.Session
	held   int64

	tcp   *tcpServer
	conns []net.Conn

	// loadSec is LoadProduct's share of setupSec.
	loadSec, setupSec float64
}

// client is one closed-loop user: a session and, when traced, its
// position in the span tree.
type client struct {
	sess *pdmtune.Session
	cur  *cursor
}

func (inst *instance) cursor(i int) *cursor { return inst.clients[i].cur }

// syncEvery is the pull cadence of client 0, 0 for none.
func (inst *instance) syncEvery() int {
	if inst.w.SyncEvery > 0 && inst.data.Name == d3b3.Name {
		return quickSyncEvery
	}
	return inst.w.SyncEvery
}

// cacheSize is warm-repeat's structure-cache bound: half the visible
// pages, and no more than the 2,048 entries that makes on d9b3.
func (inst *instance) cacheSize() int {
	return min(2048, inst.truth.visibleTotal()/2+1)
}

// sessionOptions is a workload's session configuration on this
// instance's data set.
func (inst *instance) sessionOptions(w *workload) []pdmtune.Option {
	opts := append([]pdmtune.Option(nil), w.Session...)
	if w.Cached {
		opts = append(opts, pdmtune.WithCache(inst.cacheSize()))
	}
	return opts
}

// openSingle opens the one client of a read workload at the primary:
// in-process, or over the benchmark's loopback server.
func openSingle(_ context.Context, inst *instance) error {
	opts := append(inst.sessionOptions(inst.w), pdmtune.WithUser(pdmtune.DefaultUser("alice")))
	if inst.w.TCP {
		srv, err := listenTCP(inst.sys.Server, inst.cursor(0))
		if err != nil {
			return err
		}
		inst.tcp = srv
		meter := &pdmtune.Meter{Link: pdmtune.Intercontinental()}
		tr, conn, err := srv.dial(meter, inst.cursor(0))
		if err != nil {
			return err
		}
		inst.conns = append(inst.conns, conn)
		opts = append(opts, pdmtune.WithTransport(tr), pdmtune.WithMeter(meter))
	}
	if inst.tr != nil {
		inst.tr.bind = inst.cursor(0)
	}
	sess, err := inst.sys.Open(opts...)
	if err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	inst.clients[0].sess = sess
	return nil
}

// setUp builds one instance. Timed (net of stolen time, see unstolen):
// creating the cluster, loading the product and everything the
// workload's open does (subscription, first sync, sessions, capability
// negotiation). Untimed: deriving the ground truth, which is the
// benchmark's own bookkeeping.
func setUp(ctx context.Context, w *workload, data dataset, tr *tracer) (*instance, error) {
	inst := &instance{w: w, data: data, tr: tr}
	for i := 0; i < w.Clients; i++ {
		inst.clients = append(inst.clients, &client{cur: newCursor(tr, i)})
	}
	start, stolenStart := time.Now(), stolenSeconds()
	var sites []pdmtune.SiteConfig
	if w.SyncEvery > 0 { // the workload has a replica to keep in sync
		sites = append(sites, pdmtune.SiteConfig{Name: replicaSite, Link: pdmtune.Intercontinental()})
	}
	cl, err := pdmtune.NewCluster(nil, sites...)
	if err != nil {
		return nil, err
	}
	inst.cluster, inst.sys = cl, cl.Primary()
	if tr != nil && !w.TCP {
		tr.bind = inst.cursor(0) // site pulls are driven by client 0
		cl.SetTransportWrapper(tr.wrapCluster)
	}
	prod, err := cl.LoadProduct(data.Config)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", data.Name, err)
	}
	inst.loadSec = time.Since(start).Seconds()
	inst.loadSec *= unstolen(inst.loadSec, stolenSeconds()-stolenStart)
	inst.truth = newTruth(prod)
	start, stolenStart = time.Now(), stolenSeconds()
	open := w.open
	if open == nil {
		open = openSingle
	}
	if err := open(ctx, inst); err != nil {
		inst.close()
		return nil, err
	}
	openSec := time.Since(start).Seconds()
	inst.setupSec = inst.loadSec + openSec*unstolen(openSec, stolenSeconds()-stolenStart)
	return inst, nil
}

// close ends the sessions and stops the TCP server, waiting for its
// goroutines.
func (inst *instance) close() {
	for _, c := range inst.clients {
		if c.sess != nil {
			_ = c.sess.Close() // teardown of a finished run; nothing left to report to
		}
	}
	if inst.holder != nil {
		_ = inst.holder.Close()
	}
	for _, conn := range inst.conns {
		conn.Close()
	}
	if inst.tcp != nil {
		inst.tcp.close()
	}
}

// replicaSubtrees picks replica-write's fixed cast from the ground
// truth: s1 is the level-1 subtree the replica subscribes to, s2 the
// one it does not, held the subtree the set-up session keeps checked
// out (a level-3 assembly of s1, or the deepest assembly level on the
// -quick tree).
func replicaSubtrees(t *truth) (s1, s2, held int64, heldLevel int) {
	top := t.byLevel[1]
	s1, s2 = top[0], top[1]
	heldLevel = 3
	if heldLevel > t.depth()-1 {
		heldLevel = t.depth() - 1
	}
	held = t.visibleAssemblies(heldLevel, heldLevel, func(id int64) bool { return t.under(id, s1) })[0][0]
	return
}

func openReplicaWrite(ctx context.Context, inst *instance) error {
	if len(inst.truth.byLevel[1]) < 2 {
		return fmt.Errorf("data set %s has fewer than two visible level-1 subtrees", inst.data.Name)
	}
	s1, _, held, _ := replicaSubtrees(inst.truth)
	inst.held = held
	cl := inst.cluster
	if err := cl.Subscribe(replicaSite, s1); err != nil {
		return err
	}
	site, _ := cl.Site(replicaSite)
	inst.site = site
	open := func(i int, site, user string) (*pdmtune.Session, error) {
		if inst.tr != nil {
			inst.tr.bind = inst.cursor(i)
		}
		return cl.OpenAt(ctx, site, append(inst.sessionOptions(inst.w), pdmtune.WithUser(pdmtune.DefaultUser(user)))...)
	}
	var err error
	if inst.holder, err = open(1, pdmtune.PrimarySite, "holder"); err != nil {
		return err
	}
	co, err := inst.holder.CheckOut(ctx, held)
	if err != nil || !co.Granted {
		return fmt.Errorf("set-up check-out of %d: granted=%v err=%v", held, co != nil && co.Granted, err)
	}
	// The first pull bootstraps the replica with the subscribed subtree,
	// the held flags included.
	if _, err := cl.SyncSite(ctx, replicaSite); err != nil {
		return err
	}
	if inst.clients[0].sess, err = open(0, replicaSite, "alice"); err != nil {
		return err
	}
	inst.clients[1].sess, err = open(1, pdmtune.PrimarySite, "bob")
	return err
}

// mixReplicaWrite: client 0 (alice, at the replica) reads mostly inside
// the subscribed subtree s1 and writes only there; client 1 (bob, at the
// primary) works only in s2 and is the only one to propagate ECOs, which
// also touch the product root. So every row has exactly one writer and
// the final state equals a serial replay of either order.
func mixReplicaWrite(t *truth, c int) []stratum {
	s1, s2, held, heldLevel := replicaSubtrees(t)
	in1 := func(id int64) bool { return t.under(id, s1) }
	in2 := func(id int64) bool { return t.under(id, s2) }
	if c == 1 {
		parts := t.visible(t.depth(), t.depth(), in2)
		return []stratum{
			{Kind: opMLE, Share: 0.40, Levels: t.visibleAssemblies(2, 6, in2)},
			{Kind: opExpand, Share: 0.20, Levels: t.visibleAssemblies(2, 6, in2)},
			{Kind: opPair, Share: 0.20, Levels: t.visibleAssemblies(heldLevel, t.depth()-1, in2)},
			{Kind: opUpdate, Share: 0.10, Levels: parts},
			{Kind: opECO, Share: 0.10, Levels: parts},
		}
	}
	free := func(id int64) bool { return in1(id) && !t.under(id, held) }
	return []stratum{
		{Kind: opMLE, Share: 0.45 * 0.9, Levels: t.visibleAssemblies(2, 6, in1)},
		{Kind: opMLE, Share: 0.45 * 0.1, Levels: t.visibleAssemblies(2, 6, in2)}, // falls through to the primary
		{Kind: opExpand, Share: 0.22 * 0.9, Levels: t.visibleAssemblies(2, 6, in1)},
		{Kind: opExpand, Share: 0.22 * 0.1, Levels: t.visibleAssemblies(2, 6, in2)},
		{Kind: opPair, Share: 0.22 * 0.95, Levels: t.visibleAssemblies(heldLevel, t.depth()-1, free)},
		{Kind: opPair, Share: 0.22 * 0.05, Levels: [][]int64{{held}}, Deny: true},
		{Kind: opUpdate, Share: 0.11, Levels: t.visible(t.depth(), t.depth(), free)},
	}
}
