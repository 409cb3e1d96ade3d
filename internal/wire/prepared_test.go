package wire

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/netsim"
)

func TestPrepareFrameRoundTrip(t *testing.T) {
	sql := "SELECT * FROM t WHERE a = ?"
	body := EncodePrepare(sql)
	got, err := DecodePrepare(body)
	if err != nil || got != sql {
		t.Fatalf("DecodePrepare = %q, %v", got, err)
	}
	resp := EncodePrepareResp(42)
	h, err := DecodePrepareResp(resp)
	if err != nil || h != 42 {
		t.Fatalf("DecodePrepareResp = %d, %v", h, err)
	}
	if _, err := DecodePrepare(resp); err == nil {
		t.Error("DecodePrepare accepted a prepare response frame")
	}
}

func TestExecPreparedFrameRoundTrip(t *testing.T) {
	body := EncodeExecPrepared(7, []types.Value{types.NewInt(5), types.NewText("x")})
	req, err := DecodeExecPrepared(body)
	if err != nil {
		t.Fatal(err)
	}
	if !req.Prepared || req.Handle != 7 || len(req.Params) != 2 {
		t.Fatalf("decoded %+v", req)
	}
	if req.Params[0].Int() != 5 || req.Params[1].Text() != "x" {
		t.Fatalf("params %v", req.Params)
	}
	// DecodeExec dispatches on the tag.
	req2, err := DecodeExec(body)
	if err != nil || !req2.Prepared {
		t.Fatalf("DecodeExec = %+v, %v", req2, err)
	}
}

func TestBatchCarriesPreparedExecs(t *testing.T) {
	reqs := []*Request{
		{SQL: "SELECT 1"},
		{Prepared: true, Handle: 3, Params: []types.Value{types.NewInt(9)}},
	}
	decoded, err := DecodeBatch(EncodeBatch(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 || decoded[0].Prepared || !decoded[1].Prepared {
		t.Fatalf("decoded %+v", decoded)
	}
	if decoded[1].Handle != 3 || decoded[1].Params[0].Int() != 9 {
		t.Fatalf("prepared sub-frame %+v", decoded[1])
	}
}

func preparedTestClient(t *testing.T) (*Client, *netsim.Meter) {
	t.Helper()
	db := minisql.NewDB()
	srv := NewServer(db)
	meter := netsim.NewMeter(netsim.Intercontinental())
	client := NewClient(&MeteredChannel{Conn: srv.NewConn(), Meter: meter})
	ctx := context.Background()
	if _, err := client.Exec(ctx, "CREATE TABLE t (a INTEGER, b TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exec(ctx, "INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')"); err != nil {
		t.Fatal(err)
	}
	return client, meter
}

// prep is a Prepared request naming its statement by text: the client
// binds it to the server's handle, preparing on first use.
func prep(sql string, params ...types.Value) *Request {
	return &Request{SQL: sql, Params: params, Prepared: true}
}

func TestPrepareAndExecAgainstServer(t *testing.T) {
	client, meter := preparedTestClient(t)
	ctx := context.Background()
	const sql = "SELECT b FROM t WHERE a = ?"
	for i, want := range []string{"one", "two", "three"} {
		resp, err := client.Do(ctx, prep(sql, types.NewInt(int64(i+1))))
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Rows) != 1 || resp.Rows[0][0].Text() != want {
			t.Fatalf("exec %d: %+v", i+1, resp.Rows)
		}
	}
	m := meter.Metrics
	if m.PreparedExecs != 3 {
		t.Errorf("PreparedExecs = %d, want 3", m.PreparedExecs)
	}
	// Each execution avoided re-shipping the SQL text.
	if want := float64(3 * len(sql)); m.SavedRequestBytes != want {
		t.Errorf("SavedRequestBytes = %.0f, want %.0f", m.SavedRequestBytes, want)
	}
	// 1 create + 1 insert + 1 prepare (on first use only) + 3 execs.
	if m.RoundTrips != 6 || m.Statements != 6 {
		t.Errorf("round trips/statements = %d/%d, want 6/6", m.RoundTrips, m.Statements)
	}
}

func TestExecPreparedUnknownHandle(t *testing.T) {
	client, _ := preparedTestClient(t)
	_, err := client.Do(context.Background(), &Request{Prepared: true, Handle: 99, Params: []types.Value{types.NewInt(1)}})
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("want *ServerError for unknown handle, got %v", err)
	}
}

func TestPrepareParseErrorSurfacesAtPrepareTime(t *testing.T) {
	client, _ := preparedTestClient(t)
	_, err := client.Do(context.Background(), prep("SELECT FROM WHERE"))
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("want *ServerError for bad SQL, got %v", err)
	}
}

// TestPreparedHandlesAreServerScoped: a handle prepared on one
// connection executes on another connection of the same server, and
// means nothing at a different server.
func TestPreparedHandlesAreServerScoped(t *testing.T) {
	ctx := context.Background()
	newServer := func() *Server {
		db := minisql.NewDB()
		mustExec(t, db.NewSession(), "CREATE TABLE t (a INTEGER)")
		mustExec(t, db.NewSession(), "INSERT INTO t VALUES (7)")
		return NewServer(db)
	}
	srv, other := newServer(), newServer()
	c1 := NewClient(&MeteredChannel{Conn: srv.NewConn()})
	c2 := NewClient(&MeteredChannel{Conn: srv.NewConn()})
	c3 := NewClient(&MeteredChannel{Conn: other.NewConn()})
	req := prep("SELECT a FROM t")
	if _, err := c1.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	resp, err := c2.Do(ctx, &Request{Prepared: true, Handle: req.Handle})
	if err != nil || len(resp.Rows) != 1 || resp.Rows[0][0].Int() != 7 {
		t.Errorf("handle prepared on one connection, executed on another of the same server: %+v, %v", resp, err)
	}
	// The same text prepared again, on any connection, is the same handle.
	again := prep("SELECT a FROM t")
	if _, err := c2.Do(ctx, again); err != nil || again.Handle != req.Handle {
		t.Errorf("second prepare of one text: handle %d, %v; want %d", again.Handle, err, req.Handle)
	}
	var se *ServerError
	if _, err := c3.Do(ctx, &Request{Prepared: true, Handle: req.Handle}); !errors.As(err, &se) {
		t.Errorf("handle executed at a server that never prepared it: %v", err)
	}
}

// TestPrepareFloodIsBounded: distinct texts past the table's budget are
// refused with ErrStatementTableFull, the table never holds more than
// its budget, and a client answers the refusal by shipping the statement
// as text, with the same result as everything prepared before.
func TestPrepareFloodIsBounded(t *testing.T) {
	client, meter := preparedTestClient(t)
	ctx := context.Background()
	conn := client.tr.(*MeteredChannel).Conn
	table := &conn.server.stmts

	// ~4 KiB per text: the budget fills after some 64 of them.
	pad := strings.Repeat("x", 4<<10)
	flood := func(i int) string {
		return fmt.Sprintf("SELECT b, '%s', %d FROM t WHERE a = ?", pad, i)
	}
	refusedAt := -1
	for i := 0; i < 100; i++ {
		resp, err := DecodeResponse(conn.Handle(EncodePrepare(flood(i))))
		if err == nil && resp.Err != "" {
			if !errors.Is(&ServerError{Msg: resp.Err}, ErrStatementTableFull) {
				t.Fatalf("prepare %d refused with %q, want ErrStatementTableFull", i, resp.Err)
			}
			if refusedAt < 0 {
				refusedAt = i
			}
		} else if refusedAt >= 0 {
			t.Fatalf("prepare %d accepted after prepare %d was refused", i, refusedAt)
		}
		if table.bytes > stmtTableBytes {
			t.Fatalf("after %d prepares the table pins %d bytes, budget %d", i+1, table.bytes, stmtTableBytes)
		}
	}
	if refusedAt < 0 {
		t.Fatalf("100 prepares of %d bytes each were all accepted (table: %d bytes)", len(flood(0)), table.bytes)
	}
	// A text already in the table still answers its handle.
	if _, err := DecodePrepareResp(conn.Handle(EncodePrepare(flood(0)))); err != nil {
		t.Errorf("re-prepare of a registered text on a full table: %v", err)
	}

	// The client: one refused prepare, then text — and the right rows.
	const sql = "SELECT b FROM t WHERE a = ? AND 'past the budget' <> ''"
	before := meter.Metrics
	for i, want := range []string{"one", "two", "three"} {
		req := prep(sql+strings.Repeat(" ", 4<<10), types.NewInt(int64(i+1)))
		resp, err := client.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if req.Prepared || len(resp.Rows) != 1 || resp.Rows[0][0].Text() != want {
			t.Fatalf("exec %d after the refusal: prepared=%v rows=%v", i+1, req.Prepared, resp.Rows)
		}
	}
	if d := meter.Metrics.Sub(before); d.RoundTrips != 4 || d.PreparedExecs != 0 {
		t.Errorf("round trips/prepared execs = %d/%d, want 4/0 (one refused prepare, three text executions)",
			d.RoundTrips, d.PreparedExecs)
	}
	if table.bytes > stmtTableBytes {
		t.Errorf("the table pins %d bytes, budget %d", table.bytes, stmtTableBytes)
	}
}

func TestBatchedPreparedExecsAgainstServer(t *testing.T) {
	client, meter := preparedTestClient(t)
	ctx := context.Background()
	const sql = "SELECT b FROM t WHERE a = ?"
	if _, err := client.Do(ctx, prep(sql, types.NewInt(2))); err != nil {
		t.Fatal(err)
	}
	before := meter.Metrics
	reqs := []*Request{
		prep(sql, types.NewInt(1)),
		{SQL: "SELECT COUNT(*) FROM t"},
		prep(sql, types.NewInt(3)),
	}
	resps, err := client.ExecBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 3 {
		t.Fatalf("got %d responses", len(resps))
	}
	if resps[0].Rows[0][0].Text() != "one" || resps[2].Rows[0][0].Text() != "three" {
		t.Fatalf("batch results %+v", resps)
	}
	d := meter.Metrics.Sub(before)
	if d.RoundTrips != 1 || d.Statements != 3 || d.PreparedExecs != 2 {
		t.Errorf("delta rt/stmts/prepared = %d/%d/%d, want 1/3/2",
			d.RoundTrips, d.Statements, d.PreparedExecs)
	}
	if want := float64(2 * len(sql)); d.SavedRequestBytes != want {
		t.Errorf("SavedRequestBytes = %.0f, want %.0f", d.SavedRequestBytes, want)
	}
}

func TestScanFrameStats(t *testing.T) {
	sqlLen := map[uint32]int{5: 100}
	single := ScanFrame(EncodeRequest(&Request{SQL: "SELECT 1"}), sqlLen)
	if single.Statements != 1 || single.PreparedExecs != 0 || single.SavedRequestBytes != 0 {
		t.Errorf("single = %+v", single)
	}
	exec := ScanFrame(EncodeExecPrepared(5, nil), sqlLen)
	if exec.Statements != 1 || exec.PreparedExecs != 1 || exec.SavedRequestBytes != 100 {
		t.Errorf("exec = %+v", exec)
	}
	batch := ScanFrame(EncodeBatch([]*Request{
		{SQL: "SELECT 1"},
		{Prepared: true, Handle: 5},
		{Prepared: true, Handle: 7}, // unknown handle: counted, nothing credited
	}), sqlLen)
	if batch.Statements != 3 || batch.PreparedExecs != 2 || batch.SavedRequestBytes != 100 {
		t.Errorf("batch = %+v", batch)
	}
}

func TestMeteredChannelHonorsContext(t *testing.T) {
	client, meter := preparedTestClient(t)
	before := meter.Metrics
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := client.Exec(ctx, "SELECT COUNT(*) FROM t")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if d := meter.Metrics.Sub(before); d.RoundTrips != 0 {
		t.Errorf("cancelled round trip was charged: %+v", d)
	}
}

// genConn is one transport generation of the re-prepare test: a fresh
// server connection that records which handles were prepared through it
// and flags the execution of any other.
type genConn struct {
	t    *testing.T
	conn *ServerConn

	mu       sync.Mutex
	prepared map[uint32]bool
	prepares int
}

// newGenConn opens a connection whose registry already holds decoys
// decoy statements, so the handle numbers of successive generations
// differ and a stale handle would name the wrong statement, not none.
func newGenConn(t *testing.T, srv *Server, decoys int) *genConn {
	g := &genConn{t: t, conn: srv.NewConn(), prepared: map[uint32]bool{}}
	for i := 0; i < decoys; i++ {
		g.conn.Handle(EncodePrepare("SELECT 'decoy' FROM t WHERE a = ?"))
	}
	return g
}

func (g *genConn) RoundTrip(_ context.Context, request []byte) ([]byte, error) {
	reqs := []*Request{}
	switch request[0] {
	case TypeExecPrepared:
		req, err := DecodeExecPrepared(request)
		if err != nil {
			g.t.Error(err)
		}
		reqs = append(reqs, req)
	case TypeBatch:
		var err error
		if reqs, err = DecodeBatch(request); err != nil {
			g.t.Error(err)
		}
	}
	g.mu.Lock()
	for _, req := range reqs {
		if req.Prepared && !g.prepared[req.Handle] {
			g.t.Errorf("handle %d executed on a connection that did not prepare it", req.Handle)
		}
	}
	g.mu.Unlock()
	response := g.conn.Handle(request)
	if request[0] == TypePrepare {
		if h, err := DecodePrepareResp(response); err == nil {
			g.mu.Lock()
			g.prepared[h] = true
			g.prepares++
			g.mu.Unlock()
		}
	}
	return response, nil
}

// TestPreparedRebindsAcrossSetTransport: the client's handles belong to
// the server its transport reaches, so a transport swap drops them — the next Prepared
// request re-prepares on the new connection — and a request in flight
// across the swap never executes a handle on a transport generation
// that did not prepare it. Run under -race: the swaps come from another
// goroutine, as a failover's do.
func TestPreparedRebindsAcrossSetTransport(t *testing.T) {
	db := minisql.NewDB()
	mustExec(t, db.NewSession(), "CREATE TABLE t (a INTEGER, b TEXT)")
	mustExec(t, db.NewSession(), "INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')")
	srv := NewServer(db)
	ctx := context.Background()
	const sql = "SELECT b FROM t WHERE a = ?"
	check := func(resp *Response, err error, want string) {
		t.Helper()
		if err != nil {
			t.Error(err)
		} else if len(resp.Rows) != 1 || resp.Rows[0][0].Text() != want {
			t.Errorf("prepared exec answered %v, want %q", resp.Rows, want)
		}
	}

	first := newGenConn(t, srv, 0)
	client := NewClient(first)
	for i := 0; i < 3; i++ {
		resp, err := client.Do(ctx, prep(sql, types.NewInt(2)))
		check(resp, err, "two")
	}
	second := newGenConn(t, srv, 2)
	client.SetTransport(second)
	resp, err := client.Do(ctx, prep(sql, types.NewInt(3)))
	check(resp, err, "three")
	if first.prepares != 1 || second.prepares != 1 {
		t.Fatalf("prepares per generation = %d, %d; want 1 each (on first use, again after the swap)",
			first.prepares, second.prepares)
	}

	// Swap under a running client: every generation serves at least one
	// exchange before the next swap.
	var ops atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := client.Do(ctx, prep(sql, types.NewInt(1)))
			check(resp, err, "one")
			resps, err := client.ExecBatch(ctx, []*Request{prep(sql, types.NewInt(2)), prep(sql, types.NewInt(3))})
			if err != nil || len(resps) != 2 {
				t.Errorf("batch: %d responses, %v", len(resps), err)
			} else {
				check(resps[0], nil, "two")
				check(resps[1], nil, "three")
			}
			ops.Add(1)
		}
	}()
	for swap := 0; swap < 200; swap++ {
		seen := ops.Load()
		client.SetTransport(newGenConn(t, srv, swap%3))
		for ops.Load() == seen {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
}
