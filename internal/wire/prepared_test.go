package wire

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
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
// refused with ErrStatementTableFull, and a client answers the refusal
// by shipping the statement as text, with the same result as everything
// prepared before. (minisql's TestPreparedStatementsBoundedByBytes
// checks the bytes the table pins.)
func TestPrepareFloodIsBounded(t *testing.T) {
	client, meter := preparedTestClient(t)
	ctx := context.Background()
	conn := client.tr.(*MeteredChannel).Conn

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
	}
	if refusedAt < 0 {
		t.Fatalf("100 prepares of %d bytes each were all accepted", len(flood(0)))
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

// prepareOn prepares sql on a server connection and returns its handle.
func prepareOn(t *testing.T, conn *ServerConn, sql string) uint32 {
	t.Helper()
	body := conn.Handle(EncodePrepare(sql))
	h, err := DecodePrepareResp(body)
	if err != nil {
		resp, _ := DecodeResponse(body)
		t.Fatalf("prepare %.40q: %v (%+v)", sql, err, resp)
	}
	return h
}

// execOn runs one request frame on a server connection and fails unless
// it answers a result.
func execOn(t *testing.T, conn *ServerConn, frame []byte) *Response {
	t.Helper()
	resp, err := DecodeResponse(conn.Handle(frame))
	if err != nil || resp.Err != "" {
		t.Fatalf("exec: %v, %+v", err, resp)
	}
	return resp
}

// TestPreparedHandleSurvivesTextChurn: 300 distinct one-shot texts of
// 4 KiB each, several times what the server caches of unprepared
// statements, pass through a server after a statement was prepared; its
// handle still executes, on the connection that prepared it and on
// another.
func TestPreparedHandleSurvivesTextChurn(t *testing.T) {
	db := minisql.NewDB()
	mustExec(t, db.NewSession(), "CREATE TABLE t (a INTEGER, b TEXT)")
	mustExec(t, db.NewSession(), "INSERT INTO t VALUES (1, 'one'), (2, 'two')")
	srv := NewServer(db)
	conn := srv.NewConn()
	h := prepareOn(t, conn, "SELECT b FROM t WHERE a = ?")
	pad := strings.Repeat("x", 4<<10)
	for i := 0; i < 300; i++ {
		execOn(t, conn, EncodeRequest(&Request{SQL: fmt.Sprintf("SELECT b, '%s', %d FROM t WHERE a = 1", pad, i)}))
	}
	for _, c := range []*ServerConn{conn, srv.NewConn()} {
		resp := execOn(t, c, EncodeExecPrepared(h, []types.Value{types.NewInt(2)}))
		if len(resp.Rows) != 1 || resp.Rows[0][0].Text() != "two" {
			t.Fatalf("handle %d after the churn: %v", h, resp.Rows)
		}
	}
}

// TestHotTextSurvivesPrepareFlood: distinct prepares flood the server's
// statement table until it refuses them with ErrStatementTableFull,
// while a hot text statement keeps running beside them (once every
// eight prepares). The hot statement is still a plan hit afterwards:
// what prepared statements pin does not crowd out the text hot set.
func TestHotTextSurvivesPrepareFlood(t *testing.T) {
	db := minisql.NewDB()
	mustExec(t, db.NewSession(), "CREATE TABLE t (a INTEGER, b TEXT)")
	mustExec(t, db.NewSession(), "INSERT INTO t VALUES (1, 'one')")
	conn := NewServer(db).NewConn()
	hot := EncodeRequest(&Request{SQL: "SELECT b FROM t WHERE a = ?", Params: []types.Value{types.NewInt(1)}})
	pad := strings.Repeat("x", 4<<10)
	refused := 0
	for i := 0; i < 100; i++ {
		if i%8 == 0 {
			execOn(t, conn, hot)
		}
		resp, err := DecodeResponse(conn.Handle(EncodePrepare(fmt.Sprintf("SELECT b, '%s', %d FROM t WHERE a = ?", pad, i))))
		if err == nil && resp.Err != "" {
			if !errors.Is(&ServerError{Msg: resp.Err}, ErrStatementTableFull) {
				t.Fatalf("prepare %d refused with %q", i, resp.Err)
			}
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("the flood never filled the statement table")
	}
	conn.TakeContention()
	resp := execOn(t, conn, hot)
	if len(resp.Rows) != 1 || resp.Rows[0][0].Text() != "one" {
		t.Fatalf("hot statement after the flood: %v", resp.Rows)
	}
	if st := conn.TakeContention(); st.PlanHits != 1 || st.PlanMisses != 0 {
		t.Errorf("hot statement after the flood: hits=%d misses=%d, want 1/0", st.PlanHits, st.PlanMisses)
	}
}

// TestHeldHandleFollowsCatalog is TestHeldSelectFollowsCatalog through
// prepared handles: a handle executed after its table was dropped and
// re-created with other columns answers with the new columns, and an
// index created between two executions of a prepared EXPLAIN of a join
// shows in the next one.
func TestHeldHandleFollowsCatalog(t *testing.T) {
	db := minisql.NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 'a'), (2, 'b')")
	srv := NewServer(db)
	conn := srv.NewConn()
	one := []types.Value{types.NewInt(1)}
	check := func(resp *Response, cols, rows string) {
		t.Helper()
		if got := strings.Join(resp.Cols, ","); got != cols {
			t.Errorf("columns %s, want %s", got, cols)
		}
		var lines []string
		for _, r := range resp.Rows {
			var cells []string
			for _, v := range r {
				cells = append(cells, v.String())
			}
			lines = append(lines, strings.Join(cells, "|"))
		}
		if got := strings.Join(lines, ";"); got != rows {
			t.Errorf("rows %s, want %s", got, rows)
		}
	}
	star := prepareOn(t, conn, "SELECT * FROM t WHERE id = ?")
	check(execOn(t, conn, EncodeExecPrepared(star, one)), "id,name", "1|a")

	execOn(t, conn, EncodeRequest(&Request{SQL: "DROP TABLE t"}))
	execOn(t, conn, EncodeRequest(&Request{SQL: "CREATE TABLE t (id INTEGER PRIMARY KEY, w FLOAT, label TEXT)"}))
	execOn(t, conn, EncodeRequest(&Request{SQL: "INSERT INTO t VALUES (1, 2.5, 'x'), (2, 0.5, 'y')"}))
	check(execOn(t, srv.NewConn(), EncodeExecPrepared(star, one)), "id,w,label", "1|2.5|x")

	mustExec(t, s, "CREATE TABLE u (id INTEGER PRIMARY KEY, t_id INTEGER)")
	mustExec(t, s, "INSERT INTO u VALUES (10, 1), (11, 2), (12, 1)")
	const join = "SELECT u.id, t.label FROM t JOIN u ON u.t_id = t.id ORDER BY 1"
	held, explain := prepareOn(t, conn, join), prepareOn(t, conn, "EXPLAIN "+join)
	plan := func() string {
		t.Helper()
		var lines []string
		for _, r := range execOn(t, conn, EncodeExecPrepared(explain, nil)).Rows {
			lines = append(lines, r[0].Text())
		}
		return strings.Join(lines, "\n")
	}
	check(execOn(t, conn, EncodeExecPrepared(held, nil)), "id,label", "10|x;11|y;12|x")
	if p := plan(); !strings.Contains(p, "HASH JOIN") {
		t.Errorf("before the index the join hashes; plan:\n%s", p)
	}
	execOn(t, conn, EncodeRequest(&Request{SQL: "CREATE INDEX u_t ON u (t_id)"}))
	check(execOn(t, conn, EncodeExecPrepared(held, nil)), "id,label", "10|x;11|y;12|x")
	if p := plan(); !strings.Contains(p, "INDEX JOIN u USING u_t") {
		t.Errorf("after CREATE INDEX the prepared join must use it; plan:\n%s", p)
	}
}

// TestConcurrentPreparesAgainstTextChurn: connections of one server race
// prepares of shared and private texts, executions of their handles
// alone and in batches, prepared writes to rows of their own, and
// one-shot texts that churn what the server caches. Every handle keeps
// answering its own statement. Run with -race.
func TestConcurrentPreparesAgainstTextChurn(t *testing.T) {
	const conns, rounds = 6, 40
	db := newKVDB(t)
	for g := 0; g < conns; g++ {
		mustExec(t, db.NewSession(), fmt.Sprintf("INSERT INTO kv VALUES (%d, 0)", 100+g))
	}
	srv := NewServer(db)
	pad := strings.Repeat("y", 2<<10)
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		conn := srv.NewConn()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				t.Errorf("conn %d: "+format, append([]any{g}, args...)...)
			}
			ask := func(frame []byte) *Response {
				resp, err := DecodeResponse(conn.Handle(frame))
				if err != nil || resp.Err != "" {
					fail("%v, %+v", err, resp)
					return nil
				}
				return resp
			}
			prepare := func(sql string) uint32 {
				h, err := DecodePrepareResp(conn.Handle(EncodePrepare(sql)))
				if err != nil {
					fail("prepare %q: %v", sql, err)
				}
				return h
			}
			own := types.NewInt(int64(100 + g))
			shared := prepare("SELECT id FROM kv WHERE id = ?")
			bump := prepare("UPDATE kv SET val = val + 1 WHERE id = ?")
			for i := 0; i < rounds; i++ {
				mine := prepare(fmt.Sprintf("SELECT val, %d, %d FROM kv WHERE id = ?", g, i))
				if resp := ask(EncodeExecPrepared(bump, []types.Value{own})); resp == nil || resp.RowsAffected != 1 {
					return
				}
				resp := ask(EncodeExecPrepared(mine, []types.Value{own}))
				if resp == nil {
					return
				}
				if r := resp.Rows[0]; r[0].Int() != int64(i+1) || r[1].Int() != int64(g) || r[2].Int() != int64(i) {
					fail("round %d: handle %d answered %v", i, mine, r)
					return
				}
				ask(EncodeRequest(&Request{SQL: fmt.Sprintf("SELECT '%s', %d, %d FROM kv WHERE id = 1", pad, g, i)}))
				body := conn.Handle(EncodeBatch([]*Request{
					{Prepared: true, Handle: shared, Params: []types.Value{own}},
					{Prepared: true, Handle: mine, Params: []types.Value{own}},
				}))
				resps, err := DecodeBatchResponse(body)
				if err != nil || len(resps) != 2 || resps[0].Err != "" || resps[1].Err != "" {
					fail("round %d: batch %v, %+v", i, err, resps)
					return
				}
				if resps[0].Rows[0][0].Int() != int64(100+g) || resps[1].Rows[0][2].Int() != int64(i) {
					fail("round %d: batch answered %v, %v", i, resps[0].Rows, resps[1].Rows)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
