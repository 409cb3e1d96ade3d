package wire

import (
	"context"
	"errors"
	"testing"
	"time"

	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/parser"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/netsim"
)

func newFenceDB(t *testing.T) *minisql.DB {
	t.Helper()
	db := minisql.NewDB()
	s := db.NewSession()
	if _, err := s.ExecScript(`
CREATE TABLE kv (id INTEGER PRIMARY KEY, val INTEGER NOT NULL);
INSERT INTO kv VALUES (1, 0);`); err != nil {
		t.Fatal(err)
	}
	return db
}

func staticTerm(term uint64) TermSource {
	return func() (uint64, bool) { return term, true }
}

func TestFencedEnvelopeRoundTrip(t *testing.T) {
	inner := EncodeSyncFrom(9, "")
	wrapped := EncodeFenced(17, inner)
	term, got, err := DecodeFenced(wrapped)
	if err != nil || term != 17 {
		t.Fatalf("DecodeFenced: term=%d err=%v", term, err)
	}
	if len(got) == 0 || got[0] != TypeSync {
		t.Fatalf("inner frame type = %#x", got[0])
	}
	fe, err := DecodeFencedResp(EncodeFencedResp(3, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	if fe.ServerTerm != 3 || fe.FrameTerm != 2 || !fe.Deposed {
		t.Fatalf("FencedError = %+v", fe)
	}
}

// A deposed server refuses writes — fenced or legacy-unwrapped — with
// *FencedError, while reads keep flowing.
func TestDeposedServerRefusesWrites(t *testing.T) {
	srv := NewServer(newFenceDB(t))
	srv.Fence().Set(1, false)
	ctx := context.Background()

	fenced := NewClient(&MeteredChannel{Conn: srv.NewConn()})
	fenced.SetTermSource(staticTerm(1))
	var fe *FencedError
	if _, err := fenced.Exec(ctx, "UPDATE kv SET val = 1 WHERE id = 1"); !errors.As(err, &fe) {
		t.Fatalf("write at deposed server: %v, want *FencedError", err)
	} else if !fe.Deposed {
		t.Fatalf("FencedError = %+v, want Deposed", fe)
	}

	legacy := NewClient(&MeteredChannel{Conn: srv.NewConn()})
	if _, err := legacy.Exec(ctx, "UPDATE kv SET val = 2 WHERE id = 1"); !errors.As(err, &fe) {
		t.Fatalf("unfenced write at deposed server: %v, want *FencedError", err)
	}

	resp, err := fenced.Exec(ctx, "SELECT val FROM kv WHERE id = 1")
	if err != nil {
		t.Fatalf("read at deposed server: %v", err)
	}
	if got := resp.Rows[0][0].Int(); got != 0 {
		t.Fatalf("val = %d: a fenced write executed", got)
	}
}

// A primary refuses frames carrying a stale term (a client that missed
// the promotion) but keeps serving current-term writes.
func TestPrimaryRefusesStaleTerm(t *testing.T) {
	srv := NewServer(newFenceDB(t))
	srv.Fence().Set(2, true)
	ctx := context.Background()

	stale := NewClient(&MeteredChannel{Conn: srv.NewConn()})
	stale.SetTermSource(staticTerm(1))
	var fe *FencedError
	if _, err := stale.Exec(ctx, "UPDATE kv SET val = 1 WHERE id = 1"); !errors.As(err, &fe) {
		t.Fatalf("stale-term write: %v, want *FencedError", err)
	} else if fe.Deposed || fe.ServerTerm != 2 || fe.FrameTerm != 1 {
		t.Fatalf("FencedError = %+v, want stale-term refusal by term-2 server", fe)
	}

	current := NewClient(&MeteredChannel{Conn: srv.NewConn()})
	current.SetTermSource(staticTerm(2))
	if _, err := current.Exec(ctx, "UPDATE kv SET val = 5 WHERE id = 1"); err != nil {
		t.Fatalf("current-term write: %v", err)
	}
}

// A deposed primary still serves same-term sync pulls — the final
// catch-up of a planned failover — but refuses stale- or future-term
// ones.
func TestDeposedServerServesSameTermSync(t *testing.T) {
	srv := NewServer(newFenceDB(t))
	srv.Fence().Set(3, false)
	ctx := context.Background()

	same := NewClient(&MeteredChannel{Conn: srv.NewConn()})
	same.SetTermSource(staticTerm(3))
	if _, err := same.SyncFrom(ctx, 0, ""); err != nil {
		t.Fatalf("same-term sync at deposed primary: %v", err)
	}

	future := NewClient(&MeteredChannel{Conn: srv.NewConn()})
	future.SetTermSource(staticTerm(4))
	var fe *FencedError
	if _, err := future.SyncFrom(ctx, 0, ""); !errors.As(err, &fe) {
		t.Fatalf("future-term sync at deposed primary: %v, want *FencedError", err)
	}
}

// An unfenced server accepts fenced frames (served as their inner
// frame), so a fenced client degrades gracefully.
func TestUnfencedServerAcceptsEnvelope(t *testing.T) {
	srv := NewServer(newFenceDB(t))
	client := NewClient(&MeteredChannel{Conn: srv.NewConn()})
	client.SetTermSource(staticTerm(7))
	if _, err := client.Exec(context.Background(), "UPDATE kv SET val = 9 WHERE id = 1"); err != nil {
		t.Fatalf("fenced write at unfenced server: %v", err)
	}
}

func TestStatusExchange(t *testing.T) {
	srv := NewServer(newFenceDB(t))
	ctx := context.Background()
	client := NewClient(&MeteredChannel{Conn: srv.NewConn()})
	st, err := client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Term != 0 || !st.Primary {
		t.Fatalf("unfenced status = %+v, want term 0 primary", st)
	}
	srv.Fence().Set(5, false)
	st, err = client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Term != 5 || st.Primary {
		t.Fatalf("fenced status = %+v, want term 5 replica", st)
	}
}

// TestFenceFlipWaitsForAdmittedFrame: a write the primary's fence has
// admitted commits before a flip of that fence returns, so the delta a
// catch-up pull extracts right after the flip holds it. The procedure
// is released once the flip returns, or after 50 ms when it waits.
func TestFenceFlipWaitsForAdmittedFrame(t *testing.T) {
	db := newFenceDB(t)
	srv := NewServer(db)
	srv.Fence().Set(1, true)
	since := db.Epoch()
	entered, release := make(chan struct{}), make(chan struct{})
	db.RegisterProc("slow_bump", func(s *minisql.Session, _ []minisql.Value) (*minisql.Result, error) {
		close(entered)
		<-release
		return s.Exec("UPDATE kv SET val = val + 1 WHERE id = 1")
	})
	client := NewClient(&MeteredChannel{Conn: srv.NewConn()})
	client.SetTermSource(staticTerm(1))
	called := make(chan error, 1)
	go func() {
		_, err := client.Exec(context.Background(), "CALL slow_bump()")
		called <- err
	}()
	select {
	case <-entered:
	case err := <-called:
		t.Fatalf("CALL answered before its procedure ran: %v", err)
	}

	extracted := make(chan int, 1)
	go func() {
		srv.Fence().Set(1, false)
		extracted <- db.ExtractDelta(since).RowCount()
	}()
	var rows int
	select {
	case rows = <-extracted:
		close(release)
	case <-time.After(50 * time.Millisecond):
		close(release)
		rows = <-extracted
	}
	if err := <-called; err != nil {
		t.Fatalf("admitted write: %v", err)
	}
	if rows != 1 {
		t.Fatalf("delta extracted after the fence flip ships %d rows, want the admitted UPDATE's 1", rows)
	}
}

// flakyTransport fails the first n round trips with a raw error, then
// delegates.
type flakyTransport struct {
	inner Transport
	fails int
	calls int
}

func (f *flakyTransport) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	f.calls++
	if f.fails > 0 {
		f.fails--
		return nil, errors.New("boom: connection reset")
	}
	return f.inner.RoundTrip(ctx, req)
}

// Idempotent reads retry over dead connections; the retries and the
// backoff schedule surface in the meter and the recorder.
func TestRetryIdempotentReads(t *testing.T) {
	srv := NewServer(newFenceDB(t))
	tr := &flakyTransport{inner: &MeteredChannel{Conn: srv.NewConn()}, fails: 2}
	client := NewClient(tr)
	m := netsim.NewMeter(netsim.LAN())
	var slept []time.Duration
	client.SetRetry(&RetryPolicy{
		Meter: m,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	resp, err := client.Exec(context.Background(), "SELECT val FROM kv WHERE id = 1")
	if err != nil {
		t.Fatalf("read with retries: %v", err)
	}
	if len(resp.Rows) != 1 {
		t.Fatalf("rows = %d", len(resp.Rows))
	}
	if tr.calls != 3 {
		t.Fatalf("transport saw %d calls, want 3 (1 + 2 retries)", tr.calls)
	}
	if got := m.Snapshot(); got.Retries != 2 || got.RetryGiveUps != 0 {
		t.Fatalf("metered retries = %d/%d, want 2/0", got.Retries, got.RetryGiveUps)
	}
	if len(slept) != 2 || slept[1] < slept[0] {
		t.Fatalf("backoff schedule %v not increasing", slept)
	}
}

// Writes are never retried: one dead connection, one *ConnClosedError.
func TestWritesNeverRetry(t *testing.T) {
	srv := NewServer(newFenceDB(t))
	tr := &flakyTransport{inner: &MeteredChannel{Conn: srv.NewConn()}, fails: 1}
	client := NewClient(tr)
	client.SetRetry(&RetryPolicy{Sleep: func(time.Duration) {}})
	var cce *ConnClosedError
	if _, err := client.Exec(context.Background(), "UPDATE kv SET val = 1 WHERE id = 1"); !errors.As(err, &cce) {
		t.Fatalf("write over dead conn: %v, want *ConnClosedError", err)
	}
	if tr.calls != 1 {
		t.Fatalf("transport saw %d calls, want 1 (no write retries)", tr.calls)
	}
}

// Exhausted retries give up with the structured error and count it.
func TestRetryGiveUp(t *testing.T) {
	srv := NewServer(newFenceDB(t))
	tr := &flakyTransport{inner: &MeteredChannel{Conn: srv.NewConn()}, fails: 100}
	client := NewClient(tr)
	m := netsim.NewMeter(netsim.LAN())
	client.SetRetry(&RetryPolicy{Meter: m, Sleep: func(time.Duration) {}})
	var cce *ConnClosedError
	if _, err := client.Exec(context.Background(), "SELECT val FROM kv WHERE id = 1"); !errors.As(err, &cce) {
		t.Fatalf("exhausted retries: %v, want *ConnClosedError", err)
	}
	if tr.calls != 4 {
		t.Fatalf("transport saw %d calls, want 4 attempts", tr.calls)
	}
	if got := m.Snapshot(); got.Retries != 3 || got.RetryGiveUps != 1 {
		t.Fatalf("metered = %d/%d, want 3 retries, 1 give-up", got.Retries, got.RetryGiveUps)
	}
}

// The backoff jitter is deterministic: every policy draws the same
// schedule.
func TestRetryBackoffDeterministic(t *testing.T) {
	sched := func() []time.Duration {
		p := &RetryPolicy{}
		var out []time.Duration
		for n := 1; n <= 5; n++ {
			out = append(out, p.backoff(n))
		}
		return out
	}
	a, b := sched(), sched()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at %d: %v vs %v", i, a, b)
		}
	}
}

// readOnlySQLCases are ReadOnlySQL's verdicts on leading keywords,
// whitespace, case, lookalikes and comments.
var readOnlySQLCases = []struct {
	sql  string
	read bool
}{
	{"SELECT 1", true},
	{" \t\r\n select 1", true},
	{"SeLeCt 1", true},
	{"WITH RECURSIVE r (n) AS (SELECT 1) SELECT n FROM r", true},
	{"with r (n) AS (SELECT 1) SELECT n FROM r", true},
	{"EXPLAIN UPDATE kv SET val = 1", true},
	{"explain SELECT 1", true},
	{"SELECT", true},
	{"(SELECT 1)", false},
	{"", false},
	{"   ", false},
	{"SELECTED 1", false},
	{"WITHOUT", false},
	{"UPDATE kv SET val = 1", false},
	{"INSERT INTO kv SELECT 1, 2", false},
	{"CALL pdm_check_out(1)", false},
	{"-- SELECT\nDELETE FROM kv", false},
	{"-- a read\nSELECT 1", true},
	{"/* a read */ SELECT 1", true},
	{"/* unterminated SELECT 1", false},
	{"éSELECT 1", false},
	{"\u00a0SELECT 1", false},
	{"ＳＥＬＥＣＴ 1", false},
}

// TestReadOnlySQL: the clients' read/write classifier — they retry,
// leave unfenced and route to replicas by it. Anything it does not
// recognise is a write, the safe direction. It runs on every statement
// a client ships, so it allocates nothing.
func TestReadOnlySQL(t *testing.T) {
	for _, tc := range readOnlySQLCases {
		if got := ReadOnlySQL(tc.sql); got != tc.read {
			t.Errorf("ReadOnlySQL(%q) = %v, want %v", tc.sql, got, tc.read)
		}
	}
	for _, sql := range []string{"SELECT 1", "/* a read */ SELECT 1", "UPDATE kv SET val = 1"} {
		if n := testing.AllocsPerRun(100, func() { ReadOnlySQL(sql) }); n != 0 {
			t.Errorf("ReadOnlySQL(%q) allocates %v times", sql, n)
		}
	}
}

// TestReadOnlyAgreesWithReadOnlySQL: the server's classifier, which
// reads the parsed statement, agrees with the clients' first-token
// classifier on every case of TestReadOnlySQL that parses. (A text led
// by a parenthesis does not parse as a statement.)
func TestReadOnlyAgreesWithReadOnlySQL(t *testing.T) {
	for _, tc := range readOnlySQLCases {
		stmt, err := parser.Parse(tc.sql)
		if err != nil {
			continue
		}
		if got := minisql.ReadOnly(stmt); got != tc.read {
			t.Errorf("minisql.ReadOnly(%q) = %v, ReadOnlySQL %v", tc.sql, got, tc.read)
		}
	}
}

// TestDeposedServerRefusesPreparedAndBatchedWrites: at a deposed server
// a prepared write is refused with *FencedError whether or not it comes
// in a fencing envelope, and does not execute; a batch holding one write
// among reads is refused whole, with nothing executed; prepared reads
// and batches of reads are served.
func TestDeposedServerRefusesPreparedAndBatchedWrites(t *testing.T) {
	srv := NewServer(newFenceDB(t))
	srv.Fence().Set(1, false)
	conn := srv.NewConn()
	update := prepareOn(t, conn, "UPDATE kv SET val = ? WHERE id = 1")
	read := prepareOn(t, conn, "SELECT val FROM kv WHERE id = ?")
	seven, one := []types.Value{types.NewInt(7)}, []types.Value{types.NewInt(1)}
	refused := func(what string, frame []byte) {
		t.Helper()
		conn.TakeContention()
		fe, err := DecodeFencedResp(conn.Handle(frame))
		if err != nil {
			t.Fatalf("%s at a deposed server: %v, want a fence refusal", what, err)
		}
		if !fe.Deposed {
			t.Errorf("%s: %+v, want Deposed", what, fe)
		}
		if st := conn.TakeContention(); st.SnapshotsStarted != 0 || st.LockWaitNanos != 0 {
			t.Errorf("%s: refused, but %d statements read (%d ns waited on latches)", what, st.SnapshotsStarted, st.LockWaitNanos)
		}
	}
	refused("prepared UPDATE", EncodeExecPrepared(update, seven))
	refused("fenced prepared UPDATE", EncodeFenced(1, EncodeExecPrepared(update, seven)))
	refused("batch [SELECT, UPDATE]", EncodeBatch([]*Request{
		{SQL: "SELECT val FROM kv WHERE id = 1"},
		{SQL: "UPDATE kv SET val = 8 WHERE id = 1"},
	}))
	refused("fenced batch [prepared SELECT, prepared UPDATE]", EncodeFenced(1, EncodeBatch([]*Request{
		{Prepared: true, Handle: read, Params: one},
		{Prepared: true, Handle: update, Params: seven},
	})))

	if resp := execOn(t, conn, EncodeExecPrepared(read, one)); resp.Rows[0][0].Int() != 0 {
		t.Fatalf("val = %d: a refused write executed", resp.Rows[0][0].Int())
	}
	resps, err := DecodeBatchResponse(conn.Handle(EncodeBatch([]*Request{
		{Prepared: true, Handle: read, Params: one},
		{SQL: "SELECT COUNT(*) FROM kv"},
	})))
	if err != nil || len(resps) != 2 || resps[0].Err != "" || resps[1].Err != "" {
		t.Fatalf("batch of reads at a deposed server: %v, %+v", err, resps)
	}
	if resps[0].Rows[0][0].Int() != 0 || resps[1].Rows[0][0].Int() != 1 {
		t.Errorf("batch of reads answered %v, %v", resps[0].Rows, resps[1].Rows)
	}
}
