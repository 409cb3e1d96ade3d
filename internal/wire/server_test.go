package wire

import (
	"bytes"
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

// TestFrameTagsAreDistinct: the protocol has 20 frame types and no two
// share a tag byte.
func TestFrameTagsAreDistinct(t *testing.T) {
	tags := []byte{
		TypeRequest, TypeResult, TypeError, TypeBatch, TypeBatchResp,
		TypePrepare, TypePrepareResp, TypeExecPrepared, TypeValidate, TypeValidateResp,
		TypeResultV2, TypeHello, TypeHelloResp, TypeCompressed, TypeSync,
		TypeSyncResp, TypeFenced, TypeFencedResp, TypeStatus, TypeStatusResp,
	}
	if len(tags) != 20 {
		t.Fatalf("%d frame tags listed, the protocol has 20", len(tags))
	}
	seen := map[byte]int{}
	for i, tag := range tags {
		if j, dup := seen[tag]; dup {
			t.Errorf("frame tags %d and %d are both %#x", j, i, tag)
		}
		seen[tag] = i
	}
}

// checkResponseFrame fails unless body is a response frame its own
// decoder accepts.
func checkResponseFrame(t *testing.T, body []byte) {
	t.Helper()
	plain, err := MaybeDecompress(body)
	if err != nil {
		t.Fatalf("response does not inflate: %v", err)
	}
	if len(plain) == 0 {
		t.Fatal("empty response frame")
	}
	switch plain[0] {
	case TypeResult, TypeResultV2, TypeError:
		_, err = DecodeResponse(plain)
	case TypeBatchResp:
		_, err = DecodeBatchResponse(plain)
	case TypePrepareResp:
		_, err = DecodePrepareResp(plain)
	case TypeValidateResp:
		_, err = DecodeValidateResp(plain)
	case TypeHelloResp:
		_, err = DecodeHelloResp(plain)
	case TypeSyncResp:
		_, err = DecodeSyncResp(plain)
	case TypeFencedResp:
		_, err = DecodeFencedResp(plain)
	case TypeStatusResp:
		_, err = DecodeStatusResp(plain)
	default:
		t.Fatalf("response tag %#x is not a response frame", plain[0])
	}
	if err != nil {
		t.Fatalf("response frame %#x does not decode: %v", plain[0], err)
	}
}

// FuzzServerHandle throws arbitrary request frames at two connections of
// one server, behind a fence in either role and with the statement table
// a few texts short of its budget: whatever arrives, Handle must not
// panic, must answer a well-formed response frame, and must leave the
// table within its budget. The frames cross connections, so a handle one
// of them prepares is live for the other.
func FuzzServerHandle(f *testing.F) {
	const (
		read  = "SELECT val FROM kv WHERE id = ?"
		write = "UPDATE kv SET val = ? WHERE id = ?"
		// tableBytes is the budget of the database's prepared statements.
		tableBytes = 256 << 10
	)
	one := []types.Value{types.NewInt(1)}
	five := []types.Value{types.NewInt(5), types.NewInt(1)}
	f.Add(EncodePrepare(read), EncodeExecPrepared(2, one), true)
	for _, primary := range []bool{true, false} {
		f.Add(EncodePrepare(write), EncodeFenced(2, EncodeExecPrepared(2, five)), primary)
		f.Add(EncodePrepare(write), EncodeExecPrepared(2, five), primary)
		f.Add(EncodePrepare(write), EncodeBatch([]*Request{
			{SQL: "SELECT COUNT(*) FROM kv"},
			{Prepared: true, Handle: 2, Params: five},
		}), primary)
		f.Add(EncodePrepare("/* a read */ "+read), EncodeFenced(2, EncodeBatch([]*Request{
			{Prepared: true, Handle: 2, Params: one},
			{SQL: "-- a read\nSELECT val FROM kv"},
		})), primary)
	}
	f.Add(EncodePrepare(read), EncodeBatch([]*Request{
		{Prepared: true, Handle: 2, Params: one},
		{SQL: "SELECT COUNT(*) FROM kv"},
		{Prepared: true, Handle: 77},
	}), false)
	f.Add(EncodePrepare(read+strings.Repeat(" ", 256)), EncodeFenced(1, EncodeRequest(&Request{SQL: "DELETE FROM kv"})), true)
	f.Add(EncodeHello(Caps{Columnar: true, Compress: true, CompressThreshold: 1}), EncodeRequest(&Request{SQL: "SELECT * FROM kv"}), true)
	f.Add(EncodeValidate([]StaleCheck{{ID: 1}}), EncodeFenced(2, EncodeSyncFrom(0, "site")), true)
	f.Add(EncodeStatus(), []byte{TypeExecPrepared, 0, 0}, false)
	f.Fuzz(func(t *testing.T, first, second []byte, primary bool) {
		db := newFenceDB(t)
		srv := NewServer(db)
		srv.Fence().Set(2, primary)
		// Handle 1 fills the table to 128 bytes below its budget: short
		// texts still register, longer ones are refused.
		filler := "SELECT '" + strings.Repeat("x", tableBytes-128-len("SELECT ''")) + "'"
		if _, err := db.NewSession().Prepare(filler); err != nil {
			t.Fatal(err)
		}
		a, b := srv.NewConn(), srv.NewConn()
		for _, step := range []struct {
			conn  *ServerConn
			frame []byte
		}{{a, first}, {b, second}, {b, first}, {a, second}} {
			checkResponseFrame(t, step.conn.Handle(step.frame))
		}
		// No prepare took the table past its budget: a new text of more
		// than 128 bytes is still refused.
		if _, err := db.NewSession().Prepare(read + strings.Repeat(" ", 129)); !errors.Is(err, ErrStatementTableFull) {
			t.Fatalf("a %d-byte prepare on a table 128 bytes short of its budget: %v", len(read)+129, err)
		}
	})
}

// TestConcurrentConnsNoLostUpdate: clients on connections of their own
// to one server race read-modify-write UPDATEs on one row; the engine
// serializes them and no increment is lost. Run with -race.
func TestConcurrentConnsNoLostUpdate(t *testing.T) {
	srv := NewServer(newKVDB(t))
	const clients, per = 16, 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		client := NewClient(&MeteredChannel{Conn: srv.NewConn()})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, err := client.Exec(context.Background(), "UPDATE kv SET val = val + 1 WHERE id = 1"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	resp, err := NewClient(&MeteredChannel{Conn: srv.NewConn()}).Exec(context.Background(), "SELECT val FROM kv WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Rows[0][0].Int(); got != clients*per {
		t.Errorf("val = %d, want %d (lost update)", got, clients*per)
	}
}

// contentionConn is an in-process transport that also reports its
// connection's contention, as a decorator forwarding TakeContention does.
type contentionConn struct{ conn *ServerConn }

func (c contentionConn) RoundTrip(_ context.Context, request []byte) ([]byte, error) {
	return c.conn.Handle(request), nil
}

func (c contentionConn) TakeContention() minisql.ContentionStats { return c.conn.TakeContention() }

// TestMeteredTransportDrainsContention: the engine's per-statement
// counters reach the meter after every round trip, both over a
// MeteredChannel and through Metered around a ContentionSource.
func TestMeteredTransportDrainsContention(t *testing.T) {
	const n = 12
	srv := NewServer(newKVDB(t))
	for _, tc := range []struct {
		name string
		tr   func(*netsim.Meter) Transport
	}{
		{"MeteredChannel", func(m *netsim.Meter) Transport { return &MeteredChannel{Conn: srv.NewConn(), Meter: m} }},
		{"Metered", func(m *netsim.Meter) Transport { return Metered(contentionConn{conn: srv.NewConn()}, m) }},
	} {
		meter := netsim.NewMeter(netsim.Link{})
		client := NewClient(tc.tr(meter))
		for i := 0; i < n; i++ {
			if _, err := client.Exec(context.Background(), "SELECT val FROM kv WHERE id = 1"); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		m := meter.Snapshot()
		if m.SnapshotsStarted != n {
			t.Errorf("%s: SnapshotsStarted = %d, want %d", tc.name, m.SnapshotsStarted, n)
		}
		if got := m.PlanHits + m.PlanMisses; got != n {
			t.Errorf("%s: PlanHits + PlanMisses = %d, want %d", tc.name, got, n)
		}
	}
}

// newKVDB returns a database holding one counter row, kv(1, 0).
func newKVDB(t testing.TB) *minisql.DB {
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

// Handle tolerates concurrent callers on one ServerConn: they
// serialize, and every request gets its own answer.
func TestServerConnConcurrentHandle(t *testing.T) {
	db := newKVDB(t)
	conn := NewServer(db).NewConn()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp := conn.Handle(EncodeExec(&Request{SQL: fmt.Sprintf("SELECT %d", i)}))
				if r, err := DecodeResponse(resp); err != nil || r.Err != "" {
					t.Errorf("handle: %v %v", err, r)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestCapsNegotiatedPerConn: each connection's hello fixes its own
// encodings. A later plain hello on a second connection to the same
// server neither inherits nor changes the first one's columnar results,
// and both read the same rows.
func TestCapsNegotiatedPerConn(t *testing.T) {
	srv := NewServer(newKVDB(t))
	ctx := context.Background()
	colConn, plainConn := srv.NewConn(), srv.NewConn()
	colCaps, err := NewClient(&MeteredChannel{Conn: colConn}).Negotiate(ctx, Caps{Columnar: true})
	if err != nil {
		t.Fatal(err)
	}
	if !colCaps.Columnar {
		t.Fatal("hello did not negotiate columnar")
	}
	plainCaps, err := NewClient(&MeteredChannel{Conn: plainConn}).Negotiate(ctx, Caps{})
	if err != nil {
		t.Fatal(err)
	}
	if plainCaps.Columnar {
		t.Errorf("plain hello got %+v, inherited the other connection's caps", plainCaps)
	}
	if !colConn.Caps().Columnar || plainConn.Caps().Columnar {
		t.Fatalf("server caps: columnar conn %+v, plain conn %+v", colConn.Caps(), plainConn.Caps())
	}
	query := EncodeExec(&Request{SQL: "SELECT id, val FROM kv"})
	for _, tc := range []struct {
		name string
		conn *ServerConn
		tag  byte
	}{{"columnar", colConn, TypeResultV2}, {"plain", plainConn, TypeResult}} {
		body := tc.conn.Handle(query)
		if len(body) == 0 || body[0] != tc.tag {
			t.Fatalf("%s conn answered tag %x, want %x", tc.name, body[:1], tc.tag)
		}
		resp, err := DecodeResponse(body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(resp.Rows) != 1 || resp.Rows[0][0].Int() != 1 || resp.Rows[0][1].Int() != 0 {
			t.Errorf("%s conn rows = %v, want [[1 0]]", tc.name, resp.Rows)
		}
	}
}

// frameRecorder keeps a copy of every response frame its inner transport
// answers, in order.
type frameRecorder struct {
	inner  Transport
	frames [][]byte
}

func (r *frameRecorder) RoundTrip(ctx context.Context, request []byte) ([]byte, error) {
	resp, err := r.inner.RoundTrip(ctx, request)
	r.frames = append(r.frames, append([]byte(nil), resp...))
	return resp, err
}

// TestConcurrentConnsMatchSoloRun: sessions running at once on
// connections of their own to one server read exactly the response
// bytes one session reads alone on a fresh server — prepare answers,
// prepared executions alone and inside batches, a prepare-time syntax
// error and an unknown handle included. Prepared handles live in the
// server's shared table, so this is what keeps them from leaking
// between connections. Run with -race.
func TestConcurrentConnsMatchSoloRun(t *testing.T) {
	const sessions, rounds = 8, 20
	const (
		byID  = "SELECT val FROM kv WHERE id = ?"
		above = "SELECT id, val FROM kv WHERE id > ? ORDER BY id"
	)
	newServer := func() *Server {
		db := newKVDB(t)
		mustExec(t, db.NewSession(), "INSERT INTO kv VALUES (2, 20), (3, 30)")
		return NewServer(db)
	}
	script := func(conn *ServerConn) [][]byte {
		rec := &frameRecorder{inner: &MeteredChannel{Conn: conn}}
		client := NewClient(rec)
		ctx := context.Background()
		for i := int64(0); i < rounds; i++ {
			if _, err := client.Do(ctx, prep(byID, types.NewInt(i%4))); err != nil {
				t.Error(err)
			}
			if _, err := client.ExecBatch(ctx, []*Request{
				prep(above, types.NewInt(i%3)),
				{SQL: "SELECT COUNT(*) FROM kv"},
				prep(byID, types.NewInt(1)),
			}); err != nil {
				t.Error(err)
			}
		}
		if _, err := client.Do(ctx, prep("SELEC nope")); err == nil {
			t.Error("prepare accepted invalid SQL")
		}
		if _, err := client.Do(ctx, &Request{Prepared: true, Handle: 9999}); err == nil {
			t.Error("unknown handle executed")
		}
		return rec.frames
	}
	solo := script(newServer().NewConn())
	srv := newServer()
	frames := make([][][]byte, sessions)
	var wg sync.WaitGroup
	for i := range frames {
		conn := srv.NewConn()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frames[i] = script(conn)
		}(i)
	}
	wg.Wait()
	for i, got := range frames {
		if len(got) != len(solo) {
			t.Fatalf("session %d: %d round trips, %d alone", i, len(got), len(solo))
		}
		for j := range solo {
			if !bytes.Equal(got[j], solo[j]) {
				t.Fatalf("session %d, round trip %d: concurrent response\n%x\nsolo response\n%x",
					i, j, got[j], solo[j])
			}
		}
	}
}

// TestKilledConnLeavesOthersServing: a connection that dies fails its
// own client with *ConnClosedError and nobody else's. The other
// connection to the same server keeps reading and writing, and once the
// dead one is back it sees those writes.
func TestKilledConnLeavesOthersServing(t *testing.T) {
	srv := NewServer(newKVDB(t))
	ctx := context.Background()
	fault := netsim.NewFaultInjector(&MeteredChannel{Conn: srv.NewConn()}, nil)
	victim := NewClient(fault)
	other := NewClient(&MeteredChannel{Conn: srv.NewConn()})
	if _, err := victim.Exec(ctx, "SELECT val FROM kv WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	fault.Kill()
	var cce *ConnClosedError
	if _, err := victim.Exec(ctx, "SELECT val FROM kv WHERE id = 1"); !errors.As(err, &cce) {
		t.Fatalf("round trip over killed conn: %v, want *ConnClosedError", err)
	}
	if _, err := other.Exec(ctx, "UPDATE kv SET val = 7 WHERE id = 1"); err != nil {
		t.Fatalf("other conn while one is dead: %v", err)
	}
	fault.Revive()
	resp, err := victim.Exec(ctx, "SELECT val FROM kv WHERE id = 1")
	if err != nil {
		t.Fatalf("after revive: %v", err)
	}
	if got := resp.Rows[0][0].Int(); got != 7 {
		t.Errorf("val after revive = %d, want 7 (the other conn's write)", got)
	}
}

// TestResponseEpochIsTheSnapshotRead: a SELECT's response epoch is the
// snapshot it read, not a bound taken before it. A writer bumps a
// one-row counter once per commit, each commit advancing the epoch by
// one, while a reader selects the counter over the wire: every answer's
// epoch minus the counter it returned is the offset the counter started
// at.
func TestResponseEpochIsTheSnapshotRead(t *testing.T) {
	db := newFenceDB(t)
	offset := db.Epoch() // val is 0 at this epoch
	client := NewClient(&MeteredChannel{Conn: NewServer(db).NewConn()})
	const commits = 2000
	done := make(chan error, 1)
	go func() {
		s := db.NewSession()
		for i := 0; i < commits; i++ {
			if _, err := s.Exec("UPDATE kv SET val = val + 1 WHERE id = 1"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for reads := 0; ; reads++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d reads beside %d commits", reads, commits)
			return
		default:
		}
		resp, err := client.Exec(context.Background(), "SELECT val FROM kv WHERE id = 1")
		if err != nil {
			t.Fatal(err)
		}
		if val := uint64(resp.Rows[0][0].Int()); resp.Epoch != offset+val {
			t.Fatalf("read %d: epoch %d answered val %d, want epoch %d", reads, resp.Epoch, val, offset+val)
		}
	}
}
