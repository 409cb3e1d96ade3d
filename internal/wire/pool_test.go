package wire

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/types"
)

func newPoolDB(t *testing.T) *minisql.DB {
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

// Many concurrent clients over a small pool: every statement executes,
// no lost updates, and the pool never exceeds its cap. Run with -race.
func TestPoolConcurrentClients(t *testing.T) {
	db := newPoolDB(t)
	pool := NewPool(NewServer(db), 4)
	const clients, per = 16, 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := NewClient(pool)
			for j := 0; j < per; j++ {
				if _, err := client.Exec(context.Background(), "UPDATE kv SET val = val + 1 WHERE id = 1"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if pool.Size() > pool.Max() {
		t.Errorf("pool created %d conns, cap %d", pool.Size(), pool.Max())
	}
	resp, err := NewClient(pool).Exec(context.Background(), "SELECT val FROM kv WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Rows[0][0].Int(); got != clients*per {
		t.Errorf("val = %d, want %d (lost update through pool)", got, clients*per)
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

// TestPoolIsTransparent: the pool forwards frames untouched, so N
// sessions sharing M < N member connections read exactly the response
// bytes they would read on N connections of their own — prepare answers,
// prepared executions alone and inside batches landing on whichever
// member is free, a prepare-time syntax error and an unknown handle
// included. Run with -race.
func TestPoolIsTransparent(t *testing.T) {
	const sessions, members, rounds = 8, 3, 20
	const (
		byID  = "SELECT val FROM kv WHERE id = ?"
		above = "SELECT id, val FROM kv WHERE id > ? ORDER BY id"
	)
	script := func(tr Transport) [][]byte {
		rec := &frameRecorder{inner: tr}
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
	run := func(transport func(*Server) Transport) [][][]byte {
		db := newPoolDB(t)
		mustExec(t, db.NewSession(), "INSERT INTO kv VALUES (2, 20), (3, 30)")
		srv := NewServer(db)
		frames := make([][][]byte, sessions)
		var wg sync.WaitGroup
		for i := range frames {
			i, tr := i, transport(srv)
			wg.Add(1)
			go func() {
				defer wg.Done()
				frames[i] = script(tr)
			}()
		}
		wg.Wait()
		return frames
	}
	var pool *Pool
	pooled := run(func(srv *Server) Transport {
		if pool == nil {
			pool = NewPool(srv, members)
		}
		return pool
	})
	direct := run(func(srv *Server) Transport { return connTransport{conn: srv.NewConn()} })
	if pool.Size() > members {
		t.Errorf("pool created %d members, cap %d", pool.Size(), members)
	}
	for i := range direct {
		if len(pooled[i]) != len(direct[i]) {
			t.Fatalf("session %d: %d round trips pooled, %d direct", i, len(pooled[i]), len(direct[i]))
		}
		for j := range direct[i] {
			if !bytes.Equal(pooled[i][j], direct[i][j]) {
				t.Fatalf("session %d, round trip %d: pooled response\n%x\ndirect response\n%x",
					i, j, pooled[i][j], direct[i][j])
			}
		}
	}
}

// The first hello fixes the pool-wide capability set; later hellos are
// answered with the same set and every member encodes accordingly.
func TestPoolCapsNegotiatedOnce(t *testing.T) {
	db := newPoolDB(t)
	pool := NewPool(NewServer(db), 2)
	ctx := context.Background()
	caps1, err := NewClient(pool).Negotiate(ctx, Caps{Columnar: true})
	if err != nil {
		t.Fatal(err)
	}
	if !caps1.Columnar {
		t.Fatal("first hello did not negotiate columnar")
	}
	caps2, err := NewClient(pool).Negotiate(ctx, Caps{})
	if err != nil {
		t.Fatal(err)
	}
	if caps2.Columnar != caps1.Columnar {
		t.Errorf("second hello got %+v, want the pool set %+v", caps2, caps1)
	}
}

// Contention drains through the pool: waiting for a member connection
// is reported as lock-wait, snapshot counts flow up from the engine.
func TestPoolReportsContention(t *testing.T) {
	db := newPoolDB(t)
	pool := NewPool(NewServer(db), 1)
	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := NewClient(pool)
			for j := 0; j < 5; j++ {
				if _, err := client.Exec(context.Background(), "SELECT val FROM kv WHERE id = 1"); err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	st := pool.TakeContention()
	if st.SnapshotsStarted != clients*5 {
		t.Errorf("SnapshotsStarted = %d, want %d", st.SnapshotsStarted, clients*5)
	}
	if !pool.TakeContention().IsZero() {
		t.Error("TakeContention did not drain")
	}
}

// A pool of size 1 still serves interleaved clients correctly (pure
// serialization), and Handle itself tolerates concurrent callers on
// one ServerConn.
func TestServerConnConcurrentHandle(t *testing.T) {
	db := newPoolDB(t)
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
