package wire

import (
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

// Pool-level prepared handles work on whichever member connection a
// later execution lands on, including inside batches.
func TestPoolPreparedHandleRemap(t *testing.T) {
	db := newPoolDB(t)
	pool := NewPool(NewServer(db), 3)
	client := NewClient(pool)
	ctx := context.Background()
	const update = "UPDATE kv SET val = val + ? WHERE id = 1"
	// Enough executions to cycle through several member connections.
	for i := 0; i < 10; i++ {
		if _, err := client.Do(ctx, prep(update, types.NewInt(1))); err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
	}
	// The same handle inside a batch frame.
	if _, err := client.ExecBatch(ctx, []*Request{
		prep(update, types.NewInt(5)),
		{SQL: "SELECT val FROM kv WHERE id = 1"},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Exec(ctx, "SELECT val FROM kv WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Rows[0][0].Int(); got != 15 {
		t.Errorf("val = %d, want 15", got)
	}
	// A syntax error still surfaces at prepare time.
	if _, err := client.Do(ctx, prep("SELEC nope")); err == nil {
		t.Error("pool prepare accepted invalid SQL")
	}
	// Unknown handles fail cleanly.
	if _, err := client.Do(ctx, &Request{Prepared: true, Handle: 9999}); err == nil {
		t.Error("unknown pool handle executed")
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
	// Close is answered locally and the pool stays usable.
	client := NewClient(pool)
	if err := client.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exec(ctx, "SELECT val FROM kv WHERE id = 1"); err != nil {
		t.Fatalf("pool unusable after close: %v", err)
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
