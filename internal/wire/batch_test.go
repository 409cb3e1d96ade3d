package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/netsim"
)

func TestBatchEncodeDecodeRoundTrip(t *testing.T) {
	reqs := []*Request{
		{SQL: "SELECT 1"},
		{SQL: "INSERT INTO t VALUES (?, ?)", Params: []types.Value{types.NewInt(7), types.NewText("x")}},
		{SQL: "", Params: []types.Value{types.Null, types.NewBool(true), types.NewFloat(2.5)}},
	}
	got, err := DecodeBatch(EncodeBatch(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("decoded %d requests, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i].SQL != reqs[i].SQL || len(got[i].Params) != len(reqs[i].Params) {
			t.Fatalf("request %d: %+v != %+v", i, got[i], reqs[i])
		}
		for j := range reqs[i].Params {
			if !types.SameKey(got[i].Params[j], reqs[i].Params[j]) {
				t.Errorf("request %d param %d mismatch", i, j)
			}
		}
	}
}

func TestEmptyBatchEncodeDecode(t *testing.T) {
	got, err := DecodeBatch(EncodeBatch(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty batch decoded to %d requests", len(got))
	}
	resps, err := DecodeBatchResponse(EncodeBatchResponse(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 0 {
		t.Fatalf("empty batch response decoded to %d responses", len(resps))
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	resps := []*Response{
		{Cols: []string{"a"}, Rows: nil, RowsAffected: 3},
		{Err: "boom"},
	}
	got, err := DecodeBatchResponse(EncodeBatchResponse(resps))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].RowsAffected != 3 || got[1].Err != "boom" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestBatchDecodeGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {TypeBatch}, {TypeBatch, 0, 0, 0, 2, 0, 0, 0, 9}, {0x77, 0, 0, 0, 0}} {
		if _, err := DecodeBatch(b); err == nil {
			t.Errorf("bad batch frame %v must fail", b)
		}
	}
	if _, err := DecodeBatchResponse([]byte{TypeBatchResp, 0, 0, 0, 1}); err == nil {
		t.Error("truncated batch response must fail")
	}
}

// TestBatchDecodeHugeCount: a corrupt frame claiming 2^32-1 sub-frames
// must be rejected up front, not trusted for a multi-GiB allocation.
func TestBatchDecodeHugeCount(t *testing.T) {
	frame := []byte{TypeBatch, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	if _, err := DecodeBatch(frame); err == nil {
		t.Error("batch frame with bogus count must fail")
	}
	frame[0] = TypeBatchResp
	if _, err := DecodeBatchResponse(frame); err == nil {
		t.Error("batch response frame with bogus count must fail")
	}
}

// TestExecBatchErrorFrameFallback: when the server answers a batch with
// a plain error frame (it could not decode the batch), the client must
// surface the server's diagnostic, not a frame-type mismatch.
func TestExecBatchErrorFrameFallback(t *testing.T) {
	ch := staticChannel{resp: EncodeResponse(&Response{Err: "bad batch: kaput"})}
	client := NewClient(ch)
	_, err := client.ExecBatch(context.Background(), []*Request{{SQL: "SELECT 1"}})
	var se *ServerError
	if !errors.As(err, &se) || se.Msg != "bad batch: kaput" {
		t.Fatalf("expected the server's diagnostic, got %T %v", err, err)
	}
}

type staticChannel struct{ resp []byte }

func (c staticChannel) RoundTrip(context.Context, []byte) ([]byte, error) { return c.resp, nil }

func TestExecBatchAgainstServer(t *testing.T) {
	db := minisql.NewDB()
	srv := NewServer(db)
	meter := netsim.NewMeter(netsim.Intercontinental())
	client := NewClient(&MeteredChannel{Conn: srv.NewConn(), Meter: meter})

	resps, err := client.ExecBatch(context.Background(), []*Request{
		{SQL: "CREATE TABLE t (a INTEGER, b TEXT)"},
		{SQL: "INSERT INTO t VALUES (?, ?)", Params: []types.Value{types.NewInt(1), types.NewText("one")}},
		{SQL: "INSERT INTO t VALUES (?, ?)", Params: []types.Value{types.NewInt(2), types.NewText("two")}},
		{SQL: "SELECT COUNT(*) FROM t"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 4 {
		t.Fatalf("got %d responses, want 4", len(resps))
	}
	if resps[3].Rows[0][0].Int() != 2 {
		t.Fatalf("count = %s, want 2", resps[3].Rows[0][0])
	}
	// The whole batch cost exactly one WAN round trip but four statements.
	if meter.Metrics.RoundTrips != 1 || meter.Metrics.Statements != 4 {
		t.Errorf("metrics: %d round trips / %d statements, want 1/4",
			meter.Metrics.RoundTrips, meter.Metrics.Statements)
	}
	if meter.Metrics.SavedRoundTrips != 3 {
		t.Errorf("saved=%d, want 3", meter.Metrics.SavedRoundTrips)
	}
}

// TestExecBatchEmptyIsFree: an empty batch must not cross the wire.
func TestExecBatchEmptyIsFree(t *testing.T) {
	db := minisql.NewDB()
	srv := NewServer(db)
	meter := netsim.NewMeter(netsim.Intercontinental())
	client := NewClient(&MeteredChannel{Conn: srv.NewConn(), Meter: meter})
	resps, err := client.ExecBatch(context.Background(), nil)
	if err != nil || resps != nil {
		t.Fatalf("empty batch: %v, %v", resps, err)
	}
	if meter.Metrics.RoundTrips != 0 {
		t.Errorf("empty batch charged %d round trips", meter.Metrics.RoundTrips)
	}
}

// TestBatchStopsOnFirstError: statements after the failing one must not
// execute, the client gets per-statement results up to the failure and a
// typed *BatchError naming the failed index.
func TestBatchStopsOnFirstError(t *testing.T) {
	db := minisql.NewDB()
	srv := NewServer(db)
	client := NewClient(&MeteredChannel{Conn: srv.NewConn()})
	if _, err := client.Exec(context.Background(), "CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	resps, err := client.ExecBatch(context.Background(), []*Request{
		{SQL: "INSERT INTO t VALUES (1)"},
		{SQL: "SELECT * FROM missing"}, // fails
		{SQL: "INSERT INTO t VALUES (2)"},
	})
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("expected *BatchError, got %T %v", err, err)
	}
	if be.Index != 1 {
		t.Errorf("failed index = %d, want 1", be.Index)
	}
	if len(resps) != 1 || resps[0].RowsAffected != 1 {
		t.Fatalf("responses before the failure: %+v", resps)
	}
	// Statement 3 must not have run.
	count, err := client.Exec(context.Background(), "SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if count.Rows[0][0].Int() != 1 {
		t.Errorf("rows after failed batch = %s, want 1 (stop-on-first-error)", count.Rows[0][0])
	}
}

// TestHandleRecoversFromPanic: a panicking statement comes back as an
// error frame and the connection keeps serving — alone and mid-batch.
func TestHandleRecoversFromPanic(t *testing.T) {
	db := minisql.NewDB()
	db.RegisterProc("explode", func(s *minisql.Session, args []minisql.Value) (*minisql.Result, error) {
		panic("kaboom")
	})
	srv := NewServer(db)
	client := NewClient(&MeteredChannel{Conn: srv.NewConn()})

	_, err := client.Exec(context.Background(), "CALL explode()")
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("expected ServerError from panic, got %T %v", err, err)
	}

	resps, err := client.ExecBatch(context.Background(), []*Request{
		{SQL: "CREATE TABLE t (a INTEGER)"},
		{SQL: "CALL explode()"},
		{SQL: "INSERT INTO t VALUES (1)"},
	})
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("expected BatchError at index 1, got %T %v", err, err)
	}
	if len(resps) != 1 {
		t.Fatalf("responses before the panic: %d, want 1", len(resps))
	}
	// The connection survived both panics.
	if _, err := client.Exec(context.Background(), "SELECT COUNT(*) FROM t"); err != nil {
		t.Fatalf("connection dead after panic: %v", err)
	}
}

// TestEncodeSideFrameSizeLimit: the encode path rejects oversized frames
// with the typed error instead of silently emitting them.
func TestEncodeSideFrameSizeLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates >1 GiB")
	}
	huge := make([]byte, MaxFrameSize+1)
	err := CheckFrameSize(huge)
	var fe *FrameTooLargeError
	if !errors.As(err, &fe) || fe.Size != MaxFrameSize+1 {
		t.Fatalf("CheckFrameSize: %T %v", err, err)
	}
	if err := WriteFrame(discardWriter{}, huge); !errors.As(err, &fe) {
		t.Fatalf("WriteFrame accepted an oversized frame: %v", err)
	}
	if err := CheckFrameSize(huge[:MaxFrameSize]); err != nil {
		t.Fatalf("frame at exactly the limit must pass: %v", err)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestConcurrentBatchSessions drives many sessions issuing batches
// against one shared database — run under -race this exercises the
// engine's locking on the batch path.
func TestConcurrentBatchSessions(t *testing.T) {
	db := minisql.NewDB()
	srv := NewServer(db)
	setup := NewClient(&MeteredChannel{Conn: srv.NewConn()})
	if _, err := setup.Exec(context.Background(), "CREATE TABLE t (w INTEGER, i INTEGER)"); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const batches = 5
	const perBatch = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := NewClient(&MeteredChannel{Conn: srv.NewConn()})
			for b := 0; b < batches; b++ {
				reqs := make([]*Request, perBatch)
				for i := range reqs {
					reqs[i] = &Request{
						SQL:    "INSERT INTO t VALUES (?, ?)",
						Params: []types.Value{types.NewInt(int64(w)), types.NewInt(int64(b*perBatch + i))},
					}
				}
				if _, err := client.ExecBatch(context.Background(), reqs); err != nil {
					errs <- fmt.Errorf("worker %d batch %d: %w", w, b, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	resp, err := setup.Exec(context.Background(), "SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(workers * batches * perBatch)
	if got := resp.Rows[0][0].Int(); got != want {
		t.Errorf("concurrent batches inserted %d rows, want %d", got, want)
	}
}
