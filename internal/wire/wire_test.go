package wire

import (
	"bytes"
	"context"
	"io"
	"net"
	"reflect"
	"testing"
	"testing/quick"

	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/netsim"
)

func TestValueRoundTrip(t *testing.T) {
	values := []types.Value{
		types.Null,
		types.NewInt(0), types.NewInt(-1), types.NewInt(1 << 40),
		types.NewFloat(3.25), types.NewFloat(-0.0),
		types.NewText(""), types.NewText("hello 'quoted'"),
		types.NewBool(true), types.NewBool(false),
	}
	for _, v := range values {
		buf := AppendValue(nil, v)
		got, rest, err := ReadValue(buf)
		if err != nil || len(rest) != 0 {
			t.Fatalf("ReadValue(%s): %v, %d trailing", v, err, len(rest))
		}
		if !types.SameKey(got, v) {
			t.Errorf("round trip %s -> %s", v, got)
		}
	}
}

// Property: arbitrary request frames round-trip exactly.
func TestRequestRoundTripProperty(t *testing.T) {
	f := func(sql string, ints []int64, texts []string) bool {
		req := &Request{SQL: sql}
		for _, i := range ints {
			req.Params = append(req.Params, types.NewInt(i))
		}
		for _, s := range texts {
			req.Params = append(req.Params, types.NewText(s))
		}
		got, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			return false
		}
		if got.SQL != req.SQL || len(got.Params) != len(req.Params) {
			return false
		}
		for i := range req.Params {
			if !types.SameKey(got.Params[i], req.Params[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{
		Cols:         []string{"a", "b"},
		Rows:         []storage.Row{{types.NewInt(1), types.NewText("x")}, {types.Null, types.NewBool(true)}},
		RowsAffected: 7,
	}
	got, err := DecodeResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Cols, resp.Cols) || got.RowsAffected != 7 || len(got.Rows) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if !types.SameKey(got.Rows[1][1], types.NewBool(true)) {
		t.Error("row values corrupted")
	}
}

func TestErrorResponse(t *testing.T) {
	resp, err := DecodeResponse(EncodeResponse(&Response{Err: "boom"}))
	if err != nil || resp.Err != "boom" {
		t.Fatalf("error frame: %+v, %v", resp, err)
	}
}

// TestResponseFramesSizedExactly: the v1 encoders size a frame before
// filling it, so every frame — an error, an empty result, every value
// kind, a batch of them — is exactly as long as its sizing pass said,
// and a frame too large for the pool is allocated at its length.
func TestResponseFramesSizedExactly(t *testing.T) {
	resps := []*Response{
		{Err: "boom"},
		{},
		{Cols: []string{"a", "bb"}, Rows: []storage.Row{
			{types.NewInt(1), types.NewText("x")}, {types.Null, types.NewBool(true)},
			{types.NewFloat(0.5), types.NewText("")}, {types.NewBool(false), types.Null},
		}, RowsAffected: 7, Epoch: 3},
		nodeShapedResult(100),
	}
	for i, resp := range resps {
		if got, want := len(EncodeResponse(resp)), responseSize(resp); got != want {
			t.Errorf("response %d: encoded %d bytes, sized %d", i, got, want)
		}
	}
	batch := EncodeBatchResponse(resps)
	subs, err := DecodeBatchResponse(batch)
	if err != nil || len(subs) != len(resps) {
		t.Fatalf("batch round trip: %d responses, %v", len(subs), err)
	}
	if !reflect.DeepEqual(subs[3], resps[3]) || subs[0].Err != "boom" {
		t.Errorf("batch sub-frames corrupted")
	}
	if want := 5 + 4*len(resps) + responseSize(resps[0]) + responseSize(resps[1]) +
		responseSize(resps[2]) + responseSize(resps[3]); len(batch) != want {
		t.Errorf("batch encoded %d bytes, want %d", len(batch), want)
	}
	big := EncodeResponse(nodeShapedResult(30000))
	if len(big) <= maxPooledBuf || cap(big) != len(big) {
		t.Errorf("30,000-row frame: len %d cap %d, want one exact allocation past %d", len(big), cap(big), maxPooledBuf)
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {0x99}, {TypeRequest}, {TypeResult, 1}} {
		if _, err := DecodeResponse(b); err == nil && len(b) > 0 && b[0] == TypeResult {
			t.Errorf("short result frame %v must fail", b)
		}
		if _, err := DecodeRequest(b); err == nil {
			t.Errorf("bad request frame %v must fail", b)
		}
	}
}

func TestFraming(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, []byte("")); err != nil {
		t.Fatal(err)
	}
	b1, err := ReadFrame(&buf)
	if err != nil || string(b1) != "hello" {
		t.Fatalf("frame 1: %q, %v", b1, err)
	}
	b2, err := ReadFrame(&buf)
	if err != nil || len(b2) != 0 {
		t.Fatalf("frame 2: %q, %v", b2, err)
	}
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("EOF expected")
	}
}

// countingWriter counts the Write calls a frame takes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameIsOneWrite: a frame reaches a writer that is not a
// socket in one Write call, past 64 KiB too, so a link that charges its
// latency per write (the demo client's netsim.DelayedConn) charges it
// once per frame.
func TestWriteFrameIsOneWrite(t *testing.T) {
	for _, n := range []int{0, 12, 64 << 10, 64<<10 + 1} {
		body := bytes.Repeat([]byte{'w'}, n)
		var w countingWriter
		if err := WriteFrame(&w, body); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Errorf("%d-byte body: %d writes, want 1", n, w.writes)
		}
		if got, err := ReadFrame(&w.Buffer); err != nil || !bytes.Equal(got, body) {
			t.Errorf("%d-byte body read back as %d bytes, %v", n, len(got), err)
		}
	}
}

// TestVectoredFrameAllocatesNothing: a frame past the copy bound goes
// out to a socket from where it lies, through a recycled prefix and
// buffer list.
func TestVectoredFrameAllocatesNothing(t *testing.T) {
	addr := listenLoopback(t, func(c net.Conn) { _, _ = io.Copy(io.Discard, c) })
	conn := dialLoopback(t, addr)
	body := make([]byte, streamBuf+1)
	write := func() {
		if err := WriteFrame(conn, body); err != nil {
			t.Fatal(err)
		}
	}
	write()
	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Errorf("WriteFrame of a %d-byte body: %.0f allocations per call, want 0", len(body), allocs)
	}
}

func TestServerHandlesRequests(t *testing.T) {
	db := minisql.NewDB()
	srv := NewServer(db)
	conn := srv.NewConn()
	client := NewClient(&MeteredChannel{Conn: conn})

	if _, err := client.Exec(context.Background(), "CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exec(context.Background(), "INSERT INTO t VALUES (?)", types.NewInt(5)); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Exec(context.Background(), "SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0].Int() != 5 {
		t.Fatalf("result: %+v", resp)
	}
	// SQL errors surface as ServerError, not transport failures.
	_, err = client.Exec(context.Background(), "SELECT * FROM missing")
	if _, ok := err.(*ServerError); !ok {
		t.Fatalf("expected ServerError, got %T %v", err, err)
	}
}

func TestMeteredChannelCharges(t *testing.T) {
	db := minisql.NewDB()
	srv := NewServer(db)
	meter := netsim.NewMeter(netsim.Intercontinental())
	client := NewClient(&MeteredChannel{Conn: srv.NewConn(), Meter: meter})
	if _, err := client.Exec(context.Background(), "CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if meter.Metrics.RoundTrips != 1 || meter.Metrics.TotalSec() <= 0 {
		t.Errorf("meter not charged: %+v", meter.Metrics)
	}
}

// TestStreamChannelOverPipe runs the framed protocol over a real
// bidirectional connection — the path cmd/pdmserver and cmd/pdmclient use.
func TestStreamChannelOverPipe(t *testing.T) {
	db := minisql.NewDB()
	srv := NewServer(db)
	clientEnd, serverEnd := net.Pipe()
	done := make(chan error, 1)
	go func() {
		conn := srv.NewConn()
		done <- conn.Serve(serverEnd)
	}()

	client := NewClient(&StreamChannel{Stream: clientEnd})
	if _, err := client.Exec(context.Background(), "CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exec(context.Background(), "INSERT INTO t VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Exec(context.Background(), "SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows[0][0].Int() != 2 {
		t.Fatalf("count = %s", resp.Rows[0][0])
	}
	clientEnd.Close()
	if err := <-done; err != nil && err.Error() != "io: read/write on closed pipe" {
		t.Logf("server loop ended: %v", err)
	}
}
