package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/netsim"
)

func TestCompressBodyRoundTripAndThreshold(t *testing.T) {
	big := bytes.Repeat([]byte("the state is released and the type is assy "), 100)
	z := CompressBody(big, 0)
	if z[0] != TypeCompressed {
		t.Fatal("large repetitive body not compressed")
	}
	if len(z) >= len(big) {
		t.Fatalf("compressed %d B >= original %d B", len(z), len(big))
	}
	orig, ok := CompressedOriginalSize(z)
	if !ok || orig != len(big) {
		t.Fatalf("CompressedOriginalSize = %d/%v, want %d/true", orig, ok, len(big))
	}
	back, err := MaybeDecompress(z)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, big) {
		t.Fatal("decompressed body differs")
	}

	// Below the threshold nothing happens.
	small := []byte("tiny")
	if got := CompressBody(small, 0); &got[0] != &small[0] {
		t.Fatal("small body must pass through unchanged")
	}
	// Incompressible bodies above the threshold stay uncompressed too.
	noise := make([]byte, 4096)
	for i := range noise {
		noise[i] = byte(i*2654435761 + i>>3) // cheap pseudo-noise
	}
	z = CompressBody(CompressBody(noise, 1), 1) // deflate output is incompressible
	if _, ok := CompressedOriginalSize(z); ok {
		// One level of compression is fine; the point is the inner call:
		// compressing the already-deflated body must not wrap again
		// unless it actually shrank.
		inner, err := MaybeDecompress(z)
		if err != nil {
			t.Fatal(err)
		}
		if len(z) >= len(inner) {
			t.Fatalf("wrapper grew the body: %d >= %d", len(z), len(inner))
		}
	}
	// Non-compressed bodies pass through MaybeDecompress untouched.
	plain := EncodeResponse(&Response{Cols: []string{"a"}})
	back, err = MaybeDecompress(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, plain) {
		t.Fatal("plain frame must pass through")
	}
}

func TestMaybeDecompressCorrupt(t *testing.T) {
	cases := [][]byte{
		{TypeCompressed},
		{TypeCompressed, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // size > MaxFrameSize
		{TypeCompressed, 10, 1, 2, 3}, // garbage deflate stream
	}
	for _, b := range cases {
		if _, err := MaybeDecompress(b); err == nil {
			t.Errorf("corrupt compressed frame %v must fail", b)
		}
	}
	// A stream inflating to more than its recorded size must fail.
	var buf bytes.Buffer
	buf.Write(CompressBody(bytes.Repeat([]byte("x"), 1000), 1))
	lying := append([]byte{TypeCompressed, 5}, buf.Bytes()[2:]...)
	if _, err := MaybeDecompress(lying); err == nil {
		t.Error("size-lying compressed frame must fail")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	want := Caps{Columnar: true, Compress: true, CompressThreshold: 4096}
	got, err := DecodeHello(EncodeHello(want))
	if err != nil || got != want {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}
	got, err = DecodeHelloResp(EncodeHelloResp(Caps{Compress: true}))
	if err != nil || got.Compress != true || got.Columnar != false {
		t.Fatalf("hello resp round trip: %+v, %v", got, err)
	}
	if _, err := DecodeHello([]byte{TypeHelloResp, 0}); err == nil {
		t.Fatal("wrong tag must fail")
	}
}

// newTestConn builds a server connection over a populated table and a
// metered client speaking to it.
func newTestConn(t *testing.T, rows int) (*ServerConn, *Client, *netsim.Meter) {
	t.Helper()
	db := minisql.NewDB()
	conn := NewServer(db).NewConn()
	meter := netsim.NewMeter(netsim.Link{LatencySec: 0.1, RateKbps: 256, PacketBytes: 0})
	client := NewClient(&MeteredChannel{Conn: conn, Meter: meter})
	ctx := context.Background()
	if _, err := client.Exec(ctx, "CREATE TABLE obj (id INTEGER, typ TEXT, state TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		_, err := client.Exec(ctx, "INSERT INTO obj VALUES (?, ?, ?)",
			types.NewInt(int64(1000+i)), types.NewText("assy"), types.NewText("released"))
		if err != nil {
			t.Fatal(err)
		}
	}
	return conn, client, meter
}

// TestNegotiatedCompressionEndToEnd negotiates columnar + deflate and
// checks that (a) the decoded result is identical to an un-negotiated
// session's, (b) the meter charges the post-compression volume and
// reports the saving.
func TestNegotiatedCompressionEndToEnd(t *testing.T) {
	ctx := context.Background()
	_, plainClient, plainMeter := newTestConn(t, 500)
	plainMeter.Reset()
	want, err := plainClient.Exec(ctx, "SELECT id, typ, state FROM obj ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	plainDown := plainMeter.Metrics.ResponseBytes
	if plainMeter.Metrics.CompressedFrames != 0 {
		t.Fatal("un-negotiated session saw compressed frames")
	}

	conn, client, meter := newTestConn(t, 500)
	caps, err := client.Negotiate(ctx, Caps{Columnar: true, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if !caps.Columnar || !caps.Compress || caps.CompressThreshold != DefaultCompressThreshold {
		t.Fatalf("negotiated caps = %+v", caps)
	}
	if conn.Caps() != caps {
		t.Fatalf("server caps %+v != client view %+v", conn.Caps(), caps)
	}
	meter.Reset()
	got, err := client.Exec(ctx, "SELECT id, typ, state FROM obj ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	respEqual(t, got, want)
	m := meter.Metrics
	if m.CompressedFrames != 1 {
		t.Fatalf("CompressedFrames = %d, want 1", m.CompressedFrames)
	}
	if m.ResponseBytesSaved <= 0 {
		t.Fatalf("ResponseBytesSaved = %.0f, want > 0", m.ResponseBytesSaved)
	}
	if m.ResponseBytes*5 > plainDown {
		t.Fatalf("negotiated response volume %.0f B not 5x below plain %.0f B", m.ResponseBytes, plainDown)
	}
}

// TestNegotiatedBatchAndPrepared drives the batch and prepared
// sub-frame paths under the negotiated encodings.
func TestNegotiatedBatchAndPrepared(t *testing.T) {
	ctx := context.Background()
	_, client, meter := newTestConn(t, 300)
	if _, err := client.Negotiate(ctx, Caps{Columnar: true, Compress: true}); err != nil {
		t.Fatal(err)
	}
	const from = "SELECT id, typ FROM obj WHERE id >= ? ORDER BY id"
	if _, err := client.Do(ctx, prep(from, types.NewInt(1299))); err != nil {
		t.Fatal(err)
	}
	meter.Reset()
	resps, err := client.ExecBatch(ctx, []*Request{
		{SQL: "SELECT id, typ, state FROM obj ORDER BY id"},
		prep(from, types.NewInt(1000)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 || len(resps[0].Rows) != 300 || len(resps[1].Rows) != 300 {
		t.Fatalf("batch under negotiated encodings: %d resps", len(resps))
	}
	if resps[0].Rows[0][1].Text() != "assy" {
		t.Fatalf("decoded row: %v", resps[0].Rows[0])
	}
	if meter.Metrics.CompressedFrames != 1 {
		t.Fatalf("CompressedFrames = %d, want 1 (the batch response)", meter.Metrics.CompressedFrames)
	}
	// And a prepared exec outside the batch.
	resp, err := client.Do(ctx, prep(from, types.NewInt(1100)))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 200 {
		t.Fatalf("prepared exec rows = %d, want 200", len(resp.Rows))
	}
}

// TestNegotiateAgainstLegacyServer: a transport whose server answers
// hello with an error frame degrades to the zero capability set.
func TestNegotiateAgainstLegacyServer(t *testing.T) {
	legacy := transportFunc(func(ctx context.Context, req []byte) ([]byte, error) {
		return EncodeResponse(&Response{Err: fmt.Sprintf("bad request: unknown frame %d", req[0])}), nil
	})
	caps, err := NewClient(legacy).Negotiate(context.Background(), Caps{Columnar: true, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if caps != (Caps{}) {
		t.Fatalf("legacy negotiation must yield zero caps, got %+v", caps)
	}
}

type transportFunc func(ctx context.Context, req []byte) ([]byte, error)

func (f transportFunc) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	return f(ctx, req)
}

// TestOversizedResponseReturnsErrorFrame is the regression test for the
// server write path: a response exceeding the frame-size limit must
// come back as a structured TypeError frame carrying the
// FrameTooLargeError message — not kill the connection — and the
// connection must keep serving afterwards.
func TestOversizedResponseReturnsErrorFrame(t *testing.T) {
	conn, client, _ := newTestConn(t, 2000)
	conn.MaxResponseBytes = 1 << 12
	ctx := context.Background()

	_, err := client.Exec(ctx, "SELECT id, typ, state FROM obj")
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("oversized response: got %v, want *ServerError", err)
	}
	if !strings.Contains(se.Msg, "exceeds the 4096 byte limit") {
		t.Fatalf("diagnostic %q does not carry the FrameTooLargeError message", se.Msg)
	}
	// The connection survives: a small statement still answers.
	resp, err := client.Exec(ctx, "SELECT COUNT(*) FROM obj")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows[0][0].Int() != 2000 {
		t.Fatalf("count after oversized response = %v", resp.Rows[0][0])
	}
	// With negotiated compression the same result fits again — the
	// limit applies post-compression.
	if _, err := client.Negotiate(ctx, Caps{Columnar: true, Compress: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exec(ctx, "SELECT id, typ, state FROM obj"); err != nil {
		t.Fatalf("compressed result should fit under the limit: %v", err)
	}
}

// TestOversizedResponseOverStream drives the same bugfix through the
// framed Serve loop: before the fix WriteFrame failed server-side and
// the stream died with no client-readable diagnostic.
func TestOversizedResponseOverStream(t *testing.T) {
	db := minisql.NewDB()
	conn := NewServer(db).NewConn()
	conn.MaxResponseBytes = 1 << 12

	cliEnd, srvEnd := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- conn.Serve(srvEnd) }()

	client := NewClient(&StreamChannel{Stream: cliEnd})
	ctx := context.Background()
	if _, err := client.Exec(ctx, "CREATE TABLE t (a TEXT)"); err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("y", 256)
	for i := 0; i < 64; i++ {
		if _, err := client.Exec(ctx, "INSERT INTO t VALUES (?)", types.NewText(big)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := client.Exec(ctx, "SELECT a FROM t")
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("oversized response over stream: got %v, want *ServerError", err)
	}
	// The loop is still alive.
	resp, err := client.Exec(ctx, "SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows[0][0].Int() != 64 {
		t.Fatalf("count after oversized response = %v", resp.Rows[0][0])
	}
	cliEnd.Close()
	if err := <-done; err != nil && err.Error() != "io: read/write on closed pipe" {
		t.Logf("server loop ended: %v", err)
	}
}

// TestDecodeAllocationBombs pins the review findings: small hostile
// frames claiming huge logical sizes must be rejected (or served
// incrementally) without multi-gigabyte allocations.
func TestDecodeAllocationBombs(t *testing.T) {
	// A ~20 KB columnar frame declaring 5000 columns and a row count
	// that individually passes a per-column bound but multiplies out to
	// billions of cells.
	bomb := []byte{TypeResultV2}
	bomb = appendUint64(bomb, 0)
	bomb = appendUint32(bomb, 0)
	bomb = appendUint32(bomb, 5000)
	for i := 0; i < 5000; i++ {
		bomb = appendString(bomb, "c")
	}
	bomb = appendUint32(bomb, 800000)
	bomb = append(bomb, make([]byte, 1024)...)
	done := make(chan error, 1)
	go func() {
		_, err := DecodeResponse(bomb)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("rows-x-cols allocation bomb decoded without error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rows-x-cols allocation bomb: decode did not return promptly")
	}

	// A tiny compressed frame claiming a 1 GB original size must not
	// pre-allocate it; the stream runs dry immediately and the length
	// check fails.
	lying := []byte{TypeCompressed}
	lying = append(lying, binary.AppendUvarint(nil, 1<<30)...)
	lying = append(lying, 1, 2, 3)
	if _, err := MaybeDecompress(lying); err == nil {
		t.Fatal("size-lying giant compressed frame must fail")
	}
}

// TestNegativeCompressionThreshold: a negative threshold means "wire
// default", and must not wrap into a threshold that silently disables
// compression.
func TestNegativeCompressionThreshold(t *testing.T) {
	caps, err := DecodeHello(EncodeHello(Caps{Compress: true, CompressThreshold: -1}))
	if err != nil {
		t.Fatal(err)
	}
	if caps.CompressThreshold != 0 {
		t.Fatalf("negative threshold encoded as %d, want 0 (wire default)", caps.CompressThreshold)
	}
	// A threshold beyond 4 GiB must not truncate into a tiny one that
	// compresses everything; it caps at "never compress".
	caps, err = DecodeHello(EncodeHello(Caps{Compress: true, CompressThreshold: (1 << 32) + 64}))
	if err != nil {
		t.Fatal(err)
	}
	if caps.CompressThreshold != MaxFrameSize {
		t.Fatalf("huge threshold encoded as %d, want cap at MaxFrameSize", caps.CompressThreshold)
	}
	conn, client, meter := newTestConn(t, 500)
	if _, err := client.Negotiate(context.Background(), Caps{Columnar: true, Compress: true, CompressThreshold: -1}); err != nil {
		t.Fatal(err)
	}
	if conn.Caps().CompressThreshold != DefaultCompressThreshold {
		t.Fatalf("server threshold = %d, want default %d", conn.Caps().CompressThreshold, DefaultCompressThreshold)
	}
	meter.Reset()
	if _, err := client.Exec(context.Background(), "SELECT id, typ, state FROM obj"); err != nil {
		t.Fatal(err)
	}
	if meter.Metrics.CompressedFrames != 1 {
		t.Fatalf("compression silently disabled: %d compressed frames", meter.Metrics.CompressedFrames)
	}
}
