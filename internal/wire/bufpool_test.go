package wire

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"reflect"
	"testing"
	"unsafe"

	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/netsim"
)

// poisonPool pulls a batch of recycled buffers out of the frame pool,
// overwrites their full capacity with a sentinel byte, and puts them
// back. Any live Response (or other decoded value) that secretly
// aliases pooled memory gets visibly corrupted by this.
func poisonPool() {
	bufs := make([][]byte, 64)
	for i := range bufs {
		bufs[i] = getFrame()
	}
	for _, b := range bufs {
		full := b[:cap(b)]
		for j := range full {
			full[j] = 0xA5
		}
		putFrame(b)
	}
}

func cloneResponse(r *Response) *Response {
	c := &Response{
		Err:          r.Err,
		Cols:         append([]string(nil), r.Cols...),
		RowsAffected: r.RowsAffected,
		Epoch:        r.Epoch,
	}
	for _, row := range r.Rows {
		// Force-copy text cells through a byte round trip so the clone
		// cannot share string backing with the original.
		cr := make(storage.Row, len(row))
		for i, v := range row {
			b := AppendValue(nil, v)
			cv, _, err := ReadValue(bytes.Repeat(b, 1))
			if err != nil {
				panic(err)
			}
			cr[i] = cv
		}
		c.Rows = append(c.Rows, cr)
	}
	return c
}

// TestPooledBuffersDoNotAliasResponses is the pool-aliasing regression
// test: after a full exec round trip (columnar + compression, so every
// pooled path runs), poisoning the recycled buffers must not change the
// decoded responses — proof that nothing the client keeps aliases pool
// memory.
func TestPooledBuffersDoNotAliasResponses(t *testing.T) {
	ctx := context.Background()
	_, client, _ := newTestConn(t, 400)
	if _, err := client.Negotiate(ctx, Caps{Columnar: true, Compress: true, CompressThreshold: 64}); err != nil {
		t.Fatal(err)
	}

	resp, err := client.Exec(ctx, "SELECT id, typ, state FROM obj ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	snapshot := cloneResponse(resp)

	// Churn the pool with fresh traffic (different statement shapes so
	// recycled buffers get rewritten at many lengths), then poison
	// whatever the pool holds.
	for i := 0; i < 50; i++ {
		if _, err := client.Exec(ctx, "SELECT state, COUNT(*) FROM obj GROUP BY state"); err != nil {
			t.Fatal(err)
		}
	}
	poisonPool()

	if !reflect.DeepEqual(resp, snapshot) {
		t.Fatal("decoded response changed after pool churn + poisoning: a pooled buffer is aliased")
	}
}

// TestPooledBuffersStreamPath runs the same aliasing check over a real
// framed stream (net.Pipe), which exercises the Serve-loop recycle
// points and pooled ReadFrame buffers on both sides.
func TestPooledBuffersStreamPath(t *testing.T) {
	ctx := context.Background()
	db := minisql.NewDB()
	conn := NewServer(db).NewConn()
	cs, ss := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- conn.Serve(ss) }()
	defer func() {
		cs.Close()
		ss.Close()
		if err := <-done; err != nil && err != io.ErrClosedPipe {
			t.Errorf("serve: %v", err)
		}
	}()

	client := NewClient(Metered(&StreamChannel{Stream: cs}, netsim.NewMeter(netsim.Link{})))
	if _, err := client.Negotiate(ctx, Caps{Columnar: true, Compress: true, CompressThreshold: 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exec(ctx, "CREATE TABLE obj (id INTEGER, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	reqs := make([]*Request, 0, 300)
	for i := 0; i < 300; i++ {
		reqs = append(reqs, &Request{
			SQL:    "INSERT INTO obj VALUES (?, 'released-component-name')",
			Params: []types.Value{types.NewInt(int64(i))},
		})
	}
	if _, err := client.ExecBatch(ctx, reqs); err != nil {
		t.Fatal(err)
	}

	resp, err := client.Exec(ctx, "SELECT id, name FROM obj ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	snapshot := cloneResponse(resp)
	for i := 0; i < 50; i++ {
		if _, err := client.Exec(ctx, "SELECT COUNT(*) FROM obj"); err != nil {
			t.Fatal(err)
		}
	}
	poisonPool()
	if !reflect.DeepEqual(resp, snapshot) {
		t.Fatal("stream-path response changed after pool churn + poisoning: a pooled buffer is aliased")
	}
}

// TestGetFrameNDropsSmallBuffer: a pooled buffer too small for the read
// leaves the pool for good. The pool is drained first, so the small
// buffer is the one getFrameN is handed; a collection in between could
// only empty the pool, never put the buffer back.
func TestGetFrameNDropsSmallBuffer(t *testing.T) {
	drain := func(visit func([]byte)) {
		for b := getFrame(); cap(b) > 0; b = getFrame() {
			visit(b)
		}
	}
	drain(func([]byte) {})
	small := make([]byte, 0, 8)
	putFrame(small)
	if b := getFrameN(64); len(b) != 64 {
		t.Fatalf("getFrameN(64) returned %d bytes", len(b))
	}
	drain(func(b []byte) {
		if unsafe.SliceData(b) == unsafe.SliceData(small) {
			t.Fatal("buffer too small for the read went back into the pool")
		}
	})
}

// TestReadFrameAllocatesOnlyItsBody: reading a frame into a recycled
// buffer allocates nothing — the length prefix lands in the buffer the
// body then fills — and a pooled buffer too small for the body leaves
// the pool, as getFrameN's does.
func TestReadFrameAllocatesOnlyItsBody(t *testing.T) {
	body := []byte("a frame body")
	var stream bytes.Buffer
	for i := 0; i < 128; i++ {
		if err := WriteFrame(&stream, body); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&stream)
	read := func() {
		got, err := ReadFrame(r)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("ReadFrame = %q, %v", got, err)
		}
		putFrame(got)
	}
	read()
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("%.0f allocations per frame read into a recycled buffer, want 0", allocs)
	}

	stream.Reset()
	if err := WriteFrame(&stream, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	r.Reset(&stream)
	for b := getFrame(); cap(b) > 0; b = getFrame() {
	}
	small := make([]byte, 0, 8)
	putFrame(small)
	if got, err := ReadFrame(r); err != nil || len(got) != 64 {
		t.Fatalf("ReadFrame = %d bytes, %v", len(got), err)
	}
	for b := getFrame(); cap(b) > 0; b = getFrame() {
		if unsafe.SliceData(b) == unsafe.SliceData(small) {
			t.Fatal("buffer too small for the body went back into the pool")
		}
	}
}

// TestFrameRecycleAllocatesNothing: recycling a frame buffer and writing
// a frame's length prefix cost no allocation in the steady state — the
// pool carries each buffer back behind a pointer it already has, and
// the prefix is written from a recycled array.
func TestFrameRecycleAllocatesNothing(t *testing.T) {
	body := []byte("a frame body")
	cycle := func() { putFrame(append(getFrame(), body...)) }
	write := func() {
		if err := WriteFrame(io.Discard, body); err != nil {
			t.Fatal(err)
		}
	}
	for name, fn := range map[string]func(){"getFrame/putFrame": cycle, "WriteFrame": write} {
		fn()
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %.0f allocations per call, want 0", name, allocs)
		}
	}
}
