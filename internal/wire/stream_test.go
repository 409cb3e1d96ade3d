package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/types"
)

// listenLoopback serves every connection accepted on a loopback TCP
// listener with serve, which gets the accepted connection, and returns
// the listener's address. The listener and the accepted connections
// close at the end of the test.
func listenLoopback(t testing.TB, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				serve(c)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

func dialLoopback(t testing.TB, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// within fails the test when f has not returned after ten seconds: a
// stream that hangs instead of failing.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no answer after 10 s", what)
	}
}

// framed returns body behind its length prefix.
func framed(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// sizedRequest returns a request whose response from conn is a frame of
// exactly n bytes: one row holding one text parameter, lengthened until
// the response's varints and the text add up to n.
func sizedRequest(t *testing.T, conn *ServerConn, n int) []byte {
	t.Helper()
	text := 0
	for range 8 {
		req := EncodeRequest(&Request{SQL: "SELECT ? FROM one", Params: []types.Value{types.NewText(strings.Repeat("r", text))}})
		got := len(conn.Handle(req))
		if got == n {
			return req
		}
		text += n - got
		if text < 0 {
			t.Fatalf("no text parameter gives a %d-byte response", n)
		}
	}
	t.Fatalf("no %d-byte response found", n)
	return nil
}

// newStreamDB holds the tables the stream tests read: one row to
// project parameters from, and a Query-sized table of 2,048 rows of
// 4 KiB text.
func newStreamDB(t *testing.T) *minisql.DB {
	t.Helper()
	db := minisql.NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE one (id INTEGER)")
	mustExec(t, s, "INSERT INTO one VALUES (1)")
	mustExec(t, s, "CREATE TABLE big (id INTEGER, s TEXT)")
	text := types.NewText(strings.Repeat("q", 4<<10))
	for i := range 2048 {
		if _, err := s.Exec("INSERT INTO big VALUES (?, ?)", types.NewInt(int64(i)), text); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// serveLoopback serves srv on a loopback TCP listener and reports the
// Serve result of the first connection to end on the returned channel.
func serveLoopback(t *testing.T, srv *Server) (string, <-chan error) {
	t.Helper()
	errc := make(chan error, 1)
	addr := listenLoopback(t, func(c net.Conn) {
		select {
		case errc <- srv.NewConn().Serve(c):
		default:
		}
	})
	return addr, errc
}

// TestFramedStreamOverTCP runs StreamChannel against ServerConn.Serve
// over a real loopback TCP connection: every response reads back byte
// for byte as the in-process MeteredChannel hands it over, frames that
// share a segment stay two frames, and a hostile length prefix or a
// peer gone mid-body ends the exchange with an error.
func TestFramedStreamOverTCP(t *testing.T) {
	srv := NewServer(newStreamDB(t))
	ctx := context.Background()

	t.Run("responses", func(t *testing.T) {
		addr, _ := serveLoopback(t, srv)
		local := &MeteredChannel{Conn: srv.NewConn()}
		stream := &StreamChannel{Stream: dialLoopback(t, addr)}
		sizing := srv.NewConn()
		type exchange struct {
			name string
			req  []byte
		}
		exchanges := []exchange{
			{"0 rows", EncodeRequest(&Request{SQL: "SELECT s FROM big WHERE id < 0"})},
			{"query-sized", EncodeRequest(&Request{SQL: "SELECT id, s FROM big"})},
		}
		for _, n := range []int{streamBuf - 5, streamBuf - 4, streamBuf - 3,
			streamBuf - 1, streamBuf, streamBuf + 1, maxPooledBuf + 1} {
			exchanges = append(exchanges, exchange{fmt.Sprintf("%d-byte frame", n), sizedRequest(t, sizing, n)})
		}
		for _, x := range exchanges {
			want, err := local.RoundTrip(ctx, x.req)
			if err != nil {
				t.Fatal(err)
			}
			want = bytes.Clone(want)
			if x.name == "query-sized" && len(want) < 8<<20 {
				t.Fatalf("query-sized response is %d bytes", len(want))
			}
			var got []byte
			within(t, x.name, func() { got, err = stream.RoundTrip(ctx, x.req) })
			if err != nil {
				t.Fatalf("%s: %v", x.name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %d bytes over TCP differ from the %d in-process", x.name, len(got), len(want))
			}
		}
	})

	t.Run("two frames in one write", func(t *testing.T) {
		addr, _ := serveLoopback(t, srv)
		local := srv.NewConn()
		c := dialLoopback(t, addr)
		reqs := [][]byte{
			EncodeRequest(&Request{SQL: "SELECT id FROM one"}),
			EncodeRequest(&Request{SQL: "SELECT COUNT(*) FROM big"}),
		}
		if _, err := c.Write(append(framed(reqs[0]), framed(reqs[1])...)); err != nil {
			t.Fatal(err)
		}
		for i, req := range reqs {
			want := bytes.Clone(local.Handle(req))
			var got []byte
			var err error
			within(t, "second frame of a write", func() { got, err = ReadFrame(c) })
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("response %d: %x, %v; want %x", i, got, err, want)
			}
		}
	})

	t.Run("oversized prefix", func(t *testing.T) {
		// The length prefix is refused before a body is allocated: the
		// whole exchange allocates far less than the frame it claims.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		addr, errc := serveLoopback(t, srv)
		c := dialLoopback(t, addr)
		if _, err := c.Write(binary.BigEndian.AppendUint32(nil, MaxFrameSize+1)); err != nil {
			t.Fatal(err)
		}
		var err error
		within(t, "oversized prefix", func() { err = <-errc })
		if err == nil {
			t.Fatal("Serve accepted a frame above MaxFrameSize")
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<20 {
			t.Errorf("refusing a %d-byte frame allocated %d bytes", MaxFrameSize+1, n)
		}
		within(t, "closed after an oversized prefix", func() {
			if n, err := c.Read(make([]byte, 1)); err == nil {
				t.Errorf("server answered %d bytes to a frame above MaxFrameSize", n)
			}
		})
	})

	t.Run("peer closes mid-body", func(t *testing.T) {
		// A server that sends a tenth of a response and hangs up.
		half := listenLoopback(t, func(c net.Conn) {
			if _, err := ReadFrame(c); err != nil {
				return
			}
			_, _ = c.Write(binary.BigEndian.AppendUint32(nil, 100)[:4:4])
			_, _ = c.Write(make([]byte, 10))
		})
		stream := &StreamChannel{Stream: dialLoopback(t, half)}
		within(t, "client, server gone mid-body", func() {
			_, err := stream.RoundTrip(ctx, EncodeRequest(&Request{SQL: "SELECT id FROM one"}))
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("response cut short: %v, want io.ErrUnexpectedEOF", err)
			}
		})

		// A client that sends a tenth of a request and hangs up.
		addr, errc := serveLoopback(t, srv)
		c := dialLoopback(t, addr)
		if _, err := c.Write(append(binary.BigEndian.AppendUint32(nil, 100), make([]byte, 10)...)); err != nil {
			t.Fatal(err)
		}
		c.Close()
		var err error
		within(t, "server, client gone mid-body", func() { err = <-errc })
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("request cut short: Serve returned %v, want io.ErrUnexpectedEOF", err)
		}
	})
}

// slowWriter delays every write by its current delay: a server that
// takes that long to answer.
type slowWriter struct {
	net.Conn
	delay atomic.Int64 // nanoseconds
}

func (s *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(time.Duration(s.delay.Load()))
	return s.Conn.Write(p)
}

// TestStreamDeadlineDoesNotLeak: a context deadline bounds its own
// round trip only. After a round trip under a deadline, one without a
// deadline waits for an answer that comes after the first deadline has
// passed; a round trip whose deadline passes returns ctx.Err().
func TestStreamDeadlineDoesNotLeak(t *testing.T) {
	srv := NewServer(newKVDB(t))
	server := &slowWriter{}
	addr := listenLoopback(t, func(c net.Conn) {
		server.Conn = c
		_ = srv.NewConn().Serve(server)
	})
	stream := &StreamChannel{Stream: dialLoopback(t, addr)}
	req := EncodeRequest(&Request{SQL: "SELECT val FROM kv WHERE id = 1"})

	short, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := stream.RoundTrip(short, req); err != nil {
		t.Fatalf("round trip under a deadline: %v", err)
	}
	first, _ := short.Deadline()
	server.delay.Store(int64(time.Until(first) + 200*time.Millisecond))
	within(t, "round trip after a deadline", func() {
		if _, err := stream.RoundTrip(context.Background(), req); err != nil {
			t.Errorf("round trip without a deadline, answered after the earlier one passed: %v", err)
		}
	})

	server.delay.Store(int64(time.Second))
	expiring, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	within(t, "round trip past its deadline", func() {
		_, err := stream.RoundTrip(expiring, req)
		if err == nil || err != expiring.Err() {
			t.Errorf("round trip past its deadline: %v, want ctx.Err() (%v)", err, expiring.Err())
		}
	})
}

// countingConn counts the writes made to a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestFailedExchangeRetiresStream: a round trip whose deadline fires
// while the server is still answering leaves that answer in the stream.
// The stream is retired: the next round trip returns *ConnClosedError
// without writing anything, where it used to read the late answer as
// its own ("echo:first" for "second").
func TestFailedExchangeRetiresStream(t *testing.T) {
	var delay atomic.Int64
	addr := listenLoopback(t, func(c net.Conn) {
		for {
			body, err := ReadFrame(c)
			if err != nil {
				return
			}
			time.Sleep(time.Duration(delay.Load()))
			if WriteFrame(c, append([]byte("echo:"), body...)) != nil {
				return
			}
		}
	})
	conn := &countingConn{Conn: dialLoopback(t, addr)}
	stream := &StreamChannel{Stream: conn}
	delay.Store(int64(200 * time.Millisecond))
	expiring, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	within(t, "round trip past its deadline", func() {
		if _, err := stream.RoundTrip(expiring, []byte("first")); err != expiring.Err() {
			t.Errorf("round trip past its deadline: %v, want ctx.Err()", err)
		}
	})
	delay.Store(0)
	writes := conn.writes.Load()
	within(t, "round trip after a failed one", func() {
		got, err := stream.RoundTrip(context.Background(), []byte("second"))
		var cce *ConnClosedError
		if !errors.As(err, &cce) {
			t.Errorf("round trip after a failed one: %q, %v; want *ConnClosedError", got, err)
		}
	})
	if n := conn.writes.Load() - writes; n != 0 {
		t.Errorf("a retired stream was written %d times", n)
	}
}

// BenchmarkStreamRoundTrip times one small exchange over loopback TCP,
// StreamChannel to ServerConn.Serve: the transport of each round trip
// of the navigational workloads. With -cpuprofile it shows the share
// of the read and write system calls.
func BenchmarkStreamRoundTrip(b *testing.B) {
	srv := NewServer(newKVDB(b))
	addr := listenLoopback(b, func(c net.Conn) { _ = srv.NewConn().Serve(c) })
	stream := &StreamChannel{Stream: dialLoopback(b, addr)}
	req := EncodeRequest(&Request{SQL: "SELECT val FROM kv WHERE id = 1"})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := stream.RoundTrip(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		putFrame(resp)
	}
}
