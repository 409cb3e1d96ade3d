package main

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pdmtune"
	"pdmtune/internal/minisql"
	"pdmtune/internal/wire"
)

// Tracing from outside: every span is recorded by one of the decorators
// in this file, wrapped around a call into an exported entry point.
// Nothing in the program under test knows it is being traced.
//
//	action                      one user action (run.go)
//	└ roundtrip                 Transport wrapper outside the metering wrapper
//	  └ transport               the same wrapper inside it: the bare exchange
//	    └ handle                around ServerConn.Handle
//	      └ replay.*            the handle's frames replayed stage by stage (replay.go)

// span is one timed interval. Parent and Action tie the spans of one
// user action together; times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // span index, -1 for a root
	Client int32  `json:"client"`
	Action int32  `json:"action"` // op index within the client, -1 outside an action
}

func (s span) dur() int64 { return s.End - s.Start }

// exchange is one captured request/response pair as the server saw it.
// The frames are copies: the wire layer recycles its buffers as soon as
// a round trip returns.
type exchange struct {
	Handle    int32 // the handle span
	Conn      int   // server connection, which scopes prepared handles
	Req, Resp []byte
}

// maxCaptureBytes bounds the frames a traced run keeps for replay.
// Exchanges past it are traced but not replayed, which
// trace.replay_coverage then shows.
const maxCaptureBytes = 512 << 20

// tracer collects spans and captured exchanges in memory. It is shared
// by the client goroutines and the TCP serve loop, hence the lock.
type tracer struct {
	mu        sync.Mutex
	t0        time.Time
	on        bool
	spans     []span
	exchanges []exchange
	captured  int
	// connTarget names the server behind each traced connection
	// (PrimarySite or a site name), indexed by connection id.
	connTarget []string
	// bind is the cursor that transports built next belong to: set-up
	// points it at a client before opening that client's session.
	bind *cursor
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record switches recording on or off (off during warm-up and set-up).
func (t *tracer) record(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) begin(name string, parent, client, action int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Client: client, Action: action})
	return int32(len(t.spans) - 1)
}

// end closes a span and returns its parent.
func (t *tracer) end(id int32) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return t.spans[id].Parent
}

// add records a span that was timed by the caller (the replay stages).
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// capture keeps a copy of one exchange. handle is -1 while the tracer is
// not recording; prepare exchanges are kept even then, because the replay
// needs the statement behind every handle a recorded execution uses.
func (t *tracer) capture(handle int32, conn int, req, resp []byte) {
	if handle < 0 && (len(req) == 0 || req[0] != wire.TypePrepare) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.captured+len(req)+len(resp) > maxCaptureBytes {
		return
	}
	t.captured += len(req) + len(resp)
	t.exchanges = append(t.exchanges, exchange{
		Handle: handle, Conn: conn,
		Req: append([]byte(nil), req...), Resp: append([]byte(nil), resp...),
	})
}

func (t *tracer) newConn(target string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.connTarget = append(t.connTarget, target)
	return len(t.connTarget) - 1
}

// cursor is one client's position in its span tree: the innermost open
// span and the current action. A nil cursor records nothing, which is
// how the untraced run shares the code. The fields are atomic because
// on TCP the serve loop's goroutine opens the handle span under the
// client's transport span.
type cursor struct {
	t      *tracer
	client int32
	top    atomic.Int32
	action atomic.Int32
}

func newCursor(t *tracer, client int) *cursor {
	if t == nil {
		return nil
	}
	c := &cursor{t: t, client: int32(client)}
	c.top.Store(-1)
	c.action.Store(-1)
	return c
}

func (c *cursor) push(name string) int32 {
	if c == nil {
		return -1
	}
	id := c.t.begin(name, c.top.Load(), c.client, c.action.Load())
	if id >= 0 {
		c.top.Store(id)
	}
	return id
}

func (c *cursor) pop(id int32) {
	if id >= 0 {
		c.top.Store(c.t.end(id))
	}
}

// beginAction opens the action span of the client's op i.
func (c *cursor) beginAction(i int) int32 {
	if c == nil {
		return -1
	}
	c.action.Store(int32(i))
	return c.push("action")
}

func (c *cursor) endAction(id int32) {
	if c == nil {
		return
	}
	c.pop(id)
	c.action.Store(-1)
}

// spanTransport times every round trip of the transport it wraps.
type spanTransport struct {
	name  string
	inner pdmtune.Transport
	cur   *cursor
}

func (s *spanTransport) RoundTrip(ctx context.Context, request []byte) ([]byte, error) {
	id := s.cur.push(s.name)
	resp, err := s.inner.RoundTrip(ctx, request)
	s.cur.pop(id)
	return resp, err
}

// TakeContention forwards the contention drain of the wrapped transport,
// so that wire.Metered still sees through the span wrapper.
func (s *spanTransport) TakeContention() minisql.ContentionStats {
	if cs, ok := s.inner.(wire.ContentionSource); ok {
		return cs.TakeContention()
	}
	return minisql.ContentionStats{}
}

// handleChannel is the benchmark's own in-process channel: it dispatches
// to the server connection like wire.MeteredChannel does, with a span
// around Handle and a copy of both frames.
type handleChannel struct {
	conn *wire.ServerConn
	id   int
	cur  *cursor
}

func (h *handleChannel) RoundTrip(ctx context.Context, request []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	id := h.cur.push("handle")
	resp := h.conn.Handle(request)
	h.cur.pop(id)
	h.cur.t.capture(id, h.id, request, resp)
	return resp, nil
}

func (h *handleChannel) TakeContention() minisql.ContentionStats { return h.conn.TakeContention() }

// traced stacks the three decorators around a server connection and
// charges the exchange to the meter between the outer two, exactly
// where wire.MeteredChannel charges it.
func (t *tracer) traced(target string, conn *wire.ServerConn, meter *pdmtune.Meter, cur *cursor) pdmtune.Transport {
	bare := &spanTransport{name: "transport", cur: cur,
		inner: &handleChannel{conn: conn, id: t.newConn(target), cur: cur}}
	return &spanTransport{name: "roundtrip", cur: cur, inner: wire.Metered(bare, meter)}
}

// wrapCluster is the Cluster.SetTransportWrapper hook of the traced
// in-process workloads: every metered channel the cluster builds
// (session transports, write paths, site pulls) is rebuilt with spans
// around the same server connection and meter.
func (t *tracer) wrapCluster(target string, tr pdmtune.Transport) pdmtune.Transport {
	mc, ok := tr.(*wire.MeteredChannel)
	if !ok {
		return tr
	}
	return t.traced(target, mc.Conn, mc.Meter, t.bind)
}

// tcpServer is the benchmark's loopback server for untuned-navigate.
type tcpServer struct {
	ln  net.Listener
	wg  sync.WaitGroup
	srv *wire.Server
	cur *cursor
}

func listenTCP(srv *wire.Server, cur *cursor) (*tcpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &tcpServer{ln: ln, srv: srv, cur: cur}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

func (s *tcpServer) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.serve(conn)
		}()
	}
}

// serve answers one connection until the client closes it. Untraced it
// is the library's own ServerConn.Serve; traced it is the same loop
// spelled out, with a span around Handle and a copy of both frames.
func (s *tcpServer) serve(conn net.Conn) {
	sc := s.srv.NewConn()
	if s.cur == nil {
		_ = sc.Serve(conn) // ends with the client's close
		return
	}
	connID := s.cur.t.newConn(pdmtune.PrimarySite)
	for {
		body, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		id := s.cur.push("handle")
		resp := sc.Handle(body)
		s.cur.pop(id)
		s.cur.t.capture(id, connID, body, resp)
		if err := wire.WriteFrame(conn, resp); err != nil {
			return
		}
	}
}

// close stops accepting and waits for every connection's goroutine;
// the clients must have closed their connections first.
func (s *tcpServer) close() {
	s.ln.Close()
	s.wg.Wait()
}

// dial connects one client. The stream is metered on the client side,
// between the two span wrappers when traced.
func (s *tcpServer) dial(meter *pdmtune.Meter, cur *cursor) (pdmtune.Transport, net.Conn, error) {
	conn, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	stream := pdmtune.StreamTransport(conn)
	if cur == nil {
		return pdmtune.MeteredTransport(stream, meter), conn, nil
	}
	bare := &spanTransport{name: "transport", inner: stream, cur: cur}
	return &spanTransport{name: "roundtrip", cur: cur, inner: pdmtune.MeteredTransport(bare, meter)}, conn, nil
}
