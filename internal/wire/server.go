package wire

import (
	"bufio"
	"fmt"
	"io"
	"sync"

	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/ast"
)

// Server fronts a minisql database with the wire protocol. One Server
// serves many connections; each connection owns a database session (and
// thus its own transaction state). Prepared statements belong to the
// database's statement table, not to a connection (Session.Prepare).
type Server struct {
	db *minisql.DB

	// fence is the server's cluster fencing state (term 0 for a server
	// outside any fenced cluster — the fence-free path behaves byte for
	// byte as before). dispatch holds its read lock across each frame.
	fence Fence

	// syncFilter resolves a pulling site's subscription filter (nil
	// resolver, or a nil result for a site, means full deltas — the
	// pre-subscription behavior byte for byte).
	filterMu   sync.RWMutex
	syncFilter func(site string) *SyncFilter
}

// SyncFilter is one site's subscription filter as the sync handler
// applies it: Keep bounds the shipped rows, Holds is the closure of
// version keys the subscription covers (echoed to the replica so it
// knows what it holds).
type SyncFilter struct {
	Keep  func(table string, key int64) bool
	Holds []int64
}

// NewServer wraps a database.
func NewServer(db *minisql.DB) *Server { return &Server{db: db} }

// DB exposes the underlying database (e.g. for registering procedures).
func (s *Server) DB() *minisql.DB { return s.db }

// Fence returns the server's fencing state, which the cluster control
// plane flips at promotion time.
func (s *Server) Fence() *Fence { return &s.fence }

// SetSyncFilter installs (or clears, with nil) the resolver mapping a
// pulling site to its subscription filter. The cluster control plane
// installs it on the current primary and moves it at promotion time.
func (s *Server) SetSyncFilter(f func(site string) *SyncFilter) {
	s.filterMu.Lock()
	defer s.filterMu.Unlock()
	s.syncFilter = f
}

// currentSyncFilter resolves the filter for one pulling site (nil for
// anonymous pulls, unknown sites, or a server without a resolver).
func (s *Server) currentSyncFilter(site string) *SyncFilter {
	if site == "" {
		return nil
	}
	s.filterMu.RLock()
	f := s.syncFilter
	s.filterMu.RUnlock()
	if f == nil {
		return nil
	}
	return f(site)
}

// ErrStatementTableFull is the refusal of a prepare that would take the
// database's prepared statements past their budget. It crosses the wire
// as an error frame; the client matches it with errors.Is and ships that
// statement as text from then on.
var ErrStatementTableFull = minisql.ErrStatementTableFull

// NewConn opens a server-side connection with a fresh session.
func (s *Server) NewConn() *ServerConn {
	return &ServerConn{server: s, session: s.db.NewSession()}
}

// ServerConn is the server side of one client connection. It holds no
// statement state: prepared handles resolve through the database's
// statement table.
//
// Handle is safe for concurrent callers: requests racing onto one
// connection serialize on an internal mutex (the engine session it owns
// is single-threaded by contract). Concurrent clients each open a
// connection of their own.
type ServerConn struct {
	server  *Server
	session *minisql.Session

	// mu serializes Handle and guards the per-connection state below.
	mu sync.Mutex

	// stmts holds a batch's resolved statements while it runs, reused
	// from batch to batch.
	stmts []ast.Statement

	// caps are the capabilities negotiated by the connection's hello
	// exchange; the zero value — no columnar results, no compression —
	// keeps the pre-negotiation wire format byte for byte.
	caps Caps

	// MaxResponseBytes optionally lowers the response-frame size limit
	// (0 means MaxFrameSize). A response exceeding it is replaced by a
	// structured TypeError frame carrying the FrameTooLargeError
	// message, so the client gets a diagnostic instead of a dead
	// connection.
	MaxResponseBytes int
}

// Caps reports the capabilities negotiated on this connection.
func (c *ServerConn) Caps() Caps {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.caps
}

// TakeContention drains the contention counters of the connection's
// engine session: lock waits, snapshots, write conflicts since the last
// drain. The transport layer calls it per round trip to attribute
// server-side contention to the client that caused it.
func (c *ServerConn) TakeContention() minisql.ContentionStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session.TakeContention()
}

func (c *ServerConn) responseLimit() int {
	if c.MaxResponseBytes > 0 {
		return c.MaxResponseBytes
	}
	return MaxFrameSize
}

// Handle executes one encoded request and returns the encoded response.
// It never fails: errors — including panics in statement execution —
// travel to the client as error frames. Batch frames execute every
// statement in order inside this single round trip and stop at the
// first error, so one bad statement cannot kill a connection serving a
// batch. The response leaves in the connection's negotiated encoding:
// columnar result frames and/or a whole-body deflate wrapper when the
// hello exchange enabled them.
func (c *ServerConn) Handle(reqBody []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finish(c.dispatch(reqBody))
}

// dispatch enforces the server's fence, unwraps fencing envelopes and
// routes the frame to its handler. It holds the fence's read lock until
// the frame has executed, so a fence flip waits for the frames admitted
// under the old state; nothing below may take that lock again. With no
// fence installed the envelope is still accepted (served as its inner
// frame), so a fenced client degrades gracefully against an unfenced
// server.
func (c *ServerConn) dispatch(reqBody []byte) []byte {
	var frameTerm uint64
	fenced := len(reqBody) > 0 && reqBody[0] == TypeFenced
	if fenced {
		var err error
		if frameTerm, reqBody, err = DecodeFenced(reqBody); err != nil {
			return EncodeResponse(&Response{Err: fmt.Sprintf("bad fenced frame: %v", err)})
		}
	}
	f := &c.server.fence
	f.mu.RLock()
	defer f.mu.RUnlock()
	g := fenceGuard{deposed: f.term != 0 && !f.primary, term: f.term, frameTerm: frameTerm}
	switch {
	case fenced && f.term != 0 && frameTerm != f.term:
		// A frame from another term: refuse. This is what cuts off a
		// site still pulling from a deposed primary after the cluster
		// moved on.
		return EncodeFencedResp(f.term, frameTerm, g.deposed)
	case g.deposed && !fenced && len(reqBody) > 0 && reqBody[0] == TypeSync:
		// Not the primary (split-brain protection): a replica answering
		// syncs would fork the replication topology. A same-term sync
		// passes — it only extracts, and the final catch-up pull of a
		// planned failover reads the freshly deposed primary at exactly
		// this point.
		return EncodeFencedResp(f.term, 0, true)
	}
	return c.dispatchFrame(reqBody, g)
}

// fenceGuard is the fence's state as one frame was admitted under it:
// at a server that is not the primary (deposed), a statement that is
// not minisql.ReadOnly is refused — reads pass, a replica's job is
// serving them — with the server's term and the frame's (0 for an
// unwrapped frame). A primary's guard, or an unfenced server's (term
// 0), refuses nothing.
type fenceGuard struct {
	deposed         bool
	term, frameTerm uint64
}

func (g fenceGuard) refuses(stmt ast.Statement) bool { return g.deposed && !minisql.ReadOnly(stmt) }

func (c *ServerConn) dispatchFrame(reqBody []byte, g fenceGuard) []byte {
	if len(reqBody) > 0 {
		switch reqBody[0] {
		case TypeBatch:
			return c.handleBatch(reqBody, g)
		case TypePrepare:
			return c.handlePrepare(reqBody)
		case TypeValidate:
			return c.handleValidate(reqBody)
		case TypeHello:
			return c.handleHello(reqBody)
		case TypeSync:
			return c.handleSync(reqBody)
		case TypeStatus:
			return c.handleStatus(reqBody, g)
		}
	}
	req, err := DecodeExec(reqBody)
	if err != nil {
		return EncodeResponse(&Response{Err: fmt.Sprintf("bad request: %v", err)})
	}
	stmt, fail := c.resolve(req)
	if fail != nil {
		return c.encodeResult(fail)
	}
	if g.refuses(stmt) {
		return EncodeFencedResp(g.term, g.frameTerm, true)
	}
	return c.encodeResult(c.execOne(stmt, req.Params))
}

// encodeResult serializes one statement response in the negotiated
// result encoding.
func (c *ServerConn) encodeResult(resp *Response) []byte {
	return EncodeResponseWith(resp, c.caps.Columnar)
}

// finish applies the connection's post-encoding response stages:
// deflate (when negotiated and the body clears the adaptive threshold)
// and the frame-size limit. The size check runs after compression —
// a body only the compressed form fits under the limit is fine to send.
func (c *ServerConn) finish(body []byte) []byte {
	if c.caps.Compress {
		if compressed := CompressBody(body, c.caps.CompressThreshold); !sameBuf(compressed, body) {
			// Compression produced a new frame; the uncompressed body is
			// dead and its buffer recycles.
			putFrame(body)
			body = compressed
		}
	}
	if limit := c.responseLimit(); len(body) > limit {
		putFrame(body)
		return EncodeResponse(&Response{
			Err: (&FrameTooLargeError{Size: len(body), Limit: limit}).Error(),
		})
	}
	return body
}

// handleHello negotiates connection capabilities: this server supports
// both columnar results and compression, so it accepts exactly what the
// client asks for and echoes the accepted set back.
func (c *ServerConn) handleHello(reqBody []byte) []byte {
	caps, err := DecodeHello(reqBody)
	if err != nil {
		return EncodeResponse(&Response{Err: fmt.Sprintf("bad hello: %v", err)})
	}
	if caps.CompressThreshold <= 0 {
		caps.CompressThreshold = DefaultCompressThreshold
	} else if caps.CompressThreshold > MaxFrameSize {
		// Beyond the frame-size limit means "never compress" — keep that
		// intent rather than silently reverting to the default.
		caps.CompressThreshold = MaxFrameSize
	}
	c.caps = caps
	return EncodeHelloResp(caps)
}

// handlePrepare pins the statement in the database's statement table
// and answers its handle. Parse errors surface at prepare time, not at
// execution, and the first execution is already a plan hit. A table at
// its budget refuses with ErrStatementTableFull.
func (c *ServerConn) handlePrepare(reqBody []byte) []byte {
	sql, err := DecodePrepare(reqBody)
	if err != nil {
		return EncodeResponse(&Response{Err: fmt.Sprintf("bad prepare: %v", err)})
	}
	h, err := c.session.Prepare(sql)
	if err != nil {
		return EncodeResponse(&Response{Err: err.Error()})
	}
	return EncodePrepareResp(h)
}

// handleValidate answers a stale-check exchange against the database's
// object version log: an id is stale when its object was modified
// after the epoch the client's cached entry carries. This is a pure
// version-map lookup — no SQL, no row data — so a warm client cache
// revalidates thousands of objects in one cheap round trip.
func (c *ServerConn) handleValidate(reqBody []byte) []byte {
	checks, err := DecodeValidate(reqBody)
	if err != nil {
		return EncodeResponse(&Response{Err: fmt.Sprintf("bad validate: %v", err)})
	}
	var stale []int64
	for _, chk := range checks {
		if c.server.db.LastModified(chk.ID) > chk.Since {
			stale = append(stale, chk.ID)
		}
	}
	return EncodeValidateResp(stale)
}

// handleSync answers a replica's delta pull: every row whose version
// key was modified after the requested epoch, plus the stamps that
// make the replica's version log a mirror of this database's. The
// extraction is an MVCC snapshot read — stamps and rows are resolved
// at one captured epoch — so it is consistent without blocking
// concurrent writers.
func (c *ServerConn) handleSync(reqBody []byte) []byte {
	since, site, err := DecodeSyncSite(reqBody)
	if err != nil {
		return EncodeResponse(&Response{Err: fmt.Sprintf("bad sync: %v", err)})
	}
	if sf := c.server.currentSyncFilter(site); sf != nil {
		d := c.server.db.ExtractDeltaFiltered(since, sf.Keep)
		d.Partial = true
		d.Holds = sf.Holds
		return EncodeSyncResp(d)
	}
	return EncodeSyncResp(c.server.db.ExtractDelta(since))
}

// handleStatus answers a health probe with the fencing state the frame
// was admitted under and the database epoch. An unfenced server reports
// term 0, primary true — exactly the single-server world before
// clusters.
func (c *ServerConn) handleStatus(reqBody []byte, g fenceGuard) []byte {
	if err := DecodeStatus(reqBody); err != nil {
		return EncodeResponse(&Response{Err: fmt.Sprintf("bad status: %v", err)})
	}
	return EncodeStatusResp(Status{Term: g.term, Primary: !g.deposed, Epoch: c.server.db.Epoch()})
}

// handleBatch executes a batch frame: per-statement results in order,
// stopping at the first failing statement (its error response is the
// last element of the batch response). Every statement is resolved, and
// checked against the fence, before any runs, so a batch holding a write
// is refused whole at a server that is not the primary.
func (c *ServerConn) handleBatch(reqBody []byte, g fenceGuard) []byte {
	reqs, err := DecodeBatch(reqBody)
	if err != nil {
		return EncodeResponse(&Response{Err: fmt.Sprintf("bad batch: %v", err)})
	}
	c.stmts = c.stmts[:0]
	var fail *Response // the first statement that did not resolve
	for _, req := range reqs {
		var stmt ast.Statement
		if stmt, fail = c.resolve(req); fail != nil {
			break
		}
		if g.refuses(stmt) {
			return EncodeFencedResp(g.term, g.frameTerm, true)
		}
		c.stmts = append(c.stmts, stmt)
	}
	resps := make([]*Response, 0, len(reqs))
	for i, stmt := range c.stmts {
		resp := c.execOne(stmt, reqs[i].Params)
		if resps = append(resps, resp); resp.Err != "" {
			return EncodeBatchResponseWith(resps, c.caps.Columnar)
		}
	}
	if fail != nil {
		resps = append(resps, fail)
	}
	return EncodeBatchResponseWith(resps, c.caps.Columnar)
}

// resolve returns the statement a request names — by handle from the
// database's statement table, or by text through it — or the error
// response of one it cannot.
func (c *ServerConn) resolve(req *Request) (stmt ast.Statement, fail *Response) {
	defer recovered(&fail)
	var err error
	if req.Prepared {
		stmt, err = c.session.Prepared(req.Handle)
	} else {
		stmt, err = c.session.Parse(req.SQL)
	}
	if err != nil {
		return nil, &Response{Err: err.Error()}
	}
	return stmt, nil
}

// execOne runs a resolved statement in the connection's session,
// converting execution errors into error responses.
func (c *ServerConn) execOne(stmt ast.Statement, params []minisql.Value) (resp *Response) {
	defer recovered(&resp)
	res, err := c.session.ExecStmt(stmt, params...)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	return &Response{Cols: res.Cols, Rows: res.Rows, RowsAffected: res.RowsAffected, Epoch: res.Epoch}
}

// recovered, deferred, turns a panic in the engine — the parser's or the
// executor's — into an error response.
func recovered(resp **Response) {
	if r := recover(); r != nil {
		*resp = &Response{Err: fmt.Sprintf("panic executing statement: %v", r)}
	}
}

// Serve runs a framed request/response loop over a stream until EOF,
// reading it through one buffer of streamBuf bytes.
func (c *ServerConn) Serve(stream io.ReadWriter) error {
	in := bufio.NewReaderSize(stream, streamBuf)
	for {
		body, err := ReadFrame(in)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		resp := c.Handle(body)
		// Dispatch copied everything it kept from the request, and the
		// response bytes are on the wire after WriteFrame: both frames
		// recycle, so a steady-state serve loop allocates no frame memory.
		putFrame(body)
		err = WriteFrame(stream, resp)
		putFrame(resp)
		if err != nil {
			return err
		}
	}
}
