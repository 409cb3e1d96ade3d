package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"

	"pdmtune/internal/minisql"
)

// Server fronts a minisql database with the wire protocol. One Server
// serves many connections; each connection owns a database session (and
// thus its own transaction state). Prepared statements belong to the
// server, not to a connection: see stmtTable.
type Server struct {
	db    *minisql.DB
	stmts stmtTable

	// fence is the server's cluster fencing state (nil for a server
	// outside any fenced cluster — the fence-free fast path behaves
	// byte for byte as before). The pointer is set once at cluster
	// creation; the Fence's own lock covers later term flips.
	fenceMu sync.RWMutex
	fence   *Fence

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

// SetFence installs (or clears) the server's fencing state. The
// cluster control plane shares the Fence with the server and flips its
// contents at promotion time.
func (s *Server) SetFence(f *Fence) {
	s.fenceMu.Lock()
	defer s.fenceMu.Unlock()
	s.fence = f
}

// CurrentFence returns the server's fencing state (nil when unfenced).
func (s *Server) CurrentFence() *Fence {
	s.fenceMu.RLock()
	defer s.fenceMu.RUnlock()
	return s.fence
}

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

// stmtTableBytes bounds the SQL text one server's statement table pins:
// the same 256 KiB the engine's plan cache holds. The PDM clients'
// parameterized statement shapes total under 30 KiB, so only a prepare
// flood reaches it.
const stmtTableBytes = 256 << 10

// ErrStatementTableFull is the refusal of a prepare that would take the
// server's statement table past its budget. It crosses the wire as an
// error frame; the client matches it with errors.Is and ships that
// statement as text from then on.
var ErrStatementTableFull = errors.New("wire: statement table full")

// stmtTable is a server's one registry of prepared statements: SQL
// text to handle and back, de-duplicated by text, so a handle means the
// same statement on every connection of the server. Entries are pinned
// for the server's life; the byte budget is what bounds them.
type stmtTable struct {
	mu      sync.RWMutex
	handles map[string]uint32 // SQL text → handle
	texts   []string          // texts[h-1] is the text of handle h
	bytes   int               // sum of len over texts
}

// register returns the handle of sql, assigning the next one on first
// sight.
func (t *stmtTable) register(sql string) (uint32, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.handles[sql]; ok {
		return h, nil
	}
	if t.bytes+len(sql) > stmtTableBytes {
		return 0, ErrStatementTableFull
	}
	if t.handles == nil {
		t.handles = map[string]uint32{}
	}
	t.texts = append(t.texts, sql)
	t.bytes += len(sql)
	h := uint32(len(t.texts))
	t.handles[sql] = h
	return h, nil
}

// text resolves a handle to its SQL text.
func (t *stmtTable) text(h uint32) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if h == 0 || uint64(h) > uint64(len(t.texts)) {
		return "", false
	}
	return t.texts[h-1], true
}

// NewConn opens a server-side connection with a fresh session.
func (s *Server) NewConn() *ServerConn {
	return &ServerConn{server: s, session: s.db.NewSession()}
}

// ServerConn is the server side of one client connection. It holds no
// statement state: prepared handles resolve through the server's table.
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
// routes the frame to its handler. With no fence installed the
// envelope is still accepted (served as its inner frame), so a fenced
// client degrades gracefully against an unfenced server.
func (c *ServerConn) dispatch(reqBody []byte) []byte {
	if f := c.server.CurrentFence(); f != nil {
		term, primary := f.State()
		if len(reqBody) > 0 && reqBody[0] == TypeFenced {
			frameTerm, inner, err := DecodeFenced(reqBody)
			if err != nil {
				return EncodeResponse(&Response{Err: fmt.Sprintf("bad fenced frame: %v", err)})
			}
			if frameTerm != term {
				// A frame from another term: refuse. This is what cuts
				// off a site still pulling from a deposed primary after
				// the cluster moved on.
				return EncodeFencedResp(term, frameTerm, !primary)
			}
			if !primary && len(inner) > 0 && inner[0] != TypeSync && c.isWriteFrame(inner) {
				// Same term but this server is not the primary: writes
				// are refused (split-brain protection). Syncs at the
				// matching term pass — they only extract, and the final
				// catch-up pull of a planned failover reads the freshly
				// deposed primary at exactly this point.
				return EncodeFencedResp(term, frameTerm, true)
			}
			return c.dispatchFrame(inner)
		}
		// An unwrapped frame: a non-primary refuses writes and syncs
		// (split-brain protection for legacy/unfenced writers too);
		// reads always pass — a replica's job is serving them.
		if !primary && c.isWriteFrame(reqBody) {
			return EncodeFencedResp(term, 0, true)
		}
		return c.dispatchFrame(reqBody)
	}
	if len(reqBody) > 0 && reqBody[0] == TypeFenced {
		_, inner, err := DecodeFenced(reqBody)
		if err != nil {
			return EncodeResponse(&Response{Err: fmt.Sprintf("bad fenced frame: %v", err)})
		}
		return c.dispatchFrame(inner)
	}
	return c.dispatchFrame(reqBody)
}

func (c *ServerConn) dispatchFrame(reqBody []byte) []byte {
	if len(reqBody) > 0 {
		switch reqBody[0] {
		case TypeBatch:
			return c.handleBatch(reqBody)
		case TypePrepare:
			return c.handlePrepare(reqBody)
		case TypeExecPrepared:
			req, err := DecodeExecPrepared(reqBody)
			if err != nil {
				return EncodeResponse(&Response{Err: fmt.Sprintf("bad request: %v", err)})
			}
			return c.encodeResult(c.execOne(req))
		case TypeValidate:
			return c.handleValidate(reqBody)
		case TypeHello:
			return c.handleHello(reqBody)
		case TypeSync:
			return c.handleSync(reqBody)
		case TypeStatus:
			return c.handleStatus(reqBody)
		}
	}
	req, err := DecodeRequest(reqBody)
	if err != nil {
		return EncodeResponse(&Response{Err: fmt.Sprintf("bad request: %v", err)})
	}
	return c.encodeResult(c.execOne(req))
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

// handlePrepare registers the statement in the server's table and
// answers its handle. Parse errors surface at prepare time, not at
// execution; the parse goes through the plan cache, so the first
// execution is already a hit. A table at its budget refuses with
// ErrStatementTableFull.
func (c *ServerConn) handlePrepare(reqBody []byte) []byte {
	sql, err := DecodePrepare(reqBody)
	if err != nil {
		return EncodeResponse(&Response{Err: fmt.Sprintf("bad prepare: %v", err)})
	}
	if _, err := c.session.Parse(sql); err != nil {
		return EncodeResponse(&Response{Err: err.Error()})
	}
	h, err := c.server.stmts.register(sql)
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

// handleStatus answers a health probe with the server's fencing state
// and database epoch. An unfenced server reports term 0, primary true
// — exactly the single-server world before clusters.
func (c *ServerConn) handleStatus(reqBody []byte) []byte {
	if err := DecodeStatus(reqBody); err != nil {
		return EncodeResponse(&Response{Err: fmt.Sprintf("bad status: %v", err)})
	}
	st := Status{Primary: true, Epoch: c.server.db.Epoch()}
	if f := c.server.CurrentFence(); f != nil {
		st.Term, st.Primary = f.State()
	}
	return EncodeStatusResp(st)
}

// handleBatch executes a batch frame: per-statement results in order,
// stopping at the first failing statement (its error response is the
// last element of the batch response).
func (c *ServerConn) handleBatch(reqBody []byte) []byte {
	reqs, err := DecodeBatch(reqBody)
	if err != nil {
		return EncodeResponse(&Response{Err: fmt.Sprintf("bad batch: %v", err)})
	}
	resps := make([]*Response, 0, len(reqs))
	for _, req := range reqs {
		resp := c.execOne(req)
		resps = append(resps, resp)
		if resp.Err != "" {
			break
		}
	}
	return EncodeBatchResponseWith(resps, c.caps.Columnar)
}

// execOne runs a single statement in the connection's session,
// converting execution errors (and panics) into error responses. A
// prepared handle is resolved to its SQL text and then takes the path a
// text frame takes, plan-cache hit included.
func (c *ServerConn) execOne(req *Request) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			resp = &Response{Err: fmt.Sprintf("panic executing statement: %v", r)}
		}
	}()
	// The epoch is captured before execution: any mutation committed
	// after this point has a later LastModified stamp, so a cache entry
	// stamped with this epoch can only err on the side of staleness.
	epoch := c.server.db.Epoch()
	sql := req.SQL
	if req.Prepared {
		var ok bool
		if sql, ok = c.server.stmts.text(req.Handle); !ok {
			return &Response{Err: fmt.Sprintf("no prepared statement with handle %d", req.Handle)}
		}
	}
	res, err := c.session.Exec(sql, req.Params...)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	return &Response{Cols: res.Cols, Rows: res.Rows, RowsAffected: res.RowsAffected, Epoch: epoch}
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
