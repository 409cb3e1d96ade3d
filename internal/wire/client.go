package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/netsim"
)

// frameOverhead is the per-frame length prefix charged on the wire.
const frameOverhead = 4

// Transport carries one encoded request and returns the encoded
// response — the client's only view of the network. Implementations
// must honor the context: a cancelled or expired ctx aborts the round
// trip with ctx.Err() and charges nothing, so a multi-minute simulated
// expand (or a real TCP call) can be cut short between round trips.
type Transport interface {
	RoundTrip(ctx context.Context, request []byte) (response []byte, err error)
}

// Client issues SQL over one transport for its whole life: following a
// new server takes a new client (Redial). A Request marked Prepared
// names its statement by SQL text and the client resolves it to the
// handle of the server its transport reaches (see bind).
type Client struct {
	// term stamps write and sync frames with the cluster fencing term
	// (nil/ok=false: no envelope — the site-less wire format is
	// byte-identical to the pre-failover protocol).
	term TermSource
	// retry transparently retries idempotent exchanges on connection
	// loss (nil: no retries).
	retry *RetryPolicy
	tr    Transport

	// mu guards the handle registry and the capabilities (a client is
	// normally single-goroutine, but site pull clients are shared by
	// every session syncing through the site).
	mu sync.Mutex
	// handles is the prepared-statement registry: SQL text → server
	// handle, or textOnly for a statement the server's table refused. A
	// handle means something only at the server that issued it, so a
	// redialed client starts without one.
	handles map[string]uint32
	// want is the capability set the client last negotiated, caps the
	// set the server accepted and helloed whether the hello went out on
	// this client's transport. A redialed client inherits want and caps
	// but has not said hello, so its first round trip re-requests want
	// (see roundTrip).
	want, caps Caps
	helloed    bool
}

// textOnly is the registry entry of a statement the server refused to
// prepare (ErrStatementTableFull): it ships as text. Server handles
// start at 1.
const textOnly = 0

// NewClient wraps a transport.
func NewClient(tr Transport) *Client { return &Client{tr: tr} }

// SetTermSource makes the client stamp its write and sync frames with
// the cluster fencing term the source reports. Reads stay unwrapped.
func (c *Client) SetTermSource(ts TermSource) { c.term = ts }

// SetRetry installs a retry policy for idempotent exchanges (nil
// disables retries). Call before the client is in use.
func (c *Client) SetRetry(p *RetryPolicy) { c.retry = p }

// Redial returns a client over tr with this client's term source,
// retry policy and capabilities — a session at a deposed primary
// follows the new one this way. Caps reports the accepted set until the
// new server answers the hello the redialed client sends on its first
// round trip. Prepared handles stay behind: they name statements of
// this client's server only.
func (c *Client) Redial(tr Transport) *Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &Client{term: c.term, retry: c.retry, tr: tr, want: c.want, caps: c.caps}
}

// Exec ships one statement as text and decodes the server's answer.
// Server-side SQL errors come back as *ServerError.
func (c *Client) Exec(ctx context.Context, sql string, params ...types.Value) (*Response, error) {
	return c.Do(ctx, &Request{SQL: sql, Params: params})
}

// roundTrip ships one encoded request and returns the response body
// with any negotiated deflate wrapper already removed — decompression
// happens after the transport (and its meter) saw the compressed size,
// so the charged volume is the post-compression one.
//
// idempotent marks exchanges that are safe to re-send after a
// connection loss (reads, validates, syncs, prepares, handshakes);
// with a retry policy installed those are retried with capped backoff.
// Transport failures surface as *ConnClosedError, fence refusals as
// *FencedError.
func (c *Client) roundTrip(ctx context.Context, body []byte, idempotent bool) ([]byte, error) {
	if err := CheckFrameSize(body); err != nil {
		putFrame(body)
		return nil, err
	}
	c.mu.Lock()
	want, rehello := c.want, c.want != (Caps{}) && !c.helloed && body[0] != TypeHello
	c.mu.Unlock()
	if rehello {
		if _, err := c.Negotiate(ctx, want); err != nil {
			putFrame(body)
			return nil, err
		}
	}
	respBody, err := c.send(ctx, body, idempotent)
	// The request frame is dead once the round trip returns: every
	// transport in this package hands it off synchronously (in-process
	// dispatch copies what it keeps; streams write it out).
	putFrame(body)
	if err != nil {
		return nil, err
	}
	plain, err := MaybeDecompress(respBody)
	if err != nil {
		return nil, err
	}
	if !sameBuf(plain, respBody) {
		// Inflation produced a new body; the compressed envelope recycles.
		putFrame(respBody)
	}
	if len(plain) > 0 && plain[0] == TypeFencedResp {
		fe, err := DecodeFencedResp(plain)
		putFrame(plain)
		if err != nil {
			return nil, err
		}
		return nil, fe
	}
	return plain, nil
}

// call is roundTrip for the exchanges whose failure answer is a plain
// error frame (a server that could not decode or serve the request at
// all). On success the caller owns the body and recycles it with
// putFrame.
func (c *Client) call(ctx context.Context, body []byte, idempotent bool) ([]byte, error) {
	respBody, err := c.roundTrip(ctx, body, idempotent)
	if err != nil {
		return nil, err
	}
	return errorFrame(respBody)
}

// errorFrame passes a response body through unless it is a plain error
// frame: that frame's diagnostic comes back as *ServerError instead of
// a frame-type mismatch in the caller's decoder.
func errorFrame(respBody []byte) ([]byte, error) {
	if len(respBody) == 0 || respBody[0] != TypeError {
		return respBody, nil
	}
	defer putFrame(respBody)
	resp, err := DecodeResponse(respBody)
	if err != nil {
		return nil, err
	}
	return nil, &ServerError{Msg: resp.Err}
}

// send performs the transport round trip, wraps raw transport failures
// in *ConnClosedError, and — for idempotent exchanges under a retry
// policy — re-sends on connection loss with capped backoff.
func (c *Client) send(ctx context.Context, body []byte, idempotent bool) ([]byte, error) {
	try := func() ([]byte, error) {
		respBody, err := c.tr.RoundTrip(ctx, body)
		return respBody, wrapTransportErr(ctx, err)
	}
	respBody, err := try()
	if err == nil || !idempotent || c.retry == nil || !isConnClosed(err) {
		return respBody, err
	}
	p := c.retry
	for attempt := 1; attempt < maxAttempts; attempt++ {
		p.count(netsim.Metrics{Retries: 1})
		p.sleep(p.backoff(attempt))
		if ctx != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
		}
		respBody, err = try()
		if err == nil || !isConnClosed(err) {
			return respBody, err
		}
	}
	p.count(netsim.Metrics{RetryGiveUps: 1})
	return nil, err
}

// wrapTransportErr normalizes a transport failure: context
// cancellations and structured wire errors pass through, anything else
// — a dead stream, an injected fault — becomes *ConnClosedError so
// callers can errors.As on one type.
func wrapTransportErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if ctx != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
	}
	var (
		cce *ConnClosedError
		fte *FrameTooLargeError
	)
	if errors.As(err, &cce) || errors.As(err, &fte) {
		return err
	}
	return &ConnClosedError{Err: err}
}

func isConnClosed(err error) bool {
	var cce *ConnClosedError
	return errors.As(err, &cce)
}

// fenceWrite wraps an encoded frame in the fencing-term envelope when
// the client has a term source and the frame is a write (or sync).
func (c *Client) fenceWrite(body []byte) []byte {
	if c.term == nil {
		return body
	}
	term, ok := c.term()
	if !ok {
		return body
	}
	return EncodeFenced(term, body)
}

// Negotiate performs the session-open capability handshake: the wanted
// capabilities travel up, the server's accepted set comes back. A
// server that predates the hello frame answers with an error frame;
// that degrades gracefully to the zero capability set (v1 results,
// no compression) instead of failing the session. A client redialed
// from this one keeps asking for want.
func (c *Client) Negotiate(ctx context.Context, want Caps) (Caps, error) {
	respBody, err := c.roundTrip(ctx, EncodeHello(want), true)
	if err != nil {
		return Caps{}, err
	}
	// Decoding copies every string and value it keeps, so the response
	// body recycles once this call returns.
	defer putFrame(respBody)
	var caps Caps
	if len(respBody) == 0 || respBody[0] != TypeError {
		if caps, err = DecodeHelloResp(respBody); err != nil {
			return Caps{}, err
		}
	}
	c.mu.Lock()
	c.want, c.caps, c.helloed = want, caps, true
	c.mu.Unlock()
	return caps, nil
}

// Caps reports the capability set the server accepted at the client's
// last hello (the zero set before one).
func (c *Client) Caps() Caps {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.caps
}

// Do ships one request — text, or a prepared execution when the
// request is marked Prepared — and decodes the server's answer.
func (c *Client) Do(ctx context.Context, req *Request) (*Response, error) {
	respBody, err := c.exchange(ctx, []*Request{req}, false)
	if err != nil {
		return nil, err
	}
	defer putFrame(respBody)
	resp, err := DecodeResponse(respBody)
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, &ServerError{Msg: resp.Err}
	}
	return resp, nil
}

// exchange ships the requests of one round trip — a single statement,
// or a batch frame — with every Prepared request bound to the server's
// handles. Writes carry the fencing envelope and are never retried;
// pure reads are.
func (c *Client) exchange(ctx context.Context, reqs []*Request, batch bool) ([]byte, error) {
	readOnly := true
	for _, req := range reqs {
		// A raw handle without text classifies as a write, the safe
		// direction.
		if !ReadOnlySQL(req.SQL) {
			readOnly = false
			break
		}
	}
	if err := c.bind(ctx, reqs); err != nil {
		return nil, err
	}
	var body []byte
	if batch {
		body = EncodeBatch(reqs)
	} else {
		body = EncodeExec(reqs[0])
	}
	if !readOnly {
		body = c.fenceWrite(body)
	}
	return c.roundTrip(ctx, body, readOnly)
}

// bind resolves every Prepared request that names its statement by SQL
// text to the server's handle, preparing on first use (one extra round
// trip per text). A statement the server's table refused loses its
// Prepared mark and ships as text. A Prepared request without text
// carries a caller-supplied handle and is shipped as is.
func (c *Client) bind(ctx context.Context, reqs []*Request) error {
	for _, req := range reqs {
		if !req.Prepared || req.SQL == "" {
			continue
		}
		c.mu.Lock()
		h, ok := c.handles[req.SQL]
		c.mu.Unlock()
		if !ok {
			var err error
			if h, err = c.prepare(ctx, req.SQL); err != nil {
				return err
			}
		}
		req.Handle, req.Prepared = h, h != textOnly
	}
	return nil
}

// prepare ships a statement's SQL text once and records the server's
// handle — or, when the server's statement table is full, textOnly — in
// the registry.
func (c *Client) prepare(ctx context.Context, sql string) (uint32, error) {
	var h uint32
	respBody, err := c.call(ctx, EncodePrepare(sql), true)
	switch {
	case errors.Is(err, ErrStatementTableFull):
		h = textOnly
	case err != nil:
		return 0, err
	default:
		h, err = DecodePrepareResp(respBody)
		putFrame(respBody)
		if err != nil {
			return 0, err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.handles == nil {
		c.handles = map[string]uint32{}
	}
	c.handles[sql] = h
	return h, nil
}

// Validate ships one stale-check exchange: (id, since-epoch) pairs up,
// the stale subset of the ids back. A client-side structure cache uses
// it to revalidate a whole cached tree in one small round trip instead
// of re-fetching the node records.
func (c *Client) Validate(ctx context.Context, checks []StaleCheck) ([]int64, error) {
	if len(checks) == 0 {
		return nil, nil
	}
	respBody, err := c.call(ctx, EncodeValidate(checks), true)
	if err != nil {
		return nil, err
	}
	defer putFrame(respBody)
	return DecodeValidateResp(respBody)
}

// SyncFrom pulls the replication delta above the given epoch: the
// primary answers with every row modified after it (full rows keyed by
// version key) plus the version stamps the replica's log needs to
// mirror the primary's. One round trip regardless of delta size. A
// primary with a subscription filter for the named site answers a
// partial, subscription-bounded delta (Delta.Partial) instead of the
// full one; an empty site — or a server without a filter — pulls the
// full delta.
func (c *Client) SyncFrom(ctx context.Context, since uint64, site string) (*storage.Delta, error) {
	// A sync is fenced like a write — only the current primary may
	// serve it — but re-pulling a delta is idempotent, so it retries.
	respBody, err := c.call(ctx, c.fenceWrite(EncodeSyncFrom(since, site)), true)
	if err != nil {
		return nil, err
	}
	defer putFrame(respBody)
	return DecodeSyncResp(respBody)
}

// ExecBatch ships N statements in one round trip and returns one
// response per executed statement. Requests may mix SQL text and
// prepared executions (bound to handles as in Do). The server executes
// in order and stops at the first failing statement; in that case the
// responses of the statements that did execute are returned together
// with a *BatchError naming the failed index. An empty batch is a no-op
// that costs nothing.
func (c *Client) ExecBatch(ctx context.Context, reqs []*Request) ([]*Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	respBody, err := c.exchange(ctx, reqs, true)
	if err == nil {
		respBody, err = errorFrame(respBody)
	}
	if err != nil {
		return nil, err
	}
	defer putFrame(respBody)
	resps, err := DecodeBatchResponse(respBody)
	if err != nil {
		return nil, err
	}
	if n := len(resps); n > 0 && resps[n-1].Err != "" {
		return resps[:n-1], &BatchError{Index: n - 1, Msg: resps[n-1].Err}
	}
	return resps, nil
}

// Status performs one health-probe exchange: the server answers with
// its fencing term, role and database epoch. The probe is idempotent
// and retried like any read.
func (c *Client) Status(ctx context.Context) (Status, error) {
	respBody, err := c.call(ctx, EncodeStatus(), true)
	if err != nil {
		return Status{}, err
	}
	defer putFrame(respBody)
	return DecodeStatusResp(respBody)
}

// ServerError is an SQL error reported by the server.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "server: " + e.Msg }

// Is matches the one refusal that crosses the wire as a plain error
// frame and that clients must recognise: ErrStatementTableFull.
func (e *ServerError) Is(target error) bool {
	return target == ErrStatementTableFull && e.Msg == ErrStatementTableFull.Error()
}

// BatchError is an SQL error that stopped a batch: statement Index
// failed, statements before it executed, statements after it never ran.
type BatchError struct {
	Index int
	Msg   string
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("server: batch statement %d: %s", e.Index, e.Msg)
}

// ---------------------------------------------------------------------------
// transport implementations

// frameAccountant charges completed exchanges — with the server
// contention they drained — to a meter in one Charge, and learns the
// SQL text length behind each prepared handle from the prepare
// exchanges it sees go by — metering needs no cooperation from the
// client. It is shared by every metered transport so the accounting
// cannot diverge between the simulation and real wrappers.
type frameAccountant struct {
	meter  *netsim.Meter
	sqlLen map[uint32]int
}

func (fa *frameAccountant) account(request, response []byte, st minisql.ContentionStats) {
	if fa.meter != nil {
		extra := netsim.Metrics{
			LockWaitNanos:    st.LockWaitNanos,
			SnapshotsStarted: st.SnapshotsStarted,
			WriteConflicts:   st.WriteConflicts,
			PlanHits:         st.PlanHits,
			PlanMisses:       st.PlanMisses,
		}
		// Classification looks through the fencing envelope — a fenced
		// batch is still a batch — while the charged lengths stay the
		// full on-wire frame, envelope included.
		inner := FencedInner(request)
		switch {
		case len(inner) > 0 && inner[0] == TypeValidate:
			// A validate exchange is a round trip but not a statement:
			// it is the cache's revalidation cost, accounted apart.
			extra.ValidateRoundTrips = 1
		case len(inner) > 0 && inner[0] == TypeSync:
			// A replication pull: one round trip, no statements — the
			// delta volume is the replication cost the site meter reports.
			extra.SyncRoundTrips = 1
		case len(inner) > 0 && (inner[0] == TypeHello || inner[0] == TypeStatus):
			// The capability handshake and health probes are round trips
			// carrying zero statements.
		default:
			stats := ScanFrame(inner, fa.sqlLen)
			extra.Statements = stats.Statements
			extra.PreparedExecs = stats.PreparedExecs
			extra.SavedRequestBytes = stats.SavedRequestBytes
		}
		// The response arrives (and is charged) post-compression; the
		// recorded original size is what the deflate wrapper saved.
		if orig, ok := CompressedOriginalSize(response); ok {
			extra.CompressedFrames = 1
			extra.ResponseBytesSaved = float64(orig - len(response))
		}
		fa.meter.Charge(len(request)+frameOverhead, len(response)+frameOverhead, extra)
	}
	if len(request) > 0 && request[0] == TypePrepare {
		if resp, err := MaybeDecompress(response); err == nil {
			if !sameBuf(resp, response) {
				defer putFrame(resp)
			}
			if sql, err := DecodePrepare(request); err == nil {
				if h, err := DecodePrepareResp(resp); err == nil {
					if fa.sqlLen == nil {
						fa.sqlLen = map[uint32]int{}
					}
					fa.sqlLen[h] = len(sql)
				}
			}
		}
	}
}

// ContentionSource is the optional side interface of transports and
// connections that can report server-side contention (engine lock
// waits, snapshots opened, write conflicts). Metered wrappers drain it
// after every round trip into the meter, which is how contention
// becomes part of a session's netsim metrics.
type ContentionSource interface {
	TakeContention() minisql.ContentionStats
}

// MeteredChannel executes requests against an in-process server
// connection while charging every round trip to a WAN meter — the
// deterministic simulation path used by all experiments.
type MeteredChannel struct {
	Conn  *ServerConn
	Meter *netsim.Meter

	fa frameAccountant
}

// RoundTrip dispatches in-process and charges request/response sizes
// (payload plus length prefix) to the meter. Batch frames are charged as
// one round trip carrying many statements; prepared executions are
// additionally credited with the SQL text bytes they did not re-ship.
// A cancelled context aborts before dispatch: only round trips that
// actually happened are charged.
func (mc *MeteredChannel) RoundTrip(ctx context.Context, request []byte) ([]byte, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	response := mc.Conn.Handle(request)
	mc.fa.meter = mc.Meter
	mc.fa.account(request, response, mc.Conn.TakeContention())
	return response, nil
}

// StreamChannel speaks the framed protocol over a real stream (TCP or
// net.Pipe), for the interactive demo binaries. It reads Stream through
// one buffer of streamBuf bytes, made by its first round trip.
type StreamChannel struct {
	Stream io.ReadWriter

	in       *bufio.Reader
	deadline time.Time // the deadline last set on Stream
	// broken is the send or receive failure that retired the stream: it
	// may still hold a late response or part of a frame, which a later
	// exchange would read as its own.
	broken error
}

// RoundTrip writes one frame and reads one frame. A context deadline is
// forwarded to the stream when it supports one (net.Conn does) — and
// cleared again when the context carries none, so a deadline armed by
// an earlier call cannot leak into later exchanges; an unchanged one is
// not set again. A context cancelled or expired during the exchange
// surfaces as ctx.Err(). After a failed send or receive every later
// round trip returns *ConnClosedError without touching the stream.
func (sc *StreamChannel) RoundTrip(ctx context.Context, request []byte) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sc.broken != nil {
		return nil, &ConnClosedError{Err: sc.broken}
	}
	if d, ok := sc.Stream.(interface{ SetDeadline(time.Time) error }); ok {
		deadline, _ := ctx.Deadline() // zero time when none: clears any previous deadline
		if !deadline.Equal(sc.deadline) {
			if err := d.SetDeadline(deadline); err != nil {
				return nil, fmt.Errorf("wire: set deadline: %w", err)
			}
			sc.deadline = deadline
		}
	}
	if sc.in == nil {
		sc.in = bufio.NewReaderSize(sc.Stream, streamBuf)
	}
	if err := WriteFrame(sc.Stream, request); err != nil {
		return nil, sc.fail(ctx, "send", err)
	}
	body, err := ReadFrame(sc.in)
	if err != nil {
		return nil, sc.fail(ctx, "receive", err)
	}
	return body, nil
}

// fail retires the stream after a failed send or receive and reports
// the failure, as ctx.Err() once the context has ended. The stream's
// deadline is the context's, but its timeout can fire a moment before
// the context's own timer.
func (sc *StreamChannel) fail(ctx context.Context, op string, err error) error {
	sc.broken = fmt.Errorf("wire: %s: %w", op, err)
	if _, ok := ctx.Deadline(); ok && errors.Is(err, os.ErrDeadlineExceeded) {
		<-ctx.Done()
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return sc.broken
}

// Metered wraps any transport so its exchanges are charged to a WAN
// meter — e.g. to account real TCP round trips with the same Metrics
// the simulation produces.
func Metered(inner Transport, meter *netsim.Meter) Transport {
	return &meteredTransport{inner: inner, fa: frameAccountant{meter: meter}}
}

type meteredTransport struct {
	inner Transport
	fa    frameAccountant
}

func (m *meteredTransport) RoundTrip(ctx context.Context, request []byte) ([]byte, error) {
	response, err := m.inner.RoundTrip(ctx, request)
	if err != nil {
		return nil, err
	}
	var st minisql.ContentionStats
	if cs, ok := m.inner.(ContentionSource); ok {
		st = cs.TakeContention()
	}
	m.fa.account(request, response, st)
	return response, nil
}
