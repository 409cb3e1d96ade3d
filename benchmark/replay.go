package main

import (
	"time"

	"pdmtune"
	"pdmtune/internal/core"
	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/parser"
	"pdmtune/internal/minisql/token"
	"pdmtune/internal/wire"
)

// Replay: after a traced pass, every captured exchange is pushed once
// more through the exported function of each stage the server (and the
// client's decoder) ran for it, one timed call per stage. That splits a
// handle span into decode / parse / execute / encode / compress without a
// single timer inside the program. Writes are not re-executed (that
// would change the database), so their handle time stays unapportioned
// and trace.replay_coverage says how much that is.

// stage accumulates the calls of one replayed stage.
type stage struct {
	ns    int64
	calls int // statements, frames or pulls, as the metric's unit says
	bytes int64
	rows  int
}

type replayStats struct {
	decodeRequest, parse, coldParse, tokenize, exec, encode, compress stage
	decodeResponse, assemble                                          stage
	planHits, planMisses                                              int64
	// compressedOrig/compressedLen total the captured responses that
	// arrived deflated.
	compressedOrig, compressedLen int64
	// writes are the exchanges that carried a write: their handle time
	// and statement count.
	writes stage
	// handleNs is the handle time of all recorded exchanges, serverNs the
	// part of it the replayed server stages account for.
	handleNs, serverNs int64
}

// replayer carries the replay's state across exchanges.
type replayer struct {
	inst  *instance
	lists [][]op
	caps  wire.Caps
	stats replayStats
	// sessions holds the benchmark's own engine session per database, so
	// replayed parses go through that database's plan cache.
	sessions map[string]*minisql.Session
	// prepared maps (connection, handle) to the statement behind it.
	prepared map[int]map[uint32]ast.Statement
	tokens   []token.Token
}

// timed runs one stage, records it as a replay span under the exchange's
// handle span and returns its duration.
func (r *replayer) timed(name string, parent int32, st *stage, calls int, fn func()) int64 {
	t := r.inst.tr
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	st.ns += int64(end - start)
	st.calls += calls
	p := t.spans[parent]
	t.add(span{Name: name, Start: int64(start), End: int64(end), Parent: parent, Client: p.Client, Action: p.Action})
	return int64(end - start)
}

func (r *replayer) session(target string) *minisql.Session {
	if s, ok := r.sessions[target]; ok {
		return s
	}
	db := r.inst.sys.DB
	if target == replicaSite {
		db = r.inst.site.DB()
	}
	s := db.NewSession()
	r.sessions[target] = s
	return s
}

// replay runs every captured exchange of the instance's tracer.
func (inst *instance) replay(lists [][]op) *replayStats {
	r := &replayer{
		inst: inst, lists: lists,
		sessions: map[string]*minisql.Session{},
		prepared: map[int]map[uint32]ast.Statement{},
	}
	if s := inst.clients[0].sess; s != nil {
		c := s.WireCaps()
		r.caps = wire.Caps{Columnar: c.ColumnarResults, Compress: c.Compression, CompressThreshold: c.CompressThreshold}
	}
	// The exchanges are fixed by now; replay spans are appended behind
	// the recorded ones, whose indices stay valid.
	for _, ex := range inst.tr.exchanges {
		r.exchange(ex)
	}
	for _, s := range r.sessions {
		st := s.TakeContention()
		r.stats.planHits += st.PlanHits
		r.stats.planMisses += st.PlanMisses
	}
	return &r.stats
}

func (r *replayer) exchange(ex exchange) {
	t := r.inst.tr
	target := t.connTarget[ex.Conn]
	sess := r.session(target)
	req := wire.FencedInner(ex.Req)
	if len(req) == 0 {
		return
	}
	if req[0] == wire.TypePrepare {
		r.prepare(ex, req, sess)
		return
	}
	if ex.Handle < 0 {
		return
	}
	st := &r.stats
	handleNs := t.spans[ex.Handle].dur()
	st.handleNs += handleNs

	// Server side, stage 1: decode the request frame.
	batch := req[0] == wire.TypeBatch
	if !batch && req[0] != wire.TypeExecPrepared && req[0] != wire.TypeRequest {
		return // validate, hello, sync, close, status: no statement stages
	}
	var reqs []*wire.Request
	var err error
	st.serverNs += r.timed("replay.decode_request", ex.Handle, &st.decodeRequest, 0, func() {
		if batch {
			reqs, err = wire.DecodeBatch(req)
			return
		}
		var one *wire.Request
		one, err = wire.DecodeExec(req) // DecodeExecPrepared or DecodeRequest, by tag
		reqs = []*wire.Request{one}
	})
	if err != nil {
		return
	}
	st.decodeRequest.calls += len(reqs)

	// Stage 2: the statement behind each request — through the plan cache
	// for SQL text (as Session.Exec does), from the handle registry for
	// prepared executions (as the server does).
	stmts := make([]ast.Statement, len(reqs))
	readOnly := true
	for i, rq := range reqs {
		if rq.Prepared {
			stmts[i] = r.prepared[ex.Conn][rq.Handle]
		} else {
			sql := rq.SQL
			st.serverNs += r.timed("replay.parse", ex.Handle, &st.parse, 1, func() { stmts[i], _ = sess.Parse(sql) })
			r.timed("replay.parser_cold", ex.Handle, &st.coldParse, 1, func() { _, _ = parser.Parse(sql) })
			r.timed("replay.tokenize", ex.Handle, &st.tokenize, 1, func() { r.tokens, _ = token.Tokenize(sql, r.tokens[:0]) })
			st.tokenize.bytes += int64(len(sql))
		}
		if stmts[i] == nil {
			return // a handle prepared before capture started, or a parse error
		}
		if _, ok := stmts[i].(*ast.Select); !ok {
			readOnly = false
		}
	}

	// The client's side of the exchange: inflate and decode the response.
	var decoded []*wire.Response
	r.timed("replay.decode_response", ex.Handle, &st.decodeResponse, 1, func() {
		plain, err := wire.MaybeDecompress(ex.Resp)
		if err != nil {
			return
		}
		if batch {
			decoded, _ = wire.DecodeBatchResponse(plain)
		} else if one, err := wire.DecodeResponse(plain); err == nil {
			decoded = []*wire.Response{one}
		}
	})
	if orig, ok := wire.CompressedOriginalSize(ex.Resp); ok {
		st.compressedOrig += int64(orig)
		st.compressedLen += int64(len(ex.Resp))
	}

	if !readOnly {
		st.writes.ns += handleNs
		st.writes.calls += len(reqs)
		return
	}

	// Stage 3: execute. Stage 4: encode the result in the negotiated
	// encoding. Stage 5: deflate it when negotiated.
	resps := make([]*wire.Response, len(reqs))
	for i, rq := range reqs {
		stmt, params := stmts[i], rq.Params
		st.serverNs += r.timed("replay.exec", ex.Handle, &st.exec, 1, func() {
			res, err := sess.ExecStmt(stmt, params...)
			if err != nil {
				resps[i] = &wire.Response{Err: err.Error()}
				return
			}
			resps[i] = &wire.Response{Cols: res.Cols, Rows: res.Rows, RowsAffected: res.RowsAffected}
			st.exec.rows += len(res.Rows)
		})
	}
	var body []byte
	st.serverNs += r.timed("replay.encode_response", ex.Handle, &st.encode, 1, func() {
		if batch {
			body = wire.EncodeBatchResponseWith(resps, r.caps.Columnar)
		} else {
			body = wire.EncodeResponseWith(resps[0], r.caps.Columnar)
		}
	})
	st.encode.bytes += int64(len(body))
	if r.caps.Compress {
		st.serverNs += r.timed("replay.compress", ex.Handle, &st.compress, 1, func() {
			wire.CompressBody(body, r.caps.CompressThreshold)
		})
	}

	// The client's tree assembly, for a recursive multi-level expand.
	sp := t.spans[ex.Handle]
	if sp.Action >= 0 && !batch && len(decoded) == 1 {
		if o := r.lists[sp.Client][sp.Action]; o.Kind == opMLE && r.inst.clients[sp.Client].sess.Client().Strategy() == pdmtune.Recursive {
			rows := decoded[0].Rows
			r.timed("replay.assemble", ex.Handle, &st.assemble, 0, func() {
				if tree, err := core.AssembleRecursive(o.Target, rows); err == nil {
					st.assemble.calls += len(tree.Index)
				}
			})
		}
	}
}

// prepare registers the statement behind a prepared handle, parsed
// through the plan cache like ServerConn does.
func (r *replayer) prepare(ex exchange, req []byte, sess *minisql.Session) {
	sql, err := wire.DecodePrepare(req)
	if err != nil {
		return
	}
	plain, err := wire.MaybeDecompress(ex.Resp)
	if err != nil {
		return
	}
	h, err := wire.DecodePrepareResp(plain)
	if err != nil {
		return
	}
	stmt, err := sess.Parse(sql)
	if err != nil {
		return
	}
	if r.prepared[ex.Conn] == nil {
		r.prepared[ex.Conn] = map[uint32]ast.Statement{}
	}
	r.prepared[ex.Conn][h] = stmt
}
