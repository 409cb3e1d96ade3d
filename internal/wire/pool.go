package wire

import (
	"context"
	"sync"
	"time"

	"pdmtune/internal/minisql"
)

// Pool multiplexes many client sessions over at most max server
// connections — the engine-side answer to "thousands of concurrent
// sessions": clients are cheap, engine sessions are the scarce resource
// (each one serializes its statements), so N clients share M = max
// connections the way a production pooler (pgbouncer-style, statement
// pooling mode) shares real database backends.
//
// Pool implements Transport and is safe for any number of concurrent
// RoundTrip callers. Per call it acquires an idle member connection
// (creating one while under the cap, blocking otherwise), forwards the
// request untouched, and releases the connection. Prepared handles
// belong to the server (see stmtTable), so a prepare on one member is
// executable on every other. The one frame the pool answers itself is a
// repeated hello: the first hello negotiates the pool-wide capability
// set on a member; every later hello is answered locally with that same
// set, so all members encode responses identically.
//
// Because statements from one client may execute on different member
// connections, sessions multiplexed through a pool must not rely on
// session state across round trips (the PDM workload's transactions are
// single-round-trip batches, so this is the same contract statement
// pooling imposes in production).
type Pool struct {
	server *Server

	mu      sync.Mutex
	conns   []*poolConn // all created members
	created int
	caps    Caps
	capsSet bool
	pending minisql.ContentionStats

	idle chan *poolConn
	max  int

	// wrapMember decorates every new member's transport (nil: members
	// dispatch in-process directly).
	wrapMember func(Transport) Transport
}

// poolConn is one member connection.
type poolConn struct {
	conn *ServerConn
	// tr, when set, carries the member's round trips instead of the
	// direct in-process dispatch — the seam SetMemberWrapper installs
	// (fault injection, future stream-backed members). A member whose
	// transport fails is evicted, not recycled.
	tr Transport
}

// connTransport adapts an in-process ServerConn to Transport.
type connTransport struct{ conn *ServerConn }

func (t connTransport) RoundTrip(_ context.Context, request []byte) ([]byte, error) {
	return t.conn.Handle(request), nil
}

// NewPool creates a pool of at most max member connections over the
// server. max < 1 is treated as 1.
func NewPool(server *Server, max int) *Pool {
	if max < 1 {
		max = 1
	}
	return &Pool{
		server: server,
		idle:   make(chan *poolConn, max),
		max:    max,
	}
}

// Max returns the pool's connection cap.
func (p *Pool) Max() int { return p.max }

// SetMemberWrapper installs a decorator applied to every member
// connection's transport from now on — the fault-injection seam of the
// failover tests. Call it before the pool is in use.
func (p *Pool) SetMemberWrapper(wrap func(Transport) Transport) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wrapMember = wrap
}

// send carries one frame over a member. Members with a wrapped
// transport can fail; the failure comes back as *ConnClosedError.
func (p *Pool) send(ctx context.Context, pc *poolConn, body []byte) ([]byte, error) {
	if pc.tr == nil {
		return pc.conn.Handle(body), nil
	}
	resp, err := pc.tr.RoundTrip(ctx, body)
	if err != nil {
		return nil, wrapTransportErr(ctx, err)
	}
	return resp, nil
}

// finish returns a member to the idle set — or, when its connection
// died, evicts it so the slot re-dials fresh instead of recycling a
// dead member.
func (p *Pool) finish(pc *poolConn, err error) {
	if err != nil && isConnClosed(err) {
		p.evict(pc)
		return
	}
	p.release(pc)
}

// evict drops a dead member: the created count frees its slot, so the
// next acquire creates a fresh connection in its place.
func (p *Pool) evict(pc *poolConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.created--
	for i, other := range p.conns {
		if other == pc {
			p.conns = append(p.conns[:i], p.conns[i+1:]...)
			break
		}
	}
}

// Size returns the number of member connections created so far.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created
}

// TakeContention drains the contention the pool observed since the last
// drain: engine lock waits and snapshot/conflict counts of its member
// sessions, plus time callers spent waiting for a free connection
// (reported as lock-wait — the pool cap is a lock like any other).
// With several clients multiplexed over one pool the attribution to the
// draining client is approximate, but the totals are conserved.
func (p *Pool) TakeContention() minisql.ContentionStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.pending
	p.pending = minisql.ContentionStats{}
	return st
}

// acquire checks out an idle member, creating one while under the cap.
// Waiting time is recorded as contention.
func (p *Pool) acquire(ctx context.Context) (*poolConn, error) {
	select {
	case pc := <-p.idle:
		return pc, nil
	default:
	}
	p.mu.Lock()
	if p.created < p.max {
		p.created++
		pc := &poolConn{conn: p.server.NewConn()}
		if p.wrapMember != nil {
			pc.tr = p.wrapMember(connTransport{conn: pc.conn})
		}
		if p.capsSet {
			pc.conn.SetCaps(p.caps)
		}
		p.conns = append(p.conns, pc)
		p.mu.Unlock()
		return pc, nil
	}
	p.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	select {
	case pc := <-p.idle:
		p.mu.Lock()
		p.pending.LockWaitNanos += time.Since(start).Nanoseconds()
		p.mu.Unlock()
		return pc, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (p *Pool) release(pc *poolConn) {
	// Drain the member session's contention while we still know which
	// request caused it.
	if st := pc.conn.TakeContention(); !st.IsZero() {
		p.mu.Lock()
		p.pending.Add(st)
		p.mu.Unlock()
	}
	p.idle <- pc
}

// RoundTrip implements Transport.
func (p *Pool) RoundTrip(ctx context.Context, request []byte) ([]byte, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if len(request) > 0 && request[0] == TypeHello {
		return p.handleHello(ctx, request)
	}
	pc, err := p.acquire(ctx)
	if err != nil {
		return nil, err
	}
	resp, err := p.send(ctx, pc, request)
	p.finish(pc, err)
	return resp, err
}

// handleHello negotiates once and answers every later hello with the
// pool-wide capability set.
func (p *Pool) handleHello(ctx context.Context, request []byte) ([]byte, error) {
	p.mu.Lock()
	if p.capsSet {
		caps := p.caps
		p.mu.Unlock()
		return EncodeHelloResp(caps), nil
	}
	p.mu.Unlock()
	pc, err := p.acquire(ctx)
	if err != nil {
		return nil, err
	}
	resp, err := p.send(ctx, pc, request)
	p.finish(pc, err)
	if err != nil {
		return nil, err
	}
	if caps, err := DecodeHelloResp(resp); err == nil {
		p.mu.Lock()
		if !p.capsSet {
			p.caps = caps
			p.capsSet = true
			for _, other := range p.conns {
				if other != pc {
					other.conn.SetCaps(caps)
				}
			}
		}
		p.mu.Unlock()
	}
	return resp, nil
}
