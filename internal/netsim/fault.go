package netsim

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrConnDown is the raw transport error a faulted connection returns.
// The wire client wraps it in its structured connection-loss error, so
// callers see the same failure shape as a real dead socket.
var ErrConnDown = errors.New("netsim: connection down")

// Transport is the round-trip interface the injector decorates. It is
// structurally identical to the wire package's Transport, declared here
// so netsim (which wire imports) stays free of an import cycle.
type Transport interface {
	RoundTrip(ctx context.Context, request []byte) ([]byte, error)
}

// FaultPlan is a shared kill switch for one simulated process: every
// FaultInjector attached to the plan fails while the plan is down.
// Killing the plan is the test's way to crash a primary — all its
// connections (session transports, write paths, replication pulls)
// die at once, and Revive brings them back without re-dialing.
type FaultPlan struct {
	mu   sync.Mutex
	down bool
}

// Kill marks the process dead: every attached injector fails until
// Revive.
func (p *FaultPlan) Kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down = true
}

// Revive brings the process back.
func (p *FaultPlan) Revive() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down = false
}

// Down reports whether the plan is currently killed.
func (p *FaultPlan) Down() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}

// FaultInjector decorates a Transport with deterministic, scripted
// faults: fail the next N frames, disconnect permanently after N more
// frames, or die with a shared FaultPlan. Every fault surfaces as
// ErrConnDown before the frame reaches the inner transport, so a
// "dropped" write provably never executed — the invariant the
// write-retry layer depends on.
type FaultInjector struct {
	inner Transport
	plan  *FaultPlan

	mu       sync.Mutex
	failNext int
	// disconnectAfter counts down per delivered frame once set; at zero
	// the connection is dead for good. -1 means no script.
	disconnectAfter int
	dead            bool
	frames          int
}

// NewFaultInjector decorates inner. plan may be nil (no shared kill
// switch).
func NewFaultInjector(inner Transport, plan *FaultPlan) *FaultInjector {
	return &FaultInjector{inner: inner, plan: plan, disconnectAfter: -1}
}

// FailNext makes the next n round trips fail with ErrConnDown, then
// recover — a transient blip the retry layer should ride out.
func (f *FaultInjector) FailNext(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failNext = n
}

// DisconnectAfter lets n more round trips through, then kills the
// connection permanently (until Revive).
func (f *FaultInjector) DisconnectAfter(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.disconnectAfter = n
}

// Kill makes the connection dead immediately.
func (f *FaultInjector) Kill() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dead = true
}

// Revive clears a Kill or an expired DisconnectAfter script. A downed
// FaultPlan still keeps the connection failing.
func (f *FaultInjector) Revive() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dead = false
	f.disconnectAfter = -1
}

// Frames returns the number of round trips delivered to the inner
// transport so far.
func (f *FaultInjector) Frames() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frames
}

// RoundTrip implements Transport: applies the fault script, then
// forwards to the inner transport.
func (f *FaultInjector) RoundTrip(ctx context.Context, request []byte) ([]byte, error) {
	if f.plan != nil && f.plan.Down() {
		return nil, fmt.Errorf("%w (process killed)", ErrConnDown)
	}
	f.mu.Lock()
	if f.dead {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w (disconnected)", ErrConnDown)
	}
	if f.failNext > 0 {
		f.failNext--
		f.mu.Unlock()
		return nil, fmt.Errorf("%w (injected)", ErrConnDown)
	}
	if f.disconnectAfter == 0 {
		f.dead = true
		f.mu.Unlock()
		return nil, fmt.Errorf("%w (disconnected)", ErrConnDown)
	}
	if f.disconnectAfter > 0 {
		f.disconnectAfter--
	}
	f.frames++
	f.mu.Unlock()
	return f.inner.RoundTrip(ctx, request)
}
