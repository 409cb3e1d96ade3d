package wire

import (
	"sync"
	"time"

	"pdmtune/internal/netsim"
)

// RetryPolicy configures transparent retries of idempotent exchanges
// on connection loss (*ConnClosedError): pure reads, validates, syncs,
// prepares and handshakes. Writes are NEVER retried by this layer — a
// dead connection cannot tell "the write never arrived" from "the ack
// got lost", and a re-sent check-out could double-apply. Backoff is
// capped exponential with deterministic jitter, so a simulated test
// replays the exact same schedule every run. An exchange is tried at
// most maxAttempts times.
type RetryPolicy struct {
	// Sleep replaces time.Sleep (tests inject a no-op or a recorder).
	Sleep func(time.Duration)
	// Meter receives the Retries / RetryGiveUps counters (may be nil).
	Meter *netsim.Meter

	mu  sync.Mutex
	rng uint64
}

func (p *RetryPolicy) sleep(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

const (
	maxAttempts = 4
	baseDelay   = 5 * time.Millisecond
	maxDelay    = 100 * time.Millisecond
	// jitterSeed starts every policy's jitter sequence.
	jitterSeed = 0x9e3779b97f4a7c15
)

// backoff returns the delay before retry number n (1-based):
// baseDelay·2ⁿ⁻¹ capped at maxDelay, plus jitter in [0, delay/2).
func (p *RetryPolicy) backoff(n int) time.Duration {
	d := baseDelay << uint(n-1)
	if d <= 0 || d > maxDelay {
		d = maxDelay
	}
	if half := d / 2; half > 0 {
		d += time.Duration(p.next() % uint64(half))
	}
	return d
}

// next steps the policy's xorshift jitter sequence — the same for every
// policy, independent of the global math/rand state.
func (p *RetryPolicy) next() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng == 0 {
		p.rng = jitterSeed
	}
	x := p.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	p.rng = x
	return x
}

// count folds retry counters into the policy's meter, if it has one.
func (p *RetryPolicy) count(delta netsim.Metrics) {
	if p.Meter != nil {
		p.Meter.Add(delta)
	}
}
