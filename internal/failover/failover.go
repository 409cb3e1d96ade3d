// Package failover is the high-availability control plane of the PDM
// cluster: a health checker that probes the primary over the ordinary
// wire transport and reports it down after a configurable number of
// consecutive failures. The paper's worldwide deployment treats the
// central server as a single point of failure; this package provides
// the detection half of the remedy. The promotion half is
// internal/topology's Cluster, which owns the nodes a failover must
// re-point; sessions are not among them, as each follows the new term
// by itself.
package failover

import (
	"context"
	"sync"
	"time"

	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
)

// Prober answers one health probe. Implemented by wire.Client (its
// Status method is one small round trip); tests substitute scripted
// probers.
type Prober interface {
	Status(ctx context.Context) (wire.Status, error)
}

// probeTimeout bounds each health probe.
const probeTimeout = 250 * time.Millisecond

// Config tunes the health checker.
type Config struct {
	// Interval is the probe period of the background loop (default
	// 500ms). CheckNow ignores it.
	Interval time.Duration
	// Threshold is the number of consecutive failed probes after which
	// the primary is declared down (default 3). One slow probe must not
	// trigger a failover.
	Threshold int
}

func (c Config) interval() time.Duration {
	if c.Interval <= 0 {
		return 500 * time.Millisecond
	}
	return c.Interval
}

func (c Config) threshold() int {
	if c.Threshold <= 0 {
		return 3
	}
	return c.Threshold
}

// Checker health-checks one primary. Probes run either on the
// background loop (Start/Stop) or synchronously via CheckNow — the
// deterministic path the tests and the simulated benchmark drive, with
// no wall-clock dependence. All methods are safe for concurrent use.
type Checker struct {
	prober Prober
	cfg    Config
	// meter receives the HealthProbes / ProbeFailures counters (nil:
	// unmetered).
	meter *netsim.Meter
	// onDown fires once per down transition (failures crossing the
	// threshold), outside the checker's lock.
	onDown func()

	mu       sync.Mutex
	failures int
	down     bool
	lastSeen wire.Status
	cancel   context.CancelFunc
	loopDone chan struct{}
}

// New creates a checker probing the primary through prober. onDown may
// be nil; meter may be nil.
func New(prober Prober, cfg Config, meter *netsim.Meter, onDown func()) *Checker {
	return &Checker{prober: prober, cfg: cfg, meter: meter, onDown: onDown}
}

// CheckNow performs one probe synchronously and returns whether the
// primary answered, along with the checker's down verdict after this
// probe (true once Threshold consecutive probes have failed).
func (c *Checker) CheckNow(ctx context.Context) (ok, down bool) {
	probeCtx, cancel := context.WithTimeout(ctx, probeTimeout)
	st, err := c.prober.Status(probeCtx)
	cancel()
	ok = err == nil
	if c.meter != nil {
		probe := netsim.Metrics{HealthProbes: 1}
		if !ok {
			probe.ProbeFailures = 1
		}
		c.meter.Add(probe)
	}
	var fire func()
	c.mu.Lock()
	if ok {
		c.failures = 0
		c.down = false
		c.lastSeen = st
	} else {
		c.failures++
		if c.failures >= c.cfg.threshold() && !c.down {
			c.down = true
			fire = c.onDown
		}
	}
	down = c.down
	c.mu.Unlock()
	if fire != nil {
		fire()
	}
	return ok, down
}

// Down reports whether the primary is currently considered down.
func (c *Checker) Down() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down
}

// Failures returns the current consecutive-failure count.
func (c *Checker) Failures() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failures
}

// LastStatus returns the last successful probe's answer (zero value
// before the first success).
func (c *Checker) LastStatus() wire.Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSeen
}

// Reset clears the failure state — called after a completed failover
// re-points the checker at the new primary.
func (c *Checker) Reset(prober Prober) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prober != nil {
		c.prober = prober
	}
	c.failures = 0
	c.down = false
}

// Start launches the background probe loop. A second Start is a no-op
// until Stop.
func (c *Checker) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	done := make(chan struct{})
	c.loopDone = done
	go func() {
		defer close(done)
		t := time.NewTicker(c.cfg.interval())
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.CheckNow(ctx)
			}
		}
	}()
}

// Stop terminates the background loop and waits for it to exit.
func (c *Checker) Stop() {
	c.mu.Lock()
	cancel, done := c.cancel, c.loopDone
	c.cancel, c.loopDone = nil, nil
	c.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}
