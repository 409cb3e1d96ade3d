// Package netsim simulates the wide-area network between the PDM client
// and the database server: per-message latency, bandwidth-limited
// transfer and packetization. The paper's testbed was a real
// Germany↔Brazil WAN; this simulator substitutes a deterministic virtual
// clock that charges exactly the quantities the paper's Section 2 model
// reasons about, so simulated experiments are reproducible on a laptop.
//
// Two accounting modes are provided:
//
//   - Paper mode (default): requests are charged in full packets and each
//     response is charged its payload plus half a packet ("in the average
//     we expect the last package of each response to be filled only
//     half"), matching formulas (3) and (5).
//   - Exact mode (PacketBytes <= 0): both directions are charged their
//     exact byte payloads; the difference quantifies the model's
//     packetization error.
package netsim

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Link describes one WAN profile.
type Link struct {
	// Name labels the link in reports (e.g. "Germany-Brazil 256 kbit/s").
	Name string
	// LatencySec is the one-way latency T_Lat in seconds.
	LatencySec float64
	// RateKbps is the data transfer rate dtr in kbit/s (1 kbit = 1024
	// bits, the paper's convention).
	RateKbps float64
	// PacketBytes is the packet size size_p in bytes; <= 0 switches from
	// the paper's packet accounting to exact payload accounting.
	PacketBytes int
}

// LAN returns a local-area profile for comparison runs: 0.5 ms latency,
// 100 Mbit/s.
func LAN() Link {
	return Link{Name: "LAN 100 Mbit/s, 0.5 ms", LatencySec: 0.0005, RateKbps: 100 * 1024, PacketBytes: 4096}
}

// Intercontinental returns the paper's slowest profile: 150 ms latency,
// 256 kbit/s, 4 kB packets.
func Intercontinental() Link {
	return Link{Name: "WAN 256 kbit/s, 150 ms", LatencySec: 0.15, RateKbps: 256, PacketBytes: 4096}
}

func (l Link) String() string {
	return fmt.Sprintf("%s (T_Lat=%.0fms, dtr=%.0fkbit/s, packet=%dB)",
		l.Name, l.LatencySec*1000, l.RateKbps, l.PacketBytes)
}

// bitsPerSec returns the transfer rate in bits per second.
func (l Link) bitsPerSec() float64 { return l.RateKbps * 1024 }

// RequestVolume returns the bytes charged on the wire for a client→server
// message of the given payload size.
func (l Link) RequestVolume(payload int) float64 {
	if l.PacketBytes <= 0 {
		return float64(payload)
	}
	packets := (payload + l.PacketBytes - 1) / l.PacketBytes
	if packets < 1 {
		packets = 1
	}
	return float64(packets * l.PacketBytes)
}

// ResponseVolume returns the bytes charged for a server→client message:
// payload plus the half-empty final packet of the paper's model.
func (l Link) ResponseVolume(payload int) float64 {
	if l.PacketBytes <= 0 {
		return float64(payload)
	}
	return float64(payload) + float64(l.PacketBytes)/2
}

// TransferSec converts a wire volume to transfer seconds.
func (l Link) TransferSec(volumeBytes float64) float64 {
	if l.bitsPerSec() <= 0 {
		return 0
	}
	return volumeBytes * 8 / l.bitsPerSec()
}

// Metrics accumulates the traffic of a sequence of round trips under a
// virtual clock.
type Metrics struct {
	RoundTrips int `json:"round_trips"`
	// Statements counts the SQL statements shipped; batch frames carry
	// several per round trip, so Statements - RoundTrips is the number
	// of WAN round trips that batching saved.
	Statements int `json:"statements"`
	// PreparedExecs counts statements shipped as prepared executions
	// (handle + parameters) instead of SQL text.
	PreparedExecs int `json:"prepared_execs"`
	// SavedRoundTrips counts the WAN round trips the tuning levers
	// avoided: batching contributes statements-per-batch minus one for
	// every batch frame, the structure cache one per fetch round trip
	// it answered locally.
	SavedRoundTrips int `json:"saved_round_trips"`
	// CacheHits / CacheMisses count structure-cache lookups during
	// read actions: hits were served from validated local entries
	// without touching the wire, misses went to the server.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// ValidateRoundTrips counts the cache's revalidation exchanges —
	// the one small round trip a warm action pays instead of its
	// fetches.
	ValidateRoundTrips int `json:"validate_round_trips"`
	// SyncRoundTrips counts replication pulls (TypeSync exchanges): a
	// replica site's delta downloads from the primary. Their volume is
	// charged to Request/ResponseBytes like any exchange; this counter
	// is what separates replication traffic from user actions in a
	// site's report.
	SyncRoundTrips int `json:"sync_round_trips"`
	// SavedRequestBytes is the SQL text volume prepared executions
	// avoided re-shipping — the payload reduction before packetization,
	// reported by the transport alongside the charged request bytes.
	SavedRequestBytes float64 `json:"saved_request_bytes"`
	// CompressedFrames counts response frames that arrived in the
	// negotiated deflate wrapper (bodies below the adaptive threshold
	// travel uncompressed and are not counted).
	CompressedFrames int `json:"compressed_frames"`
	// ResponseBytesSaved is the payload volume response compression
	// avoided shipping: the sum over compressed frames of original
	// body size minus compressed body size, before packetization. The
	// charged ResponseBytes are already post-compression.
	ResponseBytesSaved float64 `json:"response_bytes_saved"`
	RequestBytes       float64 `json:"request_bytes"`  // charged volume client→server
	ResponseBytes      float64 `json:"response_bytes"` // charged volume server→client
	LatencySec         float64 `json:"latency_sec"`
	TransferSec        float64 `json:"transfer_sec"`
	// LockWaitNanos is server-side contention observed by this client's
	// statements: time its sessions spent blocked on write latches.
	// Reported by the wire server per round trip and drained into the
	// meter, so contention is attributable per session and per site.
	LockWaitNanos int64 `json:"lock_wait_nanos"`
	// SnapshotsStarted counts read statements that opened an MVCC
	// snapshot on behalf of this client.
	SnapshotsStarted int64 `json:"snapshots_started"`
	// WriteConflicts counts first-wins write races this client lost
	// (e.g. a check-out that found rows already checked out).
	WriteConflicts int64 `json:"write_conflicts"`
	// PlanHits / PlanMisses count server plan-cache outcomes for this
	// client's statements: hits executed a cached AST with zero parser
	// work, misses paid a full parse. Drained from the engine sessions
	// per round trip like the contention counters above.
	PlanHits   int64 `json:"plan_hits"`
	PlanMisses int64 `json:"plan_misses"`
	// ReadActions / WriteActions count completed user actions by kind:
	// Query/Expand/MLE are reads, check-out/check-in (client-driven or
	// via procedure) are writes. The advisor distills its workload
	// from these, so they are part of the metered window like any other
	// counter.
	ReadActions  int `json:"read_actions"`
	WriteActions int `json:"write_actions"`
	// RepeatActions counts actions whose (action, target) pair the
	// session had already executed — the signal that separates a
	// repeat-heavy workload (a structure cache would pay off) from a
	// cold scan, visible even on sessions without a cache.
	RepeatActions int `json:"repeat_actions"`
	// FallThroughRoundTrips counts reads a partial replica could not
	// answer from its subscription and transparently re-issued against
	// the primary at WAN cost.
	FallThroughRoundTrips int `json:"fall_through_round_trips"`
	// SubscribedRows / SkippedRows split each replication pull's row
	// universe at the subscription filter: rows shipped because the
	// site's subscription covers them vs. rows the primary skipped. A
	// full replica reports zero for both.
	SubscribedRows int `json:"subscribed_rows"`
	SkippedRows    int `json:"skipped_rows"`
	// Retries counts idempotent exchanges re-sent after connection
	// loss; RetryGiveUps counts exchanges abandoned after the retry
	// budget was exhausted.
	Retries      int `json:"retries"`
	RetryGiveUps int `json:"retry_give_ups"`
	// HealthProbes counts primary health checks issued by the failover
	// monitor; ProbeFailures is the subset that timed out or errored.
	HealthProbes  int `json:"health_probes"`
	ProbeFailures int `json:"probe_failures"`
}

// Actions is the total number of user actions in the window.
func (m Metrics) Actions() int { return m.ReadActions + m.WriteActions }

// TotalSec is the simulated response time accumulated so far.
func (m Metrics) TotalSec() float64 { return m.LatencySec + m.TransferSec }

// VolumeBytes is the total charged wire volume.
func (m Metrics) VolumeBytes() float64 { return m.RequestBytes + m.ResponseBytes }

// combine folds sign·b into m field by field. It is the one enumeration
// of Metrics' numeric fields: Add, Sub and both Meter mutators go
// through it, and TestMetricsArithmeticCoversEveryField fails when a
// counter is added to the struct but not here. Deliberately
// reflection-free — Sub runs once per user action.
func (m *Metrics) combine(b *Metrics, sign int) {
	n, f := int64(sign), float64(sign)
	m.RoundTrips += sign * b.RoundTrips
	m.Statements += sign * b.Statements
	m.PreparedExecs += sign * b.PreparedExecs
	m.SavedRoundTrips += sign * b.SavedRoundTrips
	m.CacheHits += sign * b.CacheHits
	m.CacheMisses += sign * b.CacheMisses
	m.ValidateRoundTrips += sign * b.ValidateRoundTrips
	m.SyncRoundTrips += sign * b.SyncRoundTrips
	m.SavedRequestBytes += f * b.SavedRequestBytes
	m.CompressedFrames += sign * b.CompressedFrames
	m.ResponseBytesSaved += f * b.ResponseBytesSaved
	m.RequestBytes += f * b.RequestBytes
	m.ResponseBytes += f * b.ResponseBytes
	m.LatencySec += f * b.LatencySec
	m.TransferSec += f * b.TransferSec
	m.LockWaitNanos += n * b.LockWaitNanos
	m.SnapshotsStarted += n * b.SnapshotsStarted
	m.WriteConflicts += n * b.WriteConflicts
	m.PlanHits += n * b.PlanHits
	m.PlanMisses += n * b.PlanMisses
	m.ReadActions += sign * b.ReadActions
	m.WriteActions += sign * b.WriteActions
	m.RepeatActions += sign * b.RepeatActions
	m.FallThroughRoundTrips += sign * b.FallThroughRoundTrips
	m.SubscribedRows += sign * b.SubscribedRows
	m.SkippedRows += sign * b.SkippedRows
	m.Retries += sign * b.Retries
	m.RetryGiveUps += sign * b.RetryGiveUps
	m.HealthProbes += sign * b.HealthProbes
	m.ProbeFailures += sign * b.ProbeFailures
}

// Sub returns the field-wise difference m - b: the per-action delta of
// a shared meter, or the traffic of an observation window that starts
// at a previous snapshot b and ends at m. Pair it with Meter.Snapshot
// to watch a live meter in windows:
//
//	prev := meter.Snapshot()
//	...                       // the session keeps working
//	window := meter.Snapshot().Sub(prev)
func (m Metrics) Sub(b Metrics) Metrics {
	m.combine(&b, -1)
	return m
}

// Add returns the field-wise sum m + b — the aggregation of traffic
// charged to different links (e.g. a session's site-local reads plus
// its WAN writes, or all sites of a cluster).
func (m Metrics) Add(b Metrics) Metrics {
	m.combine(&b, 1)
	return m
}

// SiteMetrics labels one site's accumulated traffic in a cluster-wide
// report.
type SiteMetrics struct {
	// Site is the site name ("primary" for the primary itself).
	Site string
	// Link is the WAN profile the traffic was charged against.
	Link Link
	// Metrics is the site's accumulated traffic.
	Metrics Metrics
}

func (m Metrics) String() string {
	return fmt.Sprintf("%d round trips, %.0f B up, %.0f B down, %.2fs latency + %.2fs transfer = %.2fs",
		m.RoundTrips, m.RequestBytes, m.ResponseBytes, m.LatencySec, m.TransferSec, m.TotalSec())
}

// Meter charges request/response pairs against a link and accumulates
// Metrics. It is the virtual-clock counterpart of a real connection.
// Charge, Add, Reset and Snapshot are safe for concurrent use; the
// exported Metrics field is the single-goroutine view — an observer
// watching a meter another goroutine is still charging must read it
// through Snapshot.
type Meter struct {
	Link Link

	mu      sync.Mutex
	Metrics Metrics
}

// NewMeter returns a meter over the link.
func NewMeter(link Link) *Meter { return &Meter{Link: link} }

// Snapshot returns a consistent copy of the accumulated metrics, taken
// under the meter's lock — the way to window a live meter from another
// goroutine (see Metrics.Sub) without racing its round trips.
func (m *Meter) Snapshot() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Metrics
}

// Charge accounts one request/response exchange: two latencies (paper
// formula (2): "every query causes an answer") plus the transfer times
// of both messages, and folds in what the exchange carried — extra names
// the statements shipped (1 for a plain request, N for a batch frame, 0
// for a handshake), prepared executions and the SQL bytes they saved, a
// validate or sync round trip, compression savings, server contention.
// An exchange of more than one statement is a batch: its latency cost is
// the same as one statement's, so it saved Statements-1 round trips.
func (m *Meter) Charge(requestPayload, responsePayload int, extra Metrics) {
	up := m.Link.RequestVolume(requestPayload)
	down := m.Link.ResponseVolume(responsePayload)
	if extra.Statements > 1 {
		extra.SavedRoundTrips += extra.Statements - 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Metrics.RoundTrips++
	m.Metrics.RequestBytes += up
	m.Metrics.ResponseBytes += down
	m.Metrics.LatencySec += 2 * m.Link.LatencySec
	m.Metrics.TransferSec += m.Link.TransferSec(up) + m.Link.TransferSec(down)
	m.Metrics.combine(&extra, 1)
}

// Add folds counters that are not themselves an exchange into the
// meter: cache hits and misses, completed actions, fall-through reads,
// subscription splits, retries, health probes. The round trips behind
// them, if any, are charged separately by the transport.
func (m *Meter) Add(delta Metrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Metrics.combine(&delta, 1)
}

// Reset clears the accumulated metrics (e.g. between user actions).
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Metrics = Metrics{}
}

// ---------------------------------------------------------------------------
// Real-delay transport (for the interactive client/server demo)

// DelayedConn wraps a bidirectional stream and sleeps on every Write to
// approximate the link's latency and bandwidth in real time, optionally
// scaled down (Scale 0.01 makes a 30-minute expand take 18 s). It lets
// cmd/pdmserver and cmd/pdmclient demonstrate the phenomenon live over
// TCP without waiting half an hour.
type DelayedConn struct {
	Stream io.ReadWriteCloser
	Link   Link
	// Scale multiplies all delays; 0 means 1.0 (real time).
	Scale float64

	mu sync.Mutex
}

func (c *DelayedConn) scale() float64 {
	if c.Scale > 0 {
		return c.Scale
	}
	return 1
}

// Read passes through to the underlying stream (delays are charged on
// the writer's side).
func (c *DelayedConn) Read(p []byte) (int, error) { return c.Stream.Read(p) }

// Write sleeps for the link latency plus the transfer time of len(p)
// bytes, then forwards the write.
func (c *DelayedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delay := c.Link.LatencySec + c.Link.TransferSec(c.Link.RequestVolume(len(p)))
	time.Sleep(time.Duration(delay * c.scale() * float64(time.Second)))
	return c.Stream.Write(p)
}

// Close closes the underlying stream.
func (c *DelayedConn) Close() error { return c.Stream.Close() }
