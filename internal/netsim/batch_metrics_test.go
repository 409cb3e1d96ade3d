package netsim

import "testing"

func TestChargeStatementsAccounting(t *testing.T) {
	m := NewMeter(Intercontinental())
	m.Charge(100, 200, Metrics{Statements: 1})    // 1 statement
	m.Charge(1000, 4000, Metrics{Statements: 25}) // one batch of 25
	m.Charge(100, 100, Metrics{Statements: 1})    // plain again
	if m.Metrics.RoundTrips != 3 {
		t.Errorf("round trips = %d, want 3", m.Metrics.RoundTrips)
	}
	if m.Metrics.Statements != 27 {
		t.Errorf("statements = %d, want 27", m.Metrics.Statements)
	}
	if m.Metrics.SavedRoundTrips != 24 {
		t.Errorf("saved = %d, want 24", m.Metrics.SavedRoundTrips)
	}
	// Latency depends only on round trips, not statements.
	wantLat := 3 * 2 * m.Link.LatencySec
	if m.Metrics.LatencySec != wantLat {
		t.Errorf("latency = %f, want %f", m.Metrics.LatencySec, wantLat)
	}

	// Sub carries the new fields.
	before := m.Metrics
	m.Charge(10, 10, Metrics{Statements: 5})
	d := m.Metrics.Sub(before)
	if d.RoundTrips != 1 || d.Statements != 5 {
		t.Errorf("delta = %+v, want 1 round trip / 5 statements", d)
	}
}

func TestChargePreparedAccounting(t *testing.T) {
	m := NewMeter(Link{LatencySec: 0.1, RateKbps: 256, PacketBytes: 4096})
	m.Charge(1000, 2000, Metrics{Statements: 5, PreparedExecs: 3, SavedRequestBytes: 450})
	m.Charge(100, 100, Metrics{Statements: 1, PreparedExecs: 1, SavedRequestBytes: 120})
	if m.Metrics.PreparedExecs != 4 {
		t.Errorf("PreparedExecs = %d, want 4", m.Metrics.PreparedExecs)
	}
	if m.Metrics.SavedRequestBytes != 570 {
		t.Errorf("SavedRequestBytes = %.0f, want 570", m.Metrics.SavedRequestBytes)
	}
	if m.Metrics.Statements != 6 || m.Metrics.RoundTrips != 2 {
		t.Errorf("stmts/rt = %d/%d, want 6/2",
			m.Metrics.Statements, m.Metrics.RoundTrips)
	}
	// Sub carries the new fields.
	d := m.Metrics.Sub(Metrics{PreparedExecs: 1, SavedRequestBytes: 70})
	if d.PreparedExecs != 3 || d.SavedRequestBytes != 500 {
		t.Errorf("Sub: execs=%d saved=%.0f, want 3/500", d.PreparedExecs, d.SavedRequestBytes)
	}
}

func TestChargeCompressionAccounting(t *testing.T) {
	m := NewMeter(Intercontinental())
	// Charged post-compression by the transport.
	m.Charge(100, 400, Metrics{Statements: 1, CompressedFrames: 1, ResponseBytesSaved: 3600})
	m.Charge(100, 50, Metrics{Statements: 1}) // below threshold: no compression
	if m.Metrics.CompressedFrames != 1 {
		t.Errorf("CompressedFrames = %d, want 1", m.Metrics.CompressedFrames)
	}
	if m.Metrics.ResponseBytesSaved != 3600 {
		t.Errorf("ResponseBytesSaved = %.0f, want 3600", m.Metrics.ResponseBytesSaved)
	}
	// Sub carries the new fields.
	d := m.Metrics.Sub(Metrics{CompressedFrames: 1, ResponseBytesSaved: 600})
	if d.CompressedFrames != 0 || d.ResponseBytesSaved != 3000 {
		t.Errorf("Sub: frames=%d saved=%.0f, want 0/3000", d.CompressedFrames, d.ResponseBytesSaved)
	}
}
