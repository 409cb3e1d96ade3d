package netsim

import (
	"sync"
	"testing"
)

// TestSnapshotDeltaWindow charges a meter in known chunks and checks
// that Snapshot/Sub windows see exactly the traffic between them.
func TestSnapshotDeltaWindow(t *testing.T) {
	m := NewMeter(LAN())
	m.Charge(100, 1000, Metrics{Statements: 1})
	m.Charge(100, 1000, Metrics{Statements: 1})
	w0 := m.Snapshot()
	if w0.RoundTrips != 2 {
		t.Fatalf("first window: %d round trips, want 2", w0.RoundTrips)
	}

	m.Charge(50, 500, Metrics{Statements: 1})
	m.Add(Metrics{CacheHits: 3, CacheMisses: 1, SavedRoundTrips: 2})
	m.Add(Metrics{ReadActions: 1, RepeatActions: 1})
	m.Add(Metrics{WriteActions: 1})
	d := m.Snapshot().Sub(w0)
	if d.RoundTrips != 1 {
		t.Errorf("window delta: %d round trips, want 1", d.RoundTrips)
	}
	if d.CacheHits != 3 || d.CacheMisses != 1 || d.SavedRoundTrips != 2 {
		t.Errorf("window delta cache counters: %+v", d)
	}
	if d.ReadActions != 1 || d.WriteActions != 1 || d.RepeatActions != 1 {
		t.Errorf("window delta action counters: reads=%d writes=%d repeats=%d, want 1/1/1",
			d.ReadActions, d.WriteActions, d.RepeatActions)
	}
	if d.Actions() != 2 {
		t.Errorf("window delta Actions() = %d, want 2", d.Actions())
	}

	// A window over an idle meter is empty.
	if d := m.Snapshot().Sub(m.Snapshot()); d != (Metrics{}) {
		t.Errorf("idle window is not empty: %+v", d)
	}
}

// TestSnapshotConcurrent hammers one meter from many goroutines — the
// chargers and a windowing observer — and checks nothing is lost. Run
// under -race this is the satellite's "window observations without
// racing the live meter" guarantee.
func TestSnapshotConcurrent(t *testing.T) {
	const (
		chargers = 8
		perG     = 200
	)
	m := NewMeter(Intercontinental())

	var chargersWG, observerWG sync.WaitGroup
	stop := make(chan struct{})
	observerWG.Add(1)
	go func() { // the observer: windowed reads while charging is live
		defer observerWG.Done()
		prev := m.Snapshot()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := m.Snapshot()
			if d := cur.Sub(prev); d.RoundTrips < 0 {
				t.Error("window went backwards")
				return
			}
			prev = cur
		}
	}()
	for g := 0; g < chargers; g++ {
		chargersWG.Add(1)
		go func() {
			defer chargersWG.Done()
			for i := 0; i < perG; i++ {
				m.Charge(64, 512, Metrics{Statements: 1, CompressedFrames: 1, ResponseBytesSaved: 10,
					LockWaitNanos: 5, SnapshotsStarted: 1})
				m.Charge(16, 16, Metrics{ValidateRoundTrips: 1})
				m.Add(Metrics{CacheHits: 1})
				if i%3 == 0 {
					m.Add(Metrics{WriteActions: 1})
				} else {
					m.Add(Metrics{ReadActions: 1})
				}
			}
		}()
	}
	chargersWG.Wait()
	close(stop)
	observerWG.Wait()

	got := m.Snapshot()
	if want := int64(chargers * perG * 2); int64(got.RoundTrips) != want {
		t.Errorf("RoundTrips = %d, want %d", got.RoundTrips, want)
	}
	if want := chargers * perG; got.CacheHits != want {
		t.Errorf("CacheHits = %d, want %d", got.CacheHits, want)
	}
	if want := chargers * perG; got.CompressedFrames != want {
		t.Errorf("CompressedFrames = %d, want %d", got.CompressedFrames, want)
	}
	if want := int64(chargers * perG); got.SnapshotsStarted != want {
		t.Errorf("SnapshotsStarted = %d, want %d", got.SnapshotsStarted, want)
	}
	if got.Actions() != chargers*perG {
		t.Errorf("Actions() = %d, want %d", got.Actions(), chargers*perG)
	}
	if got.ReadActions+got.WriteActions != got.Actions() {
		t.Errorf("action split inconsistent: %d + %d != %d",
			got.ReadActions, got.WriteActions, got.Actions())
	}
}
