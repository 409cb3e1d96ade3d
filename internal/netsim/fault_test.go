package netsim

import (
	"context"
	"errors"
	"testing"
)

// echoTransport answers every round trip with the request body.
type echoTransport struct{ calls int }

func (e *echoTransport) RoundTrip(_ context.Context, req []byte) ([]byte, error) {
	e.calls++
	return req, nil
}

func TestFaultInjectorPassThrough(t *testing.T) {
	inner := &echoTransport{}
	fi := NewFaultInjector(inner, nil)
	resp, err := fi.RoundTrip(context.Background(), []byte("ping"))
	if err != nil || string(resp) != "ping" {
		t.Fatalf("RoundTrip = %q, %v", resp, err)
	}
	if inner.calls != 1 || fi.Frames() != 1 {
		t.Fatalf("calls = %d, frames = %d", inner.calls, fi.Frames())
	}
}

func TestFaultInjectorFailNext(t *testing.T) {
	inner := &echoTransport{}
	fi := NewFaultInjector(inner, nil)
	fi.FailNext(2)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := fi.RoundTrip(ctx, []byte("x")); !errors.Is(err, ErrConnDown) {
			t.Fatalf("injected failure %d: err = %v, want ErrConnDown", i, err)
		}
	}
	if _, err := fi.RoundTrip(ctx, []byte("x")); err != nil {
		t.Fatalf("after injected failures: %v", err)
	}
	if inner.calls != 1 {
		t.Fatalf("inner saw %d calls, want 1 (failures must not reach it)", inner.calls)
	}
}

func TestFaultInjectorDisconnectAfter(t *testing.T) {
	inner := &echoTransport{}
	fi := NewFaultInjector(inner, nil)
	fi.DisconnectAfter(2)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := fi.RoundTrip(ctx, []byte("x")); err != nil {
			t.Fatalf("frame %d before disconnect: %v", i, err)
		}
	}
	// The scripted disconnect is permanent until Revive.
	for i := 0; i < 3; i++ {
		if _, err := fi.RoundTrip(ctx, []byte("x")); !errors.Is(err, ErrConnDown) {
			t.Fatalf("after disconnect: err = %v, want ErrConnDown", err)
		}
	}
	fi.Revive()
	if _, err := fi.RoundTrip(ctx, []byte("x")); err != nil {
		t.Fatalf("after Revive: %v", err)
	}
}

func TestFaultPlanKillsEveryInjector(t *testing.T) {
	// One plan shared by two injectors models process death: every
	// connection into the dead server fails at once.
	plan := &FaultPlan{}
	a := NewFaultInjector(&echoTransport{}, plan)
	b := NewFaultInjector(&echoTransport{}, plan)
	ctx := context.Background()
	if _, err := a.RoundTrip(ctx, []byte("x")); err != nil {
		t.Fatal(err)
	}
	plan.Kill()
	for _, fi := range []*FaultInjector{a, b} {
		if _, err := fi.RoundTrip(ctx, []byte("x")); !errors.Is(err, ErrConnDown) {
			t.Fatalf("killed plan: err = %v, want ErrConnDown", err)
		}
	}
	plan.Revive()
	if _, err := b.RoundTrip(ctx, []byte("x")); err != nil {
		t.Fatalf("after plan revive: %v", err)
	}
}

func TestHealthProbeCounters(t *testing.T) {
	m := NewMeter(LAN())
	m.Add(Metrics{HealthProbes: 1})
	m.Add(Metrics{HealthProbes: 1, ProbeFailures: 1})
	m.Add(Metrics{HealthProbes: 1, ProbeFailures: 1})
	m.Add(Metrics{Retries: 3})
	m.Add(Metrics{RetryGiveUps: 1})
	got := m.Snapshot()
	if got.HealthProbes != 3 || got.ProbeFailures != 2 {
		t.Errorf("probes = %d/%d, want 3/2", got.HealthProbes, got.ProbeFailures)
	}
	if got.Retries != 3 || got.RetryGiveUps != 1 {
		t.Errorf("retries = %d/%d, want 3/1", got.Retries, got.RetryGiveUps)
	}
	// The new counters participate in the Sub/Add field arithmetic.
	prev := Metrics{HealthProbes: 1, Retries: 1}
	d := got.Sub(prev)
	if d.HealthProbes != 2 || d.Retries != 2 {
		t.Errorf("Sub: probes = %d, retries = %d, want 2, 2", d.HealthProbes, d.Retries)
	}
	if s := d.Add(prev); s.HealthProbes != 3 || s.Retries != 3 {
		t.Errorf("Add round trip: %+v", s)
	}
}
