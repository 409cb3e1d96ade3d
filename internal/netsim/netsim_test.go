package netsim

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func paperLink() Link {
	return Link{Name: "test", LatencySec: 0.15, RateKbps: 256, PacketBytes: 4096}
}

func TestRequestVolumePacketization(t *testing.T) {
	l := paperLink()
	cases := []struct {
		payload int
		want    float64
	}{
		{0, 4096}, {1, 4096}, {4096, 4096}, {4097, 8192}, {10000, 12288},
	}
	for _, c := range cases {
		if got := l.RequestVolume(c.payload); got != c.want {
			t.Errorf("RequestVolume(%d) = %v, want %v", c.payload, got, c.want)
		}
	}
}

func TestResponseVolumeHalfPacketCorrection(t *testing.T) {
	l := paperLink()
	// payload + size_p/2, matching formula (3)'s correcting term.
	if got := l.ResponseVolume(1000); got != 1000+2048 {
		t.Errorf("ResponseVolume(1000) = %v", got)
	}
}

func TestExactBytesMode(t *testing.T) {
	l := paperLink()
	l.PacketBytes = 0
	if l.RequestVolume(123) != 123 || l.ResponseVolume(123) != 123 {
		t.Error("exact mode must charge exact payloads")
	}
}

func TestTransferSecUsesKibibits(t *testing.T) {
	l := paperLink()
	// 262144 bits = 32768 bytes at 256 kbit/s (1 kbit = 1024 bits) = 1 s.
	if got := l.TransferSec(32768); math.Abs(got-1) > 1e-9 {
		t.Errorf("TransferSec(32768) = %v, want 1", got)
	}
}

// TestMeterMatchesPaperFormula reproduces one Table 2 cell with the
// meter: the single-level expand at 256 kbit/s (0.63 s total).
func TestMeterMatchesPaperFormula(t *testing.T) {
	m := NewMeter(paperLink())
	// One query (one full packet up), β = 9 nodes of 512 B down.
	m.Charge(1, 9*512, Metrics{Statements: 1})
	got := m.Metrics.TotalSec()
	want := 2*0.15 + (4096+9*512+2048)*8/(256*1024.0)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("meter total = %v, want %v", got, want)
	}
	if math.Abs(got-0.628125) > 1e-6 {
		t.Errorf("Table 2 expand cell = %v, paper computes 0.63", got)
	}
	if m.Metrics.RoundTrips != 1 {
		t.Errorf("counters: %+v", m.Metrics)
	}
}

func TestMeterAccumulatesAndResets(t *testing.T) {
	m := NewMeter(paperLink())
	m.Charge(100, 100, Metrics{Statements: 1})
	m.Charge(100, 100, Metrics{Statements: 1})
	if m.Metrics.RoundTrips != 2 {
		t.Errorf("RoundTrips = %d", m.Metrics.RoundTrips)
	}
	m.Reset()
	if m.Metrics.RoundTrips != 0 || m.Metrics.TotalSec() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestMetricsSub(t *testing.T) {
	m := NewMeter(paperLink())
	m.Charge(10, 10, Metrics{Statements: 1})
	before := m.Metrics
	m.Charge(10, 10, Metrics{Statements: 1})
	d := m.Metrics.Sub(before)
	if d.RoundTrips != 1 {
		t.Errorf("delta = %+v", d)
	}
}

// Property: simulated time is monotonic in payload size and additive
// over round trips.
func TestMeterMonotonicityProperty(t *testing.T) {
	l := paperLink()
	f := func(a, b uint16) bool {
		small, large := int(a), int(a)+int(b)
		m1 := NewMeter(l)
		m1.Charge(64, small, Metrics{Statements: 1})
		m2 := NewMeter(l)
		m2.Charge(64, large, Metrics{Statements: 1})
		if m2.Metrics.TotalSec() < m1.Metrics.TotalSec() {
			return false
		}
		// Additivity.
		m3 := NewMeter(l)
		m3.Charge(64, small, Metrics{Statements: 1})
		m3.Charge(64, large, Metrics{Statements: 1})
		sum := m1.Metrics.TotalSec() + m2.Metrics.TotalSec()
		return math.Abs(m3.Metrics.TotalSec()-sum) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProfileConstructors(t *testing.T) {
	lan := LAN()
	wan := Intercontinental()
	if lan.LatencySec >= wan.LatencySec {
		t.Error("LAN latency must be below WAN latency")
	}
	if lan.RateKbps <= wan.RateKbps {
		t.Error("LAN bandwidth must exceed WAN bandwidth")
	}
	if wan.String() == "" || lan.String() == "" {
		t.Error("profiles must describe themselves")
	}
}

// TestMetricsArithmeticCoversEveryField guards the one hand-written
// field list (Metrics.combine): a counter added to the struct but
// forgotten there would silently vanish from every Sub delta and every
// Add total. Every numeric field gets a distinct non-zero
// value; Add must move each of them and Sub must move each back.
func TestMetricsArithmeticCoversEveryField(t *testing.T) {
	fill := func(base int64) Metrics {
		var m Metrics
		v := reflect.ValueOf(&m).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(base + int64(i))
			case reflect.Float64:
				f.SetFloat(float64(base + int64(i)))
			default:
				t.Fatalf("Metrics.%s has kind %s: teach combine and this test about it",
					v.Type().Field(i).Name, f.Kind())
			}
		}
		return m
	}
	a, b := fill(1000), fill(1)
	sum := a.Add(b)
	if back := sum.Sub(b); back != a {
		t.Errorf("a.Add(b).Sub(b) = %+v, want %+v", back, a)
	}
	va, vs := reflect.ValueOf(a), reflect.ValueOf(sum)
	for i := 0; i < va.NumField(); i++ {
		if va.Field(i).Interface() == vs.Field(i).Interface() {
			t.Errorf("Metrics.%s is not summed by Add: missing from combine", va.Type().Field(i).Name)
		}
	}
	// The meter's mutators go through the same list.
	m := NewMeter(Link{})
	m.Add(b)
	if got := m.Snapshot(); got != b {
		t.Errorf("Meter.Add: %+v, want %+v", got, b)
	}
}
