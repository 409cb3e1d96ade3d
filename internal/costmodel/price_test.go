package costmodel

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// The lever properties below were three files of tests against
// PredictBatched / PredictBatchedPrepared / PredictCompressed /
// PredictReplicated; they are the same assertions as rows over Price.

func plainKnobs(s Strategy) Knobs    { return Knobs{Strategy: s} }
func batchedKnobs(s Strategy) Knobs  { return Knobs{Strategy: s, Batching: true} }
func preparedKnobs(s Strategy) Knobs { return Knobs{Strategy: s, Batching: true, Prepared: true} }
func replicaKnobs(s Strategy) Knobs  { return Knobs{Strategy: s, Replica: true} }
func compressedKnobs(s Strategy) Knobs {
	return Knobs{Strategy: s, Batching: true, Columnar: true, Compress: true}
}

// TestPriceBatchingCollapsesLatency: on the paper's scenarios the
// batched MLE pays two communications per tree level instead of two per
// statement, while shipping the same node volume.
func TestPriceBatchingCollapsesLatency(t *testing.T) {
	for _, net := range PaperNetworks() {
		for _, tree := range PaperScenarios() {
			m := Model{Net: net, Tree: tree}
			for _, s := range []Strategy{LateEval, EarlyEval} {
				name := fmt.Sprintf("%s/%s/%v", net.Name, tree.Name, s)
				plain, batched := m.Price(plainKnobs(s), MLE), m.Price(batchedKnobs(s), MLE)
				if want := 2 * float64(tree.Depth+1); batched.Communications != want {
					t.Errorf("%s: batched comms = %.0f, want %.0f", name, batched.Communications, want)
				}
				if batched.Communications >= plain.Communications {
					t.Errorf("%s: batching did not reduce communications (%.0f >= %.0f)",
						name, batched.Communications, plain.Communications)
				}
				if batched.Queries != plain.Queries {
					t.Errorf("%s: batched queries = %.1f, plain = %.1f", name, batched.Queries, plain.Queries)
				}
				if batched.TransmittedNodes != plain.TransmittedNodes {
					t.Errorf("%s: batched n_t = %.1f, plain = %.1f", name, batched.TransmittedNodes, plain.TransmittedNodes)
				}
				if batched.TotalSec >= plain.TotalSec {
					t.Errorf("%s: batched T = %.2f >= plain %.2f", name, batched.TotalSec, plain.TotalSec)
				}
				if batched.LatencySec <= 0 || batched.TransferSec <= 0 {
					t.Errorf("%s: degenerate estimate %+v", name, batched)
				}
			}
		}
	}
}

// TestPriceLeverNoopCases: knobs that have nothing to act on leave the
// estimate exactly where it was — batching and prepared statements on
// single-statement actions and on the recursive strategy, prepared
// without batching, a compression ratio <= 1, a cold cache.
func TestPriceLeverNoopCases(t *testing.T) {
	net := PaperNetworks()[0]
	m := Model{Net: net, Tree: PaperScenarios()[0]}
	big := Model{Net: net, Tree: PaperScenarios()[2]}
	rows := []struct {
		name   string
		m      Model
		k      func(Strategy) Knobs
		strats []Strategy
		acts   []Action
		same   func(Strategy) Knobs
	}{
		{"batching, single statement", m, batchedKnobs, Strategies, []Action{Query, Expand}, plainKnobs},
		{"batching, recursive MLE", m, batchedKnobs, []Strategy{Recursive}, []Action{MLE}, plainKnobs},
		{"prepared, Query", m, preparedKnobs, []Strategy{EarlyEval}, []Action{Query}, plainKnobs},
		{"prepared, recursive MLE", m, preparedKnobs, []Strategy{Recursive}, []Action{MLE}, plainKnobs},
		{"prepared without batching", m, func(s Strategy) Knobs { return Knobs{Strategy: s, Prepared: true} },
			Strategies, Actions, plainKnobs},
		{"compress at ratio 0.5", Model{Net: net, Tree: big.Tree, CompressionRatio: 0.5}, compressedKnobs,
			[]Strategy{EarlyEval}, []Action{MLE}, batchedKnobs},
		{"compress at ratio 1", Model{Net: net, Tree: big.Tree, CompressionRatio: 1}, compressedKnobs,
			[]Strategy{EarlyEval}, []Action{MLE}, batchedKnobs},
		{"cold cache", big, func(s Strategy) Knobs { return Knobs{Strategy: s, Batching: true, CacheEntries: 256} },
			Strategies, Actions, batchedKnobs},
	}
	for _, r := range rows {
		for _, s := range r.strats {
			for _, a := range r.acts {
				if got, want := r.m.Price(r.k(s), a), r.m.Price(r.same(s), a); got != want {
					t.Errorf("%s, %v/%v: %+v != %+v", r.name, a, s, got, want)
				}
			}
		}
	}
	// The PredictCompressed wrapper maps "no ratio" to "nothing negotiated".
	for _, ratio := range []float64{0, 0.5, 1} {
		if big.PredictCompressed(MLE, EarlyEval, ratio) != big.Price(batchedKnobs(EarlyEval), MLE) {
			t.Errorf("PredictCompressed at ratio %v must equal the batched estimate", ratio)
		}
	}
}

// TestPricePrepared: on the larger paper scenarios — where a BFS
// level's statements span several packets — prepared executions shrink
// the predicted volume below the batched text prediction, while the
// transmitted node volume is untouched.
func TestPricePrepared(t *testing.T) {
	net := PaperNetworks()[0]
	for _, tree := range PaperScenarios()[1:] { // δ=9/β=3 and δ=7/β=5
		m := Model{Net: net, Tree: tree}
		batched, prepared := m.Price(batchedKnobs(EarlyEval), MLE), m.Price(preparedKnobs(EarlyEval), MLE)
		if prepared.TransmittedNodes != batched.TransmittedNodes {
			t.Errorf("%s: prepared n_t = %.1f, batched = %.1f", tree.Name, prepared.TransmittedNodes, batched.TransmittedNodes)
		}
		if prepared.VolumeBytes >= batched.VolumeBytes {
			t.Errorf("%s: prepared volume %.0f >= batched %.0f", tree.Name, prepared.VolumeBytes, batched.VolumeBytes)
		}
		if prepared.TotalSec >= batched.TotalSec {
			t.Errorf("%s: prepared T %.2f >= batched %.2f", tree.Name, prepared.TotalSec, batched.TotalSec)
		}
		// The prepare exchange is one extra round trip.
		if prepared.Communications != batched.Communications+2 {
			t.Errorf("%s: prepared comms = %.0f, want %.0f", tree.Name, prepared.Communications, batched.Communications+2)
		}
	}
	// An explicitly configured text StatementBytes must not leak into
	// the prepared prediction.
	tree := PaperScenarios()[2]
	if got, want := (Model{Net: net, Tree: tree, StatementBytes: 900}).Price(preparedKnobs(EarlyEval), MLE),
		(Model{Net: net, Tree: tree}).Price(preparedKnobs(EarlyEval), MLE); got != want {
		t.Errorf("StatementBytes leaked into prepared prediction: %+v != %+v", got, want)
	}
}

func TestPriceCompressed(t *testing.T) {
	m := Model{Net: PaperNetworks()[0], Tree: PaperScenarios()[2]} // δ=7, β=5 at 256 kbit/s
	at := func(ratio float64) Model { m := m; m.CompressionRatio = ratio; return m }

	batched := m.Price(batchedKnobs(EarlyEval), MLE)
	z := at(DefaultCompressionRatio).Price(compressedKnobs(EarlyEval), MLE)
	if z != m.Price(compressedKnobs(EarlyEval), MLE) {
		t.Error("an unset ratio must price at DefaultCompressionRatio")
	}
	if z.LatencySec != batched.LatencySec || z.Communications != batched.Communications {
		t.Error("compression must not change latency or round trips")
	}
	if z.VolumeBytes >= batched.VolumeBytes || z.TotalSec >= batched.TotalSec {
		t.Errorf("ratio %v: volume %.0f / T %.2f not below batched %.0f / %.2f",
			float64(DefaultCompressionRatio), z.VolumeBytes, z.TotalSec, batched.VolumeBytes, batched.TotalSec)
	}
	// The node-record share shrinks to 1/ratio exactly.
	wantVol := batched.VolumeBytes - batched.TransmittedNodes*DefaultNodeBytes*(1-1.0/DefaultCompressionRatio)
	if math.Abs(z.VolumeBytes-wantVol) > 1e-6 {
		t.Errorf("volume = %.2f, want %.2f", z.VolumeBytes, wantVol)
	}

	// Monotone in the ratio.
	prev := batched.TotalSec
	for _, ratio := range []float64{2, 5, 10, 50} {
		cur := at(ratio).Price(compressedKnobs(EarlyEval), MLE).TotalSec
		if cur >= prev {
			t.Errorf("ratio %v: T %.2f not below previous %.2f", ratio, cur, prev)
		}
		prev = cur
	}

	// The recursive strategy has nothing to batch but still shrinks its
	// node volume.
	if rec, base := at(10).Price(compressedKnobs(Recursive), MLE), m.Price(plainKnobs(Recursive), MLE); rec.TotalSec >= base.TotalSec {
		t.Errorf("recursive compressed %.2f not below plain %.2f", rec.TotalSec, base.TotalSec)
	}
}

// TestPriceReplicaSteadyState: with nothing to sync, a replica read is
// exactly the action priced at the local network — the WAN drops out of
// the estimate entirely.
func TestPriceReplicaSteadyState(t *testing.T) {
	m := Model{Net: PaperNetworks()[0], Tree: PaperScenarios()[2], LocalNet: LANNetwork()}
	for _, s := range Strategies {
		got := m.Price(replicaKnobs(s), MLE)
		if want := (Model{Net: LANNetwork(), Tree: m.Tree}).Price(plainKnobs(s), MLE); got != want {
			t.Errorf("%v: replicated steady-state %+v != local predict %+v", s, got, want)
		}
		if wan := m.Price(plainKnobs(s), MLE); got.TotalSec >= wan.TotalSec {
			t.Errorf("%v: replica read %.2fs not below WAN read %.2fs", s, got.TotalSec, wan.TotalSec)
		}
	}
}

// TestPriceReplicaSyncCost: a sync adds one WAN round trip whose
// transfer is the delta volume; the read part is unchanged.
func TestPriceReplicaSyncCost(t *testing.T) {
	m := Model{Net: PaperNetworks()[0], Tree: PaperScenarios()[2], LocalNet: LANNetwork()}
	base := m.Price(replicaKnobs(Recursive), MLE)
	m.SyncBytes = 1 << 20 // 1 MiB of deltas
	got := m.Price(replicaKnobs(Recursive), MLE)
	if got.Communications != base.Communications+2 {
		t.Errorf("communications = %v, want %v", got.Communications, base.Communications+2)
	}
	wantLat := base.LatencySec + 2*m.Net.LatencySec
	if math.Abs(got.LatencySec-wantLat) > 1e-9 {
		t.Errorf("latency = %v, want %v", got.LatencySec, wantLat)
	}
	wantVol := base.VolumeBytes + float64(m.Net.PacketBytes)*1.5 + m.SyncBytes
	if math.Abs(got.VolumeBytes-wantVol) > 1e-6 {
		t.Errorf("volume = %v, want %v", got.VolumeBytes, wantVol)
	}
	if got.TotalSec <= base.TotalSec {
		t.Error("sync volume did not increase the estimate")
	}
	// The dominant term: 1 MiB across 256 kbit/s is ~32 s of transfer.
	if d := got.TotalSec - base.TotalSec; d < 30 || d > 40 {
		t.Errorf("sync cost %.1fs, want ~32s on the 256 kbit/s WAN", d)
	}
}

// TestCompatibilityWrappersArePricePoints: the four signatures kept for
// pinned callers each name one lattice point of Price.
func TestCompatibilityWrappersArePricePoints(t *testing.T) {
	for _, tree := range PaperScenarios() {
		m := Model{Net: PaperNetworks()[0], Tree: tree}
		for _, a := range Actions {
			for _, s := range Strategies {
				check := func(name string, got, want Estimate) {
					t.Helper()
					if got != want {
						t.Errorf("%s %v/%v %s: wrapper %+v != Price %+v", tree.Name, a, s, name, got, want)
					}
				}
				check("Predict", m.Predict(a, s), m.Price(plainKnobs(s), a))
				at := m
				at.CompressionRatio = 4
				check("PredictCompressed", m.PredictCompressed(a, s, 4), at.Price(compressedKnobs(s), a))
				check("PredictCached cold", m.PredictCached(a, s, false), m.Price(batchedKnobs(s), a))
				at = m
				at.Warm = true
				check("PredictCached warm", m.PredictCached(a, s, true),
					at.Price(Knobs{Strategy: s, Batching: true, CacheEntries: 256}, a))
				at = m
				at.LocalNet, at.SyncBytes = LANNetwork(), 64*1024
				check("PredictReplicated", m.PredictReplicated(a, s, LANNetwork(), 64*1024), at.Price(replicaKnobs(s), a))
			}
		}
	}
}

// TestKnobsFieldListCoversEveryField: Fields is hand-written; this
// guard makes a knob added to the struct but not to the list fail
// here instead of silently dropping out of String, Fingerprint and
// advisor.Diff.
func TestKnobsFieldListCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Knobs{})
	if got := len(Knobs{}.Fields()); got != typ.NumField() {
		t.Fatalf("Knobs has %d fields, Fields lists %d", typ.NumField(), got)
	}
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		var k Knobs
		f := reflect.ValueOf(&k).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(7)
		case reflect.Uint8:
			f.SetUint(2)
		case reflect.Float64:
			f.SetFloat(0.5)
		default:
			t.Fatalf("Knobs.%s has kind %v: teach this test to perturb it", typ.Field(i).Name, f.Kind())
		}
		// Perturbing field i must change entry i of the list, and only it.
		zero, got := Knobs{}.Fields(), k.Fields()
		for j := range got {
			if changed := got[j].Value != zero[j].Value; changed != (j == i) {
				t.Errorf("perturbing Knobs.%s: list entry %d (%s) changed = %t", typ.Field(i).Name, j, got[j].Name, changed)
			}
		}
		if seen[got[i].Name] {
			t.Errorf("duplicate field name %q", got[i].Name)
		}
		seen[got[i].Name] = true
		if k.String() == (Knobs{}).String() || k.Fingerprint() == (Knobs{}).Fingerprint() {
			t.Errorf("Knobs.%s does not reach String/Fingerprint", typ.Field(i).Name)
		}
	}
}
