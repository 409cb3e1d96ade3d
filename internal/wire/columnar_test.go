package wire

import (
	"math"
	"math/rand"
	"testing"

	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
)

// respEqual compares two responses value by value (NULL equals NULL —
// this is codec identity, not SQL equality). NaN floats compare by bit
// pattern so a round-tripped NaN still counts as identical.
func respEqual(t *testing.T, got, want *Response) {
	t.Helper()
	if got.Err != want.Err || got.Epoch != want.Epoch || got.RowsAffected != want.RowsAffected {
		t.Fatalf("header mismatch: got %+v, want %+v", got, want)
	}
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("cols: got %d, want %d", len(got.Cols), len(want.Cols))
	}
	for i := range want.Cols {
		if got.Cols[i] != want.Cols[i] {
			t.Fatalf("col %d: got %q, want %q", i, got.Cols[i], want.Cols[i])
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows: got %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("row %d width: got %d, want %d", i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j := range want.Rows[i] {
			g, w := got.Rows[i][j], want.Rows[i][j]
			if g.Kind() != w.Kind() {
				t.Fatalf("row %d col %d kind: got %v, want %v", i, j, g.Kind(), w.Kind())
			}
			if g.Kind() == types.KindFloat {
				if math.Float64bits(g.Float()) != math.Float64bits(w.Float()) {
					t.Fatalf("row %d col %d float bits differ", i, j)
				}
				continue
			}
			if !g.Equal(w) {
				t.Fatalf("row %d col %d: got %v, want %v", i, j, g, w)
			}
		}
	}
}

// roundTripV2 encodes with the columnar codec (optionally deflated) and
// decodes through the same path the client uses.
func roundTripV2(t *testing.T, resp *Response, compress bool) {
	t.Helper()
	body := EncodeResponseV2(resp)
	if compress {
		body = CompressBody(body, 1)
		inflated, err := MaybeDecompress(body)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		body = inflated
	}
	got, err := DecodeResponse(body)
	if err != nil {
		t.Fatalf("decode v2: %v", err)
	}
	respEqual(t, got, resp)
}

func TestColumnarRoundTripEdgeCases(t *testing.T) {
	cases := map[string]*Response{
		"empty result": {Cols: []string{"a", "b"}, Epoch: 7},
		"no cols no rows": {
			RowsAffected: 42, Epoch: 1,
		},
		"single row": {
			Cols: []string{"ob_id", "name"},
			Rows: []storage.Row{{types.NewInt(-9), types.NewText("root")}},
		},
		"all null column": {
			Cols: []string{"a", "b"},
			Rows: []storage.Row{
				{types.Null, types.NewInt(1)},
				{types.Null, types.NewInt(2)},
				{types.Null, types.NewInt(3)},
			},
		},
		"every row null": {
			Cols: []string{"a"},
			Rows: []storage.Row{{types.Null}, {types.Null}},
		},
		"mixed kinds in one column": {
			Cols: []string{"v"},
			Rows: []storage.Row{
				{types.NewInt(1)},
				{types.NewText("two")},
				{types.NewFloat(3.5)},
				{types.NewBool(true)},
				{types.Null},
			},
		},
		"int64 extremes": {
			Cols: []string{"v"},
			Rows: []storage.Row{
				{types.NewInt(math.MaxInt64)},
				{types.NewInt(math.MinInt64)},
				{types.NewInt(0)},
				{types.NewInt(math.MaxInt64)},
				{types.NewInt(-1)},
			},
		},
		"float specials": {
			Cols: []string{"v"},
			Rows: []storage.Row{
				{types.NewFloat(math.Inf(1))},
				{types.NewFloat(math.Inf(-1))},
				{types.NewFloat(math.NaN())},
				{types.NewFloat(math.Copysign(0, -1))},
			},
		},
		"bools with nulls": {
			Cols: []string{"v"},
			Rows: []storage.Row{
				{types.NewBool(true)}, {types.Null}, {types.NewBool(false)},
				{types.NewBool(true)}, {types.NewBool(true)}, {types.Null},
				{types.NewBool(false)}, {types.NewBool(true)}, {types.NewBool(false)},
			},
		},
		"empty and repeated strings": {
			Cols: []string{"v"},
			Rows: []storage.Row{
				{types.NewText("")}, {types.NewText("assy")}, {types.NewText("")},
				{types.NewText("assy")}, {types.NewText("released")},
			},
		},
	}
	for name, resp := range cases {
		t.Run(name, func(t *testing.T) {
			roundTripV2(t, resp, false)
			roundTripV2(t, resp, true)
		})
	}
}

// randomValue draws a value; kindBias < 0 mixes kinds freely, otherwise
// the column sticks to one kind with occasional NULLs (the typed-column
// encodings).
func randomValue(rng *rand.Rand, kindBias int) types.Value {
	if rng.Intn(6) == 0 {
		return types.Null
	}
	kind := kindBias
	if kind < 0 {
		kind = rng.Intn(4)
	}
	switch kind {
	case 0:
		// Near-monotone with occasional wild jumps, like sequence ids.
		if rng.Intn(10) == 0 {
			return types.NewInt(rng.Int63() - rng.Int63())
		}
		return types.NewInt(int64(rng.Intn(1 << 20)))
	case 1:
		if rng.Intn(10) == 0 {
			return types.NewFloat(math.NaN())
		}
		return types.NewFloat(rng.NormFloat64() * 1e6)
	case 2:
		words := []string{"", "assy", "part", "released", "in-work", "Ω-unicode-Ω", "x"}
		if rng.Intn(4) == 0 {
			buf := make([]byte, rng.Intn(40))
			rng.Read(buf)
			return types.NewText(string(buf))
		}
		return types.NewText(words[rng.Intn(len(words))])
	default:
		return types.NewBool(rng.Intn(2) == 0)
	}
}

// TestColumnarRoundTripProperty round-trips hundreds of randomized
// result shapes through the columnar codec and the deflate wrapper:
// whatever the server can produce, the client must decode back
// identically.
func TestColumnarRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	for iter := 0; iter < 400; iter++ {
		ncols := 1 + rng.Intn(6)
		nrows := rng.Intn(50)
		if iter%17 == 0 {
			nrows = 1 // single-row frames get their own weight
		}
		cols := make([]string, ncols)
		biases := make([]int, ncols)
		for j := range cols {
			cols[j] = string(rune('a' + j))
			biases[j] = rng.Intn(6) - 1 // -1 mixes kinds, 4 is bool-with-bias
			if biases[j] > 3 {
				biases[j] = -1
			}
		}
		rows := make([]storage.Row, nrows)
		for i := range rows {
			rows[i] = make(storage.Row, ncols)
			for j := range rows[i] {
				rows[i][j] = randomValue(rng, biases[j])
			}
		}
		resp := &Response{
			Cols:         cols,
			Rows:         rows,
			RowsAffected: rng.Intn(100),
			Epoch:        rng.Uint64(),
		}
		roundTripV2(t, resp, iter%2 == 0)
	}
}

// TestColumnarSmallerThanV1 pins the point of the exercise: on
// node-shaped rows (monotone ids, few distinct strings) the columnar
// frame is a fraction of the row-major one, and deflate shrinks it
// further.
func TestColumnarSmallerThanV1(t *testing.T) {
	resp := nodeShapedResult(2000)
	v1 := EncodeResponse(resp)
	v2 := EncodeResponseV2(resp)
	if len(v2)*2 > len(v1) {
		t.Errorf("columnar frame %d B not at least 2x smaller than v1 %d B", len(v2), len(v1))
	}
	v2z := CompressBody(v2, 0)
	if len(v2z)*5 > len(v1) {
		t.Errorf("columnar+deflate frame %d B not at least 5x smaller than v1 %d B", len(v2z), len(v1))
	}
}

// TestColumnarDecodeCorrupt feeds the decoder truncations and corrupt
// headers of a valid frame: every one must error, none may panic or
// over-allocate.
func TestColumnarDecodeCorrupt(t *testing.T) {
	resp := nodeShapedResult(16)
	body := EncodeResponseV2(resp)
	for cut := 1; cut < len(body); cut += 7 {
		if _, err := DecodeResponse(body[:cut]); err == nil {
			// Some truncations still parse when they cut exactly at a
			// column boundary and the remaining columns decode NULL —
			// but the frame records ncols, so that cannot happen: any
			// strict prefix must fail.
			t.Fatalf("truncated frame of %d bytes decoded without error", cut)
		}
	}
	// A frame claiming 2^31 rows with a 20-byte body must be rejected
	// before any allocation.
	huge := []byte{TypeResultV2}
	huge = appendUint64(huge, 0)
	huge = appendUint32(huge, 0)
	huge = appendUint32(huge, 1)
	huge = appendString(huge, "a")
	huge = appendUint32(huge, 1<<31-1)
	huge = append(huge, colEncMixed, 0, 0)
	if _, err := DecodeResponse(huge); err == nil {
		t.Fatal("absurd row count decoded without error")
	}
	// Rows without columns cannot be represented, in either encoding: a
	// v1 frame like this once decoded into as many empty rows as it
	// claimed (50 M of them from 21 bytes).
	for _, typ := range []byte{TypeResultV2, TypeResult} {
		if _, err := DecodeResponse(hostileResult(typ, 0, nil, 50_000_000)); err == nil {
			t.Fatalf("rows-without-columns frame (type %#x) decoded without error", typ)
		}
	}
	// v1 trusts neither count: a column count or a rows x cols product
	// beyond the bytes present is rejected before it sizes an allocation.
	for _, frame := range [][]byte{
		hostileResult(TypeResult, 1<<30, nil, 0),
		append(hostileResult(TypeResult, 1, []string{"a"}, 1<<31-1), 0),
	} {
		if _, err := DecodeResponse(frame); err == nil {
			t.Fatalf("hostile v1 frame % x decoded without error", frame)
		}
	}
}

// hostileResult is a result frame header claiming ncols columns (only
// the named ones follow) and nrows rows (none follow).
func hostileResult(typ byte, ncols uint32, names []string, nrows uint32) []byte {
	b := []byte{typ}
	b = appendUint64(b, 0)
	b = appendUint32(b, 0)
	b = appendUint32(b, ncols)
	for _, name := range names {
		b = appendString(b, name)
	}
	return appendUint32(b, nrows)
}

// FuzzDecodeResponse throws arbitrary bytes at the full response decode
// path (deflate wrapper included): it must never panic, and whenever it
// succeeds, re-encoding and re-decoding must be stable.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(EncodeResponse(nodeShapedResult(5)))
	f.Add(CompressBody(EncodeResponse(nodeShapedResult(64)), 1))
	f.Add(EncodeResponse(&Response{Err: "no such table"}))
	f.Add(hostileResult(TypeResult, 0, nil, 50_000_000))
	f.Add(EncodeResponseV2(nodeShapedResult(5)))
	f.Add(CompressBody(EncodeResponseV2(nodeShapedResult(64)), 1))
	f.Add([]byte{TypeResultV2, 0, 0, 0})
	f.Add([]byte{TypeCompressed, 200, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := MaybeDecompress(data)
		if err != nil {
			return
		}
		resp, err := DecodeResponse(body)
		if err != nil || resp.Err != "" {
			return
		}
		again, err := DecodeResponse(EncodeResponseV2(resp))
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if len(again.Rows) != len(resp.Rows) || len(again.Cols) != len(resp.Cols) {
			t.Fatalf("re-encode changed shape: %dx%d -> %dx%d",
				len(resp.Rows), len(resp.Cols), len(again.Rows), len(again.Cols))
		}
	})
}

// nodeShapedResult builds a result shaped like the PDM expand answers:
// near-monotone int ids, a handful of distinct type/state strings, a
// float quantity, a nullable text column.
func nodeShapedResult(n int) *Response {
	typeNames := []string{"assy", "part", "drawing", "document"}
	states := []string{"released", "in-work", "frozen"}
	rows := make([]storage.Row, n)
	for i := range rows {
		var doc types.Value = types.Null
		if i%3 == 0 {
			doc = types.NewText("spec")
		}
		rows[i] = storage.Row{
			types.NewInt(int64(1000 + i)),
			types.NewInt(int64(1000 + i/5)),
			types.NewText(typeNames[i%len(typeNames)]),
			types.NewText(states[i%len(states)]),
			types.NewFloat(float64(i) * 0.25),
			doc,
		}
	}
	return &Response{
		Cols:  []string{"ob_id", "parent", "ob_type", "state", "qty", "doc"},
		Rows:  rows,
		Epoch: 99,
	}
}

// TestBatchResponseColumnarSubFrames checks the batch path: v2 result
// sub-frames decode through the standard batch decode.
func TestBatchResponseColumnarSubFrames(t *testing.T) {
	resps := []*Response{
		nodeShapedResult(10),
		{Cols: []string{"n"}, Rows: []storage.Row{{types.NewInt(1)}}},
		{Err: "boom"},
	}
	body := EncodeBatchResponseWith(resps, true)
	if body[0] != TypeBatchResp {
		t.Fatalf("not a batch response frame")
	}
	got, err := DecodeBatchResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2].Err != "boom" {
		t.Fatalf("batch round trip: %+v", got)
	}
	respEqual(t, got[0], resps[0])
	respEqual(t, got[1], resps[1])
}
