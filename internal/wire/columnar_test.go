package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
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
			if !types.SameKey(g, w) {
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
	for name, col := range columnEdgeCases() {
		rows := make([]storage.Row, len(col))
		for i, v := range col {
			rows[i] = storage.Row{types.NewInt(int64(i)), v}
		}
		cases[name] = &Response{Cols: []string{"id", "v"}, Rows: rows}
	}
	for name, resp := range cases {
		t.Run(name, func(t *testing.T) {
			roundTripV2(t, resp, false)
			roundTripV2(t, resp, true)
		})
	}
}

// tenth is a variable so that tenth+0.2 is float64 arithmetic,
// 0.30000000000000004, not the exact constant 0.3.
var tenth = 0.1

// columnEdgeCases are single columns on the edges of the text and float
// encodings: names that share prefixes or repeat, and floats that do or
// do not hold a short decimal.
func columnEdgeCases() map[string][]types.Value {
	text := func(ss ...string) []types.Value {
		vs := make([]types.Value, len(ss))
		for i, s := range ss {
			vs[i] = types.NewText(s)
		}
		return vs
	}
	floats := func(fs ...float64) []types.Value {
		vs := make([]types.Value, len(fs))
		for i, f := range fs {
			vs[i] = types.NewFloat(f)
		}
		return vs
	}
	var distinct, half []string
	for i := 0; i < 300; i++ {
		distinct = append(distinct, fmt.Sprintf("Assy1%05d", i))
		half = append(half, fmt.Sprintf("Part%d", i/2))
	}
	long := strings.Repeat("x", 511)
	var grown []string // each value adds 3 bytes to a 1 KiB prefix: too much text to front-code
	for i := 0; i < 300; i++ {
		grown = append(grown, fmt.Sprintf("%s%03d", long+long, i))
	}
	nullRuns := text("a", "b")
	nullRuns = append([]types.Value{types.Null, types.Null}, nullRuns...)
	nullRuns = append(nullRuns, types.Null, types.Null, types.Null, types.NewText("b"), types.Null)
	cases := map[string][]types.Value{
		"text all distinct shared prefixes": text(distinct...),
		"text few all distinct":             text(distinct[:5]...),
		"text half distinct":                text(half...),
		"text half distinct small":          text("a", "a", "b", "b"),
		"text just over half distinct":      text("a", "a", "b", "c"),
		"text empty between values":         text("Assy10", "", "Assy11", "", "", "Assy12"),
		"text prefix of previous":           text("Assy10", "Assy1", "Assy", "Assy1", "Assy10", "Assy100"),
		"text 512-byte values":              text(long+"a", long+"b", long+"b", "x"+long, long+"c"),
		"text past maxFrontGrowth":          text(grown...),
		"text utf8 split at prefix":         text("aΩb", "aΨb", "aΨ", "a", "Ω", "Ψ"),
		"text null runs":                    nullRuns,
		"float 7.06":                        floats(7.06),
		"float 0.502":                       floats(0.502),
		"float 1e-8":                        floats(1e-8),
		"float 123456789.123":               floats(123456789.123),
		"float 2^53":                        floats(1 << 53),
		"float -0.0":                        floats(math.Copysign(0, -1)),
		"float NaN":                         floats(math.NaN()),
		"float +Inf":                        floats(math.Inf(1)),
		"float -Inf":                        floats(math.Inf(-1)),
		"float smallest subnormal":          floats(math.SmallestNonzeroFloat64),
		"float MaxFloat64":                  floats(math.MaxFloat64),
		"float 0.1+0.2":                     floats(tenth + 0.2),
		"float decimal weights":             floats(7.06, 0.502, 12.5, -3.25, 0, 100, 7.06),
		"float mixed exponents":             floats(7.06, 1e-8, 0.502, -42),
		"float one value needs e=9":         floats(7.06, 0.502, 1.000000001, 3),
		"float decimal then -0.0":           floats(7.06, math.Copysign(0, -1), 0.5),
		"float decimal with nulls":          append(floats(1.5, 2.25), types.Null, types.NewFloat(-0.125), types.Null),
		"float 2^53 beside a decimal":       floats(1<<53, 0.5),
	}
	return cases
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
// succeeds, re-encoding and re-decoding must give back the same values.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(EncodeResponse(nodeShapedResult(5)))
	f.Add(CompressBody(EncodeResponse(nodeShapedResult(64)), 1))
	f.Add(EncodeResponse(&Response{Err: "no such table"}))
	f.Add(hostileResult(TypeResult, 0, nil, 50_000_000))
	f.Add(EncodeResponseV2(nodeShapedResult(5)))
	f.Add(CompressBody(EncodeResponseV2(nodeShapedResult(64)), 1))
	f.Add([]byte{TypeResultV2, 0, 0, 0})
	f.Add([]byte{TypeCompressed, 200, 1, 2, 3})
	f.Add(EncodeResponseV2(queryShapedResult(40)))
	f.Add(CompressBody(EncodeResponseV2(queryShapedResult(300)), 1))
	for _, frame := range hostileColumnFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := MaybeDecompress(data)
		if err != nil {
			return
		}
		resp, err := DecodeResponse(body)
		if err != nil || resp.Err != "" {
			return
		}
		if err := rowsCapped(resp); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeResponse(EncodeResponseV2(resp))
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		respEqual(t, again, resp)
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

// rowsCapped reports a decoded row whose length or capacity is not its
// response's column count.
func rowsCapped(resp *Response) error {
	for i, row := range resp.Rows {
		if len(row) != len(resp.Cols) || cap(row) != len(resp.Cols) {
			return fmt.Errorf("row %d has len %d, cap %d; want both %d", i, len(row), cap(row), len(resp.Cols))
		}
	}
	return nil
}

// TestDecodedRowsStayCapped: whatever the rows of a decoded result
// share, each is capped at its columns, so appending to one row cannot
// write into the next — in v1 and v2 frames and in both kinds of batch
// sub-frame.
func TestDecodedRowsStayCapped(t *testing.T) {
	want := nodeShapedResult(10)
	decoded := map[string]*Response{}
	for name, frame := range map[string][]byte{"v1": EncodeResponse(want), "v2": EncodeResponseV2(want)} {
		resp, err := DecodeResponse(frame)
		if err != nil {
			t.Fatal(err)
		}
		decoded[name] = resp
	}
	for _, columnar := range []bool{false, true} {
		resps, err := DecodeBatchResponse(EncodeBatchResponseWith([]*Response{want, want}, columnar))
		if err != nil {
			t.Fatal(err)
		}
		for i, resp := range resps {
			decoded[fmt.Sprintf("batch(columnar=%v)[%d]", columnar, i)] = resp
		}
	}
	for name, resp := range decoded {
		respEqual(t, resp, want)
		if err := rowsCapped(resp); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		next := slices.Clone(resp.Rows[1])
		_ = append(resp.Rows[0], types.NewInt(-1))
		if !slices.Equal(resp.Rows[1], next) {
			t.Errorf("%s: appending to row 0 changed row 1 to %v", name, resp.Rows[1])
		}
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

// queryShapedResult builds n rows shaped like the Query action's answer
// on a generated product (core.BuildQueryAll): ascending unique
// Assy1NNNNN names, weights with 2 or 3 decimals, five low-cardinality
// text columns, a constant 512-B pad, a constant path option and five
// all-NULL link columns.
func queryShapedResult(n int) *Response {
	rng := rand.New(rand.NewSource(7))
	pad := types.NewText(strings.Repeat("x", 512))
	null := types.Null
	rows := make([]storage.Row, n)
	for i := range rows {
		typ, dec, mob, material := "assy", "+", "make", ""
		weight := fmt.Sprintf("%.2f", 0.5+rng.Float64()*10)
		if i%2 == 1 {
			typ, dec, mob = "comp", "", ""
			material = []string{"steel", "aluminium", "plastic", "rubber"}[rng.Intn(4)]
			weight = fmt.Sprintf("%.3f", 0.01+rng.Float64())
		} else if rng.Intn(5) == 0 {
			mob = "buy"
		}
		w, err := strconv.ParseFloat(weight, 64)
		if err != nil {
			panic(err)
		}
		rows[i] = storage.Row{
			types.NewText(typ), types.NewInt(int64(100_001 + i)), types.NewText(fmt.Sprintf("Assy1%05d", i+1)),
			types.NewText(dec), types.NewText(mob), types.NewText("released"), types.NewText(material),
			types.NewFloat(w), types.NewBool(false), pad, types.NewText("base"),
			null, null, null, null, null,
		}
	}
	return &Response{
		Cols: []string{"type", "obid", "name", "dec", "make_or_buy", "state", "material", "weight",
			"checkedout", "data", "path_opt", "left", "right", "eff_from", "eff_to", "strc_opt"},
		Rows:  rows,
		Epoch: 3,
	}
}

// columnEncodings decodes a v2 frame column by column and returns the
// encoding byte each column was shipped with.
func columnEncodings(t *testing.T, body []byte) []byte {
	t.Helper()
	b := body[1+8+4:]
	ncols, b, err := readUint32(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < ncols; i++ {
		if _, b, err = readString(b); err != nil {
			t.Fatal(err)
		}
	}
	nrows, b, err := readUint32(b)
	if err != nil {
		t.Fatal(err)
	}
	rows := cutRows(int(nrows), int(ncols))
	var encs []byte
	budget := maxFrontGrowth * len(body)
	for col := 0; col < int(ncols); col++ {
		encs = append(encs, b[0])
		if b, err = decodeColumn(b, rows, col, &budget, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(b) != 0 {
		t.Fatalf("%d bytes after the last column", len(b))
	}
	return encs
}

// TestColumnEncodingChoice pins the encoding each column of a
// Query-sized frame takes (3,280 rows, the visible nodes of the δ=7/β=5
// product): the unique names front-coded, the weights as decimals, the
// repeated strings and the pad as dictionaries. That halves the frame.
func TestColumnEncodingChoice(t *testing.T) {
	resp := queryShapedResult(3280)
	want := map[string]byte{
		"type": colEncText, "obid": colEncInt, "name": colEncFront, "dec": colEncText,
		"make_or_buy": colEncText, "state": colEncText, "material": colEncText, "weight": colEncDecimal,
		"checkedout": colEncBool, "data": colEncText, "path_opt": colEncText,
		"left": colEncMixed, "right": colEncMixed, "eff_from": colEncMixed, "eff_to": colEncMixed, "strc_opt": colEncMixed,
	}
	body := EncodeResponseV2(resp)
	for i, enc := range columnEncodings(t, body) {
		if enc != want[resp.Cols[i]] {
			t.Errorf("column %s shipped with encoding %d, want %d", resp.Cols[i], enc, want[resp.Cols[i]])
		}
	}
	if len(body) > 60_000 {
		t.Errorf("Query-shaped v2 frame is %d B, want at most 60,000", len(body))
	}
	// The dictionary rule's edges: 256 distinct values stay a dictionary
	// and 257 do not; half the values distinct stays one, more does not.
	texts := func(n, distinct int) *Response {
		rows := make([]storage.Row, n)
		for i := range rows {
			rows[i] = storage.Row{types.NewText(fmt.Sprintf("s%d", i%distinct))}
		}
		return &Response{Cols: []string{"v"}, Rows: rows}
	}
	// 300 distinct values that share a prefix of the given length: past
	// maxFrontGrowth times its bytes, the column ships each value whole.
	prefixed := func(prefix int) *Response {
		rows := make([]storage.Row, 300)
		for i := range rows {
			rows[i] = storage.Row{types.NewText(fmt.Sprintf("%s%03d", strings.Repeat("x", prefix), i))}
		}
		return &Response{Cols: []string{"v"}, Rows: rows}
	}
	floats := func(fs ...float64) *Response {
		rows := make([]storage.Row, len(fs))
		for i, f := range fs {
			rows[i] = storage.Row{types.NewFloat(f)}
		}
		return &Response{Cols: []string{"v"}, Rows: rows}
	}
	for name, c := range map[string]struct {
		resp *Response
		want byte
	}{
		"256 distinct":           {texts(1024, 256), colEncText},
		"257 distinct":           {texts(1024, 257), colEncFront},
		"half distinct":          {texts(8, 4), colEncText},
		"over half distinct":     {texts(7, 4), colEncFront},
		"one value":              {texts(1, 1), colEncFront},
		"50-byte shared prefix":  {prefixed(50), colEncFront},
		"1 KiB shared prefix":    {prefixed(1024), colEncMixed},
		"integral floats":        {floats(1, -2, 1<<53), colEncDecimal},
		"e=8":                    {floats(7.06, 1e-8), colEncDecimal},
		"e=9":                    {floats(7.06, 1.000000001), colEncFloat},
		"beyond 2^53":            {floats(1<<53 + 2), colEncFloat},
		"2^53 needs e=1 for 0.5": {floats(1<<53, 0.5), colEncFloat},
		"-0.0":                   {floats(1, math.Copysign(0, -1)), colEncFloat},
		"NaN":                    {floats(math.NaN()), colEncFloat},
		"Inf":                    {floats(math.Inf(-1)), colEncFloat},
		"subnormal":              {floats(math.SmallestNonzeroFloat64), colEncFloat},
		"0.1+0.2":                {floats(tenth + 0.2), colEncFloat},
	} {
		if got := columnEncodings(t, EncodeResponseV2(c.resp))[0]; got != c.want {
			t.Errorf("%s: encoding %d, want %d", name, got, c.want)
		}
	}
}

// hostileColumnFrames are v2 frames with one column whose front-coded
// or decimal body lies: each must be refused.
func hostileColumnFrames() map[string][]byte {
	frame := func(nrows uint32, enc byte, body ...byte) []byte {
		b := append(hostileResult(TypeResultV2, 1, []string{"a"}, nrows), enc)
		b = append(b, make([]byte, (nrows+7)/8)...)
		return append(b, body...)
	}
	return map[string][]byte{
		"prefix longer than the previous value": frame(2, colEncFront, 0, 3, 'a', 'b', 'c', 4, 0),
		"prefix on the first value":             frame(1, colEncFront, 1, 0),
		"suffix past the frame":                 frame(1, colEncFront, 0, 100, 'a', 'b'),
		"suffix length truncated":               frame(1, colEncFront, 0),
		"exponent 9":                            frame(1, colEncDecimal, 9, 2),
		"exponent 255":                          frame(1, colEncDecimal, 255, 2),
		"no exponent":                           frame(1, colEncDecimal),
		"mantissa truncated":                    frame(2, colEncDecimal, 2, 4),
	}
}

// growingColumn is a front-coded column body of rows values: a first
// value of first bytes, then values that each repeat all of the previous
// one and add a byte. It returns the text the values decode to.
func growingColumn(first, rows int) (body []byte, text int) {
	body = append([]byte{colEncFront}, make([]byte, (rows+7)/8)...)
	body = binary.AppendUvarint(append(body, 0), uint64(first))
	body = append(body, make([]byte, first)...)
	for i := 0; i < rows; i++ {
		if i > 0 {
			body = binary.AppendUvarint(body, uint64(first+i-1))
			body = append(body, 1, 'x')
		}
		text += first + i
	}
	return body, text
}

// TestColumnarDecodeHostileColumns: every lying field of the new column
// encodings gets an error, and front-coded columns whose text together
// exceeds maxFrontGrowth times the frame are refused, having allocated
// no more than that beside the cells.
func TestColumnarDecodeHostileColumns(t *testing.T) {
	for name, frame := range hostileColumnFrames() {
		if _, err := DecodeResponse(frame); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	frame := func(ncols, first, rows int) (frame []byte, colText int) {
		frame = hostileResult(TypeResultV2, uint32(ncols), make([]string, ncols), uint32(rows))
		for range ncols {
			col, text := growingColumn(first, rows)
			frame, colText = append(frame, col...), text
		}
		return frame, colText
	}
	refused := func(name string, frame []byte, ncols, rows int) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := DecodeResponse(frame); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		runtime.ReadMemStats(&after)
		cells := rows * (24 + 32*ncols) // a row's slice header and its values
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(maxFrontGrowth*len(frame)+cells); grew > limit {
			t.Errorf("%s: refusing the frame allocated %d bytes, over %d", name, grew, limit)
		}
	}
	// 64 KiB, then 1,100 values that each add a byte: 70 MiB of text
	// from a 70 KiB frame.
	one, _ := frame(1, 64<<10, 1100)
	refused("one growing column", one, 1, 1100)
	// Four columns, each with text under what the frame may decode to,
	// that together exceed it.
	four, text := frame(4, 1<<10, 60)
	if budget := maxFrontGrowth * len(four); text >= budget || 4*text <= budget {
		t.Fatalf("each column decodes to %d bytes: want under %d, and over it together", text, budget)
	}
	refused("four columns", four, 4, 60)
}

// TestResultHeaderDecodesInOnePiece: a result header's column names
// cost two allocations however many there are — their slice, sized from
// the column count, and one copy of the header they are cut from — in
// v1 and v2 frames and in a batch's sub-frames alike.
func TestResultHeaderDecodesInOnePiece(t *testing.T) {
	cols := make([]string, 16)
	for i := range cols {
		cols[i] = fmt.Sprintf("column_%d", i)
	}
	cost := func(frame []byte, decode func([]byte) (int, error)) float64 {
		return testing.AllocsPerRun(50, func() {
			if n, err := decode(frame); err != nil || n != len(cols) {
				t.Fatalf("decoded %d columns, error %v; want %d", n, err, len(cols))
			}
		})
	}
	one := func(b []byte) (int, error) {
		resp, err := DecodeResponse(b)
		if err != nil {
			return 0, err
		}
		return len(resp.Cols), nil
	}
	batch := func(b []byte) (int, error) {
		resps, err := DecodeBatchResponse(b)
		if err != nil || len(resps) != 1 {
			return 0, err
		}
		return len(resps[0].Cols), nil
	}
	// A frame without rows costs its Response and its header; a batch of
	// one adds the slice of responses.
	for _, columnar := range []bool{false, true} {
		resp := &Response{Cols: cols}
		if got := cost(EncodeResponseWith(resp, columnar), one); got > 1+2 {
			t.Errorf("columnar=%v: %.0f allocations for a 16-column header, want at most 2 beyond the Response", columnar, got)
		}
		if got := cost(EncodeBatchResponseWith([]*Response{resp}, columnar), batch); got > 2+2 {
			t.Errorf("columnar=%v batch: %.0f allocations for a 16-column sub-frame header, want at most 2 beyond the Responses", columnar, got)
		}
	}
}

var rowsSink []storage.Row

// TestIntegerFrameCopiesNoCells: a frame without text decodes into its
// rows and one copy of its header; keeping the column names copies none
// of the cells, in v1 and v2 frames alike.
func TestIntegerFrameCopiesNoCells(t *testing.T) {
	const nrows = 4096
	resp := &Response{Cols: []string{"id", "parent"}}
	for i := range nrows {
		resp.Rows = append(resp.Rows, storage.Row{types.NewInt(int64(i) << 20), types.NewInt(int64(i / 2))})
	}
	bytesPerRun := func(f func()) uint64 {
		const runs = 20
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	rows := bytesPerRun(func() { rowsSink = cutRows(nrows, len(resp.Cols)) })
	for _, columnar := range []bool{false, true} {
		frame := EncodeResponseWith(resp, columnar)
		got := bytesPerRun(func() {
			out, err := DecodeResponse(frame)
			if err != nil || len(out.Rows) != nrows {
				t.Fatalf("columnar=%v: decode error %v", columnar, err)
			}
			rowsSink = out.Rows
		})
		// The Response, the names and their header: a few hundred bytes.
		if got > rows+512 {
			t.Errorf("columnar=%v: decoding a %d-byte integer frame allocates %d bytes, its rows %d", columnar, len(frame), got, rows)
		}
	}
}
