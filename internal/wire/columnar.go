package wire

// Columnar result encoding (TypeResultV2). The row-major v1 result frame
// repeats a value tag per cell and the full text of every repeated
// string — for PDM node rows (monotone-ish int64 ids, a handful of
// distinct type/state names) that is most of the cold-path response
// volume. The v2 frame encodes each column once:
//
//   - a null bitmap per column replaces per-value NULL tags,
//   - integer columns ship zigzag-varint deltas (ids assigned by a
//     sequence are near-monotone, so deltas are 1-2 bytes),
//   - a text column with at most maxDictLen distinct values, at most
//     half its non-null values, ships a dictionary plus a varint index
//     per value (type names and states travel once); any other is
//     front-coded: per value, the length of the prefix it shares with
//     the previous one, the suffix length and the suffix — unless its
//     text is more than maxFrontGrowth times those bytes, when each
//     value ships whole (colEncMixed),
//   - a float column whose values are all m / 10^e, for one e in 0..8
//     and integers |m| <= 2^53, ships e once and each m as a zigzag
//     varint (2-3 bytes for a weight with 2-3 decimals); any other
//     ships raw IEEE 754 bits,
//   - bool columns drop their per-value tags,
//   - columns mixing kinds fall back to the v1 per-value encoding.
//
// Decoding reproduces the exact same Response — same Values, same row
// order — so the PDM layers above cannot tell the encodings apart
// except through the meter.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
)

// Column encodings of the v2 frame.
const (
	colEncMixed   = 0 // v1 per-value tagged encoding (kind varies or unknown)
	colEncInt     = 1 // zigzag varint deltas
	colEncText    = 2 // dictionary + varint indexes
	colEncFloat   = 3 // raw 8-byte IEEE 754 bits
	colEncBool    = 4 // value bitmap
	colEncFront   = 5 // text: shared-prefix length, suffix length, suffix
	colEncDecimal = 6 // float: exponent e, then each value times 10^e as a zigzag varint
)

// maxDictLen is the most distinct values a text dictionary holds.
const maxDictLen = 256

// maxFrontGrowth bounds the text a frame's front-coded columns decode
// to, as a multiple of the frame's length: a decoder refuses more, so
// a small frame cannot make it allocate much.
const maxFrontGrowth = 32

// pow10 holds the scales colEncDecimal may use, 10^e for e in 0..8.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// colBuilder is the scratch state of one text-column encode: the
// dictionary, its order and each non-null row's index. All recycle via
// colBuilders — a busy columnar server builds one per text column per
// response, and the map alone is several allocations to rebuild.
type colBuilder struct {
	dict  map[string]uint64
	order []string
	idx   []uint64
}

var colBuilders = sync.Pool{
	New: func() any { return &colBuilder{dict: make(map[string]uint64, 16)} },
}

// release clears the builder (dropping its string references so row
// text cannot be pinned by the pool) and recycles it.
func (cb *colBuilder) release() {
	clear(cb.dict)
	clear(cb.order)
	cb.order = cb.order[:0]
	cb.idx = cb.idx[:0]
	colBuilders.Put(cb)
}

// build fills the dictionary and the row indexes and reports whether the
// dictionary pays. It stops at the first value past maxDictLen.
func (cb *colBuilder) build(rows []storage.Row, col int) bool {
	prev := ""
	for _, row := range rows {
		if row[col].IsNull() {
			continue
		}
		s := row[col].Text()
		if len(cb.idx) > 0 && s == prev {
			cb.idx = append(cb.idx, cb.idx[len(cb.idx)-1])
			continue
		}
		i, ok := cb.dict[s]
		if !ok {
			if len(cb.order) == maxDictLen {
				return false
			}
			i = uint64(len(cb.order))
			cb.dict[s] = i
			cb.order = append(cb.order, s)
		}
		cb.idx = append(cb.idx, i)
		prev = s
	}
	return 2*len(cb.order) <= len(cb.idx)
}

// decimalMantissa returns the m with m / 10^e == v bit for bit and
// |m| <= 2^53, if any. NaN, ±Inf, -0.0 and subnormals have none.
func decimalMantissa(v float64, e int) (int64, bool) {
	x := math.Round(v * pow10[e])
	m := int64(x) // any value when x is NaN or beyond int64; the test below fails then
	return m, math.Abs(x) <= 1<<53 && math.Float64bits(float64(m)/pow10[e]) == math.Float64bits(v)
}

// decimalExponent returns the smallest e in 0..8 at which every value
// of the float column has a decimal mantissa (NULL reads as 0), if any.
func decimalExponent(rows []storage.Row, col int) (int, bool) {
next:
	for e := range pow10 {
		for _, row := range rows {
			if _, ok := decimalMantissa(row[col].Float(), e); !ok {
				continue next
			}
		}
		return e, true
	}
	return 0, false
}

// zigzag maps signed deltas to unsigned varint-friendly space.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// colEncodingFor picks the encoding of one column: the specific kind
// when every non-null value shares it, colEncMixed otherwise.
func colEncodingFor(rows []storage.Row, col int) byte {
	enc := byte(colEncMixed)
	seen := false
	for _, row := range rows {
		v := row[col]
		if v.IsNull() {
			continue
		}
		var e byte
		switch v.Kind() {
		case types.KindInt:
			e = colEncInt
		case types.KindText:
			e = colEncText
		case types.KindFloat:
			e = colEncFloat
		case types.KindBool:
			e = colEncBool
		default:
			return colEncMixed
		}
		if !seen {
			enc, seen = e, true
		} else if e != enc {
			return colEncMixed
		}
	}
	return enc
}

// appendNullBitmap writes the column's null bitmap: bit i set means
// row i's value is NULL.
func appendNullBitmap(b []byte, rows []storage.Row, col int) []byte {
	start := len(b)
	b = append(b, make([]byte, (len(rows)+7)/8)...)
	for i, row := range rows {
		if row[col].IsNull() {
			b[start+i/8] |= 1 << (i % 8)
		}
	}
	return b
}

// appendColumn encodes one column body: encoding byte, null bitmap,
// then the non-null values under the chosen encoding.
func appendColumn(b []byte, rows []storage.Row, col int) []byte {
	enc := colEncodingFor(rows, col)
	var cb *colBuilder
	exp := 0
	switch enc {
	case colEncText:
		cb = colBuilders.Get().(*colBuilder)
		defer cb.release()
		if !cb.build(rows, col) {
			enc = colEncFront
		}
	case colEncFloat:
		if e, ok := decimalExponent(rows, col); ok {
			enc, exp = colEncDecimal, e
		}
	}
	at := len(b)
	b = append(b, enc)
	b = appendNullBitmap(b, rows, col)
	switch enc {
	case colEncInt:
		prev := int64(0)
		for _, row := range rows {
			if row[col].IsNull() {
				continue
			}
			v := row[col].Int()
			// Wraparound delta: exact for every int64 pair.
			b = binary.AppendUvarint(b, zigzag(int64(uint64(v)-uint64(prev))))
			prev = v
		}
	case colEncText:
		b = binary.AppendUvarint(b, uint64(len(cb.order)))
		for _, s := range cb.order {
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		}
		for _, i := range cb.idx {
			b = binary.AppendUvarint(b, i)
		}
	case colEncFront:
		start, text, prev := len(b), 0, ""
		for _, row := range rows {
			if row[col].IsNull() {
				continue
			}
			s := row[col].Text()
			p := 0
			for p < len(prev) && p < len(s) && prev[p] == s[p] {
				p++
			}
			if p < len(s) { // a decoder builds the value anew
				text += len(s)
			}
			b = binary.AppendUvarint(b, uint64(p))
			b = binary.AppendUvarint(b, uint64(len(s)-p))
			b = append(b, s[p:]...)
			prev = s
		}
		if text > maxFrontGrowth*(len(b)-start) {
			b[at] = colEncMixed
			b = appendTagged(b[:start], rows, col)
		}
	case colEncDecimal:
		b = append(b, byte(exp))
		for _, row := range rows {
			if row[col].IsNull() {
				continue
			}
			m, _ := decimalMantissa(row[col].Float(), exp)
			b = binary.AppendUvarint(b, zigzag(m))
		}
	case colEncFloat:
		for _, row := range rows {
			if row[col].IsNull() {
				continue
			}
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(row[col].Float()))
		}
	case colEncBool:
		start := len(b)
		nonNull := 0
		for _, row := range rows {
			if !row[col].IsNull() {
				nonNull++
			}
		}
		b = append(b, make([]byte, (nonNull+7)/8)...)
		k := 0
		for _, row := range rows {
			if row[col].IsNull() {
				continue
			}
			if row[col].Bool() {
				b[start+k/8] |= 1 << (k % 8)
			}
			k++
		}
	default: // colEncMixed
		b = appendTagged(b, rows, col)
	}
	return b
}

// appendTagged appends the column's non-null values in the v1 per-value
// encoding.
func appendTagged(b []byte, rows []storage.Row, col int) []byte {
	for _, row := range rows {
		if !row[col].IsNull() {
			b = AppendValue(b, row[col])
		}
	}
	return b
}

// EncodeResponseV2 serializes a response frame body in the columnar v2
// layout. Error responses keep the v1 TypeError frame — there is
// nothing columnar about a message string. (Rows without columns,
// unreachable through SQL, are representable in neither encoding: both
// decoders reject the frame.)
func EncodeResponseV2(resp *Response) []byte {
	if resp.Err != "" {
		return EncodeResponse(resp)
	}
	b := append(getFrame(), TypeResultV2)
	b = appendUint64(b, resp.Epoch)
	b = appendUint32(b, uint32(resp.RowsAffected))
	b = appendUint32(b, uint32(len(resp.Cols)))
	for _, c := range resp.Cols {
		b = appendString(b, c)
	}
	b = appendUint32(b, uint32(len(resp.Rows)))
	for col := range resp.Cols {
		b = appendColumn(b, resp.Rows, col)
	}
	return b
}

// readUvarint reads one unsigned varint with bounds checking.
func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return v, b[n:], nil
}

// readFront reads one front-coded value's prefix length, checked
// against the previous value's length, and its suffix.
func readFront(b []byte, prevLen int) (prefix int, suffix, rest []byte, err error) {
	p, b, err := readUvarint(b)
	if err != nil {
		return 0, nil, nil, err
	}
	n, b, err := readUvarint(b)
	if err != nil {
		return 0, nil, nil, err
	}
	if p > uint64(prevLen) {
		return 0, nil, nil, fmt.Errorf("wire: front-coded prefix of %d bytes exceeds the previous value's %d", p, prevLen)
	}
	if n > uint64(len(b)) {
		return 0, nil, nil, io.ErrUnexpectedEOF
	}
	return int(p), b[:n], b[n:], nil
}

// decodeFront decodes a front-coded text column. The first pass checks
// it and charges its text to budget, what the frame's columns have left,
// refusing more before any allocation; the second builds the values in
// one string of that size, where a value without a suffix shares the
// previous one's bytes.
func decodeFront(b []byte, rows []storage.Row, col int, isNull func(int) bool, budget *int) ([]byte, error) {
	rest, prevLen, total := b, 0, 0
	for i := range rows {
		if isNull(i) {
			continue
		}
		p, suffix, r, err := readFront(rest, prevLen)
		if err != nil {
			return nil, err
		}
		if rest, prevLen = r, p+len(suffix); len(suffix) > 0 {
			if total += prevLen; total > *budget {
				return nil, fmt.Errorf("wire: front-coded text of more than %d times its frame", maxFrontGrowth)
			}
		}
	}
	*budget -= total
	var arena strings.Builder
	arena.Grow(total)
	prev := ""
	for i := range rows {
		if isNull(i) {
			rows[i][col] = types.Null
			continue
		}
		p, suffix, r, _ := readFront(b, len(prev))
		b, prev = r, prev[:p]
		if len(suffix) > 0 {
			from := arena.Len()
			arena.WriteString(prev)
			arena.Write(suffix)
			prev = arena.String()[from:]
		}
		rows[i][col] = types.NewText(prev)
	}
	return rest, nil
}

// decodeColumn parses one column body into the corresponding cells of
// the pre-allocated rows; a front-coded column's text is charged to
// budget, a mixed column's text is cut from text.
func decodeColumn(b []byte, rows []storage.Row, col int, budget *int, text *frameText) ([]byte, error) {
	if len(b) < 1 {
		return nil, io.ErrUnexpectedEOF
	}
	enc := b[0]
	b = b[1:]
	bitmapLen := (len(rows) + 7) / 8
	if len(b) < bitmapLen {
		return nil, io.ErrUnexpectedEOF
	}
	bitmap := b[:bitmapLen]
	b = b[bitmapLen:]
	isNull := func(i int) bool { return bitmap[i/8]&(1<<(i%8)) != 0 }

	switch enc {
	case colEncInt:
		prev := int64(0)
		for i := range rows {
			if isNull(i) {
				rows[i][col] = types.Null
				continue
			}
			u, rest, err := readUvarint(b)
			if err != nil {
				return nil, err
			}
			b = rest
			v := int64(uint64(prev) + uint64(unzigzag(u)))
			rows[i][col] = types.NewInt(v)
			prev = v
		}
	case colEncText:
		ndict, rest, err := readUvarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		if ndict > uint64(len(b)) {
			// Every dictionary entry costs at least its length varint.
			return nil, fmt.Errorf("wire: columnar dictionary of %d entries exceeds frame size", ndict)
		}
		dict := make([]types.Value, ndict)
		for d := range dict {
			n, rest, err := readUvarint(b)
			if err != nil {
				return nil, err
			}
			b = rest
			if n > uint64(len(b)) {
				return nil, io.ErrUnexpectedEOF
			}
			dict[d] = types.NewText(string(b[:n]))
			b = b[n:]
		}
		for i := range rows {
			if isNull(i) {
				rows[i][col] = types.Null
				continue
			}
			idx, rest, err := readUvarint(b)
			if err != nil {
				return nil, err
			}
			b = rest
			if idx >= uint64(len(dict)) {
				return nil, fmt.Errorf("wire: columnar dictionary index %d out of range", idx)
			}
			rows[i][col] = dict[idx]
		}
	case colEncFront:
		return decodeFront(b, rows, col, isNull, budget)
	case colEncDecimal:
		if len(b) == 0 || int(b[0]) >= len(pow10) {
			return nil, fmt.Errorf("wire: decimal column without an exponent in 0..%d", len(pow10)-1)
		}
		scale := pow10[b[0]]
		b = b[1:]
		for i := range rows {
			if isNull(i) {
				rows[i][col] = types.Null
				continue
			}
			u, rest, err := readUvarint(b)
			if err != nil {
				return nil, err
			}
			b = rest
			rows[i][col] = types.NewFloat(float64(unzigzag(u)) / scale)
		}
	case colEncFloat:
		for i := range rows {
			if isNull(i) {
				rows[i][col] = types.Null
				continue
			}
			if len(b) < 8 {
				return nil, io.ErrUnexpectedEOF
			}
			rows[i][col] = types.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(b)))
			b = b[8:]
		}
	case colEncBool:
		nonNull := 0
		for i := range rows {
			if !isNull(i) {
				nonNull++
			}
		}
		valLen := (nonNull + 7) / 8
		if len(b) < valLen {
			return nil, io.ErrUnexpectedEOF
		}
		vals := b[:valLen]
		b = b[valLen:]
		k := 0
		for i := range rows {
			if isNull(i) {
				rows[i][col] = types.Null
				continue
			}
			rows[i][col] = types.NewBool(vals[k/8]&(1<<(k%8)) != 0)
			k++
		}
	case colEncMixed:
		for i := range rows {
			if isNull(i) {
				rows[i][col] = types.Null
				continue
			}
			v, rest, err := readValue(b, text)
			if err != nil {
				return nil, err
			}
			rows[i][col] = v
			b = rest
		}
	default:
		return nil, fmt.Errorf("wire: unknown column encoding %d", enc)
	}
	return b, nil
}

// decodeResponseV2 parses a columnar result frame body (caller has
// checked the tag).
func decodeResponseV2(b []byte) (*Response, error) {
	budget := maxFrontGrowth * len(b)
	b = b[1:]
	epoch, b, err := readUint64(b)
	if err != nil {
		return nil, err
	}
	affected, b, err := readUint32(b)
	if err != nil {
		return nil, err
	}
	ncols, b, err := readUint32(b)
	if err != nil {
		return nil, err
	}
	resp := &Response{RowsAffected: int(affected), Epoch: epoch}
	if resp.Cols, b, err = readNames(b, ncols); err != nil {
		return nil, err
	}
	nrows, b, err := readUint32(b)
	if err != nil {
		return nil, err
	}
	if nrows > 0 {
		if ncols == 0 {
			return nil, fmt.Errorf("wire: columnar frame carries %d rows but no columns", nrows)
		}
		// Every column costs at least its encoding byte plus its null
		// bitmap, so the remaining bytes bound nrows*ncols — reject a
		// corrupt count before trusting it for the cell allocation (a
		// small frame could otherwise claim billions of cells).
		minPerCol := 1 + (uint64(nrows)+7)/8
		if uint64(len(b))/minPerCol < uint64(ncols) {
			return nil, fmt.Errorf("wire: columnar frame of %d rows x %d cols exceeds frame size", nrows, ncols)
		}
	}
	rows := cutRows(int(nrows), int(ncols))
	var text frameText // the text columns are cut from one copy
	for col := 0; col < int(ncols); col++ {
		b, err = decodeColumn(b, rows, col, &budget, &text)
		if err != nil {
			return nil, err
		}
	}
	resp.Rows = rows
	return resp, nil
}

// EncodeResponseWith serializes a response in the connection's
// negotiated result encoding: columnar v2 when columnar is set, the v1
// row-major layout otherwise.
func EncodeResponseWith(resp *Response, columnar bool) []byte {
	if columnar {
		return EncodeResponseV2(resp)
	}
	return EncodeResponse(resp)
}

// EncodeBatchResponseWith serializes the per-statement responses of a
// batch with every result sub-frame in the negotiated encoding.
func EncodeBatchResponseWith(resps []*Response, columnar bool) []byte {
	if !columnar {
		return EncodeBatchResponse(resps)
	}
	b := append(getFrame(), TypeBatchResp)
	b = appendUint32(b, uint32(len(resps)))
	for _, resp := range resps {
		sub := EncodeResponseV2(resp)
		b = appendUint32(b, uint32(len(sub)))
		b = append(b, sub...)
		putFrame(sub)
	}
	return b
}
