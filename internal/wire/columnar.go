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
//   - text columns ship a dictionary of distinct strings plus a varint
//     dictionary index per value (type names and states repeat
//     thousands of times but travel once),
//   - float and bool columns drop their per-value tags,
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
	"sync"

	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
)

// Column encodings of the v2 frame.
const (
	colEncMixed = 0 // v1 per-value tagged encoding (kind varies or unknown)
	colEncInt   = 1 // zigzag varint deltas
	colEncText  = 2 // dictionary + varint indexes
	colEncFloat = 3 // raw 8-byte IEEE 754 bits
	colEncBool  = 4 // value bitmap
)

// colBuilder is the scratch state of one text-column encode: the
// distinct-string dictionary and its insertion order. Both recycle via
// colBuilders — a busy columnar server builds one per text column per
// response, and the map alone is several allocations to rebuild.
type colBuilder struct {
	dict  map[string]uint64
	order []string
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
	colBuilders.Put(cb)
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
		cb := colBuilders.Get().(*colBuilder)
		dict, order := cb.dict, cb.order
		for _, row := range rows {
			if row[col].IsNull() {
				continue
			}
			s := row[col].Text()
			if _, ok := dict[s]; !ok {
				dict[s] = uint64(len(order))
				order = append(order, s)
			}
		}
		b = binary.AppendUvarint(b, uint64(len(order)))
		for _, s := range order {
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		}
		for _, row := range rows {
			if row[col].IsNull() {
				continue
			}
			b = binary.AppendUvarint(b, dict[row[col].Text()])
		}
		cb.order = order
		cb.release()
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
		for _, row := range rows {
			if row[col].IsNull() {
				continue
			}
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

// decodeColumn parses one column body into the corresponding cells of
// the pre-allocated rows.
func decodeColumn(b []byte, rows []storage.Row, col int) ([]byte, error) {
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
			v, rest, err := ReadValue(b)
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
	for i := uint32(0); i < ncols; i++ {
		var c string
		c, b, err = readString(b)
		if err != nil {
			return nil, err
		}
		resp.Cols = append(resp.Cols, c)
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
	rows := make([]storage.Row, nrows)
	for i := range rows {
		rows[i] = make(storage.Row, ncols)
	}
	for col := 0; col < int(ncols); col++ {
		b, err = decodeColumn(b, rows, col)
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
