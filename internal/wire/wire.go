// Package wire implements the client/server protocol between the PDM
// client and the database server: length-prefixed binary frames carrying
// SQL statements with parameters in one direction and result sets (or
// errors) in the other. Frame sizes are exact, which is what the WAN
// simulator charges — the PDM layer's transferred-volume numbers come
// from this encoding.
package wire

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
)

// Frame type tags.
const (
	TypeRequest      = 0x01
	TypeResult       = 0x02
	TypeError        = 0x03
	TypeBatch        = 0x04
	TypeBatchResp    = 0x05
	TypePrepare      = 0x06
	TypePrepareResp  = 0x07
	TypeExecPrepared = 0x08
	TypeValidate     = 0x09
	TypeValidateResp = 0x0a
	// TypeResultV2 is the columnar result encoding (see columnar.go).
	TypeResultV2 = 0x0b
	// TypeHello / TypeHelloResp negotiate connection capabilities —
	// columnar results and response compression — at session open.
	TypeHello     = 0x0c
	TypeHelloResp = 0x0d
	// TypeCompressed wraps any response frame body in a whole-body
	// deflate envelope (see compress.go).
	TypeCompressed = 0x0e
	// TypeSync / TypeSyncResp are the replication frames: a replica
	// pulls the row deltas above its last-seen epoch (see sync.go).
	TypeSync     = 0x0f
	TypeSyncResp = 0x10
	// 0x11 is retired and stays unassigned: an old client's statement
	// teardown frame must draw "bad request", not be read as something new.
	//
	// TypeFenced wraps a write or sync frame in a fencing-term envelope;
	// TypeFencedResp is the server's refusal when its fence does not
	// match (see fence.go).
	TypeFenced     = 0x12
	TypeFencedResp = 0x13
	// TypeStatus / TypeStatusResp are the health-probe exchange: the
	// server answers with its fencing state and database epoch.
	TypeStatus     = 0x14
	TypeStatusResp = 0x15
	MaxFrameSize   = 1 << 30
)

// FrameTooLargeError reports an attempt to emit a frame exceeding
// MaxFrameSize. It is returned on the encode path (WriteFrame, the
// client's Exec/ExecBatch) so oversized frames are rejected before they
// reach the wire, mirroring the decode-side check in ReadFrame.
type FrameTooLargeError struct {
	Size int
	// Limit is the bound that was exceeded; 0 means MaxFrameSize (the
	// server's Serve loop can enforce a lower MaxResponseBytes).
	Limit int
}

func (e *FrameTooLargeError) Error() string {
	limit := e.Limit
	if limit <= 0 {
		limit = MaxFrameSize
	}
	return fmt.Sprintf("wire: frame of %d bytes exceeds the %d byte limit", e.Size, limit)
}

// CheckFrameSize validates an encoded frame body against MaxFrameSize.
func CheckFrameSize(body []byte) error {
	if len(body) > MaxFrameSize {
		return &FrameTooLargeError{Size: len(body)}
	}
	return nil
}

// Request is one statement execution request: either SQL text or a
// reference to a statement previously prepared at the server.
type Request struct {
	SQL    string
	Params []types.Value
	// Prepared selects the prepared-statement encoding: the frame carries
	// Handle and Params instead of the SQL text, so the per-execution
	// request bytes drop to a few dozen regardless of statement size.
	Prepared bool
	Handle   uint32
}

// Response is the server's answer: either an error message or a result.
type Response struct {
	Err          string
	Cols         []string
	Rows         []storage.Row
	RowsAffected int
	// Epoch is the server database's modification epoch as of this
	// statement's execution — the version stamp a client-side cache
	// attaches to entries built from this result (0 when the server
	// does not version its data).
	Epoch uint64
}

// ---------------------------------------------------------------------------
// primitive encoders

func appendUint32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

func appendUint64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

func readUint64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return binary.BigEndian.Uint64(b), b[8:], nil
}

func appendString(b []byte, s string) []byte {
	b = appendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func readUint32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return binary.BigEndian.Uint32(b), b[4:], nil
}

func readString(b []byte) (string, []byte, error) {
	n, rest, err := readUint32(b)
	if err != nil {
		return "", nil, err
	}
	if uint32(len(rest)) < n {
		return "", nil, io.ErrUnexpectedEOF
	}
	return string(rest[:n]), rest[n:], nil
}

// readNames decodes a result header's n length-prefixed column names
// into one slice, cutting them from one copy of the header alone: the
// cells copy their text apart, so a frame without text copies no more.
// n comes from the peer: it is bounded by the bytes there before the
// slice is sized by it.
func readNames(b []byte, n uint32) ([]string, []byte, error) {
	if n > uint32(len(b))/4 { // every name carries a 4-byte length prefix
		return nil, nil, fmt.Errorf("wire: result frame of %d columns exceeds frame size", n)
	}
	if n == 0 {
		return nil, b, nil
	}
	end := 0
	for range n {
		size, rest, err := readUint32(b[end:])
		if err != nil || uint32(len(rest)) < size {
			return nil, nil, cmp.Or(err, io.ErrUnexpectedEOF)
		}
		end += 4 + int(size)
	}
	hdr, names := string(b[:end]), make([]string, n)
	for i, at := 0, 0; i < len(names); i++ {
		size := int(binary.BigEndian.Uint32(b[at:]))
		names[i], at = hdr[at+4:at+4+size], at+4+size
	}
	return names, b[end:], nil
}

// value tags on the wire
const (
	tagNull  = 0
	tagInt   = 1
	tagFloat = 2
	tagText  = 3
	tagTrue  = 4
	tagFalse = 5
)

// AppendValue encodes one SQL value.
func AppendValue(b []byte, v types.Value) []byte {
	switch v.Kind() {
	case types.KindNull:
		return append(b, tagNull)
	case types.KindInt:
		b = append(b, tagInt)
		return binary.BigEndian.AppendUint64(b, uint64(v.Int()))
	case types.KindFloat:
		b = append(b, tagFloat)
		return binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case types.KindText:
		b = append(b, tagText)
		return appendString(b, v.Text())
	case types.KindBool:
		if v.Bool() {
			return append(b, tagTrue)
		}
		return append(b, tagFalse)
	}
	return append(b, tagNull)
}

// frameText cuts the text cells of one result frame from one copy of
// the frame, made at its first non-empty text cell (the frame buffer is
// recycled once decoded); a nil *frameText copies each cell alone.
type frameText struct{ s string }

// cut returns the n bytes at the head of b, a suffix of the frame.
func (t *frameText) cut(b []byte, n int) string {
	switch {
	case t == nil:
		return string(b[:n])
	case n == 0:
		return "" // points at no frame
	case t.s == "":
		t.s = string(b)
	}
	at := len(t.s) - len(b)
	return t.s[at : at+n]
}

// ReadValue decodes one SQL value.
func ReadValue(b []byte) (types.Value, []byte, error) { return readValue(b, nil) }

// readValue decodes one SQL value, cutting its text from text.
func readValue(b []byte, text *frameText) (types.Value, []byte, error) {
	if len(b) < 1 {
		return types.Null, nil, io.ErrUnexpectedEOF
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case tagNull:
		return types.Null, b, nil
	case tagInt:
		if len(b) < 8 {
			return types.Null, nil, io.ErrUnexpectedEOF
		}
		return types.NewInt(int64(binary.BigEndian.Uint64(b))), b[8:], nil
	case tagFloat:
		if len(b) < 8 {
			return types.Null, nil, io.ErrUnexpectedEOF
		}
		return types.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(b))), b[8:], nil
	case tagText:
		n, rest, err := readUint32(b)
		if err != nil {
			return types.Null, nil, err
		}
		if uint32(len(rest)) < n {
			return types.Null, nil, io.ErrUnexpectedEOF
		}
		return types.NewText(text.cut(rest, int(n))), rest[n:], nil
	case tagTrue:
		return types.NewBool(true), b, nil
	case tagFalse:
		return types.NewBool(false), b, nil
	}
	return types.Null, nil, fmt.Errorf("wire: unknown value tag %d", tag)
}

// ---------------------------------------------------------------------------
// message encoding

// EncodeRequest serializes a request frame body (without the outer
// length prefix).
func EncodeRequest(req *Request) []byte {
	b := append(getFrame(), TypeRequest)
	b = appendString(b, req.SQL)
	b = appendUint32(b, uint32(len(req.Params)))
	for _, p := range req.Params {
		b = AppendValue(b, p)
	}
	return b
}

// DecodeRequest parses a request frame body.
func DecodeRequest(b []byte) (*Request, error) {
	if len(b) < 1 || b[0] != TypeRequest {
		return nil, fmt.Errorf("wire: not a request frame")
	}
	b = b[1:]
	sql, b, err := readString(b)
	if err != nil {
		return nil, err
	}
	n, b, err := readUint32(b)
	if err != nil {
		return nil, err
	}
	req := &Request{SQL: sql}
	for i := uint32(0); i < n; i++ {
		var v types.Value
		v, b, err = ReadValue(b)
		if err != nil {
			return nil, err
		}
		req.Params = append(req.Params, v)
	}
	return req, nil
}

// EncodeResponse serializes a response frame body. The frame is sized
// exactly first and then filled into one buffer — pooled when one is
// large enough, else allocated at that size — so a multi-megabyte
// result is never grown by doubling.
func EncodeResponse(resp *Response) []byte {
	return appendResponse(getFrameN(responseSize(resp))[:0], resp)
}

// responseSize is the length of resp's v1 encoding.
func responseSize(resp *Response) int {
	if resp.Err != "" {
		return 1 + 4 + len(resp.Err)
	}
	n := 1 + 8 + 4 + 4 + 4
	for _, c := range resp.Cols {
		n += 4 + len(c)
	}
	for _, row := range resp.Rows {
		for j := range row {
			switch v := &row[j]; v.Kind() {
			case types.KindInt, types.KindFloat:
				n += 9
			case types.KindText:
				n += 5 + len(v.Text())
			default:
				n++
			}
		}
	}
	return n
}

// appendResponse appends resp's v1 encoding to b.
func appendResponse(b []byte, resp *Response) []byte {
	if resp.Err != "" {
		b = append(b, TypeError)
		return appendString(b, resp.Err)
	}
	b = append(b, TypeResult)
	b = appendUint64(b, resp.Epoch)
	b = appendUint32(b, uint32(resp.RowsAffected))
	b = appendUint32(b, uint32(len(resp.Cols)))
	for _, c := range resp.Cols {
		b = appendString(b, c)
	}
	b = appendUint32(b, uint32(len(resp.Rows)))
	for _, row := range resp.Rows {
		for _, v := range row {
			b = AppendValue(b, v)
		}
	}
	return b
}

// DecodeResponse parses a response frame body. Its rows share one
// backing array, each capped at its columns; the text cells of a v1
// frame share one copy of the frame, which a retained cell keeps alive.
func DecodeResponse(b []byte) (*Response, error) {
	if len(b) < 1 {
		return nil, io.ErrUnexpectedEOF
	}
	switch b[0] {
	case TypeError:
		msg, _, err := readString(b[1:])
		if err != nil {
			return nil, err
		}
		return &Response{Err: msg}, nil
	case TypeResultV2:
		return decodeResponseV2(b)
	case TypeResult:
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", b[0])
	}
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
	// The counts come from the peer: each is bounded by the bytes that are
	// actually there before anything is sized by it.
	resp := &Response{RowsAffected: int(affected), Epoch: epoch}
	if resp.Cols, b, err = readNames(b, ncols); err != nil {
		return nil, err
	}
	nrows, b, err := readUint32(b)
	if err != nil {
		return nil, err
	}
	if nrows > 0 && ncols == 0 {
		return nil, fmt.Errorf("wire: result frame carries %d rows but no columns", nrows)
	}
	// Every value is at least its one-byte tag.
	if uint64(nrows)*uint64(ncols) > uint64(len(b)) {
		return nil, fmt.Errorf("wire: result frame of %d rows x %d cols exceeds frame size", nrows, ncols)
	}
	resp.Rows = cutRows(int(nrows), int(ncols))
	var text frameText // the text cells are cut from one copy
	for _, row := range resp.Rows {
		for j := range row {
			row[j], b, err = readValue(b, &text)
			if err != nil {
				return nil, err
			}
		}
	}
	return resp, nil
}

// cutRows returns nrows rows of ncols cells cut from one array, each
// with len == cap == ncols.
func cutRows(nrows, ncols int) []storage.Row {
	rows := make([]storage.Row, nrows)
	cells := make([]types.Value, nrows*ncols)
	for i := range rows {
		rows[i] = cells[i*ncols : (i+1)*ncols : (i+1)*ncols]
	}
	return rows
}

// ---------------------------------------------------------------------------
// prepared-statement frames

// EncodePrepare serializes a prepare frame: the SQL text travels once,
// the server parses it once, and every later execution references it by
// handle — the classic request-volume lever the paper attributes to
// stored procedures, applied to plain statements.
func EncodePrepare(sql string) []byte {
	b := append(getFrame(), TypePrepare)
	return appendString(b, sql)
}

// DecodePrepare parses a prepare frame body into its SQL text.
func DecodePrepare(b []byte) (string, error) {
	if len(b) < 1 || b[0] != TypePrepare {
		return "", fmt.Errorf("wire: not a prepare frame")
	}
	sql, _, err := readString(b[1:])
	return sql, err
}

// EncodePrepareResp serializes the server's answer to a prepare: the
// statement handle, valid on every connection of this server.
func EncodePrepareResp(handle uint32) []byte {
	b := append(getFrame(), TypePrepareResp)
	return appendUint32(b, handle)
}

// DecodePrepareResp parses a prepare response frame body.
func DecodePrepareResp(b []byte) (uint32, error) {
	if len(b) < 1 || b[0] != TypePrepareResp {
		return 0, fmt.Errorf("wire: not a prepare response frame")
	}
	h, _, err := readUint32(b[1:])
	return h, err
}

// EncodeExecPrepared serializes an execution of a prepared statement:
// handle plus parameter values, no SQL text.
func EncodeExecPrepared(handle uint32, params []types.Value) []byte {
	b := append(getFrame(), TypeExecPrepared)
	b = appendUint32(b, handle)
	b = appendUint32(b, uint32(len(params)))
	for _, p := range params {
		b = AppendValue(b, p)
	}
	return b
}

// DecodeExecPrepared parses an exec-prepared frame body.
func DecodeExecPrepared(b []byte) (*Request, error) {
	if len(b) < 1 || b[0] != TypeExecPrepared {
		return nil, fmt.Errorf("wire: not an exec-prepared frame")
	}
	b = b[1:]
	handle, b, err := readUint32(b)
	if err != nil {
		return nil, err
	}
	n, b, err := readUint32(b)
	if err != nil {
		return nil, err
	}
	req := &Request{Prepared: true, Handle: handle}
	for i := uint32(0); i < n; i++ {
		var v types.Value
		v, b, err = ReadValue(b)
		if err != nil {
			return nil, err
		}
		req.Params = append(req.Params, v)
	}
	return req, nil
}

// ---------------------------------------------------------------------------
// validate frames: revalidate a cached structure in one round trip

// StaleCheck asks whether one object changed after a known epoch: ID
// is the object's version key, Since the epoch stamped on the cached
// entry when it was fetched.
type StaleCheck struct {
	ID    int64
	Since uint64
}

// EncodeValidate serializes a validate frame: (id, since-epoch) pairs
// for every object a cached structure depends on. At 16 bytes per
// entry, revalidating a whole cached tree costs a small fraction of
// re-fetching its node records.
func EncodeValidate(checks []StaleCheck) []byte {
	b := append(getFrame(), TypeValidate)
	b = appendUint32(b, uint32(len(checks)))
	for _, c := range checks {
		b = appendUint64(b, uint64(c.ID))
		b = appendUint64(b, c.Since)
	}
	return b
}

// DecodeValidate parses a validate frame body.
func DecodeValidate(b []byte) ([]StaleCheck, error) {
	if len(b) < 1 || b[0] != TypeValidate {
		return nil, fmt.Errorf("wire: not a validate frame")
	}
	b = b[1:]
	n, b, err := readUint32(b)
	if err != nil {
		return nil, err
	}
	// Division, not multiplication: n*16 can overflow uint32 and slip
	// past the bound, turning a tiny frame into a huge allocation.
	if n > uint32(len(b))/16 {
		return nil, io.ErrUnexpectedEOF
	}
	checks := make([]StaleCheck, 0, n)
	for i := uint32(0); i < n; i++ {
		var id, since uint64
		id, b, _ = readUint64(b)
		since, b, _ = readUint64(b)
		checks = append(checks, StaleCheck{ID: int64(id), Since: since})
	}
	return checks, nil
}

// EncodeValidateResp serializes the server's answer: the ids whose
// objects changed after their given epoch (the stale subset).
func EncodeValidateResp(stale []int64) []byte {
	b := append(getFrame(), TypeValidateResp)
	b = appendUint32(b, uint32(len(stale)))
	for _, id := range stale {
		b = appendUint64(b, uint64(id))
	}
	return b
}

// DecodeValidateResp parses a validate response frame body.
func DecodeValidateResp(b []byte) ([]int64, error) {
	if len(b) < 1 || b[0] != TypeValidateResp {
		return nil, fmt.Errorf("wire: not a validate response frame")
	}
	b = b[1:]
	n, b, err := readUint32(b)
	if err != nil {
		return nil, err
	}
	if n > uint32(len(b))/8 {
		return nil, io.ErrUnexpectedEOF
	}
	stale := make([]int64, 0, n)
	for i := uint32(0); i < n; i++ {
		var id uint64
		id, b, _ = readUint64(b)
		stale = append(stale, int64(id))
	}
	return stale, nil
}

// EncodeExec serializes one request as the sub-frame a batch carries (or
// a standalone frame): the prepared encoding when the request references
// a handle, the plain text encoding otherwise.
func EncodeExec(req *Request) []byte {
	if req.Prepared {
		return EncodeExecPrepared(req.Handle, req.Params)
	}
	return EncodeRequest(req)
}

// DecodeExec parses a sub-frame that is either a plain request or a
// prepared execution.
func DecodeExec(b []byte) (*Request, error) {
	if len(b) >= 1 && b[0] == TypeExecPrepared {
		return DecodeExecPrepared(b)
	}
	return DecodeRequest(b)
}

// ---------------------------------------------------------------------------
// batch frames: N statements in one round trip

// EncodeBatch serializes a batch frame body carrying every request as a
// length-prefixed sub-frame (plain text or prepared execution). Sizes
// stay exact: the WAN meter charges the tag, the count, and 4 bytes of
// framing per statement — nothing more.
func EncodeBatch(reqs []*Request) []byte {
	b := append(getFrame(), TypeBatch)
	b = appendUint32(b, uint32(len(reqs)))
	for _, req := range reqs {
		sub := EncodeExec(req)
		b = appendUint32(b, uint32(len(sub)))
		b = append(b, sub...)
		putFrame(sub)
	}
	return b
}

// DecodeBatch parses a batch frame body into its requests.
func DecodeBatch(b []byte) ([]*Request, error) {
	if len(b) < 1 || b[0] != TypeBatch {
		return nil, fmt.Errorf("wire: not a batch frame")
	}
	b = b[1:]
	n, b, err := readUint32(b)
	if err != nil {
		return nil, err
	}
	// Every sub-frame costs at least its 4-byte length prefix, so a count
	// beyond len(b)/4 is corrupt — reject it before trusting it for an
	// allocation.
	if n > uint32(len(b))/4 {
		return nil, fmt.Errorf("wire: batch count %d exceeds frame size", n)
	}
	reqs := make([]*Request, 0, n)
	for i := uint32(0); i < n; i++ {
		var size uint32
		size, b, err = readUint32(b)
		if err != nil {
			return nil, err
		}
		if uint32(len(b)) < size {
			return nil, io.ErrUnexpectedEOF
		}
		req, err := DecodeExec(b[:size])
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
		b = b[size:]
	}
	return reqs, nil
}

// EncodeBatchResponse serializes the per-statement responses of a batch.
// Under stop-on-first-error semantics the slice holds one response per
// executed statement; a trailing error response marks where execution
// stopped.
// Like EncodeResponse, it sizes the whole frame first and encodes every
// sub-frame in place.
func EncodeBatchResponse(resps []*Response) []byte {
	n := 1 + 4
	for _, resp := range resps {
		n += 4 + responseSize(resp)
	}
	b := append(getFrameN(n)[:0], TypeBatchResp)
	b = appendUint32(b, uint32(len(resps)))
	for _, resp := range resps {
		at := len(b)
		b = appendResponse(appendUint32(b, 0), resp)
		binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	}
	return b
}

// DecodeBatchResponse parses a batch response frame body.
func DecodeBatchResponse(b []byte) ([]*Response, error) {
	if len(b) < 1 || b[0] != TypeBatchResp {
		return nil, fmt.Errorf("wire: not a batch response frame")
	}
	b = b[1:]
	n, b, err := readUint32(b)
	if err != nil {
		return nil, err
	}
	if n > uint32(len(b))/4 {
		return nil, fmt.Errorf("wire: batch response count %d exceeds frame size", n)
	}
	resps := make([]*Response, 0, n)
	for i := uint32(0); i < n; i++ {
		var size uint32
		size, b, err = readUint32(b)
		if err != nil {
			return nil, err
		}
		if uint32(len(b)) < size {
			return nil, io.ErrUnexpectedEOF
		}
		resp, err := DecodeResponse(b[:size])
		if err != nil {
			return nil, err
		}
		resps = append(resps, resp)
		b = b[size:]
	}
	return resps, nil
}

// FrameStats summarizes an encoded request frame for metering.
type FrameStats struct {
	// Statements counts the SQL statements the frame ships (prepares and
	// prepared executions included — each stands for one statement).
	Statements int
	// PreparedExecs counts the statements shipped as handle+params
	// instead of SQL text.
	PreparedExecs int
	// SavedRequestBytes is the SQL text volume the prepared executions
	// avoided re-shipping, computed from the recorded text length of each
	// referenced handle (handles with unknown text contribute nothing).
	SavedRequestBytes float64
}

// ScanFrame walks an encoded request frame without fully decoding it and
// returns its metering stats. sqlLen maps prepared handles to the byte
// length of their SQL text (nil when no prepared accounting is wanted).
// A prepared execution replaces the length-prefixed SQL text with a
// 4-byte handle; with identical parameters the request body is exactly
// len(sql) bytes smaller, which is what SavedRequestBytes records.
func ScanFrame(body []byte, sqlLen map[uint32]int) FrameStats {
	stats := FrameStats{Statements: 1}
	scanOne := func(sub []byte) {
		if len(sub) >= 5 && sub[0] == TypeExecPrepared {
			stats.PreparedExecs++
			if sqlLen != nil {
				h := binary.BigEndian.Uint32(sub[1:5])
				stats.SavedRequestBytes += float64(sqlLen[h])
			}
		}
	}
	if len(body) < 5 || body[0] != TypeBatch {
		scanOne(body)
		return stats
	}
	stats.Statements = int(binary.BigEndian.Uint32(body[1:5]))
	b := body[5:]
	for len(b) >= 4 {
		size := binary.BigEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < size {
			break
		}
		scanOne(b[:size])
		b = b[size:]
	}
	return stats
}

// ---------------------------------------------------------------------------
// stream framing (for real connections)

// frameHeaders recycles WriteFrame's length prefixes, which escape.
var frameHeaders = sync.Pool{New: func() any { return new([4]byte) }}

// WriteFrame writes a length-prefixed frame body to a stream. Bodies
// beyond MaxFrameSize are rejected with *FrameTooLargeError before any
// bytes hit the wire.
func WriteFrame(w io.Writer, body []byte) error {
	if err := CheckFrameSize(body); err != nil {
		return err
	}
	hdr := frameHeaders.Get().(*[4]byte)
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	_, err := w.Write(hdr[:])
	frameHeaders.Put(hdr)
	if err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// ReadFrame reads one length-prefixed frame body from a stream.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	body := getFrameN(int(n))
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}
