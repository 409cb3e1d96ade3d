package wire

// Whole-body frame compression and the session-open capability
// handshake. Compression is negotiated once per connection (TypeHello /
// TypeHelloResp) and then applied by the server to response bodies that
// exceed a size threshold — the paper's WAN-vs-LAN tradeoff: on a
// 256 kbit/s intercontinental link the deflate CPU is three orders of
// magnitude cheaper than the transfer it avoids, while a LAN session
// keeps small frames (and, below the threshold, all frames)
// uncompressed. A wrapped frame records its original size, so the
// meter can report the bytes saved without inflating anything.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// DefaultCompressThreshold is the response-body size below which
// compression is skipped: tiny frames (prepare acks, validate answers,
// empty expands) cost more in deflate framing than they save.
const DefaultCompressThreshold = 256

// Caps are the negotiable connection capabilities.
type Caps struct {
	// Columnar selects the v2 columnar result encoding for every
	// result-bearing response frame (Exec, Batch, Prepared, Validate
	// refetch all included — the encoding rides below them).
	Columnar bool
	// Compress enables whole-body deflate of response frames above the
	// threshold.
	Compress bool
	// CompressThreshold is the minimum response body size that gets
	// compressed; 0 selects DefaultCompressThreshold.
	CompressThreshold int
}

const (
	capColumnar = 1 << 0
	capCompress = 1 << 1
)

// EncodeHello serializes the client's capability announcement.
func EncodeHello(caps Caps) []byte {
	return encodeCaps(TypeHello, caps)
}

// EncodeHelloResp serializes the server's accepted capability set.
func EncodeHelloResp(caps Caps) []byte {
	return encodeCaps(TypeHelloResp, caps)
}

func encodeCaps(tag byte, caps Caps) []byte {
	var flags byte
	if caps.Columnar {
		flags |= capColumnar
	}
	if caps.Compress {
		flags |= capCompress
	}
	threshold := caps.CompressThreshold
	if threshold < 0 {
		// A negative threshold means "wire default" (0 on the wire); it
		// must not wrap through the uint32 cast into a threshold so high
		// it silently disables compression.
		threshold = 0
	}
	if threshold > MaxFrameSize {
		// Anything beyond the frame-size limit means "never compress";
		// cap it there so the uint32 cast cannot truncate a huge value
		// into a tiny threshold that compresses everything.
		threshold = MaxFrameSize
	}
	b := append(getFrame(), tag, flags)
	return appendUint32(b, uint32(threshold))
}

// DecodeHello parses a capability announcement frame body.
func DecodeHello(b []byte) (Caps, error) { return decodeCaps(TypeHello, b) }

// DecodeHelloResp parses the server's capability answer.
func DecodeHelloResp(b []byte) (Caps, error) { return decodeCaps(TypeHelloResp, b) }

func decodeCaps(tag byte, b []byte) (Caps, error) {
	if len(b) < 1 || b[0] != tag {
		return Caps{}, fmt.Errorf("wire: not a capability frame (tag %d)", tag)
	}
	flags := byte(0)
	if len(b) >= 2 {
		flags = b[1]
	}
	caps := Caps{
		Columnar: flags&capColumnar != 0,
		Compress: flags&capCompress != 0,
	}
	if len(b) >= 6 {
		caps.CompressThreshold = int(binary.BigEndian.Uint32(b[2:6]))
	}
	return caps, nil
}

// ---------------------------------------------------------------------------
// deflate body wrapper

// CompressBody wraps a frame body in a TypeCompressed envelope when
// that is worth it: bodies below the threshold — or that deflate fails
// to shrink — are returned unchanged, so compression can only reduce
// the charged volume, never inflate it. threshold <= 0 selects
// DefaultCompressThreshold.
// flateWriters recycles deflate writers (and their sizable window/hash
// state) across response frames: a busy compression-negotiated server
// hits this on every qualifying response body.
var flateWriters = sync.Pool{
	New: func() any {
		w, _ := flate.NewWriter(io.Discard, flate.DefaultCompression)
		return w
	},
}

// sliceWriter is an io.Writer appending into a recycled frame buffer —
// what CompressBody hands the flate codec so its output rides
// pool-backed memory instead of a fresh bytes.Buffer per frame.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func CompressBody(body []byte, threshold int) []byte {
	if threshold <= 0 {
		threshold = DefaultCompressThreshold
	}
	if len(body) < threshold {
		return body
	}
	sw := &sliceWriter{b: append(getFrame(), TypeCompressed)}
	sw.b = binary.AppendUvarint(sw.b, uint64(len(body)))
	w := flateWriters.Get().(*flate.Writer)
	w.Reset(sw)
	_, werr := w.Write(body)
	cerr := w.Close()
	flateWriters.Put(w)
	if werr == nil && cerr == nil && len(sw.b) < len(body) {
		return sw.b
	}
	putFrame(sw.b)
	return body
}

// CompressedOriginalSize reports the pre-compression body size of a
// TypeCompressed frame (and whether the body is one at all) without
// inflating it — the meter's view of the bytes compression saved.
func CompressedOriginalSize(body []byte) (int, bool) {
	if len(body) < 2 || body[0] != TypeCompressed {
		return 0, false
	}
	orig, n := binary.Uvarint(body[1:])
	if n <= 0 || orig > MaxFrameSize {
		return 0, false
	}
	return int(orig), true
}

// MaybeDecompress inflates a TypeCompressed frame body back to the
// frame it wraps; any other body passes through unchanged. The recorded
// original size bounds the inflation, so a corrupt or hostile frame
// cannot balloon past MaxFrameSize. The output is reserved from it, but
// never past what the stream could inflate to (a 258-byte match per two
// bits), so a tiny frame claiming 1 GB reserves kilobytes.
func MaybeDecompress(body []byte) ([]byte, error) {
	if len(body) < 1 || body[0] != TypeCompressed {
		return body, nil
	}
	rest := body[1:]
	orig, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, io.ErrUnexpectedEOF
	}
	if orig > MaxFrameSize {
		return nil, &FrameTooLargeError{Size: int(orig)}
	}
	rest = rest[n:]
	out := getFrame()
	if reserve := min(int(orig), 1032*len(rest)); cap(out) < reserve {
		out = make([]byte, 0, reserve)
	}
	var inf *inflater
	select {
	case inf = <-inflaters:
	default:
		inf = &inflater{}
		inf.r = flate.NewReader(&inf.src)
	}
	inf.src.Reset(rest)
	err := inf.r.(flate.Resetter).Reset(&inf.src, nil)
	for err == nil && len(out) <= int(orig) { // one byte past orig shows an over-long stream
		if len(out) == cap(out) {
			out = append(out, 0)[:len(out)]
		}
		n, err = inf.r.Read(out[len(out):cap(out)])
		out = out[:len(out)+n]
	}
	inf.src.Reset(nil)
	select {
	case inflaters <- inf:
	default:
	}
	if err != nil && err != io.EOF {
		putFrame(out)
		return nil, fmt.Errorf("wire: inflate: %w", err)
	}
	if uint64(len(out)) != orig {
		n := len(out)
		putFrame(out)
		return nil, fmt.Errorf("wire: compressed frame inflates to %d bytes, header says %d", n, orig)
	}
	return out, nil
}

// inflater is a deflate reader over a frame's stream, reset for each
// frame. inflaters is their free list, bounded like frames: each pins a
// 32 KiB window, and one returned past the bound is dropped.
type inflater struct {
	src bytes.Reader
	r   io.ReadCloser
}

var inflaters = make(chan *inflater, 4)
