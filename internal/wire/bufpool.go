package wire

// Frame buffer recycling. Every encoded frame in the protocol is an
// append-built []byte with a short, well-defined lifetime: a request
// body dies when the transport's round trip returns, a response body
// when the client has decoded it (every decode path copies what it
// keeps), a compression input when CompressBody returns a different
// slice. Those hand-off points recycle their buffer here, so a
// steady-state server does no per-frame heap work — the same idea as
// flateWriters, applied to the frames themselves.
//
// Ownership discipline: a buffer may be recycled exactly once, by the
// party that provably holds the last reference. Encoders hand their
// buffer to the caller; transports and Serve recycle request bodies
// after dispatch; clients recycle response bodies after decoding.
// Callers outside this package that hold on to an encoded frame are
// unaffected — an unrecycled buffer is just garbage-collected.

// maxPooledBuf caps the capacity of a recycled buffer. The occasional
// huge frame (a full-tree expand, a bootstrap sync delta) should not
// pin megabytes in the free list forever.
const maxPooledBuf = 1 << 20

// frames is the free list: a bounded channel of idle buffers, which a
// collection does not empty and which boxes nothing (a slice travels by
// value). A buffer returned to a full list is garbage.
var frames = make(chan []byte, pooledFrames)

// pooledFrames bounds the idle buffers, and so what the list can pin:
// 16 MiB at worst. Counted at every return, the four benchmark workloads
// never leave more than 4 buffers idle at once and the 16-session
// concurrency tests 9; a return past the bound drops its buffer.
const pooledFrames = 16

// getFrame returns an empty buffer with recycled capacity to append a
// frame into.
func getFrame() []byte {
	select {
	case b := <-frames:
		return b
	default:
		return nil
	}
}

// getFrameN returns a length-n buffer for a decode-side read. A pooled
// buffer too small for the read is dropped, not put back: re-pooled, it
// would be handed out again to the next caller, which would then grow it
// by allocating.
func getFrameN(n int) []byte {
	if b := getFrame(); cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// putFrame recycles a frame buffer. The caller must hold the only live
// reference; the buffer's contents are dead after the call.
func putFrame(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	select {
	case frames <- b[:0]:
	default:
	}
}

// sameBuf reports whether two non-empty slices share a backing array
// start — the "did CompressBody / MaybeDecompress return my buffer or a
// new one" test at the recycle points.
func sameBuf(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}
