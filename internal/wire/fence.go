package wire

import (
	"encoding/binary"
	"fmt"
	"sync"

	"pdmtune/internal/minisql/token"
)

// This file implements the high-availability surface of the wire
// protocol: fencing terms, the status (health probe) exchange, and the
// structured errors of the failover path.
//
// A cluster with replica sites runs under a monotonically increasing
// *fencing term*. Every server of the cluster holds a *Fence* — its
// view of (term, am-I-primary) — and every client of the cluster wraps
// its write and sync frames in a TypeFenced envelope carrying the term
// it believes is current. The server refuses the frame with a
// TypeFencedResp (surfaced client-side as *FencedError) when it is not
// the primary, or when the frame's term is not its own: a deposed
// primary can never apply a write a promotion has fenced off, and a
// stale client learns about the promotion from the refusal instead of
// silently writing to the wrong database. Read frames are never
// fenced — replicas (including a deposed primary) keep serving reads.

// Fence is one server's view of the cluster fencing state. The cluster
// control plane shares one Fence per server and flips it atomically at
// promotion time; the server consults it on every dispatched frame.
type Fence struct {
	mu      sync.Mutex
	term    uint64
	primary bool
}

// NewFence returns a fence at the given term and role.
func NewFence(term uint64, primary bool) *Fence {
	return &Fence{term: term, primary: primary}
}

// Set replaces the fence's term and role.
func (f *Fence) Set(term uint64, primary bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.term = term
	f.primary = primary
}

// State returns the fence's current term and role.
func (f *Fence) State() (term uint64, primary bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.term, f.primary
}

// FencedError reports a write (or sync) refused by a server's fence:
// the server is not the cluster primary, or the frame carried a stale
// term. The write did NOT execute — retrying it against the current
// primary is safe.
type FencedError struct {
	// ServerTerm is the refusing server's fencing term.
	ServerTerm uint64
	// FrameTerm is the term the refused frame carried (0 for an
	// unfenced legacy frame).
	FrameTerm uint64
	// Deposed reports the refusal reason: true when the server is not
	// the primary (it was deposed, or never was primary); false when
	// the server is the primary but the frame's term was stale.
	Deposed bool
}

func (e *FencedError) Error() string {
	if e.Deposed {
		return fmt.Sprintf("wire: write fenced: server is not the primary (server term %d, frame term %d)",
			e.ServerTerm, e.FrameTerm)
	}
	return fmt.Sprintf("wire: write fenced: stale term %d (server term %d)", e.FrameTerm, e.ServerTerm)
}

// ConnClosedError reports a round trip that failed because the
// underlying connection died (transport error, injected fault, broken
// stream) rather than because the server answered with an error. The
// request may or may not have reached the server; only idempotent
// frames are safe to retry. Match with errors.As; Unwrap exposes the
// transport's original error.
type ConnClosedError struct{ Err error }

func (e *ConnClosedError) Error() string { return fmt.Sprintf("wire: connection closed: %v", e.Err) }
func (e *ConnClosedError) Unwrap() error { return e.Err }

// TermSource supplies the fencing term a client stamps on its write
// and sync frames. ok=false disables the envelope (a client of an
// unfenced, site-less system).
type TermSource func() (term uint64, ok bool)

// ---------------------------------------------------------------------------
// fenced envelope

// EncodeFenced wraps an encoded frame body in a fencing envelope
// carrying the term. It consumes inner (the buffer recycles).
func EncodeFenced(term uint64, inner []byte) []byte {
	b := append(getFrame(), TypeFenced)
	b = binary.BigEndian.AppendUint64(b, term)
	b = append(b, inner...)
	putFrame(inner)
	return b
}

// DecodeFenced splits a fencing envelope into its term and the inner
// frame body (a sub-slice of b, valid as long as b is).
func DecodeFenced(b []byte) (term uint64, inner []byte, err error) {
	if len(b) < 9 || b[0] != TypeFenced {
		return 0, nil, fmt.Errorf("wire: not a fenced frame")
	}
	return binary.BigEndian.Uint64(b[1:9]), b[9:], nil
}

// FencedInner returns the inner frame of a fencing envelope, or the
// body unchanged when it is not one — the metering path uses it to
// account the enveloped frame by its real type.
func FencedInner(b []byte) []byte {
	if len(b) >= 9 && b[0] == TypeFenced {
		return b[9:]
	}
	return b
}

// EncodeFencedResp serializes a fence refusal.
func EncodeFencedResp(serverTerm, frameTerm uint64, deposed bool) []byte {
	b := append(getFrame(), TypeFencedResp)
	b = binary.BigEndian.AppendUint64(b, serverTerm)
	b = binary.BigEndian.AppendUint64(b, frameTerm)
	var flags byte
	if deposed {
		flags |= 1
	}
	return append(b, flags)
}

// DecodeFencedResp parses a fence refusal into the structured error.
func DecodeFencedResp(b []byte) (*FencedError, error) {
	if len(b) < 18 || b[0] != TypeFencedResp {
		return nil, fmt.Errorf("wire: not a fenced response frame")
	}
	return &FencedError{
		ServerTerm: binary.BigEndian.Uint64(b[1:9]),
		FrameTerm:  binary.BigEndian.Uint64(b[9:17]),
		Deposed:    b[17]&1 != 0,
	}, nil
}

// ---------------------------------------------------------------------------
// status (health probe) exchange

// Status is a server's answer to a health probe: its fencing state and
// database epoch. An unfenced (site-less) server answers term 0,
// primary true.
type Status struct {
	Term    uint64
	Primary bool
	Epoch   uint64
}

// EncodeStatus serializes a status probe (it carries nothing).
func EncodeStatus() []byte { return append(getFrame(), TypeStatus) }

// DecodeStatus validates a status probe frame.
func DecodeStatus(b []byte) error {
	if len(b) < 1 || b[0] != TypeStatus {
		return fmt.Errorf("wire: not a status frame")
	}
	return nil
}

// EncodeStatusResp serializes a status answer.
func EncodeStatusResp(st Status) []byte {
	b := append(getFrame(), TypeStatusResp)
	b = binary.BigEndian.AppendUint64(b, st.Term)
	var flags byte
	if st.Primary {
		flags |= 1
	}
	b = append(b, flags)
	return binary.BigEndian.AppendUint64(b, st.Epoch)
}

// DecodeStatusResp parses a status answer.
func DecodeStatusResp(b []byte) (Status, error) {
	if len(b) < 18 || b[0] != TypeStatusResp {
		return Status{}, fmt.Errorf("wire: not a status response frame")
	}
	return Status{
		Term:    binary.BigEndian.Uint64(b[1:9]),
		Primary: b[9]&1 != 0,
		Epoch:   binary.BigEndian.Uint64(b[10:18]),
	}, nil
}

// ---------------------------------------------------------------------------
// client-side read/write classification

// ReadOnlySQL reports whether a statement is a pure read by its first
// token, read past whitespace and comments by the parser's own lexer —
// one a replica (or a deposed primary) may serve. Clients decide by it,
// before anything is parsed, which statements they may retry, ship
// unfenced or route to a replica; a server decides on the parsed
// statement (minisql.ReadOnly). Anything unrecognized classifies as a
// write, the safe direction.
func ReadOnlySQL(sql string) bool {
	t, err := token.NewLexer(sql).Next()
	if err != nil || t.Type != token.Keyword {
		return false
	}
	switch t.Text {
	case "SELECT", "WITH", "EXPLAIN":
		return true
	}
	return false
}
