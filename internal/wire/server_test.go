package wire

import (
	"strings"
	"testing"

	"pdmtune/internal/minisql/types"
)

// TestFrameTagsAreDistinct: the protocol has 20 frame types and no two
// share a tag byte.
func TestFrameTagsAreDistinct(t *testing.T) {
	tags := []byte{
		TypeRequest, TypeResult, TypeError, TypeBatch, TypeBatchResp,
		TypePrepare, TypePrepareResp, TypeExecPrepared, TypeValidate, TypeValidateResp,
		TypeResultV2, TypeHello, TypeHelloResp, TypeCompressed, TypeSync,
		TypeSyncResp, TypeFenced, TypeFencedResp, TypeStatus, TypeStatusResp,
	}
	if len(tags) != 20 {
		t.Fatalf("%d frame tags listed, the protocol has 20", len(tags))
	}
	seen := map[byte]int{}
	for i, tag := range tags {
		if j, dup := seen[tag]; dup {
			t.Errorf("frame tags %d and %d are both %#x", j, i, tag)
		}
		seen[tag] = i
	}
}

// checkResponseFrame fails unless body is a response frame its own
// decoder accepts.
func checkResponseFrame(t *testing.T, body []byte) {
	t.Helper()
	plain, err := MaybeDecompress(body)
	if err != nil {
		t.Fatalf("response does not inflate: %v", err)
	}
	if len(plain) == 0 {
		t.Fatal("empty response frame")
	}
	switch plain[0] {
	case TypeResult, TypeResultV2, TypeError:
		_, err = DecodeResponse(plain)
	case TypeBatchResp:
		_, err = DecodeBatchResponse(plain)
	case TypePrepareResp:
		_, err = DecodePrepareResp(plain)
	case TypeValidateResp:
		_, err = DecodeValidateResp(plain)
	case TypeHelloResp:
		_, err = DecodeHelloResp(plain)
	case TypeSyncResp:
		_, err = DecodeSyncResp(plain)
	case TypeFencedResp:
		_, err = DecodeFencedResp(plain)
	case TypeStatusResp:
		_, err = DecodeStatusResp(plain)
	default:
		t.Fatalf("response tag %#x is not a response frame", plain[0])
	}
	if err != nil {
		t.Fatalf("response frame %#x does not decode: %v", plain[0], err)
	}
}

// FuzzServerHandle throws arbitrary request frames at two connections of
// one server, behind a fence in either role and with the statement table
// a few texts short of its budget: whatever arrives, Handle must not
// panic, must answer a well-formed response frame, and must leave the
// table within its budget. The frames cross connections, so a handle one
// of them prepares is live for the other.
func FuzzServerHandle(f *testing.F) {
	const (
		read  = "SELECT val FROM kv WHERE id = ?"
		write = "UPDATE kv SET val = ? WHERE id = ?"
	)
	one := []types.Value{types.NewInt(1)}
	f.Add(EncodePrepare(read), EncodeExecPrepared(2, one), true)
	f.Add(EncodePrepare(write), EncodeFenced(2, EncodeExecPrepared(2, []types.Value{types.NewInt(5), types.NewInt(1)})), true)
	f.Add(EncodePrepare(write), EncodeExecPrepared(2, []types.Value{types.NewInt(5), types.NewInt(1)}), false)
	f.Add(EncodePrepare(read), EncodeBatch([]*Request{
		{Prepared: true, Handle: 2, Params: one},
		{SQL: "SELECT COUNT(*) FROM kv"},
		{Prepared: true, Handle: 77},
	}), false)
	f.Add(EncodePrepare(read+strings.Repeat(" ", 256)), EncodeFenced(1, EncodeRequest(&Request{SQL: "DELETE FROM kv"})), true)
	f.Add(EncodeHello(Caps{Columnar: true, Compress: true, CompressThreshold: 1}), EncodeRequest(&Request{SQL: "SELECT * FROM kv"}), true)
	f.Add(EncodeValidate([]StaleCheck{{ID: 1}}), EncodeFenced(2, EncodeSyncFrom(0, "site")), true)
	f.Add(EncodeStatus(), []byte{TypeExecPrepared, 0, 0}, false)
	f.Fuzz(func(t *testing.T, first, second []byte, primary bool) {
		db := newFenceDB(t)
		srv := NewServer(db)
		srv.SetFence(NewFence(2, primary))
		// Handle 1 fills the table to 128 bytes below its budget: short
		// texts still register, longer ones are refused.
		if _, err := srv.stmts.register(strings.Repeat("x", stmtTableBytes-128)); err != nil {
			t.Fatal(err)
		}
		a, b := srv.NewConn(), srv.NewConn()
		for _, step := range []struct {
			conn  *ServerConn
			frame []byte
		}{{a, first}, {b, second}, {b, first}, {a, second}} {
			checkResponseFrame(t, step.conn.Handle(step.frame))
			if srv.stmts.bytes > stmtTableBytes {
				t.Fatalf("statement table pins %d bytes, budget %d", srv.stmts.bytes, stmtTableBytes)
			}
		}
	})
}
