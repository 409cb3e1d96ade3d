package core

import (
	"context"
	"testing"
	"unsafe"

	"pdmtune/internal/costmodel"
	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
	"pdmtune/internal/workload"
)

// TestInternedTypesPinNoFrame: the type of a decoded node, and a
// looked-up type, is the schema's constant itself — not a copy or a
// substring of the frame it arrived in — in v1 and v2 frames. A map
// keyed on a node's type (the compiled predicate table) would otherwise
// keep that frame alive.
func TestInternedTypesPinNoFrame(t *testing.T) {
	constant := func(t *testing.T, what, got string) {
		t.Helper()
		for _, typ := range []string{typeAssy, typeComp, typeLink} {
			if got == typ {
				if unsafe.StringData(got) != unsafe.StringData(typ) {
					t.Errorf("%s: type %q is not the schema's constant", what, got)
				}
				return
			}
		}
		t.Errorf("%s: type %q is none of the schema's", what, got)
	}

	var rows []storage.Row
	for i, typ := range []string{typeAssy, typeComp, typeLink} {
		row := make(storage.Row, len(UnifiedCols))
		fillUnifiedRow(row, &Node{Type: typ, ObID: int64(i + 2), Name: "n", PathOpt: "base",
			Parent: 1, EffFrom: 1, EffTo: 10, StrcOpt: "base"})
		rows = append(rows, row)
	}
	for _, columnar := range []bool{false, true} {
		resp, err := wire.DecodeResponse(wire.EncodeResponseWith(&wire.Response{Cols: UnifiedCols, Rows: rows}, columnar))
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range resp.Rows {
			var n Node
			if err := decodeNode(row, &n); err != nil {
				t.Fatal(err)
			}
			if n.Type != rows[i][colType].Text() {
				t.Fatalf("columnar=%v: row %d decoded as %q, want %q", columnar, i, n.Type, rows[i][colType].Text())
			}
			constant(t, "decodeNode", n.Type)
		}
	}

	db := minisql.NewDB()
	if err := workload.LoadPaperExample(db.NewSession()); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(db)
	ctx := context.Background()
	for _, columnar := range []bool{false, true} {
		ch := &wire.MeteredChannel{Conn: srv.NewConn(), Meter: netsim.NewMeter(netsim.Intercontinental())}
		c := NewClient(ch, nil, nil, DefaultUser("scott"), costmodel.Recursive)
		if err := c.Apply(ctx, costmodel.Knobs{Strategy: costmodel.Recursive, Columnar: columnar, StalenessSec: -1}); err != nil {
			t.Fatal(err)
		}
		w := &wireFetcher{c: c}
		for _, typ := range []string{typeAssy, typeComp} {
			res, err := db.NewSession().Exec("SELECT obid FROM " + typ)
			if err != nil || len(res.Rows) == 0 {
				t.Fatalf("no %s object: %v", typ, err)
			}
			id := res.Rows[0][0].Int()
			for _, pass := range []string{"fetched", "cached"} {
				got, err := w.LookupType(ctx, id)
				if err != nil {
					t.Fatal(err)
				}
				if got != typ {
					t.Fatalf("LookupType(%d) = %q, want %q", id, got, typ)
				}
				constant(t, "LookupType "+pass, got)
			}
		}
	}
}
