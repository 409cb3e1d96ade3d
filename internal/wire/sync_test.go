package wire

import (
	"context"
	"io"
	"reflect"
	"testing"

	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/netsim"
)

func mustExec(t *testing.T, s *minisql.Session, sql string) {
	t.Helper()
	if _, err := s.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// TestSyncRespRoundTrip: a delta survives encode/decode unchanged —
// stamps, schemas, indexes, defaults and rows.
func TestSyncRespRoundTrip(t *testing.T) {
	d := &storage.Delta{
		Since: 3,
		Epoch: 17,
		Stamps: map[int64]uint64{
			1: 5, -2: 17, 1_000_001: 9,
		},
		Tables: []storage.TableDelta{
			{
				Schema: &storage.Schema{Name: "obj", Cols: []storage.Column{
					{Name: "obid", Type: types.ColumnType{Kind: types.KindInt}, PrimaryKey: true},
					{Name: "name", Type: types.ColumnType{Kind: types.KindText, Size: 32}, NotNull: true},
					{Name: "w", Type: types.ColumnType{Kind: types.KindFloat},
						HasDefault: true, Default: types.NewFloat(1.5)},
				}},
				VersionKey: "obid",
				Indexes:    []storage.IndexSpec{{Name: "obj_name_idx", Column: "name", Unique: false}},
				Rows: []storage.Row{
					{types.NewInt(1), types.NewText("a"), types.Null},
					{types.NewInt(-2), types.NewText("b"), types.NewFloat(2.5)},
				},
			},
			{
				Schema: &storage.Schema{Name: "empty", Cols: []storage.Column{
					{Name: "k", Type: types.ColumnType{Kind: types.KindInt}, PrimaryKey: true},
				}},
				VersionKey: "k",
			},
		},
	}
	got, err := DecodeSyncResp(EncodeSyncResp(d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("delta round trip mismatch:\n got %+v\nwant %+v", got, d)
	}
}

// TestSyncReqRoundTrip: the since epoch survives, and truncated or
// corrupt frames are rejected instead of over-allocating.
func TestSyncReqRoundTrip(t *testing.T) {
	since, site, err := DecodeSyncSite(EncodeSyncFrom(42, ""))
	if err != nil || since != 42 || site != "" {
		t.Fatalf("DecodeSyncSite = %d, %q, %v", since, site, err)
	}
	if _, _, err := DecodeSyncSite([]byte{TypeSyncResp}); err == nil {
		t.Error("DecodeSyncSite accepted a wrong tag")
	}
	// A sync response claiming 2^31 stamps in a 32-byte frame must be
	// rejected before allocating.
	bomb := []byte{TypeSyncResp}
	bomb = appendUint64(bomb, 0)
	bomb = appendUint64(bomb, 1)
	bomb = appendUint32(bomb, 1<<31)
	if _, err := DecodeSyncResp(bomb); err != io.ErrUnexpectedEOF {
		t.Errorf("stamp bomb: err = %v, want unexpected EOF", err)
	}
	// Same for a table-count bomb.
	bomb2 := []byte{TypeSyncResp}
	bomb2 = appendUint64(bomb2, 0)
	bomb2 = appendUint64(bomb2, 1)
	bomb2 = appendUint32(bomb2, 0)
	bomb2 = appendUint32(bomb2, 1<<30)
	if _, err := DecodeSyncResp(bomb2); err != io.ErrUnexpectedEOF {
		t.Errorf("table bomb: err = %v, want unexpected EOF", err)
	}
}

// TestServerSyncAndApply: a replica pulls a delta over the wire and
// applies it; a second pull above the new epoch is empty.
func TestServerSyncAndApply(t *testing.T) {
	primaryDB := minisql.NewDB()
	ps := primaryDB.NewSession()
	mustExec(t, ps, "CREATE TABLE obj (obid INTEGER PRIMARY KEY, name TEXT)")
	mustExec(t, ps, "INSERT INTO obj VALUES (1, 'a'), (2, 'b')")
	server := NewServer(primaryDB)
	meter := netsim.NewMeter(netsim.LAN())
	client := NewClient(&MeteredChannel{Conn: server.NewConn(), Meter: meter})

	d, err := client.SyncFrom(context.Background(), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if d.RowCount() != 2 {
		t.Fatalf("bootstrap rows = %d, want 2", d.RowCount())
	}
	if meter.Metrics.SyncRoundTrips != 1 || meter.Metrics.Statements != 0 {
		t.Errorf("sync accounting: %+v", meter.Metrics)
	}

	replicaDB := minisql.NewDB()
	if err := replicaDB.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	res, err := replicaDB.NewSession().Query("SELECT name FROM obj WHERE obid = 2")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Text() != "b" {
		t.Fatalf("replica query: %v %+v", err, res)
	}

	empty, err := client.SyncFrom(context.Background(), d.Epoch, "")
	if err != nil {
		t.Fatal(err)
	}
	if empty.RowCount() != 0 || len(empty.Stamps) != 0 {
		t.Fatalf("delta above the current epoch not empty: %d rows, %d stamps",
			empty.RowCount(), len(empty.Stamps))
	}
}
