package minisql

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pdmtune/internal/minisql/types"
)

// TestRecursiveCTEMatchesGoClosure: on random directed graphs, the
// engine's WITH RECURSIVE reachability equals a Go breadth-first search.
func TestRecursiveCTEMatchesGoClosure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		var edges [][2]int
		for i := 0; i < n*2; i++ {
			edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}

		// Go-side closure from node 0.
		adj := map[int][]int{}
		for _, e := range edges {
			adj[e[0]] = append(adj[e[0]], e[1])
		}
		reach := map[int]bool{0: true}
		queue := []int{0}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, y := range adj[x] {
				if !reach[y] {
					reach[y] = true
					queue = append(queue, y)
				}
			}
		}

		// Engine-side closure.
		s := NewDB().NewSession()
		if _, err := s.Exec("CREATE TABLE edge (src INTEGER, dst INTEGER)"); err != nil {
			return false
		}
		for _, e := range edges {
			if _, err := s.Exec("INSERT INTO edge VALUES (?, ?)",
				types.NewInt(int64(e[0])), types.NewInt(int64(e[1]))); err != nil {
				return false
			}
		}
		res, err := s.Exec(`WITH RECURSIVE r (node) AS (
			SELECT 0 UNION SELECT edge.dst FROM r JOIN edge ON r.node = edge.src
		) SELECT node FROM r ORDER BY 1`)
		if err != nil {
			return false
		}
		if len(res.Rows) != len(reach) {
			return false
		}
		for _, row := range res.Rows {
			if !reach[int(row[0].Int())] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSubqueryCountsProperty: counts filtered through uncorrelated and
// correlated subqueries (the former memoized per statement) equal the
// same counts computed directly from the rows.
func TestSubqueryCountsProperty(t *testing.T) {
	type row struct{ a, b int }
	queries := []struct {
		sql  string
		want func(rows []row) int64
	}{
		{"SELECT COUNT(*) FROM t WHERE b = (SELECT MAX(b) FROM t)", func(rows []row) (n int64) {
			max := rows[0].b
			for _, r := range rows {
				if r.b > max {
					max = r.b
				}
			}
			for _, r := range rows {
				if r.b == max {
					n++
				}
			}
			return n
		}},
		{"SELECT COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM t AS x WHERE x.a = t.a AND x.b > t.b)", func(rows []row) (n int64) {
			for _, r := range rows {
				for _, x := range rows {
					if x.a == r.a && x.b > r.b {
						n++
						break
					}
				}
			}
			return n
		}},
		{"SELECT COUNT(*) FROM t WHERE a IN (SELECT b FROM t)", func(rows []row) (n int64) {
			bs := map[int]bool{}
			for _, r := range rows {
				bs[r.b] = true
			}
			for _, r := range rows {
				if bs[r.a] {
					n++
				}
			}
			return n
		}},
		{"SELECT (SELECT COUNT(*) FROM t) + COUNT(*) FROM t", func(rows []row) int64 { return 2 * int64(len(rows)) }},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewDB().NewSession()
		if _, err := s.Exec("CREATE TABLE t (a INTEGER, b INTEGER)"); err != nil {
			return false
		}
		rows := make([]row, 25)
		for i := range rows {
			rows[i] = row{rng.Intn(6), rng.Intn(6)}
			if _, err := s.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", rows[i].a, rows[i].b)); err != nil {
				return false
			}
		}
		for _, q := range queries {
			res, err := s.Exec(q.sql)
			if err != nil || res.Rows[0][0].Int() != q.want(rows) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestUnionIdempotenceProperty: r UNION r == SELECT DISTINCT r.
func TestUnionIdempotenceProperty(t *testing.T) {
	f := func(vals []int8) bool {
		s := NewDB().NewSession()
		if _, err := s.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
			return false
		}
		for _, v := range vals {
			if _, err := s.Exec("INSERT INTO t VALUES (?)", types.NewInt(int64(v))); err != nil {
				return false
			}
		}
		u, err := s.Exec("SELECT a FROM t UNION SELECT a FROM t ORDER BY 1")
		if err != nil {
			return false
		}
		d, err := s.Exec("SELECT DISTINCT a FROM t ORDER BY 1")
		if err != nil {
			return false
		}
		if len(u.Rows) != len(d.Rows) {
			return false
		}
		for i := range u.Rows {
			if !types.SameKey(u.Rows[i][0], d.Rows[i][0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestOrderBySortedProperty: ORDER BY output is non-decreasing.
func TestOrderBySortedProperty(t *testing.T) {
	f := func(vals []int16) bool {
		s := NewDB().NewSession()
		if _, err := s.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
			return false
		}
		for _, v := range vals {
			if _, err := s.Exec("INSERT INTO t VALUES (?)", types.NewInt(int64(v))); err != nil {
				return false
			}
		}
		res, err := s.Exec("SELECT a FROM t ORDER BY a")
		if err != nil || len(res.Rows) != len(vals) {
			return false
		}
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i-1][0].Int() > res.Rows[i][0].Int() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestInsertSelectRoundTripProperty: values inserted with parameters come
// back unchanged.
func TestInsertSelectRoundTripProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		sess := NewDB().NewSession()
		if _, err := sess.Exec("CREATE TABLE t (i INTEGER, f FLOAT, s TEXT, b BOOLEAN)"); err != nil {
			return false
		}
		if _, err := sess.Exec("INSERT INTO t VALUES (?, ?, ?, ?)",
			types.NewInt(i), types.NewFloat(fl), types.NewText(s), types.NewBool(b)); err != nil {
			return false
		}
		res, err := sess.Exec("SELECT i, f, s, b FROM t")
		if err != nil || len(res.Rows) != 1 {
			return false
		}
		row := res.Rows[0]
		return types.SameKey(row[0], types.NewInt(i)) && types.SameKey(row[1], types.NewFloat(fl)) &&
			types.SameKey(row[2], types.NewText(s)) && types.SameKey(row[3], types.NewBool(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestWriteUnitProperty: random INSERT/UPDATE/DELETE statements on one
// table inside a write unit, then Abort, restore both the table and the
// epoch; the same statements followed by Commit equal running them one
// by one, and publish at exactly one new epoch.
func TestWriteUnitProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var stmts []string
		for i := 0; i < 10; i++ {
			switch rng.Intn(3) {
			case 0:
				stmts = append(stmts, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", 100+i, rng.Intn(5)))
			case 1:
				stmts = append(stmts, fmt.Sprintf("UPDATE t SET b = b + 1 WHERE a %% %d = 0", 1+rng.Intn(4)))
			case 2:
				stmts = append(stmts, fmt.Sprintf("DELETE FROM t WHERE b = %d", rng.Intn(5)))
			}
		}
		load := func() (*DB, *Session) {
			db := NewDB()
			s := db.NewSession()
			mustExec(t, s, "CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER)")
			for i := 0; i < 20; i++ {
				mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%5))
			}
			return db, s
		}
		unit := func(s *Session) {
			if err := s.Begin("t"); err != nil {
				t.Fatal(err)
			}
			for _, q := range stmts {
				mustExec(t, s, q)
			}
		}

		aborted, s := load()
		before, epoch := dumpTable(t, s, "t"), aborted.Epoch()
		unit(s)
		s.Abort()
		if dumpTable(t, s, "t") != before || aborted.Epoch() != epoch {
			return false
		}
		for a := int64(0); a < 110; a++ {
			if aborted.LastModified(a) > epoch {
				return false
			}
		}

		committed, s := load()
		unit(s)
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		serial, s2 := load()
		for _, q := range stmts {
			mustExec(t, s2, q)
		}
		want := epoch // a unit that touched no row does not advance the epoch
		if serial.Epoch() > epoch {
			want++
		}
		return dumpTable(t, s, "t") == dumpTable(t, s2, "t") && committed.Epoch() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
