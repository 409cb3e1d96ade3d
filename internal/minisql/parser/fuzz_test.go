package parser

import (
	"math/rand"
	"testing"
)

// fuzzScripts seeds both the Go fuzzer and the deterministic mutation
// test below with every statement shape the dialect supports.
var fuzzScripts = []string{
	"SELECT 1;",
	benchSelect + ";",
	benchRecursiveMLE,
	"SELECT a.*, t.left, \"Q\" FROM t AS a, u b WHERE NOT a.x NOT IN (SELECT y FROM u) AND x NOT BETWEEN 1 AND 2 OR y NOT LIKE 'z%';",
	"INSERT INTO t (a, b) VALUES (1, 'x''y'), (?, NULL); UPDATE t SET a = a + 1, b = default WHERE c IS NOT NULL;",
	"CREATE TABLE IF NOT EXISTS t (id integer PRIMARY KEY, name varchar(40) NOT NULL DEFAULT 'n'); CREATE UNIQUE INDEX i ON t (id);",
	"DROP TABLE IF EXISTS t; BEGIN TRANSACTION; COMMIT WORK; ROLLBACK;",
	"CALL expand(1, count(*)); EXPLAIN SELECT CASE WHEN a = 1 THEN 'one' ELSE cast(a AS text) END FROM t -- trailing\n;",
	"SELECT sum(DISTINCT x), count(*), avg(y) FROM t GROUP BY z HAVING count(*) > 2 ORDER BY 1 DESC LIMIT 10 OFFSET 2;",
	"SELECT * FROM (SELECT x FROM t UNION ALL SELECT y FROM u) sub /* block */ WHERE EXISTS (SELECT 1 FROM v);",
}

// FuzzParseScript asserts the byte-scan lexer and the parser never panic
// or read out of bounds, whatever bytes arrive.
func FuzzParseScript(f *testing.F) {
	for _, s := range fuzzScripts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Errors are expected on mangled input; panics/OOB are the bug.
		stmts, err := ParseScript(src)
		if err == nil {
			// Parsed scripts must round-trip through String() without
			// panicking either (the query modificator relies on it).
			for _, st := range stmts {
				_ = st.String()
			}
		}
	})
}

// TestParseScriptRandomMutations is the always-on version of the fuzz
// target: deterministic random byte mutations of valid scripts, so `go
// test` exercises the OOB risk surface without -fuzz.
func TestParseScriptRandomMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	interesting := []byte{0, ' ', '\n', '\'', '"', '-', '/', '*', '|', '!', '<', '>', '=', '.', ';', '(', ')', '?', 'e', '9', 0x85, 0xa0, 0xff}
	for round := 0; round < 5000; round++ {
		src := fuzzScripts[rng.Intn(len(fuzzScripts))]
		b := []byte(src)
		switch rng.Intn(3) {
		case 0: // mutate bytes in place
			for n := rng.Intn(4) + 1; n > 0; n-- {
				b[rng.Intn(len(b))] = interesting[rng.Intn(len(interesting))]
			}
		case 1: // truncate
			b = b[:rng.Intn(len(b))]
		case 2: // splice a random chunk of another script
			other := fuzzScripts[rng.Intn(len(fuzzScripts))]
			cut := rng.Intn(len(b))
			b = append(b[:cut:cut], other[rng.Intn(len(other)):]...)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ParseScript panicked on %q: %v", b, r)
				}
			}()
			if stmts, err := ParseScript(string(b)); err == nil {
				for _, st := range stmts {
					_ = st.String()
				}
			}
		}()
	}
}
