package parser

import "testing"

// benchSelect is the shape of the per-level expansion statement the PDM
// client issues thousands of times per MLE.
const benchSelect = "SELECT type, obid, name, dec FROM assy JOIN link ON assy.obid = link.left WHERE assy.dec = 'released' AND link.right IN (1, 2, 3)"

// benchRecursiveMLE is the paper's Section 5.2 single-statement recursive
// multi-level expansion — the largest statement in the workload.
const benchRecursiveMLE = `WITH RECURSIVE rtbl (type, obid, name, dec) AS
 (SELECT type, obid, name, dec FROM assy WHERE assy.obid = 1
  UNION
  SELECT assy.type, assy.obid, assy.name, assy.dec
    FROM rtbl JOIN link ON rtbl.obid = link.left
              JOIN assy ON link.right = assy.obid
  UNION
  SELECT comp.type, comp.obid, comp.name, ''
    FROM rtbl JOIN link ON rtbl.obid = link.left
              JOIN comp ON link.right = comp.obid)
SELECT type, obid, name, dec AS "DEC",
       cast (NULL AS integer) AS "LEFT",
       cast (NULL AS integer) AS "RIGHT",
       cast (NULL AS integer) AS "EFF_FROM",
       cast (NULL AS integer) AS "EFF_TO"
  FROM rtbl
UNION
SELECT type, obid, '' AS "NAME", '' AS "DEC", left, right, eff_from, eff_to
  FROM link
  WHERE (left IN (SELECT obid FROM rtbl) AND right IN (SELECT obid FROM rtbl))
ORDER BY 1, 2`

// BenchmarkParseSelect measures Parse as a plan-cache miss pays it.
func BenchmarkParseSelect(b *testing.B) {
	b.SetBytes(int64(len(benchSelect)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchSelect); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseRecursiveMLE(b *testing.B) {
	b.SetBytes(int64(len(benchRecursiveMLE)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchRecursiveMLE); err != nil {
			b.Fatal(err)
		}
	}
}
