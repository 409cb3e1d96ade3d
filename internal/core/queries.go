package core

import (
	"fmt"

	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/parser"
)

// RecTable is the name of the recursion table in generated queries; tree
// conditions (∀rows, tree-aggregate) reference it.
const RecTable = "rtbl"

// UnifiedCols lists the columns of the unified ("homogenized") result
// type of Section 5.2: the union of all attribute definitions of all
// object types in the result, plus the type discriminator; attributes an
// object type lacks are NULL/empty.
var UnifiedCols = []string{
	"type", "obid", "name", "dec", "make_or_buy", "state", "material",
	"weight", "checkedout", "data", "path_opt",
	"left", "right", "eff_from", "eff_to", "strc_opt",
}

// mustParseSelect parses builder-generated SQL; generation bugs are
// programming errors, hence panic.
func mustParseSelect(sql string) *ast.Select {
	stmt, err := parser.Parse(sql)
	if err != nil {
		panic(fmt.Sprintf("core: generated query does not parse: %v\n%s", err, sql))
	}
	sel, ok := stmt.(*ast.Select)
	if !ok {
		panic("core: generated query is not a SELECT")
	}
	return sel
}

// BuildExpandQuery returns the navigational single-level-expand query:
// a single SQL statement fetching all direct children (assemblies and
// components) of one parent together with the connecting links,
// homogenized into one result type. The paper's navigational access
// translates tree traversal "nearly one-to-one into single, isolated
// SQL queries" of this shape — one per visited node. The parent id is a
// `?` placeholder (once per UNION branch), so the statement text is
// identical for every visited node: the server parses it once, and a
// node costs the text (or, prepared, a handle) plus two integer
// parameters on the wire.
func BuildExpandQuery() *ast.Select {
	return mustParseSelect(`
SELECT assy.type, assy.obid, assy.name, assy.dec, assy.make_or_buy, assy.state,
       '' AS "material", assy.weight, assy.checkedout, assy.data, assy.path_opt,
       link.left, link.right, link.eff_from, link.eff_to, link.strc_opt
  FROM link JOIN assy ON link.right = assy.obid
  WHERE link.left = ?
UNION ALL
SELECT comp.type, comp.obid, comp.name, '' AS "dec", '' AS "make_or_buy", comp.state,
       comp.material, comp.weight, comp.checkedout, comp.data, comp.path_opt,
       link.left, link.right, link.eff_from, link.eff_to, link.strc_opt
  FROM link JOIN comp ON link.right = comp.obid
  WHERE link.left = ?`)
}

// BuildQueryAll returns the set-oriented "Query" action of Table 2: all
// nodes of a product in one statement, without structure information.
// (PDM node rows carry the product id, so no recursion is needed.) The
// product id is a `?` placeholder, once per UNION branch.
func BuildQueryAll() *ast.Select {
	return mustParseSelect(`
SELECT assy.type, assy.obid, assy.name, assy.dec, assy.make_or_buy, assy.state,
       '' AS "material", assy.weight, assy.checkedout, assy.data, assy.path_opt,
       CAST(NULL AS INTEGER) AS "left", CAST(NULL AS INTEGER) AS "right",
       CAST(NULL AS INTEGER) AS "eff_from", CAST(NULL AS INTEGER) AS "eff_to",
       CAST(NULL AS TEXT) AS "strc_opt"
  FROM assy
  WHERE assy.prod = ?
UNION ALL
SELECT comp.type, comp.obid, comp.name, '' AS "dec", '' AS "make_or_buy", comp.state,
       comp.material, comp.weight, comp.checkedout, comp.data, comp.path_opt,
       CAST(NULL AS INTEGER) AS "left", CAST(NULL AS INTEGER) AS "right",
       CAST(NULL AS INTEGER) AS "eff_from", CAST(NULL AS INTEGER) AS "eff_to",
       CAST(NULL AS TEXT) AS "strc_opt"
  FROM comp
  WHERE comp.prod = ?`)
}

// BuildReportQuery returns the Report action's statement: one aggregate
// row per node table over the product — the node count, the total weight
// (NULL weights skipped; NULL when the table holds none of the product)
// and the number of nodes checked out. The assy row comes first. The
// product id is a `?` placeholder, once per UNION branch, keyed by the
// tables' prod index.
func BuildReportQuery() *ast.Select {
	return mustParseSelect(`
SELECT COUNT(*), SUM(weight), SUM(CASE WHEN checkedout THEN 1 ELSE 0 END)
  FROM assy
  WHERE prod = ?
UNION ALL
SELECT COUNT(*), SUM(weight), SUM(CASE WHEN checkedout THEN 1 ELSE 0 END)
  FROM comp
  WHERE prod = ?`)
}

// BuildRecursiveQuery returns the Section 5.2 recursive query: one
// statement collecting the whole object tree under the root (the one `?`
// placeholder) into the unified result type — node rows from the
// recursion table plus the link rows needed to reconstruct the
// structure. Rule predicates are injected afterwards by the Modifier
// (Section 5.5).
func BuildRecursiveQuery() *ast.Select {
	return mustParseSelect(`
WITH RECURSIVE rtbl (type, obid, name, dec, make_or_buy, state, material, weight, checkedout, data, path_opt) AS
 (SELECT type, obid, name, dec, make_or_buy, state, '', weight, checkedout, data, path_opt
    FROM assy
    WHERE assy.obid = ?
  UNION
  SELECT assy.type, assy.obid, assy.name, assy.dec, assy.make_or_buy, assy.state, '',
         assy.weight, assy.checkedout, assy.data, assy.path_opt
    FROM rtbl JOIN link ON rtbl.obid = link.left
              JOIN assy ON link.right = assy.obid
  UNION
  SELECT comp.type, comp.obid, comp.name, '', '', comp.state, comp.material,
         comp.weight, comp.checkedout, comp.data, comp.path_opt
    FROM rtbl JOIN link ON rtbl.obid = link.left
              JOIN comp ON link.right = comp.obid
 )
SELECT type, obid, name, dec, make_or_buy, state, material, weight, checkedout, data, path_opt,
       CAST(NULL AS INTEGER) AS "left", CAST(NULL AS INTEGER) AS "right",
       CAST(NULL AS INTEGER) AS "eff_from", CAST(NULL AS INTEGER) AS "eff_to",
       CAST(NULL AS TEXT) AS "strc_opt"
  FROM rtbl
UNION
SELECT type, obid, '' AS "name", '' AS "dec", '' AS "make_or_buy", '' AS "state",
       '' AS "material", CAST(NULL AS FLOAT) AS "weight",
       CAST(NULL AS BOOLEAN) AS "checkedout", '' AS "data", '' AS "path_opt",
       left, right, eff_from, eff_to, strc_opt
  FROM link
  WHERE (left IN (SELECT obid FROM rtbl)
     AND right IN (SELECT obid FROM rtbl))
ORDER BY 1, 2`)
}

// whereUsedClosure is the upward closure of one part (the `?`
// placeholder): every assembly that uses it directly or transitively,
// walked link.right → link.left — the inverse of the expand direction —
// and seeded by the part's direct parents, so the part itself is not in
// it. The where-used statement and the ECO procedure share it.
const whereUsedClosure = `
WITH RECURSIVE wtbl (obid) AS
 (SELECT left FROM link WHERE right = ?
  UNION
  SELECT link.left FROM wtbl JOIN link ON wtbl.obid = link.right)`

// BuildWhereUsedQuery returns the where-used action as one statement:
// the part's upward closure (the one `?` placeholder) and the records of
// its members, homogenized into the unified result type. No access rule
// is applied to the walk; the Modifier injects the row conditions into
// the two record-fetch SELECTs (ModifyNavigational).
func BuildWhereUsedQuery() *ast.Select {
	return mustParseSelect(whereUsedClosure + fetchNodesSQL("SELECT obid FROM wtbl"))
}

// BuildWhereUsedLevelSQL returns one upward BFS level of the
// navigational where-used traversal: the parent assemblies of the given
// objects.
func BuildWhereUsedLevelSQL(ids []int64) string {
	return "SELECT left FROM link WHERE right IN (" + idList(ids) + ")"
}

// BuildFetchNodesSQL returns the record-fetch statement of a
// navigational where-used result: the given objects.
func BuildFetchNodesSQL(ids []int64) string {
	return fetchNodesSQL(idList(ids))
}

// fetchNodesSQL returns the records of the objects (assemblies and
// components) whose ids the key set lists, homogenized into the unified
// result type without link columns — where-used ancestors are a set,
// not a tree.
func fetchNodesSQL(keys string) string {
	return fmt.Sprintf(`
SELECT assy.type, assy.obid, assy.name, assy.dec, assy.make_or_buy, assy.state,
       '' AS "material", assy.weight, assy.checkedout, assy.data, assy.path_opt,
       CAST(NULL AS INTEGER) AS "left", CAST(NULL AS INTEGER) AS "right",
       CAST(NULL AS INTEGER) AS "eff_from", CAST(NULL AS INTEGER) AS "eff_to",
       CAST(NULL AS TEXT) AS "strc_opt"
  FROM assy
  WHERE assy.obid IN (%s)
UNION ALL
SELECT comp.type, comp.obid, comp.name, '' AS "dec", '' AS "make_or_buy", comp.state,
       comp.material, comp.weight, comp.checkedout, comp.data, comp.path_opt,
       CAST(NULL AS INTEGER) AS "left", CAST(NULL AS INTEGER) AS "right",
       CAST(NULL AS INTEGER) AS "eff_from", CAST(NULL AS INTEGER) AS "eff_to",
       CAST(NULL AS TEXT) AS "strc_opt"
  FROM comp
  WHERE comp.obid IN (%s)`, keys, keys)
}

// idList renders ids as a comma-separated SQL IN list.
func idList(ids []int64) string {
	var b []byte
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%d", id)
	}
	return string(b)
}

// BuildProbeExists turns an ∃structure condition into a standalone probe
// query — what a navigational client must ship per candidate node
// because it cannot evaluate the condition locally (the related objects
// live on the server). Every reference to <objType>.obid becomes a `?`
// placeholder, so one probe text serves all candidate nodes of a rule.
// It returns the number of placeholders; the caller binds the probed
// object id to each (all placeholders carry the same value, so binding
// order is immaterial).
func BuildProbeExists(cond string, u UserContext, objType string) (*ast.Select, int, error) {
	e, err := parser.ParseExpr(u.Expand(cond))
	if err != nil {
		return nil, 0, err
	}
	n := 0
	e = substituteColumnParam(e, objType, "obid", &n)
	core := &ast.SelectCore{
		Items: []ast.SelectItem{{Expr: &ast.Literal{Value: intValue(1)}, Alias: "ok"}},
		Where: e,
	}
	return &ast.Select{Body: core}, n, nil
}
