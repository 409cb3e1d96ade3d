package ast

import (
	goast "go/ast"
	"go/parser"
	"go/token"
	"testing"

	"pdmtune/internal/minisql/types"
)

func lit(i int64) Expr     { return &Literal{Value: types.NewInt(i)} }
func col(t, c string) Expr { return &ColumnRef{Table: t, Column: c} }
func text(s string) Expr   { return &Literal{Value: types.NewText(s)} }

func TestAndWhere(t *testing.T) {
	if AndWhere(nil, nil) != nil {
		t.Error("nil AND nil must be nil")
	}
	e := lit(1)
	if AndWhere(nil, e) != e {
		t.Error("nil AND e must be e")
	}
	if AndWhere(e, nil) != e {
		t.Error("e AND nil must be e")
	}
	combined := AndWhere(col("", "a"), col("", "b"))
	if combined.String() != "(a AND b)" {
		t.Errorf("combined = %s", combined)
	}
}

func TestOrAll(t *testing.T) {
	if OrAll(nil) != nil {
		t.Error("empty disjunction must be nil")
	}
	one := OrAll([]Expr{col("", "a")})
	if one.String() != "a" {
		t.Errorf("single = %s", one)
	}
	three := OrAll([]Expr{col("", "a"), col("", "b"), col("", "c")})
	if three.String() != "((a OR b) OR c)" {
		t.Errorf("three = %s", three)
	}
}

func TestStatementPrinters(t *testing.T) {
	cases := []struct {
		stmt Statement
		want string
	}{
		{&DropTable{Name: "t"}, "DROP TABLE t"},
		{&DropTable{Name: "t", IfExists: true}, "DROP TABLE IF EXISTS t"},
		{&Call{Proc: "p", Args: []Expr{lit(1), text("x")}}, "CALL p(1, 'x')"},
		{&CreateIndex{Name: "i", Table: "t", Column: "c"}, "CREATE INDEX i ON t (c)"},
		{&CreateIndex{Name: "i", Table: "t", Column: "c", Unique: true, IfNotExists: true},
			"CREATE UNIQUE INDEX IF NOT EXISTS i ON t (c)"},
		{&Delete{Table: "t", Where: lit(1)}, "DELETE FROM t WHERE 1"},
		{&Update{Table: "t", Set: []Assignment{{Column: "a", Value: lit(2)}}},
			"UPDATE t SET a = 2"},
	}
	for _, c := range cases {
		if got := c.stmt.String(); got != c.want {
			t.Errorf("%T = %q, want %q", c.stmt, got, c.want)
		}
	}
}

func TestExplainPrinter(t *testing.T) {
	e := &Explain{Stmt: &DropTable{Name: "t"}}
	if e.String() != "EXPLAIN DROP TABLE t" {
		t.Errorf("explain = %s", e)
	}
}

func TestSelectPrinterParts(t *testing.T) {
	sel := &Select{
		With: &With{Recursive: true, CTEs: []CTE{{
			Name: "r", Cols: []string{"n"},
			Select: &Select{Body: &SelectCore{Items: []SelectItem{{Expr: lit(1)}}}},
		}}},
		Body: &SelectCore{
			Distinct: true,
			Items:    []SelectItem{{Star: true, StarTable: "t"}},
			From:     &CrossList{Items: []TableRef{&BaseTable{Name: "t"}, &BaseTable{Name: "u", Alias: "v"}}},
			Where:    &Binary{Op: "=", Left: col("t", "a"), Right: col("v", "b")},
			GroupBy:  []Expr{col("t", "a")},
			Having:   &Binary{Op: ">", Left: &Aggregate{Func: "COUNT", Star: true}, Right: lit(1)},
		},
		OrderBy: []OrderItem{{Position: 1, Desc: true}, {Expr: col("t", "a")}},
		Limit:   lit(5),
		Offset:  lit(2),
	}
	want := `WITH RECURSIVE r (n) AS (SELECT 1) SELECT DISTINCT t.* FROM t, u AS v ` +
		`WHERE (t.a = v.b) GROUP BY t.a HAVING (COUNT(*) > 1) ORDER BY 1 DESC, t.a LIMIT 5 OFFSET 2`
	if got := sel.String(); got != want {
		t.Errorf("select printer:\n got %s\nwant %s", got, want)
	}
}

func TestExprPrinters(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{&Param{}, "?"},
		{&Unary{Op: "-", Expr: col("", "a")}, "(-a)"},
		{&IsNull{Expr: col("", "a"), Not: true}, "(a IS NOT NULL)"},
		{&Between{Expr: col("", "a"), Lo: lit(1), Hi: lit(2), Not: true}, "(a NOT BETWEEN 1 AND 2)"},
		{&Like{Expr: col("", "a"), Pattern: text("x%"), Not: true}, "(a NOT LIKE 'x%')"},
		{&InList{Expr: col("", "a"), Items: []Expr{lit(1), lit(2)}, Not: true}, "(a NOT IN (1, 2))"},
		{&Cast{Expr: lit(1), Type: types.ColumnType{Kind: types.KindText, Size: 5}}, "CAST(1 AS VARCHAR(5))"},
		{&FuncCall{Name: "f", Args: []Expr{lit(1)}}, "f(1)"},
		{&Aggregate{Func: "SUM", Distinct: true, Arg: col("", "a")}, "SUM(DISTINCT a)"},
		{&Case{Operand: col("", "a"), Whens: []When{{Cond: lit(1), Result: text("x")}}, Else: text("y")},
			"CASE a WHEN 1 THEN 'x' ELSE 'y' END"},
		{&Literal{Value: types.NewText("o'x")}, "'o''x'"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("%T = %q, want %q", c.e, got, c.want)
		}
	}
}

func TestInsertPrinter(t *testing.T) {
	ins := &Insert{Table: "t", Cols: []string{"a"}, Rows: [][]Expr{{lit(1)}, {lit(2)}}}
	if got := ins.String(); got != "INSERT INTO t (a) VALUES (1), (2)" {
		t.Errorf("insert = %s", got)
	}
	sel := &Insert{Table: "t", Select: &Select{Body: &SelectCore{Items: []SelectItem{{Star: true}}, From: &BaseTable{Name: "u"}}}}
	if got := sel.String(); got != "INSERT INTO t SELECT * FROM u" {
		t.Errorf("insert-select = %s", got)
	}
}

func TestSubqueryTablePrinter(t *testing.T) {
	st := &SubqueryTable{
		Select: &Select{Body: &SelectCore{Items: []SelectItem{{Expr: lit(1), Alias: "x"}}}},
		Alias:  "v",
	}
	if got := st.String(); got != `(SELECT 1 AS "x") AS v` {
		t.Errorf("subquery table = %s", got)
	}
}

// TestTraversalsCoverEveryNodeType: every type ast.go marks as an Expr,
// TableRef or SelectBody must have an instance below, and Inspect and
// Rewrite must both have a case for it (their default cases panic) — so
// a node type cannot be added, or dropped from an enumeration, without
// this test failing. The marker methods are read from the source because
// Go cannot list an interface's implementers.
func TestTraversalsCoverEveryNodeType(t *testing.T) {
	sel := &Select{Body: &SelectCore{Items: []SelectItem{{Star: true}}}}
	instances := map[string]Node{
		"Literal": lit(1), "Param": &Param{}, "ColumnRef": col("t", "a"),
		"Binary": &Binary{Op: "+", Left: lit(1), Right: lit(2)}, "Unary": &Unary{Op: "-", Expr: lit(1)},
		"IsNull": &IsNull{Expr: lit(1)}, "Between": &Between{Expr: lit(1), Lo: lit(0), Hi: lit(2)},
		"Like": &Like{Expr: text("a"), Pattern: text("%")}, "InList": &InList{Expr: lit(1), Items: []Expr{lit(1)}},
		"InSubquery": &InSubquery{Expr: lit(1), Select: sel}, "Exists": &Exists{Select: sel},
		"ScalarSubquery": &ScalarSubquery{Select: sel}, "Cast": &Cast{Expr: lit(1)},
		"FuncCall": &FuncCall{Name: "f", Args: []Expr{lit(1)}}, "Aggregate": &Aggregate{Func: "COUNT", Star: true},
		"Case":      &Case{Whens: []When{{Cond: lit(1), Result: lit(2)}}},
		"BaseTable": &BaseTable{Name: "t"}, "Join": &Join{Type: "INNER", Left: &BaseTable{Name: "t"}, Right: &BaseTable{Name: "u"}, On: lit(1)},
		"CrossList": &CrossList{Items: []TableRef{&BaseTable{Name: "t"}}}, "SubqueryTable": &SubqueryTable{Select: sel, Alias: "s"},
		"SetOp": &SetOp{Op: "UNION", Left: sel.Body, Right: sel.Body}, "SelectCore": sel.Body,
	}
	file, err := parser.ParseFile(token.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for _, decl := range file.Decls {
		fd, ok := decl.(*goast.FuncDecl)
		if !ok || fd.Recv == nil || (fd.Name.Name != "expr" && fd.Name.Name != "tableRef" && fd.Name.Name != "selectBody") {
			continue
		}
		marked++
		name := fd.Recv.List[0].Type.(*goast.StarExpr).X.(*goast.Ident).Name
		n, ok := instances[name]
		if !ok {
			t.Errorf("node type %s has no instance in this test: add one, and a case to Inspect and Rewrite", name)
			continue
		}
		// Wrapped so that Rewrite reaches table references and select
		// bodies too, which it only meets inside a subquery.
		wrapped := n
		switch x := n.(type) {
		case TableRef:
			wrapped = &Exists{Select: &Select{Body: &SelectCore{From: x}}}
		case SelectBody:
			wrapped = &Exists{Select: &Select{Body: x}}
		}
		seen := false
		Inspect(wrapped, func(m Node) bool { seen = seen || m == n; return true })
		if !seen {
			t.Errorf("Inspect does not reach %s", name)
		}
		if got := Rewrite(wrapped.(Expr), func(e Expr) Expr { return e }); got.String() != wrapped.String() || got == wrapped {
			t.Errorf("Rewrite(%s) = %s, want a copy of %s", name, got, wrapped)
		}
	}
	if marked != len(instances) {
		t.Errorf("%d marker methods in ast.go, %d instances here", marked, len(instances))
	}
}

func TestRewriteReplacesWithoutDescending(t *testing.T) {
	e := &Binary{Op: "AND", Left: col("t", "a"), Right: &Exists{Select: &Select{Body: &SelectCore{
		Items: []SelectItem{{Star: true}}, From: &BaseTable{Name: "u"},
		Where: &Binary{Op: "=", Left: col("u", "x"), Right: col("t", "a")}}}}}
	n := 0
	got := Rewrite(e, func(x Expr) Expr {
		if c, ok := x.(*ColumnRef); ok && c.Table == "t" {
			n++
			return &Param{}
		}
		return x
	})
	if want := "(? AND (EXISTS (SELECT * FROM u WHERE (u.x = ?))))"; got.String() != want || n != 2 {
		t.Errorf("got %s with %d replacements, want %s with 2", got, n, want)
	}
	if e.String() != "(t.a AND (EXISTS (SELECT * FROM u WHERE (u.x = t.a))))" {
		t.Errorf("Rewrite changed its input: %s", e)
	}
	if cores := Cores(&SetOp{Op: "UNION", Left: &SetOp{Op: "UNION ALL", Left: &SelectCore{}, Right: &SelectCore{}}, Right: &SelectCore{}}); len(cores) != 3 {
		t.Errorf("Cores found %d cores, want 3", len(cores))
	}
}
