package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pdmtune/internal/costmodel"
	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/exec"
	"pdmtune/internal/minisql/parser"
	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
)

// These tests pin the client's compiled predicate table (treecond.go)
// against the evaluation it replaced: every relevant rule parsed for
// every row, OR-combined, and evaluated by column name.

// byName is the reference: the disjunction of the relevant rules,
// parsed afresh and evaluated over the unified columns by name.
func byName(rt *RuleTable, u UserContext, kind Kind, objType, action string, row storage.Row) (bool, error) {
	rules := rt.Relevant(u.Name, []string{action, ActionAccess}, objType, kind)
	if len(rules) == 0 {
		return true, nil
	}
	var preds []ast.Expr
	for _, r := range rules {
		e, err := parser.ParseExpr(u.Expand(r.Cond))
		if err != nil {
			return false, fmt.Errorf("core: rule for %s/%s: %v", r.ObjType, r.Action, err)
		}
		preds = append(preds, e)
	}
	alias := objType
	if kind != KindRow {
		alias = RecTable
	}
	ctx := &exec.Context{Funcs: minisql.BuiltinFuncs()}
	v, err := ctx.EvalExpr(ast.OrAll(preds), exec.NewEnv(unifiedColsFor(alias), row, nil))
	if err != nil {
		return false, err
	}
	return boolValue(v), nil
}

// genUnifiedRow draws one unified row: NULLs everywhere a column can
// hold one, empty and padded option sets, effectivity bounds around the
// users' ranges, and now and then a value of the wrong kind.
func genUnifiedRow(rng *rand.Rand) storage.Row {
	pick := func(vs ...types.Value) types.Value { return vs[rng.Intn(len(vs))] }
	optSet := func() types.Value {
		return pick(types.Null, types.NewText(""), types.NewText("base"), types.NewText(" base "),
			types.NewText("alt"), types.NewText("base,alt"), types.NewText(" alt , base "), types.NewText(","))
	}
	bound := func() types.Value {
		if rng.Intn(8) == 0 {
			return types.Null
		}
		return types.NewInt(int64(rng.Intn(13)))
	}
	row := make(storage.Row, len(UnifiedCols))
	row[colType] = pick(types.NewText("assy"), types.NewText("comp"), types.NewText("link"))
	row[colObID] = types.NewInt(int64(rng.Intn(1000)))
	row[colName] = pick(types.Null, types.NewText("scott"), types.NewText("o'brien"), types.NewText("x"))
	row[colDec] = pick(types.Null, types.NewText("d"))
	row[colMakeOrBuy] = pick(types.Null, types.NewText("make"), types.NewText("buy"))
	row[colState] = pick(types.Null, types.NewText("released"), types.NewText("in-work"))
	row[colMaterial] = pick(types.Null, types.NewText("steel"), types.NewText("stone"), types.NewText(""))
	row[colWeight] = pick(types.Null, types.NewFloat(rng.Float64()*10), types.NewInt(int64(rng.Intn(10))), types.NewText("heavy"))
	row[colCheckedOut] = pick(types.Null, types.NewBool(true), types.NewBool(false))
	row[colData] = pick(types.NewText(""), types.NewText("blob"))
	row[colPathOpt] = optSet()
	row[colLeft] = pick(types.Null, types.NewInt(int64(rng.Intn(1000))))
	row[colRight] = pick(types.Null, types.NewInt(int64(rng.Intn(1000))))
	row[colEffFrom] = bound()
	row[colEffTo] = bound()
	row[colStrcOpt] = optSet()
	return row
}

// TestCompiledPredicatesMatchByName: over generated unified rows, the
// compiled predicate of every (kind, object type, action) gives the
// same truth value and the same error as the by-name reference — for
// the standard rules, OR groups, a user environment with quotes and
// padding, a misspelt column in an arm that AND or OR short-circuits,
// and a rule that does not parse.
func TestCompiledPredicatesMatchByName(t *testing.T) {
	rt := StandardRules()
	rt.MustAdd(Rule{User: Wildcard, Action: ActionAccess, ObjType: "link", Kind: KindRow,
		Cond: "link.strc_opt IS NULL OR link.eff_to >= {eff_to}"})
	rt.MustAdd(Rule{User: "scott", Action: ActionMLE, ObjType: "assy", Kind: KindRow,
		Cond: "assy.make_or_buy <> 'buy'"})
	rt.MustAdd(Rule{User: "scott", Action: ActionMLE, ObjType: "assy", Kind: KindRow,
		Cond: "assy.weight > 5 AND assy.no_such_col = 1"})
	rt.MustAdd(Rule{User: Wildcard, Action: ActionQuery, ObjType: "comp", Kind: KindRow,
		Cond: "comp.material LIKE 'st%' OR comp.nosuch = 1"})
	rt.MustAdd(Rule{User: Wildcard, Action: ActionMLE, ObjType: "comp", Kind: KindRow,
		Cond: "name <> {user} AND state IN ('released', 'in-work') AND link.left IS NULL"})
	rt.MustAdd(Rule{User: Wildcard, Action: ActionMLE, ObjType: TreeObjType, Kind: KindForAllRows,
		Cond: "checkedout <> TRUE"})
	rt.MustAdd(Rule{User: Wildcard, Action: ActionMLE, ObjType: TreeObjType, Kind: KindForAllRows,
		Cond: "rtbl.state = 'released' OR rtbl.weight BETWEEN {eff_from} AND {eff_to}"})
	// Add refuses a condition that does not parse; one that slips past
	// it fails the first row evaluated, compiled or not.
	slipped := append(rt.All(), Rule{User: Wildcard, Action: ActionWhereUsed, ObjType: "assy", Kind: KindRow,
		Cond: "assy.name ="})
	rt.rules.Store(&slipped)

	keys := []predKey{
		{KindRow, "link", ActionMLE}, {KindRow, "assy", ActionMLE}, {KindRow, "comp", ActionMLE},
		{KindRow, "assy", ActionQuery}, {KindRow, "comp", ActionQuery}, {KindRow, "link", ActionExpand},
		{KindRow, "assy", ActionWhereUsed}, {KindRow, "comp", ActionCheck},
		{KindForAllRows, TreeObjType, ActionMLE}, {KindForAllRows, TreeObjType, ActionQuery},
	}
	users := []UserContext{
		DefaultUser("scott"),
		{Name: "o'brien", Options: " base , alt ", EffFrom: 3, EffTo: 5},
		{Name: "x", Options: "", EffFrom: 0, EffTo: 0},
	}
	rng := rand.New(rand.NewSource(31))
	errs, falses := 0, 0
	for _, u := range users {
		c := NewClient(nil, nil, rt, u, costmodel.LateEval)
		for i := 0; i < 3000; i++ {
			row := genUnifiedRow(rng)
			for _, k := range keys {
				got, gotErr := c.permits(c.predicate(k.kind, k.objType, k.action), row)
				want, wantErr := byName(rt, u, k.kind, k.objType, k.action, row)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
					t.Fatalf("user %q %v %s/%s on %v:\ncompiled %v, %v\nby name  %v, %v",
						u.Name, k.kind, k.objType, k.action, row, got, gotErr, want, wantErr)
				}
				if wantErr != nil {
					errs++
				} else if !want {
					falses++
				}
			}
		}
	}
	// The net must reach every outcome, or it proves nothing.
	if errs == 0 || falses == 0 {
		t.Fatalf("generated rows reached %d errors and %d denials; want both", errs, falses)
	}
}

// TestLateRowFilterAllocatesNothing: once its predicates are compiled,
// filtering a received link/assy row under late evaluation — the link's
// traversal rules, then the child type's row conditions — allocates
// nothing.
func TestLateRowFilterAllocatesNothing(t *testing.T) {
	c := NewClient(nil, nil, StandardRules(), DefaultUser("bench"), costmodel.LateEval)
	row := make(storage.Row, len(UnifiedCols))
	fillUnifiedRow(row, &Node{Type: "assy", ObID: 2, Name: "a2", MakeOrBuy: "make", PathOpt: "base",
		Parent: 1, EffFrom: 1, EffTo: 10, StrcOpt: "base"})
	filter := func() {
		for _, step := range []struct{ objType, action string }{
			{"link", ActionMLE}, {"assy", ActionMLE}, {"assy", ActionQuery},
		} {
			ok, err := c.localRowPermitted(step.objType, step.action, row)
			if err != nil || !ok {
				t.Fatalf("%s/%s: permitted %v, %v; want true", step.objType, step.action, ok, err)
			}
		}
	}
	filter() // compiles the predicates
	if n := testing.AllocsPerRun(200, filter); n != 0 {
		t.Errorf("filtering one row allocates %.1f times, want 0", n)
	}
}

// BenchmarkLateRowFilter is the per-row cost of late evaluation: one
// received link/assy row checked against the link's traversal rules
// (structure options and effectivities) and the assembly's Query rule.
func BenchmarkLateRowFilter(b *testing.B) {
	c := NewClient(nil, nil, StandardRules(), DefaultUser("bench"), costmodel.LateEval)
	row := make(storage.Row, len(UnifiedCols))
	fillUnifiedRow(row, &Node{Type: "assy", ObID: 2, PathOpt: "base", Parent: 1, EffFrom: 1, EffTo: 10, StrcOpt: "base"})
	filter := func() {
		if ok, err := c.localRowPermitted("link", ActionMLE, row); err != nil || !ok {
			b.Fatal(ok, err)
		}
		if ok, err := c.localRowPermitted("assy", ActionQuery, row); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
	filter() // compiles the predicates
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filter()
	}
}
