package core

import (
	"strings"
	"testing"
)

// These tests pin the Section 5.5 algorithm at the SQL-text level: which
// predicate lands in which SELECT of the recursive query.

func modifierFor(rules *RuleTable) *Modifier {
	return &Modifier{Rules: rules, User: DefaultUser("scott")}
}

func modified(t *testing.T, rules *RuleTable, action string) string {
	t.Helper()
	q := BuildRecursiveQuery()
	if err := modifierFor(rules).ModifyRecursive(q, action); err != nil {
		t.Fatalf("ModifyRecursive: %v", err)
	}
	return q.String()
}

// cteAndOuter splits the printed query at the closing of the WITH clause
// so tests can assert predicate placement inside vs outside the
// recursive part.
func cteAndOuter(t *testing.T, sql string) (cte, outer string) {
	t.Helper()
	idx := strings.Index(sql, ") SELECT type")
	if idx < 0 {
		t.Fatalf("cannot split query: %s", sql)
	}
	return sql[:idx], sql[idx:]
}

func TestStepDRowConditionPlacement(t *testing.T) {
	rules := NewRuleTable()
	rules.MustAdd(Rule{User: "scott", Action: ActionMLE, ObjType: "assy", Kind: KindRow,
		Cond: "assy.make_or_buy <> 'buy'"})
	sql := modified(t, rules, ActionMLE)
	cte, outer := cteAndOuter(t, sql)
	if got := strings.Count(cte, "assy.make_or_buy <> 'buy'"); got != 2 {
		// Seed branch (FROM assy WHERE obid = 1) and the recursive assy
		// branch both reference assy.
		t.Errorf("row condition appears %d times inside the recursion, want 2\n%s", got, cte)
	}
	if strings.Contains(outer, "make_or_buy <> 'buy'") {
		t.Errorf("row condition must not reach the outer selects (they read rtbl/link)\n%s", outer)
	}
}

func TestStepDLinkRulesReachOuterLinkSelect(t *testing.T) {
	sql := modified(t, StandardRules(), ActionMLE)
	cte, outer := cteAndOuter(t, sql)
	// The link access rule guards both recursive branches and the outer
	// link select ("inside and outside the recursive part").
	if got := strings.Count(cte, "sets_overlap(link.strc_opt"); got != 2 {
		t.Errorf("link rule in recursion %d times, want 2", got)
	}
	if got := strings.Count(outer, "sets_overlap(link.strc_opt"); got != 1 {
		t.Errorf("link rule in outer part %d times, want 1", got)
	}
}

func TestStepAForAllRows(t *testing.T) {
	rules := NewRuleTable()
	rules.MustAdd(Rule{User: Wildcard, Action: ActionCheck, ObjType: TreeObjType,
		Kind: KindForAllRows, Cond: "checkedout <> TRUE"})
	sql := modified(t, rules, ActionCheck)
	cte, outer := cteAndOuter(t, sql)
	want := "NOT EXISTS (SELECT * FROM rtbl WHERE (NOT (checkedout <> TRUE)))"
	if got := strings.Count(outer, want); got != 2 {
		t.Errorf("∀rows guard on outer selects %d times, want 2 (node + link select)\n%s", got, outer)
	}
	if strings.Contains(cte, "NOT EXISTS") {
		t.Errorf("∀rows guard must stay outside the recursive part")
	}
}

func TestStepBTreeAggregate(t *testing.T) {
	rules := NewRuleTable()
	rules.MustAdd(Rule{User: Wildcard, Action: ActionMLE, ObjType: TreeObjType,
		Kind: KindTreeAggregate, Cond: "(SELECT COUNT(*) FROM rtbl WHERE type = 'assy') <= 10"})
	sql := modified(t, rules, ActionMLE)
	cte, outer := cteAndOuter(t, sql)
	if got := strings.Count(outer, "COUNT(*)"); got != 2 {
		t.Errorf("tree-aggregate on outer selects %d times, want 2\n%s", got, outer)
	}
	if strings.Contains(cte, "COUNT(*)") {
		t.Error("tree-aggregate must stay outside the recursive part")
	}
}

func TestStepCExistsStructure(t *testing.T) {
	rules := NewRuleTable()
	rules.MustAdd(Rule{User: Wildcard, Action: ActionAccess, ObjType: "comp",
		Kind: KindExistsStructure,
		Cond: "EXISTS (SELECT * FROM specified_by AS s JOIN spec ON s.right = spec.obid WHERE s.left = comp.obid)"})
	sql := modified(t, rules, ActionMLE)
	cte, outer := cteAndOuter(t, sql)
	if got := strings.Count(cte, "specified_by"); got != 1 {
		t.Errorf("∃structure inside the recursion %d times, want 1 (comp branch only)\n%s", got, cte)
	}
	if strings.Contains(outer, "specified_by") {
		t.Error("∃structure must not reach the outer selects")
	}
	// It must sit in the comp branch, not the assy branch.
	compBranch := cte[strings.Index(cte, "JOIN comp"):]
	if !strings.Contains(compBranch, "specified_by") {
		t.Error("∃structure missing from the comp branch")
	}
}

func TestRulesAreORCombined(t *testing.T) {
	rules := NewRuleTable()
	rules.MustAdd(Rule{User: "scott", Action: ActionMLE, ObjType: "assy", Kind: KindRow,
		Cond: "assy.make_or_buy <> 'buy'"})
	rules.MustAdd(Rule{User: "scott", Action: ActionMLE, ObjType: "assy", Kind: KindRow,
		Cond: "assy.state = 'released'"})
	sql := modified(t, rules, ActionMLE)
	if !strings.Contains(sql, "(assy.make_or_buy <> 'buy') OR (assy.state = 'released')") {
		t.Errorf("conditions of one group must be OR-combined:\n%s", sql)
	}
}

func TestMacroExpansion(t *testing.T) {
	u := UserContext{Name: "o'brien", Options: "base,sport", EffFrom: 3, EffTo: 9}
	got := u.Expand("sets_overlap(x, {options}) AND u = {user} AND e BETWEEN {eff_from} AND {eff_to}")
	want := "sets_overlap(x, 'base,sport') AND u = 'o''brien' AND e BETWEEN 3 AND 9"
	if got != want {
		t.Errorf("Expand = %q, want %q", got, want)
	}
}

func TestRuleValidationAtDefinitionTime(t *testing.T) {
	rt := NewRuleTable()
	if err := rt.Add(Rule{User: "u", Action: "a", ObjType: "t", Cond: "x ="}); err == nil {
		t.Error("syntactically broken condition must be rejected when the rule is defined")
	}
	if err := rt.Add(Rule{User: "", Action: "a", ObjType: "t", Cond: "1 = 1"}); err == nil {
		t.Error("rule without user must be rejected")
	}
	if err := rt.Add(Rule{User: "u", Action: "a", ObjType: "t", Cond: "sets_overlap(x, {options})"}); err != nil {
		t.Errorf("macro condition must validate: %v", err)
	}
	if rt.Len() != 1 {
		t.Errorf("Len = %d, want 1", rt.Len())
	}
}

func TestRelevantMatching(t *testing.T) {
	rt := NewRuleTable()
	rt.MustAdd(Rule{User: "scott", Action: ActionMLE, ObjType: "assy", Kind: KindRow, Cond: "1 = 1"})
	rt.MustAdd(Rule{User: Wildcard, Action: ActionAccess, ObjType: "assy", Kind: KindRow, Cond: "2 = 2"})
	rt.MustAdd(Rule{User: "erich", Action: ActionMLE, ObjType: "assy", Kind: KindRow, Cond: "3 = 3"})
	rt.MustAdd(Rule{User: "scott", Action: ActionMLE, ObjType: "comp", Kind: KindRow, Cond: "4 = 4"})
	rt.MustAdd(Rule{User: "scott", Action: ActionMLE, ObjType: "assy", Kind: KindForAllRows, Cond: "5 = 5"})

	got := rt.Relevant("scott", []string{ActionMLE, ActionAccess}, "assy", KindRow)
	if len(got) != 2 {
		t.Fatalf("Relevant returned %d rules, want 2 (own + wildcard)", len(got))
	}
	if got := rt.Relevant("nobody", []string{ActionMLE}, "assy", KindRow); len(got) != 0 {
		t.Errorf("unknown user matched %d rules", len(got))
	}
	if got := rt.Relevant("scott", []string{"check-out"}, "assy", KindRow); len(got) != 0 {
		t.Errorf("other action matched %d rules", len(got))
	}
}

func TestModifyNavigationalAppendsOnlyRowConditions(t *testing.T) {
	rules := StandardRules()
	rules.MustAdd(Rule{User: Wildcard, Action: ActionMLE, ObjType: TreeObjType,
		Kind: KindTreeAggregate, Cond: "(SELECT COUNT(*) FROM rtbl) <= 10"})
	q := BuildExpandQuery()
	if err := modifierFor(rules).ModifyNavigational(q, ActionMLE); err != nil {
		t.Fatal(err)
	}
	sql := q.String()
	if !strings.Contains(sql, "sets_overlap(link.strc_opt") {
		t.Error("link row rule missing from the navigational expand")
	}
	if strings.Contains(sql, "rtbl") {
		t.Error("tree conditions cannot be evaluated within navigational queries (Section 4.1)")
	}
	if strings.Count(sql, "link.left = ?") != 2 {
		t.Error("original navigational predicate lost")
	}
}

func TestBuildProbeExists(t *testing.T) {
	cond := "EXISTS (SELECT * FROM specified_by AS s WHERE s.left = comp.obid)"
	probe, nparams, err := BuildProbeExists(cond, DefaultUser("u"), "comp")
	if err != nil {
		t.Fatal(err)
	}
	sql := probe.String()
	if nparams != 1 || !strings.Contains(sql, "s.left = ?") {
		t.Errorf("correlation not substituted (%d params): %s", nparams, sql)
	}
	if strings.Contains(sql, "comp.obid") {
		t.Errorf("probe still references the object column: %s", sql)
	}
}

func TestModifiedQueriesStillParse(t *testing.T) {
	rules := StandardRules()
	rules.MustAdd(CheckOutRule())
	rules.MustAdd(Rule{User: Wildcard, Action: ActionAccess, ObjType: "comp",
		Kind: KindExistsStructure,
		Cond: "EXISTS (SELECT * FROM specified_by AS s JOIN spec ON s.right = spec.obid WHERE s.left = comp.obid)"})
	rules.MustAdd(Rule{User: Wildcard, Action: ActionMLE, ObjType: TreeObjType,
		Kind: KindTreeAggregate, Cond: "(SELECT COUNT(*) FROM rtbl WHERE type = 'assy') <= 10"})
	sql := modified(t, rules, ActionMLE)
	// A second modification pass over the re-parsed text must also work —
	// the printer and grammar agree on the modified query.
	q2 := mustParseSelect(sql)
	if q2.String() != sql {
		t.Error("modified query does not round-trip through the parser")
	}
}
