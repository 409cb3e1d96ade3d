// Package core implements the paper's contribution: the PDM system layer
// that sits between users and the relational database. It provides
//
//   - the rule machinery of Section 3 (structure options, effectivities
//     and message access rules as 4-tuples with row / ∀rows / ∃structure /
//     tree-aggregate conditions),
//   - the query-modification algorithm of Section 5.5 (steps A-D) that
//     injects translated conditions into navigational and recursive SQL,
//   - the recursive query builder of Section 5.2 with the unified
//     ("homogenized") result type,
//   - the PDM client actions (Query, single-/multi-level expand,
//     check-out/check-in) under the three strategies the paper compares:
//     late evaluation, early rule evaluation, and recursive SQL, and
//   - the Section 6 "function shipping" remedy: a server-side stored
//     procedure for check-out.
package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/parser"
	"pdmtune/internal/minisql/types"
)

// Kind classifies rule conditions (paper Figure 1).
type Kind uint8

// The condition classes of Section 3.2. Row conditions involve a single
// object; the three tree-condition classes involve the whole object tree.
const (
	KindRow Kind = iota
	KindForAllRows
	KindExistsStructure
	KindTreeAggregate
)

func (k Kind) String() string {
	switch k {
	case KindRow:
		return "row"
	case KindForAllRows:
		return "forall-rows"
	case KindExistsStructure:
		return "exists-structure"
	case KindTreeAggregate:
		return "tree-aggregate"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Wildcard matches any user or action in a rule.
const Wildcard = "*"

// ActionAccess is the implicit action of Section 5.5 step D: ordinary
// row conditions with action "access" apply to every query touching the
// object type. Structure options and effectivities are "access" rules on
// the relation type "link" (Section 3.1, example 3).
const ActionAccess = "access"

// Standard PDM action names used in rules.
const (
	ActionQuery     = "query"
	ActionExpand    = "expand"
	ActionMLE       = "multi-level-expand"
	ActionCheck     = "check-out"
	ActionWhereUsed = "where-used"
	ActionECO       = "eco"
	ActionReport    = "report"
)

// Rule is the 4-tuple of Section 3.1: a user is permitted to perform an
// action on instances of an object type if the condition is met. The
// condition is stored pre-translated to SQL (Section 4.1: conditions are
// translated "only once ... directly after the definition of a new rule"
// and kept in a rule table at the client).
type Rule struct {
	User    string // user name or "*"
	Action  string // action name, "access", or "*"
	ObjType string // "assy", "comp", "link" — or the unified tree for ∀rows/tree-aggregate rules
	Kind    Kind
	// Cond is the SQL predicate. It may reference the user's environment
	// through the macros {user}, {options}, {eff_from}, {eff_to}, which
	// the query modificator binds at modification time.
	//
	//   - KindRow: predicate over the object type's columns, e.g.
	//     "assy.make_or_buy <> 'buy'".
	//   - KindForAllRows: row condition every tree node must meet, over
	//     the unified columns, e.g. "checkedout <> TRUE".
	//   - KindExistsStructure: EXISTS predicate correlated through
	//     <ObjType>.obid, e.g. "EXISTS (SELECT * FROM specified_by AS s
	//     JOIN spec ON s.right = spec.obid WHERE s.left = comp.obid)".
	//   - KindTreeAggregate: predicate with a scalar aggregate over the
	//     unified recursion table rtbl, e.g.
	//     "(SELECT COUNT(*) FROM rtbl WHERE type = 'assy') <= 10".
	Cond string
}

// UserContext carries the environment variables a session binds into
// rule conditions: the user's name, selected structure options (a
// comma-separated set, cf. sets_overlap) and selected effectivity range.
type UserContext struct {
	Name    string
	Options string
	EffFrom int64
	EffTo   int64
}

// Expand substitutes the environment macros in a condition text with SQL
// literals.
func (u UserContext) Expand(cond string) string {
	r := strings.NewReplacer(
		"{user}", sqlText(u.Name),
		"{options}", sqlText(u.Options),
		"{eff_from}", fmt.Sprintf("%d", u.EffFrom),
		"{eff_to}", fmt.Sprintf("%d", u.EffTo),
	)
	return r.Replace(cond)
}

func sqlText(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// RuleTable is the client-side store of translated rules (Section 5.5:
// "translated conditions are stored — together with the four components
// defining the rule — in ... a table ... at each client").
type RuleTable struct {
	// rules is an immutable snapshot of the table: Add publishes a new
	// one, so sessions read rules while another goroutine adds one.
	rules atomic.Pointer[[]Rule]
	addMu sync.Mutex // serializes Add
	// gen counts the rules added. A client compiles the table into
	// statement texts and predicates once, and recompiles at the start of
	// the first action that sees gen move.
	gen atomic.Uint64
}

// NewRuleTable returns an empty rule table.
func NewRuleTable() *RuleTable { return &RuleTable{} }

// Add validates the rule's condition (it must parse as an SQL expression
// after macro expansion) and stores it. Only authorized users introduce
// rules (Section 5.5); validation errors surface at definition time.
func (rt *RuleTable) Add(r Rule) error {
	if r.User == "" || r.Action == "" || r.ObjType == "" {
		return fmt.Errorf("core: rule needs user, action and object type")
	}
	probe := UserContext{Name: "probe", Options: "base", EffFrom: 1, EffTo: 1}
	if _, err := parser.ParseExpr(probe.Expand(r.Cond)); err != nil {
		return fmt.Errorf("core: rule condition does not translate to SQL: %v", err)
	}
	rt.addMu.Lock()
	defer rt.addMu.Unlock()
	old := rt.snapshot()
	next := append(old[:len(old):len(old)], r) // a new array: readers keep theirs
	rt.rules.Store(&next)
	rt.gen.Add(1)
	return nil
}

// snapshot returns the rules as of now; the slice is never written.
func (rt *RuleTable) snapshot() []Rule {
	if p := rt.rules.Load(); p != nil {
		return *p
	}
	return nil
}

// MustAdd is Add for statically known rules; it panics on invalid rules.
func (rt *RuleTable) MustAdd(r Rule) {
	if err := rt.Add(r); err != nil {
		panic(err)
	}
}

// Len reports the number of rules.
func (rt *RuleTable) Len() int { return len(rt.snapshot()) }

// All returns a copy of the stored rules.
func (rt *RuleTable) All() []Rule { return append([]Rule{}, rt.snapshot()...) }

// Relevant returns the rules matching the user, one of the actions, and
// the object type, filtered by kind ("relevant" in the paper's footnote:
// the condition refers to the user, the object type, and the action
// under consideration).
func (rt *RuleTable) Relevant(user string, actions []string, objType string, kind Kind) []Rule {
	var out []Rule
	for _, r := range rt.snapshot() {
		if r.Kind != kind {
			continue
		}
		if r.User != Wildcard && r.User != user {
			continue
		}
		if !strings.EqualFold(r.ObjType, objType) {
			continue
		}
		ok := false
		for _, a := range actions {
			if r.Action == Wildcard || strings.EqualFold(r.Action, a) {
				ok = true
				break
			}
		}
		if ok {
			out = append(out, r)
		}
	}
	return out
}

// disjunction parses and OR-combines the conditions of a rule group
// after binding the user environment (Section 5.5: "form the disjunction
// of all conditions found"). The query modificator calls it once per
// statement text, the client once per compiled predicate (treecond.go).
func disjunction(rules []Rule, u UserContext) (ast.Expr, error) {
	var preds []ast.Expr
	for _, r := range rules {
		e, err := parser.ParseExpr(u.Expand(r.Cond))
		if err != nil {
			return nil, fmt.Errorf("core: rule for %s/%s: %v", r.ObjType, r.Action, err)
		}
		preds = append(preds, e)
	}
	return ast.OrAll(preds), nil
}

// StandardRules returns the rule set the generated workload uses:
// structure options and effectivities as "access" rules on the link
// relation (Section 3.1 example 3), and path visibility for the
// set-oriented query action. Rule selectivity matches the generator's σ.
func StandardRules() *RuleTable {
	rt := NewRuleTable()
	// Example 3: "permits every user to access (traverse) the relation if
	// the set of structure options associated with this relation overlaps
	// the user-selected ones." Effectivities behave exactly like structure
	// options; both must hold, so they form one conjunctive condition
	// (rules within a group are OR-combined permissions, cf. Section 5.5).
	rt.MustAdd(Rule{User: Wildcard, Action: ActionAccess, ObjType: "link", Kind: KindRow,
		Cond: "sets_overlap(link.strc_opt, {options})" +
			" AND ranges_overlap(link.eff_from, link.eff_to, {eff_from}, {eff_to})"})
	// The set-oriented Query action filters nodes by their accumulated
	// path options (visible ⇔ every link on the path is visible).
	rt.MustAdd(Rule{User: Wildcard, Action: ActionQuery, ObjType: "assy", Kind: KindRow,
		Cond: "sets_overlap(assy.path_opt, {options})"})
	rt.MustAdd(Rule{User: Wildcard, Action: ActionQuery, ObjType: "comp", Kind: KindRow,
		Cond: "sets_overlap(comp.path_opt, {options})"})
	return rt
}

// DefaultUser returns the user context the generated workload expects:
// options {base} and the full effectivity range.
func DefaultUser(name string) UserContext {
	return UserContext{Name: name, Options: "base", EffFrom: 1, EffTo: 10}
}

// boolValue is a tiny helper for client-side rule evaluation results.
func boolValue(v types.Value) bool {
	return types.Truth(v) == types.True
}
