// Rules: the paper's Section 3 rule examples running against the
// Figure 2 example data — message access rules with row, ∀rows,
// ∃structure and tree-aggregate conditions, and how the query
// modificator pushes each kind into the recursive query (Section 5.5).
package main

import (
	"context"
	"fmt"
	"log"

	"pdmtune"
	"pdmtune/internal/core"
)

func main() {
	sys := pdmtune.NewSystem(nil)
	if err := sys.LoadPaperExample(); err != nil {
		log.Fatal(err)
	}
	link := pdmtune.Intercontinental()
	ctx := context.Background()

	show := func(title string, rules *pdmtune.RuleTable, user pdmtune.UserContext) {
		sess, err := sys.Open(
			pdmtune.WithLink(link),
			pdmtune.WithUser(user),
			pdmtune.WithStrategy(pdmtune.Recursive),
			pdmtune.WithRules(rules),
		)
		if err != nil {
			log.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.MultiLevelExpand(ctx, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-58s ->", title)
		if res.Tree.Root == nil {
			fmt.Println(" (empty result)")
			return
		}
		res.Tree.Walk(func(n *pdmtune.Node) {
			if n.ObID != 1 {
				fmt.Printf(" %d", n.ObID)
			}
		})
		fmt.Println()
	}

	fmt.Println("Multi-level expand of assembly 1 (Figure 2 tree) under various rules:")
	fmt.Println()

	show("no extra rules (structure options + effectivities only)",
		core.StandardRules(), pdmtune.DefaultUser("scott"))

	// Paper example 1: Scott may expand assemblies only if they are not
	// bought from a supplier (Assy3 is bought).
	r1 := core.StandardRules()
	r1.MustAdd(pdmtune.Rule{
		User: "scott", Action: core.ActionMLE, ObjType: "assy",
		Kind: pdmtune.KindRow, Cond: "assy.make_or_buy <> 'buy'",
	})
	show("example 1: Scott must not see bought assemblies", r1, pdmtune.DefaultUser("scott"))

	// Effectivities: restricting the user's effectivity window hides
	// links 1001 (units 1-3) and 1006 (units 1-5).
	show("effectivity window 8..10", core.StandardRules(),
		pdmtune.UserContext{Name: "scott", Options: "base", EffFrom: 8, EffTo: 10})

	// Section 5.3.2: components only when specified by a document
	// (specs exist for components 101 and 103).
	r3 := core.StandardRules()
	r3.MustAdd(pdmtune.Rule{
		User: "*", Action: core.ActionAccess, ObjType: "comp",
		Kind: pdmtune.KindExistsStructure,
		Cond: "EXISTS (SELECT * FROM specified_by AS s JOIN spec ON s.right = spec.obid WHERE s.left = comp.obid)",
	})
	show("∃structure: components need a specification", r3, pdmtune.DefaultUser("scott"))

	// Section 5.3.3: at most N assemblies in the tree.
	r4 := core.StandardRules()
	r4.MustAdd(pdmtune.Rule{
		User: "*", Action: core.ActionMLE, ObjType: core.TreeObjType,
		Kind: pdmtune.KindTreeAggregate,
		Cond: "(SELECT COUNT(*) FROM rtbl WHERE type = 'assy') <= 2",
	})
	show("tree-aggregate: at most 2 assemblies (all-or-nothing)", r4, pdmtune.DefaultUser("scott"))

	// The modified SQL that actually went to the server:
	fmt.Println("\nThe recursive query after modification for example 1 (excerpt):")
	q := core.BuildRecursiveQuery()
	m := &core.Modifier{Rules: r1, User: pdmtune.DefaultUser("scott")}
	if err := m.ModifyRecursive(q, core.ActionMLE); err != nil {
		log.Fatal(err)
	}
	sql := q.String()
	if len(sql) > 600 {
		sql = sql[:600] + " ..."
	}
	fmt.Println(sql)
}
