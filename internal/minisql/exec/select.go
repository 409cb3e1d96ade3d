package exec

import (
	"fmt"
	"hash/maphash"
	"maps"
	"slices"
	"strings"

	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
)

const defaultMaxRecursion = 100000

// EvalSelect evaluates a full SELECT (with CTEs, set operations, ordering
// and limits) in the given outer scope (nil at top level).
func (ctx *Context) EvalSelect(sel *ast.Select, outer *Env) (*Relation, error) {
	restore, err := ctx.bindCTEs(sel.With, outer)
	if err != nil {
		return nil, err
	}
	defer restore()

	rel, err := ctx.evalBody(sel.Body, outer)
	if err != nil {
		return nil, err
	}
	if len(sel.OrderBy) > 0 {
		if ctx.Plan != nil {
			ctx.note("SORT (%d key(s))", len(sel.OrderBy))
		}
		if err := ctx.orderRelation(&rel, sel.OrderBy, outer); err != nil {
			return nil, err
		}
	}
	if sel.Offset != nil || sel.Limit != nil {
		if err := ctx.applyLimit(&rel, sel.Limit, sel.Offset, outer); err != nil {
			return nil, err
		}
	}
	return &rel, nil
}

// bindCTEs evaluates WITH clauses and binds them in the context, in a
// copy of the binding map: the returned function drops the copy, and
// with it every binding this clause made or shadowed.
func (ctx *Context) bindCTEs(w *ast.With, outer *Env) (func(), error) {
	if w == nil {
		return func() {}, nil
	}
	enclosing := ctx.CTEs
	restore := func() {
		ctx.CTEs = enclosing
		ctx.SubqueryCache = nil
		ctx.inSetCache = nil
	}
	ctx.CTEs = make(map[string]*Relation, len(enclosing)+len(w.CTEs))
	maps.Copy(ctx.CTEs, enclosing)
	for i := range w.CTEs {
		cte := &w.CTEs[i]
		rel, err := ctx.evalCTE(cte, w.Recursive && references(cte.Select, cte.Name), outer)
		if err != nil {
			restore()
			return nil, err
		}
		ctx.setCTE(strings.ToLower(cte.Name), rel)
	}
	return restore, nil
}

func (ctx *Context) evalCTE(cte *ast.CTE, recursive bool, outer *Env) (*Relation, error) {
	if ctx.Plan != nil {
		kind := "CTE"
		if recursive {
			kind = "RECURSIVE CTE (semi-naive fixpoint)"
		}
		defer ctx.under(ctx.note("%s %s:", kind, cte.Name))()
	}
	if recursive {
		return ctx.evalRecursiveCTE(cte, outer)
	}
	rel, err := ctx.EvalSelect(cte.Select, outer)
	if err != nil {
		return nil, err
	}
	return renameCTE(*rel, cte)
}

// setCTE binds (or rebinds) a CTE materialization. Rebinding invalidates
// the uncorrelated-subquery cache: a cached subquery may have read the
// previous binding.
func (ctx *Context) setCTE(key string, rel *Relation) {
	ctx.CTEs[key] = rel
	ctx.SubqueryCache = nil
	ctx.inSetCache = nil
}

func renameCTE(rel Relation, cte *ast.CTE) (*Relation, error) {
	cols := rebind(rel.Cols, cte.Name)
	if len(cte.Cols) > 0 {
		if len(cte.Cols) != len(rel.Cols) {
			return nil, fmt.Errorf("sql: CTE %s declares %d columns but its query returns %d",
				cte.Name, len(cte.Cols), len(rel.Cols))
		}
		for i, c := range cte.Cols {
			cols[i].Name = c
		}
	}
	return &Relation{Cols: cols, Rows: rel.Rows}, nil
}

// evalRecursiveCTE runs semi-naive fixpoint evaluation: seed branches
// once, then repeatedly evaluate recursive branches with the CTE bound to
// the previous iteration's delta, until no new rows appear (SQL:1999).
func (ctx *Context) evalRecursiveCTE(cte *ast.CTE, outer *Env) (*Relation, error) {
	inner := cte.Select
	if inner.With != nil {
		return nil, fmt.Errorf("sql: nested WITH inside recursive CTE %s is not supported", cte.Name)
	}
	if len(inner.OrderBy) > 0 || inner.Limit != nil {
		return nil, fmt.Errorf("sql: ORDER BY/LIMIT inside recursive CTE %s is not supported", cte.Name)
	}
	// UNION anywhere in the definition (or a single self-referencing
	// branch) makes the fixpoint a set; only UNION ALL throughout keeps
	// duplicates.
	branches := ast.Cores(inner.Body)
	dedup := len(branches) == 1
	ast.Inspect(inner.Body, func(n ast.Node) bool {
		op, ok := n.(*ast.SetOp)
		dedup = dedup || (ok && op.Op == "UNION")
		return ok
	})

	var seeds, recs []*ast.SelectCore
	for _, b := range branches {
		if references(b, cte.Name) {
			recs = append(recs, b)
		} else {
			seeds = append(seeds, b)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("sql: recursive CTE %s has no recursive branch", cte.Name)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sql: recursive CTE %s has no seed branch", cte.Name)
	}

	// round evaluates a set of branches against the current binding and
	// returns the rows they add to the fixpoint, appended to added.
	var cols []ColMeta // of the first branch, which every other must match in number
	var seen keyTable
	round := func(branches []*ast.SelectCore, added []storage.Row) ([]storage.Row, error) {
		for _, b := range branches {
			rel, err := ctx.evalCore(b, outer)
			if err != nil {
				return nil, err
			}
			if cols == nil {
				cols = rel.Cols
			} else if len(rel.Cols) != len(cols) {
				return nil, fmt.Errorf("sql: recursive CTE %s branches disagree on column count (%d vs %d)",
					cte.Name, len(rel.Cols), len(cols))
			}
			if !dedup {
				added = append(added, rel.Rows...)
				continue
			}
			for _, row := range rel.Rows {
				if _, fresh := seen.add(row); fresh {
					added = append(added, row)
				}
			}
		}
		return added, nil
	}

	delta, err := round(seeds, nil)
	if err != nil {
		return nil, err
	}
	all := append([]storage.Row(nil), delta...)
	maxIter := ctx.MaxRecursion
	if maxIter <= 0 {
		maxIter = defaultMaxRecursion
	}
	// Each iteration binds the last delta in one relation, and collects
	// the next into the array of the delta before, which all has copied.
	bound, err := renameCTE(Relation{Cols: cols}, cte)
	if err != nil {
		return nil, err
	}
	var spare []storage.Row
	// Under EXPLAIN no table yields a row, so the seed is empty; the
	// recursive branches are still planned, once.
	for iter := 0; len(delta) > 0 || (ctx.Plan != nil && iter == 0); iter++ {
		if iter >= maxIter {
			return nil, fmt.Errorf("sql: recursive CTE %s exceeded %d iterations", cte.Name, maxIter)
		}
		bound.Rows = delta
		ctx.setCTE(strings.ToLower(cte.Name), bound)
		next, err := round(recs, spare[:0])
		if err != nil {
			return nil, err
		}
		spare, delta = delta, next
		all = append(all, delta...)
	}
	return renameCTE(Relation{Cols: cols, Rows: all}, cte)
}

// evalBody evaluates a set-operation tree.
func (ctx *Context) evalBody(body ast.SelectBody, outer *Env) (Relation, error) {
	switch b := body.(type) {
	case *ast.SelectCore:
		return ctx.evalCore(b, outer)
	case *ast.SetOp:
		left, err := ctx.evalBody(b.Left, outer)
		if err != nil {
			return Relation{}, err
		}
		if ctx.Plan != nil {
			ctx.note("%s", b.Op)
		}
		right, err := ctx.evalBody(b.Right, outer)
		if err != nil {
			return Relation{}, err
		}
		if len(left.Cols) != len(right.Cols) {
			return Relation{}, fmt.Errorf("sql: UNION operands have %d and %d columns", len(left.Cols), len(right.Cols))
		}
		if b.Op == "UNION ALL" { // left is this evaluation's own
			left.Rows = append(left.Rows, right.Rows...)
			return left, nil
		}
		left.Rows = distinctRows(left.Rows, right.Rows)
		return left, nil
	}
	return Relation{}, fmt.Errorf("sql: unknown select body %T", body)
}

// evalCore evaluates one SELECT ... FROM ... WHERE ... GROUP BY ... HAVING
// in one pass over its rows: the FROM clause runs as one nested loop
// (fromLoop), and each complete row WHERE accepts is projected, or
// accumulated into its group, as the loop reaches it. No combined row of
// a join is allocated.
func (ctx *Context) evalCore(core *ast.SelectCore, outer *Env) (Relation, error) {
	if ctx.Plan != nil {
		line := "SELECT"
		if len(core.GroupBy) > 0 {
			line += fmt.Sprintf(" GROUP BY %d expr(s)", len(core.GroupBy))
		}
		defer ctx.under(ctx.note(line))()
	}
	p, _ := core.Plan.Load().(*corePlan)
	if p == nil || p.core != core { // unplanned, or a struct copy of a planned core
		p = &corePlan{where: splitAnd(core.Where, nil)} // no factors: planFrom derives
	}
	f := ctx.takeFrame()
	defer ctx.putFrame(f)
	from := &f.from // without FROM: no level, one empty row
	from.plan = p
	f.conjs = append(f.conjs[:0], p.where...)
	conjs := f.conjs
	if core.From != nil {
		if err := ctx.planFrom(from, core.From, outer, conjs, true, true); err != nil {
			return Relation{}, err
		}
	}
	if from.plan != p || p.core == nil || !p.boundUnder(outer) {
		var err error
		if p, err = planCore(core, p.where, from, outer); err != nil {
			return Relation{}, err
		}
		core.Plan.Store(p)
	}
	ctx.noteFilter(conjs)

	// Every clause below evaluates in this one scope, its column
	// references bound to positions by the plan.
	f.scope = Env{cols: from.cols, parent: outer, slots: p.slots}
	env := &f.scope
	out := Relation{Cols: p.out, names: p.names}
	var groups *grouping
	if len(p.aggs) > 0 || len(core.GroupBy) > 0 {
		groups = newGrouping(core.GroupBy, p.aggs, len(from.levels) > 1)
	}

	// The one row loop: the WHERE conjuncts the FROM clause has not taken
	// over, then the projection or the accumulation.
	filter := slices.ContainsFunc(conjs, func(c conjunct) bool { return !c.used })
	err := ctx.run(from, 0, func(row storage.Row) error {
		env.row = row
		if filter {
			if ok, err := ctx.allTrue(conjs, -1, env); !ok {
				return err
			}
		}
		if groups != nil {
			return groups.add(ctx, env)
		}
		projected, err := ctx.projectRow(p.proj, env)
		out.Rows = append(out.Rows, projected) // an error fails the statement
		return err
	})
	if err != nil {
		return Relation{}, err
	}
	if groups != nil {
		if out.Rows, err = groups.project(ctx, core.Having, p.proj, env); err != nil {
			return Relation{}, err
		}
	}
	if core.Distinct {
		out.Rows = distinctRows(out.Rows)
	}
	return out, nil
}

// corePlan is what evalCore derives from a SELECT core's text and the
// catalog alone, published on the core (ast.SelectCore.Plan) by its first
// execution and read-only from then on. An execution whose FROM factors
// were not derived from what the plan's were (a table dropped and created
// again, a CTE binding of other columns), or whose enclosing scopes are
// not those its column references were bound under, publishes a new one.
// What the snapshot or the parameters decide (access paths, key sets,
// probes, which conjuncts they take over) stays with each execution.
type corePlan struct {
	core    *ast.SelectCore
	where   []conjunct   // the WHERE conjuncts, none taken over
	factors []factorPlan // the FROM clause's levels, in loop order
	cols    []ColMeta    // the loop's columns
	proj    []projCol
	out     []ColMeta // the output columns, and their names
	names   []string
	aggs    []*ast.Aggregate
	slots   *slotTable  // where the core's column references point; nil: by name
	outer   [][]ColMeta // the enclosing scopes' columns, when a reference reads one
}

// factorPlan is what a level's columns were derived from, a stored
// table's schema (new on every CREATE; a plan holds no table, so no rows)
// or (schema nil) the columns src of a CTE binding, a derived table or a
// join chain; where they end in the loop's; a JOIN's ON conjuncts; and
// the equi-pairs of the conjuncts the level joins on.
type factorPlan struct {
	schema *storage.Schema
	src    []ColMeta
	end    int
	on     []conjunct
	pairs  []equiPair
}

// planCore builds the plan of a core whose FROM clause from has planned,
// its column references bound in the scopes outer.
func planCore(core *ast.SelectCore, where []conjunct, from *fromLoop, outer *Env) (*corePlan, error) {
	out, proj, err := projectionPlan(core.Items, from.cols)
	if err != nil {
		return nil, err
	}
	p := &corePlan{core: core, where: where, factors: make([]factorPlan, len(from.levels)), cols: from.cols,
		proj: proj, out: out, names: make([]string, len(out)), aggs: collectAggregates(core)}
	if p.slots, p.outer, err = bindColumnRefs(core, from.cols, outer); err != nil {
		return nil, err
	}
	for i := range from.levels {
		p.factors[i] = from.levels[i].made
	}
	for i, c := range out {
		p.names[i] = c.Name
	}
	return p, nil
}

// boundUnder reports whether the plan's column references resolve as
// bound in the scopes outer: always, if none reads an enclosing scope;
// else when the enclosing scopes have the columns they were bound under.
func (p *corePlan) boundUnder(outer *Env) bool {
	i := 0
	for env := outer; env != nil && p.outer != nil; env = env.parent {
		if env.touched == nil {
			if i == len(p.outer) || !slices.Equal(p.outer[i], env.cols) {
				return false
			}
			i++
		}
	}
	return i == len(p.outer)
}

// ---------------------------------------------------------------------------
// FROM evaluation: the one nested loop

// fromLoop is a FROM clause planned as one nested loop over its table
// factors, the levels, which write their candidates into one scratch row.
// plan is the core's plan while its levels match the loop's. buf holds
// the scratch row, and frame what the levels read through.
type fromLoop struct {
	cols   []ColMeta
	levels []level
	row    storage.Row
	buf    storage.Row
	plan   *corePlan
	frame  *frame
}

// level is one table factor of a fromLoop. Its candidates come from acc
// (the first level's access path), from probe (for the key at row[key])
// or are all its rows. A candidate's columns go to row[at:end] and must
// pass the ON conjuncts there, but for on[skip], which an exact probe
// settles. A LEFT JOIN goes on with NULLs when no candidate matches.
type level struct {
	acc          *access
	probe        probe
	rows         []storage.Row
	at, end, key int
	on           []conjunct
	skip         int
	left         bool
	env          Env        // the scope of on: the columns up to this level's
	made         factorPlan // what the level's columns were derived from
}

// planFrom plans a table reference into the loop: a join chain as its
// left side's levels and then its right factor's, a comma list as its
// items' in order, a table factor as one level. conjs are the WHERE
// conjuncts available for pushdown; unqualified says ref is the only FROM
// table, so unqualified column names are its own; pushable is false under
// the right side of a LEFT JOIN, where pushdown would change the result.
func (ctx *Context) planFrom(l *fromLoop, ref ast.TableRef, outer *Env, conjs []conjunct, unqualified, pushable bool) error {
	switch r := ref.(type) {
	case *ast.Join:
		if err := ctx.planFrom(l, r.Left, outer, conjs, false, pushable); err != nil {
			return err
		}
		return ctx.planJoin(l, r.Right, r.Type, l.onOf(r.On), true, outer, conjs, pushable && r.Type != "LEFT")
	case *ast.CrossList:
		// FROM a, b WHERE a.x = b.y: each further item joins on a WHERE
		// equi-conjunct when there is one, and is a cross product otherwise.
		err := ctx.planFrom(l, r.Items[0], outer, conjs, false, pushable)
		for _, item := range r.Items[1:] {
			if err != nil {
				return err
			}
			err = ctx.planJoin(l, item, "INNER", conjs, false, outer, conjs, pushable)
		}
		return err
	}
	cols, lv, err := ctx.factor(l, ref, outer, conjs, unqualified, pushable, true)
	if err == nil {
		l.add(cols, lv)
	}
	return err
}

// planJoin plans ref as the next level. pool holds the conjuncts an
// equi-pair may come from: for JOIN … ON the ON clause, all of which a
// row must satisfy (whole); for a comma list the WHERE clause, of which
// the join takes over only the equi-conjunct. A key's candidates come
// from an index on the join column or a hash of the materialized right
// side, or are all its rows. Under EXPLAIN the join's line follows its
// left side's, with the right side nested under it when materialized.
func (ctx *Context) planJoin(l *fromLoop, ref ast.TableRef, joinType string, pool []conjunct, whole bool,
	outer *Env, conjs []conjunct, pushable bool) error {
	if ctx.Plan != nil {
		defer ctx.under(ctx.note(""))()
	}
	var lv level
	var cols []ColMeta
	var index *storage.Index
	at, method := -1, "NESTED LOOP"
	if bt, ok := ref.(*ast.BaseTable); ok && ctx.CTEs[strings.ToLower(bt.Name)] == nil {
		if table, ok := ctx.DB.Table(bt.Name); ok {
			tcols := l.colsOf(&lv, table, nil, func() []ColMeta { return TableCols(table, aliasOf(bt)) })
			indexed := func(rp int) bool { return table.IndexOn(tcols[rp].Name) != nil }
			if i, lp, rp := pickPair(l.pairsOf(&lv, pool, tcols), pool, indexed); i >= 0 {
				index = table.IndexOn(tcols[rp].Name)
				at, lv.key, cols, lv.probe, method = i, lp, tcols, l.frame.indexProbe(ctx, table, index), "INDEX JOIN"
			}
		}
	}
	if lv.probe == nil {
		var err error
		if cols, lv, err = ctx.factor(l, ref, outer, conjs, false, pushable, false); err != nil {
			return err
		}
		if i, lp, rp := pickPair(l.pairsOf(&lv, pool, cols), pool, nil); i >= 0 {
			at, lv.key, lv.probe, method = i, lp, hashProbe(lv.rows, rp), "HASH JOIN"
		}
	}
	lv.on, lv.skip, lv.left, lv.env.parent = pool, at, joinType == "LEFT", outer
	if whole {
		lv.made.on = pool
	} else {
		lv.on, lv.skip = nil, 0
		if at >= 0 { // the level checks a copy where a probe is inexact
			lv.on = []conjunct{{expr: pool[at].expr}}
			pool[at].used = true
		}
	}
	if ctx.Plan != nil {
		if ctx.Plan.Text = joinType + " " + method; index != nil {
			ctx.Plan.Text += " " + ref.String() + " USING " + index.Name
		}
		if terms := conjString(lv.on); terms != "" {
			ctx.Plan.Text += " ON " + terms
		}
	}
	l.add(cols, lv)
	return nil
}

// add appends a level of the given columns to the loop.
func (l *fromLoop) add(cols []ColMeta, lv level) {
	lv.at, lv.end = len(l.cols), len(l.cols)+len(cols)
	lv.made.end = lv.end
	switch {
	case l.plan != nil:
		l.cols = l.plan.cols[:lv.end]
	case lv.at == 0:
		l.cols = cols
	default: // earlier levels' scopes hold prefixes of l.cols: never append in place
		l.cols = append(l.cols[:lv.at:lv.at], cols...)
	}
	l.levels = append(l.levels, lv)
}

// colsOf returns the columns of the loop's next level, lv, derived from a
// stored table or (table nil) from the columns src: the plan's when the
// plan's level was derived from the same schema or from equal columns,
// else — dropping the plan — what derive returns.
func (l *fromLoop) colsOf(lv *level, table *storage.Table, src []ColMeta, derive func() []ColMeta) []ColMeta {
	lv.made.src = src
	if table != nil {
		lv.made.schema = table.Schema
	}
	if p, i := l.plan, len(l.levels); p != nil {
		if i < len(p.factors) && p.factors[i].schema == lv.made.schema && slices.Equal(p.factors[i].src, src) {
			return p.cols[len(l.cols):p.factors[i].end]
		}
		l.plan = nil
	}
	return derive()
}

// pairsOf returns the equi-pairs of pool between the loop's columns and
// right, the columns of its next level lv that colsOf gave: the plan's
// while the plan holds, else derived; lv records them either way.
func (l *fromLoop) pairsOf(lv *level, pool []conjunct, right []ColMeta) []equiPair {
	if l.plan != nil {
		lv.made.pairs = l.plan.factors[len(l.levels)].pairs
	} else {
		lv.made.pairs = equiPairs(pool, l.cols, right)
	}
	return lv.made.pairs
}

// onOf returns the ON conjuncts of the loop's next level: the plan's, or
// on split.
func (l *fromLoop) onOf(on ast.Expr) []conjunct {
	if p, i := l.plan, len(l.levels); p != nil && i < len(p.factors) {
		return p.factors[i].on
	}
	return splitAnd(on, nil)
}

// factor plans ref as l's next level: a stored table through its access
// path (chooseAccess, noted under EXPLAIN), streamed (stream) or
// materialized; a CTE's or a derived table's rows; a join chain right of
// a comma as its own loop's rows, copied.
func (ctx *Context) factor(l *fromLoop, ref ast.TableRef, outer *Env, conjs []conjunct, unqualified, pushable, stream bool) ([]ColMeta, level, error) {
	var lv level
	switch r := ref.(type) {
	case *ast.BaseTable:
		if rel, ok := ctx.CTEs[strings.ToLower(r.Name)]; ok { // a CTE binding takes precedence
			if ctx.Plan != nil {
				ctx.note("CTE SCAN %s", r)
			}
			lv.rows = rel.Rows
			return l.colsOf(&lv, nil, rel.Cols, func() []ColMeta { return rebind(rel.Cols, aliasOf(r)) }), lv, nil
		}
		if !pushable {
			conjs = nil
		}
		table, ok := ctx.DB.Table(r.Name)
		if !ok {
			return nil, lv, fmt.Errorf("sql: no such table %s", r.Name)
		}
		cols := l.colsOf(&lv, table, nil, func() []ColMeta { return TableCols(table, aliasOf(r)) })
		acc := l.frame.access(table)
		err := ctx.chooseAccess(acc, aliasOf(r), unqualified, conjs, outer)
		if err == nil && ctx.Plan != nil {
			ctx.note("%s", acc).Kids = acc.sub
		}
		if err != nil || stream {
			lv.acc = acc
			return cols, lv, err
		}
		err = ctx.read(acc, func(_ int, row storage.Row) error { lv.rows = append(lv.rows, row); return nil })
		return cols, lv, err
	case *ast.SubqueryTable:
		if ctx.Plan != nil {
			defer ctx.under(ctx.note("DERIVED TABLE %s:", r.Alias))()
		}
		rel, err := ctx.evalSubquery(r.Select, outer)
		if err != nil {
			return nil, lv, err
		}
		lv.rows = rel.Rows
		return l.colsOf(&lv, nil, rel.Cols, func() []ColMeta { return rebind(rel.Cols, r.Alias) }), lv, nil
	case *ast.Join, *ast.CrossList:
		sub := fromLoop{frame: l.frame}
		err := ctx.planFrom(&sub, ref, outer, conjs, false, pushable)
		if err == nil {
			err = ctx.run(&sub, 0, func(row storage.Row) error { lv.rows = append(lv.rows, slices.Clone(row)); return nil })
		}
		return l.colsOf(&lv, nil, sub.cols, func() []ColMeta { return sub.cols }), lv, err
	}
	return nil, lv, fmt.Errorf("sql: unknown table reference %T", ref)
}

// run calls emit with every row of the loop from level i on, in order:
// the level's candidates in their order, each followed by its matches at
// the next level in theirs. Without levels, emit sees one empty row.
func (ctx *Context) run(l *fromLoop, i int, emit func(storage.Row) error) error {
	if i == len(l.levels) {
		return emit(l.row)
	}
	lv := &l.levels[i]
	if lv.acc != nil {
		return ctx.read(lv.acc, func(_ int, row storage.Row) error {
			l.put(lv, row)
			return ctx.run(l, 1, emit)
		})
	}
	rows, skip := lv.rows, -1
	if lv.probe != nil {
		rows = nil
		if key := l.row[lv.key]; !key.IsNull() {
			var exact bool
			if rows, exact = lv.probe.candidates(key); exact {
				skip = lv.skip
			}
		}
	}
	matched := false
	for _, row := range rows {
		l.put(lv, row)
		ok, err := ctx.allTrue(lv.on, skip, &lv.env)
		if ok {
			matched = true
			err = ctx.run(l, i+1, emit)
		}
		if err != nil {
			return err
		}
	}
	if !matched && lv.left {
		clear(l.row[lv.at:lv.end])
		return ctx.run(l, i+1, emit)
	}
	return nil
}

// put makes row the level's candidate: the loop's row in a loop of one
// level, else copied into the scratch row, set up at the first candidate.
func (l *fromLoop) put(lv *level, row storage.Row) {
	switch {
	case len(l.levels) == 1:
		l.row = row
		return
	case l.row == nil:
		if cap(l.buf) < len(l.cols) {
			l.buf = make(storage.Row, len(l.cols))
		}
		l.row = l.buf[:len(l.cols)]
		for i := range l.levels {
			lv := &l.levels[i]
			lv.env.cols, lv.env.row = l.cols[:lv.end], l.row[:lv.end]
		}
	}
	copy(l.row[lv.at:], row)
}

// ---------------------------------------------------------------------------
// the scaffolding of an execution

// frame is the scaffolding one execution of a SELECT core builds before
// its first row: the loop with its levels and scratch row, the WHERE
// conjuncts' marks, the scope, the stored tables' access paths with
// their key values, and the index probes of its joins. A context keeps
// the frames of finished executions, and an execution takes the last
// one kept, so the cores nested in it (subqueries, CTE bodies, UNION
// branches, a recursive CTE's iterations) take and return theirs in LIFO
// order. Only memory is reused, never a decision, and no result row or
// relation comes from a frame.
type frame struct {
	from   fromLoop
	conjs  []conjunct
	scope  Env
	accs   []access // past their length, with the buffers of executions before
	probes []indexProbe
}

// takeFrame returns the frame last kept, or a new one.
func (ctx *Context) takeFrame() *frame {
	if len(ctx.frames) == 0 {
		ctx.putFrame(&frame{})
	}
	f := ctx.frames[len(ctx.frames)-1]
	ctx.frames = ctx.frames[:len(ctx.frames)-1]
	return f
}

// putFrame empties a frame of everything its execution referenced and
// keeps it for the next.
func (ctx *Context) putFrame(f *frame) {
	f.from = fromLoop{levels: reuse(f.from.levels), buf: reuse(f.from.buf), frame: f}
	f.conjs, f.scope = reuse(f.conjs), Env{}
	for i := range f.accs {
		a := &f.accs[i]
		*a = access{filters: reuse(a.filters), hits: reuse(a.hits), vals: reuse(a.vals)}
	}
	for i := range f.probes {
		f.probes[i] = indexProbe{rows: reuse(f.probes[i].rows)}
	}
	f.accs, f.probes = f.accs[:0], f.probes[:0]
	ctx.frames = append(ctx.frames, f)
}

// reuse empties a buffer for the next execution, cleared to its capacity
// so that it pins nothing, or drops it past frameCap elements, so that
// one large read is not kept.
func reuse[S ~[]E, E any](s S) S {
	if cap(s) > frameCap {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

const frameCap = 1024

// access returns the frame's next access path, for table. Growing the
// frame's array leaves the paths handed out before where they are.
func (f *frame) access(table *storage.Table) *access {
	f.accs = slices.Grow(f.accs, 1)[:len(f.accs)+1]
	a := &f.accs[len(f.accs)-1]
	a.table = table
	return a
}

// indexProbe returns the frame's next index probe, drawing candidates
// from index on table.
func (f *frame) indexProbe(ctx *Context, table *storage.Table, index *storage.Index) *indexProbe {
	f.probes = slices.Grow(f.probes, 1)[:len(f.probes)+1]
	p := &f.probes[len(f.probes)-1]
	kind := table.Schema.Cols[table.Schema.ColIndex(index.Column)].Type.Kind
	p.ctx, p.table, p.index, p.kind, p.snap = ctx, table, index, kind, ctx.snap(table)
	return p
}

// ---------------------------------------------------------------------------
// projection

// projCol is one output column: the source column at pos or, with pos
// negative, the value of expr.
type projCol struct {
	pos  int
	expr ast.Expr
}

func projectionPlan(items []ast.SelectItem, src []ColMeta) ([]ColMeta, []projCol, error) {
	var cols []ColMeta
	var plan []projCol
	for _, item := range items {
		if !item.Star {
			name := item.Alias
			if cr, ok := item.Expr.(*ast.ColumnRef); ok && name == "" {
				name = cr.Column
			} else if name == "" {
				name = item.Expr.String()
			}
			cols = append(cols, ColMeta{Name: name})
			plan = append(plan, projCol{pos: -1, expr: item.Expr})
			continue
		}
		before := len(cols)
		for i, c := range src {
			if item.StarTable == "" || strings.EqualFold(c.Table, item.StarTable) {
				cols = append(cols, c)
				plan = append(plan, projCol{pos: i})
			}
		}
		if item.StarTable != "" && len(cols) == before {
			return nil, nil, fmt.Errorf("sql: %s.* matches no columns", item.StarTable)
		}
	}
	return cols, plan, nil
}

func (ctx *Context) projectRow(plan []projCol, env *Env) (storage.Row, error) {
	out := ctx.slab.row(len(plan))
	for i, p := range plan {
		if p.pos >= 0 {
			out[i] = env.row[p.pos]
			continue
		}
		v, err := ctx.EvalExpr(p.expr, env)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// grouping and aggregation

// collectAggregates gathers the distinct aggregate nodes of the core's own
// query level; subqueries aggregate independently.
func collectAggregates(core *ast.SelectCore) []*ast.Aggregate {
	var aggs []*ast.Aggregate
	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Aggregate:
			if !slices.Contains(aggs, n) {
				aggs = append(aggs, n)
			}
			return false
		case *ast.Select:
			return false
		}
		return true
	}
	for _, item := range core.Items {
		ast.Inspect(item.Expr, visit)
	}
	ast.Inspect(core.Having, visit)
	return aggs
}

// grouping accumulates a core's rows into groups as they stream by,
// keeping the groups in first-seen order. Without GROUP BY there is
// exactly one group, even over no rows. A scratch row is copied as first.
type grouping struct {
	by      []ast.Expr
	aggs    []*ast.Aggregate
	index   keyTable // of the groups' GROUP BY values, in keys
	keys    []types.Value
	groups  []group
	scratch bool
}

// group is one group's first row and its aggregates' accumulators, one
// per aggregate of the grouping, in its order.
type group struct {
	first storage.Row
	seen  bool // first is set
	accs  []accumulator
}

func newGrouping(by []ast.Expr, aggs []*ast.Aggregate, scratch bool) *grouping {
	g := &grouping{by: by, aggs: aggs, scratch: scratch}
	if len(by) == 0 {
		g.groups = append(g.groups, g.newGroup())
	}
	return g
}

func (g *grouping) newGroup() group {
	accs := make([]accumulator, len(g.aggs))
	for i, a := range g.aggs {
		accs[i].agg = a
	}
	return group{accs: accs}
}

// add accumulates the row in env into its group.
func (g *grouping) add(ctx *Context, env *Env) error {
	i := 0
	if len(g.by) > 0 {
		at := len(g.keys) // the row's values go after the last group's
		for _, ge := range g.by {
			v, err := ctx.EvalExpr(ge, env)
			if err != nil {
				return err
			}
			g.keys = append(g.keys, v)
		}
		var added bool
		if i, added = g.index.add(g.keys[at:]); added {
			g.groups = append(g.groups, g.newGroup())
		} else {
			g.keys = g.keys[:at]
		}
	}
	gr := &g.groups[i]
	if !gr.seen {
		gr.first, gr.seen = env.row, true
		if g.scratch {
			gr.first = slices.Clone(env.row)
		}
	}
	for j := range gr.accs {
		if err := gr.accs[j].add(ctx, env); err != nil {
			return err
		}
	}
	return nil
}

// project evaluates HAVING and the projection once per group, with the
// group's aggregate values in scope, and returns the rows HAVING keeps.
// Columns outside aggregates read the group's first row, or NULLs when
// the group is the empty input of an ungrouped aggregate.
func (g *grouping) project(ctx *Context, having ast.Expr, plan []projCol, env *Env) ([]storage.Row, error) {
	saved := ctx.aggValues
	defer func() { ctx.aggValues = saved }()
	vals := make(map[*ast.Aggregate]types.Value, len(g.aggs))
	var out []storage.Row
	for i := range g.groups {
		gr := &g.groups[i]
		for j := range gr.accs {
			v, err := gr.accs[j].value()
			if err != nil {
				return nil, err
			}
			vals[gr.accs[j].agg] = v
		}
		ctx.aggValues = vals
		env.row = gr.first
		if !gr.seen {
			env.row = make(storage.Row, len(env.cols))
		}
		if having != nil {
			t, err := ctx.EvalPredicate(having, env)
			if err != nil {
				return nil, err
			}
			if t != types.True {
				continue
			}
		}
		row, err := ctx.projectRow(plan, env)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// accumulator folds one aggregate over the rows of a group, one row at a
// time.
type accumulator struct {
	agg        *ast.Aggregate
	rows       int64 // rows seen (COUNT(*))
	n          int64 // non-NULL values admitted
	sumF       float64
	sumI       int64
	anyFloat   bool
	minV, maxV types.Value
	distinct   *inSet // DISTINCT: the values admitted so far
}

func (a *accumulator) add(ctx *Context, env *Env) error {
	agg := a.agg
	if agg.Star {
		a.rows++
		return nil
	}
	v, err := ctx.EvalExpr(agg.Arg, env)
	if err != nil || v.IsNull() {
		return err
	}
	if agg.Distinct {
		if a.distinct == nil {
			a.distinct = newInSet(0)
		}
		if !a.distinct.add(v) {
			return nil
		}
	}
	a.n++
	switch agg.Func {
	case "SUM", "AVG":
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("sql: %s requires numeric values, got %s", agg.Func, v.Kind())
		}
		a.sumF += f
		if v.Kind() == types.KindFloat {
			a.anyFloat = true
		} else {
			a.sumI += v.Int()
		}
	case "MIN":
		if a.minV.IsNull() {
			a.minV = v
		} else if c, err := types.Compare(v, a.minV); err == nil && c < 0 {
			a.minV = v
		}
	case "MAX":
		if a.maxV.IsNull() {
			a.maxV = v
		} else if c, err := types.Compare(v, a.maxV); err == nil && c > 0 {
			a.maxV = v
		}
	}
	return nil
}

// value is the aggregate over the rows accumulated.
func (a *accumulator) value() (types.Value, error) {
	switch a.agg.Func {
	case "COUNT":
		if a.agg.Star {
			return types.NewInt(a.rows), nil
		}
		return types.NewInt(a.n), nil
	case "SUM":
		if a.n == 0 {
			return types.Null, nil
		}
		if a.anyFloat {
			return types.NewFloat(a.sumF), nil
		}
		return types.NewInt(a.sumI), nil
	case "AVG":
		if a.n == 0 {
			return types.Null, nil
		}
		return types.NewFloat(a.sumF / float64(a.n)), nil
	case "MIN":
		return a.minV, nil
	case "MAX":
		return a.maxV, nil
	}
	return types.Null, fmt.Errorf("sql: unknown aggregate %s", a.agg.Func)
}

// ---------------------------------------------------------------------------
// ordering and limits

// orderRelation sorts the rows stably by the ORDER BY items, whose keys
// are computed once per row into one array.
func (ctx *Context) orderRelation(rel *Relation, items []ast.OrderItem, outer *Env) error {
	for _, item := range items {
		if item.Position > len(rel.Cols) {
			return fmt.Errorf("sql: ORDER BY position %d exceeds %d output columns", item.Position, len(rel.Cols))
		}
	}
	type keyed struct {
		row  storage.Row
		keys []types.Value
	}
	n := len(items)
	rows, keys := make([]keyed, len(rel.Rows)), make([]types.Value, len(rel.Rows)*n)
	env := &Env{cols: rel.Cols, parent: outer}
	for i, row := range rel.Rows {
		rows[i] = keyed{row: row, keys: keys[i*n : i*n+n]}
		for j, item := range items {
			if item.Position > 0 {
				rows[i].keys[j] = row[item.Position-1]
				continue
			}
			env.row = row
			v, err := ctx.EvalExpr(item.Expr, env)
			if err != nil {
				return err
			}
			rows[i].keys[j] = v
		}
	}
	slices.SortStableFunc(rows, func(a, b keyed) int {
		for j, item := range items {
			if c := types.CompareForSort(a.keys[j], b.keys[j]); c != 0 {
				if item.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	for i := range rows {
		rel.Rows[i] = rows[i].row
	}
	return nil
}

func (ctx *Context) applyLimit(rel *Relation, limit, offset ast.Expr, outer *Env) error {
	count := func(e ast.Expr, clause string, absent int) (int, error) {
		if e == nil {
			return absent, nil
		}
		v, err := ctx.EvalExpr(e, outer)
		if err != nil {
			return 0, err
		}
		if v.Kind() != types.KindInt || v.Int() < 0 {
			return 0, fmt.Errorf("sql: %s must be a non-negative integer", clause)
		}
		return int(v.Int()), nil
	}
	start, err := count(offset, "OFFSET", 0)
	if err != nil {
		return err
	}
	n, err := count(limit, "LIMIT", len(rel.Rows))
	if err != nil {
		return err
	}
	start = min(start, len(rel.Rows))
	rel.Rows = rel.Rows[start : start+min(n, len(rel.Rows)-start)]
	return nil
}

// ---------------------------------------------------------------------------
// helpers

// bindColumnRefs resolves every direct column reference of the core
// (ast.CoreRefs) against the loop's columns cols and the scopes outer,
// once per plan: into a slot table, as a position in the core's row or
// as a column of an enclosing scope — and then it returns those scopes'
// columns, which the binding holds under. It is also the static check —
// even when the relation is empty, each reference must resolve, so that
// a typo does not pass silently on an empty table. Subqueries bind in
// their own scope when (and if) they run. Slots given twice in one core
// (a tree not made by the parser) leave it to resolve by name (no table).
func bindColumnRefs(core *ast.SelectCore, cols []ColMeta, outer *Env) (*slotTable, [][]ColMeta, error) {
	slots, reads := new(slotTable), false
	var failed error
	ast.CoreRefs(core, func(ref *ast.ColumnRef) bool {
		at, err := resolve(ref, cols, outer)
		if failed = err; err != nil {
			return false
		}
		reads = reads || at == outerSlot
		switch {
		case slots == nil || ref.Slot <= 0 || ref.Slot > maxSlots:
		case slots[ref.Slot-1] != 0:
			slots = nil
		default:
			slots[ref.Slot-1] = at
		}
		return true
	})
	if failed != nil || !reads {
		return slots, nil, failed
	}
	var scopes [][]ColMeta
	for env := outer; env != nil; env = env.parent {
		if env.touched == nil {
			scopes = append(scopes, env.cols)
		}
	}
	return slots, scopes, nil
}

// resolve settles ref against cols and the outer scopes: its position
// plus one when it names exactly one column of cols, outerSlot when,
// failing any there, it names a column of some outer scope (which one,
// and whether uniquely, the row-time lookup settles), 0 when the position
// does not fit a slot.
func resolve(ref *ast.ColumnRef, cols []ColMeta, outer *Env) (uint8, error) {
	pos, err := findCol(cols, ref.Table, ref.Column)
	if err != nil {
		return 0, err
	}
	if pos >= 0 {
		if pos+1 >= outerSlot {
			return 0, nil
		}
		return uint8(pos + 1), nil
	}
	for env := outer; env != nil; env = env.parent {
		if at, err := findCol(env.cols, ref.Table, ref.Column); at >= 0 || err != nil {
			return outerSlot, nil
		}
	}
	return 0, errNoColumn{table: ref.Table, name: ref.Column}
}

// distinctRows keeps the first of every set of equal rows, in order.
func distinctRows(lists ...[]storage.Row) []storage.Row {
	var seen keyTable
	for _, rows := range lists {
		for _, row := range rows {
			seen.add(row)
		}
	}
	return seen.rows
}

// keyTable is the set of tuples behind DISTINCT, UNION and GROUP BY,
// numbered in first-added order. A tuple is found by the maphash of its
// values' keys (types.Value.Key) and confirmed value by value
// (types.SameKey).
type keyTable struct {
	seed  maphash.Seed
	heads map[uint64]int32 // a hash → its newest entry, plus one
	chain []int32          // an entry → the next older entry with its hash, plus one; 0 ends
	rows  []storage.Row    // the entries' tuples, as added
}

// find returns the entry equal to vals, or -1, and the hash of vals.
func (t *keyTable) find(vals []types.Value) (int, uint64) {
	if t.heads == nil {
		t.heads, t.seed = map[uint64]int32{}, maphash.MakeSeed()
	}
	var h maphash.Hash
	h.SetSeed(t.seed)
	for _, v := range vals {
		maphash.WriteComparable(&h, v.Key())
	}
	sum := h.Sum64()
	for e := t.heads[sum]; e > 0; e = t.chain[e-1] {
		if slices.EqualFunc(t.rows[e-1], vals, types.SameKey) {
			return int(e - 1), sum
		}
	}
	return -1, sum
}

// add returns the entry equal to vals, or adds vals itself (no copy) as
// the next one; added says which.
func (t *keyTable) add(vals []types.Value) (entry int, added bool) {
	entry, sum := t.find(vals)
	if entry >= 0 {
		return entry, false
	}
	t.chain = append(t.chain, t.heads[sum])
	t.rows = append(t.rows, vals)
	t.heads[sum] = int32(len(t.rows))
	return len(t.rows) - 1, true
}

// slab cuts the rows a statement projects from shared chunks. A chunk
// holds as many values as were cut before it (at least a row's, at most
// slabValues), so the first rows cost an allocation each, as rows of
// their own would, and a long result an allocation per doubling. A chunk
// lives while any row cut from it does, so rows the statement discards
// (a correlated subquery's per-row results, a recursion's duplicates)
// can live as long as its result.
type slab struct {
	free []types.Value
	cut  int // values
}

const slabValues = 4096

// row returns a row of n values, its capacity n: an append to it copies.
func (s *slab) row(n int) storage.Row {
	if len(s.free) < n {
		s.free = make([]types.Value, max(n, min(s.cut, slabValues)))
	}
	s.cut += n
	row := s.free[:n:n]
	s.free = s.free[n:]
	return row
}

// references reports whether the tree below n — FROM clauses, nested
// subqueries and CTE definitions included — names the table.
func references(n ast.Node, table string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if bt, ok := n.(*ast.BaseTable); ok && strings.EqualFold(bt.Name, table) {
			found = true
		}
		return !found
	})
	return found
}
