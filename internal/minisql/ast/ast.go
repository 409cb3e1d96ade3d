// Package ast defines the abstract syntax tree of the minisql dialect.
// Every node renders back to parseable SQL via String(), which the PDM
// query modificator relies on: it edits query trees (appending rule
// predicates, wrapping subqueries) and ships the serialized text to the
// database server.
package ast

import (
	"strconv"
	"strings"
	"sync/atomic"

	"pdmtune/internal/minisql/types"
)

// Statement is any top-level SQL statement.
type Statement interface {
	String() string
	stmt()
}

// Expr is any scalar or predicate expression.
type Expr interface {
	String() string
	expr()
}

// TableRef is an entry in a FROM clause.
type TableRef interface {
	String() string
	tableRef()
}

// ---------------------------------------------------------------------------
// Statements

// CreateTable is CREATE TABLE name (col type [NOT NULL] [PRIMARY KEY], ...).
type CreateTable struct {
	Name        string
	Cols        []ColumnDef
	IfNotExists bool
}

// ColumnDef is one column definition in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       types.ColumnType
	NotNull    bool
	PrimaryKey bool
	Default    Expr // nil if absent
}

func (s *CreateTable) String() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	if s.IfNotExists {
		sb.WriteString("IF NOT EXISTS ")
	}
	sb.WriteString(s.Name)
	sb.WriteString(" (")
	for i, c := range s.Cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name + " " + c.Type.String())
		if c.NotNull {
			sb.WriteString(" NOT NULL")
		}
		if c.PrimaryKey {
			sb.WriteString(" PRIMARY KEY")
		}
		if c.Default != nil {
			sb.WriteString(" DEFAULT " + c.Default.String())
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// CreateIndex is CREATE [UNIQUE] INDEX [IF NOT EXISTS] name ON table (col).
type CreateIndex struct {
	Name        string
	Table       string
	Column      string
	Unique      bool
	IfNotExists bool
}

func (s *CreateIndex) String() string {
	u := ""
	if s.Unique {
		u = "UNIQUE "
	}
	ine := ""
	if s.IfNotExists {
		ine = "IF NOT EXISTS "
	}
	return "CREATE " + u + "INDEX " + ine + s.Name + " ON " + s.Table + " (" + s.Column + ")"
}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Name     string
	IfExists bool
}

func (s *DropTable) String() string {
	if s.IfExists {
		return "DROP TABLE IF EXISTS " + s.Name
	}
	return "DROP TABLE " + s.Name
}

// Insert is INSERT INTO table [(cols)] VALUES (...), (...) | INSERT INTO table [(cols)] select.
type Insert struct {
	Table  string
	Cols   []string
	Rows   [][]Expr
	Select *Select // alternative to Rows
}

func (s *Insert) String() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + s.Table)
	if len(s.Cols) > 0 {
		sb.WriteString(" (" + strings.Join(s.Cols, ", ") + ")")
	}
	if s.Select != nil {
		sb.WriteString(" " + s.Select.String())
		return sb.String()
	}
	sb.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		for j, e := range row {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.String())
		}
		sb.WriteString(")")
	}
	return sb.String()
}

// Update is UPDATE table SET col = expr, ... [WHERE expr].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET column = expr pair.
type Assignment struct {
	Column string
	Value  Expr
}

func (s *Update) String() string {
	var sb strings.Builder
	sb.WriteString("UPDATE " + s.Table + " SET ")
	for i, a := range s.Set {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.Column + " = " + a.Value.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	return sb.String()
}

// Delete is DELETE FROM table [WHERE expr].
type Delete struct {
	Table string
	Where Expr
}

func (s *Delete) String() string {
	out := "DELETE FROM " + s.Table
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

// Call is CALL proc(arg, ...), invoking a server-side stored procedure.
type Call struct {
	Proc string
	Args []Expr
}

func (s *Call) String() string {
	args := make([]string, len(s.Args))
	for i, a := range s.Args {
		args[i] = a.String()
	}
	return "CALL " + s.Proc + "(" + strings.Join(args, ", ") + ")"
}

// Explain wraps a statement to return its plan instead of executing it.
type Explain struct {
	Stmt Statement
}

func (s *Explain) String() string { return "EXPLAIN " + s.Stmt.String() }

// Select is a full query: optional WITH clause, a set-operation body and
// outer ORDER BY / LIMIT.
type Select struct {
	With    *With
	Body    SelectBody
	OrderBy []OrderItem
	Limit   Expr // nil if absent
	Offset  Expr // nil if absent
}

// With is WITH [RECURSIVE] cte [, cte...].
type With struct {
	Recursive bool
	CTEs      []CTE
}

// CTE is name (cols) AS (select).
type CTE struct {
	Name   string
	Cols   []string
	Select *Select
}

// SelectBody is either a SelectCore or a set operation combining two bodies.
type SelectBody interface {
	String() string
	selectBody()
}

// SetOp combines two select bodies with UNION / UNION ALL.
type SetOp struct {
	Op    string // "UNION" | "UNION ALL"
	Left  SelectBody
	Right SelectBody
}

func (s *SetOp) String() string {
	return s.Left.String() + " " + s.Op + " " + s.Right.String()
}
func (*SetOp) selectBody() {}

// SelectCore is one SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ...
type SelectCore struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef // nil means no FROM (constant select)
	Where    Expr
	GroupBy  []Expr
	Having   Expr

	// Plan is the executor's plan of the core: what its executions
	// derive from its text and the catalog alone, published by its first
	// execution and read-only afterwards, so one core runs on any number
	// of sessions at once. A core is not edited once it has run.
	Plan atomic.Value
}

// SelectItem is one projection: expression with optional alias, or a star.
type SelectItem struct {
	Star      bool   // SELECT * or table.*
	StarTable string // qualifier for table.*; empty for bare *
	Expr      Expr
	Alias     string
}

func (s *SelectCore) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch {
		case it.Star && it.StarTable != "":
			sb.WriteString(it.StarTable + ".*")
		case it.Star:
			sb.WriteString("*")
		default:
			sb.WriteString(it.Expr.String())
			if it.Alias != "" {
				sb.WriteString(" AS \"" + it.Alias + "\"")
			}
		}
	}
	if s.From != nil {
		sb.WriteString(" FROM " + s.From.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.String())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	return sb.String()
}
func (*SelectCore) selectBody() {}

// OrderItem is one ORDER BY entry; Position > 0 means positional form.
type OrderItem struct {
	Expr     Expr
	Position int
	Desc     bool
}

func (s *Select) String() string {
	var sb strings.Builder
	if s.With != nil {
		sb.WriteString("WITH ")
		if s.With.Recursive {
			sb.WriteString("RECURSIVE ")
		}
		for i, cte := range s.With.CTEs {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(cte.Name)
			if len(cte.Cols) > 0 {
				sb.WriteString(" (" + strings.Join(cte.Cols, ", ") + ")")
			}
			sb.WriteString(" AS (" + cte.Select.String() + ")")
		}
		sb.WriteString(" ")
	}
	sb.WriteString(s.Body.String())
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			if o.Position > 0 {
				sb.WriteString(strconv.Itoa(o.Position))
			} else {
				sb.WriteString(o.Expr.String())
			}
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		sb.WriteString(" LIMIT " + s.Limit.String())
	}
	if s.Offset != nil {
		sb.WriteString(" OFFSET " + s.Offset.String())
	}
	return sb.String()
}

func (*CreateTable) stmt() {}
func (*CreateIndex) stmt() {}
func (*DropTable) stmt()   {}
func (*Insert) stmt()      {}
func (*Update) stmt()      {}
func (*Delete) stmt()      {}
func (*Select) stmt()      {}
func (*Call) stmt()        {}
func (*Explain) stmt()     {}

// ---------------------------------------------------------------------------
// Table references

// BaseTable is a named table with an optional alias.
type BaseTable struct {
	Name  string
	Alias string
}

func (t *BaseTable) String() string {
	if t.Alias != "" {
		return t.Name + " AS " + t.Alias
	}
	return t.Name
}
func (*BaseTable) tableRef() {}

// Join is left JOIN right ON cond. Type is "INNER" or "LEFT".
type Join struct {
	Type  string
	Left  TableRef
	Right TableRef
	On    Expr
}

func (t *Join) String() string {
	kw := "JOIN"
	if t.Type == "LEFT" {
		kw = "LEFT JOIN"
	}
	return t.Left.String() + " " + kw + " " + t.Right.String() + " ON " + t.On.String()
}
func (*Join) tableRef() {}

// CrossList is FROM a, b, c — implicit cross join.
type CrossList struct {
	Items []TableRef
}

func (t *CrossList) String() string {
	parts := make([]string, len(t.Items))
	for i, it := range t.Items {
		parts[i] = it.String()
	}
	return strings.Join(parts, ", ")
}
func (*CrossList) tableRef() {}

// SubqueryTable is (select) AS alias.
type SubqueryTable struct {
	Select *Select
	Alias  string
}

func (t *SubqueryTable) String() string {
	return "(" + t.Select.String() + ") AS " + t.Alias
}
func (*SubqueryTable) tableRef() {}

// ---------------------------------------------------------------------------
// Expressions

// Literal is a constant value.
type Literal struct {
	Value types.Value
}

func (e *Literal) String() string { return e.Value.SQLLiteral() }

// Param is a positional parameter "?"; Index is assigned by the parser
// in order of appearance (0-based).
type Param struct {
	Index int
}

func (e *Param) String() string { return "?" }

// ColumnRef is [table.]column.
type ColumnRef struct {
	Table  string
	Column string
	// Slot numbers the reference among the direct references of the
	// SELECT core it belongs to (CoreRefs), from 1; 0 outside a core.
	// The parser sets it; the executor binds each slot of a core to a
	// column position once per execution of the core.
	Slot int
}

func (e *ColumnRef) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Column
	}
	return e.Column
}

// Binary is a binary operation: comparison, logic, arithmetic or concat.
type Binary struct {
	Op    string // "=", "<>", "<", "<=", ">", ">=", "AND", "OR", "+", "-", "*", "/", "%", "||"
	Left  Expr
	Right Expr
}

func (e *Binary) String() string {
	return "(" + e.Left.String() + " " + e.Op + " " + e.Right.String() + ")"
}

// Unary is NOT expr or -expr.
type Unary struct {
	Op   string // "NOT", "-"
	Expr Expr
}

func (e *Unary) String() string {
	if e.Op == "NOT" {
		return "(NOT " + e.Expr.String() + ")"
	}
	return "(-" + e.Expr.String() + ")"
}

// IsNull is expr IS [NOT] NULL.
type IsNull struct {
	Expr Expr
	Not  bool
}

func (e *IsNull) String() string {
	if e.Not {
		return "(" + e.Expr.String() + " IS NOT NULL)"
	}
	return "(" + e.Expr.String() + " IS NULL)"
}

// Between is expr [NOT] BETWEEN lo AND hi.
type Between struct {
	Expr Expr
	Lo   Expr
	Hi   Expr
	Not  bool
}

func (e *Between) String() string {
	n := ""
	if e.Not {
		n = "NOT "
	}
	return "(" + e.Expr.String() + " " + n + "BETWEEN " + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

// Like is expr [NOT] LIKE pattern (% and _ wildcards).
type Like struct {
	Expr    Expr
	Pattern Expr
	Not     bool
}

func (e *Like) String() string {
	n := ""
	if e.Not {
		n = "NOT "
	}
	return "(" + e.Expr.String() + " " + n + "LIKE " + e.Pattern.String() + ")"
}

// InList is expr [NOT] IN (e1, e2, ...).
type InList struct {
	Expr  Expr
	Items []Expr
	Not   bool
}

func (e *InList) String() string {
	parts := make([]string, len(e.Items))
	for i, it := range e.Items {
		parts[i] = it.String()
	}
	n := ""
	if e.Not {
		n = "NOT "
	}
	return "(" + e.Expr.String() + " " + n + "IN (" + strings.Join(parts, ", ") + "))"
}

// InSubquery is expr [NOT] IN (select).
type InSubquery struct {
	Expr   Expr
	Select *Select
	Not    bool
}

func (e *InSubquery) String() string {
	n := ""
	if e.Not {
		n = "NOT "
	}
	return "(" + e.Expr.String() + " " + n + "IN (" + e.Select.String() + "))"
}

// Exists is [NOT] EXISTS (select).
type Exists struct {
	Select *Select
	Not    bool
}

func (e *Exists) String() string {
	if e.Not {
		return "(NOT EXISTS (" + e.Select.String() + "))"
	}
	return "(EXISTS (" + e.Select.String() + "))"
}

// ScalarSubquery is (select) used as a scalar value.
type ScalarSubquery struct {
	Select *Select
}

func (e *ScalarSubquery) String() string { return "(" + e.Select.String() + ")" }

// Cast is CAST(expr AS type).
type Cast struct {
	Expr Expr
	Type types.ColumnType
}

func (e *Cast) String() string {
	return "CAST(" + e.Expr.String() + " AS " + e.Type.String() + ")"
}

// FuncCall is a scalar function invocation (built-in or user-registered
// stored function, cf. SQL/PSM).
type FuncCall struct {
	Name string
	Args []Expr
}

func (e *FuncCall) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Aggregate is COUNT/SUM/AVG/MIN/MAX. Star is COUNT(*).
type Aggregate struct {
	Func     string // upper-case
	Star     bool
	Distinct bool
	Arg      Expr
}

func (e *Aggregate) String() string {
	if e.Star {
		return e.Func + "(*)"
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return e.Func + "(" + d + e.Arg.String() + ")"
}

// Case is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type Case struct {
	Operand Expr // nil for searched CASE
	Whens   []When
	Else    Expr
}

// When is one WHEN cond THEN result arm.
type When struct {
	Cond   Expr
	Result Expr
}

func (e *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	if e.Operand != nil {
		sb.WriteString(" " + e.Operand.String())
	}
	for _, w := range e.Whens {
		sb.WriteString(" WHEN " + w.Cond.String() + " THEN " + w.Result.String())
	}
	if e.Else != nil {
		sb.WriteString(" ELSE " + e.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

func (*Literal) expr()        {}
func (*Param) expr()          {}
func (*ColumnRef) expr()      {}
func (*Binary) expr()         {}
func (*Unary) expr()          {}
func (*IsNull) expr()         {}
func (*Between) expr()        {}
func (*Like) expr()           {}
func (*InList) expr()         {}
func (*InSubquery) expr()     {}
func (*Exists) expr()         {}
func (*ScalarSubquery) expr() {}
func (*Cast) expr()           {}
func (*FuncCall) expr()       {}
func (*Aggregate) expr()      {}
func (*Case) expr()           {}

// AndWhere conjoins extra onto where with AND, handling nil where — the
// primitive the PDM query modificator uses to append rule predicates
// ("the resulting predicate is either appended to an already existing
// WHERE clause with an AND or a new WHERE clause has to be generated").
func AndWhere(where, extra Expr) Expr {
	if extra == nil {
		return where
	}
	if where == nil {
		return extra
	}
	return &Binary{Op: "AND", Left: where, Right: extra}
}

// OrAll disjoins a list of predicates ("two or more qualifying conditions
// are always connected via the OR operator"). Returns nil for an empty list.
func OrAll(preds []Expr) Expr {
	var out Expr
	for _, p := range preds {
		if out == nil {
			out = p
		} else {
			out = &Binary{Op: "OR", Left: out, Right: p}
		}
	}
	return out
}
