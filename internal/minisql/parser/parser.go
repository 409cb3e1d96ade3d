// Package parser turns SQL text into the AST of package ast. It is a
// hand-written recursive-descent parser with Pratt-style expression
// parsing, covering the SQL:1999 subset used by the PDM workload:
// WITH RECURSIVE, multi-branch UNION bodies, joins, EXISTS / IN / scalar
// subqueries, aggregates, CAST, CASE, DDL, DML, transactions and CALL.
//
// AST nodes are ordinary heap values: a parsed statement stays valid for
// as long as something references it (the engine's statement table does) and
// is never written after Parse returns.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/token"
	"pdmtune/internal/minisql/types"
)

// Parser consumes the token stream of one source text.
type Parser struct {
	toks   []token.Token
	pos    int
	params int // number of ? parameters seen so far
	depth  int // recursion depth, bounded to keep adversarial input from overflowing the stack
	src    string
}

// maxDepth bounds recursive-descent depth. Real PDM statements nest a
// handful of levels; anything deeper is adversarial input that would
// otherwise overflow the goroutine stack.
const maxDepth = 500

func (p *Parser) enter() error {
	p.depth++
	if p.depth > maxDepth {
		return p.errorf("statement nesting too deep")
	}
	return nil
}

func (p *Parser) leave() { p.depth-- }

// tokenize starts a parser over src.
func tokenize(src string) (Parser, error) {
	toks, err := token.Tokenize(src, nil)
	return Parser{toks: toks, src: src}, err
}

// Parse parses a single statement (a trailing semicolon is allowed).
func Parse(src string) (ast.Statement, error) {
	p, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(token.Semicolon)
	if !p.at(token.EOF) {
		return nil, p.errorf("unexpected %s after end of statement", p.peek())
	}
	return st, nil
}

// ParseScript parses a semicolon-separated list of statements.
func ParseScript(src string) ([]ast.Statement, error) {
	p, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	var out []ast.Statement
	for {
		for p.accept(token.Semicolon) {
		}
		if p.at(token.EOF) {
			return out, nil
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.accept(token.Semicolon) && !p.at(token.EOF) {
			return nil, p.errorf("expected ';' between statements, got %s", p.peek())
		}
	}
}

// ParseExpr parses a standalone expression — used by the rule compiler to
// validate condition predicates entered by administrators.
func ParseExpr(src string) (ast.Expr, error) {
	p, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(token.EOF) {
		return nil, p.errorf("unexpected %s after expression", p.peek())
	}
	return e, nil
}

// NumParams reports how many ? parameters a statement's source contains.
// It streams tokens without materializing them, so it does not allocate.
func NumParams(src string) (int, error) {
	l := token.NewLexer(src)
	n := 0
	for {
		t, err := l.Next()
		if err != nil {
			return 0, err
		}
		if t.Type == token.EOF {
			return n, nil
		}
		if t.Type == token.Param {
			n++
		}
	}
}

// ---------------------------------------------------------------------------
// token helpers

func (p *Parser) peek() token.Token    { return p.toks[p.pos] }
func (p *Parser) at(t token.Type) bool { return p.toks[p.pos].Type == t }

func (p *Parser) atKeyword(kws ...string) bool {
	t := p.peek()
	if t.Type != token.Keyword {
		return false
	}
	for _, k := range kws {
		if t.Text == k {
			return true
		}
	}
	return false
}

func (p *Parser) next() token.Token {
	t := p.toks[p.pos]
	if t.Type != token.EOF {
		p.pos++
	}
	return t
}

func (p *Parser) accept(t token.Type) bool {
	if p.at(t) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(t token.Type, what string) (token.Token, error) {
	if p.at(t) {
		return p.next(), nil
	}
	return token.Token{}, p.errorf("expected %s, got %s", what, p.peek())
}

func (p *Parser) expectKeyword(kw string) error {
	if p.acceptKeyword(kw) {
		return nil
	}
	return p.errorf("expected %s, got %s", kw, p.peek())
}

// parseError defers the line/column scan and message assembly to
// Error(), so constructing an error (and any speculative error paths)
// costs nothing until the text is actually rendered.
type parseError struct {
	src string
	pos int
	msg string
}

func (e *parseError) Error() string {
	line, col := 1, 1
	for i := 0; i < e.pos && i < len(e.src); i++ {
		if e.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return "sql: parse error at line " + strconv.Itoa(line) + " column " + strconv.Itoa(col) + ": " + e.msg
}

func (p *Parser) errorf(format string, args ...any) error {
	return &parseError{src: p.src, pos: p.peek().Pos, msg: fmt.Sprintf(format, args...)}
}

// softKeywords may double as identifiers (column names): the paper's
// schema names a column "left", which is also the LEFT JOIN keyword.
var softKeywords = map[string]bool{"LEFT": true, "KEY": true, "WORK": true, "DEFAULT": true}

// lowerKeyword maps the canonical spellings accepted as identifiers to
// their lower-case form without allocating.
func lowerKeyword(kw string) string {
	switch kw {
	case "LEFT":
		return "left"
	case "KEY":
		return "key"
	case "WORK":
		return "work"
	case "DEFAULT":
		return "default"
	case "ALL":
		return "all"
	}
	return strings.ToLower(kw)
}

// identLike accepts an identifier, quoted identifier or soft keyword.
func (p *Parser) identLike(what string) (string, error) {
	t := p.peek()
	if t.Type == token.Ident || t.Type == token.QuotedIdent {
		p.pos++
		return t.Text, nil
	}
	if t.Type == token.Keyword && softKeywords[t.Text] {
		p.pos++
		return lowerKeyword(t.Text), nil
	}
	return "", p.errorf("expected %s, got %s", what, t)
}

// ---------------------------------------------------------------------------
// statements

func (p *Parser) parseStatement() (ast.Statement, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch {
	case p.atKeyword("SELECT", "WITH"):
		return p.parseSelect()
	case p.atKeyword("INSERT"):
		return p.parseInsert()
	case p.atKeyword("UPDATE"):
		return p.parseUpdate()
	case p.atKeyword("DELETE"):
		return p.parseDelete()
	case p.atKeyword("CREATE"):
		return p.parseCreate()
	case p.atKeyword("DROP"):
		return p.parseDrop()
	case p.atKeyword("BEGIN", "COMMIT", "ROLLBACK"):
		return nil, p.errorf("%s: SQL has no transactions; a multi-statement write is a write unit, opened with Session.Begin", p.peek())
	case p.atKeyword("CALL"):
		return p.parseCall()
	case p.atKeyword("EXPLAIN"):
		p.next()
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ast.Explain{Stmt: inner}, nil
	}
	return nil, p.errorf("expected a statement, got %s", p.peek())
}

func (p *Parser) parseCall() (ast.Statement, error) {
	p.next() // CALL
	name, err := p.identLike("procedure name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LParen, "'('"); err != nil {
		return nil, err
	}
	var args []ast.Expr
	if !p.at(token.RParen) {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	if _, err := p.expect(token.RParen, "')'"); err != nil {
		return nil, err
	}
	return &ast.Call{Proc: name, Args: args}, nil
}

func (p *Parser) parseCreate() (ast.Statement, error) {
	p.next() // CREATE
	unique := p.acceptKeyword("UNIQUE")
	switch {
	case p.acceptKeyword("TABLE"):
		if unique {
			return nil, p.errorf("UNIQUE is not valid for CREATE TABLE")
		}
		return p.parseCreateTable()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex(unique)
	}
	return nil, p.errorf("expected TABLE or INDEX after CREATE, got %s", p.peek())
}

func (p *Parser) parseCreateTable() (ast.Statement, error) {
	st := &ast.CreateTable{}
	if p.atKeyword("IF") {
		p.next()
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if !p.acceptKeyword("EXISTS") {
			return nil, p.errorf("expected EXISTS, got %s", p.peek())
		}
		st.IfNotExists = true
	}
	name, err := p.identLike("table name")
	if err != nil {
		return nil, err
	}
	st.Name = name
	if _, err := p.expect(token.LParen, "'('"); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, col)
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.RParen, "')'"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *Parser) parseColumnDef() (ast.ColumnDef, error) {
	var def ast.ColumnDef
	name, err := p.identLike("column name")
	if err != nil {
		return def, err
	}
	def.Name = name
	tname, err := p.identLike("type name")
	if err != nil {
		return def, err
	}
	size := 0
	if p.accept(token.LParen) {
		t, err := p.expect(token.Number, "type length")
		if err != nil {
			return def, err
		}
		size, err = strconv.Atoi(t.Text)
		if err != nil {
			return def, p.errorf("bad type length %q", t.Text)
		}
		if _, err := p.expect(token.RParen, "')'"); err != nil {
			return def, err
		}
	}
	ct, err := types.ParseColumnType(tname, size)
	if err != nil {
		return def, p.errorf("%v", err)
	}
	def.Type = ct
	for {
		switch {
		case p.atKeyword("NOT"):
			p.next()
			if !p.acceptKeyword("NULL") {
				return def, p.errorf("expected NULL after NOT, got %s", p.peek())
			}
			def.NotNull = true
		case p.atKeyword("PRIMARY"):
			p.next()
			if !p.acceptKeyword("KEY") {
				return def, p.errorf("expected KEY after PRIMARY, got %s", p.peek())
			}
			def.PrimaryKey = true
		case p.atKeyword("DEFAULT"):
			p.next()
			e, err := p.parsePrimary()
			if err != nil {
				return def, err
			}
			def.Default = e
		default:
			return def, nil
		}
	}
}

func (p *Parser) parseCreateIndex(unique bool) (ast.Statement, error) {
	ifNotExists := false
	if p.atKeyword("IF") {
		p.next()
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if !p.acceptKeyword("EXISTS") {
			return nil, p.errorf("expected EXISTS, got %s", p.peek())
		}
		ifNotExists = true
	}
	name, err := p.identLike("index name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.identLike("table name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LParen, "'('"); err != nil {
		return nil, err
	}
	col, err := p.identLike("column name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen, "')'"); err != nil {
		return nil, err
	}
	return &ast.CreateIndex{Name: name, Table: table, Column: col, Unique: unique, IfNotExists: ifNotExists}, nil
}

func (p *Parser) parseDrop() (ast.Statement, error) {
	p.next() // DROP
	if !p.acceptKeyword("TABLE") {
		return nil, p.errorf("expected TABLE after DROP, got %s", p.peek())
	}
	st := &ast.DropTable{}
	if p.atKeyword("IF") {
		p.next()
		if !p.acceptKeyword("EXISTS") {
			return nil, p.errorf("expected EXISTS, got %s", p.peek())
		}
		st.IfExists = true
	}
	name, err := p.identLike("table name")
	if err != nil {
		return nil, err
	}
	st.Name = name
	return st, nil
}

func (p *Parser) parseInsert() (ast.Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.identLike("table name")
	if err != nil {
		return nil, err
	}
	st := &ast.Insert{Table: table}
	if p.accept(token.LParen) {
		for {
			col, err := p.identLike("column name")
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, col)
			if !p.accept(token.Comma) {
				break
			}
		}
		if _, err := p.expect(token.RParen, "')'"); err != nil {
			return nil, err
		}
	}
	if p.atKeyword("SELECT") || p.atKeyword("WITH") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.Select = sel
		return st, nil
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(token.LParen, "'('"); err != nil {
			return nil, err
		}
		var row []ast.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(token.Comma) {
				break
			}
		}
		if _, err := p.expect(token.RParen, "')'"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.accept(token.Comma) {
			break
		}
	}
	return st, nil
}

func (p *Parser) parseUpdate() (ast.Statement, error) {
	p.next() // UPDATE
	table, err := p.identLike("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	st := &ast.Update{Table: table}
	for {
		col, err := p.identLike("column name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Eq, "'='"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, ast.Assignment{Column: col, Value: e})
		if !p.accept(token.Comma) {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *Parser) parseDelete() (ast.Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.identLike("table name")
	if err != nil {
		return nil, err
	}
	st := &ast.Delete{Table: table}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

// ---------------------------------------------------------------------------
// SELECT

func (p *Parser) parseSelect() (*ast.Select, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	sel := &ast.Select{}
	if p.atKeyword("WITH") {
		w, err := p.parseWith()
		if err != nil {
			return nil, err
		}
		sel.With = w
	}
	body, err := p.parseSelectBody()
	if err != nil {
		return nil, err
	}
	sel.Body = body
	if p.atKeyword("ORDER") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			item := ast.OrderItem{}
			if p.at(token.Number) {
				t := p.next()
				n, err := strconv.Atoi(t.Text)
				if err != nil || n < 1 {
					return nil, p.errorf("bad ORDER BY position %q", t.Text)
				}
				item.Position = n
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				item.Expr = e
			}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	if p.acceptKeyword("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Offset = e
	}
	return sel, nil
}

func (p *Parser) parseWith() (*ast.With, error) {
	p.next() // WITH
	w := &ast.With{Recursive: p.acceptKeyword("RECURSIVE")}
	for {
		name, err := p.identLike("CTE name")
		if err != nil {
			return nil, err
		}
		cte := ast.CTE{Name: name}
		if p.accept(token.LParen) {
			for {
				col, err := p.identLike("CTE column")
				if err != nil {
					return nil, err
				}
				cte.Cols = append(cte.Cols, col)
				if !p.accept(token.Comma) {
					break
				}
			}
			if _, err := p.expect(token.RParen, "')'"); err != nil {
				return nil, err
			}
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		if _, err := p.expect(token.LParen, "'('"); err != nil {
			return nil, err
		}
		inner, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen, "')'"); err != nil {
			return nil, err
		}
		cte.Select = inner
		w.CTEs = append(w.CTEs, cte)
		if !p.accept(token.Comma) {
			return w, nil
		}
	}
}

// parseSelectBody parses core (UNION [ALL] core)* left-associatively.
func (p *Parser) parseSelectBody() (ast.SelectBody, error) {
	left, err := p.parseSelectCoreOrParen()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("UNION") {
		p.next()
		op := "UNION"
		if p.acceptKeyword("ALL") {
			op = "UNION ALL"
		}
		right, err := p.parseSelectCoreOrParen()
		if err != nil {
			return nil, err
		}
		left = &ast.SetOp{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseSelectCoreOrParen() (ast.SelectBody, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.at(token.LParen) {
		// Parenthesized select body (no WITH/ORDER inside for simplicity).
		p.next()
		body, err := p.parseSelectBody()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen, "')'"); err != nil {
			return nil, err
		}
		return body, nil
	}
	return p.parseSelectCore()
}

func (p *Parser) parseSelectCore() (*ast.SelectCore, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	core := &ast.SelectCore{}
	if p.acceptKeyword("DISTINCT") {
		core.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		core.Items = append(core.Items, item)
		if !p.accept(token.Comma) {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		from, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		core.From = from
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Where = e
	}
	if p.atKeyword("GROUP") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			core.GroupBy = append(core.GroupBy, e)
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Having = e
	}
	slot := 0
	ast.CoreRefs(core, func(ref *ast.ColumnRef) bool {
		slot++
		ref.Slot = slot
		return true
	})
	return core, nil
}

func (p *Parser) parseSelectItem() (ast.SelectItem, error) {
	if p.at(token.Star) {
		p.next()
		return ast.SelectItem{Star: true}, nil
	}
	// table.* — lookahead: Ident Dot Star
	if (p.peek().Type == token.Ident || p.peek().Type == token.QuotedIdent) &&
		p.toks[p.pos+1].Type == token.Dot && p.toks[p.pos+2].Type == token.Star {
		t := p.next()
		p.next() // .
		p.next() // *
		return ast.SelectItem{Star: true, StarTable: t.Text}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return ast.SelectItem{}, err
	}
	item := ast.SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.identLike("alias")
		if err != nil {
			return item, err
		}
		item.Alias = alias
	} else if p.at(token.Ident) || p.at(token.QuotedIdent) {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *Parser) parseFrom() (ast.TableRef, error) {
	first, err := p.parseJoinChain()
	if err != nil {
		return nil, err
	}
	if !p.at(token.Comma) {
		return first, nil
	}
	list := &ast.CrossList{Items: []ast.TableRef{first}}
	for p.accept(token.Comma) {
		next, err := p.parseJoinChain()
		if err != nil {
			return nil, err
		}
		list.Items = append(list.Items, next)
	}
	return list, nil
}

func (p *Parser) parseJoinChain() (ast.TableRef, error) {
	left, err := p.parseTableFactor()
	if err != nil {
		return nil, err
	}
	for {
		jt := ""
		switch {
		case p.atKeyword("JOIN"):
			p.next()
			jt = "INNER"
		case p.atKeyword("INNER"):
			p.next()
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = "INNER"
		case p.atKeyword("LEFT"):
			p.next()
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = "LEFT"
		default:
			return left, nil
		}
		right, err := p.parseTableFactor()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		left = &ast.Join{Type: jt, Left: left, Right: right, On: on}
	}
}

func (p *Parser) parseTableFactor() (ast.TableRef, error) {
	if p.at(token.LParen) {
		p.next()
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen, "')'"); err != nil {
			return nil, err
		}
		p.acceptKeyword("AS")
		alias, err := p.identLike("subquery alias")
		if err != nil {
			return nil, err
		}
		return &ast.SubqueryTable{Select: sel, Alias: alias}, nil
	}
	name, err := p.identLike("table name")
	if err != nil {
		return nil, err
	}
	t := &ast.BaseTable{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.identLike("table alias")
		if err != nil {
			return nil, err
		}
		t.Alias = alias
	} else if p.at(token.Ident) || p.at(token.QuotedIdent) {
		t.Alias = p.next().Text
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// expressions (Pratt)

func (p *Parser) parseExpr() (ast.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.parseOr()
}

func (p *Parser) parseOr() (ast.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (ast.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("AND") {
		p.next()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (ast.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.atKeyword("NOT") && !p.isNotExists() {
		p.next()
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: "NOT", Expr: inner}, nil
	}
	return p.parsePredicate()
}

// isNotExists reports whether the upcoming tokens are NOT EXISTS — handled
// in parsePredicate via the EXISTS path so keep NOT out of Unary there.
func (p *Parser) isNotExists() bool {
	return p.atKeyword("NOT") && p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].Type == token.Keyword && p.toks[p.pos+1].Text == "EXISTS"
}

// parsePredicate parses comparison-level expressions including IS NULL,
// BETWEEN, LIKE, IN and EXISTS.
func (p *Parser) parsePredicate() (ast.Expr, error) {
	if p.isNotExists() {
		p.next() // NOT
		return p.parseExists(true)
	}
	if p.atKeyword("EXISTS") {
		return p.parseExists(false)
	}
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(token.Eq), p.at(token.Neq), p.at(token.Lt), p.at(token.Le), p.at(token.Gt), p.at(token.Ge):
			opTok := p.next()
			op := opTok.Text
			if op == "!=" {
				op = "<>"
			}
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &ast.Binary{Op: op, Left: left, Right: right}
		case p.atKeyword("IS"):
			p.next()
			not := p.acceptKeyword("NOT")
			if !p.acceptKeyword("NULL") {
				return nil, p.errorf("expected NULL after IS, got %s", p.peek())
			}
			left = &ast.IsNull{Expr: left, Not: not}
		case p.atKeyword("BETWEEN"):
			p.next()
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &ast.Between{Expr: left, Lo: lo, Hi: hi}
		case p.atKeyword("LIKE"):
			p.next()
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &ast.Like{Expr: left, Pattern: pat}
		case p.atKeyword("IN"):
			p.next()
			in, err := p.parseInTail(left, false)
			if err != nil {
				return nil, err
			}
			left = in
		case p.atKeyword("NOT"):
			// NOT BETWEEN / NOT LIKE / NOT IN
			save := p.pos
			p.next()
			switch {
			case p.acceptKeyword("BETWEEN"):
				lo, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				if err := p.expectKeyword("AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &ast.Between{Expr: left, Lo: lo, Hi: hi, Not: true}
			case p.acceptKeyword("LIKE"):
				pat, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &ast.Like{Expr: left, Pattern: pat, Not: true}
			case p.acceptKeyword("IN"):
				in, err := p.parseInTail(left, true)
				if err != nil {
					return nil, err
				}
				left = in
			default:
				p.pos = save
				return left, nil
			}
		default:
			return left, nil
		}
	}
}

func (p *Parser) parseExists(not bool) (ast.Expr, error) {
	p.next() // EXISTS
	if _, err := p.expect(token.LParen, "'('"); err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen, "')'"); err != nil {
		return nil, err
	}
	return &ast.Exists{Select: sel, Not: not}, nil
}

func (p *Parser) parseInTail(left ast.Expr, not bool) (ast.Expr, error) {
	if _, err := p.expect(token.LParen, "'('"); err != nil {
		return nil, err
	}
	if p.atKeyword("SELECT") || p.atKeyword("WITH") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen, "')'"); err != nil {
			return nil, err
		}
		return &ast.InSubquery{Expr: left, Select: sel, Not: not}, nil
	}
	var items []ast.Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.RParen, "')'"); err != nil {
		return nil, err
	}
	return &ast.InList{Expr: left, Items: items, Not: not}, nil
}

func (p *Parser) parseAdditive() (ast.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.at(token.Plus):
			op = "+"
		case p.at(token.Minus):
			op = "-"
		case p.at(token.Concat):
			op = "||"
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseMultiplicative() (ast.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.at(token.Star):
			op = "*"
		case p.at(token.Slash):
			op = "/"
		case p.at(token.Percent):
			op = "%"
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseUnary() (ast.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.accept(token.Minus) {
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := inner.(*ast.Literal); ok {
			switch lit.Value.Kind() {
			case types.KindInt:
				return &ast.Literal{Value: types.NewInt(-lit.Value.Int())}, nil
			case types.KindFloat:
				return &ast.Literal{Value: types.NewFloat(-lit.Value.Float())}, nil
			}
		}
		return &ast.Unary{Op: "-", Expr: inner}, nil
	}
	p.accept(token.Plus)
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (ast.Expr, error) {
	t := p.peek()
	switch t.Type {
	case token.Number:
		p.next()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.Text)
			}
			return &ast.Literal{Value: types.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.Text, 64)
			if ferr != nil {
				return nil, p.errorf("bad number %q", t.Text)
			}
			return &ast.Literal{Value: types.NewFloat(f)}, nil
		}
		return &ast.Literal{Value: types.NewInt(i)}, nil
	case token.String:
		p.next()
		return &ast.Literal{Value: types.NewText(t.Text)}, nil
	case token.Param:
		p.next()
		e := &ast.Param{Index: p.params}
		p.params++
		return e, nil
	case token.LParen:
		p.next()
		if p.atKeyword("SELECT") || p.atKeyword("WITH") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RParen, "')'"); err != nil {
				return nil, err
			}
			return &ast.ScalarSubquery{Select: sel}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case token.Keyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &ast.Literal{Value: types.Null}, nil
		case "TRUE":
			p.next()
			return &ast.Literal{Value: types.NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &ast.Literal{Value: types.NewBool(false)}, nil
		case "CAST":
			return p.parseCast()
		case "CASE":
			return p.parseCase()
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			return p.parseAggregate()
		case "EXISTS", "NOT":
			// Route through parseNot so the NOT token is always consumed:
			// parsePredicate only strips NOT in the NOT EXISTS form, and
			// entering it with an unconsumed NOT recursed forever (the
			// seed parser overflowed the stack on e.g. "SELECT 1 + NOT 2").
			return p.parseNot()
		case "LEFT": // LEFT is reserved (joins) but also a common column name in the paper's schema.
			p.next()
			return p.maybeQualified("left")
		}
		return nil, p.errorf("unexpected %s in expression", t)
	case token.Ident, token.QuotedIdent:
		p.next()
		// Function call?
		if p.at(token.LParen) {
			p.next()
			var args []ast.Expr
			if !p.at(token.RParen) {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, e)
					if !p.accept(token.Comma) {
						break
					}
				}
			}
			if _, err := p.expect(token.RParen, "')'"); err != nil {
				return nil, err
			}
			return &ast.FuncCall{Name: strings.ToLower(t.Text), Args: args}, nil
		}
		return p.maybeQualified(t.Text)
	}
	return nil, p.errorf("unexpected %s in expression", t)
}

// maybeQualified handles ident[.ident] column references. "left"/"right"
// are keywords in the grammar but valid column names in the paper's
// schema, so they are accepted after a dot and as bare refs via callers.
func (p *Parser) maybeQualified(first string) (ast.Expr, error) {
	if !p.at(token.Dot) {
		return &ast.ColumnRef{Column: first}, nil
	}
	p.next()
	t := p.peek()
	switch {
	case t.Type == token.Ident || t.Type == token.QuotedIdent:
		p.next()
		return &ast.ColumnRef{Table: first, Column: t.Text}, nil
	case t.Type == token.Keyword && (t.Text == "LEFT" || t.Text == "DEFAULT" || t.Text == "KEY" || t.Text == "ALL"):
		// Allow a few keywords as column names when qualified.
		p.next()
		return &ast.ColumnRef{Table: first, Column: lowerKeyword(t.Text)}, nil
	}
	return nil, p.errorf("expected column name after '.', got %s", t)
}

func (p *Parser) parseCast() (ast.Expr, error) {
	p.next() // CAST
	if _, err := p.expect(token.LParen, "'('"); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	tname, err := p.identLike("type name")
	if err != nil {
		return nil, err
	}
	size := 0
	if p.accept(token.LParen) {
		t, err := p.expect(token.Number, "type length")
		if err != nil {
			return nil, err
		}
		size, _ = strconv.Atoi(t.Text)
		if _, err := p.expect(token.RParen, "')'"); err != nil {
			return nil, err
		}
	}
	ct, err := types.ParseColumnType(tname, size)
	if err != nil {
		return nil, p.errorf("%v", err)
	}
	if _, err := p.expect(token.RParen, "')'"); err != nil {
		return nil, err
	}
	return &ast.Cast{Expr: e, Type: ct}, nil
}

func (p *Parser) parseCase() (ast.Expr, error) {
	p.next() // CASE
	c := &ast.Case{}
	if !p.atKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, ast.When{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if !p.acceptKeyword("END") {
		return nil, p.errorf("expected END to close CASE, got %s", p.peek())
	}
	return c, nil
}

func (p *Parser) parseAggregate() (ast.Expr, error) {
	t := p.next() // COUNT/SUM/AVG/MIN/MAX
	if _, err := p.expect(token.LParen, "'('"); err != nil {
		return nil, err
	}
	agg := &ast.Aggregate{Func: t.Text}
	if p.at(token.Star) {
		if t.Text != "COUNT" {
			return nil, p.errorf("%s(*) is not valid", t.Text)
		}
		p.next()
		agg.Star = true
	} else {
		if p.acceptKeyword("DISTINCT") {
			agg.Distinct = true
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		agg.Arg = e
	}
	if _, err := p.expect(token.RParen, "')'"); err != nil {
		return nil, err
	}
	return agg, nil
}
