package minisql

import (
	"fmt"
	"math"
	"strings"

	"pdmtune/internal/minisql/types"
)

// BuiltinFuncs returns a fresh map of the built-in scalar functions, for
// callers that evaluate SQL expressions outside a database session (the
// PDM client's local, late rule evaluation).
func BuiltinFuncs() map[string]ScalarFunc {
	db := &DB{funcs: map[string]ScalarFunc{}}
	registerBuiltins(db)
	return db.funcs
}

// registerBuiltins installs the built-in scalar function library. PDM
// deployments add their own stored functions on top (e.g. the structure
// option overlap test of paper Section 3.1, example 3).
func registerBuiltins(db *DB) {
	db.funcs["abs"] = func(args []Value) (Value, error) {
		if err := arity("abs", args, 1); err != nil {
			return types.Null, err
		}
		v := args[0]
		if v.IsNull() {
			return types.Null, nil
		}
		switch v.Kind() {
		case types.KindInt:
			if v.Int() < 0 {
				return types.NewInt(-v.Int()), nil
			}
			return v, nil
		case types.KindFloat:
			return types.NewFloat(math.Abs(v.Float())), nil
		}
		return types.Null, fmt.Errorf("sql: abs requires a numeric argument")
	}
	db.funcs["lower"] = stringFunc("lower", strings.ToLower)
	db.funcs["upper"] = stringFunc("upper", strings.ToUpper)
	db.funcs["trim"] = stringFunc("trim", strings.TrimSpace)
	db.funcs["length"] = func(args []Value) (Value, error) {
		if err := arity("length", args, 1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewInt(int64(len(args[0].String()))), nil
	}
	db.funcs["substr"] = func(args []Value) (Value, error) {
		if len(args) != 2 && len(args) != 3 {
			return types.Null, fmt.Errorf("sql: substr takes 2 or 3 arguments, got %d", len(args))
		}
		if args[0].IsNull() || args[1].IsNull() {
			return types.Null, nil
		}
		s := args[0].String()
		start := int(args[1].Int()) - 1 // SQL substr is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return types.NewText(""), nil
		}
		end := len(s)
		if len(args) == 3 {
			if args[2].IsNull() {
				return types.Null, nil
			}
			n := int(args[2].Int())
			if n < 0 {
				n = 0
			}
			if start+n < end {
				end = start + n
			}
		}
		return types.NewText(s[start:end]), nil
	}
	db.funcs["coalesce"] = func(args []Value) (Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return types.Null, nil
	}
	db.funcs["nullif"] = func(args []Value) (Value, error) {
		if err := arity("nullif", args, 2); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return args[0], nil
		}
		t, err := types.CompareOp("=", args[0], args[1])
		if err != nil {
			return args[0], nil
		}
		if t == types.True {
			return types.Null, nil
		}
		return args[0], nil
	}
	// ranges_overlap(a_from, a_to, b_from, b_to) implements the interval
	// overlap predicate the paper uses for effectivities ("objects are
	// included ... only if the associated effectivity overlaps the
	// effectivity selected by the user"). Inclusive bounds.
	db.funcs["ranges_overlap"] = func(args []Value) (Value, error) {
		if err := arity("ranges_overlap", args, 4); err != nil {
			return types.Null, err
		}
		for _, a := range args {
			if a.IsNull() {
				return types.Null, nil
			}
		}
		le1, err := types.CompareOp("<=", args[0], args[3])
		if err != nil {
			return types.Null, err
		}
		le2, err := types.CompareOp("<=", args[2], args[1])
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(le1 == types.True && le2 == types.True), nil
	}
	// sets_overlap(a, b) treats its TEXT arguments as comma-separated
	// element sets and tests for a non-empty intersection — the stored
	// function behind "relation.strc_opt overlaps user_strc_opt" (paper
	// Section 3.1, example 3). An empty set on the relation side means
	// "no structure option required" and overlaps everything.
	db.funcs["sets_overlap"] = func(args []Value) (Value, error) {
		if err := arity("sets_overlap", args, 2); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return types.Null, nil
		}
		return types.NewBool(setsOverlap(args[0].String(), args[1].String())), nil
	}
}

// setsOverlap reports whether the comma lists a and b share an element,
// or a has none. Elements are trimmed of spaces and blank ones ignored.
// It runs once per row of a rule-filtered statement, so it walks both
// lists where they lie instead of building sets: the lists are a
// handful of options long.
func setsOverlap(a, b string) bool {
	empty := true
	for a != "" {
		var x string
		x, a, _ = strings.Cut(a, ",")
		if x = strings.TrimSpace(x); x == "" {
			continue
		}
		empty = false
		for rest := b; rest != ""; {
			var y string
			y, rest, _ = strings.Cut(rest, ",")
			if strings.TrimSpace(y) == x {
				return true
			}
		}
	}
	return empty
}

func stringFunc(name string, fn func(string) string) ScalarFunc {
	return func(args []Value) (Value, error) {
		if err := arity(name, args, 1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewText(fn(args[0].String())), nil
	}
}

func arity(name string, args []Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("sql: %s takes %d argument(s), got %d", name, n, len(args))
	}
	return nil
}
