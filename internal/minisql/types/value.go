// Package types defines the value model of the minisql engine: the
// dynamically typed Value, SQL's three-valued logic, comparisons, casts
// and arithmetic. All engine layers (storage, executor, wire protocol)
// share this representation.
package types

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported runtime kinds. KindNull is the zero value so that an
// uninitialized Value is SQL NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a single SQL value. The zero Value is NULL. It is 32 bytes:
// TEXT keeps its string in s, and the other kinds keep one word in n,
// whose meaning depends on kind — an INTEGER's two's complement, a
// FLOAT's IEEE 754 bits, a BOOLEAN's 0 or 1. Only the constructors and
// the accessors read or write n. So == and reflect.DeepEqual compare
// FLOAT values by their bits (-0.0 differs from 0.0, NaN equals the
// same NaN); == on their Keys, and Compare, compare them as numbers.
type Value struct {
	s    string
	n    uint64
	kind Kind
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an INTEGER value.
func NewInt(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// NewText returns a TEXT value.
func NewText(v string) Value { return Value{kind: KindText, s: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	if v {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the int64 payload of an INTEGER, and 0 for any other kind.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.n)
}

// Float returns the float64 payload of a FLOAT, and 0 for any other kind.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		return 0
	}
	return math.Float64frombits(v.n)
}

// Text returns the string payload of a TEXT, and "" for any other kind.
func (v Value) Text() string { return v.s }

// Bool returns the payload of a BOOLEAN, and false for any other kind.
func (v Value) Bool() bool { return v.kind == KindBool && v.n != 0 }

// AsFloat converts a numeric value to float64. It reports false for
// non-numeric values.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.Int()), true
	case KindFloat:
		return v.Float(), true
	}
	return 0, false
}

// String renders the value the way the shell and tests display it.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindText:
		return v.s
	case KindBool:
		if v.Bool() {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// SQLLiteral renders the value as a literal that the parser would accept.
func (v Value) SQLLiteral() string {
	switch v.kind {
	case KindText:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	default:
		return v.String()
	}
}

// Tristate is SQL's three-valued logic value.
type Tristate uint8

// The three logic states.
const (
	False Tristate = iota
	True
	Unknown
)

func (t Tristate) String() string {
	switch t {
	case False:
		return "FALSE"
	case True:
		return "TRUE"
	default:
		return "UNKNOWN"
	}
}

// And returns SQL AND over three-valued logic.
func (t Tristate) And(o Tristate) Tristate {
	if t == False || o == False {
		return False
	}
	if t == True && o == True {
		return True
	}
	return Unknown
}

// Or returns SQL OR over three-valued logic.
func (t Tristate) Or(o Tristate) Tristate {
	if t == True || o == True {
		return True
	}
	if t == False && o == False {
		return False
	}
	return Unknown
}

// Not returns SQL NOT over three-valued logic.
func (t Tristate) Not() Tristate {
	switch t {
	case True:
		return False
	case False:
		return True
	}
	return Unknown
}

// TristateOf lifts a bool into Tristate.
func TristateOf(b bool) Tristate {
	if b {
		return True
	}
	return False
}

// Compare compares two non-NULL values, returning -1, 0 or +1. Numbers
// compare exactly across int/float, so an integer beyond ±2^53 is not
// equal to the float64 it rounds to, and a NaN equals every NaN and is
// less than every other number (as cmp.Compare orders floats); text
// compares lexicographically; bool orders FALSE < TRUE. Comparing
// incompatible kinds returns an error. If either side is NULL the caller
// must handle it (SQL: Unknown).
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		return 0, fmt.Errorf("types: cannot compare NULL")
	}
	if a.kind == KindInt && b.kind == KindInt {
		return cmp.Compare(a.Int(), b.Int()), nil
	}
	if af, ok := a.AsFloat(); ok {
		if bf, ok2 := b.AsFloat(); ok2 {
			if c := cmp.Compare(af, bf); c != 0 {
				return c, nil
			}
			return cmp.Compare(roundoff(a), roundoff(b)), nil // one image: an integer's rounding decides
		}
	}
	if a.kind == KindText && b.kind == KindText {
		return strings.Compare(a.s, b.s), nil
	}
	if a.kind == KindBool && b.kind == KindBool {
		switch {
		case a.Bool() == b.Bool():
			return 0, nil
		case b.Bool():
			return -1, nil
		}
		return 1, nil
	}
	return 0, fmt.Errorf("types: cannot compare %s with %s", a.kind, b.kind)
}

// Comparable reports whether Compare accepts non-NULL values of the two
// kinds together: the numeric kinds with each other, every other kind
// only with itself. A hash of value keys (an index, a join's hash table)
// answers an equality exactly only between comparable kinds; between the
// others the comparison is an error, which no key lookup can raise.
func Comparable(a, b Kind) bool {
	numeric := func(k Kind) bool { return k == KindInt || k == KindFloat }
	return a != KindNull && (a == b || (numeric(a) && numeric(b)))
}

// CompareForSort orders values for ORDER BY and index keys: NULL sorts
// first, then bools, ints/floats numerically, then text. Unlike Compare
// it never fails; incompatible kinds order by kind rank.
func CompareForSort(a, b Value) int {
	ra, rb := sortRank(a), sortRank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	if a.IsNull() {
		return 0
	}
	c, err := Compare(a, b)
	if err != nil {
		return 0
	}
	return c
}

func sortRank(v Value) int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindText:
		return 3
	}
	return 4
}

// roundoff reports where an INTEGER lies against its float64 image: -1
// below it, +1 above it, 0 on it. A FLOAT is on its own image.
func roundoff(v Value) int {
	if v.kind != KindInt {
		return 0
	}
	f := float64(v.Int())
	if f == 1<<63 { // above every int64
		return -1
	}
	return cmp.Compare(v.Int(), int64(f))
}

// Key returns the value that stands for v in every hash — index buckets,
// hash joins, IN sets, DISTINCT, UNION and GROUP BY: two values are one
// key exactly when their keys are ==. A FLOAT that is an int64 keys as
// that INTEGER (3.0 as 3, -0.0 as 0) and every NaN as one NaN; any other
// value is its own key, so an INTEGER whose float64 image rounds equals
// no FLOAT. Only the constructors set a Value's fields, so == on keys
// compares nothing else.
func (v Value) Key() Value {
	if v.kind != KindFloat {
		return v
	}
	switch f := v.Float(); {
	case f != f:
		return NewFloat(math.NaN())
	case f == math.Trunc(f) && -(1<<63) <= f && f < 1<<63:
		return NewInt(int64(f))
	}
	return v
}

// SameKey reports whether a and b are one key: numbers by their exact
// value (every NaN is one, as in Compare), everything else by kind and
// payload. It is how a hash bucket's candidates are verified.
func SameKey(a, b Value) bool { return a.Key() == b.Key() }

// Truth interprets a value as a WHERE-clause condition result.
func Truth(v Value) Tristate {
	switch v.kind {
	case KindNull:
		return Unknown
	case KindBool:
		return TristateOf(v.Bool())
	case KindInt:
		return TristateOf(v.Int() != 0)
	case KindFloat:
		return TristateOf(v.Float() != 0)
	}
	return Unknown
}

// ColumnType is a declared column type from DDL.
type ColumnType struct {
	Kind Kind
	// Size is the declared length for VARCHAR(n)/CHAR(n); 0 if absent.
	Size int
}

func (t ColumnType) String() string {
	if t.Kind == KindText && t.Size > 0 {
		return fmt.Sprintf("VARCHAR(%d)", t.Size)
	}
	return t.Kind.String()
}

// ParseColumnType resolves a type name from DDL or CAST.
func ParseColumnType(name string, size int) (ColumnType, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return ColumnType{Kind: KindInt}, nil
	case "FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC":
		return ColumnType{Kind: KindFloat}, nil
	case "TEXT", "VARCHAR", "CHAR", "CHARACTER", "STRING", "CLOB":
		return ColumnType{Kind: KindText, Size: size}, nil
	case "BOOL", "BOOLEAN":
		return ColumnType{Kind: KindBool}, nil
	}
	return ColumnType{}, fmt.Errorf("types: unknown type %q", name)
}

// Coerce converts v to the column type t following SQL assignment rules:
// NULL passes through, ints widen to float, floats truncate toward zero
// to int (NaN, ±Inf and floats beyond int64's range are an error),
// anything casts to text, text parses to numerics/bools.
func Coerce(v Value, t ColumnType) (Value, error) {
	if v.IsNull() {
		return Null, nil
	}
	switch t.Kind {
	case KindInt:
		switch v.kind {
		case KindInt:
			return v, nil
		case KindFloat:
			if f := v.Float(); -(1<<63) <= f && f < 1<<63 {
				return NewInt(int64(f)), nil
			}
			return Null, fmt.Errorf("types: cannot cast %s to INTEGER", v)
		case KindText:
			i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err != nil {
				return Null, fmt.Errorf("types: cannot cast %q to INTEGER", v.s)
			}
			return NewInt(i), nil
		case KindBool:
			if v.Bool() {
				return NewInt(1), nil
			}
			return NewInt(0), nil
		}
	case KindFloat:
		switch v.kind {
		case KindFloat:
			return v, nil
		case KindInt:
			return NewFloat(float64(v.Int())), nil
		case KindText:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if err != nil {
				return Null, fmt.Errorf("types: cannot cast %q to FLOAT", v.s)
			}
			return NewFloat(f), nil
		}
	case KindText:
		s := v.String()
		if t.Size > 0 && len(s) > t.Size {
			s = s[:t.Size]
		}
		return NewText(s), nil
	case KindBool:
		switch v.kind {
		case KindBool:
			return v, nil
		case KindInt:
			return NewBool(v.Int() != 0), nil
		case KindText:
			switch strings.ToUpper(strings.TrimSpace(v.s)) {
			case "TRUE", "T", "1":
				return NewBool(true), nil
			case "FALSE", "F", "0":
				return NewBool(false), nil
			}
			return Null, fmt.Errorf("types: cannot cast %q to BOOLEAN", v.s)
		}
	}
	return Null, fmt.Errorf("types: cannot coerce %s to %s", v.kind, t)
}

// Arith applies a binary arithmetic operator. NULL operands yield NULL.
// The operator is one of "+", "-", "*", "/", "%" and "||" (concat).
func Arith(op string, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if op == "||" {
		return NewText(a.String() + b.String()), nil
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if !aok || !bok {
		return Null, fmt.Errorf("types: %s requires numeric operands, got %s and %s", op, a.kind, b.kind)
	}
	bothInt := a.kind == KindInt && b.kind == KindInt
	switch op {
	case "+":
		if bothInt {
			return NewInt(a.Int() + b.Int()), nil
		}
		return NewFloat(af + bf), nil
	case "-":
		if bothInt {
			return NewInt(a.Int() - b.Int()), nil
		}
		return NewFloat(af - bf), nil
	case "*":
		if bothInt {
			return NewInt(a.Int() * b.Int()), nil
		}
		return NewFloat(af * bf), nil
	case "/":
		if bothInt {
			if b.Int() == 0 {
				return Null, fmt.Errorf("types: division by zero")
			}
			return NewInt(a.Int() / b.Int()), nil
		}
		if bf == 0 {
			return Null, fmt.Errorf("types: division by zero")
		}
		return NewFloat(af / bf), nil
	case "%":
		if !bothInt {
			return Null, fmt.Errorf("types: %% requires integer operands")
		}
		if b.Int() == 0 {
			return Null, fmt.Errorf("types: division by zero")
		}
		return NewInt(a.Int() % b.Int()), nil
	}
	return Null, fmt.Errorf("types: unknown operator %q", op)
}

// CompareOp applies an SQL comparison operator under three-valued logic.
// op is one of "=", "<>", "<", "<=", ">", ">=".
func CompareOp(op string, a, b Value) (Tristate, error) {
	if a.IsNull() || b.IsNull() {
		return Unknown, nil
	}
	c, err := Compare(a, b)
	if err != nil {
		return Unknown, err
	}
	switch op {
	case "=":
		return TristateOf(c == 0), nil
	case "<>", "!=":
		return TristateOf(c != 0), nil
	case "<":
		return TristateOf(c < 0), nil
	case "<=":
		return TristateOf(c <= 0), nil
	case ">":
		return TristateOf(c > 0), nil
	case ">=":
		return TristateOf(c >= 0), nil
	}
	return Unknown, fmt.Errorf("types: unknown comparison %q", op)
}
