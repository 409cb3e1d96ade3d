package types

import (
	"hash/maphash"
	"math"
	"math/big"
	"strconv"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Error("zero Value must be NULL")
	}
	if v := NewInt(42); v.Int() != 42 || v.Kind() != KindInt {
		t.Error("NewInt roundtrip failed")
	}
	if v := NewFloat(2.5); v.Float() != 2.5 || v.Kind() != KindFloat {
		t.Error("NewFloat roundtrip failed")
	}
	if v := NewText("x"); v.Text() != "x" || v.Kind() != KindText {
		t.Error("NewText roundtrip failed")
	}
	if v := NewBool(true); !v.Bool() || v.Kind() != KindBool {
		t.Error("NewBool roundtrip failed")
	}
}

// Every stored, joined, projected and decoded row is an array of values,
// so a field added to Value grows all of them.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Errorf("a Value is %d bytes, want 32", n)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewText("ab"), "ab"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
}

func TestSQLLiteralEscaping(t *testing.T) {
	v := NewText("it's")
	if got := v.SQLLiteral(); got != "'it''s'" {
		t.Errorf("SQLLiteral = %q, want 'it''s'", got)
	}
	if got := NewInt(5).SQLLiteral(); got != "5" {
		t.Errorf("int literal = %q", got)
	}
}

func TestTristateTables(t *testing.T) {
	// Kleene logic truth tables.
	and := [3][3]Tristate{
		{False, False, False},
		{False, True, Unknown},
		{False, Unknown, Unknown},
	}
	or := [3][3]Tristate{
		{False, True, Unknown},
		{True, True, True},
		{Unknown, True, Unknown},
	}
	states := []Tristate{False, True, Unknown}
	for i, a := range states {
		for j, b := range states {
			if got := a.And(b); got != and[i][j] {
				t.Errorf("%v AND %v = %v, want %v", a, b, got, and[i][j])
			}
			if got := a.Or(b); got != or[i][j] {
				t.Errorf("%v OR %v = %v, want %v", a, b, got, or[i][j])
			}
		}
	}
	if True.Not() != False || False.Not() != True || Unknown.Not() != Unknown {
		t.Error("NOT table wrong")
	}
}

// Property: De Morgan holds in three-valued logic.
func TestDeMorganProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		x, y := Tristate(a%3), Tristate(b%3)
		return x.And(y).Not() == x.Not().Or(y.Not()) &&
			x.Or(y).Not() == x.Not().And(y.Not())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	c, err := Compare(NewInt(2), NewFloat(2.0))
	if err != nil || c != 0 {
		t.Errorf("2 = 2.0 failed: c=%d err=%v", c, err)
	}
	c, err = Compare(NewFloat(1.5), NewInt(2))
	if err != nil || c != -1 {
		t.Errorf("1.5 < 2 failed: c=%d err=%v", c, err)
	}
	if _, err := Compare(NewInt(1), NewText("1")); err == nil {
		t.Error("int vs text must not compare")
	}
	if _, err := Compare(Null, NewInt(1)); err == nil {
		t.Error("NULL must not compare")
	}
}

// Comparable must say exactly when Compare succeeds, and comparable
// values must be equal exactly when their keys are.
func TestComparableMirrorsCompare(t *testing.T) {
	vals := []Value{NewInt(1), NewFloat(1), NewFloat(1.5), NewText("1"), NewText("x"), NewBool(true), NewBool(false),
		NewInt(1 << 53), NewInt(1<<53 + 1), NewFloat(1 << 53), NewInt(math.MaxInt64), NewFloat(1 << 63)}
	for _, a := range vals {
		for _, b := range vals {
			c, err := Compare(a, b)
			if Comparable(a.Kind(), b.Kind()) != (err == nil) {
				t.Errorf("Comparable(%s, %s) = %v, Compare error %v", a.Kind(), b.Kind(), Comparable(a.Kind(), b.Kind()), err)
			}
			if err == nil && (c == 0) != (a.Key() == b.Key()) {
				t.Errorf("%s vs %s: compare %d, keys %#v %#v", a, b, c, a.Key(), b.Key())
			}
		}
		if Comparable(KindNull, a.Kind()) || Comparable(a.Kind(), KindNull) {
			t.Errorf("NULL must not be comparable with %s", a.Kind())
		}
	}
}

// Property: Compare is antisymmetric and total for same-kind non-null ints.
func TestCompareAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		x, err1 := Compare(NewInt(a), NewInt(b))
		y, err2 := Compare(NewInt(b), NewInt(a))
		return err1 == nil && err2 == nil && x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CompareForSort is a consistent total order (antisymmetry over
// mixed kinds, NULL first).
func TestCompareForSortProperties(t *testing.T) {
	gen := func(tag uint8, i int64, s string) Value {
		switch tag % 4 {
		case 0:
			return Null
		case 1:
			return NewInt(i)
		case 2:
			return NewText(s)
		default:
			return NewBool(i%2 == 0)
		}
	}
	f := func(t1, t2 uint8, i1, i2 int64, s1, s2 string) bool {
		a, b := gen(t1, i1, s1), gen(t2, i2, s2)
		return CompareForSort(a, b) == -CompareForSort(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if CompareForSort(Null, NewInt(math.MinInt64)) != -1 {
		t.Error("NULL must sort before any value")
	}
}

var hashSeed = maphash.MakeSeed()

func hashOf(v Value) uint64 { return maphash.Comparable(hashSeed, v.Key()) }

// Property: an integer shares its key with its float64 image exactly when
// that image converts back to it, and SameKey and the keys' hashes agree.
// A FLOAT that is an int64 keys as that INTEGER, any other value as
// itself; -0.0 keys as 0, text "1" is not INTEGER 1, NULL is not "", and
// hashing a key allocates nothing.
func TestKeyConsistentWithEquality(t *testing.T) {
	exact := func(a int64) bool {
		i, acc := new(big.Float).SetFloat64(float64(a)).Int64()
		return acc == big.Exact && i == a
	}
	f := func(a int64) bool {
		shared := NewInt(a).Key() == NewFloat(float64(a)).Key()
		return shared == exact(a) && SameKey(NewInt(a), NewFloat(float64(a))) == shared &&
			(hashOf(NewInt(a)) == hashOf(NewFloat(float64(a)))) == shared
	}
	within := func(a int64) bool {
		a %= 1<<53 + 1
		return NewInt(a).Key() == NewFloat(float64(a)).Key()
	}
	for _, p := range []func(int64) bool{f, within} {
		if err := quick.Check(p, nil); err != nil {
			t.Error(err)
		}
	}
	for _, a := range []int64{0, 7, -7, 100000, 999999, -999999, 1000000, -1000000, 1000001, 1234567, 1 << 53, -(1 << 53), 1<<53 + 1, -(1<<53 + 1), 1 << 60, math.MaxInt64, math.MinInt64, math.MinInt64 + 1} {
		if !f(a) {
			t.Errorf("int %d: key %#v, as float %#v", a, NewInt(a).Key(), NewFloat(float64(a)).Key())
		}
	}
	for v, want := range map[Value]Value{
		NewFloat(3): NewInt(3), NewFloat(-(1 << 63)): NewInt(math.MinInt64), NewFloat(1 << 63): NewFloat(1 << 63),
		NewFloat(2.5): NewFloat(2.5), NewInt(97656): NewInt(97656), NewText("x"): NewText("x"),
		NewBool(true): NewBool(true), Null: Null,
	} {
		if got := v.Key(); got != want {
			t.Errorf("key of %s = %#v, want %#v", v, got, want)
		}
	}
	negZero := NewFloat(math.Copysign(0, -1))
	if negZero.Key() != NewFloat(0).Key() || negZero.Key() != NewInt(0) {
		t.Errorf("-0.0 keys as %#v, 0.0 as %#v: they are equal, so their keys must be", negZero.Key(), NewFloat(0).Key())
	}
	if NewText("1").Key() == NewInt(1).Key() || SameKey(NewText("1"), NewInt(1)) {
		t.Error("text and int keys must differ")
	}
	if Null.Key() == NewText("").Key() || SameKey(Null, NewText("")) {
		t.Error("NULL and empty string keys must differ")
	}
	var h maphash.Hash
	text := NewText(strconv.Itoa(97656))
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range []Value{NewInt(97656), text, NewFloat(2.5), NewFloat(3), NewFloat(math.NaN())} {
			maphash.WriteComparable(&h, v.Key())
		}
	}); n != 0 {
		t.Errorf("hashing keys allocates %v times", n)
	}
}

// Two integers compare and key exactly, also where their float64 images
// are equal, and an integer and a float compare exactly too.
func TestIntegersCompareExactly(t *testing.T) {
	for _, p := range [][2]int64{{1 << 53, 1<<53 + 1}, {-(1<<53 + 1), -(1 << 53)}, {1 << 60, 1<<60 + 1}, {math.MaxInt64 - 1, math.MaxInt64}, {math.MinInt64, math.MinInt64 + 1}} {
		a, b := NewInt(p[0]), NewInt(p[1])
		if c, err := Compare(a, b); err != nil || c != -1 {
			t.Errorf("Compare(%s, %s) = %d, %v; want -1", a, b, c, err)
		}
		if c, err := Compare(b, a); err != nil || c != 1 {
			t.Errorf("Compare(%s, %s) = %d, %v; want 1", b, a, c, err)
		}
		if CompareForSort(a, b) != -1 || SameKey(a, b) || a.Key() == b.Key() {
			t.Errorf("%s and %s: sort %d, SameKey %v, keys %#v %#v", a, b, CompareForSort(a, b), SameKey(a, b), a.Key(), b.Key())
		}
		for _, v := range []Value{a, b} {
			if v.Key() != v {
				t.Errorf("key of %s = %#v; an INTEGER is its own key", v, v.Key())
			}
		}
	}
	// Each integer against the float64 it rounds to.
	for i, want := range map[int64]int{1 << 53: 0, 1<<53 + 1: 1, -(1<<53 + 1): -1, 1<<60 + 1: 1, math.MaxInt64: -1, math.MinInt64: 0, math.MinInt64 + 1: 1} {
		iv, fv := NewInt(i), NewFloat(float64(i))
		c, err := Compare(iv, fv)
		r, _ := Compare(fv, iv)
		if err != nil || c != want || r != -want || SameKey(iv, fv) != (want == 0) || (iv.Key() == fv.Key()) != (want == 0) {
			t.Errorf("%s vs FLOAT %s: Compare %d / %d, SameKey %v, keys %#v %#v; want %d", iv, fv, c, r, SameKey(iv, fv), iv.Key(), fv.Key(), want)
		}
	}
}

func TestTruth(t *testing.T) {
	cases := []struct {
		v    Value
		want Tristate
	}{
		{Null, Unknown},
		{NewBool(true), True},
		{NewBool(false), False},
		{NewInt(0), False},
		{NewInt(3), True},
		{NewFloat(0), False},
		{NewFloat(0.1), True},
		{NewText("x"), Unknown},
	}
	for _, c := range cases {
		if got := Truth(c.v); got != c.want {
			t.Errorf("Truth(%s) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestParseColumnType(t *testing.T) {
	for name, kind := range map[string]Kind{
		"INTEGER": KindInt, "int": KindInt, "BIGINT": KindInt,
		"FLOAT": KindFloat, "real": KindFloat, "DECIMAL": KindFloat,
		"TEXT": KindText, "VARCHAR": KindText, "clob": KindText,
		"BOOLEAN": KindBool, "bool": KindBool,
	} {
		ct, err := ParseColumnType(name, 0)
		if err != nil || ct.Kind != kind {
			t.Errorf("ParseColumnType(%q) = %v, %v; want kind %v", name, ct, err, kind)
		}
	}
	if _, err := ParseColumnType("BLOB", 0); err == nil {
		t.Error("unknown type must fail")
	}
}

func TestCoerce(t *testing.T) {
	intT := ColumnType{Kind: KindInt}
	textT := ColumnType{Kind: KindText}
	boolT := ColumnType{Kind: KindBool}
	floatT := ColumnType{Kind: KindFloat}

	if v, err := Coerce(NewText(" 42 "), intT); err != nil || v.Int() != 42 {
		t.Errorf("text->int: %v %v", v, err)
	}
	if _, err := Coerce(NewText("x"), intT); err == nil {
		t.Error("bad text->int must fail")
	}
	if v, err := Coerce(NewInt(1), boolT); err != nil || !v.Bool() {
		t.Errorf("int->bool: %v %v", v, err)
	}
	if v, err := Coerce(NewInt(7), floatT); err != nil || v.Float() != 7 {
		t.Errorf("int->float: %v %v", v, err)
	}
	if v, err := Coerce(NewBool(true), textT); err != nil || v.Text() != "TRUE" {
		t.Errorf("bool->text: %v %v", v, err)
	}
	if v, err := Coerce(Null, intT); err != nil || !v.IsNull() {
		t.Errorf("NULL passthrough: %v %v", v, err)
	}
	// FLOAT to INTEGER truncates toward zero; a float no int64 can hold
	// is an error, not MinInt64.
	for f, want := range map[float64]int64{2.9: 2, -2.9: -2, 0.5: 0, -(1 << 63): math.MinInt64, 1<<63 - 1024: 1<<63 - 1024} {
		if v, err := Coerce(NewFloat(f), intT); err != nil || v.Int() != want {
			t.Errorf("float %g -> int: %v %v, want %d", f, v, err, want)
		}
	}
	for _, f := range []float64{1e300, -1e300, 1 << 63, math.Nextafter(-(1 << 63), math.Inf(-1)), math.Inf(1), math.Inf(-1), math.NaN()} {
		if v, err := Coerce(NewFloat(f), intT); err == nil || err.Error() != "types: cannot cast "+NewFloat(f).String()+" to INTEGER" {
			t.Errorf("float %g -> int: %v %v, want the cannot-cast error", f, v, err)
		}
	}
	// VARCHAR(n) truncates.
	if v, err := Coerce(NewText("abcdef"), ColumnType{Kind: KindText, Size: 3}); err != nil || v.Text() != "abc" {
		t.Errorf("varchar truncation: %v %v", v, err)
	}
}

func TestArith(t *testing.T) {
	if v, _ := Arith("+", NewInt(2), NewInt(3)); v.Int() != 5 {
		t.Error("2+3")
	}
	if v, _ := Arith("*", NewInt(2), NewFloat(1.5)); v.Float() != 3 {
		t.Error("2*1.5 must be float 3")
	}
	if v, _ := Arith("/", NewInt(7), NewInt(2)); v.Int() != 3 {
		t.Error("integer division 7/2 = 3")
	}
	if _, err := Arith("/", NewInt(1), NewInt(0)); err == nil {
		t.Error("division by zero must fail")
	}
	if v, _ := Arith("%", NewInt(7), NewInt(3)); v.Int() != 1 {
		t.Error("7%3")
	}
	if v, _ := Arith("||", NewText("a"), NewInt(1)); v.Text() != "a1" {
		t.Error("concat coerces to text")
	}
	if v, _ := Arith("+", Null, NewInt(1)); !v.IsNull() {
		t.Error("NULL propagates through arithmetic")
	}
	if _, err := Arith("+", NewText("a"), NewInt(1)); err == nil {
		t.Error("text arithmetic must fail")
	}
}

func TestCompareOpNullIsUnknown(t *testing.T) {
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		tr, err := CompareOp(op, Null, NewInt(1))
		if err != nil || tr != Unknown {
			t.Errorf("NULL %s 1 = %v, %v; want Unknown", op, tr, err)
		}
	}
	tr, err := CompareOp("<=", NewInt(3), NewInt(3))
	if err != nil || tr != True {
		t.Errorf("3 <= 3 = %v, %v", tr, err)
	}
}

// TestValueRoundTrip pins, for each edge of every kind, what the
// constructors and accessors return and what every function over a
// value answers, so that a change of the representation shows up here
// as a changed answer.
func TestValueRoundTrip(t *testing.T) {
	type want struct {
		kind                   Kind
		i                      int64
		fbits                  uint64
		b                      bool
		s                      string
		str                    string
		key                    Value
		truth                  Tristate
		sameKey                bool   // with itself
		cmp, cmpZero           string // Compare with itself, with INTEGER 0
		sort, sortZero         int    // CompareForSort with itself, with INTEGER 0
		toInt, toFloat, toText string // Coerce: kind and String, or "error"
		toBool                 string
	}
	subnormal := math.SmallestNonzeroFloat64
	// twins are the values each case is one key with (SameKey, Key and the
	// key's hash agree), besides itself.
	twins := map[string]Value{
		"MinInt64": NewFloat(math.MinInt64), "int 0": NewFloat(0), "-0.0": NewInt(0),
		"NaN": NewFloat(math.Float64frombits(0xfff8000000000001)), "+Inf": NewFloat(math.Inf(1)),
	}
	cases := []struct {
		name string
		v    Value
		want want
	}{
		{"MinInt64", NewInt(math.MinInt64), want{kind: KindInt, i: math.MinInt64,
			str: "-9223372036854775808", key: NewInt(math.MinInt64), truth: True, sameKey: true,
			cmp: "0", cmpZero: "-1", sort: 0, sortZero: -1,
			toInt: "INTEGER -9223372036854775808", toFloat: "FLOAT -9.223372036854776e+18", toText: "TEXT -9223372036854775808", toBool: "BOOLEAN TRUE"}},
		{"MaxInt64", NewInt(math.MaxInt64), want{kind: KindInt, i: math.MaxInt64,
			str: "9223372036854775807", key: NewInt(math.MaxInt64), truth: True, sameKey: true,
			cmp: "0", cmpZero: "1", sort: 0, sortZero: 1,
			toInt: "INTEGER 9223372036854775807", toFloat: "FLOAT 9.223372036854776e+18", toText: "TEXT 9223372036854775807", toBool: "BOOLEAN TRUE"}},
		{"int 0", NewInt(0), want{kind: KindInt,
			str: "0", key: NewInt(0), truth: False, sameKey: true,
			cmp: "0", cmpZero: "0", sort: 0, sortZero: 0,
			toInt: "INTEGER 0", toFloat: "FLOAT 0", toText: "TEXT 0", toBool: "BOOLEAN FALSE"}},
		{"-0.0", NewFloat(math.Copysign(0, -1)), want{kind: KindFloat, fbits: 1 << 63,
			str: "-0", key: NewInt(0), truth: False, sameKey: true,
			cmp: "0", cmpZero: "0", sort: 0, sortZero: 0,
			toInt: "INTEGER 0", toFloat: "FLOAT -0", toText: "TEXT -0", toBool: "error"}},
		{"NaN", NewFloat(math.NaN()), want{kind: KindFloat, fbits: math.Float64bits(math.NaN()),
			str: "NaN", key: NewFloat(math.NaN()), truth: True, sameKey: true,
			cmp: "0", cmpZero: "-1", sort: 0, sortZero: -1,
			toInt: "error", toFloat: "FLOAT NaN", toText: "TEXT NaN", toBool: "error"}},
		{"+Inf", NewFloat(math.Inf(1)), want{kind: KindFloat, fbits: math.Float64bits(math.Inf(1)),
			str: "+Inf", key: NewFloat(math.Inf(1)), truth: True, sameKey: true,
			cmp: "0", cmpZero: "1", sort: 0, sortZero: 1,
			toInt: "error", toFloat: "FLOAT +Inf", toText: "TEXT +Inf", toBool: "error"}},
		{"-Inf", NewFloat(math.Inf(-1)), want{kind: KindFloat, fbits: math.Float64bits(math.Inf(-1)),
			str: "-Inf", key: NewFloat(math.Inf(-1)), truth: True, sameKey: true,
			cmp: "0", cmpZero: "-1", sort: 0, sortZero: -1,
			toInt: "error", toFloat: "FLOAT -Inf", toText: "TEXT -Inf", toBool: "error"}},
		{"subnormal", NewFloat(subnormal), want{kind: KindFloat, fbits: 1,
			str: "5e-324", key: NewFloat(subnormal), truth: True, sameKey: true,
			cmp: "0", cmpZero: "1", sort: 0, sortZero: 1,
			toInt: "INTEGER 0", toFloat: "FLOAT 5e-324", toText: "TEXT 5e-324", toBool: "error"}},
		{"empty text", NewText(""), want{kind: KindText,
			str: "", key: NewText(""), truth: Unknown, sameKey: true,
			cmp: "0", cmpZero: "error", sort: 0, sortZero: 1,
			toInt: "error", toFloat: "error", toText: "TEXT ", toBool: "error"}},
		{"text", NewText("42"), want{kind: KindText, s: "42",
			str: "42", key: NewText("42"), truth: Unknown, sameKey: true,
			cmp: "0", cmpZero: "error", sort: 0, sortZero: 1,
			toInt: "INTEGER 42", toFloat: "FLOAT 42", toText: "TEXT 42", toBool: "error"}},
		{"TRUE", NewBool(true), want{kind: KindBool, b: true,
			str: "TRUE", key: NewBool(true), truth: True, sameKey: true,
			cmp: "0", cmpZero: "error", sort: 0, sortZero: -1,
			toInt: "INTEGER 1", toFloat: "error", toText: "TEXT TRUE", toBool: "BOOLEAN TRUE"}},
		{"FALSE", NewBool(false), want{kind: KindBool,
			str: "FALSE", key: NewBool(false), truth: False, sameKey: true,
			cmp: "0", cmpZero: "error", sort: 0, sortZero: -1,
			toInt: "INTEGER 0", toFloat: "error", toText: "TEXT FALSE", toBool: "BOOLEAN FALSE"}},
		{"NULL", Null, want{kind: KindNull,
			str: "NULL", key: Null, truth: Unknown, sameKey: true,
			cmp: "error", cmpZero: "error", sort: 0, sortZero: -1,
			toInt: "NULL NULL", toFloat: "NULL NULL", toText: "NULL NULL", toBool: "NULL NULL"}},
	}
	cmpString := func(c int, err error) string {
		if err != nil {
			return "error"
		}
		return strconv.Itoa(c)
	}
	coerce := func(v Value, k Kind) string {
		c, err := Coerce(v, ColumnType{Kind: k})
		if err != nil {
			return "error"
		}
		return c.Kind().String() + " " + c.String()
	}
	zero := NewInt(0)
	for _, c := range cases {
		v, w := c.v, c.want
		got := want{
			kind: v.Kind(), i: v.Int(), fbits: math.Float64bits(v.Float()), b: v.Bool(), s: v.Text(),
			str: v.String(), key: v.Key(), truth: Truth(v),
			sameKey: SameKey(v, v),
			cmp:     cmpString(Compare(v, v)), cmpZero: cmpString(Compare(v, zero)),
			sort: CompareForSort(v, v), sortZero: CompareForSort(v, zero),
			toInt: coerce(v, KindInt), toFloat: coerce(v, KindFloat), toText: coerce(v, KindText), toBool: coerce(v, KindBool),
		}
		if got != w {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, w)
		}
		if v.IsNull() != (w.kind == KindNull) {
			t.Errorf("%s: IsNull = %v", c.name, v.IsNull())
		}
		if w.key.Key() != w.key {
			t.Errorf("%s: the key %#v keys as %#v; want itself", c.name, w.key, w.key.Key())
		}
		for _, twin := range []Value{v, twins[c.name]} {
			if twin.IsNull() && !v.IsNull() {
				continue
			}
			if !SameKey(v, twin) || v.Key() != twin.Key() || hashOf(v) != hashOf(twin) {
				t.Errorf("%s and %s: SameKey %v, keys %#v %#v, hashes %x %x; want one key", v, twin,
					SameKey(v, twin), v.Key(), twin.Key(), hashOf(v), hashOf(twin))
			}
		}
	}
}
