package exrquy

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// The value-join differential: the hoisted where clause of a nested FLWOR
// (XMark Q8's shape) compiles to a value join between the two operand
// tables. Every general-comparison operator runs over every pairing of
// operand classes the join kernel buckets apart, and each result — or
// each error's class — must match the reference interpreter, serially
// and in parallel.

const vjDoc = `<r>
  <a id="a1" v="1"/><a id="a2" v="2"/><a id="a3" v="x"/><a id="a4" v="NaN"/>
  <a id="a5" v="-0"/><a id="a6" v="0"/><a id="a7" v="2"/><a id="a8" v=" 2 "/>
  <a id="a9" v="true"/><a id="a10" v="INF"/><a id="a11" v="abc"/>
  <b id="b1" v="2"/><b id="b2" v="0"/><b id="b3" v="y"/><b id="b4" v="1"/>
  <b id="b5" v="NaN"/><b id="b6" v="2"/><b id="b7" v="false"/><b id="b8" v="-0"/>
  <b id="b9" v="abc"/><b id="b10" v="-INF"/><b id="b11" v="1"/>
  <c id="c1" v="1"/><c id="c2" v="0"/><c id="c3" v="true"/><c id="c4" v="2.0"/>
</r>`

// vjCase is one operand-class pairing: the inner (hoisted, $b) operand
// and the outer ($a) operand of the comparison.
type vjCase struct {
	name         string
	inner, outer string
	// errs: every operator raises a type error on these classes (the
	// query fails as a whole under both evaluators).
	errs bool
}

var vjCases = []vjCase{
	{"untyped/untyped", "$b/@v", "$a/@v", false},
	{"untyped/double", "$b/@v", "number($a/@v)", true}, // "y", "false", "abc" fail the cast
	{"double/double (NaN, ±0)", "number($b/@v)", "number($a/@v)", false},
	{"double/untyped numeric", "number($b/@v)", "$c/@v", true}, // "true" fails the cast
	{"integer/double", "string-length($b/@v)", "number($a/@v)", false},
	{"string/string", "string($b/@v)", "string($a/@v)", false},
	{"string/untyped", "string($b/@v)", "$a/@v", false},
	{"string/integer (type error)", "string($b/@v)", "string-length($a/@v)", true},
	{"boolean/boolean", "exists($b/@v[. = '2'])", "exists($a/@v[. = '2'])", false},
	{"untyped/boolean", "$b/@v", "exists($a/@v[. = '2'])", true}, // "2", "y" … fail the cast
	{"empty inner", "$b/@none", "$a/@v", false},
	{"empty outer", "$b/@v", "$a/@none", false},
	// Boxed (mixed-kind) key columns: untyped and string keys in one
	// column, and multi-valued operands per iteration.
	{"boxed untyped+string", "($b/@v, string($b/@id))", "$a/@v", false},
	{"boxed both sides", "($b/@v, string($b/@id))", "($a/@v, string($a/@id))", false},
}

var vjOps = []string{"=", "!=", "<", "<=", ">", ">="}

func vjQuery(c vjCase, op string) string {
	outer := "$a"
	if strings.Contains(c.outer, "$c") {
		outer = "$c"
	}
	return fmt.Sprintf(`let $d := doc("vj.xml")/r
for %s in $d/%s
let $m := for $b in $d/b where %s %s %s return $b
return <p id="{%s/@id}">{ for $x in $m return string($x/@id) }</p>`,
		outer, outer[1:], c.inner, op, c.outer, outer)
}

func TestValueJoinDifferential(t *testing.T) {
	engines := map[string]*Engine{
		"serial":   New(),
		"parallel": New(WithParallelism(2)),
	}
	for _, eng := range engines {
		if err := eng.LoadDocumentString("vj.xml", vjDoc); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range vjCases {
		for _, op := range vjOps {
			q := vjQuery(c, op)
			if cq, err := engines["serial"].Compile(q); err != nil {
				t.Fatal(err)
			} else if !strings.Contains(cq.Explain(), "valuejoin") {
				t.Fatalf("%s %s: the comparison is not a value join:\n%s", c.name, op, cq.Explain())
			}
			ref, refErr := engines["serial"].Reference(q)
			if c.errs != (refErr != nil) {
				t.Fatalf("%s %s: reference error %v, case expects errors=%v", c.name, op, refErr, c.errs)
			}
			var want string
			if refErr == nil {
				want, _ = ref.XML()
			}
			for name, eng := range engines {
				res, err := eng.Query(q)
				if refErr != nil {
					if err == nil {
						t.Errorf("%s %s [%s]: reference fails (%v), engine returns a result", c.name, op, name, refErr)
					} else if errClass(err) != errClass(refErr) {
						t.Errorf("%s %s [%s]: error %v (%s), reference %v (%s)",
							c.name, op, name, err, errClass(err), refErr, errClass(refErr))
					}
					continue
				}
				if err != nil {
					t.Errorf("%s %s [%s]: %v", c.name, op, name, err)
					continue
				}
				if got, _ := res.XML(); got != want {
					t.Errorf("%s %s [%s]:\n got: %s\nwant: %s", c.name, op, name, got, want)
				}
			}
		}
	}
}

// errClass names an error's class in the taxonomy; "dynamic" is a query's
// own evaluation error (a type error, say), which carries no sentinel.
func errClass(err error) string {
	for _, k := range []error{ErrParse, ErrCompile, ErrCutoff, ErrCanceled, ErrInternal, ErrCorrupt} {
		if errors.Is(err, k) {
			return k.Error()
		}
	}
	return "dynamic"
}
