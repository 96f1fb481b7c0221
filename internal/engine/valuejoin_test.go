package engine

import (
	"math"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/xdm"
	"repro/internal/xmltree"
)

// vjPool is the key vocabulary of the value-join fuzzer: every comparison
// class, the untyped lexical forms that cast (or fail to cast) to double
// and boolean, NaN, ±0, ±INF and duplicates.
var vjPool = func() []xdm.Item {
	var out []xdm.Item
	for _, s := range []string{"1", "2", "0", "-0", "NaN", "x", "true", "false", " 2 ", "INF", "1e0", ""} {
		out = append(out, xdm.NewUntyped(s), xdm.NewString(s))
	}
	for _, i := range []int64{0, 1, 2, -1} {
		out = append(out, xdm.NewInt(i))
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, 2, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		out = append(out, xdm.NewDouble(f))
	}
	return append(out, xdm.True, xdm.False, xdm.NewNode(xdm.NodeID{Pre: 1}))
}()

// vjSide decodes one join side: a key column (typed when homogeneous,
// unless boxed) and a row-id column.
func vjSide(keys []byte, boxed bool, keyCol, idCol string) *Table {
	items := make([]xdm.Item, len(keys))
	ids := make([]int64, len(keys))
	for i, k := range keys {
		items[i] = vjPool[int(k)%len(vjPool)]
		ids[i] = int64(i)
	}
	t := NewTable([]string{keyCol, idCol})
	if boxed {
		t.Data[0] = xdm.ItemColumn(items)
	} else {
		t.Data[0] = xdm.FromItemsOwned(items)
	}
	t.Data[1] = xdm.IntColumn(ids)
	return t
}

// vjPairs runs the value join (or its error-witness twin) and returns the
// emitted (left, right) row pairs, sorted.
func vjPairs(t *testing.T, l, r *Table, op xdm.CmpOp, errs bool) [][2]int64 {
	t.Helper()
	b := algebra.NewBuilder()
	ln, rn := b.EmptyLit("a", "ai"), b.EmptyLit("b", "bi")
	n := b.ValueJoin(ln, rn, "a", op, "b")
	if errs {
		n = b.ValueJoinErrors(ln, rn, "a", op, "b")
	}
	ex := NewExec(xmltree.NewStore(), nil, Options{})
	out, err := ex.EvalOp(n, []*Table{l, r})
	if err != nil {
		t.Fatal(err)
	}
	ai, bi := iterInts(out.Col("ai")), iterInts(out.Col("bi"))
	pairs := make([][2]int64, len(ai))
	for i := range ai {
		pairs[i] = [2]int64{ai[i], bi[i]}
	}
	slices.SortFunc(pairs, func(x, y [2]int64) int {
		if x[0] != y[0] {
			return int(x[0] - y[0])
		}
		return int(x[1] - y[1])
	})
	return pairs
}

// FuzzValueJoin checks the value-join kernel against a naive nested loop
// over xdm.CompareGeneral: the matching join must emit exactly the pairs
// that compare true, its error-witness twin exactly the pairs that raise.
func FuzzValueJoin(f *testing.F) {
	f.Add([]byte{0, 2, 4, 6}, []byte{1, 3, 5, 0, 0}, uint8(0), false)
	f.Add([]byte{8, 9, 24, 33}, []byte{26, 27, 28, 29, 30, 31}, uint8(1), false)
	f.Add([]byte{10, 11, 36}, []byte{12, 13, 34, 35}, uint8(2), true)
	f.Add([]byte{24, 25, 26, 27}, []byte{0, 2, 4, 14, 16}, uint8(3), false)
	f.Add([]byte{}, []byte{1, 2}, uint8(4), true)
	f.Add([]byte{37, 38, 39}, []byte{0, 1, 30, 37}, uint8(5), true)
	f.Add([]byte{30, 24, 8}, []byte{33, 8, 29, 28}, uint8(1), false)
	f.Fuzz(func(t *testing.T, left, right []byte, opb uint8, boxed bool) {
		if len(left) > 64 || len(right) > 64 {
			return
		}
		op := xdm.CmpOp(opb % 6)
		l, r := vjSide(left, boxed, "a", "ai"), vjSide(right, boxed, "b", "bi")
		var wantMatch, wantErr [][2]int64
		for i := range left {
			for j := range right {
				ok, err := xdm.CompareGeneral(l.Col("a").Get(i), r.Col("b").Get(j), op)
				switch {
				case err != nil:
					wantErr = append(wantErr, [2]int64{int64(i), int64(j)})
				case ok:
					wantMatch = append(wantMatch, [2]int64{int64(i), int64(j)})
				}
			}
		}
		if got := vjPairs(t, l, r, op, false); !slices.Equal(got, wantMatch) {
			t.Errorf("op %v matches:\n got %v\nwant %v", op, got, wantMatch)
		}
		if got := vjPairs(t, l, r, op, true); !slices.Equal(got, wantErr) {
			t.Errorf("op %v error witnesses:\n got %v\nwant %v", op, got, wantErr)
		}
	})
}
