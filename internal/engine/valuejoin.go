package engine

import (
	"cmp"
	"slices"

	"repro/internal/algebra"
	"repro/internal/xdm"
)

// --- Value join: general comparisons as relational joins ---
//
// evalValueJoin implements algebra.OpValueJoin, the existential general
// comparison between two atomized key columns. The right side is bucketed
// by comparison class once: untypedAtomic and xs:string keys compare as
// strings, numeric keys as doubles, booleans as 0/1. Untyped keys are cast
// once per row towards the classes the other side holds (never once per
// pair). Each bucket is sorted once; a left key then binary-searches its
// equal range and emits the contiguous ranges its operator selects. NaN
// keys sit apart: they compare false except under !=.
//
// The error-witness twin (Node.Errs) walks only the pairs that can fail —
// incomparable classes and untyped keys whose cast fails — and confirms
// each one through xdm.CompareGeneral, so the error semantics stay defined
// in one place. On keys of one comparable class it emits nothing and costs
// a single classification pass.

// vjClass is a key's general-comparison class, as a bit for class sets.
type vjClass uint8

const (
	vjUntyped vjClass = 1 << iota
	vjString
	vjNum
	vjBool
	vjOther // nodes and internal kinds: comparable with nothing
)

func vjClassOf(k xdm.Kind) vjClass {
	switch k {
	case xdm.KUntyped:
		return vjUntyped
	case xdm.KString:
		return vjString
	case xdm.KInteger, xdm.KDouble:
		return vjNum
	case xdm.KBoolean:
		return vjBool
	default:
		return vjOther
	}
}

// vjClasses returns the set of classes present in a column; typed columns
// answer from their representation without a scan.
func vjClasses(c *xdm.Column) vjClass {
	if c.Len() == 0 {
		return 0
	}
	switch c.Kind() {
	case xdm.ColInt, xdm.ColDouble:
		return vjNum
	case xdm.ColBool:
		return vjBool
	case xdm.ColString:
		return vjString
	case xdm.ColUntyped:
		return vjUntyped
	case xdm.ColNode:
		return vjOther
	}
	items, _ := c.RawItems()
	var set vjClass
	for _, it := range items {
		set |= vjClassOf(it.Kind)
	}
	return set
}

// keyed is one key of a comparison bucket under construction.
type keyed[K cmp.Ordered] struct {
	k K
	r int32
}

// bucket holds one comparison class of the right side: keys ascending,
// each with its row id alongside (equal keys in row order).
type bucket[K cmp.Ordered] struct {
	keys []K
	rows []int32
}

func newBucket[K cmp.Ordered](ps []keyed[K]) bucket[K] {
	slices.SortStableFunc(ps, func(a, b keyed[K]) int { return cmp.Compare(a.k, b.k) })
	b := bucket[K]{keys: make([]K, len(ps)), rows: make([]int32, len(ps))}
	for i, p := range ps {
		b.keys[i], b.rows[i] = p.k, p.r
	}
	return b
}

// match returns the rows whose key k satisfies v op k as at most two
// contiguous ranges of the sorted bucket.
func (b *bucket[K]) match(v K, op xdm.CmpOp) (x, y []int32) {
	// lo: first key >= v; hi: first key > v.
	lo, hi := 0, len(b.keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.keys[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	hi = len(b.keys)
	for l := lo; l < hi; {
		m := int(uint(l+hi) >> 1)
		if b.keys[m] <= v {
			l = m + 1
		} else {
			hi = m
		}
	}
	switch op {
	case xdm.CmpEq:
		return b.rows[lo:hi], nil
	case xdm.CmpNe:
		return b.rows[:lo], b.rows[hi:]
	case xdm.CmpLt:
		return b.rows[hi:], nil
	case xdm.CmpLe:
		return b.rows[lo:], nil
	case xdm.CmpGt:
		return b.rows[:lo], nil
	default: // CmpGe
		return b.rows[:hi], nil
	}
}

// vjIndex is the right side of a value join, bucketed by class. The
// sorted buckets serve the matching join, the row lists the error-witness
// join.
type vjIndex struct {
	col *xdm.Column

	str          bucket[string]  // xs:string and untypedAtomic keys
	num, unum    bucket[float64] // numeric keys; untyped keys cast to double (NaN apart)
	numNaN       []int32
	unumNaN      []int32
	boolv, ubool bucket[int64] // boolean keys; untyped keys cast to boolean

	// Error-witness row lists: keys by class, and the untyped keys whose
	// cast towards a class of the left side fails.
	strRows, numRows, boolRows, otherRows []int32
	unumBad, uboolBad                     []int32
}

// newVJIndex buckets the right key column. left is the set of classes on
// the left side: a bucket no left key can probe is never built, and an
// untyped key is cast only towards the classes the left side holds.
func newVJIndex(c *xdm.Column, left vjClass, errs bool) *vjIndex {
	ix := &vjIndex{col: c}
	var str []keyed[string]
	var num, unum []keyed[float64]
	var boolv, ubool []keyed[int64]
	for j, n := 0, c.Len(); j < n; j++ {
		it, r := c.Get(j), int32(j)
		switch vjClassOf(it.Kind) {
		case vjUntyped:
			if !errs && left&(vjUntyped|vjString) != 0 {
				str = append(str, keyed[string]{it.S, r})
			}
			if left&vjNum != 0 {
				d, err := xdm.CastUntyped(it, xdm.KDouble)
				switch {
				case err != nil:
					ix.unumBad = append(ix.unumBad, r)
				case errs:
				case d.F != d.F:
					ix.unumNaN = append(ix.unumNaN, r)
				default:
					unum = append(unum, keyed[float64]{d.F, r})
				}
			}
			if left&vjBool != 0 {
				b, err := xdm.CastUntyped(it, xdm.KBoolean)
				switch {
				case err != nil:
					ix.uboolBad = append(ix.uboolBad, r)
				case !errs:
					ubool = append(ubool, keyed[int64]{b.I, r})
				}
			}
		case vjString:
			switch {
			case errs:
				ix.strRows = append(ix.strRows, r)
			case left&(vjUntyped|vjString) != 0:
				str = append(str, keyed[string]{it.S, r})
			}
		case vjNum:
			f, _ := it.AsDouble()
			switch {
			case errs:
				ix.numRows = append(ix.numRows, r)
			case left&(vjUntyped|vjNum) == 0:
			case f != f:
				ix.numNaN = append(ix.numNaN, r)
			default:
				num = append(num, keyed[float64]{f, r})
			}
		case vjBool:
			switch {
			case errs:
				ix.boolRows = append(ix.boolRows, r)
			case left&(vjUntyped|vjBool) != 0:
				boolv = append(boolv, keyed[int64]{it.I, r})
			}
		default:
			if errs {
				ix.otherRows = append(ix.otherRows, r)
			}
		}
	}
	ix.str, ix.num, ix.unum = newBucket(str), newBucket(num), newBucket(unum)
	ix.boolv, ix.ubool = newBucket(boolv), newBucket(ubool)
	return ix
}

// vjOut accumulates the emitted (left, right) row pairs.
type vjOut struct {
	i            int32 // current left row
	lperm, rperm []int32
}

func (o *vjOut) pair(r int32) {
	o.lperm = append(o.lperm, o.i)
	o.rperm = append(o.rperm, r)
}

func (o *vjOut) emit(rows []int32) {
	for _, r := range rows {
		o.pair(r)
	}
}

func (o *vjOut) emit2(x, y []int32) {
	o.emit(x)
	o.emit(y)
}

// emitNum emits the numeric bucket rows k with f op k.
func (o *vjOut) emitNum(f float64, op xdm.CmpOp, b *bucket[float64], nan []int32) {
	if f != f {
		if op == xdm.CmpNe {
			o.emit2(b.rows, nan)
		}
		return
	}
	o.emit2(b.match(f, op))
	if op == xdm.CmpNe {
		o.emit(nan)
	}
}

// probe emits the matching right rows for the left key a.
func (ix *vjIndex) probe(a xdm.Item, op xdm.CmpOp, o *vjOut) {
	switch vjClassOf(a.Kind) {
	case vjUntyped:
		o.emit2(ix.str.match(a.S, op))
		if len(ix.num.rows)+len(ix.numNaN) > 0 {
			if d, err := xdm.CastUntyped(a, xdm.KDouble); err == nil {
				o.emitNum(d.F, op, &ix.num, ix.numNaN)
			}
		}
		if len(ix.boolv.rows) > 0 {
			if b, err := xdm.CastUntyped(a, xdm.KBoolean); err == nil {
				o.emit2(ix.boolv.match(b.I, op))
			}
		}
	case vjString:
		o.emit2(ix.str.match(a.S, op))
	case vjNum:
		f, _ := a.AsDouble()
		o.emitNum(f, op, &ix.num, ix.numNaN)
		o.emitNum(f, op, &ix.unum, ix.unumNaN)
	case vjBool:
		o.emit2(ix.boolv.match(a.I, op))
		o.emit2(ix.ubool.match(a.I, op))
	}
}

// probeErrs emits the right rows whose comparison with the left key a
// raises a type error.
func (ix *vjIndex) probeErrs(a xdm.Item, op xdm.CmpOp, o *vjOut) {
	switch vjClassOf(a.Kind) {
	case vjUntyped:
		if len(ix.numRows) > 0 {
			if _, err := xdm.CastUntyped(a, xdm.KDouble); err != nil {
				ix.witness(a, op, ix.numRows, o)
			}
		}
		if len(ix.boolRows) > 0 {
			if _, err := xdm.CastUntyped(a, xdm.KBoolean); err != nil {
				ix.witness(a, op, ix.boolRows, o)
			}
		}
		ix.witness(a, op, ix.otherRows, o)
	case vjString:
		ix.witness(a, op, ix.numRows, o)
		ix.witness(a, op, ix.boolRows, o)
		ix.witness(a, op, ix.otherRows, o)
	case vjNum:
		ix.witness(a, op, ix.unumBad, o)
		ix.witness(a, op, ix.strRows, o)
		ix.witness(a, op, ix.boolRows, o)
		ix.witness(a, op, ix.otherRows, o)
	case vjBool:
		ix.witness(a, op, ix.uboolBad, o)
		ix.witness(a, op, ix.strRows, o)
		ix.witness(a, op, ix.numRows, o)
		ix.witness(a, op, ix.otherRows, o)
	default:
		for j, n := 0, ix.col.Len(); j < n; j++ {
			if _, err := xdm.CompareGeneral(a, ix.col.Get(j), op); err != nil {
				o.pair(int32(j))
			}
		}
	}
}

// witness emits the rows among cands whose comparison with a fails.
func (ix *vjIndex) witness(a xdm.Item, op xdm.CmpOp, cands []int32, o *vjOut) {
	for _, r := range cands {
		if _, err := xdm.CompareGeneral(a, ix.col.Get(int(r)), op); err != nil {
			o.pair(r)
		}
	}
}

func (ex *Exec) evalValueJoin(n *algebra.Node, l, r *Table) (*Table, error) {
	lk, rk := l.Col(n.LCol), r.Col(n.RCol)
	cols := len(l.Cols) + len(r.Cols)
	ix := newVJIndex(rk, vjClasses(lk), n.Errs)
	var o vjOut
	checked := 0
	for i, nl := 0, lk.Len(); i < nl; i++ {
		// Poll per chunk of left rows and per chunk of output: one left
		// key under != can emit the whole right side.
		if i&(probeChunk-1) == 0 || len(o.lperm)-checked >= probeChunk {
			checked = len(o.lperm)
			if err := ex.checkCells(checked, cols); err != nil {
				return nil, err
			}
		}
		o.i = int32(i)
		if n.Errs {
			ix.probeErrs(lk.Get(i), n.Cmp, &o)
		} else {
			ix.probe(lk.Get(i), n.Cmp, &o)
		}
	}
	if err := ex.checkCells(len(o.lperm), cols); err != nil {
		return nil, err
	}
	t, err := ex.MaterializeJoin(n, l, r, o.lperm, o.rperm)
	if err != nil {
		return nil, err
	}
	xdm.PutInt32s(o.lperm)
	xdm.PutInt32s(o.rperm)
	return t, nil
}
