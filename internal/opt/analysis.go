package opt

import (
	"sort"

	"repro/internal/algebra"
	"repro/internal/xdm"
)

// useKind distinguishes how a required column is consumed. The paper's
// analysis (Figure 8) tracks a single "strictly required" set; we refine
// it with the distinction §7 needs: a column required only as a sort
// criterion (useOrder) may be replaced by any order-isomorphic column —
// in particular, sorting by a constant or by arbitrary unique numbers
// conveys no information and the criterion can be dropped. A column whose
// values are consumed (useValue: join keys, selections, arithmetic,
// output items, positional ranks) is untouchable.
type useKind uint8

const (
	useValue useKind = 1 << iota
	useOrder
)

// colReq maps column name to its accumulated use kinds at one node.
type colReq map[string]useKind

func (r colReq) add(col string, k useKind) { r[col] |= k }

func (r colReq) has(col string) bool { return r[col] != 0 }

// orderOnly reports whether the column is consumed exclusively as a sort
// criterion.
func (r colReq) orderOnly(col string) bool { return r[col] == useOrder }

// inferRequired walks the DAG top-down (consumers before producers) and
// computes the strictly required columns of every node — the Figure 8
// inference, seeded at the root with {pos (order), item (value)}: exactly
// the columns needed "to properly serialize the item sequence which forms
// the result of a query".
func inferRequired(root *algebra.Node) map[*algebra.Node]colReq {
	nodes := algebra.Nodes(root) // topological, inputs first
	reqs := make(map[*algebra.Node]colReq, len(nodes))
	get := func(n *algebra.Node) colReq {
		r, ok := reqs[n]
		if !ok {
			r = colReq{}
			reqs[n] = r
		}
		return r
	}
	rootReq := get(root)
	rootReq.add("pos", useOrder)
	rootReq.add("item", useValue)

	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		R := get(n)
		switch n.Kind {
		case algebra.OpLit, algebra.OpDoc:
			// no inputs

		case algebra.OpProject:
			in := get(n.Ins[0])
			for _, p := range n.Proj {
				if R.has(p.New) {
					in.add(p.Old, R[p.New])
				}
			}

		case algebra.OpSelect:
			in := get(n.Ins[0])
			for c, k := range R {
				in.add(c, k)
			}
			in.add(n.Col, useValue)

		case algebra.OpJoin, algebra.OpCross, algebra.OpValueJoin:
			l, r := get(n.Ins[0]), get(n.Ins[1])
			for c, k := range R {
				if n.Ins[0].HasCol(c) {
					l.add(c, k)
				} else {
					r.add(c, k)
				}
			}
			if n.Kind != algebra.OpCross {
				l.add(n.LCol, useValue)
				r.add(n.RCol, useValue)
			}

		case algebra.OpRowNum:
			in := get(n.Ins[0])
			if R.has(n.Res) {
				for _, s := range n.Sort {
					in.add(s.Col, useOrder)
				}
				if n.Part != "" {
					in.add(n.Part, useValue)
				}
			}
			for c, k := range R {
				if c != n.Res {
					in.add(c, k)
				}
			}

		case algebra.OpRowID:
			in := get(n.Ins[0])
			for c, k := range R {
				if c != n.Col {
					in.add(c, k)
				}
			}

		case algebra.OpBinOp:
			in := get(n.Ins[0])
			if R.has(n.Res) {
				in.add(n.LCol, useValue)
				in.add(n.RCol, useValue)
				if n.TCol != "" {
					in.add(n.TCol, useValue)
				}
			}
			for c, k := range R {
				if c != n.Res {
					in.add(c, k)
				}
			}

		case algebra.OpMap1:
			in := get(n.Ins[0])
			if R.has(n.Res) {
				in.add(n.LCol, useValue)
			}
			for c, k := range R {
				if c != n.Res {
					in.add(c, k)
				}
			}

		case algebra.OpUnion:
			l, r := get(n.Ins[0]), get(n.Ins[1])
			for c, k := range R {
				l.add(c, k)
				r.add(c, k)
			}

		case algebra.OpSemi, algebra.OpDiff:
			l, r := get(n.Ins[0]), get(n.Ins[1])
			for c, k := range R {
				l.add(c, k)
			}
			for _, c := range n.Cols {
				l.add(c, useValue)
				r.add(c, useValue)
			}

		case algebra.OpDistinct:
			in := get(n.Ins[0])
			for _, c := range n.Cols {
				in.add(c, useValue)
			}

		case algebra.OpAggr:
			in := get(n.Ins[0])
			if n.Part != "" {
				in.add(n.Part, useValue)
			}
			if n.Col != "" {
				in.add(n.Col, useValue)
			}
			if n.AFn == algebra.AggrStrJoin {
				in.add("pos", useOrder)
			}

		case algebra.OpStep:
			in := get(n.Ins[0])
			in.add("iter", useValue)
			in.add("item", useValue)

		case algebra.OpElem:
			loop, content := get(n.Ins[0]), get(n.Ins[1])
			loop.add("iter", useValue)
			content.add("iter", useValue)
			content.add("item", useValue)
			// Sequence order establishes document order (interaction 2):
			// constructors genuinely consume content order.
			content.add("pos", useOrder)

		case algebra.OpAttr:
			in := get(n.Ins[0])
			in.add("iter", useValue)
			in.add(n.Col, useValue)

		case algebra.OpRange:
			in := get(n.Ins[0])
			in.add("iter", useValue)
			in.add(n.LCol, useValue)
			in.add(n.RCol, useValue)

		case algebra.OpCheckCard:
			in := get(n.Ins[0])
			for c, k := range R {
				in.add(c, k)
			}
			in.add(n.Col, useValue)
			if len(n.Ins) == 2 {
				get(n.Ins[1]).add(n.Col, useValue)
			}
		}
	}
	return reqs
}

// --- Column properties (§7): constants and arbitrary unique columns ---

// colProp records what is known about a column's content. This is the
// property inference the paper's §7 wrap-up builds on:
//
//   - constant: every row holds the same value (e.g. the top-level loop's
//     iter column, or a pos column installed by × with a literal);
//   - arbitrary: the values are meaningless identifiers — their relative
//     order carries no information (outputs of #, and anything derived
//     from them by copying);
//   - unique: no value occurs twice (a key column): # outputs, ungrouped
//     ρ outputs, aggregate group columns; preserved across a join when
//     the opposite key is itself unique, and across a union only when the
//     compiler asserted disjointness.
type colProp struct {
	constant  bool
	constVal  xdm.Item
	arbitrary bool
	unique    bool
}

type propMap map[string]colProp

// inferProps computes column properties bottom-up over a DAG.
func inferProps(root *algebra.Node) map[*algebra.Node]propMap {
	props := make(map[*algebra.Node]propMap)
	for _, n := range algebra.Nodes(root) {
		p := propMap{}
		in := func(i int) propMap { return props[n.Ins[i]] }
		copyFrom := func(src propMap, cols []string) {
			for _, c := range cols {
				if cp, ok := src[c]; ok {
					p[c] = cp
				}
			}
		}
		switch n.Kind {
		case algebra.OpLit:
			if len(n.Rows) == 1 {
				for i, c := range n.Cols {
					p[c] = colProp{constant: true, constVal: n.Rows[0][i], unique: true}
				}
			}

		case algebra.OpProject:
			for _, pr := range n.Proj {
				if cp, ok := in(0)[pr.Old]; ok {
					p[pr.New] = cp
				}
			}

		case algebra.OpSelect, algebra.OpSemi, algebra.OpDiff, algebra.OpCheckCard:
			// Row subsets preserve all three properties.
			copyFrom(in(0), n.Schema())

		case algebra.OpDistinct:
			copyFrom(in(0), n.Cols)
			if len(n.Cols) == 1 {
				cp := p[n.Cols[0]]
				cp.unique = true
				p[n.Cols[0]] = cp
			}

		case algebra.OpRowID:
			copyFrom(in(0), n.Ins[0].Schema())
			p[n.Col] = colProp{arbitrary: true, unique: true}

		case algebra.OpRowNum:
			copyFrom(in(0), n.Ins[0].Schema())
			if n.Part == "" {
				p[n.Res] = colProp{unique: true} // dense global numbering
			}

		case algebra.OpBinOp, algebra.OpMap1:
			copyFrom(in(0), n.Ins[0].Schema())

		case algebra.OpJoin, algebra.OpValueJoin:
			// A side keeps its unique columns when the other side's key is
			// unique — for an equi-join only: a value join's comparison may
			// be a range or != and match many rows per key.
			equi := n.Kind == algebra.OpJoin
			lp, rp := in(0), in(1)
			lKeyUnique := equi && lp[n.LCol].unique
			rKeyUnique := equi && rp[n.RCol].unique
			for c, cp := range lp {
				cp.unique = cp.unique && rKeyUnique
				p[c] = cp
			}
			for c, cp := range rp {
				cp.unique = cp.unique && lKeyUnique
				p[c] = cp
			}

		case algebra.OpCross:
			lSingle := n.Ins[0].Kind == algebra.OpLit && len(n.Ins[0].Rows) == 1
			rSingle := n.Ins[1].Kind == algebra.OpLit && len(n.Ins[1].Rows) == 1
			for side, sp := range []propMap{in(0), in(1)} {
				keepUnique := (side == 0 && rSingle) || (side == 1 && lSingle)
				for c, cp := range sp {
					cp.unique = cp.unique && keepUnique
					p[c] = cp
				}
			}

		case algebra.OpUnion:
			for c, cp := range in(0) {
				rp, ok := in(1)[c]
				if !ok {
					continue
				}
				merged := colProp{}
				if cp.constant && rp.constant &&
					xdm.DistinctKey(cp.constVal) == xdm.DistinctKey(rp.constVal) {
					merged.constant, merged.constVal = true, cp.constVal
				}
				merged.arbitrary = cp.arbitrary && rp.arbitrary
				if n.Disj == c {
					merged.unique = cp.unique && rp.unique
				}
				if merged.constant || merged.arbitrary || merged.unique {
					p[c] = merged
				}
			}

		case algebra.OpAggr:
			if n.Part != "" {
				cp := in(0)[n.Part]
				cp.unique = true // one row per group
				p[n.Part] = cp
			}

		case algebra.OpStep, algebra.OpElem, algebra.OpAttr, algebra.OpRange:
			// Iteration ids are copied through; constants and
			// arbitrariness survive, uniqueness does not (steps and
			// ranges fan out, constructors keep loop cardinality — be
			// conservative regardless).
			if cp, ok := in(0)["iter"]; ok {
				cp.unique = false
				p["iter"] = cp
			}
		}
		props[n] = p
	}
	return props
}

// sortedCols returns the required column names in deterministic order.
func sortedCols(r colReq) []string {
	out := make([]string, 0, len(r))
	for c, k := range r {
		if k != 0 {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}
