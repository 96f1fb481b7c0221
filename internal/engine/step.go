package engine

import (
	"fmt"
	"slices"

	"repro/internal/algebra"
	"repro/internal/xdm"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// StepGroup is the per-iteration work of one step evaluation: the
// iteration id and its context nodes, one sorted duplicate-free preorder
// set per fragment. Groups appear in first-occurrence order of their
// iteration and Frags in ascending (global document) order, so
// concatenating per-group scan results reproduces the serial operator
// output exactly.
type StepGroup struct {
	Iter  int64
	Frags []FragCtx
}

// FragCtx is one fragment's share of a step group's context set.
type FragCtx struct {
	Frag uint32
	Ctx  []int32 // ascending, duplicate-free preorder ranks
}

// CollectStepGroups groups step context nodes by iteration (and fragment
// within each iteration), sorting and deduplicating each context set. It
// is the preparation phase of evalStep, shared with the parallel executor.
// A CSR grouping of the iteration column orders the contexts group by
// group; every group's contexts and fragment runs then live in shared flat
// arrays, so the allocation count does not grow with the group count.
func CollectStepGroups(in *Table) ([]StepGroup, error) {
	itemCol := in.Col("item")
	rows := in.NumRows()
	// A flat node column needs no per-row kind checks; the boxed fallback
	// reports the first non-node cell like the old per-row loop did.
	nodes, flat := itemCol.Nodes()
	var boxed []xdm.Item
	if !flat {
		if its, ok := itemCol.RawItems(); ok {
			boxed = its
			for r := range boxed {
				if !boxed[r].IsNode() {
					return nil, fmt.Errorf("path step over atomic value %s", boxed[r].Kind)
				}
			}
		} else if rows > 0 {
			return nil, fmt.Errorf("path step over atomic value %s", itemCol.Get(0).Kind)
		}
	}
	iters := iterInts(in.Col("iter"))
	grp := GroupKeys(iters, rows)

	// Pass 1: per group, in first-occurrence order, its node ids as
	// (frag, pre) words, sorted and deduplicated in place, then packed
	// behind the previous group's; count the fragment runs.
	groups := make([]StepGroup, 0, grp.Len())
	ends := make([]int32, 0, grp.Len()) // end of each group's packed ids
	ids := make([]uint64, rows)
	runs, kept := 0, 0
	for r := 0; r < rows; r++ {
		g := grp.Rows(iters[r])
		if g[0] != int32(r) {
			continue // not the iteration's first occurrence
		}
		seg := ids[kept : kept+len(g)]
		for x, row := range g {
			id := nodeAt(nodes, boxed, row)
			seg[x] = uint64(id.Frag)<<32 | uint64(uint32(id.Pre))
		}
		if len(seg) > 1 {
			slices.Sort(seg)
			seg = slices.Compact(seg)
		}
		for x := range seg {
			if x == 0 || seg[x]>>32 != seg[x-1]>>32 {
				runs++
			}
		}
		kept += len(seg)
		groups = append(groups, StepGroup{Iter: iters[r]})
		ends = append(ends, int32(kept))
	}

	// Pass 2: cut the packed ids into each group's fragment runs.
	pres := make([]int32, kept)
	frags := make([]FragCtx, 0, runs)
	start := 0
	for gi := range groups {
		end := int(ends[gi])
		first := len(frags)
		for x := start; x < end; x++ {
			pres[x] = int32(uint32(ids[x]))
			if x == start || ids[x]>>32 != ids[x-1]>>32 {
				frags = append(frags, FragCtx{Frag: uint32(ids[x] >> 32), Ctx: pres[x:x]})
			}
			f := &frags[len(frags)-1]
			f.Ctx = f.Ctx[:len(f.Ctx)+1]
		}
		groups[gi].Frags = frags[first:len(frags):len(frags)]
		start = end
	}
	return groups, nil
}

// nodeAt returns row's node from the flat column, or from the boxed
// fallback when the column is not flat.
func nodeAt(nodes []xdm.NodeID, boxed []xdm.Item, row int32) xdm.NodeID {
	if boxed != nil {
		return boxed[row].N
	}
	return nodes[row]
}

// evalStep implements the XPath step operator ⤋ax::nt with a staircase
// join over the pre/size/level encoding (Grust/van Keulen/Teubner, VLDB
// 2003): within each iteration group the context set is sorted by preorder
// rank and pruned (contexts covered by an earlier context's subtree are
// skipped), then each surviving context's region is scanned once. The
// output is duplicate-free per iteration and in document order — but the
// plan never relies on that: sequence order is (re-)established by ρ, or
// deliberately left arbitrary by #. Both output columns are flat (iter
// ids and node refs), so the inner loops never box an Item.
func (ex *Exec) evalStep(n *algebra.Node, in *Table) (*Table, error) {
	groups, err := CollectStepGroups(in)
	if err != nil {
		return nil, ex.errf(n, "%v", err)
	}
	var outIter []int64
	var outItem []xdm.NodeID
	for gi, g := range groups {
		if gi&(probeChunk-1) == 0 {
			if err := ex.CheckCancel(); err != nil {
				return nil, err
			}
		}
		for _, fc := range g.Frags {
			res := AxisScan(ex.store.Frag(fc.Frag), fc.Ctx, n.Axis, n.Test)
			for _, pre := range res {
				outIter = append(outIter, g.Iter)
				outItem = append(outItem, xdm.NodeID{Frag: fc.Frag, Pre: pre})
			}
		}
	}
	t := NewTable([]string{"iter", "item"})
	t.Data[0] = xdm.IntColumn(outIter)
	t.Data[1] = xdm.NodeColumn(outItem)
	return t, nil
}

// DedupSorted sorts preorder ranks ascending and removes duplicates,
// reusing the input slice's backing array.
func DedupSorted(pres []int32) []int32 {
	slices.Sort(pres)
	return slices.Compact(pres)
}

// ScanRegion is one pruned scan interval of a descendant(-or-self) axis
// evaluation: the preorder range [Start, End] dominated by context Ctx.
// Regions of one context set are disjoint and ascending, so they may be
// scanned independently (and subdivided) without changing the result.
type ScanRegion struct {
	Ctx        int32
	Start, End int32
}

// StaircaseRegions prunes a sorted duplicate-free context set for the
// descendant or descendant-or-self axis, returning the disjoint scan
// regions the staircase join walks.
func StaircaseRegions(f *xmltree.Fragment, ctx []int32, axis xquery.Axis) []ScanRegion {
	var out []ScanRegion
	scanned := int32(-1)
	for _, v := range ctx {
		if v <= scanned {
			continue // covered by an earlier context's subtree
		}
		start := v + 1
		if axis == xquery.AxisDescendantOrSelf {
			start = v
		}
		end := v + f.Size[v]
		if start <= end {
			out = append(out, ScanRegion{Ctx: v, Start: start, End: end})
		}
		scanned = end
	}
	return out
}

// ScanRegionRange scans the preorder subrange [lo, hi] of a descendant
// region rooted at ctx, appending matching ranks to a fresh slice.
// Subdividing a region into consecutive subranges and concatenating the
// outputs yields exactly the full-region scan.
func ScanRegionRange(f *xmltree.Fragment, ctx, lo, hi int32, test xquery.NodeTest) []int32 {
	var out []int32
	for c := lo; c <= hi; c++ {
		// Attributes are not on the descendant axis, but a context node is
		// on its own descendant-or-self axis even if it is an attribute.
		if (c == ctx || f.Kind[c] != xmltree.KindAttr) && TestMatch(f, c, xquery.AxisDescendant, test) {
			out = append(out, c)
		}
	}
	return out
}

// AxisScan evaluates one axis over a sorted, duplicate-free context set in
// one fragment, returning matching preorder ranks in document order.
func AxisScan(f *xmltree.Fragment, ctx []int32, axis xquery.Axis, test xquery.NodeTest) []int32 {
	var out []int32
	switch axis {
	case xquery.AxisDescendant, xquery.AxisDescendantOrSelf:
		// Staircase: skip contexts subsumed by the previous scan region.
		for _, reg := range StaircaseRegions(f, ctx, axis) {
			out = append(out, ScanRegionRange(f, reg.Ctx, reg.Start, reg.End, test)...)
		}
	case xquery.AxisChild:
		sorted := true
		last := int32(-1)
		for _, v := range ctx {
			end := v + f.Size[v]
			lvl := f.Level[v] + 1
			for c := v + 1; c <= end; c += f.Size[c] + 1 {
				if f.Kind[c] == xmltree.KindAttr {
					continue
				}
				if f.Level[c] == lvl && TestMatch(f, c, axis, test) {
					if c < last {
						sorted = false
					}
					last = c
					out = append(out, c)
				}
			}
		}
		if !sorted {
			out = DedupSorted(out) // children of distinct contexts are disjoint; sort restores doc order
		}
	case xquery.AxisAttribute:
		for _, v := range ctx {
			end := v + f.Size[v]
			for c := v + 1; c <= end && f.Kind[c] == xmltree.KindAttr && f.Level[c] == f.Level[v]+1; c++ {
				if TestMatch(f, c, axis, test) {
					out = append(out, c)
				}
			}
		}
	case xquery.AxisSelf:
		for _, v := range ctx {
			if TestMatch(f, v, axis, test) {
				out = append(out, v)
			}
		}
	case xquery.AxisParent:
		for _, v := range ctx {
			if p := f.Parent[v]; p >= 0 && TestMatch(f, p, axis, test) {
				out = append(out, p)
			}
		}
		out = DedupSorted(out)
	}
	return out
}

// TestMatch applies a node test; the principal node kind is attribute on
// the attribute axis and element elsewhere.
func TestMatch(f *xmltree.Fragment, pre int32, axis xquery.Axis, test xquery.NodeTest) bool {
	kind := f.Kind[pre]
	switch test.Kind {
	case xquery.TestNode:
		return true
	case xquery.TestText:
		return kind == xmltree.KindText
	case xquery.TestWild:
		if axis == xquery.AxisAttribute {
			return kind == xmltree.KindAttr
		}
		return kind == xmltree.KindElem
	default:
		if axis == xquery.AxisAttribute {
			return kind == xmltree.KindAttr && f.Name[pre] == test.Name
		}
		return kind == xmltree.KindElem && f.Name[pre] == test.Name
	}
}
