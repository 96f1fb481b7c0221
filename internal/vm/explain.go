package vm

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/xdm"
)

// colType is the statically inferred storage type of an output column,
// printed by Explain next to each instruction. It is the compile-time
// shadow of xdm.ColKind: ctUnknown marks columns whose type depends on
// run-time values (item-level binop/map results before the builder's
// homogeneity detection), where the explain dump prints "?" rather than
// over-claim.
type colType uint8

const (
	ctUnknown colType = iota
	ctInt
	ctBool
	ctDouble
	ctString
	ctUntyped
	ctNode
	ctItems
)

func (c colType) String() string {
	switch c {
	case ctInt:
		return "int"
	case ctBool:
		return "bool"
	case ctDouble:
		return "double"
	case ctString:
		return "str"
	case ctUntyped:
		return "untyped"
	case ctNode:
		return "node"
	case ctItems:
		return "items"
	default:
		return "?"
	}
}

func fromColKind(k xdm.ColKind) colType {
	switch k {
	case xdm.ColInt:
		return ctInt
	case xdm.ColBool:
		return ctBool
	case xdm.ColDouble:
		return ctDouble
	case xdm.ColString:
		return ctString
	case xdm.ColUntyped:
		return ctUntyped
	case xdm.ColNode:
		return ctNode
	default:
		return ctItems
	}
}

// inferKinds derives the static column types of n's output from its
// inputs' (already inferred) types. The rules mirror the kernels'
// actual output shapes: numbering columns are integers, step/doc
// outputs are nodes, filters and projections propagate. The inference
// is explain-only — kernels re-check at run time — so unknown is always
// a safe answer and nothing here may panic.
func inferKinds(n *algebra.Node, ins *instr, kindsOf map[*algebra.Node][]colType) []colType {
	in := func(i int) []colType {
		if i < len(n.Ins) {
			if k, ok := kindsOf[n.Ins[i]]; ok {
				return k
			}
		}
		return nil
	}
	at := func(k []colType, i int) colType {
		if i >= 0 && i < len(k) {
			return k[i]
		}
		return ctUnknown
	}
	unknowns := func(cols int) []colType { return make([]colType, cols) }

	switch n.Kind {
	case algebra.OpLit:
		// The literal table is already built: read the actual kinds.
		if ins.lit == nil {
			return unknowns(len(n.Cols))
		}
		out := make([]colType, len(ins.lit.Data))
		for i, c := range ins.lit.Data {
			out[i] = fromColKind(c.Kind())
		}
		return out
	case algebra.OpDoc:
		return []colType{ctNode}
	case algebra.OpStep:
		return []colType{ctInt, ctNode}
	case algebra.OpElem, algebra.OpAttr:
		return []colType{ctInt, ctNode}
	case algebra.OpRange:
		return []colType{ctInt, ctInt, ctInt}
	case algebra.OpProject:
		src := in(0)
		out := make([]colType, len(n.Proj))
		for i := range n.Proj {
			if ins.cols != nil {
				out[i] = at(src, ins.cols[i])
			}
		}
		return out
	case algebra.OpSelect, algebra.OpSemi, algebra.OpDiff, algebra.OpCheckCard:
		if k := in(0); k != nil {
			return k
		}
		return unknowns(len(n.Schema()))
	case algebra.OpJoin, algebra.OpCross, algebra.OpValueJoin:
		l, r := in(0), in(1)
		if l == nil || r == nil {
			return unknowns(len(n.Schema()))
		}
		return append(append([]colType{}, l...), r...)
	case algebra.OpRowID, algebra.OpRowNum:
		l := in(0)
		if l == nil {
			return unknowns(len(n.Schema()))
		}
		return append(append([]colType{}, l...), ctInt)
	case algebra.OpUnion:
		l, r := in(0), in(1)
		out := make([]colType, len(n.Schema()))
		for i := range out {
			lk := at(l, i)
			ri := i
			if ins.cols != nil {
				ri = ins.cols[i]
			}
			if rk := at(r, ri); rk == lk {
				out[i] = lk
			} else {
				out[i] = ctItems
			}
		}
		return out
	case algebra.OpDistinct:
		src, schema := in(0), n.Ins[0].Schema()
		out := make([]colType, len(n.Cols))
		for i, name := range n.Cols {
			out[i] = at(src, colIndex(schema, name))
		}
		return out
	case algebra.OpAggr:
		var res colType
		switch n.AFn {
		case algebra.AggrCount:
			res = ctInt
		case algebra.AggrEbv:
			res = ctBool
		case algebra.AggrStrJoin:
			res = ctString
		}
		if n.Part != "" {
			part := at(in(0), colIndex(n.Ins[0].Schema(), n.Part))
			return []colType{part, res}
		}
		return []colType{res}
	case algebra.OpBinOp, algebra.OpMap1:
		l := in(0)
		if l == nil {
			return unknowns(len(n.Schema()))
		}
		return append(append([]colType{}, l...), ctUnknown)
	}
	return unknowns(len(n.Schema()))
}

// Explain renders the program: one line per instruction with its
// register assignment, pre-resolved operands, the plan node it came from
// (#id, joinable against the EXPLAIN ANALYZE annotations), the inferred
// output column types, and the registers it releases. The companion view
// to opt.Explain's annotated algebra print.
func (p *Program) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program: %d instructions, %d registers, %d document slot(s)\n",
		len(p.instrs), p.nregs, len(p.docs))
	for i, uri := range p.docs {
		fmt.Fprintf(&b, "  d%d = doc %q\n", i, uri)
	}
	for i := range p.instrs {
		ins := &p.instrs[i]
		fmt.Fprintf(&b, "%04d  r%-3d = %-36s ; #%d %s",
			i, ins.dst, operandText(ins), ins.node.ID, algebra.Label(ins.node))
		if ins.op != opParFork {
			kinds := make([]string, len(ins.kinds))
			for j, k := range ins.kinds {
				kinds[j] = k.String()
			}
			fmt.Fprintf(&b, "  [%s]", strings.Join(kinds, ","))
			if ins.extraUses > 0 {
				fmt.Fprintf(&b, "  uses=%d", ins.extraUses+1)
			}
			if len(ins.release) > 0 {
				regs := make([]string, len(ins.release))
				for j, r := range ins.release {
					regs[j] = fmt.Sprintf("r%d", r)
				}
				fmt.Fprintf(&b, "  free=%s", strings.Join(regs, ","))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// operandText renders an instruction's mnemonic and operands.
func operandText(ins *instr) string {
	srcs := make([]string, len(ins.srcs))
	for i, r := range ins.srcs {
		srcs[i] = fmt.Sprintf("r%d", r)
	}
	args := strings.Join(srcs, " ")
	name := kernelName(ins)
	switch ins.op {
	case opParFork:
		return strings.TrimSpace("fork " + name + " " + args)
	case opParJoin:
		return "join " + name
	}
	switch ins.kernel {
	case opLit:
		return fmt.Sprintf("lit (%d rows)", ins.lit.NumRows())
	case opProject:
		return fmt.Sprintf("%s %s %v", name, args, ins.cols)
	case opSelect:
		return fmt.Sprintf("%s %s cond@%d", name, args, ins.cols[0])
	case opUnion:
		return fmt.Sprintf("%s %s map=%v", name, args, ins.cols)
	case opDoc:
		return fmt.Sprintf("%s d%d", name, ins.slot)
	}
	return strings.TrimSpace(name + " " + args)
}

// kernelName is the mnemonic: the specialized opcode's own name, or the
// algebra operator name for generic (engine-dispatched) instructions.
func kernelName(ins *instr) string {
	switch ins.kernel {
	case opLit:
		return "lit"
	case opProject:
		return "project"
	case opSelect:
		return "select"
	case opRowID:
		return "rowid"
	case opUnion:
		return "union"
	case opDoc:
		return "doc"
	}
	return ins.node.Kind.String()
}
