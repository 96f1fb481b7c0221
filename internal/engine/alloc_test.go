package engine

import (
	"runtime/debug"
	"testing"

	"repro/internal/xdm"
)

// Allocation regression bounds for the typed column kernels. The bounds
// are deliberately loose (2-4x the measured counts) so they only trip on
// a regression back to per-row boxing, not on incidental churn; run with
// -run TestAlloc -v to see the measured values.

// TestAllocJoinProbeIntKeys pins the int64-keyed hash join probe: with
// reused perm buffers the probe loop itself must not allocate per row.
func TestAllocJoinProbeIntKeys(t *testing.T) {
	const rows = 4096
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = int64(i % 97)
	}
	rk := xdm.IntColumn(append([]int64(nil), keys...))
	lk := xdm.IntColumn(append([]int64(nil), keys...))
	ix := BuildJoinIndex(rk, rows)
	var lp, rp []int32
	lp, rp = ix.Probe(lk, 0, rows, nil, nil) // size the buffers once
	avg := testing.AllocsPerRun(20, func() {
		lp, rp = ix.Probe(lk, 0, rows, lp[:0], rp[:0])
	})
	if avg > 1 {
		t.Errorf("int-key probe allocates %.1f times per probe of %d rows, want <= 1", avg, rows)
	}
	if len(lp) != len(rp) || len(lp) == 0 {
		t.Fatalf("probe produced %d/%d pairs", len(lp), len(rp))
	}
}

// TestAllocRowIDStamp pins the # stamp: one pooled integer buffer and a
// constant handful of wrapper allocations, independent of row count.
func TestAllocRowIDStamp(t *testing.T) {
	const rows = 8192
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(rows - i)
	}
	tab := NewTable([]string{"v"})
	tab.Data[0] = xdm.IntColumn(vals)
	avg := testing.AllocsPerRun(20, func() {
		out := tab.withColumn("id", xdm.IntColumn(stampInts(rows)))
		xdm.RecycleColumn(out.Col("id")) // return the buffer: steady-state pooling
	})
	// Pool hit: the int buffer is recycled, leaving only the Column
	// wrapper and the table's slice/index copies.
	if avg > 12 {
		t.Errorf("# stamp allocates %.1f times for %d rows, want <= 12 (row-independent)", avg, rows)
	}
}

// stampInts is the OpRowID kernel body, isolated for the bound.
func stampInts(rows int) []int64 {
	num := xdm.GetInts(rows)
	for i := range num {
		num[i] = int64(i + 1)
	}
	return num
}

// Exact-count gates for the CSR grouping: the join index and the step
// operator's per-iteration context groups must allocate a fixed number of
// times however many keys or iterations they group — no per-key slices,
// no per-iteration maps. The collector is paused while counting: a GC
// cycle's own bookkeeping allocations would otherwise land in the count.

// allocsNoGC is testing.AllocsPerRun with the garbage collector off.
func allocsNoGC(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

func TestAllocJoinIndexConstant(t *testing.T) {
	allocs := func(n int) float64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(i % (n/3 + 1)) // duplicates, dense range
		}
		rk := xdm.IntColumn(keys)
		return allocsNoGC(10, func() { BuildJoinIndex(rk, n) })
	}
	small, large := allocs(1<<10), allocs(1<<16)
	if small != large {
		t.Errorf("BuildJoinIndex allocates %.0f times for 1Ki keys and %.0f for 64Ki keys; want a constant", small, large)
	}
	if large > 4 {
		t.Errorf("BuildJoinIndex allocates %.0f times, want <= 4", large)
	}
}

func TestAllocStepGroupsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		iters := make([]int64, n)
		nodes := make([]xdm.NodeID, n)
		for i := range iters {
			iters[i] = int64(i + 1)
			nodes[i] = xdm.NodeID{Pre: int32(n - i)}
		}
		in := NewTable([]string{"iter", "item"})
		in.Data[0] = xdm.IntColumn(iters)
		in.Data[1] = xdm.NodeColumn(nodes)
		return allocsNoGC(10, func() {
			if _, err := CollectStepGroups(in); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1<<10), allocs(1<<16)
	if small != large {
		t.Errorf("CollectStepGroups allocates %.0f times for 1Ki iterations and %.0f for 64Ki; want a constant", small, large)
	}
	if large > 10 {
		t.Errorf("CollectStepGroups allocates %.0f times, want <= 10", large)
	}
}
