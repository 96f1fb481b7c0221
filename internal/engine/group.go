package engine

// Grouping is a compressed-sparse-row (CSR) index of an integer key
// column: the row ids of every key, ascending, in one flat array. Keys
// spanning at most about four times as many values as there are rows and
// lookups index a dense offset array directly; any other key set goes
// through one key→slot map. Either way the index costs a constant number of
// allocations, independent of the number of rows and keys — no per-key
// slices. It backs the equi-join index and the step operator's
// per-iteration context groups.
type Grouping struct {
	min  int64
	slot map[int64]int32 // nil: dense, the slot of key k is k-min
	off  []int32         // the rows of slot s are rows[off[s]:off[s+1]]
	rows []int32
	n    int // distinct keys
}

// GroupKeys builds the grouping of keys (row i has key keys[i]). probes
// is the number of Rows lookups the caller expects: a dense offset array
// costs one cleared word per spanned key, a map lookup a hash probe per
// lookup, so the dense array may span up to 4(len(keys)+probes) keys.
func GroupKeys(keys []int64, probes int) *Grouping {
	g := &Grouping{}
	n := len(keys)
	if n == 0 {
		g.off = make([]int32, 1)
		return g
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	g.min = lo
	var slots int
	var rowSlot []int32 // sparse only: each row's slot
	if span := uint64(hi) - uint64(lo) + 1; span != 0 && span <= 4*uint64(n+probes)+16 {
		slots = int(span)
		g.off = make([]int32, slots+1)
		for _, k := range keys {
			if g.off[k-lo]++; g.off[k-lo] == 1 {
				g.n++
			}
		}
	} else {
		g.slot = make(map[int64]int32, n)
		rowSlot = make([]int32, n)
		for r, k := range keys {
			s, ok := g.slot[k]
			if !ok {
				s = int32(len(g.slot))
				g.slot[k] = s
			}
			rowSlot[r] = s
		}
		slots, g.n = len(g.slot), len(g.slot)
		g.off = make([]int32, slots+1)
		for _, s := range rowSlot {
			g.off[s]++
		}
	}
	// Counts become end offsets; filling each slot from its end backwards
	// in descending row order then leaves off[s] at the slot's start and
	// the slot's rows ascending.
	for s := 1; s < slots; s++ {
		g.off[s] += g.off[s-1]
	}
	g.off[slots] = int32(n)
	g.rows = make([]int32, n)
	for r := n - 1; r >= 0; r-- {
		var s int64
		if rowSlot != nil {
			s = int64(rowSlot[r])
		} else {
			s = keys[r] - lo
		}
		g.off[s]--
		g.rows[g.off[s]] = int32(r)
	}
	return g
}

// Rows returns the ascending row ids with key k (empty when there are none).
func (g *Grouping) Rows(k int64) []int32 {
	var s uint64
	if g.slot != nil {
		v, ok := g.slot[k]
		if !ok {
			return nil
		}
		s = uint64(v)
	} else {
		s = uint64(k) - uint64(g.min)
		if k < g.min || s >= uint64(len(g.off)-1) {
			return nil
		}
	}
	return g.rows[g.off[s]:g.off[s+1]]
}

// Len returns the number of distinct keys.
func (g *Grouping) Len() int { return g.n }
