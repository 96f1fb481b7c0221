package engine

import (
	"math"
	"slices"
	"testing"
)

// TestGroupKeys checks the CSR grouping against a map of row lists on
// both layouts: dense key ranges, sparse ones, and keys at the ends of
// the int64 range (whose span overflows).
func TestGroupKeys(t *testing.T) {
	for name, keys := range map[string][]int64{
		"empty":   nil,
		"dense":   {3, 1, 3, 2, 1, 3, 7},
		"sparse":  {5, 1 << 40, 5, -1 << 40, 1 << 40, 0},
		"extreme": {math.MaxInt64, math.MinInt64, 0, math.MaxInt64},
	} {
		want := map[int64][]int32{}
		for r, k := range keys {
			want[k] = append(want[k], int32(r))
		}
		g := GroupKeys(keys, 0)
		if g.Len() != len(want) {
			t.Errorf("%s: %d distinct keys, want %d", name, g.Len(), len(want))
		}
		for k, rows := range want {
			if got := g.Rows(k); !slices.Equal(got, rows) {
				t.Errorf("%s: Rows(%d) = %v, want %v", name, k, got, rows)
			}
		}
		for _, k := range []int64{-2, 4, 6, 1 << 39, math.MinInt64 + 1} {
			if _, ok := want[k]; !ok && len(g.Rows(k)) != 0 {
				t.Errorf("%s: Rows(%d) = %v for an absent key", name, k, g.Rows(k))
			}
		}
	}
}
