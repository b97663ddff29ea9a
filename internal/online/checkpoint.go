package online

// checkpointStride is the default spacing K between prefix-state
// checkpoints along the sorted placement order. The commit-time rebuild
// sweep costs O(m) per checkpoint, so a stride of the same magnitude as
// the machine count amortizes to O(1) extra work per swept position;
// and with K ≈ m the expected number of placements one machine receives
// inside a window is K/m ≈ 1, so a checkpoint hint lands within one
// step of the exact prefix length. The engine's differential tests run
// with several strides (including degenerate ones) to pin that the
// stride is a pure performance knob, never a semantic one.
const checkpointStride = 64

// checkpoints is the engine's prefix-state snapshot table: entry c
// stores, for every machine, how many of its placed tasks sit strictly
// before sorted position (c+1)·stride — the "assignment prefix length".
// Together with the machine's own cumulative folds (cum / cumProd,
// which carry the EDF sums and hyperbolic products at every prefix),
// a prefix length recovers the full historical machine state at that
// position in O(1).
//
// Freshness contract: after every committed mutation the table is exact
// (SelfCheck enforces it). During a mutation the suffix of the table
// past the edit position is stale by the position shift of the edit in
// flight; lookups therefore go through hint(), whose callers treat the
// value as a starting point and correct it by a local scan — stale
// entries cost a step or two, never a wrong answer.
type checkpoints struct {
	stride int
	m      int
	plen   [][]int32 // plen[c][j]: machine j's prefix length at position (c+1)·stride
	free   [][]int32 // recycled rows, so steady-state rebuilds allocate nothing
	cnt    []int32   // rebuild scratch
}

func newCheckpoints(stride, m int) *checkpoints {
	if stride < 1 {
		stride = 1
	}
	return &checkpoints{stride: stride, m: m, cnt: make([]int32, m)}
}

// hint returns a starting estimate for machine j's prefix length at
// sorted position at: the snapshot at the nearest checkpoint at-or-
// before at, or 0 when at precedes the first checkpoint. The caller
// corrects it by a local scan, so staleness is benign.
func (cp *checkpoints) hint(j, at int) int {
	c := at / cp.stride // number of checkpoint positions ≤ at
	if c == 0 {
		return 0
	}
	if c > len(cp.plen) {
		c = len(cp.plen)
	}
	if c == 0 {
		return 0
	}
	return int(cp.plen[c-1][j])
}

// rebuildFrom restores exactness for every checkpoint whose position
// exceeds k, given the engine's committed post-mutation state: it drops
// invalidated rows, re-sweeps sorted[base:] counting per-machine
// placements, and snapshots at each stride boundary. Checkpoints at
// positions ≤ k cover an untouched prefix and are kept as-is.
func (cp *checkpoints) rebuildFrom(e *Engine, k int) {
	n := len(e.sorted)
	keep := k / cp.stride // rows still valid: positions stride, …, keep·stride ≤ k
	want := n / cp.stride // rows the rebuilt table must have
	for i := want; i < len(cp.plen); i++ {
		cp.free = append(cp.free, cp.plen[i])
	}
	if len(cp.plen) > want {
		cp.plen = cp.plen[:want]
	}
	if keep >= want {
		return
	}
	cnt := cp.cnt
	if keep == 0 {
		for j := range cnt {
			cnt[j] = 0
		}
	} else {
		copy(cnt, cp.plen[keep-1])
	}
	// One window per missing row; positions past the last stride boundary
	// never feed a snapshot, so the sweep stops at want·stride.
	assign, sorted := e.assign, e.sorted
	base := keep * cp.stride
	for c := keep; c < want; c++ {
		hi := base + cp.stride
		for _, id := range sorted[base:hi] {
			if j := assign[id]; j >= 0 { // unplaced tasks count nowhere
				cnt[j]++
			}
		}
		base = hi
		if c == len(cp.plen) {
			cp.plen = append(cp.plen, cp.row())
		}
		copy(cp.plen[c], cnt)
	}
}

// row returns a recycled (or fresh) per-machine count row.
func (cp *checkpoints) row() []int32 {
	if ln := len(cp.free); ln > 0 {
		r := cp.free[ln-1]
		cp.free = cp.free[:ln-1]
		return r
	}
	return make([]int32, cp.m)
}
