// Package online implements an incremental version of the paper's §III
// partitioned feasibility test: an admission engine that keeps live
// per-machine load state (EDF utilization sums, Liu–Layland counts, the
// hyperbolic product) across Admit / Remove / UpdateWCET calls instead
// of re-solving the whole instance on every mutation.
//
// Where a task lands is decided by a pluggable placement Policy
// (policy.go); the engine runs in one of two regimes according to
// Policy.Ordered():
//
//   - The ordered policy (FirstFitSorted) is the paper's order
//     (utilization-descending tasks, speed-ascending machines,
//     first-fit). Every mutation leaves the engine in exactly the state
//     a fresh partition.Solver.Solve(alpha) over the surviving task
//     multiset would produce — decisions, assignments and per-machine
//     load floats are byte-identical, which the differential tests
//     enforce. Mutations that land at the end of the order are
//     answered in O(log m) via a machine-capacity tree; interior
//     mutations replay only the affected suffix, and the replay walks
//     that suffix densely but does near-zero work per stationary task:
//     per-machine prefix-state checkpoints every K positions make
//     historical-state queries O(1) amortized, cached per-machine
//     admission thresholds let one comparison against a prefix maximum
//     over the dirtied machines dismiss a task whose placement provably
//     cannot change, and consecutive tasks re-folding onto the same
//     dirtied machine are fused into a run with deferred bookkeeping
//     (see replayFrom). Mutations recycle journal buffers through an
//     arena, so steady-state Admit/Remove/UpdateWCET allocate nothing.
//
// Batches of admissions go through AdmitBatch, which merges the whole
// batch into the placement order and runs one replay for all of its
// insertions, with all-or-nothing and best-effort failure modes.
//
//   - Local policies (FirstFitArrival, BestFit, WorstFit, KChoices,
//     PeriodicRepartition) place each task when it arrives by one
//     Policy.Select call against current aggregates and never revisit
//     earlier placements, so every operation is O(m) worst case and
//     O(log m) typical for the first-fit selectors. This forfeits the
//     sorted-order guarantee the paper's bounds are proved for; the gap
//     is observable as drift against the sorted solve, and the
//     repartitioner (repartition.go) measures it and proposes bounded
//     migration plans that restore it — automatically on a cadence
//     under the PeriodicRepartition policy wrapper.
//
// All mutations are transactional: a mutation that would leave a task
// unplaced is rolled back via an undo journal and the engine stays in
// its previous state, while the caller still receives the failed
// partition witness a fresh solve would have reported.
//
// The Force variants (ForceAdmit, ForceRemove, ForceUpdateWCET,
// ForceAdmitConstrained, NewEngineForce) commit such a result instead:
// the engine then holds an over-capacity resident set. Under the ordered
// policy that state is exactly what a fresh sorted solve declares — the
// prefix before the first task that fits nowhere stays placed, that task
// and every later one are unplaced — and later edits replay through the
// same suffix machinery. Under local policies a task that fits nowhere
// waits, unplaced, in arrival order, and every edit that frees capacity
// offers the waiting tasks to the policy again, so no waiting task ever
// fits a machine. A plain mutation of an over-capacity engine commits
// only when it leaves every task placed.
package online

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"partfeas/internal/dbf"
	"partfeas/internal/machine"
	"partfeas/internal/partition"
	"partfeas/internal/sched"
	"partfeas/internal/task"
)

// ErrInfeasible is returned by NewEngine when the initial task set does
// not place at the requested augmentation (NewEngineForce returns the
// over-capacity engine instead).
var ErrInfeasible = errors.New("online: initial task set infeasible at this augmentation")

// admKind mirrors the partition solver's fast-path selector; the engine
// supports exactly the admissions whose state folds incrementally.
type admKind int

const (
	admEDF admKind = iota
	admLL
	admHyperbolic
	// admDBF is the constrained-deadline tiered pipeline (dbfstate.go);
	// engines of this kind are built with Options.Deadlines.
	admDBF
)

// mach is one machine's live placement state: the task ids assigned to
// it in placement order, plus the cumulative left-folds of the admission
// aggregates after each placement. cum[i] is the machine's utilization
// load after placing placed[:i+1] — the exact float sequence a fresh
// solver produces, which is what makes prefix states recoverable without
// re-summing (and without re-rounding).
type mach struct {
	placed  []int32
	cum     []float64
	cumProd []float64 // hyperbolic only

	// admDBF only: parallel left-folds of the quantities the tiered
	// pipeline needs in O(1) — density sum, Σ(P−D)·w, Σ1/P and the
	// running max deadline — plus the machine's cached demand envelope:
	// the merged ascending testing-point set (each resident task's first
	// k deadlines, deduplicated) with per-point exact cumulative demand
	// (int64, drift-free) and approximate k-point demand (float64).
	cumDens []float64
	cumNum  []float64
	cumInvP []float64
	cumMaxD []int64
	envT    []int64
	envE    []int64
	envA    []float64
	// envGen is the machine's demand-envelope generation: a globally
	// unique, monotone stamp refreshed on every composition change, which
	// keys the exact-tier memo (stale entries can never collide because
	// generations are never reused, even across rollbacks).
	envGen uint64
	// envBad disables the envelope tiers until the next rebuild after an
	// int64 overflow in a cumulative demand (beyond the design envelope;
	// purely defensive).
	envBad bool
}

func (mc *mach) load() float64 {
	if len(mc.cum) == 0 {
		return 0
	}
	return mc.cum[len(mc.cum)-1]
}

func (mc *mach) prod() float64 {
	if len(mc.cumProd) == 0 {
		return 1
	}
	return mc.cumProd[len(mc.cumProd)-1]
}

func (mc *mach) densLoad() float64 {
	if len(mc.cumDens) == 0 {
		return 0
	}
	return mc.cumDens[len(mc.cumDens)-1]
}

func (mc *mach) numLoad() float64 {
	if len(mc.cumNum) == 0 {
		return 0
	}
	return mc.cumNum[len(mc.cumNum)-1]
}

func (mc *mach) invPLoad() float64 {
	if len(mc.cumInvP) == 0 {
		return 0
	}
	return mc.cumInvP[len(mc.cumInvP)-1]
}

func (mc *mach) maxDLoad() int64 {
	if len(mc.cumMaxD) == 0 {
		return 0
	}
	return mc.cumMaxD[len(mc.cumMaxD)-1]
}

// machSnap is one journaled machine state (the pre-mutation slices are
// moved here intact; the live machine continues on fresh copies).
type machSnap struct {
	j  int
	mc mach
}

type assignSnap struct{ id, mach int32 }

type editOp int

const (
	opNone editOp = iota
	opInsert
	opRemove
	opUpdate
	opBatchInsert
)

// edit records the structural change of the in-flight mutation so
// rollback can undo it without a full-state snapshot.
type edit struct {
	op      editOp
	id      int // task id; first batch id for opBatchInsert
	kOld    int // original placement-order position (opRemove, opUpdate); first merged position (opBatchInsert)
	oldWCET int64
	oldUtil float64
	oldDens float64 // admDBF only: pre-update density (opUpdate)
}

// OpStats describes how the engine executed its most recent mutation;
// the service layer reads it to classify admissions for metrics.
type OpStats struct {
	Tail       bool // end-of-order fast path or arrival-order local op
	ReplayFrom int  // first replayed position; -1 when no replay ran
	Visited    int  // suffix positions the replay actually visited
	BatchSize  int  // number of tasks offered (>1 for AdmitBatch)
	// MaxTier is the deepest admission tier any probe of the mutation
	// reached on a constrained-deadline engine: 1 density, 2 approximate
	// DBF, 3 exact FeasibleEDF; 0 on implicit-deadline engines.
	MaxTier int
}

// Engine is the incremental admission engine. It is not safe for
// concurrent use; callers serialize access (the service layer holds its
// per-session mutex around every call).
type Engine struct {
	adm     partition.AdmissionTest
	kind    admKind
	pol     Policy
	ordered bool // pol.Ordered(): the paper's sorted placement order
	alpha   float64

	p       machine.Platform
	machIdx []int     // scan order (speed-ascending), machine input indices
	machPos []int     // machine input index → position in machIdx
	speeds  []float64 // α-scaled speeds, input order

	tasks task.Set // arrival order; slice indices are the public task ids
	utils []float64

	sorted []int32 // task ids in placement order
	pos    []int32 // task id → index in sorted (int32: n < 2^31)
	assign []int32 // task id → machine input index; -1 while unplaced

	// unplaced counts the committed state's unplaced tasks (0 unless a
	// Force variant committed an over-capacity set). Under the ordered
	// policy they are exactly sorted[len(sorted)-unplaced:]. pendUnplaced
	// is the in-flight mutation's count, published by commit.
	unplaced     int
	pendUnplaced int

	// assignPub mirrors assign as []int for Result, maintained
	// incrementally at commit time: tasks whose machine changed are
	// exactly the journaled ones, so the refresh is O(changes), and a
	// rolled-back mutation never reaches the mirror.
	assignPub []int

	machs []mach

	tree   *capTree
	treeOK bool

	epoch    int
	dirty    []int // machine input index → epoch last dirtied
	minDirty int   // min dirtied machine position this epoch; m when none

	// Replay acceleration (per-epoch; reset by begin). dirtyPos lists
	// dirtied machines' scan positions ascending; dirtyTheta is the
	// parallel cache of each one's slack-inflated one-more-task capacity
	// (nextCap); dirtyIdx maps a dirtied machine's input index to its
	// slot in both. pmax caches inclusive prefix maxima of dirtyTheta
	// (pmax[i] = max(dirtyTheta[:i+1])); entries below the pmaxN
	// watermark are valid, the rest are recomputed lazily on read, so
	// "can any dirtied machine before position P admit u?" is one
	// comparison on the replay's hot path instead of a scan.
	dirtyPos   []int
	dirtyTheta []float64
	dirtyIdx   []int
	pmax       []float64
	pmaxN      int
	// thetaPos flattens the dirty set by scan position: thetaPos[pp] is
	// the cached threshold of the dirtied machine at position pp, NaN for
	// untouched machines. The replay's forward scan reads one float per
	// position instead of chasing dirty/dirtyIdx/dirtyTheta. Entries are
	// kept in sync with dirtyTheta and cleared lazily at the next begin.
	thetaPos []float64

	cps      *checkpoints // prefix-state checkpoints (ordered policy only)
	machPool []mach       // retired state triples (see arena.go)
	batchIDs []int32      // AdmitBatch scratch

	jMachs   []machSnap
	jAssigns []assignSnap
	ed       edit
	edTreeOK bool // treeOK at begin; commit/rollback restore it incrementally

	stats    OpStats
	loadsBuf []float64 // Result scratch

	// Periodic-repartition hook (PeriodicRepartition policies): after
	// every repartEvery-th successful top-level mutation the engine
	// plans and applies a full sorted-first-fit repartition. hookDepth
	// guards nested public calls (the batch undo path calls Remove)
	// from firing the hook mid-operation.
	repartEvery int
	repartCnt   int
	hookDepth   int

	// Constrained-deadline state (admDBF only; see dbfstate.go).
	dl       []int64   // task id → relative deadline
	dens     []float64 // task id → density C/D
	approxK  int       // envelope depth; ≤ 0 runs exact-only probes
	genCtr   uint64    // monotone source for mach.envGen
	tierCnt  [3]uint64 // cumulative probes decided per tier (density, approx, exact)
	memo     map[dbfMemoKey]bool
	candBuf  dbf.Set // scratch candidate for exact probes
	probeErr error   // first exact-test error of the in-flight mutation
}

// initState builds everything that does not depend on where tasks end
// up: machine scan order, placement order, and the empty state buffers.
// A restore (Options.Placed, restore.go) calls it and then folds the
// recorded placed lists instead of running the first-fit pass.
func (e *Engine) initState() {
	n, m := len(e.tasks), len(e.p)
	e.speeds = make([]float64, m)
	for j := range e.p {
		e.speeds[j] = e.alpha * e.p[j].Speed
	}
	e.machIdx = make([]int, m)
	for j := range e.machIdx {
		e.machIdx[j] = j
	}
	sort.SliceStable(e.machIdx, func(a, b int) bool {
		return partition.MachineLessSpeedAsc(e.p, e.machIdx[a], e.machIdx[b])
	})
	e.machPos = make([]int, m)
	for pp, j := range e.machIdx {
		e.machPos[j] = pp
	}

	e.sorted = make([]int32, n)
	for i := range e.sorted {
		e.sorted[i] = int32(i)
	}
	if e.ordered {
		sort.SliceStable(e.sorted, func(a, b int) bool {
			return e.less(e.sorted[a], e.sorted[b])
		})
	}
	e.pos = make([]int32, n)
	e.recomputePos(0)
	e.assign = make([]int32, n)
	e.assignPub = make([]int, n)
	e.machs = make([]mach, m)
	e.dirty = make([]int, m)
	for j := range e.dirty {
		e.dirty[j] = -1
	}
	e.minDirty = m
	e.tree = newCapTree(m)
	e.loadsBuf = make([]float64, m)
	e.dirtyPos = make([]int, 0, m)
	e.dirtyTheta = make([]float64, 0, m)
	e.dirtyIdx = make([]int, m)
	e.thetaPos = make([]float64, m)
	for i := range e.thetaPos {
		e.thetaPos[i] = math.NaN()
	}
	if e.ordered {
		e.cps = newCheckpoints(checkpointStride, m)
	}
}

// initPlacement runs the initial placement pass in placement order:
// every machine state is final-so-far, so aggregate tests (one policy
// Select per task) suffice. A task that fits nowhere is left unplaced;
// under the ordered policy so is every task after it, as in a fresh
// solve.
func (e *Engine) initPlacement() error {
	for i, id := range e.sorted {
		chosen := e.selectPlace(id)
		if err := e.takeProbeErr(); err != nil {
			return err
		}
		if chosen < 0 && e.ordered {
			for _, rest := range e.sorted[i:] {
				e.assign[rest], e.assignPub[rest] = -1, -1
			}
			e.unplaced = len(e.sorted) - i
			break
		}
		e.assign[id] = int32(chosen)
		e.assignPub[id] = chosen
		if chosen < 0 {
			e.unplaced++
			continue
		}
		e.place(chosen, id)
	}
	if e.cps != nil {
		e.cps.rebuildFrom(e, 0)
	}
	return nil
}

// takeProbeErr returns and clears the first exact-test error recorded by
// a constrained-deadline probe during the current pass (nil otherwise).
func (e *Engine) takeProbeErr() error {
	err := e.probeErr
	e.probeErr = nil
	return err
}

// LastOpStats reports how the engine executed its most recent mutation.
func (e *Engine) LastOpStats() OpStats { return e.stats }

// less is the engine's placement order on task ids. For admDBF it is
// dbf.FirstFit's stable sort made strict — density descending (the same
// float comparison), deadline ascending, then arrival id, which is
// exactly the tie-break a stable sort of ids gives.
func (e *Engine) less(a, b int32) bool {
	if !e.ordered {
		return a < b
	}
	if e.kind == admDBF {
		if da, db := e.dens[a], e.dens[b]; da != db {
			return da > db
		}
		if e.dl[a] != e.dl[b] {
			return e.dl[a] < e.dl[b]
		}
		return a < b
	}
	return partition.TaskLessUtilDesc(e.tasks, int(a), int(b))
}

// fitsAgg answers the admission query for task id on machine j against
// the machine's current aggregates — character-for-character the
// partition solver's fast paths, so both round identically.
func (e *Engine) fitsAgg(j int, id int32) bool {
	u := e.utils[id]
	speed := e.speeds[j]
	mc := &e.machs[j]
	switch e.kind {
	case admEDF:
		return mc.load()+u <= speed
	case admLL:
		return mc.load()+u <= sched.LiuLaylandBound(len(mc.placed)+1)*speed
	case admDBF:
		return e.fitsDBF(j, id)
	default: // admHyperbolic
		if speed <= 0 {
			return false
		}
		return mc.prod()*(u/speed+1) <= 2
	}
}

// prefixLen returns how many of machine j's placed tasks come strictly
// before placement-order position at. Placed lists are ordered by
// position, so the machine's exact state at that point is the
// corresponding prefix of its cumulative folds. The nearest checkpoint
// at-or-before at supplies a starting estimate; the bidirectional local
// scan makes the answer exact regardless of checkpoint staleness, and
// with fresh checkpoints it terminates within the stride's worth of
// placements (typically 0–2 steps).
func (e *Engine) prefixLen(j, at int) int {
	mc := &e.machs[j]
	x := 0
	if e.cps != nil {
		x = e.cps.hint(j, at)
		if x > len(mc.placed) {
			x = len(mc.placed)
		}
	}
	for x > 0 && int(e.pos[mc.placed[x-1]]) >= at {
		x--
	}
	for x < len(mc.placed) && int(e.pos[mc.placed[x]]) < at {
		x++
	}
	return x
}

// fitsAt answers the admission query for task id on an untouched machine
// j as of placement-order position at, reading the machine's historical
// state from its cumulative folds. Same expressions as fitsAgg.
func (e *Engine) fitsAt(j int, id int32, at int) bool {
	u := e.utils[id]
	speed := e.speeds[j]
	mc := &e.machs[j]
	x := e.prefixLen(j, at)
	var load float64
	if x > 0 {
		load = mc.cum[x-1]
	}
	switch e.kind {
	case admEDF:
		return load+u <= speed
	case admLL:
		return load+u <= sched.LiuLaylandBound(x+1)*speed
	case admDBF:
		return e.fitsAtDBF(j, id, x)
	default: // admHyperbolic
		if speed <= 0 {
			return false
		}
		prod := 1.0
		if x > 0 {
			prod = mc.cumProd[x-1]
		}
		return prod*(u/speed+1) <= 2
	}
}

// place appends task id to machine j's fold. The caller has already
// established admission and (during replays) journaled j.
func (e *Engine) place(j int, id int32) {
	mc := &e.machs[j]
	newLoad := mc.load() + e.utils[id]
	if e.kind == admDBF {
		// Fold the tier-1 aggregates before appending, then carry the
		// envelope forward (placeDBF reads the pre-append folds).
		e.placeDBF(j, id)
	}
	mc.placed = append(mc.placed, id)
	mc.cum = append(mc.cum, newLoad)
	if e.kind == admHyperbolic {
		mc.cumProd = append(mc.cumProd, mc.prod()*(e.utils[id]/e.speeds[j]+1))
	}
	if e.treeOK {
		e.tree.set(e.machPos[j], e.nextCap(j))
	}
	if e.dirty[j] == e.epoch {
		// Refresh the machine's cached threshold in place (same value
		// nextCap computes, reusing newLoad) — this runs once per
		// placement during replays.
		di := e.dirtyIdx[j]
		s := e.speeds[j]
		var th float64
		switch e.kind {
		case admEDF:
			th = s - newLoad + capSlack(s, newLoad)
		case admDBF:
			// The DBF admission's only utilization-shaped necessary
			// condition is FeasibleEDF's pre-check load+u ≤ s·(1+1e-12), so
			// that is the capacity the threshold over-estimates: skipping on
			// cap < u then exactly matches the pre-check rejection.
			th = s*(1+1e-12) - newLoad + capSlack(s, newLoad)
		case admLL:
			th = sched.LiuLaylandBound(len(mc.placed)+1)*s - newLoad + capSlack(s, newLoad)
		default: // admHyperbolic; s > 0 by construction
			th = s*(2/mc.prod()-1) + capSlack(s, newLoad)
		}
		e.dirtyTheta[di] = th
		e.thetaPos[e.machPos[j]] = th
		if di < e.pmaxN {
			e.pmaxN = di
		}
	}
}

// nextCap is machine j's capacity for one more task, slack-inflated for
// the capacity tree (see capTree).
func (e *Engine) nextCap(j int) float64 {
	s := e.speeds[j]
	mc := &e.machs[j]
	switch e.kind {
	case admEDF:
		return s - mc.load() + capSlack(s, mc.load())
	case admDBF:
		// Utilization keys against FeasibleEDF's pre-check capacity
		// s·(1+1e-12): a tree entry below u means load+u lands above the
		// pre-check tolerance, a conclusive (false, nil) DBF rejection —
		// never an error, because the pre-check runs first. (Density-based
		// keys would be unsound: density sums above the speed can still be
		// exactly feasible, so they would skip admissible machines and
		// break first-fit fidelity.)
		return s*(1+1e-12) - mc.load() + capSlack(s, mc.load())
	case admLL:
		return sched.LiuLaylandBound(len(mc.placed)+1)*s - mc.load() + capSlack(s, mc.load())
	default: // admHyperbolic
		if s <= 0 {
			return math.Inf(-1)
		}
		return s*(2/mc.prod()-1) + capSlack(s, mc.load())
	}
}

func (e *Engine) ensureTree() {
	if e.treeOK {
		return
	}
	for pp, j := range e.machIdx {
		e.tree.set(pp, e.nextCap(j))
	}
	e.treeOK = true
}

// firstFitAgg finds the first-fit machine for task id against current
// aggregates, using the capacity tree with exact re-verification at each
// candidate. Decisions are identical to a linear fitsAgg scan.
func (e *Engine) firstFitAgg(id int32) int {
	e.ensureTree()
	u := e.utils[id]
	from := 0
	for {
		pp := e.tree.firstAtLeast(u, from)
		if pp < 0 {
			return -1
		}
		j := e.machIdx[pp]
		if e.fitsAgg(j, id) {
			return j
		}
		from = pp + 1
	}
}

// selectPlace asks the policy for task id's machine against current
// aggregates — the local decision every non-replay placement makes
// (initial placement, tail admits, local WCET re-admission). Under
// FirstFitSorted and FirstFitArrival this is exactly the capacity-tree
// probe (firstFitAgg), so those engines behave identically to the
// pre-Policy orders; replayFrom never consults the policy because
// suffix replay is defined only for the ordered (first-fit) policy.
func (e *Engine) selectPlace(id int32) int { return e.pol.Select(View{e: e}, id) }

// enterOp / exitOp bracket every public mutation. When the outermost
// mutation of a PeriodicRepartition engine commits, exitOp counts it
// and, on every repartEvery-th commit, folds accumulated drift back by
// planning and applying a full sorted-first-fit repartition. Nested
// public calls (the all-or-nothing batch undo path calls Remove) never
// fire the hook mid-operation, and a failed repartition (infeasible
// target) is dropped: the engine's own state is feasible regardless,
// and the next window retries. Mutations that leave the engine over
// capacity neither count nor fire. exitOp reports whether a repartition
// was applied, so callers re-snapshot their Result only when the hook
// actually moved tasks — the common no-hook admit path must not pay a
// second O(m) snapshot.
func (e *Engine) enterOp() { e.hookDepth++ }

func (e *Engine) exitOp(mutated bool) bool {
	e.hookDepth--
	if !mutated || e.hookDepth != 0 || e.repartEvery <= 0 || e.unplaced > 0 {
		return false
	}
	e.repartCnt++
	if e.repartCnt < e.repartEvery {
		return false
	}
	e.repartCnt = 0
	if pl, err := e.PlanRepartition(); err == nil && pl.TargetFeasible {
		e.ApplyRepartition(pl, 0)
		return true
	}
	return false
}

// RepartCount reports the periodic-repartition hook's position in its
// cadence window: mutations committed since the last rebuild. Snapshot
// it alongside PlacedLists and hand it back via Options.RepartCnt, so a
// restored engine fires its next rebuild at the same mutation its
// never-restored twin does. Always 0 for non-repartitioning policies.
func (e *Engine) RepartCount() int { return e.repartCnt }

func (e *Engine) dirtyAt(j int) bool { return e.dirty[j] == e.epoch }

// begin opens a mutation's undo scope.
func (e *Engine) begin(ed edit) {
	e.edTreeOK = e.treeOK
	e.epoch++
	e.minDirty = len(e.machIdx)
	e.jMachs = e.jMachs[:0]
	e.jAssigns = e.jAssigns[:0]
	for _, pp := range e.dirtyPos { // clear the previous epoch's flat view
		e.thetaPos[pp] = math.NaN()
	}
	e.dirtyPos = e.dirtyPos[:0]
	e.dirtyTheta = e.dirtyTheta[:0]
	e.pmax = e.pmax[:0]
	e.pmaxN = 0
	e.ed = ed
	e.pendUnplaced = e.unplaced
}

// commit closes a successful mutation: the journaled pre-mutation state
// buffers return to the arena and the checkpoints past the edit position
// (the only ones the mutation could invalidate) are rebuilt exactly.
//
// If the capacity tree was fresh when the mutation began, it is brought
// back to fresh here by re-keying just the journaled machines instead of
// invalidating all m leaves: machines that changed without being
// journaled only ever gained load, so their (over-estimating) entries
// stay sound for the tree's probe-then-verify protocol, while every
// machine whose capacity grew was journaled by makeDirty or splice.
func (e *Engine) commit(from int) {
	refresh := e.edTreeOK && !e.treeOK
	for i := range e.jMachs {
		if refresh {
			j := e.jMachs[i].j
			e.tree.set(e.machPos[j], e.nextCap(j))
		}
		e.recycleMach(e.jMachs[i].mc)
		e.jMachs[i] = machSnap{}
	}
	if refresh {
		e.treeOK = true
	}
	e.jMachs = e.jMachs[:0]
	for i := range e.jAssigns {
		id := e.jAssigns[i].id
		e.assignPub[id] = int(e.assign[id])
	}
	e.jAssigns = e.jAssigns[:0]
	e.ed = edit{}
	e.unplaced = e.pendUnplaced
	if e.cps != nil {
		e.cps.rebuildFrom(e, from)
	}
}

// makeDirty journals machine j and truncates its placement to the exact
// state it had before placement-order position at; the truncated tasks
// all lie in the suffix being replayed (still assigned to j, which is
// now marked dirty — exactly how the replay recognizes them) and will
// be re-placed, possibly elsewhere, when the dense walk reaches them.
func (e *Engine) makeDirty(j, at int) {
	mc := &e.machs[j]
	e.jMachs = append(e.jMachs, machSnap{j: j, mc: *mc})
	x := e.prefixLen(j, at)
	nm := e.grabMach()
	nm.placed = append(nm.placed, mc.placed[:x]...)
	nm.cum = append(nm.cum, mc.cum[:x]...)
	if e.kind == admHyperbolic {
		nm.cumProd = append(nm.cumProd, mc.cumProd[:x]...)
	}
	if e.kind == admDBF {
		nm.cumDens = append(nm.cumDens, mc.cumDens[:x]...)
		nm.cumNum = append(nm.cumNum, mc.cumNum[:x]...)
		nm.cumInvP = append(nm.cumInvP, mc.cumInvP[:x]...)
		nm.cumMaxD = append(nm.cumMaxD, mc.cumMaxD[:x]...)
	}
	*mc = nm
	if e.kind == admDBF {
		e.rebuildEnvDBF(j)
	}
	e.noteDirty(j)
	e.treeOK = false
}

// noteDirty registers machine j as dirtied this epoch: marks its epoch,
// lowers minDirty, and inserts its scan position and threshold into the
// ascending dirtyPos/dirtyTheta arrays (few entries; linear shift,
// re-pointing dirtyIdx for each shifted machine).
func (e *Engine) noteDirty(j int) {
	e.dirty[j] = e.epoch
	pp := e.machPos[j]
	if pp < e.minDirty {
		e.minDirty = pp
	}
	di := len(e.dirtyPos)
	e.dirtyPos = append(e.dirtyPos, 0)
	e.dirtyTheta = append(e.dirtyTheta, 0)
	e.pmax = append(e.pmax, 0)
	for di > 0 && e.dirtyPos[di-1] > pp {
		e.dirtyPos[di] = e.dirtyPos[di-1]
		e.dirtyTheta[di] = e.dirtyTheta[di-1]
		e.dirtyIdx[e.machIdx[e.dirtyPos[di]]] = di
		di--
	}
	e.dirtyPos[di] = pp
	e.dirtyTheta[di] = e.nextCap(j)
	e.thetaPos[pp] = e.dirtyTheta[di]
	e.dirtyIdx[j] = di
	if di < e.pmaxN {
		e.pmaxN = di
	}
}

// preMax returns the largest inflated one-more-task capacity over the
// first lim entries of the dirty set, i.e. over every dirtied machine
// scanned before dirtyPos[lim] (-Inf when lim is 0). No task with a
// larger utilization can be admitted by any of those machines, so the
// replay collapses "scan the dirtied prefix" to this one comparison.
// Cascades dirty machines in ascending scan order and re-place onto the
// newest one, so the watermark almost always sits at the tail and the
// amortized cost is O(1) per query. (Keeping pmax exact — invalidating
// on every threshold refresh — measures ~3.5x faster end-to-end than a
// stale-upper-bound variant: the initial post-truncation thresholds are
// large, and freezing them into pmax makes the skip guard pass
// spuriously for most stationary tasks.)
func (e *Engine) preMax(lim int) float64 {
	if e.pmaxN < lim {
		return e.preMaxSlow(lim)
	}
	if lim <= 0 {
		return negInf
	}
	return e.pmax[lim-1]
}

// negInf hoists math.Inf(-1) so preMax stays within the inlining budget.
var negInf = math.Inf(-1)

// preMaxSlow extends the prefix-max watermark up to lim (> pmaxN ≥ 0 by
// the fast-path guard). Split out of preMax so the watermark-already-
// valid fast path inlines at call sites.
func (e *Engine) preMaxSlow(lim int) float64 {
	mt := negInf
	if e.pmaxN > 0 {
		mt = e.pmax[e.pmaxN-1]
	}
	for i := e.pmaxN; i < lim; i++ {
		if th := e.dirtyTheta[i]; th > mt {
			mt = th
		}
		e.pmax[i] = mt
	}
	e.pmaxN = lim
	return e.pmax[lim-1]
}

// firstDirtyGE returns the first dirty-set index below lim whose cached
// threshold is at least u. Prefix maxima are non-decreasing and the
// first index where the prefix max reaches u is exactly the first index
// where a threshold does, so this is a binary search over pmax instead
// of a linear threshold scan. The caller must have just observed
// preMax(lim) ≥ u, which both validates pmax[:lim] and guarantees a hit.
func (e *Engine) firstDirtyGE(u float64, lim int) int {
	lo, hi := 0, lim-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.pmax[mid] >= u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (e *Engine) journalAssign(id int32) {
	e.jAssigns = append(e.jAssigns, assignSnap{id: id, mach: e.assign[id]})
}

// recomputePos refreshes pos (task id → placement position) for
// sorted[from:]; every edit of sorted runs through here with from at or
// before the first changed position.
func (e *Engine) recomputePos(from int) {
	pos, sorted := e.pos, e.sorted
	for i := from; i < len(sorted); i++ {
		pos[sorted[i]] = int32(i)
	}
}

// replayFrom re-runs first-fit for sorted[k:] after a structural edit at
// position k, returning the id of the first unplaceable task or -1 on
// success. The prefix sorted[:k] is untouched by construction, so only
// the suffix can change — and most of it provably cannot:
//
//   - A suffix task still sitting on an untouched machine whose scan
//     position precedes every dirtied machine keeps its placement: the
//     machines it was rejected by and the machine that accepted it are
//     all in states identical to the previous run at that point.
//   - Otherwise, untouched machines that rejected the task before
//     still reject it (same state, same query), so only dirtied
//     machines before its old position plus everything from its old
//     position onward need re-testing; untouched machines are tested
//     against their historical prefix folds.
//
// The walk is dense — every suffix position is examined — because the
// classification needs no auxiliary marking: a task whose machine is
// dirty this epoch is pending re-placement (makeDirty truncated it), a
// task with no machine is a fresh insert, and anything else is a
// stationary candidate dismissed in O(1) when its machine precedes every
// dirtied one. Examining a position that turns out inert is always
// semantics-preserving; only placements change state.
//
// The dominant shape of a cascade is a run: consecutive truncated tasks
// re-folding onto the same dirtied machine, with every earlier dirtied
// machine too full to poach them. The run fast path fuses that case —
// one threshold comparison against the frozen prefix-max of earlier
// dirtied thresholds (their state cannot change while the run only
// appends to its own machine), the exact admission predicate on locally
// carried aggregates, and the fold append. No journaling (the
// assignment is unchanged), no threshold refresh (flushed once when the
// run breaks). Anything that falls out of the pattern — a poachable
// task, a rejection, another machine's task — flushes the run and takes
// the general path, which re-derives the decision from scratch, so
// decisions are byte-identical to the plain linear loop.
//
// Machines are journaled and truncated the first time the replay
// actually changes them, which both bounds the work and provides the
// undo log for rollback.
func (e *Engine) replayFrom(k int) int {
	m := len(e.machIdx)
	n := len(e.sorted)
	sorted, assign, utils := e.sorted, e.assign, e.utils
	kind := e.kind
	visited := 0

	// The edited task of an opUpdate must never ride a fast path: its
	// utilization changed, so its previous placement proves nothing.
	updID := int32(-1)
	if e.ed.op == opUpdate {
		updID = int32(e.ed.id)
	}

	// Active run: truncated tasks re-folding onto machine runF (-2 when
	// none; -1 would collide with a fresh task's unassigned machine).
	// Run fusion is disabled for admDBF — the fused inner loop appends
	// folds without maintaining the demand envelope, and a DBF admission
	// is not a pure fold over the carried locals anyway — so runF stays
	// -2 and every placement takes the general path.
	runF := -2
	fuse := kind != admDBF
	var mcF *mach
	var sF, loadF, prodF, preMaxF float64

	for i := k; i < n; i++ {
		id := sorted[i]
		old := int(assign[id])
		if old == runF && id != updID {
			// Fused inner loop: consume the whole run of consecutive
			// truncated tasks re-folding onto runF with the fold slice
			// headers held in locals, and write them back before anything
			// else can observe the machine.
			plF, cumF, cpF := mcF.placed, mcF.cum, mcF.cumProd
			for {
				u := utils[id]
				if u <= preMaxF { // an earlier dirtied machine may take it
					break
				}
				ok := false
				var newLoad, newProd float64
				switch kind {
				case admEDF:
					newLoad = loadF + u
					ok = newLoad <= sF
				case admLL:
					newLoad = loadF + u
					ok = newLoad <= sched.LiuLaylandBound(len(plF)+1)*sF
				default: // admHyperbolic
					newProd = prodF * (u/sF + 1)
					newLoad = loadF + u
					ok = newProd <= 2
				}
				if !ok {
					break
				}
				plF = append(plF, id)
				cumF = append(cumF, newLoad)
				if kind == admHyperbolic {
					cpF = append(cpF, newProd)
				}
				loadF, prodF = newLoad, newProd
				visited++
				i++
				if i >= n {
					break
				}
				id = sorted[i]
				old = int(assign[id])
				if old != runF || id == updID {
					break
				}
			}
			mcF.placed, mcF.cum, mcF.cumProd = plF, cumF, cpF
			if i >= n {
				break
			}
			if old == runF && id != updID {
				// The run machine (or an earlier dirtied one) now answers
				// differently for id: the run is over, re-derive below.
				e.flushRun(runF)
				runF = -2
			}
		}
		u := utils[id]
		if old >= 0 && !e.dirtyAt(old) {
			oldP := e.machPos[old]
			if oldP < e.minDirty {
				continue // no machine it ever saw has changed
			}
			moved := -1
			if diLim := e.dirtyBefore(oldP); diLim > 0 && u <= e.preMax(diLim) {
				for di := e.firstDirtyGE(u, diLim); di < diLim; di++ {
					if u <= e.dirtyTheta[di] {
						if j := e.machIdx[e.dirtyPos[di]]; e.fitsAgg(j, id) {
							moved = j
							break
						}
					}
				}
			}
			if moved < 0 {
				continue // stays exactly where it was
			}
			visited++
			if runF >= 0 {
				// makeDirty below may register a machine ahead of the run
				// machine in scan order; the frozen preMaxF would not cover
				// it, so the run cannot survive this placement.
				e.flushRun(runF)
			}
			e.makeDirty(old, i) // drops id (and later entries) from old
			e.journalAssign(id)
			e.assign[id] = int32(moved)
			e.place(moved, id)
			if fuse {
				runF = moved
				mcF = &e.machs[moved]
				sF = e.speeds[moved]
				loadF = mcF.load()
				prodF = mcF.prod()
				preMaxF = e.preMax(e.dirtyIdx[moved])
			}
			continue
		}
		visited++
		// Fresh task (old == -1) or its machine was truncated: full
		// first-fit scan, skipping untouched machines its previous run
		// already rejected. The skip is void for the edited task itself —
		// its utilization changed, so old rejections prove nothing — and
		// for a task that was never placed. Below the skip horizon only
		// dirtied machines can matter, so only they are probed there —
		// and usually not even they: a truncated task's machine sits at a
		// known dirty slot, every dirtied machine before it occupies the
		// slots below, and one preMax comparison rules them all out.
		skipBefore := -1
		diLim := 0
		if old >= 0 && id != updID {
			skipBefore = e.machPos[old]
			if e.dirtyAt(old) {
				diLim = e.dirtyIdx[old]
			} else {
				diLim = e.dirtyBefore(skipBefore)
			}
		}
		chosen := -1
		start := 0
		if skipBefore > 0 {
			if diLim > 0 && u <= e.preMax(diLim) {
				for di := e.firstDirtyGE(u, diLim); di < diLim; di++ {
					if u <= e.dirtyTheta[di] {
						if j := e.machIdx[e.dirtyPos[di]]; e.fitsAgg(j, id) {
							chosen = j
							break
						}
					}
				}
			}
			start = skipBefore
		}
		if chosen < 0 {
			thetaPos := e.thetaPos
			for pp := start; pp < m; pp++ {
				if th := thetaPos[pp]; th == th { // dirtied machine at pp
					if u <= th {
						if j := e.machIdx[pp]; e.fitsAgg(j, id) {
							chosen = j
							break
						}
					}
				} else if j := e.machIdx[pp]; e.fitsAt(j, id, i) {
					chosen = j
					break
				}
			}
		}
		if chosen < 0 {
			e.stats.Visited += visited
			return int(id)
		}
		if !e.dirtyAt(chosen) {
			e.makeDirty(chosen, i)
		}
		if int(e.assign[id]) != chosen {
			e.journalAssign(id)
			e.assign[id] = int32(chosen)
		}
		e.place(chosen, id)
		// Seed the refill run: subsequent tasks truncated off this (now
		// dirtied) machine can fuse until the pattern breaks. preMaxF is
		// computed after any makeDirty above, so it covers every dirtied
		// machine currently ahead of the run machine.
		if runF >= 0 && runF != chosen {
			e.flushRun(runF)
		}
		if fuse {
			runF = chosen
			mcF = &e.machs[chosen]
			sF = e.speeds[chosen]
			loadF = mcF.load()
			prodF = mcF.prod()
			preMaxF = e.preMax(e.dirtyIdx[chosen])
		}
	}
	if runF >= 0 {
		e.flushRun(runF)
	}
	e.stats.Visited += visited
	return -1
}

// flushRun writes a broken run's deferred threshold refresh: the run
// machine's cached theta and the prefix-max watermark, exactly as the
// final fused place would have left them.
func (e *Engine) flushRun(f int) {
	di := e.dirtyIdx[f]
	th := e.nextCap(f)
	e.dirtyTheta[di] = th
	e.thetaPos[e.machPos[f]] = th
	if di < e.pmaxN {
		e.pmaxN = di
	}
}

// dirtyBefore returns how many dirtied machines occupy scan positions
// strictly before pp (dirtyPos is ascending; inlined binary search).
func (e *Engine) dirtyBefore(pp int) int {
	lo, hi := 0, len(e.dirtyPos)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.dirtyPos[mid] < pp {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// failResult builds the partition.Result a fresh Solve over the
// surviving multiset reports when task failID cannot be placed: the
// prefix before the failure keeps its (byte-identical) assignment, the
// failing task and everything after it is unplaced, and per-machine
// loads are the folds as of the failure point. exclude ≥ 0 compacts
// task ids for a removal in flight (fresh solves of the shrunken set
// number tasks without it). The result is freshly allocated.
func (e *Engine) failResult(failID, exclude int) partition.Result {
	at := int(e.pos[failID])
	n := len(e.tasks)
	if exclude >= 0 {
		n--
	}
	as := make([]int, n)
	for id := 0; id < len(e.tasks); id++ {
		if id == exclude {
			continue
		}
		nid := id
		if exclude >= 0 && id > exclude {
			nid--
		}
		if id != failID && int(e.pos[id]) < at {
			as[nid] = int(e.assign[id])
		} else {
			as[nid] = -1
		}
	}
	loads := make([]float64, len(e.p))
	for j := range e.machs {
		if e.dirtyAt(j) {
			loads[j] = e.machs[j].load()
		} else if x := e.prefixLen(j, at); x > 0 {
			loads[j] = e.machs[j].cum[x-1]
		}
	}
	failed := failID
	if exclude >= 0 && failID > exclude {
		failed--
	}
	return partition.Result{Assignment: as, FailedTask: failed, Loads: loads, Alpha: e.alpha}
}

// rollback restores the pre-mutation state from the undo journal. The
// abandoned working buffers of every journaled machine return to the
// arena; checkpoints were never touched mid-mutation, so they are
// exact for the restored state as-is. Journaled machines are re-keyed in
// the capacity tree whenever it was fresh at begin or was rebuilt
// mid-mutation (a policy Select after a splice): a restored machine may
// have more capacity than its in-flight entry says.
func (e *Engine) rollback() {
	refresh := e.edTreeOK || e.treeOK
	for i := range e.jMachs {
		j := e.jMachs[i].j
		e.recycleMach(e.machs[j])
		e.machs[j] = e.jMachs[i].mc
		e.jMachs[i] = machSnap{}
		if refresh {
			e.tree.set(e.machPos[j], e.nextCap(j))
		}
	}
	if refresh {
		e.treeOK = true
	}
	e.jMachs = e.jMachs[:0]
	for i := len(e.jAssigns) - 1; i >= 0; i-- {
		e.assign[e.jAssigns[i].id] = e.jAssigns[i].mach
	}
	e.jAssigns = e.jAssigns[:0]
	switch e.ed.op {
	case opInsert:
		k := int(e.pos[e.ed.id])
		e.sorted = append(e.sorted[:k], e.sorted[k+1:]...)
		e.tasks = e.tasks[:len(e.tasks)-1]
		e.utils = e.utils[:len(e.utils)-1]
		e.assign = e.assign[:len(e.assign)-1]
		e.assignPub = e.assignPub[:len(e.assignPub)-1]
		e.pos = e.pos[:len(e.pos)-1]
		if e.kind == admDBF {
			e.dl = e.dl[:len(e.dl)-1]
			e.dens = e.dens[:len(e.dens)-1]
		}
		e.recomputePos(k)
	case opRemove:
		e.insertSorted(int32(e.ed.id), e.ed.kOld)
		e.recomputePos(e.ed.kOld)
	case opUpdate:
		e.tasks[e.ed.id].WCET = e.ed.oldWCET
		e.utils[e.ed.id] = e.ed.oldUtil
		if e.kind == admDBF {
			e.dens[e.ed.id] = e.ed.oldDens
		}
		cur := int(e.pos[e.ed.id])
		e.sorted = append(e.sorted[:cur], e.sorted[cur+1:]...)
		e.insertSorted(int32(e.ed.id), e.ed.kOld)
		if cur < e.ed.kOld {
			e.recomputePos(cur)
		} else {
			e.recomputePos(e.ed.kOld)
		}
	case opBatchInsert:
		n0 := int32(e.ed.id)
		w := 0
		for _, id := range e.sorted {
			if id < n0 {
				e.sorted[w] = id
				w++
			}
		}
		e.sorted = e.sorted[:w]
		e.tasks = e.tasks[:e.ed.id]
		e.utils = e.utils[:e.ed.id]
		e.assign = e.assign[:e.ed.id]
		e.assignPub = e.assignPub[:e.ed.id]
		e.pos = e.pos[:e.ed.id]
		if e.kind == admDBF {
			e.dl = e.dl[:e.ed.id]
			e.dens = e.dens[:e.ed.id]
		}
		e.recomputePos(e.ed.kOld)
	}
	e.ed = edit{}
}

func (e *Engine) insertSorted(id int32, k int) {
	e.sorted = append(e.sorted, 0)
	copy(e.sorted[k+1:], e.sorted[k:])
	e.sorted[k] = id
}

// Admit offers one more task to the engine. On acceptance the task joins
// the set with the id Len()-1 had before the call (arrival ids are
// stable append order) and res is the engine's new state; on rejection
// the engine is unchanged and res is the failed fresh-solve witness over
// the candidate set. res aliases no engine scratch on rejection; on
// acceptance it follows Result's aliasing rules.
func (e *Engine) Admit(t task.Task) (res partition.Result, admitted bool, err error) {
	return e.admit(t, false)
}

// ForceAdmit is Admit that always commits: a task that fits nowhere
// joins the set unplaced (see the package doc). res is the engine's new
// state and ok reports whether every resident task is placed.
func (e *Engine) ForceAdmit(t task.Task) (res partition.Result, ok bool, err error) {
	return e.admit(t, true)
}

func (e *Engine) admit(t task.Task, force bool) (res partition.Result, ok bool, err error) {
	if err := t.Validate(); err != nil {
		return partition.Result{}, false, fmt.Errorf("online: %w", err)
	}
	// On a constrained-deadline engine an implicit task is D = P.
	e.enterOp()
	res, ok, err = e.admitOne(t, t.Period, force)
	if e.exitOp(err == nil && (ok || force)) {
		res = e.Result() // re-snapshot past the applied repartition
	}
	return res, ok, err
}

// admitOne is the shared single-admit body; the caller has validated t
// (and, for admDBF, the relative deadline d — ignored otherwise).
func (e *Engine) admitOne(t task.Task, d int64, force bool) (res partition.Result, admitted bool, err error) {
	id := int32(len(e.tasks))
	f := len(e.sorted) - e.unplaced // first unplaced position
	e.tasks = append(e.tasks, t)
	e.utils = append(e.utils, t.Utilization())
	e.assign = append(e.assign, -1)
	e.assignPub = append(e.assignPub, -1)
	if e.kind == admDBF {
		e.dl = append(e.dl, d)
		e.dens = append(e.dens, float64(t.WCET)/float64(d))
	}

	k := len(e.sorted)
	if e.ordered {
		k = sort.Search(len(e.sorted), func(i int) bool { return e.less(id, e.sorted[i]) })
	}
	e.pos = append(e.pos, 0)
	e.insertSorted(id, k)
	e.recomputePos(k)
	e.begin(edit{op: opInsert, id: int(id)})
	e.pendUnplaced++

	if !e.ordered || e.unplaced == 0 && k == f {
		// End of the placement order (always, for local policies): every
		// machine's current aggregate is its state at this point, so the
		// policy selects against live state — for the first-fit policies
		// a single O(log m) capacity query (plus exact verification).
		e.stats = OpStats{Tail: true, ReplayFrom: -1, BatchSize: 1}
		chosen := e.selectPlace(id)
		if perr := e.takeProbeErr(); perr != nil {
			e.rollback()
			return partition.Result{}, false, fmt.Errorf("online: %w", perr)
		}
		failID := int(id)
		if chosen >= 0 {
			e.assignTo(chosen, id)
			e.pendUnplaced--
			failID = -1
		}
		res, admitted = e.settle(k, failID, -1, force)
		return res, admitted, nil
	}
	from := min(k, f)
	e.stats = OpStats{ReplayFrom: from, BatchSize: 1}
	failID := e.replayFrom(from)
	if perr := e.takeProbeErr(); perr != nil {
		e.rollback()
		return partition.Result{}, false, fmt.Errorf("online: %w", perr)
	}
	res, admitted = e.settle(from, failID, -1, force)
	return res, admitted, nil
}

// assignTo places task id on machine j at the end of the machine's
// fold. On an over-capacity engine the machine is journaled first: such
// a mutation may still roll back after placing (a plain mutation that
// leaves tasks waiting, a probe error in a later retry), while a
// mutation of a fully placed engine places only as its last step.
func (e *Engine) assignTo(j int, id int32) {
	if e.unplaced > 0 && !e.dirtyAt(j) {
		e.makeDirty(j, len(e.sorted))
	}
	e.journalAssign(id)
	e.assign[id] = int32(j)
	e.place(j, id)
}

// retryWaiting offers every waiting (unplaced) task to the policy again,
// in arrival order, after a local edit freed capacity. It keeps the
// local-policy invariant that no waiting task fits any machine.
func (e *Engine) retryWaiting() error {
	for id := 0; id < len(e.tasks) && e.pendUnplaced > 0; id++ {
		if e.assign[id] >= 0 {
			continue
		}
		j := e.selectPlace(int32(id))
		if perr := e.takeProbeErr(); perr != nil {
			return perr
		}
		if j >= 0 {
			e.assignTo(j, int32(id))
			e.pendUnplaced--
		}
	}
	return nil
}

// settle closes a mutation whose in-flight placement is complete. failID
// is the first task of the ordered policy's placement order left
// unplaced (-1 when none; local mutations track pendUnplaced instead),
// and exclude ≥ 0 names a removal in flight. A plain mutation commits
// only when every task is placed, otherwise it rolls back and res is the
// rejection witness; a forced one always commits. On commit res is the
// new state, and ok reports whether every task is placed.
func (e *Engine) settle(from, failID, exclude int, force bool) (res partition.Result, ok bool) {
	switch {
	case !e.ordered:
		if e.pendUnplaced > 0 && !force {
			res = e.localResult(exclude)
			e.rollback()
			return res, false
		}
	case failID < 0:
		e.pendUnplaced = 0
	case !force:
		res = e.failResult(failID, exclude)
		e.rollback()
		return res, false
	default:
		e.unplaceFrom(int(e.pos[failID]))
	}
	e.commit(from)
	if exclude >= 0 {
		e.compact(exclude) // after commit: the mirror refresh keys off pre-renumber ids
	}
	return e.Result(), e.unplaced == 0
}

// unplaceFrom commits an ordered failure at placement position at the
// way a fresh solve declares it: every task from at on is left
// unplaced, and every machine keeps exactly its folds from before at.
func (e *Engine) unplaceFrom(at int) {
	for j := range e.machs {
		if !e.dirtyAt(j) && e.prefixLen(j, at) < len(e.machs[j].placed) {
			e.makeDirty(j, at)
		}
	}
	for _, id := range e.sorted[at:] {
		if e.assign[id] >= 0 {
			e.journalAssign(id)
			e.assign[id] = -1
		}
	}
	e.pendUnplaced = len(e.sorted) - at
}

// localResult is a local-policy mutation's rejection witness: the
// in-flight placement it would have committed, without task exclude
// (a removal in flight, later ids compacted) when exclude ≥ 0.
func (e *Engine) localResult(exclude int) partition.Result {
	as := make([]int, 0, len(e.tasks))
	failed := -1
	for id := range e.tasks {
		if id == exclude {
			continue
		}
		if e.assign[id] < 0 && failed < 0 {
			failed = len(as)
		}
		as = append(as, int(e.assign[id]))
	}
	loads := make([]float64, len(e.p))
	for j := range e.machs {
		loads[j] = e.machs[j].load()
	}
	return partition.Result{Assignment: as, FailedTask: failed, Loads: loads, Alpha: e.alpha}
}

// Remove deletes task id (later ids shift down by one, mirroring the
// caller's slice semantics). Under the ordered policy the remainder is
// re-placed exactly as a fresh solve would place it; first-fit is not
// monotone under removals, so the shrunken set can fail — in that case
// the engine rolls back, ok is false, and res is the failed fresh-solve
// witness for the shrunken set. Under local policies removal is local
// (the machine's fold is re-closed over the surviving tasks and waiting
// tasks are offered the freed capacity).
func (e *Engine) Remove(id int) (res partition.Result, ok bool, err error) {
	return e.remove(id, false)
}

// ForceRemove is Remove that always commits, leaving the shrunken set
// over capacity when it does not place; ok reports whether it does.
func (e *Engine) ForceRemove(id int) (res partition.Result, ok bool, err error) {
	return e.remove(id, true)
}

func (e *Engine) remove(id int, force bool) (res partition.Result, ok bool, err error) {
	e.enterOp()
	res, ok, err = e.removeInner(id, force)
	if e.exitOp(err == nil && (ok || force)) {
		res = e.Result() // re-snapshot past the applied repartition
	}
	return res, ok, err
}

func (e *Engine) removeInner(id int, force bool) (res partition.Result, ok bool, err error) {
	if id < 0 || id >= len(e.tasks) {
		return partition.Result{}, false, fmt.Errorf("online: Remove task %d out of range [0, %d)", id, len(e.tasks))
	}
	if len(e.tasks) == 1 {
		return partition.Result{}, false, fmt.Errorf("online: cannot remove the last task")
	}
	o := int(e.assign[id])
	k := int(e.pos[id])
	f := len(e.sorted) - e.unplaced
	e.begin(edit{op: opRemove, id: id, kOld: k})
	e.sorted = append(e.sorted[:k], e.sorted[k+1:]...)
	e.recomputePos(k)
	if !e.ordered {
		// Local removal: close the machine's fold over the survivors, then
		// offer the freed capacity to the waiting tasks.
		e.stats = OpStats{Tail: true, ReplayFrom: -1}
		if o < 0 {
			e.pendUnplaced--
		} else {
			e.splice(o, int32(id))
			if perr := e.retryWaiting(); perr != nil {
				e.rollback()
				return partition.Result{}, false, fmt.Errorf("online: %w", perr)
			}
		}
		res, ok = e.settle(k, -1, id, force)
		return res, ok, nil
	}

	if o >= 0 {
		e.makeDirty(o, k) // drops id and every later entry on its machine
	}
	from := min(k, f)
	e.stats = OpStats{ReplayFrom: from}
	failID := e.replayFrom(from)
	if perr := e.takeProbeErr(); perr != nil {
		e.rollback()
		return partition.Result{}, false, fmt.Errorf("online: %w", perr)
	}
	res, ok = e.settle(from, failID, id, force)
	return res, ok, nil
}

// UpdateWCET changes task id's worst-case execution time. Under the
// ordered policy the task is re-ranked and the affected suffix
// replayed, leaving the engine byte-identical to a fresh solve over the
// updated multiset; on infeasibility the change is rolled back (ok
// false) and res is the failed fresh-solve witness for the updated set.
// Under local policies the task is re-admitted against current
// aggregates via the policy's Select (and waiting tasks are offered any
// capacity it freed); if a task is left unplaced the change rolls back
// likewise.
func (e *Engine) UpdateWCET(id int, wcet int64) (res partition.Result, ok bool, err error) {
	return e.updateWCET(id, wcet, false)
}

// ForceUpdateWCET is UpdateWCET that always commits, leaving the
// updated set over capacity when it does not place; ok reports whether
// it does.
func (e *Engine) ForceUpdateWCET(id int, wcet int64) (res partition.Result, ok bool, err error) {
	return e.updateWCET(id, wcet, true)
}

func (e *Engine) updateWCET(id int, wcet int64, force bool) (res partition.Result, ok bool, err error) {
	e.enterOp()
	res, ok, err = e.updateWCETInner(id, wcet, force)
	if e.exitOp(err == nil && (ok || force)) {
		res = e.Result() // re-snapshot past the applied repartition
	}
	return res, ok, err
}

func (e *Engine) updateWCETInner(id int, wcet int64, force bool) (res partition.Result, ok bool, err error) {
	if id < 0 || id >= len(e.tasks) {
		return partition.Result{}, false, fmt.Errorf("online: UpdateWCET task %d out of range [0, %d)", id, len(e.tasks))
	}
	if wcet <= 0 {
		return partition.Result{}, false, fmt.Errorf("online: UpdateWCET wcet %d must be positive", wcet)
	}
	if e.kind == admDBF && wcet > e.dl[id] {
		return partition.Result{}, false, fmt.Errorf("online: UpdateWCET wcet %d exceeds deadline %d (constrained model)", wcet, e.dl[id])
	}
	if wcet == e.tasks[id].WCET {
		return e.Result(), e.unplaced == 0, nil
	}
	o := e.assign[id]
	kOld := int(e.pos[id])
	f := len(e.sorted) - e.unplaced
	ed := edit{op: opUpdate, id: id, kOld: kOld, oldWCET: e.tasks[id].WCET, oldUtil: e.utils[id]}
	if e.kind == admDBF {
		ed.oldDens = e.dens[id]
	}
	e.begin(ed)
	e.tasks[id].WCET = wcet
	e.utils[id] = e.tasks[id].Utilization()
	if e.kind == admDBF {
		e.dens[id] = float64(wcet) / float64(e.dl[id])
	}
	if !e.ordered {
		// Local re-admission: splice the task out of its machine's fold,
		// re-select against current aggregates via the policy, then offer
		// any freed capacity to the waiting tasks. The placement order
		// (arrival order) is untouched either way.
		e.stats = OpStats{Tail: true, ReplayFrom: -1}
		if o >= 0 {
			e.splice(int(o), int32(id))
			e.journalAssign(int32(id))
			e.assign[id] = -1
			e.pendUnplaced++
		}
		chosen := e.selectPlace(int32(id))
		perr := e.takeProbeErr()
		if perr == nil && chosen >= 0 {
			e.assignTo(chosen, int32(id))
			e.pendUnplaced--
		}
		if perr == nil {
			perr = e.retryWaiting()
		}
		if perr != nil {
			e.rollback()
			return partition.Result{}, false, fmt.Errorf("online: %w", perr)
		}
		res, ok = e.settle(0, -1, -1, force)
		return res, ok, nil
	}

	e.sorted = append(e.sorted[:kOld], e.sorted[kOld+1:]...)
	kNew := sort.Search(len(e.sorted), func(i int) bool { return e.less(int32(id), e.sorted[i]) })
	e.insertSorted(int32(id), kNew)
	k := min(kOld, kNew)
	e.recomputePos(k)
	if o >= 0 {
		e.makeDirty(int(o), k)
	}
	from := min(k, f)
	e.stats = OpStats{ReplayFrom: from}
	failID := e.replayFrom(from)
	if perr := e.takeProbeErr(); perr != nil {
		e.rollback()
		return partition.Result{}, false, fmt.Errorf("online: %w", perr)
	}
	res, ok = e.settle(from, failID, -1, force)
	return res, ok, nil
}

// splice removes task id from machine j's fold locally, journaling j and
// re-closing the cumulative folds over the surviving tasks (local
// policies only; sorted-order removals go through the replay).
func (e *Engine) splice(j int, id int32) {
	mc := &e.machs[j]
	e.jMachs = append(e.jMachs, machSnap{j: j, mc: *mc})
	x := -1
	for i, pid := range mc.placed {
		if pid == id {
			x = i
			break
		}
	}
	nm := e.grabMach()
	nm.placed = append(nm.placed, mc.placed[:x]...)
	nm.cum = append(nm.cum, mc.cum[:x]...)
	if e.kind == admHyperbolic {
		nm.cumProd = append(nm.cumProd, mc.cumProd[:x]...)
	}
	if e.kind == admDBF {
		nm.cumDens = append(nm.cumDens, mc.cumDens[:x]...)
		nm.cumNum = append(nm.cumNum, mc.cumNum[:x]...)
		nm.cumInvP = append(nm.cumInvP, mc.cumInvP[:x]...)
		nm.cumMaxD = append(nm.cumMaxD, mc.cumMaxD[:x]...)
	}
	*mc = nm
	if e.kind == admDBF {
		e.rebuildEnvDBF(j)
	}
	for _, pid := range e.jMachs[len(e.jMachs)-1].mc.placed[x+1:] {
		e.place(j, pid)
	}
	e.noteDirty(j)
	e.treeOK = false
}

// compact renumbers task ids after a successful removal of r: ids above
// r shift down by one everywhere (tasks, folds, order, assignment).
func (e *Engine) compact(r int) {
	n := len(e.tasks)
	copy(e.tasks[r:], e.tasks[r+1:])
	e.tasks = e.tasks[:n-1]
	copy(e.utils[r:], e.utils[r+1:])
	e.utils = e.utils[:n-1]
	copy(e.assign[r:], e.assign[r+1:])
	e.assign = e.assign[:n-1]
	copy(e.assignPub[r:], e.assignPub[r+1:])
	e.assignPub = e.assignPub[:n-1]
	copy(e.pos[r:], e.pos[r+1:])
	e.pos = e.pos[:n-1]
	if e.kind == admDBF {
		copy(e.dl[r:], e.dl[r+1:])
		e.dl = e.dl[:n-1]
		copy(e.dens[r:], e.dens[r+1:])
		e.dens = e.dens[:n-1]
	}
	if r == n-1 {
		return // removed the largest id; nothing to renumber
	}
	r32 := int32(r)
	for i, id := range e.sorted {
		if id > r32 {
			e.sorted[i] = id - 1
		}
	}
	for j := range e.machs {
		for x, id := range e.machs[j].placed {
			if id > r32 {
				e.machs[j].placed[x] = id - 1
			}
		}
	}
}

// Result snapshots the engine's current state. An over-capacity state
// reports Feasible false with FailedTask the first unplaced task (in
// placement order; arrival order under local policies). Assignment and
// Loads alias engine-owned buffers and are only valid until the next
// mutation; use Result.Clone to retain one.
func (e *Engine) Result() partition.Result {
	for j := range e.machs {
		e.loadsBuf[j] = e.machs[j].load()
	}
	res := partition.Result{
		Feasible:   e.unplaced == 0,
		Assignment: e.assignPub,
		FailedTask: -1,
		Loads:      e.loadsBuf,
		Alpha:      e.alpha,
	}
	switch {
	case e.unplaced == 0:
	case e.ordered:
		res.FailedTask = int(e.sorted[len(e.sorted)-e.unplaced])
	default:
		for id, j := range e.assignPub {
			if j < 0 {
				res.FailedTask = id
				break
			}
		}
	}
	return res
}

// Feasible reports whether every resident task is placed, i.e. whether
// the engine holds no over-capacity set.
func (e *Engine) Feasible() bool { return e.unplaced == 0 }

// Len returns the number of resident tasks.
func (e *Engine) Len() int { return len(e.tasks) }

// Alpha returns the fixed augmentation every decision is made at.
func (e *Engine) Alpha() float64 { return e.alpha }

// PlacementPolicy returns the engine's placement policy.
func (e *Engine) PlacementPolicy() Policy { return e.pol }

// Tasks returns a copy of the resident task multiset in id order.
func (e *Engine) Tasks() task.Set { return e.tasks.Clone() }

// SelfCheck verifies the engine's internal invariants: the placement
// order is a valid permutation sorted by the order relation, positions
// invert it, every task sits on exactly one machine matching its
// assignment, placed lists are position-ordered (ordered policy), every
// cumulative fold re-derives bit-identically, every machine's final
// state satisfies its admission bound, and unplaced tasks are where the
// over-capacity semantics put them: the ordered policy's are a suffix of
// the order whose first task fits no machine, and no local policy's
// waiting task fits any machine. It is O(n log n + n·m) and meant for
// tests and debugging, not the hot path.
func (e *Engine) SelfCheck() error {
	n := len(e.tasks)
	if len(e.utils) != n || len(e.assign) != n || len(e.pos) != n || len(e.sorted) != n {
		return fmt.Errorf("online: inconsistent lengths")
	}
	seen := make([]bool, n)
	for i, id := range e.sorted {
		if id < 0 || int(id) >= n || seen[id] {
			return fmt.Errorf("online: sorted is not a permutation at %d", i)
		}
		seen[id] = true
		if int(e.pos[id]) != i {
			return fmt.Errorf("online: pos[%d] = %d, want %d", id, e.pos[id], i)
		}
		if i > 0 && !e.less(e.sorted[i-1], id) {
			return fmt.Errorf("online: sorted out of order at %d", i)
		}
	}
	placedOn := make([]int, n)
	for i := range placedOn {
		placedOn[i] = -1
	}
	for j := range e.machs {
		mc := &e.machs[j]
		if len(mc.cum) != len(mc.placed) {
			return fmt.Errorf("online: machine %d fold length mismatch", j)
		}
		load, prod := 0.0, 1.0
		for x, id := range mc.placed {
			if id < 0 || int(id) >= n || placedOn[id] >= 0 {
				return fmt.Errorf("online: task %d multiply placed", id)
			}
			placedOn[id] = j
			if e.ordered && x > 0 && e.pos[mc.placed[x-1]] >= e.pos[id] {
				return fmt.Errorf("online: machine %d placed list out of position order at %d", j, x)
			}
			load += e.utils[id]
			if math.Float64bits(load) != math.Float64bits(mc.cum[x]) {
				return fmt.Errorf("online: machine %d cum[%d] = %v, refold %v", j, x, mc.cum[x], load)
			}
			if e.kind == admHyperbolic {
				prod *= e.utils[id]/e.speeds[j] + 1
				if math.Float64bits(prod) != math.Float64bits(mc.cumProd[x]) {
					return fmt.Errorf("online: machine %d cumProd[%d] mismatch", j, x)
				}
			}
		}
		switch e.kind {
		case admEDF:
			if mc.load() > e.speeds[j] {
				return fmt.Errorf("online: machine %d overloaded: %v > %v", j, mc.load(), e.speeds[j])
			}
		case admLL:
			if len(mc.placed) > 0 && mc.load() > sched.LiuLaylandBound(len(mc.placed))*e.speeds[j] {
				return fmt.Errorf("online: machine %d violates Liu–Layland", j)
			}
		case admHyperbolic:
			if mc.prod() > 2 {
				return fmt.Errorf("online: machine %d violates hyperbolic bound", j)
			}
		}
	}
	if len(e.assignPub) != n {
		return fmt.Errorf("online: assignPub length %d, want %d", len(e.assignPub), n)
	}
	unplaced := 0
	for id := 0; id < n; id++ {
		if placedOn[id] != int(e.assign[id]) {
			return fmt.Errorf("online: task %d assigned to %d but placed on %d", id, e.assign[id], placedOn[id])
		}
		if e.assignPub[id] != int(e.assign[id]) {
			return fmt.Errorf("online: task %d assignPub %d out of sync with assign %d", id, e.assignPub[id], e.assign[id])
		}
		if e.assign[id] >= 0 {
			continue
		}
		unplaced++
		if e.ordered && int(e.pos[id]) < n-e.unplaced {
			return fmt.Errorf("online: task %d at position %d unplaced before the failure point %d", id, e.pos[id], n-e.unplaced)
		}
		if !e.ordered || int(e.pos[id]) == n-e.unplaced {
			for j := range e.machs {
				fits := e.fitsAgg(j, int32(id))
				if e.takeProbeErr() == nil && fits {
					return fmt.Errorf("online: unplaced task %d fits machine %d", id, j)
				}
			}
		}
	}
	if unplaced != e.unplaced {
		return fmt.Errorf("online: %d tasks unplaced, engine counts %d", unplaced, e.unplaced)
	}
	if e.treeOK { // a fresh capacity tree may over-estimate, never under-estimate
		for pp, j := range e.machIdx {
			if leaf := e.tree.max[e.tree.size+pp]; leaf < e.nextCap(j) {
				return fmt.Errorf("online: capacity tree under-estimates machine %d: %v < %v", j, leaf, e.nextCap(j))
			}
		}
	}
	if e.cps != nil {
		// Checkpoints must be exact between mutations: entry c holds every
		// machine's placement count strictly before position (c+1)·stride.
		if want := n / e.cps.stride; len(e.cps.plen) != want {
			return fmt.Errorf("online: %d checkpoints, want %d", len(e.cps.plen), want)
		}
		cnt := make([]int32, len(e.machs))
		for i := 0; i <= n; i++ {
			if i > 0 && i%e.cps.stride == 0 {
				row := e.cps.plen[i/e.cps.stride-1]
				for j := range cnt {
					if row[j] != cnt[j] {
						return fmt.Errorf("online: checkpoint at %d machine %d = %d, recount %d", i, j, row[j], cnt[j])
					}
				}
			}
			if i == n {
				break
			}
			if j := e.assign[e.sorted[i]]; j >= 0 {
				cnt[j]++
			}
		}
	}
	if e.kind == admDBF {
		if err := e.selfCheckDBF(); err != nil {
			return err
		}
	}
	return nil
}
