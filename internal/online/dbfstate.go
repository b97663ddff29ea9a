package online

// Constrained-deadline (DBF) admission for the online engine: the tiered
// pipeline. Engines of kind admDBF are built by NewEngine with
// Options.Deadlines and admit through a three-stage probe per machine:
//
//	tier 1 (density):   O(1) against the machine's cached folds — the
//	                    utilization pre-check rejects bitwise-identically
//	                    to FeasibleEDF's own, and a total density under
//	                    the speed accepts.
//	tier 2 (approx):    the Albers–Slomka k-point band over the machine's
//	                    cached demand envelope — exact int64 demand at a
//	                    cached point rejects, the approximate dbf under
//	                    the speed line at every jump point accepts.
//	tier 3 (exact):     dbf.FeasibleEDF over the candidate, memoized
//	                    against the machine's envelope generation.
//
// Every cheap-tier verdict is conclusive: it equals what FeasibleEDF
// would return for the same candidate, errors included, which is what
// keeps the engine's decisions and assignments byte-identical to a fresh
// dbf.FirstFit solve (the property the differential tests enforce). Any
// probe that cannot guarantee that — a margin case, an unsafe horizon —
// falls through to the exact test. See dbf.TieredFeasibleEDF for the
// single-shot version of the same pipeline and the conclusiveness
// arguments; the engine's variants only substitute cached folds and
// envelopes for the fresh scans.
//
// The envelope is maintained incrementally: placing a task folds its
// demand into every cached point and inserts its own first k deadlines
// (evaluating only the residents at genuinely new points); removals and
// truncations rebuild the machine's envelope from its surviving placed
// list. The exact-tier memo is keyed by (machine, envelope generation,
// candidate parameters); generations come from a never-reused global
// counter, so entries written during a later-rolled-back mutation can
// never collide with a live state.

import (
	"fmt"
	"math"
	"sort"

	"partfeas/internal/dbf"
	"partfeas/internal/partition"
	"partfeas/internal/task"
)

const (
	// maxConstrainedPeriod caps periods (hence deadlines) on constrained
	// engines so every envelope point D + (k−1)·P stays below ~2^46 and
	// per-point demand arithmetic is far from int64 range.
	maxConstrainedPeriod = int64(1) << 40
	// maxApproxK caps the envelope depth; deeper linearizations add cost
	// with no measurable accuracy gain.
	maxApproxK = 64
	// dbfMemoCap bounds the exact-tier memo; the map is emptied (keeping
	// its buckets) when it fills.
	dbfMemoCap = 4096
)

// Tier indices recorded by noteTier; aligned with dbf.Tier.
const (
	tierDensity = int(dbf.TierDensity)
	tierApprox  = int(dbf.TierApprox)
	tierExact   = int(dbf.TierExact)
)

// dbfMemoKey identifies one exact-tier verdict: the machine, its demand
// envelope generation, and the candidate task's parameters.
type dbfMemoKey struct {
	j       int32
	gen     uint64
	c, d, p int64
}

// validateConstrained is the admission-time validity check for one
// constrained task: well-formed (C ≤ D ≤ P) and under the period cap.
func validateConstrained(t dbf.Task) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if t.Period > maxConstrainedPeriod {
		return fmt.Errorf("task %q: period %d exceeds the constrained-deadline cap %d", t.Name, t.Period, maxConstrainedPeriod)
	}
	return nil
}

// AdmitConstrained offers one constrained-deadline task. On an
// implicit-deadline engine the task must itself be implicit (D = P) and
// is forwarded to Admit.
func (e *Engine) AdmitConstrained(t dbf.Task) (res partition.Result, admitted bool, err error) {
	return e.admitConstrained(t, false)
}

// ForceAdmitConstrained is AdmitConstrained with ForceAdmit's commit
// semantics.
func (e *Engine) ForceAdmitConstrained(t dbf.Task) (res partition.Result, ok bool, err error) {
	return e.admitConstrained(t, true)
}

func (e *Engine) admitConstrained(t dbf.Task, force bool) (res partition.Result, ok bool, err error) {
	if verr := validateConstrained(t); verr != nil {
		return partition.Result{}, false, fmt.Errorf("online: %w", verr)
	}
	tt := task.Task{Name: t.Name, WCET: t.WCET, Period: t.Period}
	if e.kind != admDBF {
		if t.Deadline != t.Period {
			return partition.Result{}, false, fmt.Errorf("online: implicit-deadline engine cannot admit constrained deadline %d < period %d", t.Deadline, t.Period)
		}
		return e.admit(tt, force)
	}
	return e.admitOne(tt, t.Deadline, force)
}

// AdmitBatchConstrained is AdmitBatch for constrained-deadline tasks;
// the batch shares one merged replay exactly like the implicit path.
func (e *Engine) AdmitBatchConstrained(ts dbf.Set, mode BatchMode) (partition.Result, []bool, error) {
	switch mode {
	case BestEffort, AllOrNothing:
	default:
		return partition.Result{}, nil, fmt.Errorf("online: unknown batch mode %v", mode)
	}
	if e.kind != admDBF {
		return partition.Result{}, nil, fmt.Errorf("online: constrained batch admission needs a constrained-deadline engine")
	}
	tts := make([]task.Task, len(ts))
	dls := make([]int64, len(ts))
	for i, t := range ts {
		if err := validateConstrained(t); err != nil {
			return partition.Result{}, nil, fmt.Errorf("online: batch task %d: %w", i, err)
		}
		tts[i] = task.Task{Name: t.Name, WCET: t.WCET, Period: t.Period}
		dls[i] = t.Deadline
	}
	return e.admitBatch(tts, dls, mode)
}

// ApproxK reports the tiered pipeline's linearization depth (≤ 0 means
// exact-only probes).
func (e *Engine) ApproxK() int { return e.approxK }

// Deadline returns task id's relative deadline (the period on
// implicit-deadline engines).
func (e *Engine) Deadline(id int) int64 {
	if e.kind == admDBF {
		return e.dl[id]
	}
	return e.tasks[id].Period
}

// TierCounts returns the cumulative number of admission probes decided
// by each tier since construction. All three are zero on
// implicit-deadline engines.
func (e *Engine) TierCounts() (density, approx, exact uint64) {
	return e.tierCnt[0], e.tierCnt[1], e.tierCnt[2]
}

// ConstrainedTasks returns a copy of the resident multiset as a dbf.Set
// in id order (implicit engines report D = P).
func (e *Engine) ConstrainedTasks() dbf.Set {
	s := make(dbf.Set, len(e.tasks))
	for i, t := range e.tasks {
		s[i] = dbf.Task{Name: t.Name, WCET: t.WCET, Deadline: e.Deadline(i), Period: t.Period}
	}
	return s
}

// noteTier records the tier that decided a probe.
func (e *Engine) noteTier(t int) {
	if t > e.stats.MaxTier {
		e.stats.MaxTier = t
	}
	e.tierCnt[t-1]++
}

// nextGen mints a fresh, never-reused envelope generation.
func (e *Engine) nextGen() uint64 {
	e.genCtr++
	return e.genCtr
}

// fitsDBF answers the DBF admission query for task id against machine
// j's current aggregates through the tiered pipeline. The verdict equals
// dbf.FeasibleEDF over the candidate built in placement order (with any
// error recorded in probeErr and surfaced by the mutation).
func (e *Engine) fitsDBF(j int, id int32) bool {
	mc := &e.machs[j]
	s := e.speeds[j]
	u := e.utils[id]
	// The fold total is the same addition chain a fresh TotalUtilization
	// performs over the machine's placed order, so this comparison is
	// bitwise FeasibleEDF's utilization pre-check over the candidate.
	newU := mc.load() + u
	if newU > s*(1+1e-12) {
		e.noteTier(tierDensity)
		return false
	}
	if e.approxK >= 1 && !mc.envBad {
		t := e.tasks[id]
		d := e.dl[id]
		dens := mc.densLoad() + e.dens[id]
		num := mc.numLoad() + float64(t.Period-d)*u
		invP := mc.invPLoad() + 1/float64(t.Period)
		maxD := mc.maxDLoad()
		if d > maxD {
			maxD = d
		}
		// The folds' rounding differs from a fresh summation by a few
		// ulps per resident; the 1e-9 inflation dominates it by orders of
		// magnitude, as HorizonSafe's contract requires.
		if dbf.HorizonSafe(s, newU*(1+1e-9), dens*(1+1e-9), invP*(1+1e-9), num*(1+1e-9), maxD, len(mc.placed)+1) {
			if dens <= s*(1-1e-9) {
				e.noteTier(tierDensity)
				return true
			}
			switch e.probeEnvelope(j, id, s, maxD) {
			case 1:
				e.noteTier(tierApprox)
				return true
			case -1:
				e.noteTier(tierApprox)
				return false
			}
		}
	}
	return e.exactProbe(j, id)
}

// probeEnvelope runs the approximate band for candidate id on machine j:
// +1 conclusive accept, −1 conclusive reject, 0 inconclusive. maxD is
// the candidate set's maximum deadline; the caller established
// HorizonSafe, so an exact int64 violation at a point ≤ maxD is a
// checkpoint FeasibleEDF provably reaches and rejects at, and an
// approximate pass at every jump point implies it never rejects (see
// dbf.approxBand for the full arguments — this is the same scan with the
// residents' share read from the cached envelope instead of recomputed).
func (e *Engine) probeEnvelope(j int, id int32, s float64, maxD int64) int {
	mc := &e.machs[j]
	k := e.approxK
	tk := e.tasks[id]
	C, D, P := tk.WCET, e.dl[id], tk.Period
	u := e.utils[id]
	approxOK := true
	// Pass 1: cached resident points, candidate folded in on the fly.
	// envE is exact and drift-free (int64), so the rejection comparison
	// is the checkDemand expression verbatim.
	for i, t := range mc.envT {
		st := s * float64(t)
		if t <= maxD {
			ce := candDemand(C, D, P, t)
			if ce < 0 || mc.envE[i] > math.MaxInt64-ce {
				return 0 // beyond the design envelope; let the exact tier decide
			}
			if float64(mc.envE[i]+ce) > st*(1+1e-12) {
				return -1
			}
		}
		if approxOK && mc.envA[i]+candApprox(C, D, P, u, k, t) > st*(1-1e-9) {
			approxOK = false
		}
		if !approxOK && t > maxD {
			return 0 // points ascend; nothing past here can still decide
		}
	}
	// Pass 2: the candidate's own first k deadlines (possibly uncached),
	// with the residents evaluated fresh.
	t := D
	for step := 0; step < k; step++ {
		st := s * float64(t)
		de := int64(step+1) * C // own exact demand at its (step+1)-th deadline
		da := candApprox(C, D, P, u, k, t)
		for _, pid := range mc.placed {
			pt := e.tasks[pid]
			if t <= maxD {
				ce := candDemand(pt.WCET, e.dl[pid], pt.Period, t)
				if ce < 0 || de > math.MaxInt64-ce {
					return 0
				}
				de += ce
			}
			da += candApprox(pt.WCET, e.dl[pid], pt.Period, e.utils[pid], k, t)
		}
		if t <= maxD && float64(de) > st*(1+1e-12) {
			return -1
		}
		if approxOK && da > st*(1-1e-9) {
			approxOK = false
		}
		if !approxOK && t > maxD {
			return 0
		}
		t += P // bounded by D + (k−1)·P ≤ ~2^46 under the period cap
	}
	if approxOK {
		return 1
	}
	return 0
}

// exactProbe runs the exact test for candidate id on machine j's current
// state, memoized against the machine's envelope generation (tiered
// engines only; exact-only engines probe fresh every time, which is the
// baseline the benchmarks measure). Errors are recorded in probeErr and
// reported as a rejection; the mutation surfaces them after the pass.
func (e *Engine) exactProbe(j int, id int32) bool {
	e.noteTier(tierExact)
	mc := &e.machs[j]
	t := e.tasks[id]
	var key dbfMemoKey
	if e.approxK >= 1 {
		key = dbfMemoKey{j: int32(j), gen: mc.envGen, c: t.WCET, d: e.dl[id], p: t.Period}
		if v, ok := e.memo[key]; ok {
			return v
		}
	}
	cb := e.candBuf[:0]
	for _, pid := range mc.placed {
		pt := e.tasks[pid]
		cb = append(cb, dbf.Task{Name: pt.Name, WCET: pt.WCET, Deadline: e.dl[pid], Period: pt.Period})
	}
	cb = append(cb, dbf.Task{Name: t.Name, WCET: t.WCET, Deadline: e.dl[id], Period: t.Period})
	e.candBuf = cb
	ok, err := dbf.FeasibleEDF(cb, e.speeds[j])
	if err != nil {
		if e.probeErr == nil {
			e.probeErr = err
		}
		return false
	}
	if e.approxK >= 1 {
		if e.memo == nil {
			e.memo = make(map[dbfMemoKey]bool, 64)
		} else if len(e.memo) >= dbfMemoCap {
			for mk := range e.memo {
				delete(e.memo, mk)
			}
		}
		e.memo[key] = ok
	}
	return ok
}

// fitsAtDBF answers the DBF admission query for task id against an
// untouched machine j's historical prefix of x placements. Tier 1 runs
// off the prefix folds; the deeper tiers have no cached envelope for
// historical states, so the candidate prefix is materialized and handed
// to the single-shot tiered pipeline.
func (e *Engine) fitsAtDBF(j int, id int32, x int) bool {
	mc := &e.machs[j]
	s := e.speeds[j]
	u := e.utils[id]
	var load float64
	if x > 0 {
		load = mc.cum[x-1]
	}
	newU := load + u
	if newU > s*(1+1e-12) {
		e.noteTier(tierDensity)
		return false
	}
	t := e.tasks[id]
	d := e.dl[id]
	if e.approxK >= 1 {
		var dens, num, invP float64
		var maxD int64
		if x > 0 {
			dens, num, invP, maxD = mc.cumDens[x-1], mc.cumNum[x-1], mc.cumInvP[x-1], mc.cumMaxD[x-1]
		}
		dens += e.dens[id]
		num += float64(t.Period-d) * u
		invP += 1 / float64(t.Period)
		if d > maxD {
			maxD = d
		}
		if dbf.HorizonSafe(s, newU*(1+1e-9), dens*(1+1e-9), invP*(1+1e-9), num*(1+1e-9), maxD, x+1) &&
			dens <= s*(1-1e-9) {
			e.noteTier(tierDensity)
			return true
		}
	}
	cb := e.candBuf[:0]
	for _, pid := range mc.placed[:x] {
		pt := e.tasks[pid]
		cb = append(cb, dbf.Task{Name: pt.Name, WCET: pt.WCET, Deadline: e.dl[pid], Period: pt.Period})
	}
	cb = append(cb, dbf.Task{Name: t.Name, WCET: t.WCET, Deadline: d, Period: t.Period})
	e.candBuf = cb
	ok, tier, err := dbf.TieredFeasibleEDF(cb, s, e.approxK)
	if err != nil {
		if e.probeErr == nil {
			e.probeErr = err
		}
		return false
	}
	e.noteTier(int(tier))
	return ok
}

// placeDBF extends machine j's DBF folds and envelope with task id. The
// caller (place) invokes it before appending to the placed list, so the
// fold tails and placed[:len] both describe the pre-placement residents.
func (e *Engine) placeDBF(j int, id int32) {
	mc := &e.machs[j]
	t := e.tasks[id]
	d := e.dl[id]
	mc.cumDens = append(mc.cumDens, mc.densLoad()+e.dens[id])
	mc.cumNum = append(mc.cumNum, mc.numLoad()+float64(t.Period-d)*e.utils[id])
	mc.cumInvP = append(mc.cumInvP, mc.invPLoad()+1/float64(t.Period))
	maxD := mc.maxDLoad()
	if d > maxD {
		maxD = d
	}
	mc.cumMaxD = append(mc.cumMaxD, maxD)
	if e.approxK >= 1 {
		e.envAdd(j, id, len(mc.placed))
		mc.envGen = e.nextGen()
	}
}

// envAdd merges task id into machine j's demand envelope: its demand is
// folded into every cached point, and its own first k deadlines are
// inserted where absent, evaluated over the cnt already-folded residents
// (placed[:cnt]) plus itself. During a rebuild cnt walks the placed list
// so not-yet-folded residents are never double counted.
func (e *Engine) envAdd(j int, id int32, cnt int) {
	mc := &e.machs[j]
	if mc.envBad {
		return
	}
	k := e.approxK
	t0 := e.tasks[id]
	C, D, P := t0.WCET, e.dl[id], t0.Period
	u := e.utils[id]
	for i, t := range mc.envT {
		ce := candDemand(C, D, P, t)
		if ce < 0 || mc.envE[i] > math.MaxInt64-ce {
			mc.envBad = true
			return
		}
		mc.envE[i] += ce
		mc.envA[i] += candApprox(C, D, P, u, k, t)
	}
	t := D
	for step := 0; step < k; step++ {
		at := sort.Search(len(mc.envT), func(i int) bool { return mc.envT[i] >= t })
		if at == len(mc.envT) || mc.envT[at] != t {
			de := int64(step+1) * C
			da := candApprox(C, D, P, u, k, t)
			for _, pid := range mc.placed[:cnt] {
				pt := e.tasks[pid]
				ce := candDemand(pt.WCET, e.dl[pid], pt.Period, t)
				if ce < 0 || de > math.MaxInt64-ce {
					mc.envBad = true
					return
				}
				de += ce
				da += candApprox(pt.WCET, e.dl[pid], pt.Period, e.utils[pid], k, t)
			}
			mc.envT = append(mc.envT, 0)
			copy(mc.envT[at+1:], mc.envT[at:])
			mc.envT[at] = t
			mc.envE = append(mc.envE, 0)
			copy(mc.envE[at+1:], mc.envE[at:])
			mc.envE[at] = de
			mc.envA = append(mc.envA, 0)
			copy(mc.envA[at+1:], mc.envA[at:])
			mc.envA[at] = da
		}
		t += P
	}
}

// rebuildEnvDBF recomputes machine j's envelope from its (already
// truncated or re-closed) placed list; makeDirty and splice call it
// after installing the new fold prefix. The DBF folds themselves were
// prefix-copied by the caller and need no rebuild.
func (e *Engine) rebuildEnvDBF(j int) {
	mc := &e.machs[j]
	mc.envT = mc.envT[:0]
	mc.envE = mc.envE[:0]
	mc.envA = mc.envA[:0]
	mc.envBad = false
	if e.approxK >= 1 {
		for x, pid := range mc.placed {
			e.envAdd(j, pid, x)
		}
		mc.envGen = e.nextGen()
	}
}

// candDemand is one task's exact demand contribution at time t
// (dbf.dbfChecked's per-task term), or −1 if jobs·C overflows.
func candDemand(C, D, P, t int64) int64 {
	if t < D {
		return 0
	}
	jobs := (t-D)/P + 1
	if jobs > math.MaxInt64/C {
		return -1
	}
	return jobs * C
}

// candApprox is one task's k-step approximate demand contribution at
// time t — branch-for-branch dbf.ApproxDBF's per-task term, so envelope
// sums differ from a fresh ApproxDBF only by summation-order rounding.
func candApprox(C, D, P int64, u float64, k int, t int64) float64 {
	if t < D {
		return 0
	}
	if sw := D + int64(k-1)*P; t < sw {
		jobs := (t-D)/P + 1
		return float64(jobs * C)
	}
	return float64(C) + u*float64(t-D)
}

// selfCheckDBF extends SelfCheck with the constrained-deadline
// invariants: per-task deadline/density consistency, bitwise fold
// re-derivation, envelope equality against a from-scratch rebuild, and
// exact EDF feasibility of every machine's resident set.
func (e *Engine) selfCheckDBF() error {
	n := len(e.tasks)
	if len(e.dl) != n || len(e.dens) != n {
		return fmt.Errorf("online: dbf per-task state lengths out of sync")
	}
	for id := 0; id < n; id++ {
		t := e.tasks[id]
		d := e.dl[id]
		if d < t.WCET || d > t.Period {
			return fmt.Errorf("online: task %d deadline %d outside [C=%d, P=%d]", id, d, t.WCET, t.Period)
		}
		if e.dens[id] != float64(t.WCET)/float64(d) {
			return fmt.Errorf("online: task %d density %v out of sync", id, e.dens[id])
		}
	}
	for j := range e.machs {
		mc := &e.machs[j]
		np := len(mc.placed)
		if len(mc.cumDens) != np || len(mc.cumNum) != np || len(mc.cumInvP) != np || len(mc.cumMaxD) != np {
			return fmt.Errorf("online: machine %d dbf fold length mismatch", j)
		}
		var dens, num, invP float64
		var maxD int64
		for x, id := range mc.placed {
			t := e.tasks[id]
			dens += e.dens[id]
			num += float64(t.Period-e.dl[id]) * e.utils[id]
			invP += 1 / float64(t.Period)
			if e.dl[id] > maxD {
				maxD = e.dl[id]
			}
			if math.Float64bits(dens) != math.Float64bits(mc.cumDens[x]) ||
				math.Float64bits(num) != math.Float64bits(mc.cumNum[x]) ||
				math.Float64bits(invP) != math.Float64bits(mc.cumInvP[x]) {
				return fmt.Errorf("online: machine %d dbf fold mismatch at %d", j, x)
			}
			if maxD != mc.cumMaxD[x] {
				return fmt.Errorf("online: machine %d cumMaxD[%d] = %d, refold %d", j, x, mc.cumMaxD[x], maxD)
			}
		}
		if np == 0 {
			if len(mc.envT) != 0 {
				return fmt.Errorf("online: machine %d empty but envelope has %d points", j, len(mc.envT))
			}
			continue
		}
		set := make(dbf.Set, 0, np)
		for _, id := range mc.placed {
			t := e.tasks[id]
			set = append(set, dbf.Task{Name: t.Name, WCET: t.WCET, Deadline: e.dl[id], Period: t.Period})
		}
		if ok, err := dbf.FeasibleEDF(set, e.speeds[j]); err != nil {
			return fmt.Errorf("online: machine %d exact test: %w", j, err)
		} else if !ok {
			return fmt.Errorf("online: machine %d infeasible under exact DBF", j)
		}
		if e.approxK < 1 || mc.envBad {
			continue
		}
		points := make([]int64, 0, np*e.approxK)
		for _, t := range set {
			tp := t.Deadline
			for s := 0; s < e.approxK; s++ {
				points = append(points, tp)
				tp += t.Period
			}
		}
		sort.Slice(points, func(a, b int) bool { return points[a] < points[b] })
		w := 0
		for i, t := range points {
			if i == 0 || t != points[w-1] {
				points[w] = t
				w++
			}
		}
		points = points[:w]
		if len(points) != len(mc.envT) || len(mc.envE) != len(mc.envT) || len(mc.envA) != len(mc.envT) {
			return fmt.Errorf("online: machine %d envelope has %d points, want %d", j, len(mc.envT), len(points))
		}
		for i, t := range points {
			if mc.envT[i] != t {
				return fmt.Errorf("online: machine %d envelope point %d = %d, want %d", j, i, mc.envT[i], t)
			}
			if de := set.DBF(t); de != mc.envE[i] {
				return fmt.Errorf("online: machine %d envE[%d] = %d, want %d", j, i, mc.envE[i], de)
			}
			da := set.ApproxDBF(t, e.approxK)
			if diff := math.Abs(da - mc.envA[i]); diff > 1e-6*(math.Abs(da)+1) {
				return fmt.Errorf("online: machine %d envA[%d] = %v, want ~%v", j, i, mc.envA[i], da)
			}
		}
	}
	return nil
}
