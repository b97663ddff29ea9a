package online

import (
	"math/rand"
	"strings"
	"testing"

	"partfeas/internal/machine"
	"partfeas/internal/partition"
	"partfeas/internal/task"
)

// testPolicies are the local (non-ordered) built-ins the behavioral and
// differential sweeps run over.
func testPolicies() []Policy {
	return []Policy{
		FirstFitArrival(),
		BestFit(),
		WorstFit(),
		KChoices(2),
		KChoices(4),
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "first_fit_sorted"},
		{"first_fit_sorted", "first_fit_sorted"},
		{"sorted", "first_fit_sorted"}, // legacy WAL/snapshot alias
		{"first_fit_arrival", "first_fit_arrival"},
		{"arrival", "first_fit_arrival"}, // legacy alias
		{"best_fit", "best_fit"},
		{"worst_fit", "worst_fit"},
		{"k_choices", "k_choices"},
		{"k_choices_4", "k_choices_4"},
	}
	for _, tc := range cases {
		pol, err := ParsePolicy(tc.in)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", tc.in, err)
		}
		if pol.Name() != tc.want {
			t.Errorf("ParsePolicy(%q).Name() = %q, want %q", tc.in, pol.Name(), tc.want)
		}
	}
	for _, bad := range []string{"firstfit", "k_choices_1", "k_choices_x", "round_robin"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), bad) {
			t.Errorf("ParsePolicy(%q) error does not name the value: %v", bad, err)
		}
	}
}

// TestPolicyNameRoundTrip: every built-in's Name parses back to a
// policy with the same name (the wire format is total on the set).
func TestPolicyNameRoundTrip(t *testing.T) {
	pols := append(testPolicies(), FirstFitSorted())
	for _, pol := range pols {
		back, err := ParsePolicy(pol.Name())
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", pol.Name(), err)
		}
		if back.Name() != pol.Name() {
			t.Errorf("round trip %q -> %q", pol.Name(), back.Name())
		}
	}
	if FirstFitSorted().Ordered() != true {
		t.Error("FirstFitSorted must be ordered")
	}
	for _, pol := range testPolicies() {
		if pol.Ordered() {
			t.Errorf("%s must not be ordered", pol.Name())
		}
	}
}

// TestNewEngineValidation: the Options surface rejects malformed input
// with actionable errors.
func TestNewEngineValidation(t *testing.T) {
	p := machine.New(1)
	ts := task.Set{{WCET: 1, Period: 4}}
	if _, err := NewEngine(ts, p, Options{}); err == nil {
		t.Error("nil Admission accepted for implicit engine")
	}
	if _, err := NewEngine(ts, p, Options{Admission: partition.EDFAdmission{}, Deadlines: []int64{2, 3}}); err == nil {
		t.Error("deadline length mismatch accepted")
	}
	if _, err := NewEngine(ts, p, Options{Deadlines: []int64{8}}); err == nil {
		t.Error("deadline above period accepted")
	}
	if _, err := NewEngine(ts, p, Options{
		Policy:    PeriodicRepartition(FirstFitArrival(), 4),
		Deadlines: []int64{3},
	}); err == nil {
		t.Error("periodic repartition accepted on a constrained engine")
	}
	// Constrained build ignores Admission entirely.
	e, err := NewEngine(ts, p, Options{Deadlines: []int64{3}, ApproxK: 8})
	if err != nil {
		t.Fatalf("constrained build: %v", err)
	}
	if e.Deadline(0) != 3 || e.ApproxK() != 8 {
		t.Errorf("constrained state: D=%d k=%d", e.Deadline(0), e.ApproxK())
	}
}

// TestBestFitWorstFitSelection: hand-built platform where the heuristics
// provably differ from first-fit.
func TestBestFitWorstFitSelection(t *testing.T) {
	// Scan order is speed-ascending: machine 0 (speed 1), machine 1
	// (speed 2). Pre-load machine 0 lightly so both fit the probe task:
	// best-fit must pick the tighter machine 0, worst-fit the emptier
	// machine 1, first-fit the first in scan order (machine 0).
	p := machine.New(1, 2)
	seed := task.Set{{WCET: 1, Period: 2}} // u=0.5, lands on machine 0 under every policy's first probe? best_fit: slack0=1 < slack1=2 -> machine 0. worst_fit -> machine 1.
	probe := task.Task{WCET: 1, Period: 4} // u=0.25

	bf, err := NewEngine(seed, p, Options{Policy: BestFit(), Admission: partition.EDFAdmission{}})
	if err != nil {
		t.Fatal(err)
	}
	res, ok, err := bf.Admit(probe)
	if err != nil || !ok {
		t.Fatalf("best_fit admit: ok=%v err=%v", ok, err)
	}
	if res.Assignment[1] != 0 {
		t.Errorf("best_fit placed probe on %d, want 0 (tightest)", res.Assignment[1])
	}

	wf, err := NewEngine(seed, p, Options{Policy: WorstFit(), Admission: partition.EDFAdmission{}})
	if err != nil {
		t.Fatal(err)
	}
	// Seed task: worst-fit sends it to the emptiest machine (1, speed 2).
	if wf.Result().Assignment[0] != 1 {
		t.Fatalf("worst_fit seeded on %d, want 1", wf.Result().Assignment[0])
	}
	res, ok, err = wf.Admit(probe)
	if err != nil || !ok {
		t.Fatalf("worst_fit admit: ok=%v err=%v", ok, err)
	}
	if res.Assignment[1] != 1 {
		t.Errorf("worst_fit placed probe on %d, want 1 (emptiest)", res.Assignment[1])
	}
}

// TestLocalPoliciesStayFeasible: randomized op sequences under every
// local policy keep SelfCheck invariants and never corrupt state; a
// rebuilt twin driven with the identical committed op sequence lands in
// the identical state (determinism / replayability of every policy).
// One op in four is forced, so engines also run over capacity: SelfCheck
// then also proves no waiting task fits any machine, a plain op commits
// only when it leaves every task placed (and otherwise changes nothing),
// and restoring from the placed lists reproduces the engine exactly.
func TestLocalPoliciesStayFeasible(t *testing.T) {
	type op struct {
		kind  int
		force bool
		t     task.Task
		id    int
		w     int64
	}
	adm := partition.EDFAdmission{}
	for _, pol := range append(testPolicies(), PeriodicRepartition(BestFit(), 7)) {
		rng := rand.New(rand.NewSource(47))
		p := machine.New(0.5, 1, 1, 2, 3)
		seed := task.Set{{WCET: 1, Period: 8}}
		e, err := NewEngine(seed, p, Options{Policy: pol, Admission: adm})
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		var committed []op
		overCap := 0
		for i := 0; i < 300; i++ {
			o := op{kind: rng.Intn(4), force: rng.Intn(4) == 0}
			before, beforeTasks := e.Result().Clone(), e.Tasks()
			var ok bool
			switch o.kind {
			case 0, 1:
				o.kind, o.t = 0, randTask(rng)
				if o.force {
					_, ok, err = e.ForceAdmit(o.t)
				} else {
					_, ok, err = e.Admit(o.t)
				}
			case 2:
				if e.Len() < 2 {
					continue
				}
				o.id = rng.Intn(e.Len())
				if o.force {
					_, ok, err = e.ForceRemove(o.id)
				} else {
					_, ok, err = e.Remove(o.id)
				}
			default:
				o.id = rng.Intn(e.Len())
				o.w = 1 + rng.Int63n(e.tasks[o.id].Period)
				if o.force {
					_, ok, err = e.ForceUpdateWCET(o.id, o.w)
				} else {
					_, ok, err = e.UpdateWCET(o.id, o.w)
				}
			}
			if err != nil {
				t.Fatalf("%s op %d: %v", pol.Name(), i, err)
			}
			if ok != e.Feasible() && (ok || o.force) {
				t.Fatalf("%s op %d: ok=%v but Feasible()=%v", pol.Name(), i, ok, e.Feasible())
			}
			if ok || o.force {
				committed = append(committed, o)
			} else {
				requireUnchanged(t, e, before, beforeTasks)
			}
			if !e.Feasible() {
				overCap++
			}
			if err := e.SelfCheck(); err != nil {
				t.Fatalf("%s op %d: SelfCheck: %v", pol.Name(), i, err)
			}
			if i%23 == 0 {
				r, err := NewEngineForce(e.Tasks(), p, Options{Policy: pol, Admission: adm, Placed: e.PlacedLists(), RepartCnt: e.RepartCount()})
				if err != nil {
					t.Fatalf("%s op %d: restore: %v", pol.Name(), i, err)
				}
				sameEngineState(t, pol.Name()+" restore", r, e)
			}
		}
		if overCap == 0 {
			t.Fatalf("%s: the engine never ran over capacity", pol.Name())
		}

		// Twin: replay exactly the committed ops. Every op must commit
		// again with the same resulting state — Select is a pure
		// function of engine state.
		twin, err := NewEngine(seed, p, Options{Policy: pol, Admission: adm})
		if err != nil {
			t.Fatalf("%s twin: %v", pol.Name(), err)
		}
		for i, o := range committed {
			var ok bool
			switch {
			case o.kind == 0 && o.force:
				_, ok, err = twin.ForceAdmit(o.t)
			case o.kind == 0:
				_, ok, err = twin.Admit(o.t)
			case o.kind == 2 && o.force:
				_, ok, err = twin.ForceRemove(o.id)
			case o.kind == 2:
				_, ok, err = twin.Remove(o.id)
			case o.force:
				_, ok, err = twin.ForceUpdateWCET(o.id, o.w)
			default:
				_, ok, err = twin.UpdateWCET(o.id, o.w)
			}
			if err != nil || !ok && !o.force {
				t.Fatalf("%s twin op %d: ok=%v err=%v", pol.Name(), i, ok, err)
			}
		}
		sameEngineState(t, pol.Name()+" twin", twin, e)
	}
}

// TestKChoicesFallsBackToFirstFit: when none of the hashed candidates
// admit the task but some machine does, k-choices must not reject.
func TestKChoicesFallsBackToFirstFit(t *testing.T) {
	// Many machines, all tiny except one big one: random candidates are
	// overwhelmingly likely to miss the only viable machine at least
	// once across the probes, exercising the fallback.
	speeds := make([]float64, 32)
	for i := range speeds {
		speeds[i] = 0.05
	}
	speeds[31] = 8
	p := machine.New(speeds...)
	seed := task.Set{{WCET: 1, Period: 2}}
	e, err := NewEngine(seed, p, Options{Policy: KChoices(2), Admission: partition.EDFAdmission{}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	admitted := 0
	for i := 0; i < 24; i++ {
		// u in (0.1, 0.6]: never fits a 0.05 machine, always needs the
		// big one until it fills.
		pd := int64(1000 + rng.Intn(1000))
		tk := task.Task{WCET: pd/10 + rng.Int63n(pd/2), Period: pd}
		_, ok, err := e.Admit(tk)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			admitted++
		}
	}
	if admitted == 0 {
		t.Error("k_choices admitted nothing; fallback to first-fit is broken")
	}
	if err := e.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestPeriodicRepartitionFoldsDrift: after every N-th successful
// mutation the wrapped engine's placement must equal the paper's fresh
// sorted first-fit over the resident multiset — drift is folded back on
// the cadence, while between repartition points the inner policy runs.
func TestPeriodicRepartitionFoldsDrift(t *testing.T) {
	const every = 5
	rng := rand.New(rand.NewSource(53))
	p := machine.New(1, 1.5, 2, 3)
	adm := partition.EDFAdmission{}
	seed := task.Set{{WCET: 1, Period: 4}}
	e, err := NewEngine(seed, p, Options{Policy: PeriodicRepartition(FirstFitArrival(), every), Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	mutations := 0
	for i := 0; i < 120; i++ {
		_, ok, err := e.Admit(randTask(rng))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		mutations++
		if mutations%every != 0 {
			continue
		}
		// At the cadence point the engine must match the fresh sorted
		// solve over its residents (when that solve is feasible — the
		// hook drops infeasible targets).
		res := freshSorted(t, e.Tasks(), p, adm, 1)
		if !res.Feasible {
			continue
		}
		got := e.Result()
		for id := range res.Assignment {
			if got.Assignment[id] != res.Assignment[id] {
				t.Fatalf("mutation %d: task %d on machine %d, sorted solve places %d",
					mutations, id, got.Assignment[id], res.Assignment[id])
			}
		}
		if err := e.SelfCheck(); err != nil {
			t.Fatalf("mutation %d: SelfCheck: %v", mutations, err)
		}
	}
	if mutations < every {
		t.Fatalf("only %d mutations accepted; test vacuous", mutations)
	}
	if want := "first_fit_arrival+repartition_5"; e.PlacementPolicy().Name() != want {
		t.Errorf("policy name %q, want %q", e.PlacementPolicy().Name(), want)
	}
}

// TestBatchUndoDoesNotFireRepartition: the all-or-nothing undo path
// calls Remove internally; the repartition hook must count the batch as
// one mutation and never fire mid-undo (hookDepth guard).
func TestBatchUndoDoesNotFireRepartition(t *testing.T) {
	p := machine.New(1)
	seed := task.Set{{WCET: 1, Period: 10}}
	e, err := NewEngine(seed, p, Options{Policy: PeriodicRepartition(FirstFitArrival(), 1), Admission: partition.EDFAdmission{}})
	if err != nil {
		t.Fatal(err)
	}
	// Batch that cannot fully fit: first task fits, second overloads.
	batch := []task.Task{{WCET: 1, Period: 10}, {WCET: 9, Period: 10}}
	res, admitted, err := e.AdmitBatch(batch, AllOrNothing)
	if err != nil {
		t.Fatal(err)
	}
	if admitted[0] || admitted[1] {
		t.Fatalf("all-or-nothing batch partially admitted: %v", admitted)
	}
	if res.Feasible {
		t.Error("rejected batch reported feasible result")
	}
	if e.Len() != 1 {
		t.Fatalf("engine has %d tasks after undone batch, want 1", e.Len())
	}
	if err := e.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}
