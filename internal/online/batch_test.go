package online

import (
	"math/rand"
	"reflect"
	"testing"

	"partfeas/internal/machine"
	"partfeas/internal/partition"
	"partfeas/internal/task"
)

// randBatch draws a batch of 1–12 random tasks.
func randBatch(rng *rand.Rand) []task.Task {
	bt := make([]task.Task, 1+rng.Intn(12))
	for i := range bt {
		bt[i] = randTask(rng)
	}
	return bt
}

// TestAdmitBatchDifferential pins the batch tentpole's semantic
// contract: for any batch, the merged-replay AdmitBatch must leave the
// engine byte-identical to a twin engine admitting the same tasks one
// by one with plain Admit — same verdicts, same assignment, same
// bit-exact loads — and hence identical to the fresh sorted solve of
// the surviving multiset.
func TestAdmitBatchDifferential(t *testing.T) {
	for _, adm := range testAdmissions {
		adm := adm
		t.Run(adm.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(adm.Name())) * 7919))
			for inst := 0; inst < 10; inst++ {
				p := randPlatform(rng)
				cur := task.Set{{WCET: 1, Period: 1 << 20}}
				e, err := NewEngine(cur, p, Options{Admission: adm, Alpha: 1})
				if err != nil {
					t.Fatal(err)
				}
				twin, err := NewEngine(cur, p, Options{Admission: adm, Alpha: 1})
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 25; round++ {
					bt := randBatch(rng)
					res, admitted, err := e.AdmitBatch(bt, BestEffort)
					if err != nil {
						t.Fatalf("inst %d round %d: AdmitBatch: %v", inst, round, err)
					}
					for i, tk := range bt {
						_, ok, err := twin.Admit(tk)
						if err != nil {
							t.Fatalf("inst %d round %d: twin Admit: %v", inst, round, err)
						}
						if ok != admitted[i] {
							t.Fatalf("inst %d round %d task %d: batch verdict %v, sequential %v",
								inst, round, i, admitted[i], ok)
						}
						if ok {
							cur = append(cur, tk)
						}
					}
					sameResult(t, "batch state", e.Result().Clone(), twin.Result().Clone())
					sameResult(t, "batch vs fresh", e.Result().Clone(), freshSorted(t, cur, p, adm, 1))
					if nAdm := countTrue(admitted); nAdm == len(bt) || nAdm > 0 {
						sameResult(t, "batch result", res.Clone(), twin.Result().Clone())
					}
					if err := e.SelfCheck(); err != nil {
						t.Fatalf("inst %d round %d: %v", inst, round, err)
					}
					if !reflect.DeepEqual(e.Tasks(), twin.Tasks()) {
						t.Fatalf("inst %d round %d: task sets diverged", inst, round)
					}
				}
			}
		})
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// TestAdmitBatchAllOrNothing pins the transactional mode: a batch whose
// union with the resident set is feasible is admitted in full; any
// other batch leaves the engine bit-identical to its pre-call state and
// returns the failed fresh-solve witness over the union.
func TestAdmitBatchAllOrNothing(t *testing.T) {
	for _, adm := range testAdmissions {
		adm := adm
		t.Run(adm.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(adm.Name())) * 6151))
			for inst := 0; inst < 10; inst++ {
				p := randPlatform(rng)
				cur := task.Set{{WCET: 1, Period: 1 << 20}}
				e, err := NewEngine(cur, p, Options{Admission: adm, Alpha: 1})
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 25; round++ {
					bt := randBatch(rng)
					union := append(cur.Clone(), bt...)
					want := freshSorted(t, union, p, adm, 1)
					before := e.Result().Clone()
					res, admitted, err := e.AdmitBatch(bt, AllOrNothing)
					if err != nil {
						t.Fatalf("inst %d round %d: %v", inst, round, err)
					}
					if want.Feasible {
						if countTrue(admitted) != len(bt) {
							t.Fatalf("inst %d round %d: feasible union but %d/%d admitted",
								inst, round, countTrue(admitted), len(bt))
						}
						sameResult(t, "aon admit", res.Clone(), want)
						cur = union
					} else {
						if countTrue(admitted) != 0 {
							t.Fatalf("inst %d round %d: infeasible union but %d admitted",
								inst, round, countTrue(admitted))
						}
						sameResult(t, "aon witness", res.Clone(), want)
						sameResult(t, "aon rollback", e.Result().Clone(), before)
					}
					if err := e.SelfCheck(); err != nil {
						t.Fatalf("inst %d round %d: %v", inst, round, err)
					}
					sameResult(t, "aon state", e.Result().Clone(), freshSorted(t, cur, p, adm, 1))
				}
			}
		})
	}
}

// TestAdmitBatchMidFailureRollback forces the merged replay to fail
// partway through a multi-insertion batch and checks the rollback
// restores the engine exactly: a batch whose small tasks fit but whose
// hog does not must leave no trace in AllOrNothing mode.
func TestAdmitBatchMidFailureRollback(t *testing.T) {
	p := machine.New(1)
	cur := task.Set{
		{WCET: 3, Period: 10}, {WCET: 2, Period: 12}, {WCET: 1, Period: 9},
	}
	e, err := NewEngine(cur, p, Options{Admission: partition.EDFAdmission{}, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Result().Clone()
	// Two easy tasks around a hog that cannot fit on the machine.
	bt := []task.Task{
		{WCET: 1, Period: 1000},
		{WCET: 9, Period: 10},
		{WCET: 1, Period: 500},
	}
	res, admitted, err := e.AdmitBatch(bt, AllOrNothing)
	if err != nil {
		t.Fatal(err)
	}
	if countTrue(admitted) != 0 {
		t.Fatalf("hog batch admitted %d tasks", countTrue(admitted))
	}
	if res.Feasible {
		t.Fatal("witness must be infeasible")
	}
	sameResult(t, "mid-failure rollback", e.Result().Clone(), before)
	if err := e.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	// BestEffort on the same batch admits exactly the two easy tasks.
	_, admitted, err = e.AdmitBatch(bt, BestEffort)
	if err != nil {
		t.Fatal(err)
	}
	if !admitted[0] || admitted[1] || !admitted[2] {
		t.Fatalf("best-effort verdicts = %v, want [true false true]", admitted)
	}
	want := freshSorted(t, append(cur.Clone(), bt[0], bt[2]), p, partition.EDFAdmission{}, 1)
	sameResult(t, "best-effort survivors", e.Result().Clone(), want)
	if err := e.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitBatchArrival covers the sequential delegation path: in
// arrival-order a batch is defined as one Admit per task in input order,
// and AllOrNothing undoes the admitted prefix on failure.
func TestAdmitBatchArrival(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := randPlatform(rng)
	cur := task.Set{{WCET: 1, Period: 1 << 20}}
	e, err := NewEngine(cur, p, Options{Policy: FirstFitArrival(), Admission: partition.EDFAdmission{}, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewEngine(cur, p, Options{Policy: FirstFitArrival(), Admission: partition.EDFAdmission{}, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		bt := randBatch(rng)
		_, admitted, err := e.AdmitBatch(bt, BestEffort)
		if err != nil {
			t.Fatal(err)
		}
		for i, tk := range bt {
			_, ok, err := twin.Admit(tk)
			if err != nil {
				t.Fatal(err)
			}
			if ok != admitted[i] {
				t.Fatalf("round %d task %d: batch %v, sequential %v", round, i, admitted[i], ok)
			}
		}
		sameResult(t, "arrival batch", e.Result().Clone(), twin.Result().Clone())
		if err := e.SelfCheck(); err != nil {
			t.Fatal(err)
		}
	}
	// AllOrNothing with an unplaceable tail: the admitted prefix must be
	// undone and the state restored exactly.
	before := e.Result().Clone()
	bt := []task.Task{{WCET: 1, Period: 700}, {WCET: 1 << 40, Period: 1 << 40}}
	_, admitted, err := e.AdmitBatch(bt, AllOrNothing)
	if err != nil {
		t.Fatal(err)
	}
	if countTrue(admitted) != 0 {
		t.Fatal("arrival all-or-nothing must admit nothing on failure")
	}
	sameResult(t, "arrival aon undo", e.Result().Clone(), before)
	if err := e.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitBatchValidation covers the malformed-batch guards.
func TestAdmitBatchValidation(t *testing.T) {
	p := randPlatform(rand.New(rand.NewSource(3)))
	e, err := NewEngine(task.Set{{WCET: 1, Period: 10}}, p, Options{Admission: partition.EDFAdmission{}, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.AdmitBatch([]task.Task{{WCET: 0, Period: 5}}, BestEffort); err == nil {
		t.Fatal("invalid batch task must error")
	}
	if _, _, err := e.AdmitBatch([]task.Task{{WCET: 1, Period: 5}}, BatchMode(9)); err == nil {
		t.Fatal("unknown mode must error")
	}
	res, admitted, err := e.AdmitBatch(nil, BestEffort)
	if err != nil || len(admitted) != 0 {
		t.Fatalf("empty batch: admitted=%v err=%v", admitted, err)
	}
	if !res.Feasible {
		t.Fatal("empty batch must return the current feasible state")
	}
	if err := e.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}
