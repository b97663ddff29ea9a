package online

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"partfeas/internal/machine"
	"partfeas/internal/partition"
	"partfeas/internal/task"
)

// admissions under test: exactly the engine's incremental fast paths.
var testAdmissions = []partition.AdmissionTest{
	partition.EDFAdmission{},
	partition.RMSLLAdmission{},
	partition.RMSHyperbolicAdmission{},
}

func randTask(rng *rand.Rand) task.Task {
	p := int64(2 + rng.Intn(1000))
	c := 1 + rng.Int63n(p)
	return task.Task{WCET: c, Period: p}
}

func randPlatform(rng *rand.Rand) machine.Platform {
	m := 1 + rng.Intn(6)
	speeds := make([]float64, m)
	for j := range speeds {
		speeds[j] = 0.25 + 4*rng.Float64()
	}
	return machine.New(speeds...)
}

// sameResult asserts byte-identity: equal assignments and failure
// indices, and bitwise-equal per-machine loads (reflect.DeepEqual on
// floats is too weak: it treats 0 and -0 as equal and NaNs as unequal).
func sameResult(t *testing.T, ctx string, got, want partition.Result) {
	t.Helper()
	if got.Feasible != want.Feasible || got.FailedTask != want.FailedTask {
		t.Fatalf("%s: feasible/failed = %v/%d, want %v/%d", ctx, got.Feasible, got.FailedTask, want.Feasible, want.FailedTask)
	}
	if got.Alpha != want.Alpha {
		t.Fatalf("%s: alpha = %v, want %v", ctx, got.Alpha, want.Alpha)
	}
	if !reflect.DeepEqual(got.Assignment, want.Assignment) {
		t.Fatalf("%s: assignment = %v, want %v", ctx, got.Assignment, want.Assignment)
	}
	if len(got.Loads) != len(want.Loads) {
		t.Fatalf("%s: %d loads, want %d", ctx, len(got.Loads), len(want.Loads))
	}
	for j := range got.Loads {
		if math.Float64bits(got.Loads[j]) != math.Float64bits(want.Loads[j]) {
			t.Fatalf("%s: load[%d] = %x, want %x (values %v vs %v)",
				ctx, j, math.Float64bits(got.Loads[j]), math.Float64bits(want.Loads[j]), got.Loads[j], want.Loads[j])
		}
	}
}

func freshSorted(t *testing.T, ts task.Set, p machine.Platform, adm partition.AdmissionTest, alpha float64) partition.Result {
	t.Helper()
	res, err := partition.Partition(ts, p, partition.Paper(adm, alpha))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func freshArrival(t *testing.T, ts task.Set, p machine.Platform, adm partition.AdmissionTest, alpha float64) partition.Result {
	t.Helper()
	res, err := partition.Partition(ts, p, partition.Config{Admission: adm, Alpha: alpha, TaskOrder: partition.TasksAsGiven})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEngineSortedDifferential is the engine's acceptance test: over
// randomized admit/remove/update/batch sequences, every FirstFitSorted
// engine decision — acceptance, rejection witness, assignment, and
// per-machine load bits — must be identical to a fresh sorted first-fit
// Solve(alpha) over the same task multiset. The test mirrors the
// multiset independently and solves it from scratch after every
// operation. The scripts start from random (possibly infeasible) sets
// and mix in the Force variants, so the engine spends long stretches
// over capacity, where every answer must still be the fresh solve's.
func TestEngineSortedDifferential(t *testing.T) {
	for _, adm := range testAdmissions {
		adm := adm
		t.Run(adm.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(adm.Name())) * 104729))
			overCap := 0
			for inst := 0; inst < 12; inst++ {
				p := randPlatform(rng)
				alpha := []float64{1, 1, 1.5, 2.5}[rng.Intn(4)]
				cur := task.Set{{WCET: 1, Period: 1 << 20}} // near-zero seed task
				for i := rng.Intn(2 * len(p)); i > 0; i-- {
					cur = append(cur, randTask(rng))
				}
				e, err := NewEngineForce(cur, p, Options{Admission: adm, Alpha: alpha})
				if err != nil {
					t.Fatalf("inst %d: seed engine: %v", inst, err)
				}
				sameResult(t, "seed", e.Result().Clone(), freshSorted(t, cur, p, adm, alpha))
				for op := 0; op < 120; op++ {
					force := rng.Intn(4) == 0
					switch k := rng.Intn(12); {
					case k < 5: // admit
						tk := randTask(rng)
						candidate := append(cur.Clone(), tk)
						want := freshSorted(t, candidate, p, adm, alpha)
						admit := e.Admit
						if force {
							admit = e.ForceAdmit
						}
						res, admitted, err := admit(tk)
						if err != nil {
							t.Fatalf("inst %d op %d: Admit: %v", inst, op, err)
						}
						if admitted != want.Feasible {
							t.Fatalf("inst %d op %d: Admit=%v, fresh solve feasible=%v", inst, op, admitted, want.Feasible)
						}
						sameResult(t, "admit", res.Clone(), want)
						if admitted || force {
							cur = candidate
						}
					case k < 7 && len(cur) > 1: // remove
						id := rng.Intn(len(cur))
						shrunken := append(cur[:id:id].Clone(), cur[id+1:]...)
						want := freshSorted(t, shrunken, p, adm, alpha)
						remove := e.Remove
						if force {
							remove = e.ForceRemove
						}
						res, ok, err := remove(id)
						if err != nil {
							t.Fatalf("inst %d op %d: Remove: %v", inst, op, err)
						}
						if ok != want.Feasible {
							t.Fatalf("inst %d op %d: Remove=%v, fresh solve feasible=%v", inst, op, ok, want.Feasible)
						}
						sameResult(t, "remove", res.Clone(), want)
						if ok || force {
							cur = shrunken
						}
					case k < 10: // update WCET: forced ones raise it, plain ones may lower it
						id := rng.Intn(len(cur))
						wcet := 1 + rng.Int63n(cur[id].Period)
						updated := cur.Clone()
						updated[id].WCET = wcet
						want := freshSorted(t, updated, p, adm, alpha)
						update := e.UpdateWCET
						if force {
							update = e.ForceUpdateWCET
						}
						res, ok, err := update(id, wcet)
						if err != nil {
							t.Fatalf("inst %d op %d: UpdateWCET: %v", inst, op, err)
						}
						if ok != want.Feasible {
							t.Fatalf("inst %d op %d: UpdateWCET=%v, fresh solve feasible=%v", inst, op, ok, want.Feasible)
						}
						sameResult(t, "update", res.Clone(), want)
						if ok || force {
							cur = updated
						}
					default: // batch admit, either mode
						batch := make(task.Set, 2+rng.Intn(3))
						for i := range batch {
							batch[i] = randTask(rng)
						}
						mode := BatchMode(rng.Intn(2))
						res, admitted, err := e.AdmitBatch(batch, mode)
						if err != nil {
							t.Fatalf("inst %d op %d: AdmitBatch: %v", inst, op, err)
						}
						// Reference: all-or-nothing tests the union once;
						// best-effort admits in input order whatever
						// leaves the set placed.
						wantAdm := make([]bool, len(batch))
						var want partition.Result
						if mode == AllOrNothing {
							union := append(cur.Clone(), batch...)
							want = freshSorted(t, union, p, adm, alpha)
							for i := range wantAdm {
								wantAdm[i] = want.Feasible
							}
							if want.Feasible {
								cur = union
							}
						} else {
							any := false
							for i, tk := range batch {
								cand := append(cur.Clone(), tk)
								r := freshSorted(t, cand, p, adm, alpha)
								if r.Feasible {
									cur, wantAdm[i], any = cand, true, true
								} else {
									want = r
								}
							}
							if any {
								want = freshSorted(t, cur, p, adm, alpha)
							}
						}
						if !reflect.DeepEqual(admitted, wantAdm) {
							t.Fatalf("inst %d op %d: %v batch admitted %v, want %v", inst, op, mode, admitted, wantAdm)
						}
						sameResult(t, "batch", res.Clone(), want)
					}
					if err := e.SelfCheck(); err != nil {
						t.Fatalf("inst %d op %d: %v", inst, op, err)
					}
					// After a rejection the engine must still equal the
					// fresh solve of the surviving multiset.
					state := freshSorted(t, cur, p, adm, alpha)
					sameResult(t, "state", e.Result().Clone(), state)
					if e.Feasible() != state.Feasible {
						t.Fatalf("inst %d op %d: Feasible() = %v, fresh %v", inst, op, e.Feasible(), state.Feasible)
					}
					if !state.Feasible {
						overCap++
					}
					if !reflect.DeepEqual(e.Tasks(), cur) {
						t.Fatalf("inst %d op %d: resident tasks diverged", inst, op)
					}
				}
			}
			if overCap < 100 {
				t.Fatalf("only %d ops left the engine over capacity; the script barely tests it", overCap)
			}
		})
	}
}

// TestEngineArrivalAdmitDifferential holds arrival-order pure-admit
// sequences byte-identical to the TasksAsGiven ablation solve: with no
// removals or updates, placing each arrival against live aggregates is
// exactly first-fit in input order.
func TestEngineArrivalAdmitDifferential(t *testing.T) {
	for _, adm := range testAdmissions {
		adm := adm
		t.Run(adm.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(adm.Name())) * 31337))
			for inst := 0; inst < 12; inst++ {
				p := randPlatform(rng)
				cur := task.Set{{WCET: 1, Period: 1 << 20}}
				e, err := NewEngine(cur, p, Options{Policy: FirstFitArrival(), Admission: adm, Alpha: 1})
				if err != nil {
					t.Fatal(err)
				}
				for op := 0; op < 60; op++ {
					tk := randTask(rng)
					candidate := append(cur.Clone(), tk)
					want := freshArrival(t, candidate, p, adm, 1)
					res, admitted, err := e.Admit(tk)
					if err != nil {
						t.Fatal(err)
					}
					if admitted != want.Feasible {
						t.Fatalf("inst %d op %d: Admit=%v, as-given solve=%v", inst, op, admitted, want.Feasible)
					}
					sameResult(t, "arrival admit", res.Clone(), want)
					if admitted {
						cur = candidate
					}
					if err := e.SelfCheck(); err != nil {
						t.Fatalf("inst %d op %d: %v", inst, op, err)
					}
				}
			}
		})
	}
}

// TestEngineArrivalMixedOps exercises arrival-order under the full
// mutation mix. Arrival placements depend on history, so there is no
// closed-form oracle; the invariants are that every operation keeps the
// engine self-consistent (bit-exact folds, one machine per task) and
// admission-feasible, and that rejected mutations leave the state
// unchanged.
func TestEngineArrivalMixedOps(t *testing.T) {
	for _, adm := range testAdmissions {
		adm := adm
		t.Run(adm.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(adm.Name())) * 271))
			for inst := 0; inst < 10; inst++ {
				p := randPlatform(rng)
				cur := task.Set{{WCET: 1, Period: 1 << 20}}
				e, err := NewEngine(cur, p, Options{Policy: FirstFitArrival(), Admission: adm, Alpha: 1})
				if err != nil {
					t.Fatal(err)
				}
				for op := 0; op < 150; op++ {
					before := e.Result().Clone()
					beforeTasks := e.Tasks()
					switch k := rng.Intn(10); {
					case k < 5:
						tk := randTask(rng)
						_, admitted, err := e.Admit(tk)
						if err != nil {
							t.Fatal(err)
						}
						if !admitted {
							requireUnchanged(t, e, before, beforeTasks)
						}
					case k < 7 && e.Len() > 1:
						if _, ok, err := e.Remove(rng.Intn(e.Len())); err != nil {
							t.Fatal(err)
						} else if !ok {
							t.Fatal("arrival Remove must always succeed")
						}
					default:
						id := rng.Intn(e.Len())
						wcet := 1 + rng.Int63n(e.Tasks()[id].Period)
						_, ok, err := e.UpdateWCET(id, wcet)
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							requireUnchanged(t, e, before, beforeTasks)
						}
					}
					if err := e.SelfCheck(); err != nil {
						t.Fatalf("inst %d op %d: %v", inst, op, err)
					}
				}
			}
		})
	}
}

func requireUnchanged(t *testing.T, e *Engine, before partition.Result, beforeTasks task.Set) {
	t.Helper()
	sameResult(t, "rollback", e.Result().Clone(), before)
	if !reflect.DeepEqual(e.Tasks(), beforeTasks) {
		t.Fatal("rejected mutation changed the resident task set")
	}
}

// TestEngineRejectionWitness pins the failure-path contract on a small
// hand-built instance: the witness result equals the fresh solve of the
// candidate set, and the engine state survives untouched.
func TestEngineRejectionWitness(t *testing.T) {
	p := machine.New(1)
	cur := task.Set{{WCET: 3, Period: 10}, {WCET: 2, Period: 10}}
	e, err := NewEngine(cur, p, Options{Admission: partition.EDFAdmission{}, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	hog := task.Task{WCET: 9, Period: 10}
	candidate := append(cur.Clone(), hog)
	want := freshSorted(t, candidate, p, partition.EDFAdmission{}, 1)
	if want.Feasible {
		t.Fatal("test instance must be infeasible")
	}
	res, admitted, err := e.Admit(hog)
	if err != nil {
		t.Fatal(err)
	}
	if admitted {
		t.Fatal("hog must be rejected")
	}
	sameResult(t, "witness", res.Clone(), want)
	sameResult(t, "state", e.Result().Clone(), freshSorted(t, cur, p, partition.EDFAdmission{}, 1))
}

// TestEngineInputValidation covers the constructor and mutation guards.
func TestEngineInputValidation(t *testing.T) {
	p := machine.New(1)
	ts := task.Set{{WCET: 1, Period: 10}}
	if _, err := NewEngine(ts, p, Options{Admission: partition.RMSExactAdmission{}, Alpha: 1}); err == nil {
		t.Fatal("generic admission must be rejected")
	}
	if _, err := NewEngine(ts, p, Options{Admission: partition.EDFAdmission{}, Alpha: -1}); err == nil {
		t.Fatal("negative alpha must be rejected")
	}
	if _, err := NewEngine(task.Set{{WCET: 20, Period: 10}}, p, Options{Admission: partition.EDFAdmission{}, Alpha: 1}); err != ErrInfeasible {
		t.Fatal("infeasible seed must return ErrInfeasible")
	}
	e, err := NewEngine(ts, p, Options{Admission: partition.EDFAdmission{}, Alpha: 0})
	if err != nil {
		t.Fatal(err)
	}
	if e.Alpha() != 1 {
		t.Fatalf("alpha 0 must normalize to 1, got %v", e.Alpha())
	}
	if _, _, err := e.Remove(0); err == nil {
		t.Fatal("removing the last task must error")
	}
	if _, _, err := e.Remove(5); err == nil {
		t.Fatal("out-of-range Remove must error")
	}
	if _, _, err := e.UpdateWCET(0, 0); err == nil {
		t.Fatal("non-positive wcet must error")
	}
	if _, _, err := e.UpdateWCET(3, 1); err == nil {
		t.Fatal("out-of-range UpdateWCET must error")
	}
	if _, _, err := e.Admit(task.Task{WCET: 0, Period: 5}); err == nil {
		t.Fatal("invalid task must error")
	}
	if _, ok, err := e.UpdateWCET(0, 1); err != nil || !ok {
		t.Fatal("no-op UpdateWCET must succeed")
	}
}
