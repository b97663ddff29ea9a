package online

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"partfeas/internal/dbf"
	"partfeas/internal/machine"
	"partfeas/internal/partition"
	"partfeas/internal/task"
)

// The differential generators keep every utilization and speed on the
// dyadic 1/64 grid: periods are powers of two ≤ 64 and speeds multiples
// of 1/4, so per-machine utilization sums are exact in float64 and the
// gap s−u is either exactly zero (the cheap hyperperiod branch — the
// lcm is ≤ 64) or at least ~1/64. That bounds every exact probe's
// checkpoint count, so ten-thousand-plus fresh FirstFit reference
// solves stay fast, and it makes the boundary u = s reachable exactly
// instead of only by float accident.

func randCTask(rng *rand.Rand) dbf.Task {
	p := int64(4) << rng.Intn(5) // 4, 8, 16, 32, 64
	c := 1 + rng.Int63n(p)
	d := c + rng.Int63n(p-c+1)
	return dbf.Task{WCET: c, Deadline: d, Period: p}
}

func randDyadicPlatform(rng *rand.Rand) machine.Platform {
	m := 1 + rng.Intn(3)
	speeds := make([]float64, m)
	for i := range speeds {
		speeds[i] = float64(1+rng.Intn(8)) / 4 // 0.25 .. 2.0
	}
	return machine.New(speeds...)
}

func cloneCSet(s dbf.Set) dbf.Set { return append(dbf.Set{}, s...) }

// newConstrained builds a constrained-deadline engine over a dbf.Set:
// the implicit task set plus opts.Deadlines taken from it.
func newConstrained(ts dbf.Set, p machine.Platform, opts Options) (*Engine, error) {
	tts := make(task.Set, len(ts))
	opts.Deadlines = make([]int64, len(ts))
	for i, t := range ts {
		tts[i] = task.Task{Name: t.Name, WCET: t.WCET, Period: t.Period}
		opts.Deadlines[i] = t.Deadline
	}
	return NewEngine(tts, p, opts)
}

// freshDBF is the differential reference: the offline constrained
// first-fit with per-probe exact FeasibleEDF admission.
func freshDBF(ts dbf.Set, p machine.Platform, alpha float64) (bool, []int, error) {
	return dbf.FirstFit(ts, p, alpha, 0)
}

func sameAssign(t *testing.T, ctx string, got, want []int) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: assignment = %v, want %v", ctx, got, want)
	}
}

// checkOp compares one engine mutation against the fresh reference
// solve over the candidate multiset. Both sides must agree on the
// verdict, the assignment, and — when the exact analysis itself fails —
// on failing, with the engine left untouched.
func checkOp(t *testing.T, ctx string, res partition.Result, ok bool, opErr error,
	feas bool, as []int, refErr error) (applied bool) {
	t.Helper()
	if refErr != nil {
		if opErr == nil {
			t.Fatalf("%s: fresh solve failed (%v) but the engine op succeeded", ctx, refErr)
		}
		return false
	}
	if opErr != nil {
		t.Fatalf("%s: engine op error %v, fresh solve succeeded", ctx, opErr)
	}
	if ok != feas {
		t.Fatalf("%s: verdict = %v, fresh = %v", ctx, ok, feas)
	}
	sameAssign(t, ctx, append([]int(nil), res.Assignment...), as)
	return ok
}

// TestEngineDBFSortedDifferential is the tentpole's acceptance test:
// over randomized Admit/Remove/UpdateWCET/AdmitBatch sequences on
// constrained-deadline sets, every sorted-order engine verdict and
// assignment must be identical to a fresh dbf.FirstFit (exact-admission)
// solve over the surviving multiset — no matter which tier answered.
// k = 0 runs the exact-only pipeline; the tiered depths must agree with
// it by agreeing with the same reference. The three depths × instances
// × ops exceed 10k compared mutations.
func TestEngineDBFSortedDifferential(t *testing.T) {
	const (
		instances = 12
		opsPer    = 300
	)
	for _, k := range []int{0, 1, 4} {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(k)*7919 + 13))
			overCap := 0
			for inst := 0; inst < instances; inst++ {
				p := randDyadicPlatform(rng)
				alpha := []float64{1, 1, 1.5, 2.5}[rng.Intn(4)]
				cur := dbf.Set{{WCET: 1, Deadline: 64, Period: 64}}
				e, err := newConstrained(cur, p, Options{Alpha: alpha, ApproxK: k})
				if err != nil {
					t.Fatalf("inst %d: seed engine: %v", inst, err)
				}
				for op := 0; op < opsPer; op++ {
					ctx := fmt.Sprintf("inst %d op %d", inst, op)
					// Forced mutations commit whatever the verdict, so
					// the engine also runs over capacity, where it must
					// keep answering what the fresh solve answers.
					force := rng.Intn(6) == 0
					switch c := rng.Intn(10); {
					case c < 4: // admit
						tk := randCTask(rng)
						cand := append(cloneCSet(cur), tk)
						feas, as, refErr := freshDBF(cand, p, alpha)
						admit := e.AdmitConstrained
						if force {
							admit = e.ForceAdmitConstrained
						}
						res, ok, err := admit(tk)
						if checkOp(t, ctx+" admit", res, ok, err, feas, as, refErr) || force && err == nil {
							cur = cand
						}
					case c < 6 && len(cur) > 1: // remove
						id := rng.Intn(len(cur))
						shr := append(cloneCSet(cur[:id]), cur[id+1:]...)
						feas, as, refErr := freshDBF(shr, p, alpha)
						remove := e.Remove
						if force {
							remove = e.ForceRemove
						}
						res, ok, err := remove(id)
						if checkOp(t, ctx+" remove", res, ok, err, feas, as, refErr) || force && err == nil {
							cur = shr
						}
					case c < 8: // update WCET
						id := rng.Intn(len(cur))
						w := 1 + rng.Int63n(cur[id].Deadline)
						upd := cloneCSet(cur)
						upd[id].WCET = w
						feas, as, refErr := freshDBF(upd, p, alpha)
						update := e.UpdateWCET
						if force {
							update = e.ForceUpdateWCET
						}
						res, ok, err := update(id, w)
						if checkOp(t, ctx+" update", res, ok, err, feas, as, refErr) || force && err == nil {
							cur = upd
						}
					default: // batch admit
						bn := 2 + rng.Intn(3)
						batch := make(dbf.Set, bn)
						for i := range batch {
							batch[i] = randCTask(rng)
						}
						if rng.Intn(2) == 0 { // AllOrNothing
							union := append(cloneCSet(cur), batch...)
							feas, as, refErr := freshDBF(union, p, alpha)
							_, admitted, err := e.AdmitBatchConstrained(batch, AllOrNothing)
							if refErr != nil {
								if err == nil {
									t.Fatalf("%s: fresh union solve failed (%v) but batch succeeded", ctx, refErr)
								}
								continue
							}
							if err != nil {
								t.Fatalf("%s: Batch: %v", ctx, err)
							}
							for i, a := range admitted {
								if a != feas {
									t.Fatalf("%s: batch admitted[%d]=%v, fresh=%v", ctx, i, a, feas)
								}
							}
							if feas {
								cur = union
								sameAssign(t, ctx+" batch", append([]int(nil), e.Result().Assignment...), as)
							}
						} else { // BestEffort = sequential-admit semantics
							wantAdm := make([]bool, bn)
							mirror := cloneCSet(cur)
							refFailed := false
							for i, tk := range batch {
								cand := append(cloneCSet(mirror), tk)
								feas, _, refErr := freshDBF(cand, p, alpha)
								if refErr != nil {
									refFailed = true
									break
								}
								wantAdm[i] = feas
								if feas {
									mirror = cand
								}
							}
							_, admitted, err := e.AdmitBatchConstrained(batch, BestEffort)
							if refFailed {
								if err == nil {
									t.Fatalf("%s: fresh sequential solve failed but batch succeeded", ctx)
								}
								continue
							}
							if err != nil {
								t.Fatalf("%s: Batch: %v", ctx, err)
							}
							if !reflect.DeepEqual(admitted, wantAdm) {
								t.Fatalf("%s: batch admitted=%v, want %v", ctx, admitted, wantAdm)
							}
							cur = mirror
						}
					}
					// The engine's resident state must match a fresh solve
					// after every few mutations, and its internals verify.
					if op%13 == 0 || op == opsPer-1 {
						feas, as, refErr := freshDBF(cur, p, alpha)
						if refErr != nil {
							t.Fatalf("inst %d op %d: fresh state solve: %v", inst, op, refErr)
						}
						sameAssign(t, "state", append([]int(nil), e.Result().Assignment...), as)
						if e.Feasible() != feas {
							t.Fatalf("inst %d op %d: Feasible() = %v, fresh %v", inst, op, e.Feasible(), feas)
						}
						if !feas {
							overCap++
						}
						if err := e.SelfCheck(); err != nil {
							t.Fatalf("inst %d op %d: SelfCheck: %v", inst, op, err)
						}
					}
					if got := e.Len(); got != len(cur) {
						t.Fatalf("inst %d op %d: %d resident, want %d", inst, op, got, len(cur))
					}
				}
				if k >= 1 {
					d, a, x := e.TierCounts()
					if d+a+x == 0 {
						t.Fatalf("inst %d: tiered engine recorded no tier decisions", inst)
					}
				}
			}
			if overCap == 0 {
				t.Fatal("no state check saw the engine over capacity")
			}
		})
	}
}

// TestEngineDBFTierCounts pins the tiers actually firing: a lightly
// loaded tiered engine must answer most probes without the exact test,
// and per-op stats must report the deepest tier used.
func TestEngineDBFTierCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := machine.New(1, 1, 1, 1)
	seed := dbf.Set{{WCET: 1, Deadline: 1 << 18, Period: 1 << 18}}
	e, err := newConstrained(seed, p, Options{Alpha: 1, ApproxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		pp := int64(100 + rng.Intn(900))
		c := 1 + rng.Int63n(pp/50+1)
		d := c + (pp-c)/2
		_, admitted, err := e.AdmitConstrained(dbf.Task{WCET: c, Deadline: d, Period: pp})
		if err != nil {
			t.Fatal(err)
		}
		if admitted && e.LastOpStats().MaxTier == 0 {
			t.Fatalf("op %d: admitted with MaxTier 0 on a constrained engine", i)
		}
	}
	dn, ap, ex := e.TierCounts()
	if dn+ap == 0 {
		t.Fatalf("cheap tiers never fired: density=%d approx=%d exact=%d", dn, ap, ex)
	}
	if ex > (dn+ap+ex)/2 {
		t.Fatalf("exact tier dominated a low-load workload: density=%d approx=%d exact=%d", dn, ap, ex)
	}
	if err := e.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDBFArrivalSmoke exercises the arrival-order constrained
// engine: local admits, removals and updates with SelfCheck after every
// mutation (there is no offline reference for arrival order).
func TestEngineDBFArrivalSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := machine.New(0.5, 1, 2)
	cur := dbf.Set{{WCET: 1, Deadline: 64, Period: 64}}
	e, err := newConstrained(cur, p, Options{Policy: FirstFitArrival(), Alpha: 1, ApproxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	live := 1
	for op := 0; op < 400; op++ {
		switch c := rng.Intn(10); {
		case c < 5:
			if _, ok, err := e.AdmitConstrained(randCTask(rng)); err != nil {
				t.Fatalf("op %d: Admit: %v", op, err)
			} else if ok {
				live++
			}
		case c < 7 && live > 1:
			if _, ok, err := e.Remove(rng.Intn(live)); err != nil {
				t.Fatalf("op %d: Remove: %v", op, err)
			} else if ok {
				live--
			}
		default:
			id := rng.Intn(live)
			w := 1 + rng.Int63n(e.Deadline(id))
			if _, _, err := e.UpdateWCET(id, w); err != nil {
				t.Fatalf("op %d: Update: %v", op, err)
			}
		}
		if err := e.SelfCheck(); err != nil {
			t.Fatalf("op %d: SelfCheck: %v", op, err)
		}
	}
}

// TestEngineDBFHorizonError verifies the engine surfaces FeasibleEDF's
// typed analysis errors exactly where the offline solve hits them: a
// candidate whose utilization equals the speed over near-coprime ~2^39
// periods sends the exact test down the hyperperiod branch, which
// overflows and reports ErrHorizonTooLarge instead of a wrong answer.
func TestEngineDBFHorizonError(t *testing.T) {
	p1 := int64(1)<<39 + 1
	p2 := int64(1)<<39 - 1
	t1 := dbf.Task{Name: "a", WCET: 1 << 30, Deadline: (p1 + 1) / 2, Period: p1}
	t2 := dbf.Task{Name: "b", WCET: 1 << 30, Deadline: (p2 + 1) / 2, Period: p2}
	speed := t1.Utilization() + t2.Utilization()
	plat := machine.New(speed)
	ts := dbf.Set{t1, t2}

	if _, _, err := dbf.FirstFit(ts, plat, 1, 0); !errors.Is(err, dbf.ErrHorizonTooLarge) {
		t.Fatalf("fresh FirstFit err = %v, want ErrHorizonTooLarge", err)
	}
	for _, k := range []int{0, 4} {
		if _, err := newConstrained(ts, plat, Options{Alpha: 1, ApproxK: k}); !errors.Is(err, dbf.ErrHorizonTooLarge) {
			t.Fatalf("k=%d: constrained build err = %v, want ErrHorizonTooLarge", k, err)
		}
	}

	// The same candidate offered to a live engine must reject with the
	// same typed error and leave the engine untouched.
	e, err := newConstrained(dbf.Set{t1}, plat, Options{Alpha: 1, ApproxK: 4})
	if err != nil {
		t.Fatalf("single-task engine: %v", err)
	}
	if _, _, err := e.AdmitConstrained(t2); !errors.Is(err, dbf.ErrHorizonTooLarge) {
		t.Fatalf("Admit err = %v, want ErrHorizonTooLarge", err)
	}
	if e.Len() != 1 {
		t.Fatalf("failed admit mutated the engine: %d tasks", e.Len())
	}
	if err := e.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDBFValidation covers the constrained-specific argument
// checks: the period cap, malformed deadlines, repartition refusal, and
// UpdateWCET's C ≤ D rule.
func TestEngineDBFValidation(t *testing.T) {
	p := machine.New(1, 1)
	seed := dbf.Set{{WCET: 1, Deadline: 100, Period: 100}}
	e, err := newConstrained(seed, p, Options{Alpha: 1, ApproxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.AdmitConstrained(dbf.Task{WCET: 1, Deadline: 2, Period: maxConstrainedPeriod + 1}); err == nil {
		t.Fatal("period above the cap admitted")
	}
	if _, _, err := e.AdmitConstrained(dbf.Task{WCET: 5, Deadline: 4, Period: 10}); err == nil {
		t.Fatal("D < C admitted")
	}
	if _, ok, err := e.AdmitConstrained(dbf.Task{WCET: 2, Deadline: 4, Period: 10}); err != nil || !ok {
		t.Fatalf("valid constrained admit failed: admitted=%v err=%v", ok, err)
	}
	if _, _, err := e.UpdateWCET(1, 5); err == nil {
		t.Fatal("UpdateWCET above the deadline accepted")
	}
	if _, err := e.PlanRepartition(); err == nil {
		t.Fatal("PlanRepartition on a constrained engine succeeded")
	}
	if _, err := newConstrained(seed, p, Options{Alpha: 1, ApproxK: maxApproxK + 10}); err != nil {
		t.Fatalf("oversized k must clamp, not fail: %v", err)
	}
	if _, err := newConstrained(dbf.Set{}, p, Options{Alpha: 1, ApproxK: 4}); err == nil {
		t.Fatal("empty constrained set accepted")
	}
}
