package online

import (
	"fmt"
	"math/rand"
	"testing"

	"partfeas/internal/dbf"
	"partfeas/internal/machine"
	"partfeas/internal/partition"
	"partfeas/internal/task"
)

// benchInstance builds the acceptance-criteria instance: m=64 machines,
// n=1000 resident tasks at moderate total utilization so admissions
// almost always succeed.
func benchInstance() (task.Set, machine.Platform) {
	rng := rand.New(rand.NewSource(97))
	const m, n = 64, 1000
	speeds := make([]float64, m)
	for j := range speeds {
		speeds[j] = 0.5 + 2*rng.Float64()
	}
	p := machine.New(speeds...)
	var total float64
	for _, s := range speeds {
		total += s
	}
	ts := make(task.Set, n)
	for i := range ts {
		per := int64(100 + rng.Intn(900))
		// Target ~40% of platform capacity in aggregate.
		u := 0.4 * total / n * (0.5 + rng.Float64())
		wc := int64(u * float64(per))
		if wc < 1 {
			wc = 1
		}
		ts[i] = task.Task{WCET: wc, Period: per}
	}
	return ts, p
}

// benchProbes: "tail" has a utilization below every resident task, so
// its sorted position is last and Admit takes the capacity-tree fast
// path — the typical case for a new small task joining a large set.
// "interior" lands mid-order and forces a suffix replay, first-fit's
// genuinely expensive case (removing it cascades later placements
// exactly as a fresh solve would).
var benchProbes = []struct {
	name string
	tk   task.Task
}{
	{"tail", task.Task{WCET: 1, Period: 1 << 20}},
	{"interior", task.Task{WCET: 7, Period: 100}},
}

// benchModes names the two first-fit policies the engine benchmarks
// compare (the names are the recorded benchmark keys).
var benchModes = []struct {
	name string
	pol  Policy
}{{"sorted", FirstFitSorted()}, {"arrival", FirstFitArrival()}}

// BenchmarkOnlineAdmit measures one incremental admit+remove round trip
// on a live engine — the operation pair a session performs for a
// rejected-then-rolled-back or probed mutation, and the engine-backed
// replacement for the full re-solve below. The acceptance comparison is
// sorted/tail (the path sessions hit for typical arrivals) against
// BenchmarkFullResolveAdmit.
func BenchmarkOnlineAdmit(b *testing.B) {
	ts, p := benchInstance()
	for _, mode := range benchModes {
		for _, probe := range benchProbes {
			if !mode.pol.Ordered() && probe.name == "interior" {
				continue // arrival placement is position-independent
			}
			b.Run(mode.name+"/"+probe.name, func(b *testing.B) {
				e, err := NewEngine(ts, p, Options{Policy: mode.pol, Admission: partition.EDFAdmission{}, Alpha: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok, err := e.Admit(probe.tk); err != nil || !ok {
						b.Fatalf("admit: ok=%v err=%v", ok, err)
					}
					if _, ok, err := e.Remove(e.Len() - 1); err != nil || !ok {
						b.Fatalf("remove: ok=%v err=%v", ok, err)
					}
				}
			})
		}
	}
}

// BenchmarkOnlineAdmitBatch measures a 64-task interior batch admitted
// as one merged replay. The batch scatters interior insertions across
// the placement order, yet pays one checkpoint restore and one suffix
// walk for the whole batch, so the amortized ns/task metric lands
// within a small factor of a single tail admit instead of costing 64
// interior replays. Engine state is rebuilt outside the timer; the
// timed section is exactly the AdmitBatch call.
func BenchmarkOnlineAdmitBatch(b *testing.B) {
	ts, p := benchInstance()
	const batch = 64
	bt := make([]task.Task, batch)
	for i := range bt {
		// Utilizations spread across the resident range (~0.019–0.058)
		// so the batch scatters over many distinct interior positions.
		bt[i] = task.Task{WCET: 7, Period: int64(140 + 5*i)}
	}
	e, err := NewEngine(ts, p, Options{Admission: partition.EDFAdmission{}, Alpha: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the engine's arenas and checkpoint rows once so the timed
	// loop measures the steady state, then reuse one engine throughout:
	// cleanup removes the batch's tasks between iterations, untimed.
	undo := func() {
		for k := 0; k < batch; k++ {
			if _, ok, err := e.Remove(e.Len() - 1); err != nil || !ok {
				b.Fatalf("remove: ok=%v err=%v", ok, err)
			}
		}
	}
	if _, _, err := e.AdmitBatch(bt, BestEffort); err != nil {
		b.Fatal(err)
	}
	undo()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, admitted, err := e.AdmitBatch(bt, BestEffort)
		if err != nil {
			b.Fatal(err)
		}
		for k, ok := range admitted {
			if !ok {
				b.Fatalf("batch task %d rejected", k)
			}
		}
		b.StopTimer()
		undo()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/task")
}

// BenchmarkFullResolveAdmit measures the path the engine replaces: the
// session's legacy admit, which clones the candidate set and re-solves
// the whole instance from scratch (NewSolver + Solve) per mutation.
func BenchmarkFullResolveAdmit(b *testing.B) {
	ts, p := benchInstance()
	cfg := partition.Paper(partition.EDFAdmission{}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		candidate := append(ts.Clone(), benchProbes[0].tk)
		s, err := partition.NewSolver(candidate, p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Solve(1)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible {
			b.Fatal("bench instance must be feasible")
		}
	}
}

// BenchmarkRepartitionPlan measures the drift measurement itself (a
// fresh sorted solve plus the diff) at the acceptance-criteria scale.
func BenchmarkRepartitionPlan(b *testing.B) {
	ts, p := benchInstance()
	e, err := NewEngine(ts, p, Options{Policy: FirstFitArrival(), Admission: partition.EDFAdmission{}, Alpha: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PlanRepartition(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchConstrainedInstance mirrors benchInstance's scale (m=64, n=1000,
// ~40% aggregate utilization) with constrained deadlines and dyadic
// periods spread from 2^12 to 2^20. The spread is what separates the
// tiers: a machine holding a long-period task alongside short ones has
// an exact-test horizon of maxD·Σ1/P ≈ 10^4 checkpoints per probe,
// while the density fold answers the same probe in O(1) and the
// envelope band in O(n_j·k).
//
// Everything lives on an exact float64 grid — utilizations are
// multiples of 2^-12, speeds multiples of 1/4, periods powers of two —
// so a machine's utilization slack is either exactly zero (the cheap
// 2^20-hyperperiod branch) or at least 2^-12, which bounds the La
// horizon num/(s−u) every probe can see. Off-grid continuous draws
// admit probes with slack ~1e-5 whose checkpoint enumeration blows the
// analysis budget and aborts the solve.
func benchConstrainedInstance() (dbf.Set, machine.Platform) {
	rng := rand.New(rand.NewSource(97))
	const m, n = 64, 1000
	speeds := make([]float64, m)
	for j := range speeds {
		speeds[j] = float64(2+rng.Intn(9)) / 4
	}
	p := machine.New(speeds...)
	var total float64
	for _, s := range speeds {
		total += s
	}
	cs := make(dbf.Set, n)
	for i := range cs {
		per := int64(1) << (12 + rng.Intn(9))
		u := 0.4 * total / n * (0.5 + rng.Float64())
		q := int64(u*4096 + 0.5)
		if q < 1 {
			q = 1
		}
		// Deadline one tick under the period: the density excess over
		// utilization stays ~1e-4 per machine, so packed machines remain
		// answerable by the density tier while the exact test still runs
		// the full constrained analysis.
		cs[i] = dbf.Task{WCET: q * (per >> 12), Deadline: per - 1, Period: per}
	}
	return cs, p
}

// benchDBFProbes: the constrained analogues of benchProbes — "tail"
// has a density below every resident's, so it appends at the end of the
// sorted order (the steady-state arrival); "interior" lands mid-order,
// forcing a suffix replay through the tiered pipeline. Both stay on the
// instance's utilization grid (see benchConstrainedInstance).
var benchDBFProbes = []struct {
	name string
	tk   dbf.Task
}{
	{"tail", dbf.Task{WCET: 1, Deadline: 1 << 19, Period: 1 << 20}},
	{"interior", dbf.Task{WCET: 80, Deadline: 4095, Period: 4096}},
}

// BenchmarkOnlineAdmitDBF measures one constrained admit+remove round
// trip at the acceptance scale, in two configurations: "tiered" runs the
// full pipeline (density pre-filter, k=8 approximate envelope, exact
// fallback) and "exact" disables the cheap tiers (k=0) so every probe
// pays the full processor-demand test. The gap between them is the
// pipeline's value; each run also exports the fraction of feasibility
// decisions answered without the exact test as "cheap-tier-rate".
// Engines are built once and shared across reruns — every round trip
// restores the resident state exactly, which the differential tests
// prove — because the k=0 construction alone runs a full exact solve.
func BenchmarkOnlineAdmitDBF(b *testing.B) {
	cs, p := benchConstrainedInstance()
	engines := map[int]*Engine{}
	for _, k := range []int{8, 0} {
		e, err := newConstrained(cs, p, Options{Alpha: 1, ApproxK: k})
		if err != nil {
			b.Fatal(err)
		}
		engines[k] = e
	}
	for _, cfg := range []struct {
		name string
		k    int
	}{{"tiered", 8}, {"exact", 0}} {
		for _, probe := range benchDBFProbes {
			b.Run(cfg.name+"/"+probe.name, func(b *testing.B) {
				e := engines[cfg.k]
				// One untimed round trip warms arenas, checkpoint rows
				// and the exact-probe memo to their steady-state shape.
				if _, ok, err := e.AdmitConstrained(probe.tk); err != nil || !ok {
					b.Fatalf("warm admit: ok=%v err=%v", ok, err)
				}
				if _, ok, err := e.Remove(e.Len() - 1); err != nil || !ok {
					b.Fatalf("warm remove: ok=%v err=%v", ok, err)
				}
				d0, a0, x0 := e.TierCounts()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok, err := e.AdmitConstrained(probe.tk); err != nil || !ok {
						b.Fatalf("admit: ok=%v err=%v", ok, err)
					}
					if _, ok, err := e.Remove(e.Len() - 1); err != nil || !ok {
						b.Fatalf("remove: ok=%v err=%v", ok, err)
					}
				}
				b.StopTimer()
				d1, a1, x1 := e.TierCounts()
				if decisions := float64((d1 - d0) + (a1 - a0) + (x1 - x0)); decisions > 0 {
					b.ReportMetric(float64((d1-d0)+(a1-a0))/decisions, "cheap-tier-rate")
				}
			})
		}
	}
}

// TestBenchConstrainedInstanceFeasible keeps the constrained benchmark
// instance honest at both pipeline depths.
func TestBenchConstrainedInstanceFeasible(t *testing.T) {
	cs, p := benchConstrainedInstance()
	for _, k := range []int{0, 8} {
		if _, err := newConstrained(cs, p, Options{Alpha: 1, ApproxK: k}); err != nil {
			t.Fatal(fmt.Errorf("k=%d: %w", k, err))
		}
	}
}

// TestBenchInstanceFeasible keeps the benchmark instance honest: it must
// be feasible in both modes so the loops above cannot silently no-op.
func TestBenchInstanceFeasible(t *testing.T) {
	ts, p := benchInstance()
	for _, mode := range benchModes {
		if _, err := NewEngine(ts, p, Options{Policy: mode.pol, Admission: partition.EDFAdmission{}, Alpha: 1}); err != nil {
			t.Fatal(fmt.Errorf("%s: %w", mode.name, err))
		}
	}
}
